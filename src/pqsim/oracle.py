"""Exact brute-force reference distribution by truncated Fock-space
propagation.

Losses are made unitary before propagating: a lossy SPDC signal arm scales
its row of the network contraction, and the result is dilated with vacuum
environment modes.  The enlarged network is then photon-number conserving,
its matrix elements between occupation states are permanents of
repeated-row/column submatrices, and the environment is traced by
marginalizing occupations: per photon-number sector, tables built once
gather each ket's distinct rows in the (K, n, B) layout that
:func:`~pqsim.linalg.permanent_batch` walks in prod_k (c_k + 1) steps per
state (c_k photons on input mode k) and code each output state by its system
occupation, so the trace is one ``bincount`` and the on-off POVM one product
with a click table built mode by mode.  Exponential cost is accepted; this
module exists to verify the samplers at desk scale, not to compete with
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OracleSizeError, TruncationError
from .experiment import ExperimentConfig
from .linalg import economy_dilation, permanent_batch
from .states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

#: Largest mode count (system + environment) the oracle accepts.
MAX_ORACLE_MODES = 12

#: Most photons in a ket the oracle propagates; its permanents take up to
#: 2^k Ryser steps per output state, as k single photons do.
MAX_ORACLE_PHOTONS = 16

#: Most Ryser steps in the sector of the largest ket, counted as states
#: times 2^k, an upper bound: on 2 cores 10 single photons over 12 modes
#: (3.6e8 steps) take about 20 s.
MAX_SECTOR_STEPS = 6 * 10**8

#: Neglected-probability budget; beyond this the oracle refuses.
TRUNCATION_BUDGET = 1e-6

#: Most entries of one (K, n, B) permanent stack; larger sectors go in slices.
_STACK_ENTRIES = 1 << 20

#: Largest click-probability table the POVM fold holds at once, in entries.
_FOLD_ENTRIES = 1 << 18

_FACTORIALS = np.array([math.factorial(k) for k in range(171)], dtype=float)


def _sector(modes: int, total: int) -> tuple[np.ndarray, np.ndarray]:
    """States of `modes` modes with `total` photons, in lexicographic order of
    their occupations ``occ`` (count, modes); column k of ``photons``
    (total, count) lists state k's photons by mode.  Reversed multisets of
    ``combinations_with_replacement`` are in exactly that order."""
    count = math.comb(modes + total - 1, total)
    multisets = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(modes), total))
    flat = np.fromiter(multisets, dtype=np.intp, count=count * total)
    photons = np.ascontiguousarray(flat.reshape(count, total)[::-1].T)
    occ = np.zeros((count, modes), dtype=np.intp)
    for photon in photons:
        occ[np.arange(count), photon] += 1
    return photons, occ


@dataclass(frozen=True)
class ProbabilityTable:
    """Distribution over click patterns, with its truncation bookkeeping."""

    outcomes: tuple[str, ...]
    probs: np.ndarray
    truncation_error: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (len(self.outcomes),):
            raise DimensionError("outcomes and probs must have equal length")
        width = len(self.outcomes[0]) if self.outcomes else 0
        if not (all(isinstance(o, str) and len(o) == width for o in self.outcomes)
                and set("".join(self.outcomes)) <= {"0", "1"}
                and len(set(self.outcomes)) == len(self.outcomes)):
            raise DimensionError("outcomes must be distinct 0/1 strings of one length")
        if np.min(probs, initial=0.0) < -1e-9:
            raise ValueError(f"negative probability {probs.min():.3e}")
        probs = np.clip(probs, 0.0, None)
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum():.12f}, not 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    def as_dict(self) -> dict:
        return dict(zip(self.outcomes, self.probs.tolist()))

    def to_dict(self) -> dict:
        return {
            "outcomes": list(self.outcomes),
            "probs": self.probs.tolist(),
            "truncation_error": self.truncation_error,
        }


def all_bitstrings(modes: int) -> tuple[str, ...]:
    return tuple(format(i, f"0{modes}b") for i in range(1 << modes))


class _Propagator:
    """Applies the Fock-space representation of a unitary transfer matrix.

    Matrix elements between occupations n (input) and m (output) with equal
    totals are perm(T[rows repeated per n, cols repeated per m]) divided by
    sqrt(prod n_i! prod m_j!), batched over a photon-number sector.
    """

    def __init__(self, transfer: np.ndarray, system_modes: int):
        self.transfer = np.asarray(transfer, dtype=complex)
        self.modes = self.transfer.shape[0]
        self.system_modes = system_modes
        self._sectors: dict[int, tuple] = {}
        self._cache: dict[tuple, np.ndarray] = {}

    def sector(self, total: int):
        """``(photons, norms, codes, system)`` of one sector: ``codes`` gives
        each output state's row in ``system``, its distinct system parts."""
        if total not in self._sectors:
            photons, occ = _sector(self.modes, total)
            norms = np.sqrt(np.prod(_FACTORIALS[occ], axis=1))
            # Lexicographic order keeps equal system parts (a prefix) together.
            system = occ[:, : self.system_modes]
            starts = np.r_[True, np.any(system[1:] != system[:-1], axis=1)]
            self._sectors[total] = (photons, norms, np.cumsum(starts) - 1, system[starts])
        return self._sectors[total]

    def apply(self, ket: tuple[int, ...]) -> np.ndarray:
        """Amplitudes of U|ket> over the ket's photon-number sector."""
        if ket not in self._cache:
            total = sum(ket)
            photons, out_norms, _, _ = self.sector(total)
            if total == 0:
                amps = np.ones(1, dtype=complex)
            else:
                rows, amps = np.flatnonzero(ket), np.empty(len(out_norms), dtype=complex)
                step = max(1, _STACK_ENTRIES // (len(rows) * total))
                for s in range(0, len(amps), step):
                    # stack[k, c, b] = T[rows[k], photons[c, b]], C-contiguous
                    stack = self.transfer[rows[:, None, None], photons[None, :, s : s + step]]
                    amps[s : s + step] = permanent_batch(stack.transpose(2, 0, 1),
                                                         [ket[k] for k in rows])
                amps /= math.sqrt(np.prod(_FACTORIALS[list(ket)])) * out_norms
            self._cache[ket] = amps
        return self._cache[ket]


def _source_block(source, n_max: int):
    """Mixture decomposition of one source block: ``(alternatives, tail)``,
    each alternative ``(weight, amplitudes, occupations)`` with one row of
    occupations over the block's ports per ket."""
    n = np.arange(n_max + 1)
    if isinstance(source, MixedSinglePhoton):
        eta = source.eta_bar
        return [(1.0 - eta, [1.0], [[0]]), (eta, [1.0], [[1]])], 0.0
    if isinstance(source, Coherent):
        a = complex(source.amplitude)
        amps = np.array([a**k / math.sqrt(math.factorial(k)) for k in n.tolist()],
                        dtype=complex) * math.exp(-abs(a) ** 2 / 2.0)
        kept = float(np.sum(np.abs(amps) ** 2))
        return [(1.0, amps / math.sqrt(kept), n[:, None])], max(0.0, 1.0 - kept)
    if isinstance(source, Thermal) and source.mean_photons != 0.0:
        q = source.mean_photons / (1.0 + source.mean_photons)
        weights = np.array([(1.0 - q) * q**k for k in n.tolist()])
        tail = max(0.0, 1.0 - float(weights.sum()))
        return [(float(w), [1.0], [[k]]) for k, w in enumerate(weights / weights.sum())], tail
    if isinstance(source, SpdcPair) and source.r != 0.0:
        th = math.tanh(source.r)
        amps = np.array([th**k / math.cosh(source.r) for k in n.tolist()])
        amps /= math.sqrt(float(np.sum(amps**2)))
        # The Schmidt tail mass is exact.
        return [(1.0, amps, np.stack([n, n], axis=1))], th ** (2 * (n_max + 1))
    if isinstance(source, (Vacuum, Thermal, SpdcPair)):
        return [(1.0, [1.0], [[0] * len(source.port_names)])], 0.0
    raise TypeError(f"oracle cannot expand source {source!r}")


def _expand(entries, n_max: int, ket_floor: float, modes: int):
    """Each source block's mixture from :func:`_source_block` over all
    ``modes`` modes, less the kets whose weight times |amplitude|^2 falls
    below ``ket_floor``; the truncation n_max leaves; the weight dropped."""
    blocks, kept_mass, floored = [], 1.0, 0.0
    for entry in entries:
        alternatives, tail = _source_block(entry.source, n_max)
        kept_mass *= 1.0 - tail
        blocks.append([])
        for w, amps, occ in alternatives:
            amps = np.asarray(amps, dtype=complex)
            keep = w * np.abs(amps) ** 2 >= ket_floor
            floored += w * float(np.sum(np.abs(amps[~keep]) ** 2))
            if keep.any():
                full = np.zeros((int(keep.sum()), modes), dtype=np.intp)
                full[:, list(entry.ports)] = np.asarray(occ)[keep]
                blocks[-1].append((w, amps[keep], full))
    return blocks, 1.0 - kept_mass, floored


def _size_refusal(blocks, modes: int) -> str | None:
    """Why the largest kept ket of ``blocks``, k photons summed over them,
    is refused, if it is: k above :data:`MAX_ORACLE_PHOTONS`, or its sector
    over ``modes`` modes, C(modes + k - 1, k) states of 2^k Ryser steps
    each, above :data:`MAX_SECTOR_STEPS`."""
    k = sum(max((int(o.sum()) for _, _, occ in options for o in occ), default=0)
            for options in blocks)
    steps = math.comb(modes + k - 1, k) << k
    if k > MAX_ORACLE_PHOTONS or steps > MAX_SECTOR_STEPS:
        return (f"kets of up to {k} photons, a sector of {steps:.3g} permanent steps over "
                f"{modes} modes; the oracle limits are {MAX_ORACLE_PHOTONS} photons "
                f"and {MAX_SECTOR_STEPS:.3g} steps")
    return None


def _suggest_n_max(entries, ket_floor: float, modes: int) -> int | None:
    """Smallest n_max whose truncation fits the budget, if
    :func:`_size_refusal` accepts its kets over ``modes`` modes."""
    for candidate in range(1, 64):
        blocks, truncation, _ = _expand(entries, candidate, ket_floor, modes)
        if _size_refusal(blocks, modes):
            return None
        if truncation <= TRUNCATION_BUDGET:
            return candidate
    return None


def exact_distribution(
    config: ExperimentConfig,
    n_max: int = 4,
    ket_floor: float = 1e-12,
) -> ProbabilityTable:
    """Exact on-off click distribution over all 2^M outcome patterns.

    ``n_max`` truncates each coherent, thermal, or SPDC source block (per
    Schmidt index for pairs); the truncated blocks are renormalized, so the
    reported distribution is that of a state within ``truncation_error`` of
    the exact input in trace distance.  Basis kets whose probability weight
    (a mixture alternative's weight times |amplitude|^2) falls below
    ``ket_floor`` are dropped with the same bookkeeping.
    Refuses with :class:`TruncationError` (suggesting a larger n_max) when
    the neglected mass exceeds 1e-6, and with :class:`OracleSizeError` when
    the enlarged network exceeds 12 modes or, before any sector is built,
    when the largest ket that ``ket_floor`` keeps, summed over the blocks,
    exceeds 16 photons or :data:`MAX_SECTOR_STEPS`; an ``n_max`` outside [1, 170]
    (170! is the largest factorial a float holds) is a ValueError.
    """
    m_sys = config.modes
    if m_sys > MAX_ORACLE_MODES:
        raise OracleSizeError(
            f"{m_sys} system modes exceed the oracle limit of {MAX_ORACLE_MODES}"
        )
    if not 1 <= n_max < len(_FACTORIALS):
        raise ValueError(f"n_max must be in [1, {len(_FACTORIALS) - 1}], got {n_max}")

    # A lossy SPDC signal arm ahead of the network is the contraction D L,
    # row `signal` of L scaled by sqrt(eta_bl); its dilation holds both losses.
    transfer = np.array(config.transfer, dtype=complex)
    for entry in config.sources:
        if isinstance(entry.source, SpdcPair):
            transfer[entry.ports[1]] *= math.sqrt(entry.source.eta_bl)
    transfer, n_env = economy_dilation(transfer)

    k_total = m_sys + n_env
    if k_total > MAX_ORACLE_MODES:
        raise OracleSizeError(
            f"enlarged network needs {k_total} modes ({m_sys} system + {n_env} loss), "
            f"above the oracle limit of {MAX_ORACLE_MODES}"
        )

    blocks, truncation, dropped = _expand(config.sources, n_max, ket_floor, k_total)
    refusal = _size_refusal(blocks, k_total)
    if refusal:
        raise OracleSizeError(f"n_max={n_max} gives {refusal}")
    if truncation > TRUNCATION_BUDGET:
        suggestion = _suggest_n_max(config.sources, ket_floor, k_total)
        raise TruncationError(
            f"source truncation at n_max={n_max} neglects probability "
            f"{truncation:.3e} > {TRUNCATION_BUDGET:g}"
            + (f"; try n_max={suggestion}" if suggestion else
               f"; no n_max keeps the kets within {MAX_ORACLE_PHOTONS} photons or steps"),
            suggested_n_max=suggestion,
        )

    propagator = _Propagator(transfer, m_sys)
    sector_weights: dict[int, np.ndarray] = {}

    for combo in itertools.product(*blocks):
        weight = math.prod(w for w, _, _ in combo)
        # Tensor the block kets into full-network kets, the last block fastest.
        amps = np.ones(1, dtype=complex)
        occs = np.zeros((1, k_total), dtype=np.intp)
        for _, b_amps, b_occ in combo:
            amps = (amps[:, None] * b_amps).ravel()
            occs = (occs[:, None, :] + b_occ).reshape(-1, k_total)
        keep = np.abs(amps) ** 2 >= ket_floor
        lost = float(np.sum(np.abs(amps[~keep]) ** 2))
        dropped += weight * lost
        if lost > 0.0:
            amps = amps / math.sqrt(max(1.0 - lost, 1e-300))
        amps, occs = amps[keep], occs[keep]
        # Propagate sector by sector; the network conserves photon number,
        # so cross-sector coherences never reach the diagonal POVM.
        totals = occs.sum(axis=1)
        for total in dict.fromkeys(totals.tolist()):
            in_sector = totals == total
            _, norms, codes, system = propagator.sector(total)
            out = np.zeros(len(norms), dtype=complex)
            for amp, ket in zip(amps[in_sector].tolist(), occs[in_sector].tolist()):
                out += amp * propagator.apply(tuple(ket))
            marginal = np.bincount(codes, weights=np.abs(out) ** 2, minlength=len(system))
            sector_weights[total] = sector_weights.get(total, 0.0) + weight * marginal

    if truncation + dropped > TRUNCATION_BUDGET:
        raise TruncationError(
            f"truncation plus floored-ket mass {truncation + dropped:.3e} "
            f"exceeds {TRUNCATION_BUDGET:g}; lower ket_floor or raise n_max",
            suggested_n_max=None,
        )

    # Fold the diagonal on-off POVM over the marginal occupation weights.
    eta = np.array([d.eta_d for d in config.detectors])
    p_d = np.array([d.p_d for d in config.detectors])
    probs = np.zeros(1 << m_sys)
    for total, weights in sector_weights.items():
        probs += _povm_fold(weights, propagator.sector(total)[3], eta, p_d)
    probs /= probs.sum()
    return ProbabilityTable(
        outcomes=all_bitstrings(m_sys),
        probs=probs,
        truncation_error=truncation + dropped,
    )


def _povm_fold(weights: np.ndarray, occ: np.ndarray, eta: np.ndarray,
               p_d: np.ndarray) -> np.ndarray:
    """Click-pattern probabilities (mode 0 the leading bit) of occupations
    ``occ`` (n, M) held with ``weights``: ``weights @ table``, row k the
    Kronecker product over modes j of (w0, 1 - w0), w0 = (1 - p_d_j)
    (1 - eta_j)^occ[k, j], built mode by mode in chunks of _FOLD_ENTRIES."""
    off = (1.0 - p_d) * (1.0 - eta) ** occ
    chunk = max(1, _FOLD_ENTRIES >> occ.shape[1])
    probs = np.zeros(1 << occ.shape[1])
    for start in range(0, len(occ), chunk):
        rows = off[start : start + chunk]
        table = np.ones((len(rows), 1))
        for w0 in rows.T:
            pair = np.empty(table.shape + (2,))
            pair[..., 0] = table * w0[:, None]
            pair[..., 1] = table * (1.0 - w0)[:, None]
            table = pair.reshape(len(table), -1)
        probs += weights[start : start + chunk] @ table
    return probs


def _empirical_probs(table: ProbabilityTable, outcomes: np.ndarray) -> np.ndarray:
    """Frequencies of the rows of a non-empty (n, M) 0/1 array in the
    table's outcome order, counted by each row's binary code (mode 0 first);
    each distinct code is looked up among the table's, so nothing scales
    with 2^M."""
    if len(outcomes) == 0:
        raise ValueError("cannot compare against an empty sample batch")
    modes = len(table.outcomes[0])
    if outcomes.shape[1] != modes:
        raise DimensionError(
            f"batch has {outcomes.shape[1]} modes but the table covers "
            f"{modes}-mode outcomes"
        )
    if modes > 62:
        raise DimensionError(f"an int64 code holds at most 62 modes, not {modes}")
    if outcomes.size and outcomes.max() > 1:
        raise DimensionError("outcome rows must hold 0/1 clicks only")
    codes = np.zeros(len(outcomes), dtype=np.int64)
    for column in outcomes.T:
        codes <<= 1
        codes |= column
    seen, counts = np.unique(codes, return_counts=True)
    table_codes = np.array([int(bits, 2) for bits in table.outcomes], dtype=np.int64)
    order = np.argsort(table_codes)
    slot = order[np.searchsorted(table_codes[order], seen).clip(max=len(order) - 1)]
    outside = table_codes[slot] != seen
    if outside.any():
        raise DimensionError(
            f"outcome {int(seen[outside][0]):0{modes}b} not in the table's outcome space"
        )
    freqs = np.bincount(slot, weights=counts, minlength=len(order))
    return freqs / freqs.sum()


def tv_distance(p: ProbabilityTable, q) -> float:
    """Total variation distance between a table and a table or a non-empty
    sample batch (anything with an (n, M) ``outcomes`` array)."""
    if isinstance(q, ProbabilityTable):
        if set(q.outcomes) != set(p.outcomes):
            raise DimensionError("probability tables cover different outcome spaces")
        lookup = q.as_dict()
        q_probs = np.array([lookup[o] for o in p.outcomes])
    elif hasattr(q, "outcomes"):
        q_probs = _empirical_probs(p, q.outcomes)
    else:
        raise TypeError(f"cannot compare against {type(q).__name__}")
    return 0.5 * float(np.abs(p.probs - q_probs).sum())
