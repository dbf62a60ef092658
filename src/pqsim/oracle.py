"""Exact brute-force reference distribution by truncated Fock-space
propagation.

Losses are made unitary before propagating: the network contraction is
dilated with vacuum environment modes, and each lossy SPDC source gets a
virtual beamsplitter mode ahead of the network.  The enlarged network is
then photon-number conserving, its matrix elements between occupation states
are permanents of repeated-row/column submatrices, and the environment is
traced by marginalizing occupations.  Exponential cost is accepted; this
module exists to verify the samplers at desk scale, not to compete with
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionError, OracleSizeError, TruncationError
from .experiment import ExperimentConfig
from .linalg import economy_dilation, permanent, permanent_batch
from .sampler import SampleBatch
from .states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

#: Largest mode count (system + environment + virtual) the oracle accepts.
MAX_ORACLE_MODES = 12

#: Neglected-probability budget; beyond this the oracle refuses.
TRUNCATION_BUDGET = 1e-6


def fock_states(modes: int, total: int) -> list[tuple[int, ...]]:
    """All occupation vectors of `modes` modes with exactly `total` photons,
    in lexicographic order."""
    if modes == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in fock_states(modes - 1, total - first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class FockBasis:
    """Truncated Fock basis: occupations with total photon number <= n_max."""

    modes: int
    n_max: int

    @property
    def states(self) -> list[tuple[int, ...]]:
        out = []
        for total in range(self.n_max + 1):
            out.extend(fock_states(self.modes, total))
        return out

    def __len__(self) -> int:
        return sum(math.comb(self.modes + t - 1, t) for t in range(self.n_max + 1))


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
    sqrt(prod n_i! prod m_j!); permanents are evaluated batched over all
    output states of a photon-number sector.
    """

    def __init__(self, transfer: np.ndarray):
        self.transfer = np.asarray(transfer, dtype=complex)
        self.modes = self.transfer.shape[0]
        self._sectors: dict[int, tuple] = {}
        self._cache: dict[tuple, np.ndarray] = {}

    def sector(self, total: int):
        """Output states of one photon-number sector plus index/norm tables."""
        if total not in self._sectors:
            states = fock_states(self.modes, total)
            cols = np.array(
                [[j for j, occ in enumerate(m) for _ in range(occ)] for m in states],
                dtype=int,
            ).reshape(len(states), total)
            norms = np.array(
                [math.sqrt(math.prod(math.factorial(o) for o in m)) for m in states]
            )
            self._sectors[total] = (states, cols, norms)
        return self._sectors[total]

    def apply(self, ket: tuple[int, ...]) -> tuple[list, np.ndarray]:
        """Amplitudes of U|ket> over the ket's photon-number sector."""
        if ket in self._cache:
            states, _, _ = self.sector(sum(ket))
            return states, self._cache[ket]
        total = sum(ket)
        states, cols, out_norms = self.sector(total)
        if total == 0:
            amps = np.ones(1, dtype=complex)
        else:
            rows = [k for k, occ in enumerate(ket) for _ in range(occ)]
            a = self.transfer[rows, :]
            mats = a[:, cols].transpose(1, 0, 2)
            in_norm = math.sqrt(math.prod(math.factorial(o) for o in ket))
            amps = permanent_batch(mats) / (in_norm * out_norms)
        self._cache[ket] = amps
        return states, amps


def _beamsplitter_embedding(modes: int, port_a: int, port_b: int, eta: float) -> np.ndarray:
    out = np.eye(modes, dtype=complex)
    t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
    out[port_a, port_a] = t
    out[port_b, port_a] = r
    out[port_a, port_b] = -r
    out[port_b, port_b] = t
    return out


def _coherent_block(amplitude: complex, n_max: int):
    x = abs(amplitude) ** 2
    amps = np.array(
        [amplitude**n / math.sqrt(math.factorial(n)) for n in range(n_max + 1)],
        dtype=complex,
    ) * math.exp(-x / 2.0)
    kept = float(np.sum(np.abs(amps) ** 2))
    tail = max(0.0, 1.0 - kept)
    amps /= math.sqrt(kept)
    kets = [(amps[n], (n,)) for n in range(n_max + 1)]
    return [(1.0, kets)], tail


def _thermal_block(mean_photons: float, n_max: int):
    if mean_photons == 0.0:
        return [(1.0, [(1.0, (0,))])], 0.0
    q = mean_photons / (1.0 + mean_photons)
    weights = np.array([(1.0 - q) * q**n for n in range(n_max + 1)])
    tail = max(0.0, 1.0 - float(weights.sum()))
    weights /= weights.sum()
    return [(float(w), [(1.0, (n,))]) for n, w in enumerate(weights)], tail


def _spdc_block(r: float, n_max: int):
    if r == 0.0:
        return [(1.0, [(1.0, (0, 0))])], 0.0
    th = math.tanh(r)
    amps = np.array([th**n / math.cosh(r) for n in range(n_max + 1)])
    kept = float(np.sum(amps**2))
    tail = th ** (2 * (n_max + 1))  # exact Schmidt tail mass
    amps /= math.sqrt(kept)
    kets = [(amps[n], (n, n)) for n in range(n_max + 1)]
    return [(1.0, kets)], tail


def _source_block(source, n_max: int):
    """Mixture decomposition of one source block.

    Returns ``(alternatives, tail)`` where alternatives is a list of
    ``(weight, kets)`` and kets is a list of ``(amplitude, occupations)``
    over the block's ports (plus its virtual mode for lossy SPDC, appended
    last).
    """
    if isinstance(source, Vacuum):
        return [(1.0, [(1.0, (0,))])], 0.0
    if isinstance(source, MixedSinglePhoton):
        eta = source.eta_bar
        return [(1.0 - eta, [(1.0, (0,))]), (eta, [(1.0, (1,))])], 0.0
    if isinstance(source, Coherent):
        return _coherent_block(complex(source.amplitude), n_max)
    if isinstance(source, Thermal):
        return _thermal_block(source.mean_photons, n_max)
    if isinstance(source, SpdcPair):
        return _spdc_block(source.r, n_max)
    raise TypeError(f"oracle cannot expand source {source!r}")


def _source_tail(source, n_max: int) -> float:
    _, tail = _source_block(source, n_max)
    return tail


def _suggest_n_max(sources, budget: float) -> int | None:
    for candidate in range(1, 64):
        combined = 1.0 - math.prod(1.0 - _source_tail(s, candidate) for s in sources)
        if combined <= budget:
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
    falls below ``ket_floor`` are dropped with the same bookkeeping.
    Refuses with :class:`TruncationError` (suggesting a larger n_max) when
    the neglected mass exceeds 1e-6, and with :class:`OracleSizeError` when
    the enlarged network exceeds 12 modes.
    """
    m_sys = config.modes
    if m_sys > MAX_ORACLE_MODES:
        raise OracleSizeError(
            f"{m_sys} system modes exceed the oracle limit of {MAX_ORACLE_MODES}"
        )
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    lon_ext, n_env = economy_dilation(config.transfer)

    # Lossy SPDC sources get one virtual pre-network mode each.
    virtual_couplers = []  # (signal_port, eta_bl); virtual index assigned below
    for entry in config.sources:
        if isinstance(entry.source, SpdcPair) and entry.source.eta_bl < 1.0 - 1e-12:
            virtual_couplers.append((entry.ports[1], entry.source.eta_bl))
    n_virtual = len(virtual_couplers)

    k_total = m_sys + n_env + n_virtual
    if k_total > MAX_ORACLE_MODES:
        raise OracleSizeError(
            f"enlarged network needs {k_total} modes "
            f"({m_sys} system + {n_env} loss + {n_virtual} virtual), "
            f"above the oracle limit of {MAX_ORACLE_MODES}"
        )

    network = np.eye(k_total, dtype=complex)
    network[: m_sys + n_env, : m_sys + n_env] = lon_ext
    couplers = np.eye(k_total, dtype=complex)
    for v, (signal, eta) in enumerate(virtual_couplers):
        couplers = couplers @ _beamsplitter_embedding(
            k_total, signal, m_sys + n_env + v, eta
        )
    transfer = couplers @ network

    # Per-block mixture decompositions and the truncation ledger.
    blocks = []
    tails = []
    virtual_index = {signal: m_sys + n_env + v
                     for v, (signal, _) in enumerate(virtual_couplers)}
    for entry in config.sources:
        alternatives, tail = _source_block(entry.source, n_max)
        ports = list(entry.ports)
        if isinstance(entry.source, SpdcPair) and entry.ports[1] in virtual_index:
            ports = ports + [virtual_index[entry.ports[1]]]
            alternatives = [
                (w, [(a, occ + (0,)) for a, occ in kets]) for w, kets in alternatives
            ]
        blocks.append((ports, alternatives))
        tails.append(tail)
    truncation = 1.0 - math.prod(1.0 - t for t in tails)
    if truncation > TRUNCATION_BUDGET:
        suggestion = _suggest_n_max([e.source for e in config.sources], TRUNCATION_BUDGET)
        raise TruncationError(
            f"source truncation at n_max={n_max} neglects probability "
            f"{truncation:.3e} > {TRUNCATION_BUDGET:g}"
            + (f"; try n_max={suggestion}" if suggestion else ""),
            suggested_n_max=suggestion,
        )

    propagator = _Propagator(transfer)
    sys_probs: dict[tuple[int, ...], float] = {}
    dropped = 0.0

    for combo in itertools.product(*[alts for _, alts in blocks]):
        weight = math.prod(w for w, _ in combo)
        if weight == 0.0:
            continue
        # Tensor the block kets into full-network occupation kets.
        kets = [(1.0 + 0.0j, [0] * k_total)]
        for (ports, _), (_, block_kets) in zip(blocks, combo):
            new = []
            for amp, occ in kets:
                for b_amp, b_occ in block_kets:
                    merged = occ.copy()
                    for port, o in zip(ports, b_occ):
                        merged[port] = o
                    new.append((amp * b_amp, merged))
            kets = new
        amps = np.array([a for a, _ in kets])
        keep = np.abs(amps) ** 2 >= ket_floor
        lost = float(np.sum(np.abs(amps[~keep]) ** 2))
        dropped += weight * lost
        if lost > 0.0:
            amps = amps / math.sqrt(max(1.0 - lost, 1e-300))
        # Propagate sector by sector; the network conserves photon number,
        # so cross-sector coherences never reach the diagonal POVM.
        by_total: dict[int, dict[tuple, complex]] = {}
        for keep_it, amp, (_, occ) in zip(keep, amps, kets):
            if not keep_it:
                continue
            by_total.setdefault(sum(occ), {})[tuple(occ)] = amp
        for total, sector_kets in by_total.items():
            states, _, _ = propagator.sector(total)
            out = np.zeros(len(states), dtype=complex)
            for ket, amp in sector_kets.items():
                _, ket_amps = propagator.apply(ket)
                out += amp * ket_amps
            probs = np.abs(out) ** 2
            for state, p in zip(states, probs):
                if p == 0.0:
                    continue
                sys_occ = state[:m_sys]
                sys_probs[sys_occ] = sys_probs.get(sys_occ, 0.0) + weight * p

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
    for occ, p in sys_probs.items():
        w_off = (1.0 - p_d) * (1.0 - eta) ** np.array(occ)
        per_mode = [np.array([w0, 1.0 - w0]) for w0 in w_off]
        probs += p * reduce(np.kron, per_mode)
    probs /= probs.sum()
    return ProbabilityTable(
        outcomes=all_bitstrings(m_sys),
        probs=probs,
        truncation_error=truncation + dropped,
    )


def ideal_probability_permanent(unitary: np.ndarray, input_ports, output_ports) -> float:
    """|perm(U[S, T])|^2: the collision-free outcome probability for single
    photons on ports S of a lossless network measured on ports T."""
    s = sorted(input_ports)
    t = sorted(output_ports)
    if len(s) != len(t):
        raise DimensionError(
            f"input and output port sets must match in size, got {len(s)} and {len(t)}"
        )
    u = np.asarray(unitary, dtype=complex)
    sub = u[np.ix_(s, t)]
    return abs(permanent(sub)) ** 2


def _empirical_probs(table: ProbabilityTable, batch: SampleBatch) -> np.ndarray:
    """Frequencies of the batch's rows in the table's outcome order, counted
    here by each row's binary code (mode 0 first), never from ``counts``;
    each distinct code is looked up among the table's, so nothing scales
    with 2^M."""
    outcomes = batch.outcomes
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
    """Total variation distance between a table and a table or sample batch."""
    if isinstance(q, SampleBatch):
        q_probs = _empirical_probs(p, q)
    elif isinstance(q, ProbabilityTable):
        if set(q.outcomes) != set(p.outcomes):
            raise DimensionError("probability tables cover different outcome spaces")
        lookup = q.as_dict()
        q_probs = np.array([lookup[o] for o in p.outcomes])
    else:
        raise TypeError(f"cannot compare against {type(q).__name__}")
    return 0.5 * float(np.abs(p.probs - q_probs).sum())
