"""Exact reference distribution from silent-set probabilities.

A set T of detectors stays silent with probability
prod_T (1 - p_d) Tr[rho :exp(-a^dag A_T a):], A_T = W_T W_T^dag, where
W = L diag(sqrt(eta_d)) and W_T is its columns T (Quesada, Arrazola and
Killoran, PRA 98, 062322 (2018)).  Moebius inversion over the 2^M sets
(:func:`clicks_from_silent`) turns these into the click table.  Two closed
forms cover every source kind, and neither truncates the Fock space:

* vacuum and one-photon mixtures alone give a permanent
  (:func:`photon_click_table`);
* Gaussian light gives a determinant of the output's normally ordered
  moments, with each one-photon port folded in as the first-order term of
  thermal light (:func:`gaussian_click_table`).

The moments come from each source's own fields, not from the Wigner moments
the samplers draw from, so the oracle stays an independent check of them.
The cost is exponential, 2^M sets; :data:`MAX_ORACLE_COST` bounds it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, OracleSizeError
from .experiment import ExperimentConfig
from .linalg import permanent_batch
from .states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

#: Largest cost the oracle takes on: 2^M silent sets times the flops of one
#: (see :func:`exact_distribution`).  Past it the oracle refuses before any
#: permanent or determinant; 19 vacuum modes pass, 20 do not.
MAX_ORACLE_COST = 1 << 30

#: One outcome's table entry (its string, probability and Moebius step),
#: counted in flops.
_ENTRY_COST = 1 << 10

#: Most complex entries in one batch of silent-set matrices.
_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ProbabilityTable:
    """Distribution over click patterns; ``truncation_error`` is the mass
    that clipping negative roundoff at 0 added to it."""

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


def _has_gaussian_light(config: ExperimentConfig) -> bool:
    return any(not isinstance(e.source, (Vacuum, MixedSinglePhoton)) for e in config.sources)


def _moments(config: ExperimentConfig):
    """``(N, M, mu, photons)``: the input's normally ordered moments at the
    detectors, N = W^dag N_in W, M = W^T M_in W and mean mu = W^T mu_in, and
    the rows sqrt(eta_bar) W of the one-photon ports with eta_bar > 0.

    From each source's fields: thermal light of mean n has N_in = n, a
    coherent amplitude a has mu_in = a, and a pair of squeezing r has
    N_in = sinh^2 r on its herald and eta_bl sinh^2 r on its signal, and
    M_in = sqrt(eta_bl) sinh r cosh r between them.  The determinants
    multiply moments in pairs, so a moment whose square overflows a float is
    refused.
    """
    modes = config.modes
    n_in, m_in = np.zeros((modes, modes)), np.zeros((modes, modes))
    mu_in, eta_bar = np.zeros(modes, dtype=complex), np.zeros(modes)
    for entry in config.sources:
        source, port = entry.source, entry.ports[0]
        if isinstance(source, MixedSinglePhoton):
            eta_bar[port] = source.eta_bar
        elif isinstance(source, Coherent):
            mu_in[port] = source.amplitude
        elif isinstance(source, Thermal):
            n_in[port, port] = source.mean_photons
        elif isinstance(source, SpdcPair):
            signal, eta = entry.ports[1], source.eta_bl
            s, c = math.sinh(source.r), math.cosh(source.r)
            n_in[port, port], n_in[signal, signal] = s * s, eta * s * s
            m_in[port, signal] = m_in[signal, port] = math.sqrt(eta) * s * c
        elif not isinstance(source, Vacuum):
            raise TypeError(f"the oracle has no moments for {source!r}")
    w = config.transfer * np.sqrt([d.eta_d for d in config.detectors])
    with np.errstate(over="ignore", invalid="ignore"):
        n, m, mu = w.conj().T @ n_in @ w, w.T @ m_in @ w, mu_in @ w
        largest = max(np.abs(n).max(initial=0.0), np.abs(m).max(initial=0.0),
                      np.square(np.abs(mu)).max(initial=0.0))
        if not np.isfinite(largest * largest):
            raise ValueError(f"moments of up to {largest:.3g} photons overflow a float "
                             "once squared; the oracle needs finite products of moments")
    ports = np.flatnonzero(eta_bar)
    return n, m, mu, np.sqrt(eta_bar[ports])[:, None] * w[ports]


def clicks_from_silent(silent) -> np.ndarray:
    """Outcome table (mode 0 the leading bit) from the probabilities that
    each subset of the M detectors is silent, 2^M of them indexed the same
    way (bit set = mode in the subset), by Moebius inversion, mode by mode:
    "silent" reads the entry with the mode in the subset, "click" the entry
    without it minus the entry with it."""
    silent = np.asarray(silent, dtype=float)
    modes = silent.size.bit_length() - 1
    silent = silent.reshape((2,) * modes)
    for axis in range(modes):
        without, within = np.moveaxis(silent, axis, 0)
        silent = np.moveaxis(np.stack([within, without - within]), 0, axis)
    return silent.ravel()


def _silent_sets(config: ExperimentConfig, silent_batch, entries) -> np.ndarray:
    """The 2^M silent-set probabilities, indexed as :func:`clicks_from_silent`
    reads them: ``silent_batch(subsets)`` for (B, s) arrays of sets of one
    size s, in batches of ``entries(s)`` complex entries per set up to
    :data:`_BATCH_ENTRIES`, times the sets' prod (1 - p_d)."""
    modes = config.modes
    dark = 1.0 - np.array([d.p_d for d in config.detectors])
    silent = np.ones(1 << modes)
    for size in range(1, modes + 1):
        count = math.comb(modes, size)
        members = itertools.chain.from_iterable(itertools.combinations(range(modes), size))
        subsets = np.fromiter(members, dtype=np.intp, count=count * size).reshape(count, size)
        codes = np.sum(np.left_shift(1, modes - 1 - subsets), axis=1)
        step = max(1, _BATCH_ENTRIES // entries(size))
        for start in range(0, count, step):
            sets = subsets[start : start + step]
            silent[codes[start : start + step]] = np.prod(dark[sets], axis=1) * silent_batch(sets)
    if not np.isfinite(silent).all():
        raise ValueError("a silent-set probability overflowed a float")
    return silent


def photon_click_table(config: ExperimentConfig) -> np.ndarray:
    """Exact probabilities of all 2^M click patterns (mode 0 the leading
    bit) of an experiment fed by vacuum and one-photon mixtures.

    With W~ the rows sqrt(eta_bar_j) W of the photon ports, a set T is
    silent with probability prod_T (1 - p_d) perm(I - W~_T W~_T^dag), W~_T
    the columns T of W~: each photon, present with probability eta_bar,
    escapes T.
    """
    if _has_gaussian_light(config):
        raise TypeError("photon_click_table takes vacuum and one-photon mixtures only")
    photons = _moments(config)[3]
    eye = np.eye(len(photons))

    def silent(sets):
        rows = photons[:, sets].transpose(1, 0, 2)  # (B, n, s)
        return permanent_batch(eye - rows @ rows.conj().transpose(0, 2, 1)).real

    return clicks_from_silent(_silent_sets(
        config, silent, lambda s: 1 + len(eye) * (len(eye) + s)))


def gaussian_click_table(config: ExperimentConfig) -> np.ndarray:
    """Exact probabilities of all 2^M click patterns (mode 0 the leading
    bit) of an experiment with Gaussian light, from any source kinds.

    With (N, M, mu) from :func:`_moments`, a set T is silent with
    probability prod_T (1 - p_d) G_T, G_T = exp(-d^dag Q^-1 d / 2) /
    sqrt(det Q), Q = [[N_T^T + I, M_T], [M_T^*, N_T + I]], d = (mu_T, mu_T^*).

    A one-photon port j is [(1 - eta_bar) + eta_bar d/dx] x^n at x = 0,
    where x^n (n the port's photon number) is thermal light of mean
    x / (1 - x) divided by 1 - x.  So every quantity is carried as its 2^k
    coefficients in the k ports' x_j, multilinear since only first
    derivatives are read (x_j^2 = 0).  Scaling x_j by eta_bar_j, Q becomes
    Q_0 + sum_j x_j R_j, R_j = blockdiag(u u^dag, u^* u^T) with u the
    port's row of sqrt(eta_bar) W on T, and the silent probability is the
    sum of the coefficients of prod_j (1 + x_j) G_T(x): the factor prod_j
    (1 + x_j) cancels each port's (1 - eta_bar) term.  With X = sum_j x_j
    Q_0^-1 R_j, nilpotent, Q^-1 = sum_m (-X)^m Q_0^-1 and
    log det Q = log det Q_0 + sum_m (-1)^(m+1) tr X^m / m, both stopping at
    m = k; P[S], the coefficient of x^S in X^|S|, sums the orderings of S.
    """
    n, m, mu, photons = _moments(config)
    k = len(photons)

    def silent(sets):
        b, s = sets.shape
        rows, cols = sets[:, :, None], sets[:, None, :]
        n_t, m_t = n[rows, cols], m[rows, cols]
        q = np.empty((b, 2 * s, 2 * s), dtype=complex)
        q[:, :s, :s], q[:, :s, s:] = n_t.transpose(0, 2, 1), m_t
        q[:, s:, :s], q[:, s:, s:] = m_t.conj(), n_t
        q[:, range(2 * s), range(2 * s)] += 1.0
        d = np.concatenate([mu[sets], mu[sets].conj()], axis=1)[:, :, None]
        d_dag = d.conj().transpose(0, 2, 1)
        # Q is Hermitian positive definite: log det Q from its Cholesky factor.
        try:
            factor = np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise ValueError("a silent-set matrix Q lost its positive definiteness to "
                             "rounding; the moments are too large for float64") from None
        exponent = np.log(np.diagonal(factor, axis1=1, axis2=2).real).sum(axis=1)
        if mu.any():
            exponent += 0.5 * np.square(np.abs(np.linalg.solve(factor, d))).sum(axis=(1, 2))
        base = np.exp(-exponent)
        if not k:
            return base
        inverse = np.linalg.inv(q)
        inv_d = inverse @ d
        u = photons[:, sets]  # (k, B, s)
        r = np.zeros((k, b, 2 * s, 2 * s), dtype=complex)
        r[:, :, :s, :s] = u[..., :, None] * u[..., None, :].conj()
        r[:, :, s:, s:] = r[:, :, :s, :s].conj()
        x = inverse @ r
        # p[S]: the coefficient of x^S in log G_T(x) - log G_T(0).
        power, p = [np.eye(2 * s)] + [None] * ((1 << k) - 1), np.zeros((1 << k, b), dtype=complex)
        for mask in range(1, 1 << k):
            members = [j for j in range(k) if mask >> j & 1]
            power[mask] = sum(power[mask ^ (1 << j)] @ x[j] for j in members)
            quad = (d_dag @ power[mask] @ inv_d)[:, 0, 0]
            trace = np.trace(power[mask], axis1=1, axis2=2) / len(members)
            p[mask] = -0.5 * (-1) ** len(members) * (quad - trace)
        # exp(p): e[S] = sum over A in S holding S's lowest member of p[A] e[S \ A].
        e = np.zeros_like(p)
        e[0] = 1.0
        for mask in range(1, 1 << k):
            low = mask & -mask
            rest = sub = mask ^ low
            while True:
                e[mask] += p[low | sub] * e[rest ^ sub]
                if not sub:
                    break
                sub = (sub - 1) & rest
        return base * e.sum(axis=0).real

    return clicks_from_silent(_silent_sets(
        config, silent, lambda s: 4 * s * s * (4 + 2 * k + (1 << k))))


def exact_distribution(config: ExperimentConfig, n_max=None) -> ProbabilityTable:
    """Exact on-off click distribution over all 2^M outcome patterns, from
    :func:`gaussian_click_table` when any source is Gaussian and from
    :func:`photon_click_table` otherwise.

    One set's cost is its table entry (:data:`_ENTRY_COST`) plus its
    Moebius step (M), plus for k photon ports either a determinant of a
    half-size set's M x M matrix for each of 1 + k 2^k terms, or a k x k
    Gram of M columns and a permanent of k 2^k steps.  If 2^M sets cost
    more than :data:`MAX_ORACLE_COST`, :class:`OracleSizeError` is raised
    before any of them.  Rounding can leave a Moebius difference slightly
    below 0; such entries are clipped at 0, and the mass clipped is
    reported as ``truncation_error``.

    ``n_max`` is accepted and ignored: nothing is truncated, and the
    benchmark's workloads still pass it.
    """
    modes = config.modes
    k = sum(isinstance(e.source, MixedSinglePhoton) and e.source.eta_bar > 0.0
            for e in config.sources)
    gaussian = _has_gaussian_light(config)
    work = modes**3 * (1 + (k << k)) if gaussian else (k << k) + k * k * modes
    per_set = _ENTRY_COST + modes + work
    if per_set << modes > MAX_ORACLE_COST:
        raise OracleSizeError(
            f"{modes} modes give 2^{modes} silent sets of {per_set:.3g} flops each, "
            f"{float(per_set << modes):.3g} in all, above the oracle limit of "
            f"{float(MAX_ORACLE_COST):.3g}")
    probs = (gaussian_click_table if gaussian else photon_click_table)(config)
    clipped = float(np.clip(-probs, 0.0, None).sum())
    return ProbabilityTable(all_bitstrings(modes), np.clip(probs, 0.0, None),
                            truncation_error=clipped)


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
