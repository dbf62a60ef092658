"""Correctness references that share no code with pqsim's sampler.

Everything here reads only the configuration's data (transfer matrix,
source parameters, detector parameters) and computes exact single-mode
click probabilities in closed form, plus the statistics that turn sampled
click counts into a pass/fail verdict.

* Single-photon mixtures and vacuum (the boson-sampling presets): the
  no-click probability of output mode k is the bounded-rank permanent
  identity (Barvinok 1996) for a rank-one matrix,

      P(no click on k) = (1 - p_d) * int_0^inf e^{-t} prod_j (1 - t c_jk) dt,
      c_jk = eta_bar_j * eta_d_k * |L_jk|^2,

  evaluated by Gauss-Laguerre quadrature one node at a time (broadcasting
  over nodes does not fit in memory at M = 1600).
* SPDC pairs whose heralds never meet their signals: every output mode is
  thermal with mean photon number n_k = sum_p |L_pk|^2 n_p, so
  P(click) = 1 - (1 - p_d) / (1 + eta_d n_k).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from numpy.polynomial.laguerre import laggauss

#: Family-wise false-alarm probability of one click-marginal check; the
#: per-mode threshold is Bonferroni-corrected over the modes.
FAMILY_ALPHA = 1e-6

#: False-alarm probability of one TV check against an exact sampler.
TV_DELTA = 1e-6

#: Two Gauss-Laguerre rules whose results must agree; exact for the
#: product polynomial up to degree 2*40-1 and accurate far beyond it,
#: because the integrand decays like exp(-t (1 + sum_j c_jk)).
QUADRATURE_NODES = (40, 64)
QUADRATURE_AGREEMENT = 1e-9


def _source_kind(source) -> str:
    return type(source).__name__


def _no_click_single_photon(weights_c: np.ndarray, nodes: int) -> np.ndarray:
    t_nodes, w_nodes = laggauss(nodes)
    total = np.zeros(weights_c.shape[1])
    for t, w in zip(t_nodes, w_nodes):
        total += w * np.prod(1.0 - t * weights_c, axis=0)
    return total


def click_probabilities(config) -> np.ndarray:
    """Exact per-mode click probabilities of ``config``.

    Supports experiments fed only by vacuum and one-photon mixtures, and
    experiments fed only by SPDC pairs whose herald and signal never reach
    a common output mode. Raises ``ValueError`` for anything else.
    """
    transfer = np.asarray(config.transfer, dtype=complex)
    power = np.abs(transfer) ** 2
    eta_d = np.array([d.eta_d for d in config.detectors])
    p_d = np.array([d.p_d for d in config.detectors])
    kinds = {_source_kind(e.source) for e in config.sources}

    if kinds <= {"Vacuum", "MixedSinglePhoton"}:
        eta_bar = np.zeros(config.modes)
        for entry in config.sources:
            if _source_kind(entry.source) == "MixedSinglePhoton":
                eta_bar[entry.ports[0]] = entry.source.mu * entry.source.eta_b
        rows = np.flatnonzero(eta_bar > 0.0)
        c = eta_bar[rows, None] * power[rows, :] * eta_d[None, :]
        coarse, fine = (_no_click_single_photon(c, n) for n in QUADRATURE_NODES)
        if np.max(np.abs(coarse - fine)) > QUADRATURE_AGREEMENT:
            raise RuntimeError(
                "Gauss-Laguerre rules disagree by "
                f"{np.max(np.abs(coarse - fine)):.3e}; the reference is unreliable here"
            )
        return 1.0 - (1.0 - p_d) * fine

    if kinds == {"SpdcPair"}:
        mean_photons = np.zeros(config.modes)
        for entry in config.sources:
            herald, signal = entry.ports
            sh2 = math.sinh(entry.source.r) ** 2
            if np.any((power[herald] > 0.0) & (power[signal] > 0.0)):
                raise ValueError(
                    f"herald {herald} and signal {signal} share an output mode; "
                    "outputs are not thermal"
                )
            mean_photons += power[herald] * sh2 + power[signal] * entry.source.eta_bl * sh2
        return 1.0 - (1.0 - p_d) / (1.0 + eta_d * mean_photons)

    raise ValueError(f"no closed-form click marginals for sources {sorted(kinds)}")


def marginals_from_table(table) -> np.ndarray:
    """Per-mode click probabilities of an exact outcome distribution."""
    bits = np.array([[c == "1" for c in o] for o in table.outcomes], dtype=float)
    return table.probs @ bits


def z_threshold(modes: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided per-mode |z| limit, Bonferroni-corrected over ``modes``."""
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * modes))


def max_abs_z(outcomes: np.ndarray, probs: np.ndarray) -> float:
    """Largest binomial z-score of per-mode click counts against ``probs``.

    Modes whose exact click probability is 0 or 1 must match it exactly;
    a mismatch there counts as an infinite z-score.
    """
    n = outcomes.shape[0]
    clicks = outcomes.sum(axis=0, dtype=np.int64)
    expected = n * probs
    var = n * probs * (1.0 - probs)
    deterministic = var <= 0.0
    if np.any(np.abs(clicks[deterministic] - expected[deterministic]) > 0.5):
        return math.inf
    z = (clicks[~deterministic] - expected[~deterministic]) / np.sqrt(var[~deterministic])
    return float(np.max(np.abs(z), initial=0.0))


def tv_noise_floor(probs: np.ndarray, n: int) -> float:
    """Expected TV distance of an exact sampler drawing ``n`` outcomes,
    0.5 * sum_i sqrt(2 p_i (1 - p_i) / (pi n))."""
    p = np.asarray(probs, dtype=float)
    return 0.5 * float(np.sum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * n))))


def tv_limit(probs: np.ndarray, n: int, delta: float = TV_DELTA) -> float:
    """TV value an exact sampler exceeds with probability at most ``delta``.

    E[TV] <= 0.5 * sum_i sqrt(p_i (1 - p_i) / n) by Jensen, and one outcome
    moves TV by at most 1/n, so McDiarmid's inequality adds
    sqrt(ln(1/delta) / (2 n)).
    """
    p = np.asarray(probs, dtype=float)
    mean_bound = 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) / n)))
    return mean_bound + math.sqrt(math.log(1.0 / delta) / (2.0 * n))
