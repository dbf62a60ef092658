"""On-off photodetector model: efficiency, random counts, and the ordered
phase-space distributions of the two POVM outcomes.

The no-click POVM element is a scaled thermal state, so its PQD at output
ordering parameter s is the Gaussian

    W_off(beta) = (1 - p_d)/pi * exp(-eta_d |beta|^2 / D) / D,
    D = 1 - eta_d (1 - s) / 2,

and the click element is W_on = 1/pi - W_off.  Per mode the two sum to
exactly 1/pi, so pi * W_on is a click probability.  W_on is nonnegative
everywhere iff s >= s_bar = 1 - 2 p_d / eta_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDetectorError,
    DimensionError,
    NegativityError,
    SingularOrderingError,
)
from .states import ORDERING_TOL, require_unit_interval


@dataclass(frozen=True)
class DetectorModel:
    """Binary detector with efficiency eta_d and random-count probability p_d."""

    eta_d: float
    p_d: float = 0.0

    def __post_init__(self):
        require_unit_interval(self, "eta_d", "p_d")


def pqd_off(beta: complex, s: float, det: DetectorModel) -> float:
    """PQD of the no-click POVM element at output ordering s, at any s where
    it is not singular; 0 at every ordering when p_d = 1, since the element
    itself is 0."""
    decay, keep = _off_terms(np.array([float(s)]), np.array([det.eta_d]), np.array([det.p_d]))
    return float(keep[0] * math.exp(decay[0] * abs(beta) ** 2)) / math.pi


def pqd_on(beta: complex, s: float, det: DetectorModel) -> float:
    """PQD of the click POVM element; equals 1/pi - pqd_off by completeness."""
    return 1.0 / math.pi - pqd_off(beta, s, det)


def s_bar(det: DetectorModel) -> float:
    """Smallest output ordering with a nonnegative click-element PQD."""
    if det.eta_d == 0.0:
        raise DegenerateDetectorError(
            "eta_d = 0: the detector ignores light and every ordering is admissible"
        )
    return 1.0 - 2.0 * det.p_d / det.eta_d


def click_coefficients(s, dets) -> tuple[np.ndarray, np.ndarray]:
    """Set-up half of the click stage: per-mode (decay, keep) such that
    pi * W_on(beta_k) = 1 - keep_k * exp(decay_k * |beta_k|^2) at orderings s.

    Raises :class:`NegativityError` naming the mode if some s_k is below the
    detector's s_bar (the click PQD would be negative there), and
    :class:`SingularOrderingError` if the no-click PQD is singular at s_k.
    A mode with p_d = 1 always clicks (keep = 0).
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    dets = list(dets)
    if s.size != len(dets):
        raise DimensionError("orderings and detectors must agree on the mode count")
    eta = np.array([d.eta_d for d in dets])
    p_d = np.array([d.p_d for d in dets])
    bound = np.array([s_bar(d) if d.eta_d > 0.0 else -np.inf for d in dets])
    low = s < bound - ORDERING_TOL
    if np.any(low):
        k = int(np.argmax(low))
        raise NegativityError(
            f"ordering s={s[k]:g} on mode {k} is below the detector bound "
            f"s_bar={bound[k]:g}; the click PQD would be negative"
        )
    return _off_terms(s, eta, p_d)


def _off_terms(s: np.ndarray, eta: np.ndarray, p_d: np.ndarray):
    """Per-mode (decay, keep) with pi * W_off(beta_k) = keep_k * exp(decay_k
    * |beta_k|^2) at orderings s, at or below s_bar alike; raises
    :class:`SingularOrderingError` naming the mode where D <= 0.  A mode
    with p_d = 1 has keep = 0 at every ordering, its D being left out."""
    denom = 1.0 - eta * (1.0 - s) / 2.0
    # Any positive D will do there: keep = (1 - p_d) / D is exactly 0.
    denom[p_d == 1.0] = 1.0
    if np.any(denom <= 0.0):
        k = int(np.argmax(denom <= 0.0))
        raise SingularOrderingError(
            f"detector PQD is singular at ordering s={s[k]:g} on mode {k}"
        )
    return -eta / denom, (1.0 - p_d) / denom


def sample_clicks(beta: np.ndarray, coefficients, gen: np.random.Generator,
                  out=None, work=None) -> np.ndarray:
    """Per-batch half of the click stage: one uint8 outcome per shot and mode.

    ``beta`` is a C-contiguous complex (n, M) batch of output amplitudes and
    is overwritten; ``coefficients`` come from :func:`click_coefficients`.
    Each mode clicks independently with probability pi * W_on(beta_k),
    which is a proper probability because the two outcome PQDs sum to 1/pi
    per mode.  Consumes one uniform per shot and mode from ``gen``.

    The outcomes go to ``out``, a uint8 (n, M) array, and the click
    probabilities to the leading entries of ``work``, a C-contiguous float
    array of at least n M entries; each is allocated when omitted.  The
    uniforms go to ``beta``'s storage.
    """
    decay, keep = coefficients
    n, m = beta.shape
    if work is None:
        work = np.empty(n * m)
    parts = beta.view(float)
    np.square(parts, out=parts)
    p_click = np.add(parts[:, 0::2], parts[:, 1::2],
                     out=work.reshape(-1)[:n * m].reshape(n, m))
    # The amplitudes are spent, so their storage takes the uniforms.
    uniforms = gen.random(out=parts.reshape(-1)[:n * m].reshape(n, m))
    p_click *= decay
    np.exp(p_click, out=p_click)
    p_click *= keep
    np.subtract(1.0, p_click, out=p_click)
    if out is None:
        out = np.empty((n, m), dtype=np.uint8)
    np.less(uniforms, p_click, out=out.view(bool))
    return out
