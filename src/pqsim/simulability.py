"""Decide whether an experiment can be sampled classically by the
phase-space method, and compute the closed-form random-count thresholds for
the uniform-loss single-photon and SPDC scenarios.

The decision rests on one matrix: with t_bar the largest nonnegative input
orderings and s_bar the smallest nonnegative output orderings,

    Sigma_bar = I - L^dag L - diag(s_bar) + L^dag diag(t_bar) L

must be positive semidefinite.  When it is, running the sampler at exactly
(s_bar, t_bar) is valid, and no interior ordering choice does better.  Only
the non-classical ports S (t_bar < 1) enter the second term, so the test is
decided from an |S| x |S| eigenproblem, never from the M x M matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detectors import s_bar as detector_s_bar
from .errors import SimulabilityError, UndefinedOperatingPointError
from .experiment import ExperimentConfig
from .linalg import PSD_TOL
from .processes import whitened_rows
from .states import SpdcPair

# Not called here; perfbench's tracer wraps this name and stops if it is missing.
from .processes import sigma_matrix  # noqa: F401


def t_bar_vector(config: ExperimentConfig) -> np.ndarray:
    """Per-mode input nonnegativity bounds t_bar."""
    out = np.empty(config.modes)
    for entry in config.sources:
        bound = entry.source.t_bar
        for port in entry.ports:
            out[port] = bound
    return out


def s_bar_vector(config: ExperimentConfig) -> np.ndarray:
    """Per-mode output nonnegativity bounds s_bar.

    A dead detector (eta_d = 0) has a flat, everywhere-nonnegative PQD at
    every ordering, so its bound is s -> -infinity; -1 stands in for it
    here, which keeps the report finite, and both the verdict and the
    transition factor drop its column (:func:`dead_modes`).
    """
    out = np.empty(config.modes)
    for k, det in enumerate(config.detectors):
        out[k] = -1.0 if det.eta_d == 0.0 else detector_s_bar(det)
    return out


def dead_modes(config: ExperimentConfig) -> np.ndarray:
    """Mask of the modes whose detector ignores light (eta_d = 0)."""
    return np.array([det.eta_d == 0.0 for det in config.detectors])


@dataclass(frozen=True)
class SimulabilityReport:
    """Outcome of the positivity test (``noise_ratio`` is kappa of
    :func:`check_second_condition`; simulatable iff kappa <= 1, and route 2
    then works at (s_bar, t_bar)), plus the scalar random-count threshold
    when one is well defined."""

    t_bar: np.ndarray
    s_bar: np.ndarray
    noise_ratio: float
    simulatable: bool
    threshold_p_d: float = math.nan
    margin: float = math.nan
    threshold_note: str = ""

    def to_dict(self) -> dict:
        return {
            "simulatable": bool(self.simulatable),
            "t_bar": self.t_bar.tolist(),
            "s_bar": self.s_bar.tolist(),
            "noise_ratio": self.noise_ratio,
            "threshold_p_d": None if math.isnan(self.threshold_p_d) else self.threshold_p_d,
            "margin": None if math.isnan(self.margin) else self.margin,
            "threshold_note": self.threshold_note,
        }

    def require(self) -> SimulabilityReport:
        """This report if route 2 may run; else :class:`SimulabilityError`
        with the report attached."""
        if not self.simulatable:
            raise SimulabilityError(
                "experiment is not simulatable by the phase-space method: "
                f"Sigma_bar is not PSD (noise ratio kappa = {self.noise_ratio:.6g} > 1)",
                report=self,
            )
        return self


def check_second_condition(config: ExperimentConfig) -> SimulabilityReport:
    """Test Sigma_bar >= 0 at the extreme orderings from one |S| x |S|
    eigenproblem.

    Sigma_bar = diag(D) - B^dag B with D = 1 - s_bar >= 0 and
    B = diag(sqrt(1 - t_bar_S)) L_S.  With E = D + PSD_TOL > 0 and
    C = B diag(E^-1/2) from :func:`whitened_rows`, the Schur complement gives
    lambda_min(Sigma_bar) >= -PSD_TOL iff kappa = lambda_max(C C^dag) <= 1,
    for every detector set (p_d = 0 included; kappa = 0 when S is empty).
    A dead detector's bound is s -> -infinity, so its column of C is 0:
    the test is that of the live modes' principal submatrix of Sigma_bar.

    Always returns a report.  With identical detectors the report also
    carries the exact scalar threshold on the random-count probability,
    p_d >= (eta_d / 2) * lambda_max(B B^dag), which the positivity test
    crosses exactly once as p_d grows; E is then uniform, so
    lambda_max(B B^dag) = kappa * E.
    """
    tbar = t_bar_vector(config)
    sbar = s_bar_vector(config)
    scale = 1.0 - sbar + PSD_TOL
    c = whitened_rows(config.transfer, tbar, scale, dead_modes(config))[1]
    kappa = float(np.linalg.eigvalsh(c @ c.conj().T)[-1]) if c.size else 0.0

    threshold = margin = math.nan
    det = config.identical_detectors()
    if det is not None and det.eta_d > 0.0:
        threshold = det.eta_d * kappa * scale[0] / 2.0
        margin = det.p_d - threshold
        note = "exact for identical detectors: Sigma_bar test passes iff p_d >= threshold"
    else:
        note = "no scalar threshold: detectors are heterogeneous or dead"

    return SimulabilityReport(
        t_bar=tbar,
        s_bar=sbar,
        noise_ratio=kappa,
        simulatable=kappa <= 1.0,
        threshold_p_d=threshold,
        margin=margin,
        threshold_note=note,
    )


def threshold_single_photon(mu: float, eta_b: float, eta_l: float, eta_d: float) -> float:
    """Random-count threshold for uniform-loss single-photon experiments:
    simulatable iff p_d >= mu * eta_b * eta_l * eta_d."""
    return mu * eta_b * eta_l * eta_d


def mode_mismatch_pd(
    mu: float,
    eta_b: float,
    eta_l: float,
    eta_d: float,
    f_b: float,
    f_l: float,
    n_photons: float,
    modes: int,
) -> float:
    """Random-count probability contributed by mode-mismatched photons.

    Of the photons lost at input coupling, a fraction f_b still reaches the
    detectors; of those lost inside the network, a fraction f_l does.  Spread
    over M detectors and counted with efficiency eta_d:

        p_d = (eta_d mu N / M) [f_l (1 - eta_l) eta_b + f_b (1 - eta_b)]
    """
    per_source = f_l * (1.0 - eta_l) * eta_b + f_b * (1.0 - eta_b)
    return eta_d * mu * (n_photons / modes) * per_source


def threshold_spdc(r: float, eta_b: float, eta_l: float, eta_d: float) -> float:
    """Random-count threshold for the SPDC scheme, eta_d (1 - t_bar) / 2
    with t_bar the pair's nonnegativity bound at transmissivity eta_b*eta_l."""
    return eta_d * (1.0 - SpdcPair(r=r, eta_bl=eta_b * eta_l).t_bar) / 2.0


def plan_photon_number(modes: int, eta: float) -> tuple[float, int]:
    """Operating-point rule N = min(M, sqrt(M)/eta), returned as
    (sqrt(M)/eta, N).

    ``eta`` is the overall per-photon transmissivity (source to click).
    """
    if modes < 1:
        raise UndefinedOperatingPointError(f"modes must be >= 1, got {modes}")
    if eta <= 0.0:
        raise UndefinedOperatingPointError(
            "overall transmissivity eta = 0: no photon budget keeps sqrt(M) counts"
        )
    raw = math.sqrt(modes) / eta
    return raw, min(modes, round(raw))
