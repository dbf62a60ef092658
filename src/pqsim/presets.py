"""Ready-made experiment builders and the scenario threshold tables.

Two canonical scenarios are covered: boson sampling fed by vacuum/one-photon
mixtures, and the randomized scheme fed by SPDC pairs whose heralds bypass
the network.  Both use the uniform-loss network model, so their simulability
thresholds have closed forms that the ``thresholds`` command tabulates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .detectors import DetectorModel
from .experiment import (
    SCHEME_SINGLE_PHOTON,
    SCHEME_SPDC,
    ExperimentConfig,
    Mismatch,
    PortSource,
)
from .linalg import haar_unitary
from .processes import uniform_loss_eta
from .rng import RngStream
from .simulability import (
    mode_mismatch_pd,
    plan_photon_number,
    threshold_single_photon,
    threshold_spdc,
)
from .states import MixedSinglePhoton, SpdcPair, Vacuum, require_unit_interval


@dataclass(frozen=True)
class ScenarioParams:
    """Hardware quality knobs shared by both scenario families; the
    probabilities and fractions must lie in [0, 1], and eta0 and ell are
    checked by :func:`~pqsim.processes.uniform_loss_eta`."""

    mu: float = 0.5
    eta_b: float = 0.1
    eta0: float = 0.98
    ell: int = 2
    eta_d: float = 0.95
    f_b: float = 0.1
    f_l: float = 0.9

    def __post_init__(self):
        require_unit_interval(self, "mu", "eta_b", "eta_d", "f_b", "f_l")


def _preset(sources, transfer, p_d: float, params: ScenarioParams) -> ExperimentConfig:
    """``sources`` on ``transfer``, one detector model on every mode, ``params``' mismatch."""
    return ExperimentConfig(
        modes=len(transfer),
        sources=tuple(sources),
        transfer=transfer,
        detectors=(DetectorModel(params.eta_d, p_d),) * len(transfer),
        mismatch=Mismatch(params.f_b, params.f_l),
    )


def single_photon_config(
    modes: int,
    n_photons: int,
    p_d: float,
    params: ScenarioParams = ScenarioParams(),
    unitary_seed: int = 0,
) -> ExperimentConfig:
    """Uniform-loss network fed by ``n_photons`` one-photon mixtures on the
    first ports and vacuum elsewhere."""
    if not 0 <= n_photons <= modes:
        raise ValueError(f"n_photons must be in 0..{modes}, got {n_photons}")
    eta_l = uniform_loss_eta(params.eta0, params.ell, modes)
    transfer = math.sqrt(eta_l) * haar_unitary(modes, RngStream(unitary_seed))
    sources = [
        PortSource(MixedSinglePhoton(params.mu, params.eta_b), (k,))
        for k in range(n_photons)
    ] + [PortSource(Vacuum(), (k,)) for k in range(n_photons, modes)]
    return _preset(sources, transfer, p_d, params)


def spdc_config(
    pairs: int,
    sinh2_r: float,
    p_d: float,
    params: ScenarioParams = ScenarioParams(),
    unitary_seed: int = 0,
) -> ExperimentConfig:
    """SPDC scheme on 2*pairs modes: heralds 0..pairs-1 bypass the network,
    signals pairs..2*pairs-1 traverse a Haar unitary, and the uniform network
    loss is referred to the signal inputs (folded into eta_bl)."""
    eta_l = uniform_loss_eta(params.eta0, params.ell, pairs)
    r = math.asinh(math.sqrt(sinh2_r))
    unitary = haar_unitary(pairs, RngStream(unitary_seed))
    transfer = np.eye(2 * pairs, dtype=complex)
    transfer[pairs:, pairs:] = unitary
    pair = SpdcPair(r=r, eta_bl=params.eta_b * eta_l)
    return _preset([PortSource(pair, (k, pairs + k)) for k in range(pairs)], transfer, p_d, params)


@dataclass(frozen=True)
class ThresholdRow:
    """One network size in a scenario threshold table."""

    scheme: str
    modes: int
    eta_l: float
    eta: float
    sqrt_m_over_eta: float
    n_photons: int
    n_eta: float
    sinh2_r: float | None
    p_d_threshold: float
    p_d_mismatch: float

    def to_dict(self) -> dict:
        return asdict(self)


def threshold_row(scheme: str, modes: int, params: ScenarioParams = ScenarioParams()) -> ThresholdRow:
    """Closed-form operating point and thresholds for one network size.

    The SPDC scheme applies the same rule through the squeezing,
    sinh^2 r = min(1, 1/(sqrt(M) eta)), and N = M sinh^2 r.
    """
    eta_l = uniform_loss_eta(params.eta0, params.ell, modes)
    if scheme == SCHEME_SINGLE_PHOTON:
        mu, sinh2 = params.mu, None
        eta = params.mu * params.eta_b * eta_l * params.eta_d
        threshold = threshold_single_photon(params.mu, params.eta_b, eta_l, params.eta_d)
    elif scheme == SCHEME_SPDC:
        # Mismatched photons reach the detectors regardless of heralding,
        # one potential photon per signal mode (mu = 1 here).
        mu = 1.0
        eta = params.eta_d * eta_l * params.eta_b
        sinh2 = min(1.0, 1.0 / (math.sqrt(modes) * eta))
        threshold = threshold_spdc(math.asinh(math.sqrt(sinh2)), params.eta_b, eta_l, params.eta_d)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    sqrt_m_over_eta, n_photons = plan_photon_number(modes, eta)
    mismatch = mode_mismatch_pd(mu, params.eta_b, eta_l, params.eta_d,
                                params.f_b, params.f_l, n_photons, modes)
    return ThresholdRow(
        scheme=scheme,
        modes=modes,
        eta_l=eta_l,
        eta=eta,
        sqrt_m_over_eta=sqrt_m_over_eta,
        n_photons=n_photons,
        n_eta=n_photons * eta,
        sinh2_r=sinh2,
        p_d_threshold=threshold,
        p_d_mismatch=mismatch,
    )


def threshold_table(
    scheme: str,
    modes_list=(10, 100, 1600),
    params: ScenarioParams = ScenarioParams(),
) -> list[ThresholdRow]:
    return [threshold_row(scheme, m, params) for m in modes_list]
