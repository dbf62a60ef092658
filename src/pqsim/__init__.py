"""pqsim: phase-space Monte Carlo simulation of imperfect photonic
sampling experiments.

The package decides when an experiment with lossy linear optics, imperfect
sources, and noisy on-off detectors can be sampled classically by drawing
phase-space amplitudes from nonnegative quasiprobability distributions, runs
that sampler at scale, and cross-checks it against an exact brute-force
reference at small scale.
"""

__version__ = "0.1.0"

from .detectors import DetectorModel, click_coefficients, pqd_off, pqd_on, s_bar, sample_clicks
from .errors import (
    ConfigError,
    ContractionError,
    DegenerateDetectorError,
    DimensionError,
    NegativityError,
    NotPsdError,
    OracleSizeError,
    PqsimError,
    SimulabilityError,
    SingularOrderingError,
    UndefinedOperatingPointError,
    UnsupportedSourceError,
)
from .experiment import (
    SCHEME_SINGLE_PHOTON,
    SCHEME_SPDC,
    ExperimentConfig,
    Mismatch,
    PortSource,
    parse_config,
)
from .linalg import haar_unitary, validate_transfer
from .oracle import ProbabilityTable, exact_distribution, tv_distance
from .presets import ScenarioParams, single_photon_config, spdc_config, threshold_table
from .processes import (
    propagate_gaussian,
    sample_transition,
    sigma_matrix,
    transition_factor,
    uniform_loss_eta,
)
from .rng import RngStream
from .sampler import (
    EmpiricalStats,
    SampleBatch,
    empirical_stats,
    run_condition1,
    run_condition2,
    run_experiment,
)
from .simulability import (
    SimulabilityReport,
    check_second_condition,
    mode_mismatch_pd,
    plan_photon_number,
    s_bar_vector,
    t_bar_vector,
    threshold_single_photon,
    threshold_spdc,
)
from .states import (
    Coherent,
    MixedSinglePhoton,
    SourceModel,
    SpdcPair,
    Thermal,
    Vacuum,
    gaussian_pqd_factor,
    pqd_single_photon_mixture,
    sample_gaussian_pqd,
    sample_source_pqd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
