"""Input-state models and their ordered phase-space quasiprobability
distributions (PQDs).

Phase-space convention, used everywhere in the package: quadratures (x, p)
interleaved per mode, alpha = (x + i p) / 2, and the vacuum Wigner function
has quadrature covariance I_2.  Equivalently the vacuum Wigner function is
(2/pi) exp(-2|alpha|^2) and a circular complex covariance c corresponds to
E|alpha|^2 = c.  With this scaling, the ordering-t PQD of a Gaussian state
with Wigner covariance sigma is a Gaussian with covariance sigma - t I, so
the largest nonnegative ordering t_bar equals the smallest eigenvalue of
sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionError,
    NegativityError,
    SingularOrderingError,
    UnsupportedSourceError,
)
from .linalg import PSD_TOL, psd_factor_real, standard_complex_normal

#: Slack used when checking ordering bounds, so exact-boundary orderings
#: produced by closed-form thresholds are accepted despite roundoff.
ORDERING_TOL = 1e-12


@dataclass(frozen=True)
class Vacuum:
    """Vacuum input port."""


@dataclass(frozen=True)
class MixedSinglePhoton:
    """Statistical mixture of vacuum and one photon.

    ``mu`` is the source purity (one-photon weight before mode matching) and
    ``eta_b`` the mode-match transmissivity into the network; only their
    product enters the PQDs.
    """

    mu: float
    eta_b: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")
        if not 0.0 <= self.eta_b <= 1.0:
            raise ValueError(f"eta_b must be in [0, 1], got {self.eta_b}")

    @property
    def eta_bar(self) -> float:
        """Effective one-photon weight mu * eta_b."""
        return self.mu * self.eta_b


@dataclass(frozen=True)
class Coherent:
    """Coherent state with the given complex amplitude."""

    amplitude: complex

    def __post_init__(self):
        if not (math.isfinite(complex(self.amplitude).real)
                and math.isfinite(complex(self.amplitude).imag)):
            raise ValueError("coherent amplitude must be finite")


@dataclass(frozen=True)
class Thermal:
    """Thermal state with the given mean photon number."""

    mean_photons: float

    def __post_init__(self):
        if not self.mean_photons >= 0.0:
            raise ValueError(f"mean photon number must be >= 0, got {self.mean_photons}")


@dataclass(frozen=True)
class SpdcPair:
    """Two-mode squeezed vacuum occupying a (herald, signal) port pair.

    ``r`` is the squeezing parameter and ``eta_bl`` the combined mode-match
    and network transmissivity referred to the signal input.
    """

    r: float
    eta_bl: float = 1.0

    def __post_init__(self):
        if not self.r >= 0.0:
            raise ValueError(f"squeezing r must be >= 0, got {self.r}")
        if not 0.0 <= self.eta_bl <= 1.0:
            raise ValueError(f"eta_bl must be in [0, 1], got {self.eta_bl}")


SourceModel = Union[Vacuum, MixedSinglePhoton, Coherent, Thermal, SpdcPair]


def n_ports(source: SourceModel) -> int:
    """Number of input ports the source occupies."""
    return 2 if isinstance(source, SpdcPair) else 1


@dataclass(frozen=True)
class GaussianPQDState:
    """Gaussian PQD: per-mode ordering, quadrature mean, and covariance."""

    ordering: np.ndarray
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        ordering = np.atleast_1d(np.asarray(self.ordering, dtype=float))
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size != 2 * ordering.size:
            raise DimensionError("mean must have length 2 * (number of modes)")
        if cov.shape != (mean.size, mean.size):
            raise DimensionError("covariance must be 2K x 2K")
        if np.max(np.abs(cov - cov.T), initial=0.0) > PSD_TOL:
            raise DimensionError("covariance must be symmetric")
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", (cov + cov.T) / 2.0)

    @property
    def modes(self) -> int:
        return self.ordering.size


def pqd_single_photon_mixture(alpha: complex, t: float, eta_bar: float) -> float:
    """Ordering-t PQD of the vacuum/one-photon mixture at amplitude alpha.

    W(alpha) = (2/pi) [(1-t)(1-t-2 eta_bar) + 4 eta_bar |alpha|^2]
               exp(-2|alpha|^2 / (1-t)) / (1-t)^3

    Nonnegative everywhere iff t <= 1 - 2 eta_bar.
    """
    if t >= 1.0:
        raise SingularOrderingError("the one-photon PQD is singular for t >= 1")
    if not 0.0 <= eta_bar <= 1.0:
        raise ValueError(f"eta_bar must be in [0, 1], got {eta_bar}")
    u = abs(alpha) ** 2
    omt = 1.0 - t
    bracket = omt * (omt - 2.0 * eta_bar) + 4.0 * eta_bar * u
    return (2.0 / math.pi) * bracket * math.exp(-2.0 * u / omt) / omt**3


def t_bar(source: SourceModel) -> float:
    """Largest ordering at which the source PQD is everywhere nonnegative.

    Classical sources (vacuum, coherent, thermal) allow the full range up to
    the normal-ordered bound t = 1.  The one-photon mixture gives
    1 - 2 mu eta_b.  For the lossy two-mode squeezed vacuum the bound is the
    smallest eigenvalue of its Wigner covariance, in closed form; it applies
    to both ports of the pair.
    """
    if isinstance(source, (Vacuum, Coherent, Thermal)):
        return 1.0
    if isinstance(source, MixedSinglePhoton):
        return 1.0 - 2.0 * source.eta_bar
    if isinstance(source, SpdcPair):
        sh2 = math.sinh(source.r) ** 2
        eta = source.eta_bl
        return (
            1.0
            + (1.0 + eta) * sh2
            - math.sinh(source.r) * math.sqrt((1.0 + eta) ** 2 * sh2 + 4.0 * eta)
        )
    raise UnsupportedSourceError(f"unknown source model {source!r}")


def spdc_covariance(r: float, eta_bl: float) -> GaussianPQDState:
    """Wigner-function Gaussian of a two-mode squeezed vacuum whose signal
    arm has passed a transmissivity-eta_bl beamsplitter.

    Quadrature order is (x_h, p_h, x_s, p_s); the herald arm is lossless.
    """
    if r < 0.0:
        raise ValueError(f"squeezing r must be >= 0, got {r}")
    if not 0.0 <= eta_bl <= 1.0:
        raise ValueError(f"eta_bl must be in [0, 1], got {eta_bl}")
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    z2 = np.diag([1.0, -1.0])
    off = math.sqrt(eta_bl) * sh * z2
    cov = np.block([
        [ch * np.eye(2), off],
        [off, (1.0 + eta_bl * (ch - 1.0)) * np.eye(2)],
    ])
    return GaussianPQDState(ordering=np.zeros(2), mean=np.zeros(4), cov=cov)


def wigner_moments(source: SourceModel) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean and Wigner covariance of a Gaussian source block.

    Raises :class:`UnsupportedSourceError` for non-Gaussian sources.
    """
    if isinstance(source, Vacuum):
        return np.zeros(2), np.eye(2)
    if isinstance(source, Coherent):
        amp = complex(source.amplitude)
        return np.array([2.0 * amp.real, 2.0 * amp.imag]), np.eye(2)
    if isinstance(source, Thermal):
        return np.zeros(2), (2.0 * source.mean_photons + 1.0) * np.eye(2)
    if isinstance(source, SpdcPair):
        state = spdc_covariance(source.r, source.eta_bl)
        return state.mean, state.cov
    raise UnsupportedSourceError(
        f"{type(source).__name__} has no Gaussian phase-space description"
    )


def _sample_circular(gen, n, mean: complex, var: float) -> np.ndarray:
    # Zero variance is a point mass; consuming no draws keeps it exact.
    if var <= 0.0:
        return np.full(n, mean, dtype=complex)
    return mean + math.sqrt(var) * standard_complex_normal(gen, n)


def sample_source_pqd(
    source: SourceModel,
    t_block: np.ndarray,
    gen: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw ``size`` phase-space amplitudes from one source's ordering-t PQD.

    Returns an array of shape (size, n_ports).  ``t_block`` holds the
    ordering parameter for each port the source occupies (an
    :class:`SpdcPair` takes herald then signal); every entry must respect
    the source's nonnegativity bound, otherwise the PQD is not a
    probability density and a :class:`NegativityError` names the mode.
    The draw sequence consumed from ``gen`` is fixed per source type, so
    batches are exactly reproducible.
    """
    t_block = np.atleast_1d(np.asarray(t_block, dtype=float))
    if t_block.size != n_ports(source):
        raise DimensionError(
            f"{type(source).__name__} occupies {n_ports(source)} port(s), "
            f"got {t_block.size} ordering value(s)"
        )
    # Every source has t_bar <= 1, so this also refuses t > 1.
    bound = t_bar(source)
    for k, tk in enumerate(t_block):
        if tk > bound + ORDERING_TOL:
            raise NegativityError(
                f"ordering t={tk:g} on mode {k} of the {type(source).__name__} "
                f"block exceeds its nonnegativity bound t_bar={bound:g}"
            )

    if isinstance(source, Vacuum):
        return _sample_circular(gen, size, 0.0, (1.0 - t_block[0]) / 2.0)[:, None]
    if isinstance(source, Coherent):
        return _sample_circular(
            gen, size, complex(source.amplitude), (1.0 - t_block[0]) / 2.0
        )[:, None]
    if isinstance(source, Thermal):
        var = (2.0 * source.mean_photons + 1.0 - t_block[0]) / 2.0
        return _sample_circular(gen, size, 0.0, var)[:, None]

    if isinstance(source, MixedSinglePhoton):
        t = t_block[0]
        omt = 1.0 - t
        # Two-component mixture: a circular Gaussian (weight w0) plus a
        # ring-shaped |alpha|^2-weighted Gaussian (weight w1 = 2 eta_bar/(1-t)).
        w1 = 0.0 if omt <= 0.0 else 2.0 * source.eta_bar / omt
        pick = gen.random(size)
        gauss = _sample_circular(gen, size, 0.0, omt / 2.0)
        radii_sq = gen.gamma(2.0, scale=omt / 2.0 if omt > 0.0 else 0.0, size=size)
        phases = gen.random(size) * (2.0 * math.pi)
        ring = np.sqrt(radii_sq) * np.exp(1j * phases)
        return np.where(pick < w1, ring, gauss)[:, None]

    if isinstance(source, SpdcPair):
        state = spdc_covariance(source.r, source.eta_bl)
        cov = state.cov - np.diag(np.repeat(t_block, 2))
        factor = psd_factor_real(cov)
        z = gen.standard_normal((size, 4)) @ factor
        return (z[:, 0::2] + 1j * z[:, 1::2]) / 2.0

    raise UnsupportedSourceError(f"unknown source model {source!r}")
