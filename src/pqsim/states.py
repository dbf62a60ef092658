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

import numpy as np

from .errors import (
    DimensionError,
    NegativityError,
    SingularOrderingError,
    UnsupportedSourceError,
)
from .linalg import psd_factor_real

#: Slack used when checking ordering bounds, so exact-boundary orderings
#: produced by closed-form thresholds are accepted despite roundoff.
ORDERING_TOL = 1e-12


def require_unit_interval(obj, *names) -> None:
    """Refuse with a ValueError each field of ``obj`` in ``names`` outside [0, 1] (NaN too)."""
    for name in names:
        if not 0.0 <= getattr(obj, name) <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {getattr(obj, name)}")


class SourceModel:
    """Base of the source kinds.  Each kind is one frozen dataclass that
    declares everything the package needs from it:

    * ``kind``, its JSON name; its dataclass fields are its JSON fields;
    * ``port_names``, the JSON names of the ports it occupies, in order;
    * ``t_bar``, the largest ordering at which its PQD is nonnegative;
    * ``wigner_moments()``, the quadrature mean and Wigner covariance of a
      Gaussian kind (the PQD draw and route 1 are built from them).

    The defaults describe a classical one-port kind: it allows every
    ordering up to the normal-ordered bound t = 1.
    """

    port_names = ("port",)
    t_bar = 1.0

    def wigner_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature mean and Wigner covariance of the source block.

        Raises :class:`UnsupportedSourceError` for non-Gaussian sources.
        """
        raise UnsupportedSourceError(
            f"{type(self).__name__} has no Gaussian phase-space description"
        )

    def _sample_pqd(self, t_block: np.ndarray, gen, out, work) -> None:
        # After sample_source_pqd's checks.  A zero factor is a point mass at the mean: no draws.
        factor = gaussian_pqd_factor(*self.wigner_moments(), t_block)
        quad = out.view(float)
        if factor[1].any():
            sample_gaussian_pqd(factor, gen, len(out), out=quad, work=work)
        else:
            quad[...] = factor[0]


@dataclass(frozen=True)
class Vacuum(SourceModel):
    """Vacuum input port."""

    kind = "vacuum"

    def wigner_moments(self):
        return np.zeros(2), np.eye(2)


@dataclass(frozen=True)
class MixedSinglePhoton(SourceModel):
    """Statistical mixture of vacuum and one photon.

    ``mu`` is the source purity (one-photon weight before mode matching) and
    ``eta_b`` the mode-match transmissivity into the network; only their
    product enters the PQDs, and t_bar = 1 - 2 mu eta_b.
    """

    kind = "single_photon"

    mu: float
    eta_b: float = 1.0

    def __post_init__(self):
        require_unit_interval(self, "mu", "eta_b")

    @property
    def eta_bar(self) -> float:
        """Effective one-photon weight mu * eta_b."""
        return self.mu * self.eta_b

    @property
    def t_bar(self) -> float:
        return 1.0 - 2.0 * self.eta_bar

    def _sample_pqd(self, t_block, gen, out, work):
        # A circular Gaussian or (weight w1 = 2 eta_bar/(1-t)) a ring: x =
        # 2|alpha|^2/(1-t) is |z|^2/2 + [u < w1] E, Exp(1) or Gamma(2), for unit
        # normals z = (re, im) and a unit exponential E, with a uniform phase.
        omt = 1.0 - t_block[0]
        if omt <= 0.0:
            out[...] = 0.0  # a point mass at 0: no draws
            return
        parts = gen.standard_normal(out=out.view(float))
        pick, ratio = work[:len(out)], work[len(out):2 * len(out)]
        gen.random(out=pick)
        gen.standard_exponential(out=ratio)
        ratio *= np.less(pick, 2.0 * self.eta_bar / omt, out=pick)
        # |z|^2, floored so that z = 0 stays 0 instead of 0/0.
        np.maximum(np.einsum("ij,ij->i", parts, parts, out=pick), 1e-300, out=pick)
        ratio /= pick
        ratio += 0.5
        ratio *= omt / 2.0
        parts *= np.sqrt(ratio, out=ratio)[:, None]


@dataclass(frozen=True)
class Coherent(SourceModel):
    """Coherent state with the given complex amplitude."""

    kind = "coherent"

    amplitude: complex

    def __post_init__(self):
        if not (math.isfinite(complex(self.amplitude).real)
                and math.isfinite(complex(self.amplitude).imag)):
            raise ValueError("coherent amplitude must be finite")

    def wigner_moments(self):
        amp = complex(self.amplitude)
        return np.array([2.0 * amp.real, 2.0 * amp.imag]), np.eye(2)


@dataclass(frozen=True)
class Thermal(SourceModel):
    """Thermal state with the given mean photon number."""

    kind = "thermal"

    mean_photons: float

    def __post_init__(self):
        if not self.mean_photons >= 0.0:
            raise ValueError(f"mean photon number must be >= 0, got {self.mean_photons}")
        if not math.isfinite(self.mean_photons):
            raise ValueError(f"mean photon number must be finite, got {self.mean_photons}")

    def wigner_moments(self):
        return np.zeros(2), (2.0 * self.mean_photons + 1.0) * np.eye(2)


@dataclass(frozen=True)
class SpdcPair(SourceModel):
    """Two-mode squeezed vacuum occupying a (herald, signal) port pair.

    ``r`` is the squeezing parameter and ``eta_bl`` the combined mode-match
    and network transmissivity referred to the signal input.
    """

    kind = "spdc"
    port_names = ("herald", "signal")

    r: float
    eta_bl: float = 1.0

    def __post_init__(self):
        if not self.r >= 0.0:
            raise ValueError(f"squeezing r must be >= 0, got {self.r}")
        if not math.isfinite(self.r):
            raise ValueError(f"squeezing r must be finite, got {self.r}")
        require_unit_interval(self, "eta_bl")

    @property
    def t_bar(self) -> float:
        """Smallest eigenvalue of the Wigner covariance, in closed form; it
        bounds both ports of the pair.  With s = sinh r and a = (1 + eta) s^2
        it is 1 + a - sqrt(a^2 + 4 eta s^2), evaluated as
        1 - 4 eta s^2 / (a + sqrt(a^2 + 4 eta s^2)) divided through by s,
        which neither cancels nor overflows as r grows and it tends to
        (1 - eta) / (1 + eta)."""
        s, eta = math.sinh(self.r), self.eta_bl
        if s == 0.0:
            return 1.0
        a = (1.0 + eta) * s
        return 1.0 - 4.0 * eta * s / (a + math.hypot(a, 2.0 * math.sqrt(eta)))

    def wigner_moments(self):
        """Quadrature order (x_h, p_h, x_s, p_s); the herald arm is lossless
        and the signal arm has passed a transmissivity-eta_bl beamsplitter."""
        ch, sh = math.cosh(2.0 * self.r), math.sinh(2.0 * self.r)
        off = math.sqrt(self.eta_bl) * sh
        signal = 1.0 + self.eta_bl * (ch - 1.0)
        cov = np.array([
            [ch, 0.0, off, 0.0],
            [0.0, ch, 0.0, -off],
            [off, 0.0, signal, 0.0],
            [0.0, -off, 0.0, signal],
        ])
        return np.zeros(4), cov


#: The source kinds by JSON name.
SOURCE_KINDS = {
    cls.kind: cls for cls in (Vacuum, MixedSinglePhoton, Coherent, Thermal, SpdcPair)
}


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


def gaussian_pqd_factor(mean, cov, t) -> tuple[np.ndarray, np.ndarray]:
    """Set-up half of a Gaussian PQD draw.  The ordering-t PQD of a Gaussian
    with quadrature mean ``mean`` and Wigner covariance ``cov`` (2K x 2K) is
    N(mean, cov - t) with t_k on both quadratures of mode k.  Returns
    (mean / 2, A / 2) with A^T A = cov - diag(repeat(t, 2)) from
    :func:`psd_factor_real`, which raises :class:`NotPsdError` if the PQD is
    negative; halving maps quadratures to amplitudes (x + i p) / 2 exactly.
    """
    pqd_cov = np.array(cov, dtype=float)
    pqd_cov.flat[:: pqd_cov.shape[0] + 1] -= np.repeat(t, 2)
    half_factor = psd_factor_real(pqd_cov)
    half_factor /= 2.0
    return np.asarray(mean, dtype=float) / 2.0, half_factor


def sample_gaussian_pqd(factor, gen: np.random.Generator, n: int,
                        out=None, work=None) -> np.ndarray:
    """Per-batch half of a Gaussian PQD draw: ``n`` amplitudes, shape (n, K),
    from ``factor`` = (mean / 2, A / 2), A^T A the PQD covariance, as from
    :func:`gaussian_pqd_factor`; A is r x 2K, and r = 2K there.  Consumes
    n r standard normals from ``gen``.

    ``out`` (n, 2K) and ``work`` (at least n r entries), C-contiguous float
    arrays, receive the quadratures (the result's storage) and the
    normals; each is allocated when omitted."""
    half_mean, half_factor = factor
    r = half_factor.shape[0]
    normals = gen.standard_normal(
        (n, r), out=None if work is None else work.reshape(-1)[:n * r].reshape(n, r))
    quad = np.matmul(normals, half_factor, out=out)
    quad += half_mean
    return quad.view(complex)


def sample_source_pqd(source: SourceModel, t_block: np.ndarray, gen: np.random.Generator,
                      size: int, out=None, work=None) -> np.ndarray:
    """Draw ``size`` phase-space amplitudes from one source's ordering-t PQD.

    Returns an array of shape (size, n_ports).  ``t_block`` holds the
    ordering parameter for each port the source occupies (an
    :class:`SpdcPair` takes herald then signal); every entry must respect
    the source's nonnegativity bound, otherwise the PQD is not a
    probability density and a :class:`NegativityError` names the mode.
    The draw sequence consumed from ``gen`` is fixed per source type, so
    batches are exactly reproducible.

    ``out``, C-contiguous complex (size, n_ports), takes the draws and
    ``work``, 1-d float of at least 2 size n_ports, the scratch; each is
    allocated when omitted.
    """
    t_block = np.atleast_1d(np.asarray(t_block, dtype=float))
    n_ports = len(source.port_names)
    if t_block.size != n_ports:
        raise DimensionError(
            f"{type(source).__name__} occupies {n_ports} port(s), "
            f"got {t_block.size} ordering value(s)"
        )
    # Every source has t_bar <= 1, so this also refuses t > 1.
    bound = source.t_bar
    for k, tk in enumerate(t_block):
        if tk > bound + ORDERING_TOL:
            raise NegativityError(
                f"ordering t={tk:g} on mode {k} of the {type(source).__name__} "
                f"block exceeds its nonnegativity bound t_bar={bound:g}"
            )
    if out is None:
        out = np.empty((size, n_ports), dtype=complex)
    source._sample_pqd(t_block, gen, out, np.empty(2 * out.size) if work is None else work)
    return out
