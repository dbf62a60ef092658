"""Complex linear algebra kernels: Haar unitaries, unitary dilation of
contractions, matrix permanents, and circularly-symmetric complex Gaussian
sampling.

Vector convention used throughout the package: phase-space amplitudes are row
vectors and propagate as ``beta = alpha @ L``.  A complex covariance ``C``
means ``E[conj(z_i - m_i) (z_j - m_j)] = C_ij``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractionError, DimensionError, NotPsdError
from .rng import RngStream

#: PSD tolerance: eigenvalues in [-PSD_TOL, 0] are clamped to zero, anything
#: below -PSD_TOL is treated as a modeling error rather than roundoff.
PSD_TOL = 1e-10

#: Allowed singular-value excess for a physical transfer matrix.
CONTRACTION_TOL = 1e-9


def haar_unitary(m: int, rng: RngStream) -> np.ndarray:
    """Draw an m x m unitary from the Haar measure.

    QR decomposition of a complex standard-normal (Ginibre) matrix, with the
    phases of the R diagonal folded into Q so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    if m < 1:
        raise DimensionError("unitary dimension must be at least 1")
    gen = rng.generator()
    z = (gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def validate_transfer(matrix: np.ndarray, tol: float = CONTRACTION_TOL) -> np.ndarray:
    """Check that a square complex matrix is a physical transfer matrix.

    All singular values must be <= 1 + tol.  Returns the matrix as a
    complex128 array.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"transfer matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("transfer matrix entries must be finite")
    smax = np.linalg.norm(a, ord=2) if a.size else 0.0
    if smax > 1.0 + tol:
        raise ContractionError(
            f"largest singular value {smax:.12g} exceeds 1 + {tol:g}; "
            "the network would amplify light"
        )
    return a


def dilate_to_unitary(transfer: np.ndarray, tol: float = CONTRACTION_TOL) -> np.ndarray:
    """Embed an M x M contraction L as the top-left block of a 2M x 2M unitary.

    Uses the SVD construction: with L = V S W^dag and C = sqrt(I - S^2),

        U = [[ L,        V C ],
             [ C W^dag,  -S  ]]

    The M added rows and columns are the environment (loss) modes; feeding
    them vacuum reproduces the lossy network exactly.
    """
    matrix = validate_transfer(transfer, tol=tol)
    v, s, wh = np.linalg.svd(matrix)
    c = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    top = np.hstack([matrix, v * c])
    bottom = np.hstack([c[:, None] * wh, np.diag(-s).astype(complex)])
    return np.vstack([top, bottom])


def economy_dilation(transfer: np.ndarray, defect_tol: float = 1e-12) -> tuple[np.ndarray, int]:
    """Like :func:`dilate_to_unitary` but adds only as many environment modes
    as there are lossy directions (singular values with 1 - s^2 > defect_tol).

    Returns ``(unitary, n_env)`` where unitary is (M + n_env) square.
    """
    matrix = validate_transfer(transfer)
    m = matrix.shape[0]
    v, s, wh = np.linalg.svd(matrix)
    defect = np.clip(1.0 - s**2, 0.0, None)
    keep = np.flatnonzero(defect > defect_tol)
    e = keep.size
    if e == 0:
        return matrix.copy(), 0
    c = np.sqrt(defect[keep])
    out = np.zeros((m + e, m + e), dtype=complex)
    out[:m, :m] = matrix
    out[:m, m:] = v[:, keep] * c
    out[m:, :m] = c[:, None] * wh[keep, :]
    out[m:, m:] = np.diag(-s[keep])
    return out, e


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square complex matrix by Ryser's formula, O(2^n n).

    Column subsets are visited in Gray-code order so each step updates the
    running row sums with a single column.
    """
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"permanent needs a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > 30:
        raise DimensionError("permanent limited to n <= 30 (cost 2^n)")
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        if gray & bit:
            row_sums -= mat[:, j]
        else:
            row_sums += mat[:, j]
        gray ^= bit
        sign = -1.0 if (gray.bit_count() & 1) else 1.0
        total += sign * np.prod(row_sums)
    return complex(total * (-1) ** n)


def permanent_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of equally sized square matrices, shape (B, n, n).

    Same Ryser/Gray-code scheme as :func:`permanent`, vectorized over the
    batch axis.
    """
    arr = np.asarray(mats, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise DimensionError(f"expected a (B, n, n) stack, got shape {arr.shape}")
    b, n, _ = arr.shape
    if n == 0:
        return np.ones(b, dtype=complex)
    if n > 30:
        raise DimensionError("permanent limited to n <= 30 (cost 2^n)")
    row_sums = np.zeros((b, n), dtype=complex)
    total = np.zeros(b, dtype=complex)
    gray = 0
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        if gray & bit:
            row_sums -= arr[:, :, j]
        else:
            row_sums += arr[:, :, j]
        gray ^= bit
        sign = -1.0 if (gray.bit_count() & 1) else 1.0
        total += sign * np.prod(row_sums, axis=1)
    return total * (-1) ** n


def _check_hermitian(cov: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    c = np.asarray(cov, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"covariance must be square, got shape {c.shape}")
    if c.size and np.max(np.abs(c - c.conj().T)) > tol:
        raise NotPsdError("covariance is not Hermitian within tolerance")
    return (c + c.conj().T) / 2.0


def psd_factor_complex(cov: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Factor A with A^dag A = cov for Hermitian PSD cov (row convention).

    Eigenvalues in [-tol, 0] are clamped to zero, which makes singular
    directions exactly deterministic; below -tol raises.  Standard complex
    normals left-multiplied into A then have covariance cov.
    """
    c = _check_hermitian(cov, tol)
    if c.size == 0:
        return c
    vals, vecs = np.linalg.eigh(c)
    if vals[0] < -tol:
        raise NotPsdError(f"covariance eigenvalue {vals[0]:.3e} below -{tol:g}")
    vals = np.clip(vals, 0.0, None)
    return np.sqrt(vals)[:, None] * vecs.conj().T


def psd_factor_real(cov: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Real symmetric analogue of :func:`psd_factor_complex` (A^T A = cov)."""
    c = np.asarray(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"covariance must be square, got shape {c.shape}")
    if c.size and np.max(np.abs(c - c.T)) > tol:
        raise NotPsdError("covariance is not symmetric within tolerance")
    c = (c + c.T) / 2.0
    vals, vecs = np.linalg.eigh(c)
    if c.size and vals[0] < -tol:
        raise NotPsdError(f"covariance eigenvalue {vals[0]:.3e} below -{tol:g}")
    vals = np.clip(vals, 0.0, None)
    return np.sqrt(vals)[:, None] * vecs.T


def standard_complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric unit complex normals, E|z|^2 = 1."""
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_complex_gaussian(
    mean: np.ndarray,
    cov: np.ndarray,
    rng: RngStream,
    size: int | None = None,
) -> np.ndarray:
    """Draw from a circularly-symmetric complex Gaussian.

    ``mean`` is a length-M complex vector and ``cov`` an M x M Hermitian PSD
    matrix with ``E[conj(z_i - m_i)(z_j - m_j)] = cov_ij``.  Zero-variance
    directions come out exactly deterministic.  With ``size=None`` a single
    length-M vector is returned, otherwise an array of shape (size, M).
    """
    mu = np.asarray(mean, dtype=complex)
    if mu.ndim != 1:
        raise DimensionError("mean must be a vector")
    factor = psd_factor_complex(cov)
    if factor.shape[0] != mu.shape[0]:
        raise DimensionError("mean and covariance dimensions disagree")
    gen = rng.generator()
    n = 1 if size is None else int(size)
    w = standard_complex_normal(gen, (n, mu.shape[0]))
    z = mu + w @ factor
    return z[0] if size is None else z
