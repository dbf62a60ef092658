"""Complex linear algebra kernels: Haar unitaries, unitary dilation of
contractions, matrix permanents, PSD factors, and circularly-symmetric
complex normals.

Vector convention used throughout the package: phase-space amplitudes are row
vectors and propagate as ``beta = alpha @ L``.  A complex covariance ``C``
means ``E[conj(z_i - m_i) (z_j - m_j)] = C_ij``.
"""

from __future__ import annotations

import functools
import math

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


def validate_transfer(matrix: np.ndarray, diagonal_gram: bool = False):
    """Check that a square complex matrix is a physical transfer matrix.

    All singular values must be <= 1 + CONTRACTION_TOL.  A Cholesky
    factorization of (1 + CONTRACTION_TOL)^2 I - L^dag L accepts a
    contraction at a fraction of the cost of an SVD; only when it fails does
    the 2-norm decide, and word the refusal.  Returns the matrix as a
    complex128 array, and with ``diagonal_gram`` also whether that Gram
    L^dag L is diagonal: its off-diagonal part has Frobenius norm <= PSD_TOL.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"transfer matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("transfer matrix entries must be finite")
    gap = a.conj().T @ a
    gap *= -1.0
    gap.flat[:: a.shape[0] + 1] += (1.0 + CONTRACTION_TOL) ** 2
    try:
        np.linalg.cholesky(gap)
    except np.linalg.LinAlgError:
        smax = np.linalg.norm(a, ord=2)
        if smax > 1.0 + CONTRACTION_TOL:
            raise ContractionError(
                f"largest singular value {smax:.12g} exceeds 1 + {CONTRACTION_TOL:g}; "
                "the network would amplify light"
            ) from None
    if not diagonal_gram:
        return a
    gap.flat[:: a.shape[0] + 1] = 0.0
    return a, bool(np.vdot(gap, gap).real <= PSD_TOL**2)


def economy_dilation(transfer: np.ndarray) -> tuple[np.ndarray, int]:
    """Embed an M x M contraction L as the top-left block of a unitary, with
    one environment (loss) mode per lossy direction: per singular value s
    with 1 - s^2 > 1e-12.  With L = V S W^dag and C = sqrt(I - S^2) over
    those directions,

        U = [[ L,        V C ],
             [ C W^dag,  -S  ]]

    and feeding the environment vacuum reproduces the lossy network exactly.
    Returns ``(unitary, n_env)`` where unitary is (M + n_env) square.
    """
    matrix = validate_transfer(transfer)
    m = matrix.shape[0]
    v, s, wh = np.linalg.svd(matrix)
    defect = np.clip(1.0 - s**2, 0.0, None)
    keep = np.flatnonzero(defect > 1e-12)
    c = np.sqrt(defect[keep])
    out = np.zeros((m + keep.size, m + keep.size), dtype=complex)
    out[:m, :m] = matrix
    out[:m, m:] = v[:, keep] * c
    out[m:, :m] = c[:, None] * wh[keep, :]
    out[m:, m:] = np.diag(-s[keep])
    return out, keep.size


@functools.lru_cache(maxsize=32)
def _ryser_plan(counts: tuple[int, ...]) -> list[tuple]:
    """Knuth's Algorithm H, the reflected mixed-radix Gray code over a_k in
    [0, c_k], k = 0 fastest, less a = 0: per step the row k it moves, the
    ufunc that moves it (``np.add`` as a_k rises), the weight prod_k
    C(c_k, a_k), and the ufunc that adds the term in with its sign (-1)^(n - sum a)."""
    digits, rising, plan = [0] * len(counts), [True] * len(counts), []
    for step in range(1, math.prod(c + 1 for c in counts)):
        k = 0
        while digits[k] == (counts[k] if rising[k] else 0):
            rising[k] = not rising[k]
            k += 1
        digits[k] += 1 if rising[k] else -1
        weight = math.prod(map(math.comb, counts, digits))
        plan.append((k, np.add if rising[k] else np.subtract, float(weight),
                     np.subtract if (sum(counts) - step) % 2 else np.add))
    return plan


def permanent_batch(mats: np.ndarray, counts=None) -> np.ndarray:
    """Permanents of n x n matrices, each given as a (K, n) block of distinct
    rows, row k standing for ``counts[k]`` equal rows (default all ones).

    Ryser's formula over row multisets: the sum over 0 <= a_k <= c_k of
    (-1)^(n - sum a) prod_k C(c_k, a_k) prod_j (sum_k a_k row_k)_j, in the
    prod_k (c_k + 1) - 1 steps of :func:`_ryser_plan`.  Each step adds or
    subtracts one row of the (B, K, n) stack, read as a C-contiguous (K, n, B)
    array (the oracle's transposed view of one is not copied), to the (n, B)
    column sums, and multiplies these in place.
    """
    shape = np.shape(mats)
    if len(shape) != 3:
        raise DimensionError(f"expected a (B, K, n) stack, got shape {shape}")
    b, rows, n = shape
    counts = (1,) * n if counts is None else tuple(counts)
    if len(counts) != rows or sum(counts) != n or not all(
            isinstance(c, (int, np.integer)) and c >= 1 for c in counts):
        raise DimensionError(f"counts {counts} must be {rows} positive integers summing to {n}")
    if math.prod(c + 1 for c in counts) > 1 << 30:
        raise DimensionError(f"counts {counts} need more than 2^30 Ryser steps")
    if n == 0:
        return np.ones(b, dtype=complex)
    stack = np.ascontiguousarray(np.asarray(mats, dtype=complex).transpose(1, 2, 0))
    col_sums = np.zeros((n, b), dtype=complex)
    first, rest = col_sums[0], list(col_sums[1:])
    product, total = np.empty(b, dtype=complex), np.zeros(b, dtype=complex)
    for k, move, weight, accumulate in _ryser_plan(tuple(map(int, counts))):
        move(col_sums, stack[k], out=col_sums)
        product[:] = first
        for column in rest:
            product *= column
        if weight != 1.0:
            product *= weight
        accumulate(total, product, out=total)
    return total


def psd_factor_complex(cov: np.ndarray) -> np.ndarray:
    """Factor A with A^dag A = cov for Hermitian PSD cov (row convention).

    Standard complex normals left-multiplied into A have covariance cov;
    :func:`_psd_factor` chooses the factor and refuses.
    """
    return _psd_factor(np.asarray(cov, dtype=complex))


def psd_factor_real(cov: np.ndarray) -> np.ndarray:
    """Real symmetric analogue of :func:`psd_factor_complex` (A^T A = cov)."""
    return _psd_factor(np.asarray(cov, dtype=float))


def _psd_factor(c: np.ndarray) -> np.ndarray:
    """The Cholesky factor when it completes: it is backward-stable, so it
    certifies lambda_min >= -O(n eps |cov|), far inside PSD_TOL.  Otherwise
    the eigen-factor decides, as :func:`validate_transfer` does: eigenvalues
    in [-PSD_TOL, 0] are clamped to zero (singular directions become exactly
    deterministic) and below -PSD_TOL the covariance is refused; so is a
    Hermitian defect above PSD_TOL."""
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"covariance must be square, got shape {c.shape}")
    if not np.array_equal(c, c.conj().T):
        if np.max(np.abs(c - c.conj().T)) > PSD_TOL:
            raise NotPsdError("covariance is not Hermitian within tolerance")
        c = (c + c.conj().T) / 2.0
    if c.size == 0:
        return c
    try:
        return np.linalg.cholesky(c).conj().T
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(c)
    if vals[0] < -PSD_TOL:
        raise NotPsdError(f"covariance eigenvalue {vals[0]:.3e} below -{PSD_TOL:g}")
    return np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.conj().T


def standard_complex_normal(gen: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric unit complex normals, E|z|^2 = 1."""
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)
