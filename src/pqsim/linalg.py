"""Complex linear algebra kernels: Haar unitaries, matrix permanents, PSD
factors, and circularly-symmetric complex normals.

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

#: Columns per block of the transfer matrix's Gram; a matrix of up to this
#: many modes is one block.  Measured at M = 1024 and 1600 on one BLAS
#: thread, 128 and 256 were equally fast and 512 slower.
_GRAM_BLOCK = 256


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

    All singular values must be <= 1 + CONTRACTION_TOL.  The Gram
    G = L^dag L is formed as its transpose L^T conj(L), which has the same
    eigenvalues, and only down to its diagonal: in column blocks of
    :data:`_GRAM_BLOCK`, each ending with its diagonal square, about half of
    G at large M.  Two numbers are read off the blocks: the diagonal, and
    the Frobenius norm delta of the off-diagonal part, summed from the
    off-diagonal entries themselves.  Three tests then run in order:

    1. If delta <= PSD_TOL and max diag + delta < (1 + CONTRACTION_TOL)^2,
       the matrix is accepted.  By Weyl's inequality the largest eigenvalue
       of G is at most max diag + ||G - diag G||_2 <= max diag + delta.
    2. Otherwise the blocks and their mirror images fill the gap
       (1 + CONTRACTION_TOL)^2 I - G^T, and a Cholesky factorization of it
       accepts a contraction at a fraction of the cost of an SVD.
    3. Only when that fails does the 2-norm decide, and word the refusal.

    Returns the matrix as a complex128 array, and with ``diagonal_gram``
    also whether G is diagonal: delta <= PSD_TOL.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"transfer matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("transfer matrix entries must be finite")
    m, limit = a.shape[0], (1.0 + CONTRACTION_TOL) ** 2
    blocks = [(c0, min(c0 + _GRAM_BLOCK, m)) for c0 in range(0, m, _GRAM_BLOCK)]
    # One buffer holds the column blocks G^T[:c1, c0:c1], each C-contiguous:
    # the rows above the diagonal square, then the square.
    buffer = np.empty(sum(c1 * (c1 - c0) for c0, c1 in blocks), dtype=complex)
    columns, start, top, off_squares = [], 0, 0.0, 0.0
    for c0, c1 in blocks:
        col = buffer[start : start + c1 * (c1 - c0)].reshape(c1, c1 - c0)
        start += col.size
        np.matmul(a[:, :c1].T, a[:, c0:c1].conj(), out=col)
        above, square, k = col[:c0], col[c0:], np.arange(c1 - c0)
        upper = square[k[:, None] < k]
        off_squares += 2.0 * (np.vdot(above, above).real + np.vdot(upper, upper).real)
        top = max(top, float(np.diagonal(square).real.max()))
        columns.append(col)
    delta = math.sqrt(off_squares)
    if not (delta <= PSD_TOL and top + delta < limit):
        gap = np.empty((m, m), dtype=complex)
        for (c0, c1), col in zip(blocks, columns):
            gap[:c1, c0:c1] = col
            np.conjugate(col[:c0].T, out=gap[c0:c1, :c0])
        gap *= -1.0
        gap.flat[:: m + 1] += limit
        try:
            np.linalg.cholesky(gap)
        except np.linalg.LinAlgError:
            smax = np.linalg.norm(a, ord=2)
            if smax > 1.0 + CONTRACTION_TOL:
                raise ContractionError(
                    f"largest singular value {smax:.12g} exceeds 1 + {CONTRACTION_TOL:g}; "
                    "the network would amplify light"
                ) from None
    return (a, delta <= PSD_TOL) if diagonal_gram else a


@functools.lru_cache(maxsize=32)
def _ryser_plan(n: int) -> list[tuple]:
    """The binary reflected Gray code over row subsets, less the empty one:
    per step the row k it flips, the ufunc that flips it (``np.add`` as row
    k joins), and the ufunc that adds the term in with its sign
    (-1)^(n - |subset|)."""
    plan, members = [], 0
    for step in range(1, 1 << n):
        k = (step & -step).bit_length() - 1
        members ^= 1 << k
        plan.append((k, np.add if members >> k & 1 else np.subtract,
                     np.subtract if (n - members.bit_count()) % 2 else np.add))
    return plan


def permanent_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a (B, n, n) stack of matrices.

    Ryser's formula: the sum over row subsets S of (-1)^(n - |S|)
    prod_j (sum_{k in S} row_k)_j, in the 2^n - 1 steps of
    :func:`_ryser_plan`.  Each step adds or subtracts one row of the stack,
    read as a C-contiguous (n, n, B) array, to the (n, B) column sums, and
    multiplies these in place.
    """
    shape = np.shape(mats)
    if len(shape) != 3 or shape[1] != shape[2]:
        raise DimensionError(f"expected a (B, n, n) stack, got shape {shape}")
    b, n, _ = shape
    if n > 30:
        raise DimensionError(f"a {n} x {n} permanent needs more than 2^30 Ryser steps")
    if n == 0:
        return np.ones(b, dtype=complex)
    stack = np.ascontiguousarray(np.asarray(mats, dtype=complex).transpose(1, 2, 0))
    col_sums = np.zeros((n, b), dtype=complex)
    first, rest = col_sums[0], list(col_sums[1:])
    product, total = np.empty(b, dtype=complex), np.zeros(b, dtype=complex)
    for k, move, accumulate in _ryser_plan(n):
        move(col_sums, stack[k], out=col_sums)
        product[:] = first
        for column in rest:
            product *= column
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
