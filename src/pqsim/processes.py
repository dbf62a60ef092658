"""Lossy linear-optical network as a quantum process.

The process is fully described by its transfer matrix L acting on row
vectors of phase-space amplitudes, ``beta = alpha @ L``.  Between input
ordering t and output ordering s, the conditional distribution of beta given
alpha is a Gaussian centered on alpha L whose complex covariance is Sigma/2
with

    Sigma = I - L^dag L - diag(s) + L^dag diag(t) L,

well defined (no more singular than a point mass) iff Sigma >= 0.  Sigma = 0
reproduces the deterministic map beta = alpha L exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .linalg import PSD_TOL, validate_transfer

#: Excess of a whitened squared singular value over 1 that
#: :func:`transition_factor` accepts as roundoff; the covariance error is
#: then of the same order.
WHITENED_ROUNDOFF = 1e-12


def uniform_loss_eta(eta0: float, ell: int, modes: int) -> float:
    """Per-photon transmissivity eta0 ** log_ell(M) through a uniform-loss
    network: ell-port elements of transmissivity eta0 each, fully connected
    over M modes, so every path crosses log_ell(M) elements."""
    if not 0.0 < eta0 <= 1.0:
        raise ValueError(f"eta0 must be in (0, 1], got {eta0}")
    if ell < 2:
        raise ValueError(f"element arity ell must be >= 2, got {ell}")
    if modes < 1:
        raise ValueError(f"mode count must be >= 1, got {modes}")
    return eta0 ** (math.log(modes) / math.log(ell))


def sigma_matrix(transfer: np.ndarray, s, t) -> np.ndarray:
    """Sigma = I - diag(s) - L_R^dag diag(1 - t_R) L_R over the rows R with
    t != 1, which equals I - L^dag L - diag(s) + L^dag diag(t) L for any t
    (rows with t = 1 cancel exactly).  Hermitian by construction;
    symmetrized to kill roundoff."""
    matrix = np.asarray(transfer, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"transfer matrix must be square, got {matrix.shape}")
    m = matrix.shape[0]
    s = np.broadcast_to(np.asarray(s, dtype=float), (m,))
    t = np.broadcast_to(np.asarray(t, dtype=float), (m,))
    rows = np.flatnonzero(t != 1.0)
    lr = matrix[rows]
    sigma = np.diag(1.0 - s) - (lr.conj().T * (1.0 - t[rows])) @ lr
    return (sigma + sigma.conj().T) / 2.0


def whitened_rows(transfer: np.ndarray, t, d) -> tuple[np.ndarray, np.ndarray]:
    """(B, C) over the ports S with ordering t < 1: B = diag(sqrt(1 - t_S)) L_S
    and C = B diag(d^-1/2), with C's columns 0 where d <= 0.

    For t <= 1, L^dag diag(1 - t) L = B^dag B: classical ports (vacuum,
    coherent, thermal; t_bar = 1) add no noise, so the input side of Sigma
    has rank |S|.
    """
    matrix = np.asarray(transfer, dtype=complex)
    t = np.asarray(t, dtype=float)
    ports = np.flatnonzero(t < 1.0)
    b = np.sqrt(1.0 - t[ports])[:, None] * matrix[ports]
    # A column where d <= 0 is divided by inf, so that C is 0 there.
    return b, b / np.sqrt(np.where(d > 0.0, d, np.inf))


def transition_factor(transfer: np.ndarray, s, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor of the transition covariance Sigma/2 for orderings s, t <= 1
    whose Sigma passed the PSD test, from one |S| x |S| eigenproblem.

    With D = 1 - s and (B, C) from :func:`whitened_rows` at D,
    Sigma = diag(D) - B^dag B, C = B diag(D^-1/2) (0 where D = 0, modes
    with p_d = 0), and eigh(C C^dag) = U diag(lam) U^dag.  Returns
    (C^dag, G, sqrt(D/2)) with G = U diag(1 / (1 + sqrt(1 - lam))) U^dag C,
    1 - lam clamped at 0, so that F = (I - C^dag G) diag(sqrt(D/2))
    satisfies F^dag F = Sigma/2 without dividing by lam.  Applying F to a
    row costs O(M |S|).

    This is exact when Sigma is PSD: B's columns then vanish where D = 0
    and lam <= 1.  A verdict that passed only within the PSD tolerance can
    leave a column of B nonzero where D = 0, or push lam far above 1 where
    D is tiny, and C would amplify that excess; the factor is then built
    at D + PSD_TOL, for Sigma + PSD_TOL * I, which is PSD, so the
    covariance is off by at most the tolerance.
    """
    exact = 1.0 - np.asarray(s, dtype=float)
    for d in (exact, exact + PSD_TOL):
        b, c = whitened_rows(transfer, t, d)
        lam, u = np.linalg.eigh(c @ c.conj().T)
        if not (np.any(b[:, d <= 0.0]) or (lam.size and lam[-1] > 1.0 + WHITENED_ROUNDOFF)):
            break
    shrink = 1.0 / (1.0 + np.sqrt(np.clip(1.0 - lam, 0.0, None)))
    g = (u * shrink) @ (u.conj().T @ c)
    return c.conj().T, g, np.sqrt(d / 2.0)


def transition_noise(factor, gen: np.random.Generator, n: int, out=None, work=None,
                     spare=None) -> np.ndarray:
    """The noise delta (n, M) of :func:`sample_transition`: a circular complex
    Gaussian of covariance Sigma/2 from ``factor`` = :func:`transition_factor`,
    exactly 0 when Sigma = 0, from 2 n M standard normals read as (re, im).

    ``out`` and ``work``, C-contiguous float (n, 2M), receive the result and
    hold the products, and ``spare``, 1-d complex of at least n |S| entries,
    the normals' product with C^dag; each is allocated when omitted.
    """
    c_h, g, scale = factor
    delta = gen.standard_normal((n, 2 * scale.size), out=out).view(complex)
    low = np.matmul(delta, c_h, out=None if spare is None
                    else spare[:n * c_h.shape[1]].reshape(n, -1))
    delta -= np.matmul(low, g, out=None if work is None else work.view(complex))
    # delta = re + i im has E|delta|^2 = 2; the 1/sqrt(2) of a unit normal goes here.
    delta *= scale / np.sqrt(2.0)
    return delta


def sample_transition(alpha: np.ndarray, rows: np.ndarray, factor,
                      gen: np.random.Generator) -> np.ndarray:
    """Draw beta = alpha @ rows + delta for input amplitudes alpha (n, K),
    where ``rows`` (K, M) are those K ports' rows of L and delta is
    :func:`transition_noise`, drawn first."""
    delta = transition_noise(factor, gen, alpha.shape[0])
    delta += alpha @ rows
    return delta


def quadrature_rep(matrix: np.ndarray) -> np.ndarray:
    """Real 2K x 2N representation of a complex K x N matrix on interleaved
    (x, p) quadratures, such that row-vector transport alpha -> alpha A maps
    to (x, p) -> (x, p) quadrature_rep(A)."""
    a = np.asarray(matrix, dtype=complex)
    out = np.empty((2 * a.shape[0], 2 * a.shape[1]))
    out[0::2, 0::2] = a.real
    out[0::2, 1::2] = a.imag
    out[1::2, 0::2] = -a.imag
    out[1::2, 1::2] = a.real
    return out


def block_rows(sources, transfer: np.ndarray, t: float = 1.0):
    """Output moments of the network ``transfer`` (taken as validated) for
    Gaussian ``sources`` (:class:`~pqsim.experiment.PortSource` entries) as
    rows at input ordering t: (mean', rows, lam), mean' = sum_b mean_b Q_b,
    Q_b the quadrature rows of L for source b's ports, and a row
    sqrt|lam| u^T Q_b for each |lam| > PSD_TOL of cov_b - t I = U diag(lam) U^T
    (only those are allocated), so sum_b Q_b^T (cov_b - t I) Q_b = R_+^T R_+
    - R_-^T R_- (lam > 0, lam < 0) up to the dropped ones.  One
    ``wigner_moments()`` and one eigenproblem per group of equal sources, in
    order of first appearance, each group's rows written into the result."""
    m, groups, spectra = transfer.shape[0], {}, []
    for entry in sources:
        groups.setdefault(entry.source, []).append(entry.ports)
    for source, ports in groups.items():
        mean_b, cov_b = source.wigner_moments()
        lam, u = np.linalg.eigh(cov_b - t * np.eye(len(cov_b)))
        keep = np.abs(lam) > PSD_TOL
        spectra.append((np.ravel(ports), np.tile(mean_b, (len(ports), 1)), lam[keep], u[:, keep]))
    lams = np.concatenate([np.empty(0), *(np.tile(lam, len(b)) for _, b, lam, _ in spectra)])
    mean, rows, start = np.zeros(2 * m), np.empty((0, 2 * m)), 0
    for i, (ports, means, lam, u) in enumerate(spectra):
        q = quadrature_rep(transfer[ports]).reshape(*means.shape, 2 * m)
        if not i:  # allocated after q, once L's complex row copy is freed
            rows = np.empty((len(lams), 2 * m))
        block = rows[start:start + len(q) * len(lam)]
        mean += np.einsum("bi,bij->j", means, q)
        np.matmul(u.T, q, out=block.reshape(len(q), len(lam), 2 * m))
        block *= np.sqrt(np.abs(lams[start:start + len(block)]))[:, None]
        start += len(block)
    return mean, rows, lams


def propagate_blocks(sources, transfer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wigner mean and covariance at the output of the network ``transfer``
    (taken as validated) for Gaussian ``sources`` covering its ports.

    Dilating L with vacuum environment modes gives B^T cov B + B(I - L^dag L)
    with B the quadrature representation of L; since B^T B = B(L^dag L) the
    vacuum part cancels, leaving cov' = I + sum_b Q_b^T (cov_b - I) Q_b:
    :func:`block_rows` at t = 1, then two symmetric rank-k products, exactly
    symmetric.
    """
    mean, rows, lam = block_rows(sources, transfer)
    gain, damp = rows[lam > 0.0], rows[lam < 0.0]
    cov = gain.T @ gain
    cov -= damp.T @ damp
    cov.flat[:: 2 * transfer.shape[0] + 1] += 1.0
    return mean, cov


def propagate_gaussian(mean, cov, transfer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Send Gaussian Wigner moments, a quadrature mean of length 2M and a
    symmetric 2M x 2M covariance, through a (possibly lossy) M-mode network:
    (mean Q, I + Q^T (cov - I) Q), Q = :func:`quadrature_rep` (L), symmetrized."""
    matrix = validate_transfer(transfer)
    m = matrix.shape[0]
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    if mean.shape != (2 * m,) or cov.shape != (2 * m, 2 * m):
        raise DimensionError(
            f"a {m}-mode network needs a mean of length {2 * m} and a {2 * m} x {2 * m} "
            f"covariance, got shapes {mean.shape} and {cov.shape}"
        )
    if np.max(np.abs(cov - cov.T), initial=0.0) > PSD_TOL:
        raise DimensionError("covariance must be symmetric")
    q = quadrature_rep(matrix)
    out = q.T @ (cov - np.eye(2 * m)) @ q
    return mean @ q, (out + out.T) / 2.0 + np.eye(2 * m)
