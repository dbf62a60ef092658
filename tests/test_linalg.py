import functools
import tracemalloc

import numpy as np
import pytest

from pqsim import RngStream
from pqsim.errors import ContractionError, DimensionError, NotPsdError
from pqsim.linalg import (
    CONTRACTION_TOL,
    PSD_TOL,
    haar_unitary,
    permanent_batch,
    psd_factor_complex,
    psd_factor_real,
    standard_complex_normal,
    validate_transfer,
)

from conftest import economy_dilation, naive_permanent


class TestHaarUnitary:
    def test_one_dimensional_is_unit_modulus(self):
        u = haar_unitary(1, RngStream(0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_unitarity(self, m):
        u = haar_unitary(m, RngStream(3))
        assert np.max(np.abs(u.conj().T @ u - np.eye(m))) <= 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionError):
            haar_unitary(0, RngStream(0))

    def test_first_moment_matches_haar_measure(self):
        # E|U_ij|^2 = 1/m; |U_11|^2 is Beta(1, m-1) so var = (m-1)/(m^2 (m+1)).
        m, draws = 8, 10_000
        samples = np.array([
            abs(haar_unitary(m, RngStream(100, i))[0, 0]) ** 2 for i in range(draws)
        ])
        se = np.sqrt((m - 1) / (m**2 * (m + 1)) / draws)
        assert abs(samples.mean() - 1.0 / m) <= 5 * se


def lossy_contraction(modes, seed):
    """U diag(s) V with Haar U, V and singular values s spread over [0.3, 1)."""
    s = np.linspace(0.3, 0.95, modes)
    return haar_unitary(modes, RngStream(seed)) * s @ haar_unitary(modes, RngStream(seed, 1))


class TestDilation:
    def test_identity_dilation_adds_no_mode(self):
        u, n_env = economy_dilation(np.eye(2, dtype=complex))
        assert n_env == 0
        assert np.array_equal(u, np.eye(2))

    def test_scalar_contraction_gives_beamsplitter(self):
        u, n_env = economy_dilation(np.array([[np.sqrt(0.5)]]))
        assert n_env == 1
        assert abs(abs(u[0, 0]) ** 2 - 0.5) <= 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_on_random_contractions(self, seed):
        transfer = lossy_contraction(3, seed)
        u, n_env = economy_dilation(transfer)
        assert n_env == 3
        assert np.max(np.abs(u[:3, :3] - transfer)) <= 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= 1e-10

    def test_rejects_expanding_matrix(self):
        with pytest.raises(ContractionError):
            economy_dilation(1.01 * np.eye(2))

    def test_economy_dilation_counts_lossy_directions(self):
        unitary, n_env = economy_dilation(haar_unitary(3, RngStream(1)))
        assert n_env == 0 and unitary.shape == (3, 3)
        lossy = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
        unitary, n_env = economy_dilation(lossy)
        assert n_env == 1 and unitary.shape == (3, 3)
        assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(3))) <= 1e-10

    def test_validate_transfer_accepts_boundary(self):
        validate_transfer(np.eye(3, dtype=complex))
        with pytest.raises(DimensionError):
            validate_transfer(np.ones((2, 3)))


class TestValidateTransfer:
    TOL = CONTRACTION_TOL

    @pytest.mark.parametrize("name", ["identity", "scaled_unitary", "zero", "rank_deficient",
                                      "strided_view", "empty"])
    def test_accepts_contractions(self, name):
        u = haar_unitary(5, RngStream(8))
        matrix = {
            "identity": np.eye(5, dtype=complex),
            "scaled_unitary": (1.0 + self.TOL / 2.0) * u,
            "zero": np.zeros((5, 5), dtype=complex),
            "rank_deficient": u[:, :2] @ u[:2, :],
            "strided_view": haar_unitary(10, RngStream(9))[::2, ::2],
            "empty": np.zeros((0, 0), dtype=complex),
        }[name]
        out = validate_transfer(matrix)
        assert out.dtype == complex and np.array_equal(out, matrix)

    def test_refuses_expansion_with_the_singular_value_message(self):
        u = haar_unitary(5, RngStream(8))
        smax = 1.0 + 2.0 * self.TOL
        with pytest.raises(ContractionError,
                           match=r"^largest singular value 1\.000000002\d* exceeds 1 \+ 1e-09; "
                                 "the network would amplify light$"):
            validate_transfer(smax * u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, bad):
        matrix = 0.5 * np.eye(3, dtype=complex)
        matrix[1, 2] = bad
        with pytest.raises(DimensionError, match="finite"):
            validate_transfer(matrix)

    def test_singular_gap_falls_back_to_the_svd_and_accepts(self, monkeypatch):
        # (1 + tol)^2 - (1 + tol)^2 is exactly 0, so the Cholesky test fails
        # and the 2-norm, exactly 1 + tol, decides.
        matrix = np.diag([1.0 + self.TOL, 0.5]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky((1.0 + self.TOL) ** 2 * np.eye(2) - matrix.conj().T @ matrix)
        norms = []
        original = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda *a, **k: norms.append(1) or original(*a, **k))
        assert np.array_equal(validate_transfer(matrix), matrix)
        assert norms

    def test_contraction_takes_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SVD taken for a strict contraction")

        monkeypatch.setattr(np.linalg, "norm", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        validate_transfer(0.9 * haar_unitary(6, RngStream(2)))


@functools.lru_cache(maxsize=None)
def cached_haar(m: int) -> np.ndarray:
    return haar_unitary(m, RngStream(11, m))


def reference_case(name: str, m: int) -> np.ndarray:
    """Transfer matrices around the contraction and diagonal-Gram limits.
    The off-diagonal cases put the Frobenius norm of L^dag L's off-diagonal
    part at 0.5e-10 or 2e-10: U (0.5 I + eps E_01) has Gram entries
    0.5 eps at (0, 1) and (1, 0), a norm of eps / sqrt(2)."""
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    u = cached_haar(m)
    tol = CONTRACTION_TOL
    if name.startswith("scaled_"):
        return {"scaled_below": 1.0 - 1e-6, "scaled_half_tol": 1.0 + tol / 2.0,
                "scaled_two_tol": 1.0 + 2.0 * tol}[name] * u
    if name == "identity_plus_haar":
        out = np.eye(m, dtype=complex)
        if m > 1:
            out[m // 2:, m // 2:] = cached_haar(m - m // 2)
        return out
    if name == "row_scaled":
        return np.linspace(1.0, 0.3, m)[:, None] * u
    if name.startswith("off_diagonal_"):
        inner = 0.5 * np.eye(m, dtype=complex)
        if m > 1:
            delta = {"off_diagonal_small": 0.5e-10, "off_diagonal_large": 2e-10}[name]
            inner[0, 1] = np.sqrt(2.0) * delta
        return u @ inner
    if name == "rank_deficient":
        return u[:, :2] @ u[:2, :]
    raise KeyError(name)


def dense_reference(matrix: np.ndarray) -> tuple[str | None, bool]:
    """The refusal message (None for a contraction) from the SVD 2-norm, and
    whether the full Gram's off-diagonal Frobenius norm is <= PSD_TOL."""
    smax = float(np.linalg.svd(matrix, compute_uv=False).max(initial=0.0))
    refusal = None
    if smax > 1.0 + CONTRACTION_TOL:
        refusal = (f"largest singular value {smax:.12g} exceeds 1 + {CONTRACTION_TOL:g}; "
                   "the network would amplify light")
    gram = matrix.conj().T @ matrix
    off = gram - np.diag(np.diag(gram))
    return refusal, bool(np.sqrt(np.vdot(off, off).real) <= PSD_TOL)


class TestValidateTransferReference:
    """validate_transfer against a dense SVD-and-full-Gram reference, up to
    M = 1024 so that every path of the contraction test runs."""

    @pytest.mark.parametrize("m", [0, 1, 5, 300, 1024])
    @pytest.mark.parametrize("name", [
        "scaled_below", "scaled_half_tol", "scaled_two_tol", "identity_plus_haar",
        "row_scaled", "off_diagonal_small", "off_diagonal_large", "rank_deficient"])
    def test_verdict_message_and_diagonal_gram_match(self, name, m):
        matrix = reference_case(name, m)
        refusal, diagonal = dense_reference(matrix)
        if refusal is None:
            out, diagonal_gram = validate_transfer(matrix, diagonal_gram=True)
            assert np.array_equal(out, matrix) and diagonal_gram == diagonal
        else:
            with pytest.raises(ContractionError) as err:
                validate_transfer(matrix, diagonal_gram=True)
            assert str(err.value) == refusal

    def test_cases_reach_both_verdicts_and_both_gram_kinds(self):
        verdicts = {dense_reference(reference_case(name, 5)) for name in (
            "scaled_half_tol", "scaled_two_tol", "off_diagonal_small", "off_diagonal_large")}
        assert {refusal is None for refusal, _ in verdicts} == {True, False}
        assert {diagonal for _, diagonal in verdicts} == {True, False}


def permanent(a):
    """The permanent of one matrix, as a stack of one."""
    return permanent_batch(np.asarray(a)[None])[0]


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(3)) == pytest.approx(1.0)

    def test_all_ones_is_factorial(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_empty_matrix(self):
        assert permanent(np.zeros((0, 0))) == 1.0
        assert np.array_equal(permanent_batch(np.zeros((3, 0, 0))), np.ones(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_naive_expansion(self, n):
        gen = RngStream(50, n).generator()
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        expected = naive_permanent(a)
        got = permanent(a)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_row_multilinearity_exact_on_integer_matrices(self):
        gen = RngStream(51).generator()
        a = gen.integers(-5, 6, size=(3, 3)).astype(float)
        scaled = a.copy()
        scaled[1] *= 3.0
        assert permanent(scaled) == 3.0 * permanent(a)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            permanent_batch(np.ones((1, 2, 3)))
        with pytest.raises(DimensionError):
            permanent_batch(np.ones((3, 3)))

    @pytest.mark.parametrize("shape", [
        pytest.param((64, 2, 3), id="non_square"),
        pytest.param((64, 31, 31), id="31_rows"),
    ])
    def test_bad_stacks_refused_before_allocating(self, shape):
        # A complex copy of the stack would take 16 bytes per entry, 6 KiB
        # or more here.
        mats = np.broadcast_to(0.5, shape)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError):
                permanent_batch(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048

    def test_batch_matches_scalar(self):
        gen = RngStream(52).generator()
        mats = gen.standard_normal((6, 4, 4)) + 1j * gen.standard_normal((6, 4, 4))
        batch = permanent_batch(mats)
        for k in range(6):
            expected = naive_permanent(mats[k])
            assert abs(batch[k] - expected) <= 1e-12 * max(1.0, abs(expected))


def draw_complex_gaussian(mean, cov, gen, size):
    """mean + w A with w unit circular complex normals and A^dag A = cov."""
    mean = np.asarray(mean, dtype=complex)
    return mean + standard_complex_normal(gen, (size, mean.size)) @ psd_factor_complex(cov)


class TestComplexGaussian:
    def test_zero_covariance_is_point_mass(self):
        mean = np.array([1.0 + 2.0j, -0.5j])
        z = draw_complex_gaussian(mean, np.zeros((2, 2)), RngStream(1).generator(), size=7)
        assert np.array_equal(z, np.broadcast_to(mean, (7, 2)))

    def test_unit_covariance_moments(self):
        draws = 100_000
        z = draw_complex_gaussian(np.zeros(2), np.eye(2), RngStream(2).generator(), size=draws)
        # |z|^2 is Exp(1): variance 1, so se of the mean is 1/sqrt(n).
        assert abs(np.mean(np.abs(z[:, 0]) ** 2) - 1.0) <= 5 / np.sqrt(draws)

    def test_singular_direction_is_deterministic(self):
        draws = 100_000
        mean = np.array([0.0, 3.0 + 1.0j])
        z = draw_complex_gaussian(mean, np.diag([1.0, 0.0]), RngStream(3).generator(),
                                  size=draws)
        assert np.all(z[:, 1] == mean[1])
        re_var = np.var(z[:, 0].real)
        # Re z ~ N(0, 1/2): se of sample variance is sqrt(2/n) * 0.5.
        assert abs(re_var - 0.5) <= 5 * np.sqrt(2.0 / draws) * 0.5

    def test_empirical_covariance_matches_request(self):
        draws = 100_000
        cov = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        z = draw_complex_gaussian(np.zeros(2), cov, RngStream(4).generator(), size=draws)
        emp = z.conj().T @ z / draws
        for i in range(2):
            for j in range(2):
                se = np.sqrt(abs(cov[i, i] * cov[j, j]) / draws)
                assert abs(emp[i, j] - cov[i, j]) <= 5 * se

    def test_factor_reproduces_covariance(self):
        cov = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        factor = psd_factor_complex(cov)
        assert np.max(np.abs(factor.conj().T @ factor - cov)) <= 1e-14

    def test_roundoff_negative_eigenvalue_is_clamped_to_a_zero_row(self):
        factor = psd_factor_complex(np.diag([-1e-12, 1.0]))
        assert np.array_equal(factor[0], np.zeros(2))

    def test_non_psd_rejected(self):
        with pytest.raises(NotPsdError):
            psd_factor_complex(np.array([[-1e-6]]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotPsdError):
            psd_factor_complex(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestPsdFactor:
    """Cholesky first; the eigen-factor clamps or refuses only when the
    Cholesky factorization fails."""

    @staticmethod
    def spy(monkeypatch) -> list:
        calls = []
        cholesky, eigh = np.linalg.cholesky, np.linalg.eigh

        def spy_cholesky(a, *args, **kwargs):
            try:
                return cholesky(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append("cholesky failed")
                raise

        def spy_eigh(a, *args, **kwargs):
            calls.append("eigh")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        return calls

    @staticmethod
    def rotated(eigenvalues, seed=8):
        q = np.linalg.qr(RngStream(seed).generator().standard_normal((3, 3)))[0]
        return (q * eigenvalues) @ q.T

    @pytest.mark.parametrize("factor_of,dtype", [(psd_factor_real, float),
                                                 (psd_factor_complex, complex)])
    def test_positive_definite_takes_the_cholesky_factor(self, monkeypatch, factor_of, dtype):
        gen = RngStream(7).generator()
        raw = gen.standard_normal((5, 5)).astype(dtype)
        if dtype is complex:
            raw += 1j * gen.standard_normal((5, 5))
        cov = raw.conj().T @ raw + np.eye(5)
        calls = self.spy(monkeypatch)
        factor = factor_of(cov)
        assert calls == []
        assert np.array_equal(factor, np.triu(factor))
        assert np.max(np.abs(factor.conj().T @ factor - cov)) <= 1e-12

    def test_failed_cholesky_clamps_roundoff(self, monkeypatch):
        calls = self.spy(monkeypatch)
        cov = self.rotated(np.array([-1e-12, 0.5, 1.0]))
        factor = psd_factor_real(cov)
        assert calls == ["cholesky failed", "eigh"]
        assert np.array_equal(factor[0], np.zeros(3))
        assert np.max(np.abs(factor.T @ factor - cov)) <= 1e-11

    def test_failed_cholesky_refuses_below_tolerance(self, monkeypatch):
        calls = self.spy(monkeypatch)
        with pytest.raises(NotPsdError,
                           match=r"^covariance eigenvalue -1\.000e-06 below -1e-10$"):
            psd_factor_real(self.rotated(np.array([-1e-6, 0.5, 1.0])))
        assert calls == ["cholesky failed", "eigh"]
