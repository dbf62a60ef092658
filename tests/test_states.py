import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import pqsim.states
from pqsim import RngStream
from pqsim.errors import DimensionError, NegativityError, NotPsdError, SingularOrderingError
from pqsim.linalg import psd_factor_real
from pqsim.states import (
    SOURCE_KINDS,
    Coherent,
    MixedSinglePhoton,
    SpdcPair,
    Thermal,
    Vacuum,
    SourceModel,
    gaussian_pqd_factor,
    pqd_single_photon_mixture,
    sample_gaussian_pqd,
    sample_source_pqd,
)


def radial_moment(eta_bar: float, t: float, power: int) -> float:
    """Independent oracle: moments of the one-photon-mixture PQD by
    quadrature over |alpha|^2 (the distribution is isotropic)."""
    value, _ = integrate.quad(
        lambda u: math.pi * u**power * pqd_single_photon_mixture(math.sqrt(u), t, eta_bar),
        0.0, 80.0 * max(1.0 - t, 1.0), limit=200,
    )
    return value


class TestSinglePhotonPqd:
    def test_vacuum_case_peaks_at_two_over_pi(self):
        assert pqd_single_photon_mixture(0.0, 0.0, 0.0) == pytest.approx(2.0 / math.pi)

    def test_pure_photon_wigner_negativity_at_origin(self):
        assert pqd_single_photon_mixture(0.0, 0.0, 1.0) == pytest.approx(-2.0 / math.pi)

    def test_boundary_ordering_zero_at_origin(self):
        # eta_bar = 0.5 puts the nonnegativity boundary at t = 0.
        assert pqd_single_photon_mixture(0.0, 0.0, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert pqd_single_photon_mixture(0.5, 0.0, 0.5) > 0.0

    def test_singular_ordering_rejected(self):
        with pytest.raises(SingularOrderingError):
            pqd_single_photon_mixture(0.0, 1.0, 0.1)

    @pytest.mark.parametrize("eta_bar", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.5])
    def test_normalization_by_quadrature(self, eta_bar, t):
        radius = 8.0 * math.sqrt(1.0 - t)
        total, _ = integrate.dblquad(
            lambda y, x: pqd_single_photon_mixture(complex(x, y), t, eta_bar),
            -radius, radius, -radius, radius, epsabs=1e-9, epsrel=1e-9,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eta_bar", [0.05, 0.3, 0.5])
    def test_nonnegativity_boundary(self, eta_bar):
        bound = 1.0 - 2.0 * eta_bar
        grid = np.sqrt(np.linspace(0.0, 10.0, 1000))
        below = min(pqd_single_photon_mixture(a, bound - 0.01, eta_bar) for a in grid)
        above = min(pqd_single_photon_mixture(a, bound + 0.01, eta_bar) for a in grid)
        assert below >= 0.0
        assert above < 0.0


class TestTBar:
    def test_classical_sources(self):
        assert Vacuum().t_bar == 1.0
        assert Coherent(2.0 + 1.0j).t_bar == 1.0
        assert Thermal(0.7).t_bar == 1.0

    def test_single_photon_mixture(self):
        assert MixedSinglePhoton(0.5, 0.1).t_bar == pytest.approx(0.9)

    def test_spdc_vacuum_limits(self):
        assert SpdcPair(1.3, 0.0).t_bar == pytest.approx(1.0)
        assert SpdcPair(0.0, 0.5).t_bar == pytest.approx(1.0)

    def test_single_photon_bound_decreases_with_eta_bar(self):
        values = [MixedSinglePhoton(mu, 1.0).t_bar for mu in np.linspace(0, 1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_spdc_bound_decreases_with_squeezing(self):
        for eta in [0.2, 0.7, 1.0]:
            values = [SpdcPair(r, eta).t_bar for r in np.linspace(0.05, 2.0, 15)]
            assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("r", [15.0, 20.0, 50.0, 300.0])
    def test_spdc_bound_reaches_its_large_squeezing_limit(self, r, eta):
        # The closed form 1 + a - sqrt(a^2 + 4 eta s^2) used to cancel here
        # (0.0 at r = 20, eta = 0.5, where the limit is 1/3).
        assert SpdcPair(r, eta).t_bar == pytest.approx((1.0 - eta) / (1.0 + eta),
                                                       rel=1e-12, abs=1e-12)

    def test_spdc_bound_agrees_with_the_cancelling_form_where_it_holds(self):
        # The old form loses about (1 + a) / t_bar in relative precision:
        # 1e-14 at small r, and up to 1.3e-11 at r = 3, eta = 1 (checked at
        # 50 digits, where the stable form is within 6e-14).
        for r in np.linspace(0.0, 3.0, 61):
            for eta in np.linspace(0.0, 1.0, 21):
                s2 = math.sinh(r) ** 2
                a = (1.0 + eta) * s2
                old = 1.0 + a - math.sinh(r) * math.sqrt((1.0 + eta) ** 2 * s2 + 4.0 * eta)
                new = SpdcPair(r, eta).t_bar
                assert abs(new - old) <= 1e-14 * max(1.0, (1.0 + a) / old) * old, (r, eta)


class TestKindDeclarations:
    def test_every_kind_is_registered(self):
        assert set(SOURCE_KINDS.values()) == {Vacuum, MixedSinglePhoton, Coherent, Thermal,
                                              SpdcPair}

    @pytest.mark.parametrize("make", [lambda v: SpdcPair(v, 0.5), Thermal])
    def test_infinite_parameter_is_refused(self, make):
        # An infinite squeezing used to give t_bar = nan, which the verdict
        # read as simulatable.
        with pytest.raises(ValueError, match="must be finite"):
            make(math.inf)


@dataclass(frozen=True)
class SqueezedVacuum(SourceModel):
    """A one-mode squeezed vacuum, declared only here: a Gaussian kind whose
    one-mode block is not isotropic, so it draws through the real factor."""

    kind = "squeezed"

    r: float

    @property
    def t_bar(self):
        return math.exp(-2.0 * self.r)

    def wigner_moments(self):
        return np.zeros(2), np.diag([math.exp(-2.0 * self.r), math.exp(2.0 * self.r)])


GAUSSIAN_SOURCES = st.one_of(
    st.just(Vacuum()),
    st.builds(Coherent, st.complex_numbers(max_magnitude=20.0)),
    st.builds(Thermal, st.floats(0.0, 5.0)),
    st.builds(SpdcPair, st.floats(0.0, 1.5), st.floats(0.0, 1.0)),
    st.builds(SqueezedVacuum, st.floats(0.0, 1.0)),
)


class TestGaussianKindProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(GAUSSIAN_SOURCES, st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
    def test_draw_moments_are_wigner_moments_minus_t(self, source, u, seed):
        draws = 20_000
        mean, cov = source.wigner_moments()
        assert source.t_bar == pytest.approx(min(1.0, np.linalg.eigvalsh(cov)[0]), abs=1e-12)
        t = min(u, source.t_bar)
        alpha = sample_source_pqd(source, [t] * len(source.port_names),
                                  RngStream(seed).generator(), draws)
        quad = np.empty((draws, mean.size))
        quad[:, 0::2], quad[:, 1::2] = 2.0 * alpha.real, 2.0 * alpha.imag
        expected = cov - t * np.eye(mean.size)
        var = np.diag(expected)
        # 6 sigma of the sample mean and of each sample covariance entry.
        assert np.all(np.abs(quad.mean(axis=0) - mean) <= 6.0 * np.sqrt(var / draws) + 1e-9)
        spread = np.sqrt((np.outer(var, var) + expected**2) / draws)
        assert np.all(np.abs(np.cov(quad.T) - expected) <= 6.0 * spread + 1e-9)


class TestSpdcCovariance:
    def test_no_squeezing_is_two_vacua(self):
        assert np.allclose(SpdcPair(0.0, 0.7).wigner_moments()[1], np.eye(4), atol=1e-15)

    def test_unit_transmissivity_textbook_form(self):
        mean, cov = SpdcPair(1.0, 1.0).wigner_moments()
        ch, sh = math.cosh(2.0), math.sinh(2.0)
        assert np.array_equal(mean, np.zeros(4))
        assert np.allclose(np.diagonal(cov), ch)
        assert cov[0, 2] == pytest.approx(sh)
        assert cov[1, 3] == pytest.approx(-sh)

    def test_minimum_eigenvalue_equals_closed_form_bound(self):
        for r in np.linspace(0.0, 2.0, 20):
            for eta in np.linspace(0.0, 1.0, 20):
                lam_min = np.linalg.eigvalsh(SpdcPair(r, eta).wigner_moments()[1])[0]
                assert abs(lam_min - SpdcPair(r, eta).t_bar) <= 1e-12


class TestSampleInputPqd:
    def test_vacuum_wigner_moments(self):
        draws = 100_000
        alpha = sample_source_pqd(Vacuum(), [0.0], RngStream(1).generator(), draws)
        # |alpha|^2 is Exp(1/2): sd = 1/2.
        assert abs(np.mean(np.abs(alpha) ** 2) - 0.5) <= 5 * 0.5 / math.sqrt(draws)

    def test_coherent_p_function_is_point_mass(self):
        alpha = sample_source_pqd(Coherent(2.0), [1.0], RngStream(2).generator(), 50)
        assert np.all(alpha == 2.0)

    @pytest.mark.parametrize("source, amplitude", [
        (Vacuum(), 0.0), (Coherent(0.3 - 0.7j), 0.3 - 0.7j), (Thermal(0.0), 0.0),
        (MixedSinglePhoton(0.0), 0.0), (SpdcPair(0.0, 0.8), 0.0)])
    def test_point_mass_at_t_one_draws_nothing(self, source, amplitude):
        # A zero PQD factor is a point mass at the mean, and consumes no draws.
        gen = RngStream(12).generator()
        alpha = sample_source_pqd(source, [1.0] * len(source.port_names), gen, 100)
        assert alpha.shape == (100, len(source.port_names)) and np.all(alpha == amplitude)
        assert np.array_equal(gen.random(8), RngStream(12).generator().random(8))

    @pytest.mark.parametrize("source", [Vacuum(), Coherent(0.3 - 0.7j), Thermal(0.4),
                                        SpdcPair(0.3, 0.8)])
    def test_gaussian_kinds_draw_through_one_factor(self, source, monkeypatch):
        calls = []

        def spy(mean, cov, t):
            calls.append(t)
            return gaussian_pqd_factor(mean, cov, t)

        monkeypatch.setattr(pqsim.states, "gaussian_pqd_factor", spy)
        for t in (0.0, source.t_bar):
            sample_source_pqd(source, [t] * len(source.port_names),
                              RngStream(13).generator(), 10)
        assert len(calls) == 2

    def test_single_photon_mixture_moments_match_quadrature(self):
        eta_bar, t, draws = 0.05, 0.9, 100_000
        mean_sq = radial_moment(eta_bar, t, 1)
        var_sq = radial_moment(eta_bar, t, 2) - mean_sq**2
        assert mean_sq == pytest.approx((1.0 - t) / 2.0 + eta_bar, abs=1e-9)
        alpha = sample_source_pqd(MixedSinglePhoton(1.0, eta_bar), [t],
                                  RngStream(3).generator(), draws)
        observed = np.mean(np.abs(alpha) ** 2)
        assert abs(observed - mean_sq) <= 5 * math.sqrt(var_sq / draws)

    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.6])
    def test_single_photon_fourth_moment(self, t):
        eta_bar, draws = 0.2, 100_000
        if t > 1.0 - 2.0 * eta_bar:
            pytest.skip("inadmissible ordering")
        target = radial_moment(eta_bar, t, 2)
        spread = math.sqrt(max(radial_moment(eta_bar, t, 4) - target**2, 0.0))
        alpha = sample_source_pqd(MixedSinglePhoton(1.0, eta_bar), [t],
                                  RngStream(4).generator(), draws)
        observed = np.mean(np.abs(alpha) ** 4)
        assert abs(observed - target) <= 5 * spread / math.sqrt(draws)

    def test_thermal_moments(self):
        n_bar, t, draws = 0.4, 0.3, 100_000
        alpha = sample_source_pqd(Thermal(n_bar), [t], RngStream(5).generator(), draws)
        target = (2.0 * n_bar + 1.0 - t) / 2.0
        assert abs(np.mean(np.abs(alpha) ** 2) - target) <= 5 * target / math.sqrt(draws)

    def test_spdc_pair_moments(self):
        r, eta, t, draws = 0.6, 0.8, 0.1, 200_000
        cov = SpdcPair(r, eta).wigner_moments()[1] - t * np.eye(4)
        alpha = sample_source_pqd(SpdcPair(r, eta), [t, t], RngStream(6).generator(), draws)
        for mode in (0, 1):
            target = (cov[2 * mode, 2 * mode] + cov[2 * mode + 1, 2 * mode + 1]) / 4.0
            observed = np.mean(np.abs(alpha[:, mode]) ** 2)
            assert abs(observed - target) <= 5 * 2 * target / math.sqrt(draws)
        # herald-signal correlation E[a_h a_s] = sqrt(eta) sinh(2r) / 2
        cross = np.mean(alpha[:, 0] * alpha[:, 1])
        target_cross = math.sqrt(eta) * math.sinh(2 * r) / 2.0
        assert abs(cross - target_cross) <= 5 * 2 * target_cross / math.sqrt(draws)

    def test_inadmissible_ordering_names_the_mode(self):
        with pytest.raises(NegativityError, match="mode 0"):
            sample_source_pqd(MixedSinglePhoton(0.9, 1.0), [0.5], RngStream(7).generator(), 1)
        pair = SpdcPair(0.3, 0.9)
        with pytest.raises(NegativityError, match="mode 1 of the SpdcPair block"):
            sample_source_pqd(pair, [pair.t_bar, 1.0], RngStream(7).generator(), 1)

    def test_ordering_above_one_is_refused_for_classical_sources(self):
        with pytest.raises(NegativityError):
            sample_source_pqd(Thermal(0.2), [1.0 + 1e-9], RngStream(7).generator(), 1)

    def test_mixed_port_layout(self):
        gen = RngStream(8).generator()
        for source, t in ((Vacuum(), [0.0]), (SpdcPair(0.3, 0.9), [0.0, 0.0]),
                          (Coherent(1.0), [0.5])):
            assert sample_source_pqd(source, t, gen, 10).shape == (10, len(source.port_names))
        with pytest.raises(DimensionError):
            sample_source_pqd(SpdcPair(0.3, 0.9), [0.0], gen, 10)

    def test_single_draw_shape(self):
        # One draw is one row with a column per port of the source.
        alpha = sample_source_pqd(SpdcPair(0.3, 0.9), [0.0, 0.0], RngStream(9).generator(), 1)
        assert alpha.shape == (1, 2)


#: The one-radius draw's checks: 2 orderings x (KS, 2 moments, 2 phase
#: components), family-wise 1e-6.
ONE_RADIUS_CHECKS = 10
ONE_RADIUS_Z = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * ONE_RADIUS_CHECKS))


class TestOneRadiusSinglePhotonDraw:
    """The one-photon mixture's draw: |alpha|^2 = (1 - t)/2 (E1 + [u < w1] E2)
    with a uniform phase, checked against the PQD formula."""

    EXAMPLE = MixedSinglePhoton(0.6, 0.7)  # eta_bar = 0.42, t_bar = 0.16
    DRAWS = 2_000_000

    @pytest.fixture(scope="class", params=[0.16, -0.5], ids=["t_bar", "t_below"])
    def drawn(self, request):
        t = request.param
        return t, sample_source_pqd(self.EXAMPLE, [t], RngStream(31).generator(), self.DRAWS)[:, 0]

    def test_radial_cdf_is_the_mixture_of_exp_and_gamma2(self, drawn):
        # x = 2|alpha|^2/(1-t) has CDF 1 - e^-x (1 + w1 x); the DKW bound
        # P(D > d) <= 2 exp(-2 n d^2) gives the KS limit.
        t, alpha = drawn
        w1 = 2.0 * self.EXAMPLE.eta_bar / (1.0 - t)
        x = np.sort(2.0 * np.abs(alpha) ** 2 / (1.0 - t))
        cdf = 1.0 - np.exp(-x) * (1.0 + w1 * x)
        n = len(x)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks <= math.sqrt(math.log(2 * ONE_RADIUS_CHECKS / 1e-6) / (2 * n))

    @pytest.mark.parametrize("power", [1, 2])
    def test_radial_moments_match_quadrature(self, drawn, power):
        t, alpha = drawn
        mean = radial_moment(self.EXAMPLE.eta_bar, t, power)
        spread = math.sqrt(radial_moment(self.EXAMPLE.eta_bar, t, 2 * power) - mean**2)
        observed = np.mean(np.abs(alpha) ** (2 * power))
        assert abs(observed - mean) <= ONE_RADIUS_Z * spread / math.sqrt(len(alpha))

    def test_phase_is_uniform(self, drawn):
        # E e^{i phi} = 0 and each of its components has variance 1/2.
        _, alpha = drawn
        unit = alpha / np.abs(alpha)
        limit = ONE_RADIUS_Z * math.sqrt(0.5 / len(alpha))
        assert abs(unit.real.mean()) <= limit and abs(unit.imag.mean()) <= limit

    def test_no_photon_at_t_one_is_a_point_mass_that_draws_nothing(self):
        gen = RngStream(32).generator()
        for source in (MixedSinglePhoton(0.7, 0.0), MixedSinglePhoton(0.0, 0.4)):
            assert source.t_bar == 1.0
            alpha = sample_source_pqd(source, [1.0], gen, 1000)
            assert alpha.shape == (1000, 1) and not np.any(alpha)
        assert np.array_equal(gen.random(8), RngStream(32).generator().random(8))


class TestGaussianPqdKernel:
    """One draw for a source block and for route 1's output state."""

    @staticmethod
    def blocks():
        gen = RngStream(600).generator()
        for _ in range(4):
            pair = SpdcPair(gen.uniform(0.05, 1.5), gen.uniform(0.0, 1.0))
            _, cov = pair.wigner_moments()
            for t in (pair.t_bar, pair.t_bar - gen.uniform(0.0, 2.0)):
                yield gen.normal(size=4), cov, np.full(2, t)

    @pytest.mark.parametrize("n", [1, 7, 16384])
    def test_bytes_match_the_two_inline_draws_it_replaces(self, n):
        for k, (mean, cov, t) in enumerate(self.blocks()):
            a = psd_factor_real(cov - np.diag(np.repeat(t, 2)))
            # The source-block draw: quadratures first, then halved to amplitudes.
            z = mean + RngStream(k).generator().standard_normal((n, 4)) @ a
            block = (z[:, 0::2] + 1j * z[:, 1::2]) / 2.0
            # Route 1's draw: halving folded into the moments.
            quad = RngStream(k).generator().standard_normal((n, 4)) @ (a / 2.0)
            quad += mean / 2.0
            route1 = quad.view(complex)
            kernel = sample_gaussian_pqd(gaussian_pqd_factor(mean, cov, t),
                                         RngStream(k).generator(), n)
            assert kernel.shape == (n, 2)
            assert kernel.tobytes() == block.tobytes() == route1.tobytes(), k

    def test_factor_leaves_its_input_alone_and_refuses_negative_pqds(self):
        mean, cov = SpdcPair(0.4, 0.8).wigner_moments()
        before = cov.copy()
        half_mean, half_factor = gaussian_pqd_factor(mean, cov, np.zeros(2))
        assert np.array_equal(cov, before) and np.array_equal(half_mean, mean / 2.0)
        assert np.allclose(4.0 * half_factor.T @ half_factor, cov, atol=1e-12)
        with pytest.raises(NotPsdError):
            gaussian_pqd_factor(mean, cov, np.full(2, SpdcPair(0.4, 0.8).t_bar + 1e-3))
