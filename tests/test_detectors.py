import math

import numpy as np
import pytest
from scipy import integrate

from pqsim import DetectorModel, RngStream
from pqsim.errors import (
    DegenerateDetectorError,
    NegativityError,
    SingularOrderingError,
)
from pqsim.detectors import (
    click_coefficients,
    pqd_off,
    pqd_on,
    s_bar,
    sample_clicks,
)


class FixedCoins:
    """Stands in for a Generator whose uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, out):
        out[...] = self.u
        return out


def clicks_for(beta, s, dets, gen, size):
    """Both halves of the click stage on ``size`` copies of one beta."""
    batch = np.tile(np.asarray(beta, dtype=complex), (size, 1))
    return sample_clicks(batch, click_coefficients(s, dets), gen)


class TestOutcomePqds:
    def test_ideal_detector_off_at_origin(self):
        assert pqd_off(0.0, 1.0, DetectorModel(1.0, 0.0)) == pytest.approx(1.0 / math.pi)

    def test_certain_random_count_kills_off_element(self):
        # At every ordering, including s_bar, where the denominator is 0
        # up to roundoff, and below it, where the formula is singular.
        for eta in [0.3, 0.6, 0.9, 0.95, 1.0]:
            det = DetectorModel(eta, 1.0)
            for s in [1.0, s_bar(det), s_bar(det) - 0.5]:
                for beta in [0.0, 0.5, 2.0 + 1.0j]:
                    assert pqd_off(beta, s, det) == 0.0

    def test_p_side_of_ideal_detector_is_singular(self):
        # At s = -1 the off element of a perfect detector is a vacuum
        # projector viewed in normal order: no proper density exists.
        with pytest.raises(SingularOrderingError):
            pqd_off(0.0, -1.0, DetectorModel(1.0, 0.0))

    def test_on_vanishes_at_origin_for_ideal_detector(self):
        assert pqd_on(0.0, 1.0, DetectorModel(1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_on_saturates_for_bright_light(self):
        det = DetectorModel(0.9, 0.0)
        assert pqd_on(100.0, 1.0, det) == pytest.approx(1.0 / math.pi)

    def test_on_at_origin_equals_random_count_rate(self):
        det = DetectorModel(0.95, 0.05)
        assert math.pi * pqd_on(0.0, 1.0, det) == pytest.approx(0.05)

    def test_completeness_is_the_defining_identity(self):
        for eta in [0.3, 0.95, 1.0]:
            for p_d in [0.0, 0.05, 0.5]:
                for s in [1.0, 0.4, -0.2]:
                    for beta in [0.0, 0.7, 2.0 - 1.0j]:
                        det = DetectorModel(eta, p_d)
                        off = pqd_off(beta, s, det)
                        assert pqd_on(beta, s, det) == 1.0 / math.pi - off
                        total = math.pi * (off + pqd_on(beta, s, det))
                        assert total == pytest.approx(1.0, abs=4e-16)

    def test_born_rule_at_normal_ordering(self):
        det = DetectorModel(0.8, 0.07)
        for amp_sq in [0.0, 0.4, 2.5]:
            click = math.pi * pqd_on(math.sqrt(amp_sq), 1.0, det)
            assert click == pytest.approx(1.0 - (1.0 - 0.07) * math.exp(-0.8 * amp_sq),
                                          abs=1e-12)

    def test_click_probability_monotonicity(self):
        base = math.pi * pqd_on(0.5, 0.8, DetectorModel(0.8, 0.05))
        assert math.pi * pqd_on(0.9, 0.8, DetectorModel(0.8, 0.05)) > base
        assert math.pi * pqd_on(0.5, 0.8, DetectorModel(0.8, 0.10)) > base
        assert math.pi * pqd_on(0.5, 0.8, DetectorModel(0.9, 0.05)) > base

    def test_off_integral_equals_povm_trace(self):
        # integral of the off-element PQD is (1 - p_d)/eta_d at any ordering.
        for eta, p_d, s in [(0.95, 0.05, 1.0), (0.8, 0.1, 0.5), (1.0, 0.0, 1.0)]:
            det = DetectorModel(eta, p_d)
            total, _ = integrate.quad(
                lambda u: math.pi * pqd_off(math.sqrt(u), s, det), 0.0, 60.0
            )
            assert total == pytest.approx((1.0 - p_d) / eta, abs=1e-6)


class TestSBar:
    def test_no_random_counts(self):
        assert s_bar(DetectorModel(0.95, 0.0)) == 1.0

    def test_paper_scale_example(self):
        assert s_bar(DetectorModel(0.95, 0.044)) == pytest.approx(0.90737, abs=1e-5)

    def test_always_admissible_limit(self):
        assert s_bar(DetectorModel(1.0, 1.0)) == pytest.approx(-1.0)

    def test_dead_detector_rejected(self):
        with pytest.raises(DegenerateDetectorError):
            s_bar(DetectorModel(0.0, 0.1))

    @pytest.mark.parametrize("eta,p_d", [(0.9, 0.05), (0.7, 0.2), (1.0, 0.5)])
    def test_nonnegativity_boundary(self, eta, p_d):
        det = DetectorModel(eta, p_d)
        bound = s_bar(det)
        grid = np.sqrt(np.linspace(0.0, 10.0, 500))
        assert min(pqd_on(b, bound + 0.01, det) for b in grid) >= 0.0
        assert min(pqd_on(b, bound - 0.01, det) for b in grid) < 0.0


class TestSampleOutcome:
    def test_vacuum_ideal_detectors_never_click(self):
        bits = clicks_for(np.zeros(3), np.ones(3), [DetectorModel(1.0, 0.0)] * 3,
                          RngStream(1).generator(), size=1000)
        assert not bits.any()

    def test_bright_light_always_clicks(self):
        beta = np.full(2, 10.0 + 0.0j)
        bits = clicks_for(beta, np.ones(2), [DetectorModel(0.95, 0.0)] * 2,
                          RngStream(2).generator(), size=1000)
        assert bits.all()

    def test_dark_count_rate_binomial(self):
        draws = 100_000
        det = DetectorModel(0.95, 0.05)
        bits = clicks_for(np.zeros(1), np.ones(1), [det], RngStream(3).generator(),
                          size=draws)
        rate = bits.mean()
        se = math.sqrt(0.05 * 0.95 / draws)
        assert abs(rate - 0.05) <= 5 * se
        # A supplied work array and an allocated one give the same bits.
        beta = RngStream(4).generator().normal(size=(500, 6)).view(complex)
        coefficients = click_coefficients(np.ones(3), [det, DetectorModel(0.5, 0.2),
                                                       DetectorModel(0.9, 0.0)])
        omitted = sample_clicks(beta.copy(), coefficients, RngStream(3).generator())
        supplied = sample_clicks(beta.copy(), coefficients, RngStream(3).generator(),
                                 work=np.empty(beta.size))
        assert np.array_equal(omitted, supplied) and 0 < omitted.mean() < 1

    def test_below_bound_is_rejected_naming_mode(self):
        dets = [DetectorModel(0.9, 0.5), DetectorModel(0.9, 0.0)]
        with pytest.raises(NegativityError, match="mode 1"):
            click_coefficients(np.array([0.0, 0.9]), dets)

    def test_singular_ordering_within_tolerance_is_rejected(self):
        det = DetectorModel(1.0, 1.0 - 1e-14)
        with pytest.raises(SingularOrderingError, match="mode 0"):
            click_coefficients([s_bar(det) - 5e-13], [det])

    def test_click_probabilities_match_pqd_on(self):
        # The coin is u < p: coins just below and just above pi * W_on pin
        # the kernel's p to 1e-12 relative, at s_bar and at a larger s.
        dets = [DetectorModel(0.8, 0.1), DetectorModel(0.9, 0.4)]
        beta = np.array([0.3 + 0.2j, 1.5])
        for s in (np.array([s_bar(d) for d in dets]), np.array([0.9, 0.5])):
            expected = np.array([math.pi * pqd_on(beta[k], s[k], dets[k]) for k in range(2)])
            coefficients = click_coefficients(s, dets)
            below = sample_clicks(beta[None].copy(), coefficients,
                                  FixedCoins(expected * (1 - 1e-12)))
            above = sample_clicks(beta[None].copy(), coefficients,
                                  FixedCoins(expected * (1 + 1e-12)))
            assert below.all() and not above.any()

    def test_coefficients_are_pqd_on(self):
        # One formula: pi * W_on(beta) = 1 - keep * exp(decay |beta|^2) at
        # every ordering from s_bar up, p_d = 0 and p_d = 1 included.
        betas = [0.0, 0.3 + 0.2j, -1.1j, 2.5]
        for eta in (0.3, 0.9, 1.0):
            for p_d in (0.0, 0.05, 0.5, 1.0):
                det = DetectorModel(eta, p_d)
                for s in (s_bar(det), (1.0 + s_bar(det)) / 2.0, 1.0):
                    (decay,), (keep,) = click_coefficients([s], [det])
                    for beta in betas:
                        direct = 1.0 - keep * math.exp(decay * abs(beta) ** 2)
                        assert math.pi * pqd_on(beta, s, det) == pytest.approx(
                            direct, rel=1e-12, abs=1e-15), (eta, p_d, s, beta)

    @pytest.mark.parametrize("eta", [0.3, 0.9, 0.95, 1.0])
    def test_certain_random_count_always_clicks_at_its_bound(self, eta):
        # The no-click denominator is 0 at s_bar up to roundoff; the mode
        # must click with probability exactly 1 anyway.
        det = DetectorModel(eta, 1.0)
        gen = RngStream(5).generator()
        beta = gen.normal(size=(1000, 2)) + 1j * gen.normal(size=(1000, 2))
        bits = sample_clicks(beta, click_coefficients([s_bar(det)] * 2, [det] * 2),
                             FixedCoins(np.nextafter(1.0, 0.0)))
        assert bits.all()

    def test_dead_detector_clicks_at_its_random_count_rate(self):
        det = DetectorModel(0.0, 0.2)
        decay, keep = click_coefficients([-1.0], [det])
        assert decay[0] == 0.0 and keep[0] == pytest.approx(0.8)
