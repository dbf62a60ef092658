import math

import numpy as np
import pytest

from pqsim import DetectorModel, RngStream
from pqsim.errors import UndefinedOperatingPointError
from pqsim.experiment import (
    SCHEME_SPDC,
    ExperimentConfig,
    PortSource,
)
from pqsim.linalg import PSD_TOL, haar_unitary
from pqsim.presets import ScenarioParams, single_photon_config, spdc_config, threshold_row
from pqsim.processes import sigma_matrix, uniform_loss_eta
from pqsim.simulability import (
    check_second_condition,
    mode_mismatch_pd,
    plan_photon_number,
    s_bar_vector,
    t_bar_vector,
    threshold_single_photon,
    threshold_spdc,
)
from pqsim.states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

from conftest import dead_detector_beamsplitter, random_mixed_config

PARAMS = ScenarioParams()  # mu=0.5, eta_b=0.1, eta0=0.98, ell=2, eta_d=0.95


def eta_l(modes: int) -> float:
    return uniform_loss_eta(PARAMS.eta0, PARAMS.ell, modes)


class TestCheckSecondCondition:
    def test_classical_inputs_are_always_simulatable(self):
        for seed in range(5):
            transfer = 0.9 * haar_unitary(3, RngStream(seed))
            config = ExperimentConfig(
                modes=3,
                sources=(PortSource(Coherent(1.0), (0,)),
                         PortSource(Thermal(0.5), (1,)),
                         PortSource(Vacuum(), (2,))),
                transfer=transfer,
                detectors=(DetectorModel(0.9, 0.01),) * 3,
            )
            assert check_second_condition(config).simulatable

    @pytest.mark.parametrize("trial", range(20))
    def test_lossless_network_reduces_to_scalar_rule(self, trial):
        # With a unitary network, identical sources, and identical detectors
        # the matrix test collapses to s_bar <= t_bar.
        gen = RngStream(1000 + trial).generator()
        unitary = haar_unitary(3, RngStream(2000 + trial))
        mu, eta_b = gen.uniform(0.1, 1.0), gen.uniform(0.1, 1.0)
        eta_d, p_d = gen.uniform(0.5, 1.0), gen.uniform(0.0, 0.3)
        config = ExperimentConfig(
            modes=3,
            sources=tuple(PortSource(MixedSinglePhoton(mu, eta_b), (k,)) for k in range(3)),
            transfer=unitary,
            detectors=(DetectorModel(eta_d, p_d),) * 3,
        )
        report = check_second_condition(config)
        scalar_rule = (1.0 - 2.0 * p_d / eta_d) <= (1.0 - 2.0 * mu * eta_b) + 1e-10
        assert report.simulatable == scalar_rule

    def test_single_photon_scalar_rule_with_one_photon(self):
        # Lossless network with one photon: simulatable iff p_d >= mu eta_b eta_d.
        unitary = haar_unitary(3, RngStream(77))
        mu, eta_b, eta_d = 0.8, 0.5, 0.9

        def build(p_d):
            return ExperimentConfig(
                modes=3,
                sources=(PortSource(MixedSinglePhoton(mu, eta_b), (0,)),
                         PortSource(Vacuum(), (1,)), PortSource(Vacuum(), (2,))),
                transfer=unitary,
                detectors=(DetectorModel(eta_d, p_d),) * 3,
            )

        critical = mu * eta_b * eta_d
        assert not check_second_condition(build(critical - 1e-4)).simulatable
        assert check_second_condition(build(critical + 1e-4)).simulatable

    def test_paper_scale_network_crosses_at_its_threshold(self):
        threshold = threshold_single_photon(PARAMS.mu, PARAMS.eta_b, eta_l(10), PARAMS.eta_d)
        assert threshold == pytest.approx(0.044, abs=5e-4)
        below = single_photon_config(10, 10, threshold - 1e-3, PARAMS)
        above = single_photon_config(10, 10, threshold + 1e-3, PARAMS)
        assert not check_second_condition(below).simulatable
        assert check_second_condition(above).simulatable

    def test_report_threshold_matches_closed_form(self):
        config = single_photon_config(6, 3, 0.08, PARAMS)
        report = check_second_condition(config)
        closed = threshold_single_photon(PARAMS.mu, PARAMS.eta_b, eta_l(6), PARAMS.eta_d)
        assert report.threshold_p_d == pytest.approx(closed, abs=1e-12)
        assert report.margin == pytest.approx(0.08 - closed, abs=1e-12)

    def test_threshold_crossing_is_single_flip(self):
        config_at = lambda p: single_photon_config(5, 2, p, PARAMS)
        low, high = 0.0, 0.2
        assert not check_second_condition(config_at(low)).simulatable
        assert check_second_condition(config_at(high)).simulatable
        for _ in range(60):
            mid = 0.5 * (low + high)
            if check_second_condition(config_at(mid)).simulatable:
                high = mid
            else:
                low = mid
        closed = threshold_single_photon(PARAMS.mu, PARAMS.eta_b, eta_l(5), PARAMS.eta_d)
        assert abs(high - closed) <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_threshold_equals_dense_formula(self, seed):
        # lambda_max of the |S| x |S| matrix B B^dag against the M x M
        # L^dag (I - diag(t_bar)) L over all rows.
        modes = (3, 8, 16, 33, 50, 64)[seed]
        mixed = random_mixed_config(400 + seed, modes)
        config = ExperimentConfig(modes=modes, sources=mixed.sources,
                                  transfer=mixed.transfer,
                                  detectors=(DetectorModel(0.8, 0.3),) * modes)
        tbar = t_bar_vector(config)
        needed = config.transfer.conj().T @ ((1.0 - tbar)[:, None] * config.transfer)
        lam_max = np.linalg.eigvalsh((needed + needed.conj().T) / 2.0)[-1]
        report = check_second_condition(config)
        assert abs(report.threshold_p_d - 0.8 * lam_max / 2.0) <= 1e-12

    def test_working_orderings_emitted_only_when_simulatable(self):
        good = check_second_condition(single_photon_config(4, 2, 0.1, PARAMS))
        assert good.simulatable
        bad = check_second_condition(single_photon_config(4, 2, 0.001, PARAMS))
        assert not bad.simulatable

    def test_ordering_vectors(self):
        config = spdc_config(2, 0.5, 0.1, PARAMS)
        tbar = t_bar_vector(config)
        sbar = s_bar_vector(config)
        pair_bound = config.sources[0].source.t_bar
        assert np.allclose(tbar, pair_bound)
        assert np.allclose(sbar, 1.0 - 2.0 * 0.1 / PARAMS.eta_d)

    def test_dead_detector_is_classical_measurement(self):
        config = ExperimentConfig(
            modes=2,
            sources=(PortSource(MixedSinglePhoton(1.0, 1.0), (0,)),
                     PortSource(Vacuum(), (1,))),
            transfer=haar_unitary(2, RngStream(4)),
            detectors=(DetectorModel(0.0, 0.0),) * 2,
        )
        report = check_second_condition(config)
        assert report.simulatable
        assert np.allclose(report.s_bar, -1.0)


class TestDeadDetectors:
    """A dead detector's bound is s -> -infinity, so its column leaves
    Sigma_bar; s_bar = -1 stays in the report."""

    def test_dead_column_is_dropped_from_the_verdict(self):
        config = dead_detector_beamsplitter(0.5)
        report = check_second_condition(config)
        assert report.simulatable
        assert report.noise_ratio == pytest.approx(1.0)
        assert np.array_equal(report.s_bar, [0.0, -1.0])
        # With the dead column kept at s_bar = -1 (D = 2), kappa was 1.5.
        sigma = sigma_matrix(config.transfer, report.s_bar, report.t_bar)
        assert np.linalg.eigvalsh(sigma)[0] < -0.1
        assert sigma[0, 0].real >= -PSD_TOL

    @pytest.mark.parametrize("p_d", [0.3, 0.49])
    def test_the_live_detector_still_decides(self, p_d):
        report = check_second_condition(dead_detector_beamsplitter(p_d))
        assert not report.simulatable
        assert report.noise_ratio == pytest.approx(0.5 / p_d)


def verdict_case(seed: int) -> ExperimentConfig:
    """A random config for the verdict-equivalence test.

    Built like ``random_mixed_config`` with each p_d scaled by
    uniform(0.3, 1.3), so both verdicts occur; ``seed % 8`` selects a
    variant: unlit p_d = 0 modes, lit p_d = 0 modes, dead detectors,
    p_d = 1 modes, all-classical inputs (|S| = 0), all non-classical inputs
    (|S| = M), identical detectors, or none of these.
    """
    gen = RngStream(7000 + seed).generator()
    variant = seed % 8
    modes = int(gen.integers(1, 9))
    mixed = random_mixed_config(seed, modes,
                                dark_modes=int(gen.integers(1, modes + 1)) if variant == 0 else 0,
                                dead_modes=int(gen.integers(1, modes + 1)) if variant == 2 else 0)
    sources, transfer = mixed.sources, mixed.transfer
    if variant == 4:
        kinds = (Vacuum(), Coherent(0.4 - 0.2j), Thermal(0.3))
        sources = tuple(PortSource(kinds[int(gen.integers(3))], (k,)) for k in range(modes))
    elif variant == 5:
        sources = tuple(PortSource(MixedSinglePhoton(gen.uniform(0.1, 1.0), gen.uniform(0.1, 1.0)),
                                   (k,)) for k in range(modes))
    detectors = [DetectorModel(d.eta_d, min(1.0, d.p_d * gen.uniform(0.3, 1.3)))
                 for d in mixed.detectors]
    special = int(gen.integers(modes))
    if variant == 1:
        detectors[special] = DetectorModel(detectors[special].eta_d, 0.0)
    elif variant == 3:
        detectors[special] = DetectorModel(gen.uniform(0.3, 1.0), 1.0)
    elif variant == 6:
        detectors = [DetectorModel(0.8, 0.0)] * modes
    config = ExperimentConfig(modes=modes, sources=sources, transfer=transfer,
                              detectors=tuple(detectors))
    if variant == 6:
        # p_d around the exact threshold (eta_d / 2) lambda_max(L^dag (I - t_bar) L).
        tbar = t_bar_vector(config)
        needed = transfer.conj().T @ ((1.0 - tbar)[:, None] * transfer)
        lam_max = max(np.linalg.eigvalsh((needed + needed.conj().T) / 2.0)[-1], 0.0)
        p_d = min(1.0, 0.8 * lam_max * gen.uniform(0.3, 1.3) / 2.0)
        config = ExperimentConfig(modes=modes, sources=sources, transfer=transfer,
                                  detectors=(DetectorModel(0.8, p_d),) * modes)
    return config


class TestVerdictEquivalence:
    """The |S| x |S| verdict kappa <= 1 against the dense test
    lambda_min(Sigma_bar) >= -PSD_TOL on the live modes' principal
    submatrix (dead detectors dropped), which lives only here."""

    def test_matches_dense_eigenvalue_test(self):
        verdicts = {True: 0, False: 0}
        identical = 0
        for seed in range(240):
            config = verdict_case(seed)
            report = check_second_condition(config)
            sigma = sigma_matrix(config.transfer, s_bar_vector(config), t_bar_vector(config))
            live = np.flatnonzero([det.eta_d > 0.0 for det in config.detectors])
            sigma = sigma[np.ix_(live, live)]
            lam_min = np.linalg.eigvalsh(sigma)[0] if live.size else 0.0
            assert report.simulatable == (report.noise_ratio <= 1.0), seed
            if abs(lam_min + PSD_TOL) > 1e-12:
                assert report.simulatable == (lam_min >= -PSD_TOL), (seed, lam_min)
                verdicts[report.simulatable] += 1
            if not math.isnan(report.margin) and not -PSD_TOL - 1e-12 <= lam_min <= 1e-12:
                assert (report.noise_ratio <= 1.0) == (report.margin >= 0.0), (seed, lam_min)
                identical += 1
        assert min(verdicts.values()) >= 40, verdicts
        assert identical >= 25, identical

    def test_edge_cases_occur(self):
        seen = set()
        for seed in range(240):
            config = verdict_case(seed)
            tbar = t_bar_vector(config)
            lit = np.any(config.transfer != 0.0, axis=0)
            for k, det in enumerate(config.detectors):
                if det.eta_d > 0.0 and det.p_d == 0.0:
                    seen.add("p_d = 0, lit" if lit[k] else "p_d = 0, unlit")
                seen.add("dead" if det.eta_d == 0.0 else "p_d = 1" if det.p_d == 1.0 else "")
            seen.add("|S| = 0" if np.all(tbar == 1.0) else "|S| = M" if np.all(tbar < 1.0) else "")
        assert {"p_d = 0, lit", "p_d = 0, unlit", "dead", "p_d = 1",
                "|S| = 0", "|S| = M"} <= seen

    def test_no_nonclassical_port_gives_zero_ratio(self):
        config = verdict_case(4)
        assert np.all(t_bar_vector(config) == 1.0)
        report = check_second_condition(config)
        assert report.noise_ratio == 0.0 and report.simulatable


class TestClosedFormThresholds:
    def test_single_photon_paper_values(self):
        for modes, expected in [(10, 0.044), (100, 0.042), (1600, 0.038)]:
            value = threshold_single_photon(PARAMS.mu, PARAMS.eta_b, eta_l(modes), PARAMS.eta_d)
            assert round(value, 3) == pytest.approx(expected, abs=1e-3)

    def test_zero_factor_means_always_simulatable(self):
        assert threshold_single_photon(0.0, 0.5, 0.9, 0.9) == 0.0
        assert threshold_single_photon(0.5, 0.5, 0.9, 0.0) == 0.0

    def test_mismatch_paper_values(self):
        cases = [
            (10, 10, 0.046),
            (100, 100, 0.049),
            (1600, 1044, 0.034),
        ]
        for modes, n_photons, printed in cases:
            value = mode_mismatch_pd(
                PARAMS.mu, PARAMS.eta_b, eta_l(modes), PARAMS.eta_d,
                PARAMS.f_b, PARAMS.f_l, n_photons, modes,
            )
            assert abs(round(value, 3) - printed) <= 1e-3 + 1e-12

    def test_mismatch_vanishes_without_leakage(self):
        assert mode_mismatch_pd(0.5, 0.1, 0.9, 0.95, 0.0, 0.0, 10, 10) == 0.0

    def test_spdc_paper_values(self):
        cases = [(10, 1.0, 0.076), (100, 1.0, 0.071), (1600, 0.326, 0.060)]
        for modes, sinh2, expected in cases:
            sinh2_r = threshold_row(SCHEME_SPDC, modes, PARAMS).sinh2_r
            r = math.asinh(math.sqrt(sinh2_r))
            value = threshold_spdc(r, PARAMS.eta_b, eta_l(modes), PARAMS.eta_d)
            assert sinh2_r == pytest.approx(sinh2, abs=5e-3)
            assert round(value, 3) == pytest.approx(expected, abs=1e-3)

    def test_spdc_threshold_vanishes_at_zero_squeezing(self):
        assert threshold_spdc(0.0, 0.1, 0.9, 0.95) == pytest.approx(0.0, abs=1e-15)

    def test_spdc_threshold_equals_ordering_gap(self):
        for r in np.linspace(0.05, 2.0, 10):
            for eta_bl in np.linspace(0.05, 1.0, 10):
                closed = threshold_spdc(r, eta_bl, 1.0, 0.95)
                gap = 0.95 * (1.0 - SpdcPair(r, eta_bl).t_bar) / 2.0
                assert abs(closed - gap) <= 1e-12


class TestPlanPhotonNumber:
    def test_paper_single_photon_plans(self):
        _, n_photons = plan_photon_number(
            1600, PARAMS.mu * PARAMS.eta_b * eta_l(1600) * PARAMS.eta_d)
        assert n_photons == 1044
        _, small = plan_photon_number(10, PARAMS.mu * PARAMS.eta_b * eta_l(10) * PARAMS.eta_d)
        assert small == 10  # photon budget capped at the mode count

    def test_paper_spdc_plan(self):
        sqrt_m_over_eta, n_photons = plan_photon_number(
            100, PARAMS.eta_d * eta_l(100) * PARAMS.eta_b)
        assert round(sqrt_m_over_eta) == 120
        assert n_photons == 100
        assert threshold_row(SCHEME_SPDC, 100, PARAMS).sinh2_r == 1.0

    def test_unit_transmissivity(self):
        assert plan_photon_number(4, 1.0)[1] == 2

    def test_zero_transmissivity_rejected(self):
        with pytest.raises(UndefinedOperatingPointError):
            plan_photon_number(4, 0.0)

    def test_rule_of_thumb_regression(self):
        # Counted mismatched photons vs mode-matched photons at threshold:
        # M * p_d(threshold) and N * eta agree within a factor of two.
        for modes in [10, 100, 1600]:
            eta = PARAMS.mu * PARAMS.eta_b * eta_l(modes) * PARAMS.eta_d
            _, n_photons = plan_photon_number(modes, eta)
            lhs = modes * threshold_single_photon(PARAMS.mu, PARAMS.eta_b,
                                                  eta_l(modes), PARAMS.eta_d)
            rhs = n_photons * eta
            assert 0.5 <= lhs / rhs <= 2.0
