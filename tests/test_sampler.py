import math
from collections import Counter
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import chi2

from pqsim import DetectorModel, RngStream
from pqsim.errors import SimulabilityError, UnsupportedSourceError
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary
from pqsim.oracle import ProbabilityTable, all_bitstrings, exact_distribution, tv_distance
from pqsim.presets import spdc_config, single_photon_config
from pqsim.sampler import (
    SampleBatch,
    _histogram,
    default_route,
    empirical_stats,
    output_gaussian,
    run_condition1,
    run_condition2,
    run_experiment,
)
from pqsim.simulability import check_second_condition, dead_modes, s_bar_vector
from pqsim.states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

from conftest import (
    dead_detector_beamsplitter,
    oracle_suite,
    photon_click_table,
    route1_dead_detector_config,
    single_photon_click_marginals,
    spdc_and_photon_config,
    spdc_click_table,
    spdc_lossy_network_config,
    spdc_total_click_variance,
)


def old_bitstrings(outcomes):
    return ["".join("1" if b else "0" for b in row) for row in outcomes]


def old_csv_bytes(outcomes):
    body = np.hstack([outcomes + ord("0"), np.full((len(outcomes), 1), ord("\n"), dtype=np.uint8)])
    return body.astype(np.uint8).tobytes()


def old_jsonl_bytes(outcomes):
    return b"".join(b'{"n":"' + row.tobytes() + b'"}\n' for row in (outcomes + ord("0")))


def coherent_config(p_d=0.0, eta_d=1.0, seed=31):
    unitary = haar_unitary(3, RngStream(seed))
    amps = np.array([0.9, 0.4j, 0.0])
    sources = tuple(PortSource(Coherent(a), (k,)) for k, a in enumerate(amps))
    return ExperimentConfig(
        modes=3,
        sources=sources,
        transfer=unitary,
        detectors=(DetectorModel(eta_d, p_d),) * 3,
    ), amps @ unitary


def exact_sampler_tv(probs, draws: int) -> float:
    """Expected TV distance between ``draws`` exact samples and ``probs``:
    each frequency is normal with variance p (1 - p) / draws, so its
    expected absolute deviation is sqrt(2 p (1 - p) / (pi draws))."""
    probs = np.asarray(probs)
    return 0.5 * float(np.sum(np.sqrt(2.0 * probs * (1.0 - probs) / (math.pi * draws))))


class TestRouteDecision:
    def test_sources_pick_the_route_not_the_scheme_label(self):
        spdc = spdc_config(2, 0.05, p_d=0.09)
        photon = single_photon_config(3, 1, p_d=0.06)
        assert default_route(spdc) == default_route(replace(spdc, scheme="single-photon")) == 1
        assert default_route(photon) == default_route(replace(photon, scheme="spdc")) == 2
        # Pairs with r = 0 are classical, and a photon is not Gaussian.
        assert default_route(spdc_config(2, 0.0, p_d=0.09)) == 2
        assert default_route(spdc_and_photon_config()) == 2

    def test_spdc_preset_route1_refuses_exactly_where_sigma_bar_fails(self):
        # Loss referred to the inputs and a unitary on the signals: the two
        # conditions coincide, on a grid and at 0.999 and 1.001 x threshold.
        threshold = check_second_condition(spdc_config(8, 0.05, p_d=0.05)).threshold_p_d
        assert threshold == pytest.approx(0.04417, abs=5e-6)
        verdicts = []
        for p_d in [*np.linspace(0.005, 0.06, 56), 0.999 * threshold, 1.001 * threshold]:
            config = spdc_config(8, 0.05, p_d=p_d)
            assert default_route(config) == 1
            try:
                run_experiment(config, 0, RngStream(0))
                refused = False
            except SimulabilityError:
                refused = True
            verdicts.append(refused)
            assert refused == (check_second_condition(config).noise_ratio > 1.0), p_d
        assert 0 < sum(verdicts) < len(verdicts)

    def test_route1_samples_a_lossy_network_that_fails_sigma_bar(self):
        config = spdc_lossy_network_config()
        assert not check_second_condition(config).simulatable
        assert default_route(config) == 1
        draws = 200_000
        probs = spdc_click_table(config)
        table = ProbabilityTable(all_bitstrings(config.modes), probs)
        tv = tv_distance(table, run_experiment(config, draws, RngStream(7)))
        assert tv <= 2.0 * exact_sampler_tv(table.probs, draws)

    def test_spdc_and_photon_sample_on_the_default_route(self):
        config = spdc_and_photon_config()
        table = exact_distribution(config, n_max=3)
        draws = 200_000
        tv = tv_distance(table, run_experiment(config, draws, RngStream(8)))
        assert tv <= 2.0 * exact_sampler_tv(table.probs, draws)


class TestCondition2:
    def test_coherent_click_rates_match_born_rule(self):
        draws = 200_000
        config, moved = coherent_config(p_d=0.0, eta_d=0.85)
        batch = run_condition2(config, draws, RngStream(1))
        stats = empirical_stats(batch)
        for k in range(3):
            expected = 1.0 - math.exp(-0.85 * abs(moved[k]) ** 2)
            se = math.sqrt(max(expected * (1 - expected), 1e-9) / draws)
            assert abs(stats.click_rate[k] - expected) <= 5 * se

    def test_vacuum_inputs_click_at_dark_rate(self):
        draws = 200_000
        config = ExperimentConfig(
            modes=2,
            sources=(PortSource(Vacuum(), (0,)), PortSource(Vacuum(), (1,))),
            transfer=np.eye(2, dtype=complex),
            detectors=(DetectorModel(0.9, 0.05),) * 2,
        )
        stats = empirical_stats(run_condition2(config, draws, RngStream(2)))
        se = math.sqrt(0.05 * 0.95 / draws)
        assert np.all(np.abs(stats.click_rate - 0.05) <= 5 * se)

    def test_refusal_below_threshold_attaches_report(self):
        config = single_photon_config(4, 2, p_d=0.001)
        with pytest.raises(SimulabilityError) as err:
            run_condition2(config, 10, RngStream(3))
        assert err.value.report is not None
        assert not err.value.report.simulatable

    def test_small_config_matches_oracle(self):
        name, config, n_max, _ = oracle_suite()[0]
        table = exact_distribution(config, n_max=n_max)
        batch = run_condition2(config, 200_000, RngStream(4))
        bound = max(0.01, 3 * math.sqrt(len(table.outcomes) / 200_000))
        assert tv_distance(table, batch) <= bound


class TestClickMarginals:
    # M = 8 has 2|S| > M, where the rank-|S| factor does more work than a
    # dense one would; it must stay exact there too.
    @pytest.mark.parametrize("modes,photons", [(8, 6), (256, 16), (1024, 32)])
    def test_click_rates_match_exact_marginals(self, modes, photons):
        draws = 16384
        config = single_photon_config(modes, photons, p_d=0.06)
        exact = single_photon_click_marginals(config)
        outcomes = run_condition2(config, draws, RngStream(40 + modes)).outcomes
        # Per mode, two-sided, Bonferroni-corrected at a family-wise 1e-6.
        z_max = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * modes))
        z = (outcomes.mean(axis=0) - exact) / np.sqrt(exact * (1.0 - exact) / draws)
        assert np.max(np.abs(z)) <= z_max
        # The photons add about N * threshold clicks per shot on top of
        # M * p_d: far below one mode's noise, well above the total's.
        totals = outcomes.sum(axis=1)
        z_total = (totals.mean() - exact.sum()) / (totals.std() / math.sqrt(draws))
        assert abs(z_total) <= NormalDist().inv_cdf(1.0 - 1e-6 / 2)


def _spdc_desk_configs():
    suite = [pytest.param(config, n_max, id=name)
             for name, config, n_max, _ in oracle_suite() if name.startswith("spdc")]
    return suite + [pytest.param(spdc_config(2, 0.01, p_d=0.06), 3, id="spdc_config_2")]


def _photon_desk_configs():
    return [pytest.param(config, n_max, id=name) for name, config, n_max, _ in oracle_suite()
            if all(isinstance(e.source, (MixedSinglePhoton, Vacuum)) for e in config.sources)]


class TestPhotonClickTable:
    @pytest.mark.parametrize("config, n_max", _photon_desk_configs())
    def test_reference_matches_the_oracle(self, config, n_max):
        # The M = 16 check below trusts this reference; pin it where the
        # oracle reaches.
        table = exact_distribution(config, n_max=n_max)
        assert np.max(np.abs(table.probs - photon_click_table(config))) <= 1e-12

    def test_route2_total_clicks_at_16_modes(self):
        # Beyond the oracle's 12 modes: the total-click histogram and its
        # variance, which holds every pairwise click covariance.
        draws = 10**6
        config = single_photon_config(16, 4, p_d=0.06)
        counts = [bits.count("1") for bits in all_bitstrings(16)]
        exact = np.bincount(counts, weights=photon_click_table(config))
        totals = run_experiment(config, draws, RngStream(1616), condition=2).outcomes.sum(
            axis=1, dtype=np.int64)
        observed = np.bincount(totals, minlength=exact.size)
        # Pool the tail from the first total expected fewer than 100 times.
        tail = int(np.argmax(draws * exact < 100))
        expected = np.r_[exact[:tail], exact[tail:].sum()] * draws
        observed = np.r_[observed[:tail], observed[tail:].sum()]
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert statistic <= chi2.isf(1e-6, expected.size - 1)

        clicks = np.arange(exact.size)
        mean = exact @ clicks
        var, fourth = exact @ (clicks - mean) ** 2, exact @ (clicks - mean) ** 4
        z = (totals.var(ddof=1) - var) / math.sqrt((fourth - var**2) / draws)
        assert abs(z) <= NormalDist().inv_cdf(1.0 - 1e-6 / 2)


class TestTotalClickVariance:
    @pytest.mark.parametrize("config, n_max", _spdc_desk_configs())
    def test_reference_matches_the_oracle(self, config, n_max):
        # The M = 256 check below trusts this reference; pin it where the
        # exact distribution is small enough to enumerate.
        table = exact_distribution(config, n_max=n_max)
        totals = np.array([bits.count("1") for bits in table.outcomes])
        exact = table.probs @ totals**2 - (table.probs @ totals) ** 2
        assert spdc_total_click_variance(config) == pytest.approx(exact, rel=0, abs=1e-7)

    # Var(total clicks) holds every pairwise click covariance: 0.84 of the
    # 20.28 at M = 256 comes from heralds and their signals.
    @pytest.mark.parametrize("condition", [1, 2])
    def test_matches_exact_variance_at_256_modes(self, condition):
        draws = 2 * 16384
        config = spdc_config(128, 0.05, p_d=0.06)
        exact = spdc_total_click_variance(config)
        outcomes = run_experiment(config, draws, RngStream(256), condition=condition).outcomes
        totals = outcomes.sum(axis=1, dtype=float)
        centred = totals - totals.mean()
        var = centred.var(ddof=1)
        se = math.sqrt((np.mean(centred**4) - var**2) / draws)
        assert abs(var - exact) / se <= NormalDist().inv_cdf(1.0 - 1e-6 / 2)


class TestCondition1:
    def test_non_gaussian_sources_are_rejected(self):
        config = single_photon_config(3, 1, p_d=0.06)
        with pytest.raises(UnsupportedSourceError):
            run_condition1(config, 10, RngStream(5))

    def test_spdc_below_threshold_refuses(self):
        config = spdc_config(10, 1.0, p_d=0.05)
        with pytest.raises(SimulabilityError):
            run_condition1(config, 10, RngStream(6))

    def test_spdc_above_threshold_heralds_correlate(self):
        pairs, draws = 10, 100_000
        config = spdc_config(pairs, 1.0, p_d=0.08)
        batch = run_condition1(config, draws, RngStream(7))
        source = config.sources[0].source
        det = config.detectors[0]
        # Herald k and signal output pairs + k, after the detectors' loss
        # eta_d: thermal marginals, correlated only through pair k's own
        # signal, which reaches output pairs + k with amplitude U_kk.
        ch, sh = math.cosh(2.0 * source.r), math.sinh(2.0 * source.r)
        herald_var = 1.0 + det.eta_d * (ch - 1.0)
        signal_var = 1.0 + det.eta_d * source.eta_bl * (ch - 1.0)
        z_max = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * pairs))
        for k in range(pairs):
            u = config.transfer[pairs + k, pairs + k]
            turn = np.array([[u.real, u.imag], [-u.imag, u.real]])
            cross = det.eta_d * math.sqrt(source.eta_bl) * sh * np.diag([1.0, -1.0]) @ turn
            cov = np.block([[herald_var * np.eye(2), cross],
                            [cross.T, signal_var * np.eye(2)]])
            dark = 1.0 - det.p_d
            p_none = dark**2 / math.sqrt(np.linalg.det((cov + np.eye(4)) / 2.0))
            p_herald_off = dark / ((herald_var + 1.0) / 2.0)
            p_signal_off = dark / ((signal_var + 1.0) / 2.0)
            # P(both) - P(h) P(s) = P(neither) - P(h off) P(s off) > 0.
            assert p_none > p_herald_off * p_signal_off
            off = batch.outcomes[:, [k, pairs + k]] == 0
            freq = off.all(axis=1).mean()
            assert abs(freq - p_none) <= z_max * math.sqrt(p_none * (1.0 - p_none) / draws)

    def test_agrees_with_condition2_on_gaussian_config(self):
        draws = 1_000_000
        config = ExperimentConfig(
            modes=2,
            sources=(PortSource(Coherent(0.7), (0,)), PortSource(Thermal(0.2), (1,))),
            transfer=np.sqrt(0.8) * haar_unitary(2, RngStream(8)),
            detectors=(DetectorModel(0.9, 0.03),) * 2,
        )
        one = run_condition1(config, draws, RngStream(9))
        two = run_condition2(config, draws, RngStream(10))
        counts1, counts2 = empirical_stats(one).histogram, empirical_stats(two).histogram
        freq1 = np.array([counts1.get(b, 0) for b in ("00", "01", "10", "11")]) / draws
        freq2 = np.array([counts2.get(b, 0) for b in ("00", "01", "10", "11")]) / draws
        assert 0.5 * np.abs(freq1 - freq2).sum() <= 0.01


def certain_count_configs(eta_d):
    """Route-1 and route-2 desk configs whose detector 0 has p_d = 1."""
    dets = (DetectorModel(eta_d, 1.0), DetectorModel(0.9, 0.3), DetectorModel(0.8, 0.4))
    transfer = np.sqrt(0.9) * haar_unitary(3, RngStream(70))
    gaussian = ExperimentConfig(
        modes=3,
        sources=(PortSource(Coherent(0.3), (0,)), PortSource(Thermal(0.05), (1,)),
                 PortSource(Vacuum(), (2,))),
        transfer=transfer, detectors=dets)
    photons = ExperimentConfig(
        modes=3,
        sources=(PortSource(MixedSinglePhoton(0.6, 0.5), (0,)),
                 PortSource(MixedSinglePhoton(0.6, 0.5), (1,)), PortSource(Vacuum(), (2,))),
        transfer=transfer, detectors=dets)
    return gaussian, photons


class TestCertainRandomCounts:
    # At s = s_bar the no-click denominator 1 - eta_d (1 - s_bar)/2 of a
    # p_d = 1 detector is 0 up to roundoff, of either sign.
    @pytest.mark.parametrize("eta_d", [0.3, 0.9, 0.95, 1.0])
    def test_every_shot_clicks_on_both_routes(self, eta_d):
        dets = (DetectorModel(eta_d, 1.0),) * 3
        gaussian, photons = certain_count_configs(eta_d)
        one = run_condition1(replace(gaussian, detectors=dets), 2000, RngStream(71))
        two = run_condition2(replace(photons, detectors=dets), 2000, RngStream(72))
        assert one.outcomes.all() and two.outcomes.all()

    @pytest.mark.parametrize("eta_d", [0.3, 0.95])
    def test_mixed_detectors_match_oracle(self, eta_d):
        draws = 200_000
        for route, config in zip((run_condition1, run_condition2), certain_count_configs(eta_d)):
            table = exact_distribution(config, n_max=4)
            batch = route(config, draws, RngStream(73))
            assert batch.outcomes[:, 0].all()
            bound = max(0.01, 3 * math.sqrt(len(table.outcomes) / draws))
            assert tv_distance(table, batch) <= bound


class TestDeadDetectors:
    def test_dead_detector_config_matches_oracle(self):
        # Refused while the dead mode's column stayed in Sigma_bar
        # (kappa = 1.21 at p_d = 0.7); its clicks are p_d coins.
        draws = 200_000
        config = dead_detector_beamsplitter(0.7)
        table = exact_distribution(config, n_max=1)
        batch = run_condition2(config, draws, RngStream(74))
        assert abs(batch.outcomes[:, 1].mean() - 0.7) <= 5 * math.sqrt(0.21 / draws)
        bound = max(0.01, 3 * math.sqrt(len(table.outcomes) / draws))
        assert tv_distance(table, batch) <= bound

    def test_route1_dead_detector_config_matches_oracle(self):
        # An SPDC pair on (0, 1), vacuum on 2 and 3, a Haar unitary on modes
        # 1-3 and a dead detector on mode 3.  Refused (eigenvalue -2.6e-2)
        # while the dead mode's row at s_bar = -1 stayed coupled to the
        # live modes, whose own block passes.
        config = route1_dead_detector_config(0.1174)
        _, cov = output_gaussian(config)
        live = np.repeat(~dead_modes(config), 2)
        floor = np.repeat(s_bar_vector(config), 2)
        assert np.linalg.eigvalsh(cov - np.diag(floor))[0] < -0.02
        assert np.linalg.eigvalsh((cov - np.diag(floor))[np.ix_(live, live)])[0] > 0.01
        draws = 200_000
        table = exact_distribution(config, n_max=6)
        batch = run_condition1(config, draws, RngStream(75))
        assert not batch.outcomes[:, 3].any()
        bound = max(0.01, 3 * math.sqrt(len(table.outcomes) / draws))
        assert tv_distance(table, batch) <= bound


class TestReproducibility:
    def test_same_seed_is_bitwise_identical(self):
        config = single_photon_config(4, 2, p_d=0.06)
        a = run_condition2(config, 30_000, RngStream(11))
        b = run_condition2(config, 30_000, RngStream(11))
        assert np.array_equal(a.outcomes, b.outcomes)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_worker_count_does_not_change_outcomes(self, workers):
        config = single_photon_config(4, 2, p_d=0.06)
        serial = run_condition2(config, 50_000, RngStream(12), workers=1)
        parallel = run_condition2(config, 50_000, RngStream(12), workers=workers)
        assert np.array_equal(serial.outcomes, parallel.outcomes)
        assert serial.to_csv_bytes() == parallel.to_csv_bytes()

    def test_different_seeds_differ(self):
        config = single_photon_config(4, 2, p_d=0.06)
        a = run_condition2(config, 10_000, RngStream(13))
        b = run_condition2(config, 10_000, RngStream(14))
        assert not np.array_equal(a.outcomes, b.outcomes)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_refused(self, workers):
        gaussian, photons = certain_count_configs(0.9)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_condition1(gaussian, 10, RngStream(18), workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_condition2(photons, 10, RngStream(18), workers=workers)

    def test_condition1_worker_independence(self):
        config = spdc_config(3, 0.2, p_d=0.09)
        serial = run_condition1(config, 40_000, RngStream(15), workers=1)
        parallel = run_condition1(config, 40_000, RngStream(15), workers=4)
        assert np.array_equal(serial.outcomes, parallel.outcomes)


class TestBatchAndStats:
    def test_histogram_is_consistent_with_outcomes(self):
        config = single_photon_config(3, 1, p_d=0.06)
        batch = run_condition2(config, 20_000, RngStream(16))
        histogram = empirical_stats(batch).histogram
        assert sum(histogram.values()) == len(batch)
        assert histogram == Counter(old_bitstrings(batch.outcomes))

    def test_empirical_stats_trivial_cases(self):
        batch = SampleBatch(np.zeros((1, 3), dtype=np.uint8), RngStream(0), "x",
                            {"000": 1})
        stats = empirical_stats(batch)
        assert np.array_equal(stats.click_rate, np.zeros(3))
        assert stats.mean_total_clicks == 0.0

        two = SampleBatch(np.array([[1, 0], [0, 1]], dtype=np.uint8), RngStream(0),
                          "x", {"10": 1, "01": 1})
        stats = empirical_stats(two)
        assert np.array_equal(stats.click_rate, [0.5, 0.5])
        assert stats.mean_total_clicks == 1.0
        assert stats.histogram == {"01": 1, "10": 1}

    def test_empirical_stats_ignores_supplied_counts(self):
        # The histogram describes the outcomes, whatever ``counts`` says.
        batch = SampleBatch(np.zeros((1, 3), dtype=np.uint8), RngStream(0), "x",
                            {"111": 9})
        assert empirical_stats(batch).histogram == {"000": 1}

    def test_empty_batch_rejected(self):
        empty = SampleBatch(np.zeros((0, 2), dtype=np.uint8), RngStream(0), "x", {})
        with pytest.raises(ValueError):
            empirical_stats(empty)

    def test_vacuum_dark_count_total_clicks(self):
        draws = 200_000
        config = ExperimentConfig(
            modes=3,
            sources=tuple(PortSource(Vacuum(), (k,)) for k in range(3)),
            transfer=np.eye(3, dtype=complex),
            detectors=(DetectorModel(1.0, 0.05),) * 3,
        )
        stats = empirical_stats(run_condition2(config, draws, RngStream(17)))
        se = math.sqrt(3 * 0.05 * 0.95 / draws)
        assert abs(stats.mean_total_clicks - 0.15) <= 5 * se

    @pytest.mark.parametrize("modes", [64, 100])
    def test_histogram_keys_beyond_int64(self, modes):
        gen = RngStream(50 + modes).generator()
        outcomes = (gen.random((4000, modes)) < 0.5).astype(np.uint8)
        outcomes[2000:] = outcomes[:2000]  # every row seen twice
        rows, counts = np.unique(outcomes, axis=0, return_counts=True)
        expected = {"".join(map(str, row)): int(c) for row, c in zip(rows, counts)}
        stats = empirical_stats(SampleBatch(outcomes, RngStream(0), "x", None))
        assert stats.histogram == expected

    @pytest.mark.parametrize("modes", [1, 7, 8, 9, 16, 20, 21, 24, 33])
    def test_histogram_keys_are_sorted_bit_strings(self, modes):
        # All-0 and all-1 rows and long zero runs pack to bytes 0x00 and 0xff.
        gen = RngStream(80 + modes).generator()
        outcomes = (gen.random((3000, modes)) < 0.1).astype(np.uint8)
        outcomes[::5], outcomes[1::7] = 0, 1
        outcomes[2::9, : modes // 2] = 0
        expected = Counter("".join(map(str, row)) for row in outcomes.tolist())
        histogram = empirical_stats(SampleBatch(outcomes, RngStream(0), "x", None)).histogram
        assert histogram == expected
        assert list(histogram) == sorted(expected)

    def test_histogram_suppressed_beyond_mode_limit(self):
        modes = 25
        config = ExperimentConfig(
            modes=modes,
            sources=tuple(PortSource(Vacuum(), (k,)) for k in range(modes)),
            transfer=np.eye(modes, dtype=complex),
            detectors=(DetectorModel(0.9, 0.02),) * modes,
        )
        batch = run_condition2(config, 500, RngStream(30))
        assert batch.counts is None
        stats = empirical_stats(batch)  # falls back to counting on demand
        assert sum(stats.histogram.values()) == 500

    def test_empty_batch_above_twenty_modes_has_an_empty_histogram(self):
        batch = run_condition2(single_photon_config(22, 2, p_d=0.06), 0, RngStream(1))
        assert _histogram(batch.outcomes) == {}

    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_outputs_match_row_by_row_formatting(self, n):
        gen = RngStream(60 + n).generator()
        outcomes = (gen.random((n, 13)) < 0.3).astype(np.uint8)
        batch = SampleBatch(outcomes, RngStream(0), "x", None)
        assert batch.to_csv_bytes() == old_csv_bytes(outcomes)
        assert batch.to_jsonl_bytes() == old_jsonl_bytes(outcomes)

    def test_write_formats(self, tmp_path):
        config = single_photon_config(3, 1, p_d=0.06)
        batch = run_condition2(config, 100, RngStream(18))
        csv_path = tmp_path / "s.csv"
        jsonl_path = tmp_path / "s.jsonl"
        batch.write(csv_path, "csv")
        batch.write(jsonl_path, "jsonl")
        lines = csv_path.read_bytes().decode().splitlines()
        assert len(lines) == 100 and set(lines[0]) <= {"0", "1"}
        first = jsonl_path.read_bytes().decode().splitlines()[0]
        assert first.startswith('{"n":"') and first.endswith('"}')

    @pytest.mark.parametrize("fmt", ["CSV", "json", ""])
    def test_write_refuses_unknown_format(self, tmp_path, fmt):
        batch = SampleBatch(np.zeros((2, 3), dtype=np.uint8), RngStream(0), "x", None)
        path = tmp_path / "s.out"
        with pytest.raises(ValueError, match="unknown sample format"):
            batch.write(path, fmt)
        assert not path.exists()

    def test_condition2_fallback_handles_spdc_sources(self):
        from conftest import oracle_suite

        by_name = {name: (config, n_max) for name, config, n_max, _ in oracle_suite()}
        config, n_max = by_name["spdc_pair"]
        table = exact_distribution(config, n_max=n_max)
        batch = run_condition2(config, 200_000, RngStream(31))
        bound = max(0.01, 3 * math.sqrt(len(table.outcomes) / 200_000))
        assert tv_distance(table, batch) <= bound

    def test_run_experiment_dispatch(self):
        spdc = spdc_config(2, 0.05, p_d=0.09)
        batch = run_experiment(spdc, 1000, RngStream(19))
        assert len(batch) == 1000
        photon = single_photon_config(3, 1, p_d=0.06)
        batch = run_experiment(photon, 1000, RngStream(20))
        assert len(batch) == 1000
        with pytest.raises(ValueError):
            run_experiment(photon, 10, RngStream(21), condition=3)
