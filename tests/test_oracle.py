import itertools
import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import pqsim.oracle
from pqsim import DetectorModel, RngStream, run_experiment
from pqsim.errors import DimensionError, OracleSizeError
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary, permanent_batch
from pqsim.oracle import (
    ProbabilityTable,
    all_bitstrings,
    clicks_from_silent,
    exact_distribution,
    gaussian_click_table,
    photon_click_table,
    tv_distance,
)
from pqsim.presets import single_photon_config, spdc_config
from pqsim.processes import propagate_blocks, propagate_gaussian
from pqsim.sampler import SampleBatch
from pqsim.states import Coherent, MixedSinglePhoton, SourceModel, SpdcPair, Thermal, Vacuum

from conftest import (
    beamsplitter_50_50,
    economy_dilation,
    fock_click_table,
    ideal_probability_permanent,
    oracle_suite,
    spdc_and_photon_config,
)


def pure_photons(ports, modes):
    sources = [PortSource(MixedSinglePhoton(1.0, 1.0), (p,)) for p in ports]
    sources += [PortSource(Vacuum(), (p,)) for p in range(modes) if p not in ports]
    return tuple(sources)


def ideal_detectors(modes):
    return (DetectorModel(1.0, 0.0),) * modes


def one_click(modes, port):
    return "".join("1" if k == port else "0" for k in range(modes))


# A reference copy of the loop the array code replaced.

def ryser_prod_loop(mats):
    """Ryser's formula in Gray-code order on a (B, n, n) stack, over row
    subsets as the kernel walks them (column subsets of the transpose), one
    ``np.prod`` over each strided column-sum block; returns the permanents
    and the sum of the terms' magnitudes, the scale of either loop's
    roundoff."""
    arr = np.asarray(mats, dtype=complex).transpose(0, 2, 1)
    b, n, _ = arr.shape
    if n == 0:
        return np.ones(b, dtype=complex), np.ones(b)
    row_sums = np.zeros((b, n), dtype=complex)
    total = np.zeros(b, dtype=complex)
    scale = np.zeros(b)
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
        term = np.prod(row_sums, axis=1)
        total += sign * term
        scale += np.abs(term)
    return total * (-1) ** n, scale


class TestReferenceLoops:
    @pytest.mark.parametrize("n", range(11))
    @pytest.mark.parametrize("batch", [0, 1, 37])
    def test_permanents_match_the_prod_loop(self, n, batch):
        gen = RngStream(130 + n).generator()
        ginibre = gen.standard_normal((batch, n, n)) + 1j * gen.standard_normal((batch, n, n))
        new = permanent_batch(ginibre)
        old, scale = ryser_prod_loop(ginibre)
        assert new.shape == (batch,)
        # Cancelling terms make |perm| small against them; the roundoff of
        # either loop is relative to the terms' magnitudes.
        assert np.all(np.abs(new - old) <= 1e-13 * scale)
        positive = gen.random((batch, n, n))
        old, _ = ryser_prod_loop(positive)
        np.testing.assert_allclose(permanent_batch(positive), old, rtol=1e-13, atol=0)

    def test_column_major_view_gives_the_same_permanents(self):
        # A (B, n, n) view of a C-contiguous (n, n, B) stack, indexed [row,
        # column, batch], is the layout the kernel walks; it takes no copy.
        stack = RngStream(140).generator().standard_normal((5, 5, 9)) + 0j
        mats = stack.transpose(2, 0, 1)
        np.testing.assert_allclose(permanent_batch(mats), ryser_prod_loop(mats)[0], rtol=1e-13)


class TestExactDistribution:
    def test_single_photon_beamsplitter(self):
        config = ExperimentConfig(
            modes=2, sources=pure_photons([0], 2),
            transfer=beamsplitter_50_50(), detectors=ideal_detectors(2),
        )
        table = exact_distribution(config).as_dict()
        assert table["10"] == pytest.approx(0.5, abs=1e-12)
        assert table["01"] == pytest.approx(0.5, abs=1e-12)
        assert table["00"] == pytest.approx(0.0, abs=1e-12)
        assert table["11"] == pytest.approx(0.0, abs=1e-12)

    def test_two_photon_interference_dip(self):
        config = ExperimentConfig(
            modes=2, sources=pure_photons([0, 1], 2),
            transfer=beamsplitter_50_50(), detectors=ideal_detectors(2),
        )
        table = exact_distribution(config).as_dict()
        assert table["11"] == pytest.approx(0.0, abs=1e-12)
        assert table["10"] == pytest.approx(0.5, abs=1e-12)
        assert table["01"] == pytest.approx(0.5, abs=1e-12)

    def test_full_loss_sends_everything_to_vacuum(self):
        config = ExperimentConfig(
            modes=2, sources=pure_photons([0], 2),
            transfer=np.zeros((2, 2), dtype=complex), detectors=ideal_detectors(2),
        )
        table = exact_distribution(config).as_dict()
        assert table["00"] == pytest.approx(1.0, abs=1e-12)

    def test_collision_free_sector_matches_permanents(self):
        unitary = haar_unitary(4, RngStream(55))
        in_ports = [0, 1]
        config = ExperimentConfig(
            modes=4, sources=pure_photons(in_ports, 4),
            transfer=unitary, detectors=ideal_detectors(4),
        )
        table = exact_distribution(config).as_dict()
        for out_ports in itertools.combinations(range(4), 2):
            bits = "".join("1" if k in out_ports else "0" for k in range(4))
            expected = ideal_probability_permanent(unitary, in_ports, out_ports)
            assert table[bits] == pytest.approx(expected, abs=1e-9)

    def test_loss_equivalence_with_explicit_dilation(self):
        transfer = np.sqrt(0.8) * haar_unitary(2, RngStream(17))
        dilated, n_env = economy_dilation(transfer)
        sources = (PortSource(MixedSinglePhoton(0.7, 0.9), (0,)),
                   PortSource(Vacuum(), (1,)))
        dets = (DetectorModel(0.9, 0.03),) * 2
        lossy = ExperimentConfig(modes=2, sources=sources, transfer=transfer,
                                 detectors=dets)
        lossless = ExperimentConfig(
            modes=2 + n_env,
            sources=sources + tuple(PortSource(Vacuum(), (2 + k,)) for k in range(n_env)),
            transfer=dilated,
            detectors=dets + ideal_detectors(n_env),
        )
        direct = exact_distribution(lossy).as_dict()
        big = exact_distribution(lossless).as_dict()
        marginal = {}
        for bits, p in big.items():
            marginal[bits[:2]] = marginal.get(bits[:2], 0.0) + p
        for bits, p in direct.items():
            assert marginal[bits] == pytest.approx(p, abs=1e-12)

    def test_coherent_click_probability_matches_detector_model(self):
        amp_sq = 0.03
        det = DetectorModel(0.85, 0.04)
        config = ExperimentConfig(
            modes=1,
            sources=(PortSource(Coherent(math.sqrt(amp_sq)), (0,)),),
            transfer=np.eye(1, dtype=complex),
            detectors=(det,),
        )
        table = exact_distribution(config).as_dict()
        expected = 1.0 - (1.0 - det.p_d) * math.exp(-det.eta_d * amp_sq)
        assert table["1"] == pytest.approx(expected, abs=1e-15)

    def test_tables_sum_to_one_across_suite(self):
        for name, config, _, _ in oracle_suite():
            table = exact_distribution(config)
            assert abs(table.probs.sum() - 1.0) <= 1e-12, name
            assert table.truncation_error <= 1e-15, name

    def test_spdc_herald_signal_correlation(self):
        r = math.asinh(math.sqrt(0.01))
        config = ExperimentConfig(
            modes=2,
            sources=(PortSource(SpdcPair(r, 0.9), (0, 1)),),
            transfer=np.eye(2, dtype=complex),
            detectors=(DetectorModel(0.9, 0.0),) * 2,
        )
        table = exact_distribution(config).as_dict()
        p_pair = table["11"]
        p_herald = table["10"] + table["11"]
        p_signal = table["01"] + table["11"]
        assert p_pair > p_herald * p_signal

    def test_size_guard(self):
        modes = 20
        config = ExperimentConfig(
            modes=modes,
            sources=tuple(PortSource(Vacuum(), (k,)) for k in range(modes)),
            transfer=np.eye(modes, dtype=complex),
            detectors=ideal_detectors(modes),
        )
        with pytest.raises(OracleSizeError, match=r"20 modes give 2\^20 silent sets"):
            exact_distribution(config)

    def test_batches_give_the_same_table(self, monkeypatch):
        # 2^6 entries take one set a batch.
        for config in (spdc_config(2, 0.01, p_d=0.06, unitary_seed=1),
                       single_photon_config(6, 6, p_d=0.06, unitary_seed=1),
                       photons_and_gaussian_light(2)):
            whole = exact_distribution(config).probs
            monkeypatch.setattr(pqsim.oracle, "_BATCH_ENTRIES", 1 << 6)
            np.testing.assert_allclose(exact_distribution(config).probs, whole, rtol=0, atol=1e-14)
            monkeypatch.undo()

    def test_moebius_inversion_is_inclusion_exclusion(self):
        # P(clicks exactly on C) = sum over U in C of (-1)^|U| P(silent on
        # the complement of C and on U).
        # Bit k of a silent-set index and of an outcome is mode M - 1 - k.
        modes = 4
        everyone = (1 << modes) - 1
        silent = RngStream(180).generator().random(1 << modes)
        table = clicks_from_silent(silent)
        for outcome in range(1 << modes):
            clicks = [k for k in range(modes) if outcome >> k & 1]
            expected = sum((-1) ** len(u) * silent[(everyone ^ outcome) | sum(1 << k for k in u)]
                           for size in range(len(clicks) + 1)
                           for u in itertools.combinations(clicks, size))
            assert table[outcome] == pytest.approx(expected, abs=1e-15)


def photons_and_gaussian_light(photons: int) -> ExperimentConfig:
    """``photons`` one-photon mixtures on ports 0, 2 and 4, a coherent source
    on port 1 and thermal light on port 3 of a lossy Haar unitary."""
    modes = 5
    mixtures = [MixedSinglePhoton(0.7, 0.9), MixedSinglePhoton(0.5, 0.8),
                MixedSinglePhoton(0.9, 1.0)]
    sources = [PortSource(Coherent(0.3 - 0.2j), (1,)), PortSource(Thermal(0.08), (3,))]
    sources += [PortSource(mixtures[j], (2 * j,)) if j < photons
                else PortSource(Vacuum(), (2 * j,)) for j in range(3)]
    return ExperimentConfig(modes=modes, sources=tuple(sources),
                            transfer=math.sqrt(0.85) * haar_unitary(modes, RngStream(41)),
                            detectors=(DetectorModel(0.9, 0.1),) * modes)


def photons_and_lossy_pair() -> ExperimentConfig:
    """Two one-photon mixtures on ports 0 and 2 and a lossy pair on (1, 3)
    of a lossy Haar unitary."""
    return ExperimentConfig(modes=4,
                            sources=(PortSource(MixedSinglePhoton(0.9, 1.0), (0,)),
                                     PortSource(SpdcPair(math.asinh(0.2), 0.7), (1, 3)),
                                     PortSource(MixedSinglePhoton(0.6, 0.9), (2,))),
                            transfer=math.sqrt(0.9) * haar_unitary(4, RngStream(43)),
                            detectors=(DetectorModel(0.85, 0.07),) * 4)


def lossy_pairs_on_lossy_signals(pairs: int) -> ExperimentConfig:
    """``pairs`` SpdcPair(0.05, 0.8) sources, heralds on the identity and
    signals on sqrt(0.9) times a Haar unitary."""
    modes = 2 * pairs
    transfer = np.eye(modes, dtype=complex)
    transfer[pairs:, pairs:] = math.sqrt(0.9) * haar_unitary(pairs, RngStream(5))
    return ExperimentConfig(
        modes=modes,
        sources=tuple(PortSource(SpdcPair(0.05, 0.8), (k, pairs + k)) for k in range(pairs)),
        transfer=transfer,
        detectors=(DetectorModel(0.9, 0.08),) * modes,
    )


def two_pairs_on_scaled_rows() -> ExperimentConfig:
    """Two pairs (eta_bl 0.8 and 1.0) on a Haar unitary whose rows are scaled
    by sqrt(linspace(0.7, 1, 4)), with a dead detector and a p_d = 0 one."""
    transfer = np.sqrt(np.linspace(0.7, 1.0, 4))[:, None] * haar_unitary(4, RngStream(31))
    return ExperimentConfig(
        modes=4,
        sources=(PortSource(SpdcPair(math.asinh(0.1), 0.8), (0, 2)),
                 PortSource(SpdcPair(math.asinh(0.1), 1.0), (1, 3))),
        transfer=transfer,
        detectors=(DetectorModel(0.9, 0.05), DetectorModel(0.0, 0.1),
                   DetectorModel(0.8, 0.0), DetectorModel(0.7, 0.03)),
    )


def desk_suite(seed: int):
    """The four desk configs of the benchmark's verify_desk at one seed, as
    (name, config, n_max of :func:`fock_click_table`)."""
    mixed = ExperimentConfig(
        modes=4,
        sources=(PortSource(Vacuum(), (0,)), PortSource(MixedSinglePhoton(0.5, 0.1), (1,)),
                 PortSource(Coherent(0.2 + 0.1j), (2,)), PortSource(Thermal(0.02), (3,))),
        transfer=math.sqrt(0.9) * haar_unitary(4, RngStream(seed, 1)),
        detectors=(DetectorModel(0.9, 0.08),) * 4)
    gaussian = ExperimentConfig(
        modes=3,
        sources=(PortSource(Coherent(0.25), (0,)), PortSource(Thermal(0.03), (1,)),
                 PortSource(Vacuum(), (2,))),
        transfer=math.sqrt(0.8) * haar_unitary(3, RngStream(seed, 2)),
        detectors=(DetectorModel(0.9, 0.05),) * 3)
    return [("single_photon_6x6", single_photon_config(6, 6, p_d=0.06, unitary_seed=seed), 1),
            ("mixed_sources_4", mixed, 5),
            ("spdc_2_pairs", spdc_config(2, 0.01, p_d=0.06, unitary_seed=seed), 3),
            ("gaussian_3", gaussian, 6)]


FOCK_CASES = (
    [pytest.param(config, n_max, id=name) for name, config, n_max, _ in oracle_suite()]
    + [pytest.param(config, n_max, id=f"{name}_seed{seed}")
       for seed in (1, 2, 7) for name, config, n_max in desk_suite(seed)]
    + [pytest.param(spdc_and_photon_config(), 5, id="spdc_and_photon"),
       pytest.param(photons_and_gaussian_light(2), 5, id="two_photons_coherent_thermal"),
       pytest.param(photons_and_gaussian_light(3), 5, id="three_photons_coherent_thermal"),
       pytest.param(photons_and_lossy_pair(), 5, id="two_photons_lossy_pair"),
       pytest.param(two_pairs_on_scaled_rows(), 3, id="two_pairs_scaled_rows"),
       pytest.param(lossy_pairs_on_lossy_signals(3), 2, id="three_lossy_pairs")])


class TestFockReference:
    """The silent-set formulas against :func:`fock_click_table`, which
    truncates the input in its Fock basis and takes no determinant: within
    that truncation's bound, on every source kind, both routes' desk
    configs and one to three photon ports beside Gaussian light."""

    @pytest.mark.parametrize("config, n_max", FOCK_CASES)
    def test_matches_the_fock_reference(self, config, n_max):
        reference, error = fock_click_table(config, n_max)
        table = exact_distribution(config)
        assert np.max(np.abs(table.probs - reference)) <= error + 1e-12


def _is_photon_config(config) -> bool:
    return all(isinstance(e.source, (MixedSinglePhoton, Vacuum)) for e in config.sources)


IDENTITY_CASES = (
    [pytest.param(config, id=name) for name, config, _, _ in oracle_suite()]
    + [pytest.param(spdc_and_photon_config(), id="spdc_and_photon"),
       pytest.param(photons_and_gaussian_light(2), id="two_photons_coherent_thermal"),
       pytest.param(photons_and_lossy_pair(), id="two_photons_lossy_pair")])

PHOTON_CASES = (
    [pytest.param(config, id=name)
     for name, config, _, _ in oracle_suite() if _is_photon_config(config)]
    + [pytest.param(config, id=f"{name}_seed{seed}") for seed in (1, 2, 7)
       for name, config, _ in desk_suite(seed) if _is_photon_config(config)])

GAUSSIAN_CASES = (
    [pytest.param(config, id=name) for name, config, _, _ in oracle_suite()
     if not any(isinstance(e.source, MixedSinglePhoton) for e in config.sources)]
    + [pytest.param(config, id=f"{name}_seed{seed}") for seed in (1, 2, 7)
       for name, config, _ in desk_suite(seed)
       if not any(isinstance(e.source, MixedSinglePhoton) for e in config.sources)])


def _as_axes(table: ProbabilityTable) -> np.ndarray:
    """The table's probabilities on one axis per mode, mode 0 first."""
    return table.probs.reshape((2,) * table.modes)


class TestTableIdentities:
    """Identities the detector model fixes, on every source kind: relabelling
    detectors relabels the table, random counts are independent coins after
    the light, eta_d is a loss in front of an ideal detector, and a detector
    that can never click leaves the others' marginal."""

    @pytest.mark.parametrize("config", IDENTITY_CASES)
    def test_relabelling_detectors_permutes_the_table(self, config):
        # New mode i is old mode perm[i]; a cycle with no fixed point tells a
        # permutation from its inverse at three modes or more.
        perm = np.roll(np.arange(config.modes), 1)
        relabelled = replace(config, transfer=config.transfer[:, perm],
                             detectors=tuple(config.detectors[k] for k in perm))
        expected = _as_axes(exact_distribution(config)).transpose(perm)
        assert np.max(np.abs(_as_axes(exact_distribution(relabelled)) - expected)) <= 1e-14

    @pytest.mark.parametrize("config", IDENTITY_CASES)
    def test_random_counts_are_independent_coins(self, config):
        # Detector k clicks when light or its own p_d coin says so.
        quiet = replace(config, detectors=tuple(DetectorModel(d.eta_d, 0.0)
                                                for d in config.detectors))
        expected = _as_axes(exact_distribution(quiet))
        for axis, det in enumerate(config.detectors):
            silent, click = np.moveaxis(expected, axis, 0)
            expected = np.moveaxis(np.stack([(1.0 - det.p_d) * silent,
                                             click + det.p_d * silent]), 0, axis)
        assert np.max(np.abs(_as_axes(exact_distribution(config)) - expected)) <= 1e-14

    @pytest.mark.parametrize("config", IDENTITY_CASES)
    def test_efficiency_is_a_loss_before_an_ideal_detector(self, config):
        eta = np.array([d.eta_d for d in config.detectors])
        folded = replace(config, transfer=config.transfer * np.sqrt(eta),
                         detectors=tuple(DetectorModel(1.0, d.p_d) for d in config.detectors))
        direct = exact_distribution(config).probs
        assert np.max(np.abs(exact_distribution(folded).probs - direct)) <= 1e-14

    @pytest.mark.parametrize("config", IDENTITY_CASES)
    def test_a_detector_that_never_clicks_leaves_the_marginal(self, config):
        # Mode 0, the leading bit: blind and without random counts, it reads
        # 0 on every shot and the rest see what they saw before.  Its click
        # entries are differences of equal silent sets, 0 up to roundoff.
        blind = replace(config, detectors=(DetectorModel(0.0, 0.0),) + config.detectors[1:])
        table = _as_axes(exact_distribution(blind))
        marginal = _as_axes(exact_distribution(config)).sum(axis=0)
        assert np.max(np.abs(table[0] - marginal)) <= 1e-14
        assert np.max(np.abs(table[1])) <= 1e-14


class TestTwoClosedForms:
    @pytest.mark.parametrize("config", PHOTON_CASES)
    def test_photon_fold_of_the_gaussian_form_matches_the_permanent(self, config):
        # With no Gaussian light Q_0 = I and every click comes from the
        # photon ports' multilinear terms, a path that shares only the
        # Moebius step with the permanent.
        reference = photon_click_table(config)
        assert np.max(np.abs(gaussian_click_table(config) - reference)) <= 1e-12

    @pytest.mark.parametrize("config", GAUSSIAN_CASES)
    def test_gaussian_table_matches_the_samplers_wigner_moments(self, config):
        # The oracle builds its moments from the sources' fields; the
        # samplers' Wigner moments (x = a + a^dag, vacuum covariance I) must
        # give the same silent sets: prod_T (1 - p_d) 2^|T| exp(-d^T (V_T +
        # I)^-1 d / 2) / sqrt(det(V_T + I)).
        modes = config.modes
        eta = np.array([d.eta_d for d in config.detectors])
        mean, cov = propagate_gaussian(*propagate_blocks(config.sources, config.transfer),
                                       np.diag(np.sqrt(eta)).astype(complex))
        dark = 1.0 - np.array([d.p_d for d in config.detectors])
        silent = np.ones(1 << modes)
        for size in range(1, modes + 1):
            for members in itertools.combinations(range(modes), size):
                quads = [2 * k + q for k in members for q in (0, 1)]
                v = cov[np.ix_(quads, quads)] + np.eye(2 * size)
                d = mean[quads]
                code = sum(1 << (modes - 1 - k) for k in members)
                silent[code] = (np.prod(dark[list(members)]) * 2.0**size
                                * math.exp(-0.5 * d @ np.linalg.solve(v, d))
                                / math.sqrt(np.linalg.det(v)))
        expected = clicks_from_silent(silent)
        assert np.max(np.abs(exact_distribution(config).probs - expected)) <= 1e-12


class TestMultiPhotonKets:
    """A coherent or thermal source on port 0 puts any number of photons on
    one input mode.  Closed forms give its table: detector j sees the flux
    f_j = eta_d |L_0j|^2 per input photon, a coherent source leaves every
    detector independent and silent with probability (1 - p_d)
    exp(-|alpha|^2 f_j), and a thermal one leaves a set T silent with
    probability prod_T (1 - p_d) / (1 + nbar sum_T f_j)."""

    SOURCES = [pytest.param(Coherent(0.6 - 0.4j), id="coherent"),
               pytest.param(Thermal(0.12), id="thermal")]

    @staticmethod
    def silent_sets(source, config) -> np.ndarray:
        flux = np.array([d.eta_d for d in config.detectors]) * np.abs(config.transfer[0]) ** 2
        dark = 1.0 - np.array([d.p_d for d in config.detectors])
        members = np.array(list(itertools.product((0, 1), repeat=config.modes)), dtype=bool)
        dark_part = np.prod(np.where(members, dark, 1.0), axis=1)
        if isinstance(source, Coherent):
            return dark_part * np.exp(-abs(source.amplitude) ** 2 * (members @ flux))
        return dark_part / (1.0 + source.mean_photons * (members @ flux))

    @pytest.mark.parametrize("source", SOURCES)
    def test_one_source_on_a_lossy_network_matches_the_closed_form(self, source):
        config = ExperimentConfig(
            modes=4,
            sources=(PortSource(source, (0,)),) + tuple(PortSource(Vacuum(), (k,))
                                                     for k in range(1, 4)),
            transfer=math.sqrt(0.85) * haar_unitary(4, RngStream(61)),
            detectors=(DetectorModel(0.9, 0.05), DetectorModel(0.7, 0.0),
                       DetectorModel(0.8, 0.1), DetectorModel(1.0, 0.02)),
        )
        table = exact_distribution(config)
        expected = clicks_from_silent(self.silent_sets(source, config))
        assert np.max(np.abs(table.probs - expected)) <= 1e-14


class TestSourcesWithoutPhotons:
    """Thermal light at zero mean and SPDC at zero squeezing take the
    Gaussian formula with zero moments, so the table is the all-vacuum
    one, which the permanent formula gives."""

    @staticmethod
    def config(sources):
        return ExperimentConfig(modes=4, sources=sources,
                                transfer=math.sqrt(0.9) * haar_unitary(4, RngStream(71)),
                                detectors=(DetectorModel(0.9, 0.05),) * 4)

    @pytest.mark.parametrize("head", [
        pytest.param((PortSource(Thermal(0.0), (0,)), PortSource(Vacuum(), (1,))), id="thermal"),
        pytest.param((PortSource(SpdcPair(0.0, 0.8), (0, 1)),), id="spdc"),
    ])
    def test_table_is_the_vacuum_table(self, head):
        tail = (PortSource(Vacuum(), (2,)), PortSource(Vacuum(), (3,)))
        vacuum = exact_distribution(self.config(pure_photons([], 4)))
        table = exact_distribution(self.config(head + tail))
        assert table.truncation_error == 0.0
        assert np.array_equal(table.probs, vacuum.probs)


class TestIndependence:
    def test_no_wigner_moments_are_read(self, monkeypatch):
        # The samplers draw from wigner_moments(); the oracle reads the
        # sources' own fields, so a wrong Wigner covariance cannot hide.
        def refuse(self):
            raise AssertionError(f"wigner_moments() called on {self!r}")

        for kind in (SourceModel, Vacuum, Coherent, Thermal, SpdcPair):
            monkeypatch.setattr(kind, "wigner_moments", refuse)
        for name, config, _, _ in oracle_suite():
            exact_distribution(config)
        exact_distribution(spdc_and_photon_config())


class TestIdealProbabilityPermanent:
    def test_identity_routes_photons_straight_through(self):
        assert ideal_probability_permanent(np.eye(2), [0], [0]) == 1.0
        assert ideal_probability_permanent(np.eye(2), [0], [1]) == 0.0

    def test_hom_dip_via_permanent(self):
        assert ideal_probability_permanent(beamsplitter_50_50(), [0, 1], [0, 1]) \
            == pytest.approx(0.0, abs=1e-12)

    def test_hom_bunching_on_repeated_ports(self):
        bs = beamsplitter_50_50()
        assert ideal_probability_permanent(bs, [0, 1], [0, 0]) == pytest.approx(0.5, abs=1e-12)
        assert ideal_probability_permanent(bs, [0, 0], [0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_repeated_ports_match_the_oracle(self):
        # Two photons in three lossless modes: one click means both photons
        # sit on that port.  The oracle cannot prepare two photons on one
        # port, so repeated inputs use <m|U|n> = <n|U^T|m>.
        unitary = haar_unitary(3, RngStream(56))
        tables = [
            exact_distribution(ExperimentConfig(
                modes=3, sources=pure_photons([0, 1], 3),
                transfer=transfer, detectors=ideal_detectors(3),
            )).as_dict()
            for transfer in (unitary, unitary.T)
        ]
        for port in range(3):
            assert ideal_probability_permanent(unitary, [0, 1], [port, port]) \
                == pytest.approx(tables[0][one_click(3, port)], abs=1e-12)
            assert ideal_probability_permanent(unitary, [port, port], [0, 1]) \
                == pytest.approx(tables[1][one_click(3, port)], abs=1e-12)


class TestTvDistance:
    def table(self, probs):
        return ProbabilityTable(np.asarray(probs))

    def test_identical_tables(self):
        p = self.table([0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_tables(self):
        assert tv_distance(self.table([1.0, 0.0]), self.table([0.0, 1.0])) == 1.0

    def test_uniform_vs_point_mass(self):
        p = ProbabilityTable(np.full(4, 0.25))
        q = ProbabilityTable(np.array([1.0, 0.0, 0.0, 0.0]))
        assert tv_distance(p, q) == pytest.approx(0.75)

    def test_tables_of_different_modes_are_refused(self):
        with pytest.raises(DimensionError, match="different outcome spaces"):
            tv_distance(self.table([0.5, 0.5]), ProbabilityTable(np.full(4, 0.25)))

    def test_sample_batch_argument(self):
        p = ProbabilityTable(np.array([0.5, 0.5]))
        outcomes = np.array([[0], [1], [1], [1]], dtype=np.uint8)
        batch = SampleBatch(outcomes, RngStream(0), "h", {"0": 1, "1": 3})
        assert tv_distance(p, batch) == pytest.approx(0.25)

    def test_empty_batch_is_refused(self):
        _, config, _, _ = oracle_suite()[0]
        table = exact_distribution(config)
        with pytest.raises(ValueError, match="empty"):
            tv_distance(table, run_experiment(config, 0, RngStream(1)))

    def test_anything_else_is_refused(self):
        with pytest.raises(TypeError, match="cannot compare against dict"):
            tv_distance(self.table([0.5, 0.5]), {"0": 0.5, "1": 0.5})

    def test_mode_mismatch_rejected(self):
        p = ProbabilityTable(np.full(4, 0.25))
        batch = SampleBatch(np.zeros((2, 1), dtype=np.uint8), RngStream(0), "h",
                            {"0": 2})
        with pytest.raises(DimensionError):
            tv_distance(p, batch)

    def test_counts_rows_itself_at_twelve_modes(self):
        # A batch whose ``counts`` lie, and a count made row by row, keyed
        # by outcome string, as the reference.
        gen = RngStream(120).generator()
        outcomes = (gen.random((20_000, 12)) < 0.3).astype(np.uint8)
        table = ProbabilityTable(gen.dirichlet(np.ones(1 << 12)))
        batch = SampleBatch(outcomes, RngStream(0), "h", {"0" * 12: 1})
        seen = Counter("".join(map(str, row)) for row in outcomes.tolist())
        expected = 0.5 * sum(abs(p - seen[key] / len(outcomes))
                             for key, p in zip(all_bitstrings(12), table.probs))
        called = set()

        def record(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_filename)

        sys.setprofile(record)
        try:
            tv = tv_distance(table, batch)
        finally:
            sys.setprofile(None)
        assert tv == pytest.approx(expected, rel=0, abs=1e-12)
        assert not any(name.endswith("sampler.py") for name in called)

    @pytest.mark.parametrize("value", [2, 255])
    def test_rows_that_are_not_clicks_are_refused(self, value):
        p = ProbabilityTable(np.full(4, 0.25))
        outcomes = np.array([[0, 1], [value, 0]], dtype=np.uint8)
        with pytest.raises(DimensionError, match="0/1"):
            tv_distance(p, SampleBatch(outcomes, RngStream(0), "h", None))

    def test_probability_table_validation(self):
        with pytest.raises(ValueError):
            ProbabilityTable(np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            ProbabilityTable(np.array([1.5, -0.5]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [math.inf, -math.inf],
                                       [0.5, 0.5, math.nan, 0.0]],
                             ids=["nan", "infinities", "nan_at_two_modes"])
    def test_non_finite_probabilities_are_refused(self, probs):
        # A NaN passes a sign check and a sum check, and would make every
        # distance against the table NaN.
        with pytest.raises(ValueError, match="finite"):
            ProbabilityTable(np.array(probs))

    @pytest.mark.parametrize("shape", [(1,), (3,), (6,), (2, 2)])
    def test_length_not_a_power_of_two_is_refused(self, shape):
        with pytest.raises(DimensionError, match="2\\^M probabilities"):
            ProbabilityTable(np.full(shape, 1.0 / math.prod(shape)))

    @pytest.mark.parametrize("modes", [1, 3, 5])
    def test_outcomes_are_the_binary_codes(self, modes):
        table = ProbabilityTable(np.full(1 << modes, 1.0 / (1 << modes)))
        assert table.modes == modes
        assert table.outcomes == all_bitstrings(modes)
        assert table.to_dict()["outcomes"] == list(all_bitstrings(modes))
        assert list(table.as_dict()) == list(all_bitstrings(modes))
