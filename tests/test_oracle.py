import itertools
import math
import sys
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import sqrtm

import pqsim.oracle
from pqsim import DetectorModel, RngStream, run_experiment
from pqsim.errors import DimensionError, OracleSizeError, TruncationError
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary, permanent_batch
from pqsim.oracle import (
    ProbabilityTable,
    _povm_fold,
    _sector,
    all_bitstrings,
    exact_distribution,
    tv_distance,
)
from pqsim.presets import spdc_config
from pqsim.sampler import SampleBatch
from pqsim.states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

from conftest import (
    beamsplitter_50_50,
    clicks_from_silent,
    ideal_probability_permanent,
    naive_permanent,
    one_state_sector,
    oracle_suite,
    spdc_click_table,
    thermal_on_lossy_six,
)


def pure_photons(ports, modes):
    sources = [PortSource(MixedSinglePhoton(1.0, 1.0), (p,)) for p in ports]
    sources += [PortSource(Vacuum(), (p,)) for p in range(modes) if p not in ports]
    return tuple(sources)


def ideal_detectors(modes):
    return (DetectorModel(1.0, 0.0),) * modes


def one_click(modes, port):
    return "".join("1" if k == port else "0" for k in range(modes))


# Reference copies of the per-state loops the array code replaced.

def recursive_fock_states(modes, total):
    if modes == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in recursive_fock_states(modes - 1, total - first):
            out.append((first,) + rest)
    return out


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


def halmos_dilation(transfer):
    """[[L, sqrt(I - L L^dag)], [sqrt(I - L^dag L), -L^dag]]: a unitary with
    L as its top-left block, built without an SVD."""
    eye = np.eye(len(transfer))
    adjoint = transfer.conj().T
    return np.block([[transfer, sqrtm(eye - transfer @ adjoint)],
                     [sqrtm(eye - adjoint @ transfer), -adjoint]])


def kron_fold(weights, occ, eta, p_d):
    probs = np.zeros(1 << occ.shape[1])
    for row, p in zip(occ, weights):
        w_off = (1.0 - p_d) * (1.0 - eta) ** row
        probs += p * reduce(np.kron, [np.array([w0, 1.0 - w0]) for w0 in w_off])
    return probs


class TestFockBasis:
    """``_Propagator.sector`` finds equal system parts as runs of adjacent
    states, which holds because ``_sector`` lists them lexicographically."""

    def test_states_are_lexicographic_and_complete(self):
        states = [tuple(s) for s in _sector(3, 2)[1].tolist()]
        assert len(states) == math.comb(3 + 2 - 1, 2)
        assert states == sorted(states)
        assert all(sum(s) == 2 for s in states)

    @pytest.mark.parametrize("modes", range(1, 7))
    def test_states_match_the_recursive_builder(self, modes):
        for total in range(6):
            photons, occ = _sector(modes, total)
            assert [tuple(s) for s in occ.tolist()] == recursive_fock_states(modes, total)
            by_photon = [np.bincount(column, minlength=modes) for column in photons.T]
            assert np.array_equal(by_photon, occ)


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

    @pytest.mark.parametrize("counts", [(3,), (2, 1), (1, 2, 2), (3, 3, 2, 2), (5, 2),
                                        (1,) * 6], ids=str)
    @pytest.mark.parametrize("batch", [0, 1, 37])
    def test_repeated_rows_match_the_expanded_matrix(self, counts, batch):
        n = sum(counts)
        gen = RngStream(160, 16 * n + len(counts)).generator()
        shape = (batch, len(counts), n)
        rows = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        expanded = np.repeat(rows, counts, axis=1)
        new = permanent_batch(rows, counts)
        old, scale = ryser_prod_loop(expanded)
        assert new.shape == (batch,)
        assert np.all(np.abs(new - old) <= 1e-13 * scale)
        if n <= 6:
            naive = np.array([naive_permanent(m) for m in expanded], dtype=complex)
            assert np.all(np.abs(new - naive) <= 1e-13 * scale)

    def test_column_major_view_gives_the_same_permanents(self):
        # The oracle passes a (B, K, n) view of a C-contiguous (K, n, B)
        # stack, indexed [row, column, batch].
        stack = RngStream(140).generator().standard_normal((3, 5, 9)) + 0j
        mats = stack.transpose(2, 0, 1)
        np.testing.assert_allclose(permanent_batch(mats, (2, 1, 2)),
                                   ryser_prod_loop(np.repeat(mats, (2, 1, 2), axis=1))[0],
                                   rtol=1e-13)

    @pytest.mark.parametrize("fold_entries", [pqsim.oracle._FOLD_ENTRIES, 64])
    def test_povm_fold_matches_the_kron_fold(self, monkeypatch, fold_entries):
        # fold_entries = 64 folds 2 occupations at a time over 5 modes.
        monkeypatch.setattr(pqsim.oracle, "_FOLD_ENTRIES", fold_entries)
        gen = RngStream(150).generator()
        occ = gen.integers(0, 5, size=(40, 5))
        weights = gen.dirichlet(np.ones(40))
        eta = np.array([0.9, 0.0, 0.7, 0.5, 0.95])  # mode 1 is dead
        p_d = np.array([0.05, 0.1, 1.0, 0.0, 0.2])  # mode 2 always clicks
        new = _povm_fold(weights, occ, eta, p_d)
        old = kron_fold(weights, occ, eta, p_d)
        assert np.max(np.abs(new - old)) <= 1e-15
        assert new.sum() == pytest.approx(1.0, abs=1e-14)


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
        sources = (PortSource(MixedSinglePhoton(0.7, 0.9), (0,)),
                   PortSource(Vacuum(), (1,)))
        dets = (DetectorModel(0.9, 0.03),) * 2
        lossy = ExperimentConfig(modes=2, sources=sources, transfer=transfer,
                                 detectors=dets)
        dilated = ExperimentConfig(
            modes=4,
            sources=sources + (PortSource(Vacuum(), (2,)), PortSource(Vacuum(), (3,))),
            transfer=halmos_dilation(transfer),
            detectors=dets + ideal_detectors(2),
        )
        direct = exact_distribution(lossy).as_dict()
        big = exact_distribution(dilated).as_dict()
        marginal = {}
        for bits, p in big.items():
            marginal[bits[:2]] = marginal.get(bits[:2], 0.0) + p
        for bits, p in direct.items():
            assert marginal[bits] == pytest.approx(p, abs=1e-9)

    def test_coherent_click_probability_matches_detector_model(self):
        amp_sq = 0.03
        det = DetectorModel(0.85, 0.04)
        config = ExperimentConfig(
            modes=1,
            sources=(PortSource(Coherent(math.sqrt(amp_sq)), (0,)),),
            transfer=np.eye(1, dtype=complex),
            detectors=(det,),
        )
        table = exact_distribution(config, n_max=4).as_dict()
        expected = 1.0 - (1.0 - det.p_d) * math.exp(-det.eta_d * amp_sq)
        assert table["1"] == pytest.approx(expected, abs=1e-9)

    def test_tables_sum_to_one_across_suite(self):
        for name, config, n_max, _ in oracle_suite():
            table = exact_distribution(config, n_max=n_max)
            assert abs(table.probs.sum() - 1.0) <= 1e-9, name
            assert table.truncation_error <= 1e-6, name

    def test_spdc_herald_signal_correlation(self):
        r = math.asinh(math.sqrt(0.01))
        config = ExperimentConfig(
            modes=2,
            sources=(PortSource(SpdcPair(r, 0.9), (0, 1)),),
            transfer=np.eye(2, dtype=complex),
            detectors=(DetectorModel(0.9, 0.0),) * 2,
        )
        table = exact_distribution(config, n_max=3).as_dict()
        p_pair = table["11"]
        p_herald = table["10"] + table["11"]
        p_signal = table["01"] + table["11"]
        assert p_pair > p_herald * p_signal

    def test_truncation_error_raises_with_suggestion(self):
        config = ExperimentConfig(
            modes=1,
            sources=(PortSource(Coherent(1.5), (0,)),),
            transfer=np.eye(1, dtype=complex),
            detectors=(DetectorModel(0.9, 0.0),),
        )
        with pytest.raises(TruncationError) as err:
            exact_distribution(config, n_max=2)
        assert err.value.suggested_n_max is not None
        assert err.value.suggested_n_max > 2
        exact_distribution(config, n_max=err.value.suggested_n_max)

    def test_n_max_stops_at_the_largest_float_factorial(self):
        config = ExperimentConfig(
            modes=1,
            sources=(PortSource(Coherent(0.1), (0,)),),
            transfer=np.eye(1, dtype=complex),
            detectors=(DetectorModel(0.9, 0.0),),
        )
        exact_distribution(config, n_max=170)
        with pytest.raises(ValueError, match=r"n_max must be in \[1, 170\], got 171"):
            exact_distribution(config, n_max=171)

    def test_size_guard(self):
        modes = 13
        config = ExperimentConfig(
            modes=modes,
            sources=tuple(PortSource(Vacuum(), (k,)) for k in range(modes)),
            transfer=np.eye(modes, dtype=complex),
            detectors=ideal_detectors(modes),
        )
        with pytest.raises(OracleSizeError):
            exact_distribution(config)

    def test_kets_below_the_floor_build_no_sector(self, monkeypatch):
        # Thermal(0.05) weighs (1 - q) q^k on k photons, q = 0.05 / 1.05:
        # above 1e-12 up to k = 9, 6.7e-22 at k = 16.
        sector = one_state_sector(9)
        monkeypatch.setattr(pqsim.oracle, "_sector", sector)
        table = exact_distribution(thermal_on_lossy_six(0.05), n_max=16)
        assert max(sector.built) == 9
        q = 0.05 / 1.05
        assert table.truncation_error == pytest.approx(q**10, rel=1e-9)

    def test_size_guard_counts_the_sector_of_the_largest_ket(self, monkeypatch):
        # The 16-photon ket weighs 1.5e-8 and the truncation tail 7.7e-9, so
        # only the 13M-state sector over 12 modes stops this run.
        monkeypatch.setattr(pqsim.oracle, "_sector", one_state_sector(-1))
        with pytest.raises(OracleSizeError, match=r"8.54e\+11 permanent steps over 12 modes"):
            exact_distribution(thermal_on_lossy_six(0.5), n_max=16)

    def test_size_guard_counts_environment_modes(self):
        modes = 8
        config = ExperimentConfig(
            modes=modes,
            sources=tuple(PortSource(Vacuum(), (k,)) for k in range(modes)),
            transfer=np.sqrt(0.5) * haar_unitary(modes, RngStream(3)),
            detectors=ideal_detectors(modes),
        )
        with pytest.raises(OracleSizeError, match="loss"):
            exact_distribution(config)

    def test_stack_slices_give_the_same_table(self, monkeypatch):
        # 2^10 entries take the 10-photon kets' 3,003 states 25 at a time.
        config = spdc_config(2, 0.01, p_d=0.06, unitary_seed=1)
        calls = []
        permanent = pqsim.oracle.permanent_batch
        monkeypatch.setattr(pqsim.oracle, "permanent_batch",
                            lambda mats, counts: calls.append(counts) or permanent(mats, counts))
        whole, stacks = exact_distribution(config, n_max=3).probs, len(calls)
        monkeypatch.setattr(pqsim.oracle, "_STACK_ENTRIES", 1 << 10)
        assert np.array_equal(exact_distribution(config, n_max=3).probs, whole)
        assert len(calls) - stacks > stacks


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


class TestLossySpdcFold:
    """A lossy signal arm is folded into the network contraction before it
    is dilated; the Gaussian silent-set formula is the reference."""

    @pytest.mark.parametrize("build,n_max", [
        pytest.param(lambda: next(c for name, c, _, _ in oracle_suite()
                                  if name == "spdc_pair_lossy_net"), 3, id="spdc_pair_lossy_net"),
        pytest.param(two_pairs_on_scaled_rows, 3, id="two_pairs_scaled_rows"),
        pytest.param(lambda: lossy_pairs_on_lossy_signals(3), 2, id="three_lossy_pairs"),
    ])
    def test_matches_the_gaussian_click_table(self, build, n_max):
        config = build()
        table = exact_distribution(config, n_max=n_max)
        assert np.max(np.abs(table.probs - spdc_click_table(config))) <= (
            table.truncation_error + 1e-12)

    def test_no_mode_beyond_the_dilation(self, monkeypatch):
        # Signal loss and network loss share one environment mode per signal.
        built = []

        class Spy(pqsim.oracle._Propagator):
            def __init__(self, transfer, system_modes):
                super().__init__(transfer, system_modes)
                built.append(self.modes)

        monkeypatch.setattr(pqsim.oracle, "_Propagator", Spy)
        exact_distribution(lossy_pairs_on_lossy_signals(3), n_max=2)
        assert built == [9]


class TestMultiPhotonKets:
    """A coherent or thermal source on port 0 puts up to n_max photons on one
    input mode, one row of the network repeated in every permanent.  Closed
    forms that use no permanent give its table: detector j sees the flux
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
        table = exact_distribution(config, n_max=12)
        expected = clicks_from_silent(self.silent_sets(source, config))
        assert np.max(np.abs(table.probs - expected)) <= table.truncation_error + 1e-12


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
        return ProbabilityTable(all_bitstrings(1), np.asarray(probs))

    def test_identical_tables(self):
        p = self.table([0.3, 0.7])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_tables(self):
        assert tv_distance(self.table([1.0, 0.0]), self.table([0.0, 1.0])) == 1.0

    def test_uniform_vs_point_mass(self):
        p = ProbabilityTable(all_bitstrings(2), np.full(4, 0.25))
        q = ProbabilityTable(all_bitstrings(2), np.array([1.0, 0.0, 0.0, 0.0]))
        assert tv_distance(p, q) == pytest.approx(0.75)

    def test_sample_batch_argument(self):
        p = ProbabilityTable(all_bitstrings(1), np.array([0.5, 0.5]))
        outcomes = np.array([[0], [1], [1], [1]], dtype=np.uint8)
        batch = SampleBatch(outcomes, RngStream(0), "h", {"0": 1, "1": 3})
        assert tv_distance(p, batch) == pytest.approx(0.25)

    def test_empty_batch_is_refused(self):
        _, config, n_max, _ = oracle_suite()[0]
        table = exact_distribution(config, n_max=n_max)
        with pytest.raises(ValueError, match="empty"):
            tv_distance(table, run_experiment(config, 0, RngStream(1)))

    def test_anything_else_is_refused(self):
        with pytest.raises(TypeError, match="cannot compare against dict"):
            tv_distance(self.table([0.5, 0.5]), {"0": 0.5, "1": 0.5})

    def test_mode_mismatch_rejected(self):
        p = ProbabilityTable(all_bitstrings(2), np.full(4, 0.25))
        batch = SampleBatch(np.zeros((2, 1), dtype=np.uint8), RngStream(0), "h",
                            {"0": 2})
        with pytest.raises(DimensionError):
            tv_distance(p, batch)

    def test_counts_rows_itself_at_twelve_modes(self):
        # A table in shuffled outcome order, a batch whose ``counts`` lie,
        # and a count made row by row as the reference.
        gen = RngStream(120).generator()
        outcomes = (gen.random((20_000, 12)) < 0.3).astype(np.uint8)
        keys = list(np.array(all_bitstrings(12))[gen.permutation(1 << 12)])
        table = ProbabilityTable(keys, gen.dirichlet(np.ones(1 << 12)))
        batch = SampleBatch(outcomes, RngStream(0), "h", {"0" * 12: 1})
        seen = Counter("".join(map(str, row)) for row in outcomes.tolist())
        expected = 0.5 * sum(abs(p - seen[key] / len(outcomes))
                             for key, p in zip(keys, table.probs))
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
        p = ProbabilityTable(all_bitstrings(2), np.full(4, 0.25))
        outcomes = np.array([[0, 1], [value, 0]], dtype=np.uint8)
        with pytest.raises(DimensionError, match="0/1"):
            tv_distance(p, SampleBatch(outcomes, RngStream(0), "h", None))

    def test_row_outside_the_table_is_refused(self):
        p = ProbabilityTable(("00", "01"), np.array([0.5, 0.5]))
        outcomes = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        with pytest.raises(DimensionError, match="outcome 10 not in"):
            tv_distance(p, SampleBatch(outcomes, RngStream(0), "h", None))

    def test_wide_table_counts_without_a_dense_array(self):
        # Two 40-mode outcomes: a count over all 2^40 codes would not fit.
        keys = ("0" * 40, "1" + "0" * 38 + "1")
        p = ProbabilityTable(keys, np.array([0.5, 0.5]))
        outcomes = np.zeros((4, 40), dtype=np.uint8)
        outcomes[:3, [0, 39]] = 1
        assert tv_distance(p, SampleBatch(outcomes, RngStream(0), "h", None)) == 0.25

    def test_table_wider_than_a_code_is_refused(self):
        # At 64 modes the leading click would be shifted out of the code.
        p = ProbabilityTable(("0" * 64, "1" + "0" * 63), np.array([0.5, 0.5]))
        outcomes = np.zeros((1, 64), dtype=np.uint8)
        with pytest.raises(DimensionError, match="at most 62 modes"):
            tv_distance(p, SampleBatch(outcomes, RngStream(0), "h", None))

    def test_probability_table_validation(self):
        with pytest.raises(ValueError):
            ProbabilityTable(all_bitstrings(1), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            ProbabilityTable(all_bitstrings(1), np.array([1.5, -0.5]))

    def test_repeated_outcomes_are_refused(self):
        # Counted twice, "01" would read 0.25 TV against a batch drawn
        # exactly from the table.
        with pytest.raises(DimensionError, match="distinct"):
            ProbabilityTable(("01", "01", "10"), np.array([0.25, 0.25, 0.5]))

    @pytest.mark.parametrize("outcomes", [("0x", "11"), ("0", "11"), ((0, 1), (1, 0))],
                             ids=["not_bits", "unequal_lengths", "not_strings"])
    def test_malformed_outcomes_are_refused(self, outcomes):
        with pytest.raises(DimensionError, match="distinct 0/1 strings of one length"):
            ProbabilityTable(outcomes, np.array([0.5, 0.5]))
