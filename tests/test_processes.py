import math

import numpy as np
import pytest

from pqsim import DetectorModel, RngStream
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary
from pqsim.processes import (
    propagate_gaussian,
    quadrature_rep,
    sample_transition,
    sigma_matrix,
    transition_factor,
    uniform_loss_eta,
)
from pqsim.simulability import check_second_condition, live_transfer, s_bar_vector, t_bar_vector
from pqsim.sampler import output_gaussian
from pqsim.errors import DimensionError
from pqsim.states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

from conftest import (dead_detector_beamsplitter, oracle_suite, random_contraction,
                      random_mixed_config)


def dense_sigma(transfer, s, t):
    """The unstructured formula I - L^dag L - diag(s) + L^dag diag(t) L."""
    lh = transfer.conj().T
    sigma = np.eye(len(s)) - lh @ transfer - np.diag(s) + (lh * t) @ transfer
    return (sigma + sigma.conj().T) / 2.0


def dense_factor(transfer, s, t):
    c_h, g, scale = transition_factor(transfer, s, t)
    return (np.eye(len(scale)) - c_h @ g) * scale


class TestSigmaMatrix:
    def test_unitary_normal_ordering_gives_zero(self):
        u = haar_unitary(3, RngStream(1))
        sigma = sigma_matrix(u, np.ones(3), np.ones(3))
        assert np.max(np.abs(sigma)) <= 1e-12

    def test_wigner_ordering_gives_loss_defect(self):
        transfer = random_contraction(3, 2)
        sigma = sigma_matrix(transfer, np.zeros(3), np.zeros(3))
        expected = np.eye(3) - transfer.conj().T @ transfer
        assert np.allclose(sigma, expected, atol=1e-14)
        assert np.linalg.eigvalsh(sigma)[0] >= -1e-12

    def test_scalar_example_not_psd(self):
        transfer = np.sqrt(0.5) * np.eye(2)
        sigma = sigma_matrix(transfer, [0.9, 0.9], [0.5, 0.5])
        assert np.allclose(sigma, -0.15 * np.eye(2), atol=1e-15)

    def test_hermitian_for_random_inputs(self):
        gen = RngStream(3).generator()
        for k in range(10):
            transfer = random_contraction(4, 100 + k)
            s = gen.uniform(-1, 1, 4)
            t = gen.uniform(-1, 1, 4)
            sigma = sigma_matrix(transfer, s, t)
            assert np.array_equal(sigma, sigma.conj().T)

    @pytest.mark.parametrize("c", [-1.0, 0.0, 0.5, 1.0])
    def test_equal_orderings_scale_the_loss_defect(self, c):
        for seed in range(5):
            transfer = random_contraction(3, seed, scale=np.sqrt(0.7))
            sigma = sigma_matrix(transfer, np.full(3, c), np.full(3, c))
            expected = (1.0 - c) * (np.eye(3) - transfer.conj().T @ transfer)
            assert np.allclose(sigma, expected, atol=1e-13)
            assert np.linalg.eigvalsh(sigma)[0] >= -1e-12


    def test_structured_form_equals_dense_formula(self):
        # Any orderings, including t > 1 and s >= 1, and rows with t = 1.
        gen = RngStream(4).generator()
        for k, modes in enumerate((1, 2, 5, 17, 64)):
            transfer = random_contraction(modes, 200 + k)
            s = gen.uniform(-1.0, 1.5, modes)
            t = np.where(gen.random(modes) < 0.5, 1.0, gen.uniform(-1.0, 1.5, modes))
            assert np.max(np.abs(sigma_matrix(transfer, s, t)
                                 - dense_sigma(transfer, s, t))) <= 1e-12


class TestTransitionFactor:
    @pytest.mark.parametrize("seed", range(12))
    def test_factor_reproduces_sigma_bar(self, seed):
        # Mixed sources (SPDC included), heterogeneous detectors, and on some
        # seeds dead detectors and p_d = 0 modes.
        modes = 2 + seed % 9
        config = random_mixed_config(300 + seed, modes, dark_modes=seed % 3,
                                     dead_modes=(seed // 3) % 2)
        assert check_second_condition(config).simulatable
        s, t = s_bar_vector(config), t_bar_vector(config)
        factor = dense_factor(config.transfer, s, t)
        sigma = sigma_matrix(config.transfer, s, t)
        assert np.max(np.abs(factor.conj().T @ factor - sigma / 2.0)) <= 1e-12

    @pytest.mark.parametrize("config", [dead_detector_beamsplitter(0.5)] + [
        random_mixed_config(340 + seed, 3 + seed, dead_modes=1 + seed % 2) for seed in range(6)])
    def test_dead_modes_leave_the_factor(self, config):
        # Exact on the live modes' block of Sigma_bar, which is all the
        # verdict asks to be PSD; a dead mode, its column of L zeroed, only
        # gets noise of its own.
        s, t = s_bar_vector(config), t_bar_vector(config)
        dead = np.array([det.eta_d == 0.0 for det in config.detectors])
        assert check_second_condition(config).simulatable and dead.any()
        c_h, g, scale = transition_factor(live_transfer(config), s, t)
        factor = (np.eye(config.modes) - c_h @ g) * scale
        cov = factor.conj().T @ factor
        live = np.ix_(~dead, ~dead)
        assert np.max(np.abs(cov[live] - sigma_matrix(config.transfer, s, t)[live] / 2.0)) <= 1e-12
        assert np.allclose(cov[np.ix_(dead, dead)], np.diag(scale[dead] ** 2), atol=1e-12)

    def test_rank_of_the_correction_is_the_nonclassical_port_count(self):
        config = random_mixed_config(320, 9)
        c_h, g, scale = transition_factor(config.transfer, s_bar_vector(config),
                                          t_bar_vector(config))
        rank = int(np.sum(t_bar_vector(config) < 1.0))
        assert c_h.shape == (9, rank) and g.shape == (rank, 9) and scale.shape == (9,)

    def test_psd_only_within_tolerance_stays_within_tolerance(self):
        # A mode with a tiny 1 - s_bar and a column of B a hair above it
        # passes the verdict; whitening must not amplify that excess.
        gen = RngStream(5).generator()
        transfer = 0.6 * haar_unitary(4, RngStream(6))
        t = np.array([-1.0, 0.2, 1.0, 1.0])
        d = np.array([2e-13, 1.5, 1.5, 0.0])
        transfer[:, 3] = 0.0
        transfer[:2, 0] = gen.normal(size=2) * 2e-6
        s = 1.0 - d
        sigma = sigma_matrix(transfer, s, t)
        assert -1e-10 <= np.linalg.eigvalsh(sigma)[0] < 0.0
        factor = dense_factor(transfer, s, t)
        assert np.max(np.abs(factor.conj().T @ factor - sigma / 2.0)) <= 1e-10


def transition(transfer, s, t, alpha, seed, size):
    """``size`` draws of beta given one input amplitude row alpha."""
    transfer = np.asarray(transfer, dtype=complex)
    alpha = np.tile(np.asarray(alpha, dtype=complex), (size, 1))
    return sample_transition(alpha, transfer, transition_factor(transfer, s, t),
                             RngStream(seed).generator())


class TestTransitionSample:
    def test_delta_transition_is_deterministic_and_stable(self):
        u = haar_unitary(4, RngStream(5))
        alpha = np.array([1.0, 0.0, 0.3j, -0.2])
        beta1 = transition(u, np.ones(4), np.ones(4), alpha, 6, 1)
        beta2 = transition(u, np.ones(4), np.ones(4), alpha, 7, 1)
        assert np.array_equal(beta1[0], alpha @ u)
        assert np.array_equal(beta1, beta2)

    def test_full_loss_outputs_vacuum_wigner_noise(self):
        draws = 100_000
        transfer = np.zeros((2, 2), dtype=complex)
        alpha = np.array([3.0, -1.0 + 2.0j])
        beta = transition(transfer, np.zeros(2), np.zeros(2), alpha, 8, draws)
        for k in range(2):
            mean_sq = np.mean(np.abs(beta[:, k]) ** 2)
            assert abs(mean_sq - 0.5) <= 5 * 0.5 / math.sqrt(draws)

    def test_single_mode_moments(self):
        draws = 100_000
        transfer = np.array([[math.sqrt(0.5)]])
        beta = transition(transfer, [0.0], [0.0], np.array([2.0 + 0.0j]), 9, draws)
        center = 2.0 * math.sqrt(0.5)
        var = np.mean(np.abs(beta - center) ** 2)
        assert abs(var - 0.25) <= 5 * 0.25 / math.sqrt(draws)

    def test_classical_measurement_preset_is_always_proper(self):
        # s = t = -1, classical (heterodyne-like) measurement, keeps the
        # transition Gaussian proper for every contraction.
        for seed in range(5):
            transfer = random_contraction(3, 60 + seed, scale=np.sqrt(0.6))
            s = np.full(3, -1.0)
            beta = transition(transfer, s, s, np.zeros(3, dtype=complex), seed, 10)
            assert beta.shape == (10, 3) and np.all(np.isfinite(beta))

    def test_noise_covariance_is_half_sigma_bar(self):
        draws = 200_000
        config = random_mixed_config(330, 3)
        s, t = s_bar_vector(config), t_bar_vector(config)
        beta = transition(config.transfer, s, t, np.zeros(3, dtype=complex), 11, draws)
        target = sigma_matrix(config.transfer, s, t) / 2.0
        emp = beta.conj().T @ beta / draws
        for i in range(3):
            for j in range(3):
                se = np.sqrt(target[i, i].real * target[j, j].real / draws)
                assert abs(emp[i, j] - target[i, j]) <= 6 * se


class TestUniformLoss:
    def test_paper_scale_values(self):
        assert uniform_loss_eta(0.98, 2, 10) == pytest.approx(0.94, abs=0.005)
        assert uniform_loss_eta(0.98, 2, 1600) == pytest.approx(0.81, abs=0.005)

    def test_lossless_elements(self):
        for modes in [1, 2, 37]:
            assert uniform_loss_eta(1.0, 2, modes) == 1.0

    def test_single_mode_network_is_lossless_path(self):
        assert uniform_loss_eta(0.9, 2, 1) == pytest.approx(1.0)


class TestPropagateGaussian:
    def test_vacuum_invariance_under_unitary(self):
        u = haar_unitary(3, RngStream(11))
        mean, cov = propagate_gaussian(np.zeros(6), np.eye(6), u)
        assert np.allclose(cov, np.eye(6), atol=1e-12)
        assert np.allclose(mean, 0.0)

    def test_coherent_transport(self):
        u = haar_unitary(2, RngStream(12))
        amp = np.array([1.0 + 0.5j, -0.3j])
        mean = np.empty(4)
        mean[0::2], mean[1::2] = 2 * amp.real, 2 * amp.imag
        out_mean, out_cov = propagate_gaussian(mean, np.eye(4), u)
        moved = amp @ u
        assert np.allclose(out_mean[0::2], 2 * moved.real, atol=1e-12)
        assert np.allclose(out_mean[1::2], 2 * moved.imag, atol=1e-12)
        assert np.allclose(out_cov, np.eye(4), atol=1e-12)

    def test_spdc_loss_composition(self):
        r, eta_b, eta_l = 0.7, 0.4, 0.6
        transfer = np.diag([1.0, math.sqrt(eta_l)]).astype(complex)
        _, cov = propagate_gaussian(*SpdcPair(r, eta_b).wigner_moments(), transfer)
        _, expected = SpdcPair(r, eta_b * eta_l).wigner_moments()
        assert np.allclose(cov, expected, atol=1e-12)

    def test_composition_equals_product(self):
        l1 = random_contraction(3, 20, scale=0.9)
        l2 = random_contraction(3, 21, scale=np.sqrt(0.7))
        gen = RngStream(22).generator()
        raw = gen.standard_normal((6, 6))
        cov = raw @ raw.T / 6 + np.eye(6)
        state = (gen.standard_normal(6), cov)
        a_mean, a_cov = propagate_gaussian(*propagate_gaussian(*state, l1), l2)
        b_mean, b_cov = propagate_gaussian(*state, l1 @ l2)
        assert np.max(np.abs(a_cov - b_cov)) <= 1e-10
        assert np.max(np.abs(a_mean - b_mean)) <= 1e-10

    def test_passive_network_never_creates_photons(self):
        gen = RngStream(23).generator()
        for seed in range(5):
            transfer = random_contraction(3, 30 + seed, scale=np.sqrt(0.8))
            raw = gen.standard_normal((6, 6))
            cov = raw @ raw.T / 3 + np.eye(6)
            _, out_cov = propagate_gaussian(np.zeros(6), cov, transfer)
            photons_in = np.trace(cov - np.eye(6)) / 4
            photons_out = np.trace(out_cov - np.eye(6)) / 4
            assert photons_out <= photons_in + 1e-12

    def test_quadrature_rep_is_a_homomorphism(self):
        a = random_contraction(3, 40)
        b = random_contraction(3, 41)
        assert np.allclose(quadrature_rep(a @ b),
                           quadrature_rep(a) @ quadrature_rep(b), atol=1e-13)
        assert np.allclose(quadrature_rep(a.conj().T), quadrature_rep(a).T, atol=1e-13)

    @pytest.mark.parametrize("mean,cov", [
        (np.zeros(6), np.eye(4)),        # three modes' mean on two modes
        (np.zeros(4), np.eye(6)),        # three modes' covariance
        (np.zeros((2, 2)), np.eye(4)),   # mean not a vector
        (np.zeros(4), np.eye(4)[:, :3]),  # covariance not square
    ])
    def test_rejects_mismatched_shapes(self, mean, cov):
        with pytest.raises(DimensionError, match="2-mode network"):
            propagate_gaussian(mean, cov, np.eye(2, dtype=complex))

    def test_rejects_an_asymmetric_covariance(self):
        cov = np.eye(4)
        cov[0, 2] = 0.1
        with pytest.raises(DimensionError, match="symmetric"):
            propagate_gaussian(np.zeros(4), cov, np.eye(2, dtype=complex))

    def test_symmetrizes_roundoff(self):
        cov = np.eye(4)
        cov[0, 2] = 1e-13
        _, out = propagate_gaussian(np.zeros(4), cov, np.eye(2, dtype=complex))
        assert np.array_equal(out, out.T) and out[0, 2] == pytest.approx(5e-14, abs=1e-15)


def random_gaussian_config(seed: int) -> ExperimentConfig:
    """All-Gaussian sources (port 0 always vacuum) on a network with
    non-uniform loss L = U1 diag(sqrt(eta)) U2."""
    gen = RngStream(900 + seed).generator()
    modes = int(gen.integers(2, 9))
    transfer = (haar_unitary(modes, RngStream(2 * seed))
                * np.sqrt(gen.uniform(0.2, 1.0, modes))) @ haar_unitary(modes, RngStream(2 * seed + 1))
    ports = [int(p) for p in gen.permutation(modes)]
    sources = [PortSource(Vacuum(), (ports.pop(0),))]
    while ports:
        kind = int(gen.integers(4)) if len(ports) > 1 else int(gen.integers(3))
        if kind == 3:
            pair = SpdcPair(gen.uniform(0.05, 1.2), gen.uniform(0.0, 1.0))
            sources.append(PortSource(pair, (ports.pop(), ports.pop())))
            continue
        source = (Vacuum(), Coherent(complex(*gen.normal(size=2))),
                  Thermal(gen.uniform(0.0, 1.5)))[kind]
        sources.append(PortSource(source, (ports.pop(),)))
    return ExperimentConfig(modes=modes, sources=tuple(sources), transfer=transfer,
                            detectors=(DetectorModel(0.9, 0.1),) * modes)


def stacked_moments(config):
    """The sources' Wigner moments as one block-diagonal 2M-quadrature input."""
    modes = config.modes
    mean, cov = np.zeros(2 * modes), np.zeros((2 * modes, 2 * modes))
    for entry in config.sources:
        block_mean, block_cov = entry.source.wigner_moments()
        idx = np.array([2 * p + q for p in entry.ports for q in (0, 1)])
        mean[idx] = block_mean
        cov[np.ix_(idx, idx)] = block_cov
    return mean, cov


def dense_output_moments(config):
    """The unstructured route-1 formula: the block-diagonal input moments
    sent through B^T cov B + B(I - L^dag L), all dense 2M x 2M."""
    modes = config.modes
    mean, cov = stacked_moments(config)
    b = quadrature_rep(config.transfer)
    loss = np.eye(modes) - config.transfer.conj().T @ config.transfer
    return mean @ b, b.T @ cov @ b + quadrature_rep(loss)


class TestOutputFromBlocks:
    def test_blocks_match_the_dense_formula(self):
        kinds = set()
        for seed in range(40):
            config = random_gaussian_config(seed)
            kinds |= {type(entry.source).__name__ for entry in config.sources}
            out_mean, out_cov = output_gaussian(config)
            mean, cov = dense_output_moments(config)
            assert np.max(np.abs(out_cov - cov)) <= 1e-12, seed
            assert np.max(np.abs(out_mean - mean)) <= 1e-12, seed
            assert np.array_equal(out_cov, out_cov.T)
        assert kinds == {"Vacuum", "Coherent", "Thermal", "SpdcPair"}

    @pytest.mark.parametrize("config", [
        pytest.param(config, id=name) for name, config, _, _ in oracle_suite()
        if not any(isinstance(entry.source, MixedSinglePhoton) for entry in config.sources)
        and all(det.eta_d > 0.0 for det in config.detectors)])
    def test_whole_input_matches_the_source_groups(self, config):
        # propagate_gaussian sends the stacked input through Q = quadrature_rep(L)
        # densely; output_gaussian goes through block_rows' source groups.
        mean, cov = propagate_gaussian(*stacked_moments(config), config.transfer)
        out_mean, out_cov = output_gaussian(config)
        assert np.max(np.abs(cov - out_cov)) <= 1e-12
        assert np.max(np.abs(mean - out_mean)) <= 1e-12

    def test_all_vacuum_input_is_the_vacuum(self):
        transfer = 0.7 * haar_unitary(3, RngStream(5))
        config = ExperimentConfig(modes=3, sources=tuple(PortSource(Vacuum(), (k,)) for k in range(3)),
                                  transfer=transfer, detectors=(DetectorModel(0.9, 0.1),) * 3)
        mean, cov = output_gaussian(config)
        assert np.array_equal(cov, np.eye(6)) and not np.any(mean)

    def test_rectangular_quadrature_rows_are_rows_of_the_square_rep(self):
        a = random_contraction(4, 42)
        assert np.array_equal(quadrature_rep(a[[2, 0]]), quadrature_rep(a)[[4, 5, 0, 1]])
