"""Route 1's two set-ups.  With a diagonal Gram matrix L^dag L = diag(k)
and s0 = 1 - (1 - t0) k >= s_bar (t0 = min t_bar, k from L with dead columns zeroed), the
engine draws from the sources' blocks at t0: R^T R = V_out - diag(s0), one
row per rank of a block.  Everywhere else it factors V_out - diag(s_bar) as
before, with the same bytes."""

import hashlib
import math

import numpy as np
import pytest

import pqsim.sampler
from pqsim import DetectorModel, RngStream
from pqsim.detectors import click_coefficients
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import PSD_TOL, haar_unitary, validate_transfer
from pqsim.oracle import exact_distribution, tv_distance
from pqsim.sampler import output_gaussian, run_condition1
from pqsim.simulability import live_transfer, s_bar_vector
from pqsim.states import Coherent, SpdcPair, Thermal, Vacuum, sample_gaussian_pqd

from conftest import route1_dead_detector_config


def dark_above_s0(eta_d, t0, k, margin=1.2):
    """A random-count probability that puts s_bar below s0 = 1 - (1 - t0) k."""
    return min(1.0, margin * eta_d * (1.0 - t0) * k / 2.0)


def haar_mix(seed):
    """Coherent, thermal, vacuum and two unequal SPDC pairs on sqrt(eta) U."""
    eta = 0.85
    sources = (PortSource(Coherent(0.4 - 0.3j), (0,)), PortSource(Thermal(0.15), (1,)),
               PortSource(Vacuum(), (2,)), PortSource(SpdcPair(0.3, 0.9), (3, 4)),
               PortSource(SpdcPair(0.15, 0.6), (6, 5)))
    t0 = min(entry.source.t_bar for entry in sources)
    return ExperimentConfig(
        modes=7, sources=sources,
        transfer=math.sqrt(eta) * haar_unitary(7, RngStream(seed)),
        detectors=(DetectorModel(0.9, dark_above_s0(0.9, t0, eta)),) * 7)


def direct_sum(seed):
    """Heralds on the identity, signals on sqrt(0.8) U (k = 1, 1, 1, 0.8,
    0.8, 0.8), two unequal pairs, vacuum and thermal light, and a dead
    detector on mode 2."""
    transfer = np.eye(6, dtype=complex)
    transfer[3:, 3:] = math.sqrt(0.8) * haar_unitary(3, RngStream(seed))
    sources = (PortSource(SpdcPair(0.25, 0.7), (0, 3)), PortSource(SpdcPair(0.1, 1.0), (1, 4)),
               PortSource(Vacuum(), (2,)), PortSource(Thermal(0.1), (5,)))
    t0 = min(entry.source.t_bar for entry in sources)
    live = DetectorModel(0.95, dark_above_s0(0.95, t0, 1.0))
    return ExperimentConfig(modes=6, sources=sources, transfer=transfer,
                            detectors=(live, live, DetectorModel(0.0, 0.2)) + (live,) * 3)


def classical(seed):
    """Coherent, thermal and vacuum light with p_d = 0: t0 = s0 = 1, the
    P-function draw."""
    sources = (PortSource(Coherent(0.35), (0,)), PortSource(Thermal(0.08), (1,)),
               PortSource(Vacuum(), (2,)))
    return ExperimentConfig(modes=3, sources=sources,
                            transfer=math.sqrt(0.8) * haar_unitary(3, RngStream(seed)),
                            detectors=(DetectorModel(0.85, 0.0),) * 3)


def row_scaled():
    """Unequal loss on the output rows: L^dag L = U^dag D U is not diagonal."""
    return ExperimentConfig(
        modes=4,
        sources=(PortSource(SpdcPair(0.3, 0.9), (0, 1)), PortSource(Coherent(0.4 - 0.1j), (2,)),
                 PortSource(Thermal(0.1), (3,))),
        transfer=np.diag(np.sqrt([0.95, 0.85, 0.9, 0.8])) @ haar_unitary(4, RngStream(21)),
        detectors=(DetectorModel(0.9, 0.3),) * 4)


def route1_setup(monkeypatch, config):
    """The per-shot factor and the click orderings route 1 samples with."""
    seen = {}

    def spy_draw(factor, *args, **kwargs):
        seen.setdefault("factor", factor)
        return sample_gaussian_pqd(factor, *args, **kwargs)

    def spy_clicks(s, detectors):
        seen["s"] = np.array(s)
        return click_coefficients(s, detectors)

    monkeypatch.setattr(pqsim.sampler, "sample_gaussian_pqd", spy_draw)
    monkeypatch.setattr(pqsim.sampler, "click_coefficients", spy_clicks)
    run_condition1(config, 1, RngStream(0))
    return seen["factor"], seen["s"]


FAST = [pytest.param(build, seed, id=f"{build.__name__}-{seed}")
        for build in (haar_mix, direct_sum, classical) for seed in (1, 2)]


class TestSourceBlockFactor:
    @pytest.mark.parametrize("build, seed", FAST)
    def test_rows_factor_the_output_state_at_s0(self, monkeypatch, build, seed):
        config = build(seed)
        (half_mean, half_factor), s = route1_setup(monkeypatch, config)
        t0 = min(entry.source.t_bar for entry in config.sources)
        # k from L with dead columns zeroed: s0 = 1 on a dead mode, which
        # carries vacuum; the live modes keep the full L's s0.
        live = np.array([det.eta_d > 0.0 for det in config.detectors])
        k = np.sum(np.abs(config.transfer) ** 2, axis=0)
        assert np.array_equal(np.sum(np.abs(live_transfer(config)) ** 2, axis=0), k * live)
        s0 = 1.0 - (1.0 - t0) * k * live
        assert np.all(s0 >= s_bar_vector(config))
        assert np.max(np.abs(s - s0)) <= 1e-14

        mean, cov = output_gaussian(config)
        rows = 2.0 * half_factor
        gap = rows.T @ rows - (cov - np.diag(np.repeat(s0, 2)))
        assert np.max(np.abs(gap)) <= 1e-12
        assert np.max(np.abs(2.0 * half_mean - mean)) <= 1e-14

        ranks = sum(np.count_nonzero(np.linalg.eigvalsh(
            entry.source.wigner_moments()[1] - t0 * np.eye(2 * len(entry.ports))) > PSD_TOL)
            for entry in config.sources)
        assert rows.shape == (ranks, 2 * config.modes)
        if build is classical:
            assert t0 == 1.0 and np.all(s == 1.0) and ranks == 2

    @pytest.mark.parametrize("config, digest", [
        (row_scaled(), "09e80457fae4b95b2d834b0913f7f192c03c3da9f2de3bb6be23709c2ee7e7e1"),
        # s0 = 0.549 < s_bar = 0.739 on the live modes.
        (route1_dead_detector_config(0.1174),
         "94fa5e529b2c97670b52f8f7275ad8b800595aa2c3f77f90557264dd928c0ee1"),
    ], ids=["off-diagonal-gram", "s0-below-s-bar"])
    def test_other_configs_factor_at_s_bar_with_unchanged_bytes(self, monkeypatch, config,
                                                               digest):
        (_, half_factor), s = route1_setup(monkeypatch, config)
        assert half_factor.shape == (2 * config.modes, 2 * config.modes)
        assert np.array_equal(s, s_bar_vector(config))
        batch = run_condition1(config, 2000, RngStream(2027))
        assert hashlib.sha256(batch.to_csv_bytes()).hexdigest() == digest

    def test_diagonal_gram_is_read_off_the_contraction_test(self):
        assert not row_scaled().diagonal_gram
        assert direct_sum(1).diagonal_gram and classical(1).diagonal_gram
        # An off-diagonal entry eps of L puts sqrt(2) * 0.9 * eps off the Gram's diagonal.
        near = np.array([[0.9, 1e-12], [0.0, 0.8]], dtype=complex)
        matrix, diagonal = validate_transfer(near, diagonal_gram=True)
        assert np.array_equal(matrix, near) and diagonal is True
        far = np.array([[0.9, 1e-9], [0.0, 0.8]], dtype=complex)
        assert validate_transfer(far, diagonal_gram=True)[1] is False

    @pytest.mark.parametrize("config", [
        classical(3),
        # The dead-detector config above with p_d = 0.25 takes this set-up.
        route1_dead_detector_config(0.25),
    ], ids=["classical-p_d-0", "spdc-vacuum-dead-detector"])
    def test_matches_oracle(self, monkeypatch, config):
        (_, half_factor), _ = route1_setup(monkeypatch, config)
        assert half_factor.shape[0] < 2 * config.modes
        draws = 200_000
        table = exact_distribution(config)
        batch = run_condition1(config, draws, RngStream(76))
        bound = max(0.01, 3 * math.sqrt(len(table.outcomes) / draws))
        assert tv_distance(table, batch) <= bound
