"""A batch's dense stages run over row tiles: memory and stream layout."""

import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from pqsim import RngStream
from pqsim.presets import single_photon_config, spdc_config
from pqsim.sampler import (
    BATCH_SIZE,
    TILE_ELEMENTS,
    SampleBatch,
    empirical_stats,
    run_condition1,
    run_condition2,
)

from conftest import single_photon_click_marginals

#: Every complex (rows, M) temporary of one full tile is 16 * TILE_ELEMENTS bytes.
TILE_BYTES = 16 * TILE_ELEMENTS


def traced_peak(run, config, n_samples):
    tracemalloc.start()
    try:
        run(config, n_samples, RngStream(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchMemory:
    # The output and the batch's copy of it, plus route 2's input
    # amplitudes (n, |A|), plus a few tile-sized temporaries; nothing of
    # size BATCH_SIZE x M in floats.
    @pytest.mark.parametrize("run,config,amplitude_ports", [
        (run_condition2, single_photon_config(256, 12, p_d=0.06), 12),
        (run_condition1, spdc_config(64, 0.05, p_d=0.06), 0),
    ])
    def test_peak_is_bounded_by_output_and_tiles(self, run, config, amplitude_ports):
        n = 16384
        outcome_bytes = n * config.modes
        alpha_bytes = 16 * n * amplitude_ports
        bound = 2 * outcome_bytes + alpha_bytes + 4 * TILE_BYTES
        assert traced_peak(run, config, n) <= bound


class TestHistogramMemory:
    def test_peak_is_half_of_a_unicode_key_array(self):
        # 16384 distinct rows of 1024 modes: a numpy 'U' array of the keys
        # alone is 64 MiB, and building the histogram through one peaked at
        # 97 MiB.  The keys themselves, as Python strings, take 17.6 MiB.
        outcomes = (RngStream(90).generator().random((16384, 1024)) < 0.06).astype(np.uint8)
        batch = SampleBatch(outcomes, RngStream(0), "x", None)
        tracemalloc.start()
        try:
            stats = empirical_stats(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stats.histogram) == 16384
        assert peak <= 97 * 2**20 // 2


# M = 100 tiles a batch into 2621-row blocks: BATCH_SIZE + 7 shots give a
# full batch ending in a partial tile, then a 7-row batch of one tile.
MODES, SHOTS = 100, BATCH_SIZE + 7


class TestTiling:
    @pytest.mark.parametrize("run,config", [
        (run_condition2, single_photon_config(MODES, 10, p_d=0.06)),
        (run_condition1, spdc_config(MODES // 2, 0.05, p_d=0.06)),
    ])
    def test_partial_tiles_are_identical_across_workers(self, run, config):
        serial = run(config, SHOTS, RngStream(81), workers=1).outcomes
        parallel = run(config, SHOTS, RngStream(81), workers=2).outcomes
        assert serial.shape == (SHOTS, MODES)
        assert np.array_equal(serial, parallel)

    def test_tiled_click_rates_match_exact_marginals(self):
        config = single_photon_config(MODES, 10, p_d=0.06)
        exact = single_photon_click_marginals(config)
        outcomes = run_condition2(config, SHOTS, RngStream(82)).outcomes
        z_max = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * MODES))
        z = (outcomes.mean(axis=0) - exact) / np.sqrt(exact * (1.0 - exact) / SHOTS)
        assert np.max(np.abs(z)) <= z_max

    def test_tiles_draw_in_order_from_the_batch_stream(self):
        # Route 1 draws nothing before its tiles, so a batch's leading
        # tile does not depend on how many rows follow it.
        config = spdc_config(MODES // 2, 0.05, p_d=0.06)
        step = TILE_ELEMENTS // MODES
        short = run_condition1(config, step, RngStream(83)).outcomes
        longer = run_condition1(config, 2 * step + 5, RngStream(83)).outcomes
        assert np.array_equal(short, longer[:step])
        assert not np.array_equal(longer[:step], longer[step:2 * step])
