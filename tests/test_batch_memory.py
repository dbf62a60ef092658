"""A run's dense stages run over row tiles, on one thread pool: memory,
stream layout and scheduling."""

import math
import os
import sys
import threading
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

import pqsim.sampler
from pqsim import RngStream
from pqsim.detectors import click_coefficients
from pqsim.presets import single_photon_config, spdc_config
from pqsim.linalg import PSD_TOL
from pqsim.processes import block_rows, transition_factor
from pqsim.sampler import (
    BATCH_SIZE,
    TILE_ELEMENTS,
    SampleBatch,
    empirical_stats,
    run_condition1,
    run_condition2,
    tile_rows,
    tile_workers,
    usable_cpus,
)
from pqsim.simulability import check_second_condition, s_bar_vector
from pqsim.states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum, sample_source_pqd

from conftest import single_photon_click_marginals, sparse_mixed_config

#: One source's draw temporaries over a batch: 1.5 MiB for a single-photon
#: draw of 16384 shots.
DRAW_BYTES = 2 * 2**20


def traced_peak(run, config, n_samples, workers=2):
    tracemalloc.start()
    try:
        run(config, n_samples, RngStream(1), workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_bound(config, n, amplitude_ports, workers):
    """What a run may hold at its peak, with |S| = |A| = ``amplitude_ports``
    (route 2's photon ports on the single-photon presets, 0 on route 1):

    * the output once, and DRAW_BYTES of one batch's draw temporaries;
    * one workspace per thread, two float (tile rows, 2M) buffers, and each
      thread's (tile rows, |S|) product with the noise factor's C^dag;
    * route 2's set-up rows (the mixing rows and the noise factor's C^dag
      and G, |A| x M each) and the input amplitudes (batch rows, |A|) of
      the batches alive at once.  A batch is drawn once at most
      ``threads`` tiles are unfinished, so threads + 1 batches are alive
      when each is one tile, and 2 when a batch has ``threads`` tiles or
      more.

    No batch copy of the output, nothing of size BATCH_SIZE x M in floats
    and no per-tile temporary of tile size."""
    m = config.modes
    threads = tile_workers(m, n, workers)
    rows, step = min(n, BATCH_SIZE), min(n, BATCH_SIZE, tile_rows(m))
    alive = min(-(-n // BATCH_SIZE), 1 + -(-threads // -(-rows // step)))
    per_thread = 32 * step * m + 16 * step * amplitude_ports
    amplitudes = 16 * (alive * rows + 3 * m) * amplitude_ports
    return n * m + DRAW_BYTES + threads * per_thread + amplitudes


class TestBatchMemory:
    @pytest.mark.parametrize("run,config,amplitude_ports", [
        (run_condition2, single_photon_config(256, 12, p_d=0.06), 12),
        (run_condition1, spdc_config(64, 0.05, p_d=0.06), 0),
    ])
    def test_peak_is_bounded_by_output_and_tiles(self, run, config, amplitude_ports):
        n = 16384
        assert traced_peak(run, config, n) <= peak_bound(config, n, amplitude_ports, 2)

    @pytest.mark.parametrize("run,config,amplitude_ports,shots", [
        (run_condition2, single_photon_config(16, 4, p_d=0.06), 4, 12 * BATCH_SIZE),
        (run_condition2, single_photon_config(256, 12, p_d=0.06), 12, 4 * BATCH_SIZE),
        (run_condition1, spdc_config(2, 0.01, p_d=0.06), 0, 12 * BATCH_SIZE),
    ], ids=["route2-one-tile-batches", "route2-16-tile-batches", "route1-one-tile-batches"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_multi_batch_peak_holds_only_the_batches_in_flight(self, run, config,
                                                               amplitude_ports, shots, workers):
        # Every batch's input amplitudes together take 12 MiB at M = 16 and
        # at M = 256; the bound allows those of 2-4 batches (2-4 MiB) and of
        # 2 batches (6 MiB).
        peak = traced_peak(run, config, shots, workers)
        assert peak <= peak_bound(config, shots, amplitude_ports, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_paper_size_batch_holds_its_outcomes_once(self, workers):
        # 16 MiB of outcomes, 8 MiB of input amplitudes and 8 MiB per
        # workspace; a second copy of the outcomes would add 16 MiB.
        config = single_photon_config(1024, 32, p_d=0.06)
        n = 16384
        peak = traced_peak(run_condition2, config, n, workers)
        assert peak <= peak_bound(config, n, 32, workers)

    def test_block_rows_holds_a_groups_rows_at_most_twice(self):
        # Route 1's set-up at t0 on the SPDC preset: one size group of 64
        # pairs, so its quadrature rows q and the returned rows (0.5 MiB
        # each).  Holding the group's product, its scaled copy and a stacked
        # copy as well peaked at 1.59 MiB.
        config = spdc_config(64, 0.05, p_d=0.06)
        blocks = [(entry.ports, *entry.source.wigner_moments()) for entry in config.sources]
        t0 = min(entry.source.t_bar for entry in config.sources)
        tracemalloc.start()
        try:
            _, rows, _ = block_rows(blocks, config.transfer, t0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (256, 256)
        assert peak <= 2.5 * rows.nbytes


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
# full batch ending in a partial tile, then a 7-row batch of one tile.  At
# M = 1024 and M = 256 the full batch is 64 or 16 whole tiles.
MODES, SHOTS = 100, BATCH_SIZE + 7


class TestTiling:
    @pytest.mark.parametrize("run,config", [
        (run_condition2, single_photon_config(MODES, 10, p_d=0.06)),
        (run_condition1, spdc_config(MODES // 2, 0.05, p_d=0.06)),
        (run_condition2, single_photon_config(1024, 32, p_d=0.06)),
        (run_condition1, spdc_config(128, 0.05, p_d=0.06)),
        (run_condition2, single_photon_config(16, 4, p_d=0.06)),
        (run_condition1, spdc_config(2, 0.01, p_d=0.06)),
    ])
    def test_partial_tiles_are_identical_across_workers(self, run, config):
        # At M <= 16 a batch is one tile: three batches, the last partial,
        # give each of 3 workers a tile while the caller draws ahead.
        shots = SHOTS if tile_rows(config.modes) < BATCH_SIZE else 2 * BATCH_SIZE + 5
        serial = run(config, shots, RngStream(81), workers=1).outcomes
        assert serial.shape == (shots, config.modes)
        for workers in (2, 3):
            parallel = run(config, shots, RngStream(81), workers=workers).outcomes
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


def serial_first_tile_route2(config, n, gen):
    """Route 2's outcomes for the first tile of an n-row batch drawn from
    ``gen``, computed as the serial engine before the thread pool computed
    them: every source over the batch, then the tile's normals and
    uniforms, all from ``gen``."""
    report = check_second_condition(config)
    tbar, sbar = report.t_bar, report.s_bar
    c_h, g, scale = transition_factor(config.transfer, sbar, tbar)
    decay, keep = click_coefficients(sbar, config.detectors)
    active, draws = [], []
    for entry in config.sources:
        draw = sample_source_pqd(entry.source, tbar[list(entry.ports)], gen, n)
        if not isinstance(entry.source, Vacuum):
            active.extend(entry.ports)
            draws.append(draw)
    rows = min(n, tile_rows(config.modes))
    alpha = np.hstack(draws)[:rows]
    delta = gen.standard_normal((rows, 2 * config.modes)).view(complex)
    delta -= (delta @ c_h) @ g
    delta *= scale / np.sqrt(2.0)
    delta += alpha @ config.transfer[active]
    return serial_clicks(delta, decay, keep, gen)


def serial_first_tile_route1(config, n, gen):
    """Route 1's outcomes for the first tile of an n-row batch drawn from
    ``gen``, for an SPDC preset: its Gram matrix is diagonal and s0 >= s_bar,
    so the engine draws the sources' rows at t0 = min t_bar and clicks at
    s0 = 1 - (1 - t0) diag(L^dag L)."""
    t0 = min(entry.source.t_bar for entry in config.sources)
    lr, li = config.transfer.real, config.transfer.imag
    s0 = 1.0 - (1.0 - t0) * (np.einsum("ij,ij->j", lr, lr) + np.einsum("ij,ij->j", li, li))
    assert config.diagonal_gram and np.all(s0 >= s_bar_vector(config))
    blocks = [(entry.ports, *entry.source.wigner_moments()) for entry in config.sources]
    mean, block, lam = block_rows(blocks, config.transfer, t0)
    half_factor = block[lam > PSD_TOL] / 2.0
    decay, keep = click_coefficients(s0, config.detectors)
    rows = min(n, tile_rows(config.modes))
    quad = gen.standard_normal((rows, half_factor.shape[0])) @ half_factor
    quad += mean / 2.0
    return serial_clicks(quad.view(complex), decay, keep, gen)


def serial_clicks(beta, decay, keep, gen):
    parts = beta.view(float)
    np.square(parts, out=parts)
    p_click = parts[:, 0::2] + parts[:, 1::2]
    p_click *= decay
    np.exp(p_click, out=p_click)
    p_click *= keep
    np.subtract(1.0, p_click, out=p_click)
    return (gen.random(p_click.shape) < p_click).view(np.uint8)


class TestParallelTiles:
    @pytest.mark.parametrize("run,serial,config", [
        (run_condition2, serial_first_tile_route2, single_photon_config(MODES, 10, p_d=0.06)),
        (run_condition1, serial_first_tile_route1, spdc_config(MODES // 2, 0.05, p_d=0.06)),
        (run_condition2, serial_first_tile_route2, sparse_mixed_config(MODES)),
    ], ids=["route2", "route1", "route2-mixed"])
    def test_each_batch_first_tile_keeps_the_batch_stream(self, run, serial, config):
        rng = RngStream(85)
        outcomes = run(config, SHOTS, rng, workers=2).outcomes
        step = tile_rows(MODES)
        for b, start in enumerate(range(0, SHOTS, BATCH_SIZE)):
            n = min(BATCH_SIZE, SHOTS - start)
            expected = serial(config, n, rng.child(b).generator())
            assert np.array_equal(outcomes[start:start + min(n, step)], expected)

    def test_route2_batches_draw_only_the_non_vacuum_sources(self, monkeypatch):
        # A vacuum port's PQD at t_bar = 1 is a point mass that draws
        # nothing, so leaving it out keeps the stream (see the byte test).
        config = sparse_mixed_config(MODES)
        drawn = [entry.source for entry in config.sources if not isinstance(entry.source, Vacuum)]
        assert {type(source) for source in drawn} == {SpdcPair, MixedSinglePhoton, Coherent,
                                                      Thermal}
        assert len(config.sources) > len(drawn)
        calls = []

        def spy(source, t_block, gen, size):
            calls.append((source, size))
            return sample_source_pqd(source, t_block, gen, size)

        monkeypatch.setattr(pqsim.sampler, "sample_source_pqd", spy)
        run_condition2(config, SHOTS, RngStream(88), workers=2)
        assert not any(isinstance(source, Vacuum) for source, _ in calls)
        assert calls == [(source, n) for n in (BATCH_SIZE, 7) for source in drawn]

    def test_later_tiles_draw_from_their_own_streams(self):
        # Tile 1 of batch 0 starts rng.child(0).child(1); route 1 draws
        # nothing before its tiles, so its first row is that stream's.
        config = spdc_config(MODES // 2, 0.05, p_d=0.06)
        step = tile_rows(MODES)
        rng = RngStream(86)
        tiled = run_condition1(config, 2 * step, rng, workers=2).outcomes
        expected = serial_first_tile_route1(config, step, rng.child(0).child(1).generator())
        assert np.array_equal(tiled[step:], expected)

    @pytest.mark.parametrize("modes,shots", [(16, BATCH_SIZE), (MODES, 0)])
    def test_no_pool_when_the_run_is_one_tile(self, monkeypatch, modes, shots):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(pqsim.sampler, "ThreadPoolExecutor", refuse)
        config = single_photon_config(modes, 4, p_d=0.06)
        assert len(run_condition2(config, shots, RngStream(87), workers=4)) == shots
        for wide, tiled in [(MODES, 3 * tile_rows(MODES)), (16, BATCH_SIZE + 1)]:
            with pytest.raises(AssertionError, match="thread pool"):
                run_condition2(single_photon_config(wide, 4, p_d=0.06), tiled,
                               RngStream(87), workers=4)

    def test_batches_are_drawn_in_order_on_the_calling_thread(self, monkeypatch):
        # Single-tile batches at 3 workers: the caller draws ahead while
        # earlier batches' tiles run on the pool.  A Philox key is (seed,
        # stream id), so it names the batch stream each draw came from.
        config = single_photon_config(16, 4, p_d=0.06)
        calls = []

        def spy(source, t_block, gen, size):
            calls.append((threading.get_ident(), int(gen.bit_generator.state["state"]["key"][1]),
                          size))
            return sample_source_pqd(source, t_block, gen, size)

        monkeypatch.setattr(pqsim.sampler, "sample_source_pqd", spy)
        rng = RngStream(89)
        shots = 5 * BATCH_SIZE + 5
        run_condition2(config, shots, rng, workers=3)
        photons = [entry for entry in config.sources if not isinstance(entry.source, Vacuum)]
        assert len(photons) == 4
        assert calls == [(threading.get_ident(), rng.child(b).stream_id,
                          min(BATCH_SIZE, shots - start))
                         for b, start in enumerate(range(0, shots, BATCH_SIZE))
                         for _ in photons]

    def test_bytes_hold_with_more_workers_than_cores_and_short_switches(self):
        # Tiles of consecutive batches share the run's workspaces and
        # output; two tiles on one workspace would corrupt the bytes.
        config = single_photon_config(16, 4, p_d=0.06)
        shots = 6 * BATCH_SIZE + 5
        serial = run_condition2(config, shots, RngStream(91), workers=1).outcomes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_condition2(config, shots, RngStream(91),
                                      workers=2 * usable_cpus() + 1).outcomes
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial, parallel)

    def test_a_failing_tile_stops_the_run(self, monkeypatch):
        # Six single-tile batches at 2 workers, batch 1's tile raising: the
        # caller draws batch b + 1 once at most 2 tiles are unfinished, so it
        # meets the error while waiting to draw batch 4.
        class TileFailed(RuntimeError):
            pass

        run_batched = pqsim.sampler._run_batched
        drawn = []

        def failing_batch_1(draw_batch, *args):
            def draw(gen, n):
                drawn.append(len(drawn))
                tile = draw_batch(gen, n)
                if drawn[-1] != 1:
                    return tile

                def fail(*tile_args):
                    raise TileFailed("batch 1")
                return fail
            return run_batched(draw, *args)

        monkeypatch.setattr(pqsim.sampler, "_run_batched", failing_batch_1)
        before = set(threading.enumerate())
        with pytest.raises(TileFailed, match="batch 1"):
            pqsim.sampler.run_experiment(single_photon_config(16, 4, p_d=0.06),
                                         6 * BATCH_SIZE, RngStream(90), workers=2)
        assert drawn == [0, 1, 2, 3]
        assert set(threading.enumerate()) <= before

    def test_workers_default_to_the_usable_cpus(self):
        expected = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count())
        assert usable_cpus() == expected
        assert tile_workers(1024, BATCH_SIZE) == min(expected, BATCH_SIZE // 256)

    @pytest.mark.parametrize("modes,shots,workers,threads", [
        (16, 10**6, 8, 8),                                      # one tile per batch
        (16, 2 * BATCH_SIZE + 5, 8, 3),
        (16, BATCH_SIZE, 8, 1),                                 # one tile in the run
        (MODES, 0, 8, 1),                                       # nothing to draw
        (MODES, SHOTS, 64, math.ceil(BATCH_SIZE / 2621) + 1),   # capped at the tiles
        (MODES, 2621 + 1, 8, 2),
        (1024, BATCH_SIZE, 3, 3),
    ])
    def test_threads_are_capped_at_the_tiles_of_the_run(self, modes, shots, workers, threads):
        assert tile_workers(modes, shots, workers) == threads
