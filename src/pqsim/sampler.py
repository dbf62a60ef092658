"""Monte Carlo engines that draw detector outcomes from an experiment.

Two routes, one per sufficient condition; unless told otherwise, a run
takes the one its sources pick (:func:`default_route`).  :func:`setup`
builds either route's verdict, path and tile, and both engines are that
set-up plus one batch loop:

* :func:`run_condition2` chains input PQD draws, the network's transition
  Gaussian and the measurement PQDs; it works for any source mix that
  passes the Sigma_bar test.  :func:`route2_plan` picks its path from the
  sizes: the zero-noise chain at orderings (s0, t0) where the transition
  vanishes, or the rank-|S| path at the extreme orderings (s_bar, t_bar).
* :func:`run_condition1` samples the output-state PQD of an all-Gaussian
  input directly; it applies whenever that PQD and the click PQDs are
  nonnegative at one output ordering, which is weaker than the Sigma_bar
  test.  Where L^dag L is diagonal it is the same zero-noise chain, with
  every source in the Gaussian rows.

Each draw has one implementation, which both routes and the public API
share: :func:`~pqsim.states.sample_source_pqd` (input),
:func:`~pqsim.states.sample_gaussian_pqd` (a Gaussian PQD: an SPDC
pair's block, the chain's Gaussian rows, or route 1's whole output state),
:func:`~pqsim.processes.transition_noise` (network) and
:func:`~pqsim.detectors.sample_clicks` (detectors).  Sampling is batched,
and batch b runs as row tiles of at most :data:`TILE_ELEMENTS` rows x
modes.  A tile, ``tile(gen, out, work, spare)``, makes all its rows' draws
from its own stream ``gen`` (tile 0 ``rng.child(b)``, tile j >= 1
``rng.child(b).child(j)``) and writes their outcomes into ``out``, its slice
of the run's output.  All tiles queue on one pool of ``workers`` threads
(default :func:`usable_cpus`, the CPUs this process may use), each reusing
one workspace (``work``, ``spare``) made on the calling thread, so the bytes
depend only on (config, seed), and no temporary scales with BATCH_SIZE x M.

A run returns only its outcomes: the engines leave ``SampleBatch.counts``
``None`` and nothing reads it; :func:`empirical_stats` builds the histogram
on request, and :func:`~pqsim.oracle.tv_distance` counts the rows itself.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detectors import click_coefficients, sample_clicks
from .errors import NotPsdError, SimulabilityError
from .experiment import ExperimentConfig
from .processes import block_rows, propagate_blocks, transition_factor, transition_noise
from .rng import RngStream
from .simulability import check_second_condition, live_transfer, s_bar_vector
from .states import (SourceModel, Vacuum, gaussian_pqd_factor, sample_gaussian_pqd,
                     sample_source_pqd)

# Not called here; perfbench's tracer wraps these names and stops if one is missing.
from .linalg import psd_factor_complex, psd_factor_real, standard_complex_normal  # noqa: F401
from .processes import propagate_gaussian, sigma_matrix  # noqa: F401

#: Fixed batch granularity; part of the reproducibility contract.
BATCH_SIZE = 16384

#: Rows x modes per tile of a batch's dense stages; part of the
#: reproducibility contract.  A batch fits one tile whenever M <= 16.
TILE_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class SampleBatch:
    """Outcome samples plus the provenance needed to reproduce them; ``counts``
    is a positional slot nothing reads (the engines leave it None)."""

    outcomes: np.ndarray
    seed: RngStream
    config_hash: str
    counts: dict | None

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes, dtype=np.uint8)
        if outcomes.ndim != 2:
            raise ValueError("outcomes must be a (n_samples, modes) array")
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return self.outcomes.shape[0]

    @property
    def modes(self) -> int:
        return self.outcomes.shape[1]

    def to_csv_bytes(self) -> bytearray:
        return self._lines(b"", b"\n")

    def to_jsonl_bytes(self) -> bytearray:
        return self._lines(b'{"n":"', b'"}\n')

    def _lines(self, head: bytes, tail: bytes) -> bytearray:
        """One line per shot: ``head``, the outcome as ASCII '0'/'1' (mode 0
        first), ``tail``; written through a numpy view of the result."""
        width = len(head) + self.modes + len(tail)
        data = bytearray(len(self) * width)
        lines = np.frombuffer(data, dtype=np.uint8).reshape(len(self), width)
        lines[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
        np.add(self.outcomes, np.uint8(ord("0")), out=lines[:, len(head):width - len(tail)])
        lines[:, width - len(tail):] = np.frombuffer(tail, dtype=np.uint8)
        return data

    def write(self, path, fmt: str = "csv") -> None:
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown sample format {fmt!r}; expected 'csv' or 'jsonl'")
        data = self.to_csv_bytes() if fmt == "csv" else self.to_jsonl_bytes()
        with open(path, "wb") as fh:
            fh.write(data)


def _histogram(outcomes: np.ndarray) -> dict:
    """Count of each distinct outcome row, keyed by its bit string (mode 0
    first), in increasing key order.  Rows are packed 8 modes to a byte and
    counted as big-endian uint64 codes when they fit (M <= 64), else as byte
    strings; only the distinct rows are decoded, each key from its bytes."""
    m = outcomes.shape[1]
    packed = np.packbits(outcomes, axis=1)
    width = packed.shape[1]
    if width <= 8:
        codes = np.zeros((len(packed), 8), dtype=np.uint8)
        codes[:, :width] = packed
        keys, counts = np.unique(codes.view(">u8")[:, 0].astype(np.uint64), return_counts=True)
        keys, width = keys.astype(">u8"), 8
    else:
        keys, counts = np.unique(packed.view(f"S{width}")[:, 0], return_counts=True)
    del packed
    chars = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=m)
    chars += np.uint8(ord("0"))
    text = memoryview(chars.reshape(-1))
    return {str(text[start:start + m], "ascii"): count
            for start, count in zip(range(0, chars.size, m), counts.tolist())}


def usable_cpus() -> int:
    """CPUs this process may run on, the default worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def tile_rows(modes: int) -> int:
    """Rows of one full tile: at most :data:`TILE_ELEMENTS` rows x modes."""
    return max(1, TILE_ELEMENTS // modes)


def tile_workers(modes: int, n_samples: int, workers: int | None = None) -> int:
    """Threads a run of ``n_samples`` shots over ``modes`` modes works on:
    ``workers`` (default :func:`usable_cpus`) capped at the run's row tiles,
    counted over all its batches, so 1 when the whole run is one tile."""
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    workers = usable_cpus() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    full, rest = divmod(int(n_samples), BATCH_SIZE)
    tiles = full * -(-BATCH_SIZE // tile_rows(modes)) + -(-rest // tile_rows(modes))
    return max(1, min(workers, tiles))


def _run_batched(draw_batch, modes, n_samples, rng, workers, width):
    """Outcomes (n_samples, modes), batch by batch, the row tiles of all
    batches queued on one pool of :func:`tile_workers` threads.

    For batch b, ``draw_batch(gen, n)`` returns ``tile(gen, out, work,
    spare)``, which writes one tile's outcomes into ``out``, drawing only
    from ``gen``: ``rng.child(b)``'s for tile 0, ``rng.child(b).child(j)``'s
    for tile j >= 1, all made on the caller's thread, so the bytes depend on
    (n_samples, rng) alone.  Each thread's workspace, made here on the
    caller's thread, is ``work``, two C-contiguous float (len(out), 2 modes)
    buffers, and ``spare``, 1-d complex of len(out) x ``width`` entries.
    Batch b + 1 is queued once at most ``threads`` tiles are unfinished.
    """
    threads = tile_workers(modes, n_samples, workers)
    n_samples = int(n_samples)
    out = np.empty((n_samples, modes), dtype=np.uint8)
    step = tile_rows(modes)
    rows = min(step, n_samples, BATCH_SIZE)
    idle = queue.SimpleQueue()
    for _ in range(threads):
        idle.put((np.empty((2, rows, 2 * modes)), np.empty(rows * width, dtype=complex)))

    def run_tile(tile, gen, dest):
        work, spare = idle.get()
        try:
            tile(gen, dest, work[:, :len(dest)], spare[:len(dest) * width])
        finally:
            idle.put((work, spare))

    pool, pending = ThreadPoolExecutor(threads) if threads > 1 else None, []
    try:
        for b, start in enumerate(range(0, n_samples, BATCH_SIZE)):
            while len(pending) > threads:
                pending.pop(0).result()
            n = min(BATCH_SIZE, n_samples - start)
            stream = rng.child(b)
            tile, batch = draw_batch(gen := stream.generator(), n), out[start:start + n]
            for j, lo in enumerate(range(0, n, step)):
                job = (tile, stream.child(j).generator() if j else gen, batch[lo:lo + step])
                if pool is None:
                    run_tile(*job)
                else:
                    pending.append(pool.submit(run_tile, *job))
        for future in pending:
            future.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return out


#: Flops one standard normal draw is worth in :func:`route2_plan` (a draw
#: takes about 15 ns); any value from about 65 to 1e5 picks the same path
#: on every benchmark workload and at 1600 modes.
NORMAL_FLOPS = 1000


def _gaussian(source: SourceModel) -> bool:
    """Whether the source's kind declares ``wigner_moments``."""
    return type(source).wigner_moments is not SourceModel.wigner_moments


def _groups(config: ExperimentConfig, t: np.ndarray, keep) -> list:
    """(source, t_block, rows of L) per group of equal sources (frozen
    dataclass and orderings t) that ``keep`` picks: one draw per tile."""
    groups = {}
    for entry in (e for e in config.sources if keep(e.source)):
        groups.setdefault((entry.source, tuple(t[list(entry.ports)])), []).extend(entry.ports)
    return [(*key, config.transfer[ports]) for key, ports in groups.items()]


def _tile(first, draws, s, detectors):
    """``tile(gen, out, work, spare)``: beta = ``first(gen, n, work[0], work[1],
    spare)``, in work[0], plus alpha_g @ L_g for each group of :func:`_groups`,
    drawn into ``spare`` and read shot-major; then the clicks at orderings s."""
    clicks = click_coefficients(s, detectors)

    def tile(gen, out, work, spare):
        n = len(out)
        beta = first(gen, n, work[0], work[1], spare)
        for source, t_block, mixing in draws:
            alpha = spare[:n * len(mixing)]
            sample_source_pqd(source, t_block, gen, alpha.size // len(t_block),
                              out=alpha.reshape(-1, len(t_block)), work=work[1].reshape(-1))
            beta += np.matmul(alpha.reshape(n, -1), mixing, out=work[1].view(complex))
        sample_clicks(beta, clicks, gen, out=out, work=work[1])
    return tile


def _zero_noise(config: ExperimentConfig):
    """(t0, s0) with t0 = min t_bar and s0 = 1 - (1 - t0) k when L^dag L =
    diag(k), L :func:`live_transfer`'s, and s0 >= s_bar, else None.
    Sigma(s0, t0) = 0, so a chain at (s0, t0) adds no transition noise, and
    Sigma_bar >= 0."""
    if not config.diagonal_gram:
        return None
    t0 = min(entry.source.t_bar for entry in config.sources)
    transfer = live_transfer(config)
    lr, li = transfer.real, transfer.imag
    s0 = 1.0 - (1.0 - t0) * (np.einsum("ij,ij->j", lr, lr) + np.einsum("ij,ij->j", li, li))
    return (t0, s0) if np.all(s0 >= s_bar_vector(config)) else None


def route2_plan(config: ExperimentConfig) -> tuple[tuple | None, dict]:
    """(:func:`_zero_noise`'s (t0, s0) if route 2 takes the chain, else None;
    per-shot flops {"chain": ..., "rank_s": ...}).  With G Gaussian ports
    (vacuum included) of M, S the ports with t_bar < 1, A the non-vacuum
    ports and W = :data:`NORMAL_FLOPS`, the chain costs 2 G W + 8 M M (2G
    normals through R, the other ports through L) and the rank-|S| path
    2 M W + 8 M (2 |S| + |A|); the cheaper is taken if valid."""
    m, sources = config.modes, config.sources
    gaussian = sum(len(e.ports) for e in sources if _gaussian(e.source))
    amplitude = sum(len(e.ports) * (2 * (e.source.t_bar < 1.0)
                                    + (not isinstance(e.source, Vacuum))) for e in sources)
    costs = {"chain": 2 * gaussian * NORMAL_FLOPS + 8 * m * m,
             "rank_s": 2 * m * NORMAL_FLOPS + 8 * m * amplitude}
    return (_zero_noise(config) if costs["chain"] < costs["rank_s"] else None), costs


def output_gaussian(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Wigner mean and covariance of the network output for all-Gaussian
    sources, built from each source's block of Wigner moments; raises
    :class:`UnsupportedSourceError` otherwise.  L is :func:`live_transfer`'s,
    so a dead mode carries vacuum; route 1's set-up, the only caller here,
    keeps this name for the tracer to time."""
    return propagate_blocks(config.sources, live_transfer(config))


def setup(config: ExperimentConfig, route: int):
    """(tile, width): route ``route``'s ``tile(gen, out, work, spare)`` and
    the complex entries per row its ``spare`` takes (each group's draws, and
    on the rank-|S| path the noise's product with C^dag), or that route's
    :class:`SimulabilityError`.  The only builder of a verdict, path or factor.

    Route 2 refuses unless Sigma_bar is PSD (``report.require()``), then
    takes :func:`route2_plan`'s path; route 1 takes the zero-noise chain
    where :func:`_zero_noise` holds, else factors V_out - diag(s_bar) (2M
    normals and a 2M x 2M product a shot), refusing where that is not PSD.
    The chain draws beta = normals @ (R / 2) + mean / 2, R the r <= 2M
    :func:`~pqsim.processes.block_rows` at t0 of the chained sources (route
    1's all, so V_out - diag(s0) = R^T R up to PSD_TOL; route 2's Gaussian
    ones), plus every other group drawn at t0 through its rows of L.  The
    rank-|S| path draws at t_bar, where only the ports S with t_bar < 1 add
    noise (a unit normal through :func:`transition_factor`) and the
    non-vacuum ports A mix through L: O(M (|S| + |A|)) a shot.  The set-up
    arrays (block rows, V_out) die with this frame.
    """
    if route == 2:
        report = check_second_condition(config).require()
        zero = route2_plan(config)[0]
    elif route == 1:
        zero = _zero_noise(config)
    else:
        raise ValueError(f"route must be 1 or 2, got {route!r}")
    draws = []
    if zero is not None:
        t0, s = zero
        chained = _gaussian if route == 2 else lambda src: True
        mean, rows, _ = block_rows([e for e in config.sources if chained(e.source)],
                                   live_transfer(config), t0)
        factor = mean / 2.0, np.divide(rows, 2.0, out=rows)
        draws = _groups(config, np.full(config.modes, t0), lambda src: not chained(src))
    elif route == 1:
        s = s_bar_vector(config)
        try:
            factor = gaussian_pqd_factor(*output_gaussian(config), s)
        except NotPsdError as exc:
            raise SimulabilityError(
                f"output-state PQD is negative at the detectors' ordering bound: {exc}"
            ) from exc
    else:
        factor = transition_factor(live_transfer(config), report.s_bar, report.t_bar)
        # Vacuum ports are neither drawn nor mixed: at t_bar = 1 their PQD is a point mass.
        draws = _groups(config, report.t_bar, lambda src: not isinstance(src, Vacuum))
        tile = _tile(partial(transition_noise, factor), draws, report.s_bar, config.detectors)
        return tile, max([factor[0].shape[1]] + [len(mixing) for *_, mixing in draws])
    tile = _tile(lambda gen, n, out, work, spare: sample_gaussian_pqd(factor, gen, n, out, work),
                 draws, s, config.detectors)
    return tile, max([0] + [len(mixing) for *_, mixing in draws])


def _sample(config: ExperimentConfig, route: int, n_samples, rng, workers) -> SampleBatch:
    tile, width = setup(config, route)
    outcomes = _run_batched(lambda gen, n: tile, config.modes, n_samples, rng, workers, width)
    return SampleBatch(outcomes, rng, config.config_hash(), None)


def run_condition2(config: ExperimentConfig, n_samples: int, rng: RngStream,
                   workers: int | None = None) -> SampleBatch:
    """Draw outcomes through input PQDs, the transition Gaussian and the
    measurement PQDs (:func:`setup`'s route 2): any source mix whose
    Sigma_bar passes, unbiased for the exact outcome distribution."""
    return _sample(config, 2, n_samples, rng, workers)


def run_condition1(config: ExperimentConfig, n_samples: int, rng: RngStream,
                   workers: int | None = None) -> SampleBatch:
    """Draw outcomes from the output-state PQD directly (:func:`setup`'s
    route 1): all-Gaussian sources whose output-state and click PQDs are
    nonnegative at one output ordering s >= s_bar."""
    return _sample(config, 1, n_samples, rng, workers)


def default_route(config: ExperimentConfig) -> int:
    """Route 1 when every source kind is Gaussian (declares ``wigner_moments``)
    and one has t_bar < 1, where condition 1 is never stricter than condition
    2; else route 2, which adds no noise and never refuses on classical inputs."""
    gaussian = all(_gaussian(entry.source) for entry in config.sources)
    return 1 if gaussian and any(entry.source.t_bar < 1.0 for entry in config.sources) else 2


def run_experiment(config: ExperimentConfig, n_samples: int, rng: RngStream,
                   condition: int | None = None, workers: int | None = None) -> SampleBatch:
    """Dispatch to a sampling engine: route ``condition``, by default the
    sources' :func:`default_route`.  ``config.scheme`` is a recorded label
    and selects nothing."""
    if condition is None:
        condition = default_route(config)
    if condition == 1:
        return run_condition1(config, n_samples, rng, workers)
    if condition == 2:
        return run_condition2(config, n_samples, rng, workers)
    raise ValueError(f"condition must be 1 or 2, got {condition!r}")


@dataclass(frozen=True)
class EmpiricalStats:
    """Counting statistics of a sample batch."""

    click_rate: np.ndarray
    mean_total_clicks: float
    histogram: dict


def empirical_stats(batch: SampleBatch) -> EmpiricalStats:
    """Click rates, mean click count and histogram of a non-empty batch, all
    counted from its outcomes."""
    if len(batch) == 0:
        raise ValueError("cannot summarize an empty sample batch")
    outcomes = batch.outcomes
    return EmpiricalStats(
        click_rate=outcomes.mean(axis=0),
        mean_total_clicks=float(outcomes.sum(dtype=np.int64) / len(outcomes)),
        histogram=_histogram(outcomes),
    )
