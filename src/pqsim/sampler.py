"""Monte Carlo engines that draw detector outcomes from an experiment.

Two routes, one per sufficient condition; unless told otherwise, a run
takes the one its sources pick (:func:`default_route`):

* :func:`run_condition2` chains input PQD draws, the network's transition
  Gaussian, and the measurement PQDs at the extreme orderings (s_bar, t_bar).
  It works for any source mix that passes the Sigma_bar test.  Vacuum ports
  are neither drawn nor mixed: at t_bar = 1 their PQD is a point mass at 0.
* :func:`run_condition1` samples the output-state PQD of an all-Gaussian
  input directly; it applies whenever that PQD and the click PQDs are
  nonnegative at one output ordering, which is weaker than the Sigma_bar
  test.  Its factor is the sources' blocks mapped through L when L^dag L
  is diagonal (:func:`~pqsim.processes.block_rows`), else that of the
  output covariance (:func:`~pqsim.processes.propagate_blocks`).

Each draw has one implementation, which both routes and the public API
share: :func:`~pqsim.states.sample_source_pqd` (input),
:func:`~pqsim.states.sample_gaussian_pqd` (a Gaussian PQD: an SPDC
pair's block, or route 1's whole output state),
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

import numpy as np

from .detectors import click_coefficients, sample_clicks
from .errors import NotPsdError, SimulabilityError
from .experiment import ExperimentConfig
from .linalg import PSD_TOL
from .processes import block_rows, propagate_blocks, transition_factor, transition_noise
from .rng import RngStream
from .simulability import check_second_condition, dead_modes, s_bar_vector
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
    first), in increasing key order.  The rows are sorted packed 8 modes to
    a byte, and only the distinct rows are unpacked to ASCII, each key
    decoded straight from its row's bytes."""
    m = outcomes.shape[1]
    packed = np.packbits(outcomes, axis=1)
    width = packed.shape[1]
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


def run_condition2(config: ExperimentConfig, n_samples: int, rng: RngStream,
                   workers: int | None = None) -> SampleBatch:
    """Sample outcomes through input PQDs + transition Gaussian + measurement.

    Refuses with :class:`SimulabilityError` (report attached) unless
    Sigma_bar at the extreme orderings is positive semidefinite; the chain
    then draws unbiased samples from the exact outcome distribution.

    Only the ports with t_bar < 1 (set S) add quantum noise and only
    non-vacuum ports (set A) carry amplitude, so a sample costs
    O(M (|S| + |A|)): the noise is a unit complex normal w mapped through
    the factor F = (I - C^dag G) diag(sqrt(D/2)) of
    :func:`transition_factor`, and the mixing is alpha_A @ L_A.
    """
    report = check_second_condition(config).require()
    tbar, sbar = report.t_bar, report.s_bar
    factor = transition_factor(config.transfer, sbar, tbar, dead=dead_modes(config))
    clicks = click_coefficients(sbar, config.detectors)

    # Vacuum ports are neither drawn nor mixed: at t_bar = 1 their PQD is a point
    # mass at 0, which consumes no draws.  Equal sources (frozen dataclass and
    # orderings) are one group, drawn in one call per tile and read shot-major.
    groups = {}
    for entry in (e for e in config.sources if not isinstance(e.source, Vacuum)):
        groups.setdefault((entry.source, tuple(tbar[list(entry.ports)])), []).extend(entry.ports)
    draws = [(*key, config.transfer[ports]) for key, ports in groups.items()]
    width = max([factor[0].shape[1]] + [len(mixing) for *_, mixing in draws])

    def tile(gen, out, work, spare):
        # The noise's product with C^dag, then each group's inputs in turn,
        # use the worker's one buffer of (tile rows, width) amplitudes.
        n = len(out)
        beta = transition_noise(factor, gen, n, out=work[0], work=work[1], spare=spare)
        for source, t_block, mixing in draws:
            alpha = spare[:n * len(mixing)]
            sample_source_pqd(source, t_block, gen, alpha.size // len(t_block),
                              out=alpha.reshape(-1, len(t_block)), work=work[1].reshape(-1))
            beta += np.matmul(alpha.reshape(n, -1), mixing, out=work[1].view(complex))
        sample_clicks(beta, clicks, gen, out=out, work=work[1])

    outcomes = _run_batched(lambda gen, n: tile, config.modes, n_samples, rng, workers, width)
    return SampleBatch(outcomes, rng, config.config_hash(), None)


def _blocks(config: ExperimentConfig) -> list:
    """(ports, mean, cov) per source, for all-Gaussian sources."""
    return [(entry.ports, *entry.source.wigner_moments()) for entry in config.sources]


def output_gaussian(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Wigner mean and covariance of the network output for all-Gaussian
    sources, built from each source's block of Wigner moments; raises
    :class:`UnsupportedSourceError` otherwise."""
    return propagate_blocks(_blocks(config), config.transfer)


def run_condition1(config: ExperimentConfig, n_samples: int, rng: RngStream,
                   workers: int | None = None) -> SampleBatch:
    """Sample outcomes by drawing from the output-state PQD directly.

    Requires every source to be Gaussian and the output-state and click
    PQDs to be nonnegative at one output ordering s >= s_bar on the live
    modes; refuses otherwise.  When L^dag L = diag(k), every port takes
    t0 = min t_bar and s0 = 1 - (1 - t0) k, where the transition vanishes:
    V_out - diag(s0) = R^T R, R the rows of
    :func:`~pqsim.processes.block_rows` at t0 with lam > PSD_TOL, r <= 2M
    of them; the off-diagonal Gram and the dropped rows each move it by at
    most PSD_TOL.  If s0 >= s_bar on the live modes (which implies the test
    below), a shot costs r normals and an r x 2M product.  Otherwise
    V_out - diag(s_bar) is factored at s_bar (2M normals and a 2M x 2M
    product per shot), with the covariance between dead and live modes
    dropped: a dead detector's click is a p_d coin, and its row at
    s_bar = -1 could refuse live modes that pass.
    """
    s, factor = _output_factor(config)
    clicks = click_coefficients(s, config.detectors)
    rank = factor[1].shape[0]

    def tile(gen, out, work, spare):
        normals = work[0].reshape(-1)[:len(out) * rank].reshape(len(out), rank)
        beta = sample_gaussian_pqd(factor, gen, len(out), out=work[1], work=normals)
        sample_clicks(beta, clicks, gen, out=out, work=work[0])

    outcomes = _run_batched(lambda gen, n: tile, config.modes, n_samples, rng, workers, 0)
    return SampleBatch(outcomes, rng, config.config_hash(), None)


def _output_factor(config: ExperimentConfig):
    """(s, factor): :func:`run_condition1`'s output ordering and PQD factor;
    raises :class:`SimulabilityError` where it refuses.  The set-up arrays
    (the block rows, or the output covariance) die with this frame."""
    sbar = s_bar_vector(config)
    live = ~dead_modes(config)
    t0 = min(entry.source.t_bar for entry in config.sources)
    lr, li = config.transfer.real, config.transfer.imag
    s = 1.0 - (1.0 - t0) * (np.einsum("ij,ij->j", lr, lr) + np.einsum("ij,ij->j", li, li))
    if config.diagonal_gram and np.all(s[live] >= sbar[live]):
        mean, rows, lam = block_rows(_blocks(config), config.transfer, t0)
        return s, (mean / 2.0, rows[lam > PSD_TOL] / 2.0)
    mean, cov = output_gaussian(config)
    dead = np.repeat(~live, 2)
    cov[np.ix_(dead, ~dead)] = 0.0
    cov[np.ix_(~dead, dead)] = 0.0
    try:
        return sbar, gaussian_pqd_factor(mean, cov, sbar)
    except NotPsdError as exc:
        raise SimulabilityError(
            f"output-state PQD is negative at the detectors' ordering bound: {exc}"
        ) from exc


def default_route(config: ExperimentConfig) -> int:
    """Route 1 when every source kind is Gaussian (declares ``wigner_moments``)
    and one has t_bar < 1, where condition 1 is never stricter than condition
    2; else route 2, which adds no noise and never refuses on classical inputs."""
    gaussian = all(type(entry.source).wigner_moments is not SourceModel.wigner_moments
                   for entry in config.sources)
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
        mean_total_clicks=float(outcomes.sum(axis=1).mean()),
        histogram=_histogram(outcomes),
    )
