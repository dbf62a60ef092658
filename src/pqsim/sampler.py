"""Monte Carlo engines that draw detector outcomes from an experiment.

Two routes, mirroring the two positivity conditions:

* :func:`run_condition2` chains input PQD draws, the network's transition
  Gaussian, and the measurement PQDs at the extreme orderings (s_bar, t_bar).
  It works for any source mix that passes the Sigma_bar test.
* :func:`run_condition1` propagates an all-Gaussian input through the
  network exactly and samples the output-state PQD directly; it applies
  whenever the output covariance stays above the s_bar floor, which is a
  weaker requirement than the Sigma_bar test.  Its set-up builds the
  output covariance from the sources' blocks
  (:func:`~pqsim.processes.propagate_blocks`, no dense 2M x 2M
  propagation), drops the covariance between dead and live modes, and
  factors it minus the floor with
  :func:`~pqsim.states.gaussian_pqd_factor`.

Each draw has one implementation, which both routes and the public API
share: :func:`~pqsim.states.sample_source_pqd` (input),
:func:`~pqsim.states.sample_gaussian_pqd` (a Gaussian PQD: an SPDC
pair's block, or route 1's whole output state),
:func:`~pqsim.processes.sample_transition` (network) and
:func:`~pqsim.detectors.sample_clicks` (detectors).  Sampling is batched;
batch b draws from ``rng.child(b)``: first its input draws, then its dense
stages (mixing, transition noise, detector coins) tile by tile over row
blocks of at most :data:`TILE_ELEMENTS` rows x modes, each tile drawing
in order from that batch's stream.  The outcome bytes depend only on
(config, seed), never on the worker count, and the dense stages' float
temporaries scale with the tile, not with ``BATCH_SIZE`` x M.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detectors import click_coefficients, sample_clicks
from .errors import NotPsdError, SimulabilityError
from .experiment import ExperimentConfig
from .processes import propagate_blocks, sample_transition, transition_factor
from .rng import RngStream
from .simulability import check_second_condition, dead_modes, s_bar_vector
from .states import Vacuum, gaussian_pqd_factor, sample_gaussian_pqd, sample_source_pqd

# Not called here; perfbench's tracer wraps these names and stops if one is missing.
from .linalg import psd_factor_complex, psd_factor_real, standard_complex_normal  # noqa: F401
from .processes import propagate_gaussian, sigma_matrix  # noqa: F401

#: Fixed batch granularity; part of the reproducibility contract.
BATCH_SIZE = 16384

#: Rows x modes per tile of a batch's dense stages; part of the
#: reproducibility contract.  A batch fits one tile whenever M <= 16.
TILE_ELEMENTS = 1 << 18

#: Histograms are materialized only up to this many modes (2^M keys).
HISTOGRAM_MODE_LIMIT = 24


@dataclass(frozen=True)
class SampleBatch:
    """Outcome samples plus the provenance needed to reproduce them."""

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

    def bitstrings(self) -> list[str]:
        return _row_keys(self.outcomes).astype(str).tolist()

    def to_csv_bytes(self) -> bytes:
        body = np.empty((len(self), self.modes + 1), dtype=np.uint8)
        body[:, :-1] = _row_chars(self.outcomes)
        body[:, -1] = ord("\n")
        return body.tobytes()

    def to_jsonl_bytes(self) -> bytes:
        head, tail = b'{"n":"', b'"}\n'
        body = np.empty((len(self), len(head) + self.modes + len(tail)), dtype=np.uint8)
        body[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
        body[:, len(head):-len(tail)] = _row_chars(self.outcomes)
        body[:, -len(tail):] = np.frombuffer(tail, dtype=np.uint8)
        return body.tobytes()

    def write(self, path, fmt: str = "csv") -> None:
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown sample format {fmt!r}; expected 'csv' or 'jsonl'")
        data = self.to_csv_bytes() if fmt == "csv" else self.to_jsonl_bytes()
        with open(path, "wb") as fh:
            fh.write(data)


def _row_chars(outcomes: np.ndarray) -> np.ndarray:
    """Outcomes as ASCII '0'/'1' characters, C-contiguous, one row per shot."""
    return np.ascontiguousarray(outcomes + np.uint8(ord("0")))


def _row_keys(outcomes: np.ndarray) -> np.ndarray:
    """One M-byte string per row, mode 0 first: the bit-string key of a shot."""
    return _row_chars(outcomes).view(f"S{outcomes.shape[1]}")[:, 0]


def _histogram(outcomes: np.ndarray) -> dict:
    """Count of each distinct outcome row, keyed by its bit string (mode 0
    first), in increasing key order.  Above 20 modes the rows are sorted
    packed 8 modes to a byte, and only the distinct rows are unpacked to
    ASCII, each key decoded straight from its row's bytes."""
    m = outcomes.shape[1]
    if m <= 20:
        weights = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
        codes = outcomes.astype(np.int64) @ weights
        counts = np.bincount(codes, minlength=1 << m)
        indices = np.flatnonzero(counts)
        return {format(i, f"0{m}b"): int(counts[i]) for i in indices}
    packed = np.packbits(outcomes, axis=1)
    width = packed.shape[1]
    keys, counts = np.unique(packed.view(f"S{width}")[:, 0], return_counts=True)
    del packed
    chars = np.unpackbits(keys.view(np.uint8).reshape(-1, width), axis=1, count=m)
    chars += np.uint8(ord("0"))
    text = memoryview(chars.reshape(-1))
    return {str(text[start:start + m], "ascii"): count
            for start, count in zip(range(0, chars.size, m), counts.tolist())}


def _make_batch(config, outcomes, rng) -> SampleBatch:
    counts = _histogram(outcomes) if config.modes <= HISTOGRAM_MODE_LIMIT else None
    return SampleBatch(
        outcomes=outcomes,
        seed=rng,
        config_hash=config.config_hash(),
        counts=counts,
    )


def _run_batched(draw_batch, modes, n_samples, rng, workers):
    """Fill (n_samples, modes) by running ``draw_batch(gen, n)`` per batch.

    Batch boundaries and per-batch streams are fixed by (n_samples, rng)
    alone; workers only change scheduling.
    """
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    out = np.empty((n_samples, modes), dtype=np.uint8)
    splits = [
        (b, start, min(start + BATCH_SIZE, n_samples))
        for b, start in enumerate(range(0, n_samples, BATCH_SIZE))
    ]

    def run_one(task):
        b, start, stop = task
        gen = rng.child(b).generator()
        out[start:stop] = draw_batch(gen, stop - start)

    if workers <= 1 or len(splits) <= 1:
        for task in splits:
            run_one(task)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_one, splits))
    return out


def _click_tiles(amplitudes, clicks, n, gen):
    """Outcomes (n, M) of one batch, built tile by tile.

    ``amplitudes(rows)`` draws the complex output amplitudes of the batch
    rows ``rows`` (a slice) from ``gen``; each tile's detector coins are
    drawn right after its amplitudes, so a batch of one tile consumes its
    stream exactly as an untiled batch would.
    """
    modes = clicks[0].size
    out = np.empty((n, modes), dtype=np.uint8)
    step = max(1, TILE_ELEMENTS // modes)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        out[rows] = sample_clicks(amplitudes(rows), clicks, gen)
    return out


def run_condition2(
    config: ExperimentConfig,
    n_samples: int,
    rng: RngStream,
    workers: int = 1,
) -> SampleBatch:
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
    report = check_second_condition(config)
    if not report.simulatable:
        raise SimulabilityError(
            "experiment is not simulatable by the phase-space method: "
            f"Sigma_bar is not PSD (noise ratio kappa = {report.noise_ratio:.6g} > 1)",
            report=report,
        )
    tbar, sbar = report.ordering_t, report.ordering_s
    factor = transition_factor(config.transfer, sbar, tbar, dead=dead_modes(config))
    clicks = click_coefficients(sbar, config.detectors)

    # Every source draws through sample_source_pqd, which owns the stream;
    # a vacuum port's amplitude is 0 at t_bar = 1, so it is left out of
    # the mixing.
    active, assignments = [], []
    for entry in config.sources:
        cols = None
        if not isinstance(entry.source, Vacuum):
            cols = slice(len(active), len(active) + len(entry.ports))
            active.extend(entry.ports)
        assignments.append((entry.source, cols, tbar[list(entry.ports)]))
    mixing = config.transfer[active]

    def draw_batch(gen, n):
        alpha = np.empty((n, len(active)), dtype=complex)
        for source, cols, t_block in assignments:
            draw = sample_source_pqd(source, t_block, gen, n)
            if cols is not None:
                alpha[:, cols] = draw
        return _click_tiles(
            lambda rows: sample_transition(alpha[rows], mixing, factor, gen), clicks, n, gen)

    outcomes = _run_batched(draw_batch, config.modes, n_samples, rng, workers)
    return _make_batch(config, outcomes, rng)


def output_gaussian(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Wigner mean and covariance of the network output for all-Gaussian
    sources, built from each source's block of Wigner moments; raises
    :class:`UnsupportedSourceError` otherwise."""
    blocks = [(entry.ports, *entry.source.wigner_moments()) for entry in config.sources]
    return propagate_blocks(blocks, config.transfer)


def run_condition1(
    config: ExperimentConfig,
    n_samples: int,
    rng: RngStream,
    workers: int = 1,
) -> SampleBatch:
    """Sample outcomes by drawing from the output-state PQD directly.

    Requires every source to be Gaussian and the output covariance minus the
    s_bar floor to be positive semidefinite on the live modes; refuses
    otherwise.  A dead detector's click is a p_d coin whatever its
    amplitude, so the covariance between its mode and the live modes is
    dropped before the factor: its row at s_bar = -1 would otherwise
    couple to theirs and can refuse an experiment whose live modes pass.
    """
    mean, cov = output_gaussian(config)
    sbar = s_bar_vector(config)
    dead = np.repeat(dead_modes(config), 2)
    cov[np.ix_(dead, ~dead)] = 0.0
    cov[np.ix_(~dead, dead)] = 0.0
    try:
        factor = gaussian_pqd_factor(mean, cov, sbar)
    except NotPsdError as exc:
        raise SimulabilityError(
            "output-state PQD is negative at the detectors' ordering bound: "
            f"{exc}",
            report=check_second_condition(config),
        ) from exc
    clicks = click_coefficients(sbar, config.detectors)

    def draw_batch(gen, n):
        return _click_tiles(lambda rows: sample_gaussian_pqd(factor, gen, rows.stop - rows.start),
                            clicks, n, gen)

    outcomes = _run_batched(draw_batch, config.modes, n_samples, rng, workers)
    return _make_batch(config, outcomes, rng)


def run_experiment(
    config: ExperimentConfig,
    n_samples: int,
    rng: RngStream,
    condition: int | None = None,
    workers: int = 1,
) -> SampleBatch:
    """Dispatch to a sampling engine.

    ``condition=None`` picks route 1 for SPDC-scheme experiments (the
    output-state route is never more restrictive there and usually strictly
    less) and route 2 otherwise.
    """
    if condition is None:
        condition = 1 if config.scheme == "spdc" else 2
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
    if len(batch) == 0:
        raise ValueError("cannot summarize an empty sample batch")
    outcomes = batch.outcomes
    counts = batch.counts if batch.counts is not None else _histogram(outcomes)
    return EmpiricalStats(
        click_rate=outcomes.mean(axis=0),
        mean_total_clicks=float(outcomes.sum(axis=1).mean()),
        histogram=counts,
    )
