"""The benchmark's workloads: pqsim run the way its users run it.

Every workload is a closed loop in one process: one job at a time, each
starting when the previous one has finished. A round is one pass of a
workload's jobs; a run repeats rounds until its measuring time is spent and
reports medians over rounds. Every operation's output is checked against
``reference`` (which shares no code with the sampler), so a faster but
wrong engine counts as failed.

A ``PresetWorkload`` scales one scenario preset up; ``verify_desk`` is
the desk-scale verification job (``DeskWorkload``).
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

#: Outcomes per sampler-versus-oracle comparison at desk scale.
DESK_SAMPLES = 100_000

#: Random-count probability of every preset. It lies above the
#: single-photon threshold at every size used here, whatever the seed, so
#: no operation is refused.
P_D = 0.06

#: The throughput-gate config (modes, photons) that ``pqsim sample`` runs
#: on, the outcomes per CLI run, and the output formats it writes.
GATE_SIZE = (16, 4)
CLI_SAMPLES = 250_000
CLI_FORMATS = ("csv", "jsonl")

#: Gate-config set-ups and checks timed after each ``verify_desk`` job.
GATE_REPS = 2


class CheckFailed(Exception):
    """An operation ran but its output disagrees with the reference."""


def no_span(name):
    return nullcontext()


def timed(fn, *args, **kwargs):
    """Seconds taken by ``fn(*args, **kwargs)``, and its result."""
    gc.collect()
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def median_of(rounds, *keys) -> float:
    """Median over rounds of the sum of ``keys``; rounds missing one are
    skipped (their operation failed and was counted)."""
    values = [sum(r[k] for k in keys) for r in rounds if all(k in r for k in keys)]
    return statistics.median(values) if values else math.nan


@dataclass
class Tally:
    """Operations attempted and failed, and the worst check statistics."""

    attempted: int = 0
    failed: int = 0
    max_abs_z: float = 0.0
    tv_over_floor: float = 0.0

    @contextmanager
    def operation(self, what: str):
        """Count one operation; an exception inside marks it failed."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def check_marginals(self, outcomes: np.ndarray, probs: np.ndarray, what: str) -> None:
        z = reference.max_abs_z(outcomes, probs)
        limit = reference.z_threshold(outcomes.shape[1])
        self.max_abs_z = max(self.max_abs_z, z)
        if not z <= limit:
            raise CheckFailed(f"{what}: max |z| {z:.2f} above {limit:.2f}")

    def check_tv(self, tv: float, probs: np.ndarray, n: int, what: str) -> None:
        self.tv_over_floor = max(self.tv_over_floor, tv / reference.tv_noise_floor(probs, n))
        limit = reference.tv_limit(probs, n)
        if not tv <= limit:
            raise CheckFailed(f"{what}: TV {tv:.5f} above the exact-sampler limit {limit:.5f}")


class EngineClock:
    """Accumulates time spent in the engine's batch loop, the sampling
    phase of a ``run_experiment`` call, with one timer per call.

    A program without ``pqsim.sampler._run_batched`` cannot be measured
    this way, and the run stops: a change to the batch loop updates the
    benchmark in a change of its own.
    """

    def __init__(self, sampler_module):
        self.seconds = 0.0
        self._module = sampler_module
        self._original = sampler_module.__dict__.get("_run_batched")
        if self._original is None:
            raise SystemExit("error: pqsim.sampler has no _run_batched, so the sampling "
                             "phase cannot be timed; update perfbench/workloads.py")

    def __enter__(self):
        original = self._original

        def clocked(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        self._module._run_batched = clocked
        return self

    def __exit__(self, *exc):
        self._module._run_batched = self._original


def check_batch_shape(batch, n: int, modes: int, what: str) -> None:
    if batch.outcomes.shape != (n, modes):
        raise CheckFailed(f"{what}: outcomes have shape {batch.outcomes.shape}, "
                          f"expected {(n, modes)}")


def check_stats(stats, outcomes: np.ndarray, what: str, histogram: bool) -> None:
    """``empirical_stats`` against the outcomes it summarizes.

    The click rates, the mean click count and the histogram total are
    checked everywhere. With ``histogram`` every bit string's count is
    checked too; that is left out above 63 modes, where the program's
    histogram keys overflow int64 (a known defect).
    """
    n = outcomes.shape[0]
    if not np.allclose(stats.click_rate, outcomes.mean(axis=0), rtol=0, atol=1e-12):
        raise CheckFailed(f"{what}: empirical_stats click rates differ from the outcomes")
    if not math.isclose(stats.mean_total_clicks, outcomes.sum(axis=1).mean(), abs_tol=1e-9):
        raise CheckFailed(f"{what}: empirical_stats mean click count differs from the outcomes")
    if sum(stats.histogram.values()) != n:
        raise CheckFailed(f"{what}: histogram counts do not sum to {n}")
    if histogram:
        rows, counts = np.unique(outcomes, axis=0, return_counts=True)
        expected = {"".join(map(str, row)): int(c) for row, c in zip(rows, counts)}
        if stats.histogram != expected:
            raise CheckFailed(f"{what}: histogram differs from the outcomes")


def compare_with_oracle(pq, tally, config, table, n, rng, condition, what):
    """Sample ``config``, summarize the outcomes and compare them with the
    exact table.

    Returns (sampling seconds, summary and TV seconds); raises CheckFailed
    on a wrong summary or a mismatch in the click marginals or the TV
    distance.
    """
    t_sample, batch = timed(pq.sampler.run_experiment, config, n, rng, condition=condition)
    t_stats, stats = timed(pq.sampler.empirical_stats, batch)
    t_tv, tv = timed(pq.oracle.tv_distance, table, batch)
    check_batch_shape(batch, n, config.modes, what)
    check_stats(stats, batch.outcomes, what, histogram=True)
    tally.check_tv(tv, table.probs, n, what)
    tally.check_marginals(batch.outcomes, reference.marginals_from_table(table), what)
    return t_sample, t_stats + t_tv


# ----------------------------------------------------------------------
# preset workloads: one large experiment, sampled and checked
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PresetWorkload:
    """A scenario preset at one size, plus a desk-scale instance of the
    same preset for the oracle comparison.

    ``size`` is (modes, photons) for ``single_photon`` and
    (pairs, sinh2_r) for ``spdc``; ``samples`` is the outcome count of the
    sampling job, drawn at the engine's default batch size.
    """

    name: str
    family: str
    size: tuple
    samples: int
    desk_size: tuple
    desk_n_max: int

    def build(self, pq, size, seed):
        if self.family == "single_photon":
            return pq.presets.single_photon_config(*size, p_d=P_D, unitary_seed=seed)
        return pq.presets.spdc_config(*size, p_d=P_D, unitary_seed=seed)

    def prepare(self, pq, seed, workdir):
        """Reference marginals are filled in, untimed, from the first build."""
        return {}

    def reference_probs(self, state, config):
        if "probs" not in state:
            state["probs"] = reference.click_probabilities(config)
        return state["probs"]

    def warm_up(self, pq, seed):
        small = self.build(pq, self.desk_size, seed)
        pq.sampler.run_experiment(small, 64, pq.rng.RngStream(seed, 0))

    def run_round(self, pq, state, seed, index, tally, clock, span=no_span) -> dict:
        rng = pq.rng.RngStream(seed, 1 + index)
        t = {}
        t["build"], config = timed(self.build, pq, self.size, seed)

        with tally.operation(f"{self.name}: check"):
            t_check, report = timed(pq.simulability.check_second_condition, config)
            if not report.simulatable:
                raise CheckFailed(f"{self.name}: preset reported not simulatable")
            t["check"] = t_check

        with tally.operation(f"{self.name}: sample"), span("bench.job"):
            t.update(self.job(pq, config, rng, clock))
            t["wall"] = t["build"] + t["run"] + t["post"]
            tally.check_marginals(t.pop("outcomes"), self.reference_probs(state, config),
                                  self.name)

        with tally.operation(f"{self.name}: oracle comparison"), span("bench.desk"):
            desk = self.build(pq, self.desk_size, seed)
            t_oracle, table = timed(pq.oracle.exact_distribution, desk, n_max=self.desk_n_max)
            compare_with_oracle(pq, tally, desk, table, DESK_SAMPLES, rng.child(2), None,
                                f"{self.name} desk")
            t["oracle"] = t_oracle
        return t

    def job(self, pq, config, rng, clock) -> dict:
        """Sample the config, then summarize and serialize the outcomes as
        ``pqsim sample`` does; outcomes stay in memory.

        The engine's fixed cost is the part of the ``run_experiment`` call
        outside its batch loop (the Sigma_bar check, the factor and
        ``config_hash``): the work ``run_experiment(config, 0, rng)`` does,
        measured without paying it twice.
        """
        before = clock.seconds
        t_run, batch = timed(pq.sampler.run_experiment, config, self.samples, rng.child(1))
        sampling = clock.seconds - before
        check_batch_shape(batch, self.samples, config.modes, self.name)
        t_post, (stats, _) = timed(lambda: (pq.sampler.empirical_stats(batch),
                                            batch.to_csv_bytes()))
        check_stats(stats, batch.outcomes, self.name, histogram=config.modes <= 63)
        return {"run": t_run, "post": t_post, "outcomes": batch.outcomes,
                "sampling": sampling, "fixed": t_run - sampling}

    def wall_job(self, pq, state, seed, tally, clock) -> float:
        """The user-visible job alone (build, sample, outputs), checked."""
        t_build, config = timed(self.build, pq, self.size, seed)
        with tally.operation(f"{self.name}: sample"):
            t = self.job(pq, config, pq.rng.RngStream(seed, 1), clock)
            tally.check_marginals(t.pop("outcomes"), self.reference_probs(state, config),
                                  self.name)
            return t_build + t["run"] + t["post"]
        return math.nan

    def summarize(self, rounds) -> dict:
        return {
            "setup_s": median_of(rounds, "build", "fixed"),
            "samples_per_s": self.samples / median_of(rounds, "sampling"),
            "wall_s": median_of(rounds, "wall"),
            "check_s": median_of(rounds, "build", "check"),
            "oracle_s": median_of(rounds, "oracle"),
        }

    def main_config(self, pq, seed):
        return self.build(pq, self.size, seed)


# ----------------------------------------------------------------------
# verify_desk: oracle comparisons on every source kind and route, plus
# the CLI on the throughput-gate config
# ----------------------------------------------------------------------


def _desk_suite(pq, seed):
    """(name, config, oracle n_max, routes) covering all five source kinds
    and both routes; every config fits the oracle's 12 enlarged modes."""
    from pqsim.detectors import DetectorModel
    from pqsim.experiment import ExperimentConfig, PortSource
    from pqsim.linalg import haar_unitary
    from pqsim.states import Coherent, MixedSinglePhoton, Thermal, Vacuum

    RngStream = pq.rng.RngStream

    def mixed_sources():
        return ExperimentConfig(
            modes=4,
            sources=(PortSource(Vacuum(), (0,)),
                     PortSource(MixedSinglePhoton(0.5, 0.1), (1,)),
                     PortSource(Coherent(0.2 + 0.1j), (2,)),
                     PortSource(Thermal(0.02), (3,))),
            transfer=math.sqrt(0.9) * haar_unitary(4, RngStream(seed, 1)),
            detectors=(DetectorModel(0.9, 0.08),) * 4,
        )

    def gaussian():
        return ExperimentConfig(
            modes=3,
            sources=(PortSource(Coherent(0.25), (0,)),
                     PortSource(Thermal(0.03), (1,)),
                     PortSource(Vacuum(), (2,))),
            transfer=math.sqrt(0.8) * haar_unitary(3, RngStream(seed, 2)),
            detectors=(DetectorModel(0.9, 0.05),) * 3,
        )

    return [
        ("single_photon_6x6",
         lambda: pq.presets.single_photon_config(6, 6, p_d=P_D, unitary_seed=seed), 1, (2,)),
        ("mixed_sources_4", mixed_sources, 3, (2,)),
        ("spdc_2_pairs",
         lambda: pq.presets.spdc_config(2, 0.01, p_d=P_D, unitary_seed=seed), 3, (1, 2)),
        ("gaussian_3", gaussian, 4, (1, 2)),
    ]


def read_samples(path: Path, fmt: str, modes: int) -> np.ndarray:
    """Parse a CLI sample file back into a (n, modes) 0/1 array."""
    lines = path.read_bytes().splitlines()
    if fmt == "jsonl":
        lines = [json.loads(line)["n"].encode() for line in lines]
    if any(len(line) != modes for line in lines):
        raise CheckFailed(f"{path.name}: a line does not hold {modes} outcomes")
    out = np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(len(lines), modes) - ord("0")
    if np.any(out > 1):
        raise CheckFailed(f"{path.name}: outcomes other than 0 and 1")
    return out


@dataclass(frozen=True)
class DeskWorkload:
    """Sampler versus exact oracle at desk scale, and ``pqsim sample``
    writing CSV and JSONL on the M=16, N=4 throughput-gate config."""

    name: str

    def prepare(self, pq, seed, workdir):
        """Untimed: the gate config file a user would hand to the CLI."""
        gate = self.main_config(pq, seed)
        path = Path(workdir) / "gate_config.json"
        path.write_text(gate.to_json())
        return {"config_path": path, "probs": reference.click_probabilities(gate),
                "workdir": Path(workdir)}

    def warm_up(self, pq, seed):
        small = pq.presets.single_photon_config(2, 1, p_d=P_D, unitary_seed=seed)
        pq.oracle.exact_distribution(small, n_max=1)
        pq.sampler.run_experiment(small, 64, pq.rng.RngStream(seed, 0))

    def run_round(self, pq, state, seed, index, tally, clock, span=no_span) -> dict:
        rng = pq.rng.RngStream(seed, 1 + index)
        path = state["config_path"]
        t = {"wall": 0.0, "oracle": 0.0, "sampling": 0.0}
        checks, setups = [], []

        def gate_setup_and_check():
            """``pqsim check`` and the engine's set-up on the gate config.
            They take milliseconds, so each round repeats them after every
            job and keeps the median: a short burst of machine noise then
            moves few of them."""
            for _ in range(GATE_REPS):
                with tally.operation("verify_desk: check"):
                    t_parse, config = timed(pq.experiment.parse_config, path)
                    t_check, report = timed(pq.simulability.check_second_condition, config)
                    if not report.simulatable:
                        raise CheckFailed("gate config reported not simulatable")
                    checks.append(t_parse + t_check)
                with tally.operation("verify_desk: fixed cost"):
                    t_parse, config = timed(pq.experiment.parse_config, path)
                    t_fixed, empty = timed(pq.sampler.run_experiment, config, 0, rng.child(0))
                    check_batch_shape(empty, 0, config.modes, "fixed cost")
                    setups.append(t_parse + t_fixed)

        for k, (name, build, n_max, routes) in enumerate(_desk_suite(pq, seed)):
            with tally.operation(f"verify_desk: compare {name}"), span("bench.desk"):
                t_build, config = timed(build)
                t_oracle, table = timed(pq.oracle.exact_distribution, config, n_max=n_max)
                t["wall"] += t_build + t_oracle
                t["oracle"] += t_oracle
                for route in routes:
                    t_sample, t_tv = compare_with_oracle(
                        pq, tally, config, table, DESK_SAMPLES,
                        rng.child(10 * k + route), route, f"{name} route {route}")
                    t["wall"] += t_sample + t_tv
            gate_setup_and_check()

        outputs = {}
        for fmt in CLI_FORMATS:
            with tally.operation(f"verify_desk: cli sample {fmt}"), span("bench.job"):
                out_dir = state["workdir"] / f"round{index}_{fmt}"
                argv = ["sample", "--config", str(path), "--samples", str(CLI_SAMPLES),
                        "--seed", str(seed * 1000 + index + 1), "--format", fmt,
                        "--out", str(out_dir), "--quiet"]
                before = clock.seconds
                with span("cli.sample"):
                    t_cli, code = timed(pq.cli.main, argv)
                t["sampling"] += clock.seconds - before
                if code != 0:
                    raise CheckFailed(f"pqsim sample exited with {code}")
                t["wall"] += t_cli
                outcomes = read_samples(out_dir / f"samples.{fmt}", fmt, GATE_SIZE[0])
                if outcomes.shape[0] != CLI_SAMPLES:
                    raise CheckFailed(f"{fmt}: {outcomes.shape[0]} outcomes written")
                tally.check_marginals(outcomes, state["probs"], f"cli {fmt}")
                outputs[fmt] = outcomes
            gate_setup_and_check()
        if len(outputs) == len(CLI_FORMATS):
            with tally.operation("verify_desk: csv and jsonl agree"):
                first, *rest = outputs.values()
                if any(not np.array_equal(first, other) for other in rest):
                    raise CheckFailed("CSV and JSONL runs with one seed differ")
        if checks:
            t["check"] = statistics.median(checks)
        if setups:
            t["setup"] = statistics.median(setups)
        return t

    def wall_job(self, pq, state, seed, tally, clock) -> float:
        """The whole verification job is what a user waits for here."""
        return self.run_round(pq, state, seed, 0, tally, clock)["wall"]

    def summarize(self, rounds) -> dict:
        return {
            "setup_s": median_of(rounds, "setup"),
            "samples_per_s": len(CLI_FORMATS) * CLI_SAMPLES / median_of(rounds, "sampling"),
            "wall_s": median_of(rounds, "wall"),
            "check_s": median_of(rounds, "check"),
            "oracle_s": median_of(rounds, "oracle"),
        }

    def main_config(self, pq, seed):
        return pq.presets.single_photon_config(*GATE_SIZE, p_d=P_D, unitary_seed=seed)


#: The workloads BENCHMARK.json lists. bs_sparse_1024 is dominated by the
#: dense per-batch route-2 products; spdc_gauss_256 takes route 1, which
#: route-2 work bypasses; verify_desk covers the oracle, serialization and
#: the CLI, which neither large workload exercises much.
WORKLOADS = {
    w.name: w for w in (
        PresetWorkload("bs_sparse_1024", "single_photon", (1024, 32), samples=16384,
                       desk_size=(6, 6), desk_n_max=1),
        PresetWorkload("spdc_gauss_256", "spdc", (128, 0.05), samples=65536,
                       desk_size=(2, 0.01), desk_n_max=3),
        DeskWorkload("verify_desk"),
    )
}

#: Runnable by name but not listed in BENCHMARK.json: one round takes about
#: 40 s, so a run holds a single round, and over five seeds its times
#: spread 16-22% (quartile distance over median), too wide for the 0.25
#: bounds in BENCHMARK.json.
EXTRA_WORKLOADS = {
    "bs_paper_1600": PresetWorkload("bs_paper_1600", "single_photon", (1600, 1044),
                                    samples=4096, desk_size=(6, 6), desk_n_max=1),
}
