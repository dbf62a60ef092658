"""Benchmark pqsim end to end, or per layer with ``--trace 1``.

Usage, from the repository root::

    python3 perfbench/run.py --workload bs_sparse_1024 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the per-round timings. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload's user job once
untraced and one round traced, and reports per-layer self times, counts and
the tracing overhead, writing every span to ``.perfbench-traces/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS threads are pinned because sampled bytes and throughput both depend
#: on the thread count; one thread also keeps run-to-run spread lowest on
#: a small shared machine.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIB = 1024.0 * 1024.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "wall_s": "s",
    "check_s": "s",
    "oracle_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "presets.build_s": "s",
    "linalg.haar_unitary_s": "s",
    "linalg.validate_transfer_s": "s",
    "linalg.validate_transfer.calls": "count",
    "simulability.check_second_condition_s": "s",
    "simulability.check_second_condition.calls": "count",
    "processes.sigma_matrix_s": "s",
    "linalg.psd_factor_s": "s",
    "experiment.config_hash_s": "s",
    "experiment.config_hash.calls": "count",
    "sampler.fixed_s": "s",
    "sampler.output_gaussian_s": "s",
    "processes.propagate_gaussian_s": "s",
    "sampler.batch_s": "s",
    "sampler.batch_self_s": "s",
    "sampler.batches": "count",
    "states.sample_source_pqd_s": "s",
    "states.sample_source_pqd.calls_per_batch": "count",
    "linalg.standard_complex_normal_s": "s",
    "sampler.flops_per_sample": "flop",
    "sampler.batch_bytes": "B",
    "sampler.batch_peak_mib": "MiB",
    "rng.generator.calls": "count",
    "sampler.empirical_stats_s": "s",
    "sampler.to_csv_mb_per_s": "MB/s",
    "sampler.to_jsonl_mb_per_s": "MB/s",
    "experiment.parse_config_s": "s",
    "cli.sample_s": "s",
    "oracle.exact_distribution_s": "s",
    "oracle.permanent_batch_s": "s",
    "oracle.permanent_batch.calls": "count",
    "oracle.tv_distance_s": "s",
    "check.max_abs_z": "1",
    "check.tv_over_floor": "1",
    "check.failed_frac": "1",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; rounds repeat until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import pqsim from this checkout's ``src`` with BLAS threads pinned."""
    src = ROOT / "src"
    if not (src / "pqsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no pqsim sources under {src}; run from a full checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import pqsim
    import pqsim.cli  # noqa: F401  (submodules the workloads call by attribute)
    import pqsim.oracle  # noqa: F401
    import pqsim.presets  # noqa: F401
    if Path(pqsim.__file__).resolve().parent != (src / "pqsim").resolve():
        raise SystemExit(f"error: imported pqsim from {pqsim.__file__}, not from {src}")
    return pqsim


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if not readable."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_rev() -> str:
    """HEAD of the checkout, without looking above it; "unknown" outside git."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(pq, args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_in_use": blas_threads_in_use(),
        "pqsim": pq.__version__,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Rounds a run makes even when one round outlasts ``--seconds``, so that
#: no metric rests on a single timing.
MIN_ROUNDS = 2


def measure(workload, pq, state, args, tally, clock):
    """Untraced rounds until ``args.seconds`` is spent and at least
    ``MIN_ROUNDS`` have run; end-to-end metrics."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds.append(workload.run_round(pq, state, args.seed, len(rounds), tally, clock))
    metrics = workload.summarize(rounds)
    metrics["peak_rss_mib"] = peak_rss_mib()
    return metrics, rounds


def batch_model(config, rows: int) -> tuple[float, float]:
    """Computed flops per sample and bytes per batch of the engine's dense
    products: route 2 multiplies (rows, M) complex arrays by two M x M
    matrices (mixing and noise), route 1 a (rows, 2M) real array by one
    2M x 2M factor. The route is run_experiment's default for the scheme."""
    m = config.modes
    if config.scheme == "spdc":
        return 8.0 * m * m, (2 * rows * 2 * m + 4 * m * m) * 8.0
    return 16.0 * m * m, 2 * (2 * rows * m + m * m) * 16.0


def trace(workload, pq, state, args, tally, clock):
    """Two untraced user jobs, then one traced round; per-layer metrics.

    The first job is not timed: the first full-size job of a process runs
    slower than the next, which biased the overhead downward.
    """
    workload.wall_job(pq, state, args.seed, tally, clock)
    untraced_wall = workload.wall_job(pq, state, args.seed, tally, clock)
    tracer = tracing.Tracer()
    tracing.install(tracer, pq)
    try:
        traced = workload.run_round(pq, state, args.seed, 0, tally, clock, span=tracer.span)
    finally:
        tracer.restore()
    traced_wall = traced.get("wall", math.nan)

    job = tracer.ops_of("bench.job")
    batches = tracer.select("sampler.batch", job)
    rows = batches[0].size if batches else 0
    flops, nbytes = batch_model(workload.main_config(pq, args.seed), rows)

    def rate(name):
        spans = tracer.select(name)
        seconds = sum(s.duration_ns for s in spans) / 1e9
        return sum(s.size for s in spans) / 1e6 / seconds if seconds else 0.0

    metrics = {
        "presets.build_s": tracer.self_s("presets.build"),
        "linalg.haar_unitary_s": tracer.self_s("linalg.haar_unitary"),
        "linalg.validate_transfer_s": tracer.self_s("linalg.validate_transfer"),
        "linalg.validate_transfer.calls": tracer.calls("linalg.validate_transfer"),
        "simulability.check_second_condition_s":
            tracer.self_s("simulability.check_second_condition"),
        "simulability.check_second_condition.calls":
            tracer.calls("simulability.check_second_condition"),
        "processes.sigma_matrix_s": tracer.self_s("processes.sigma_matrix"),
        "linalg.psd_factor_s": tracer.self_s("linalg.psd_factor"),
        "experiment.config_hash_s": tracer.self_s("experiment.config_hash"),
        "experiment.config_hash.calls": tracer.calls("experiment.config_hash"),
        "sampler.fixed_s": tracer.total_s("sampler.run_experiment", job)
                           - tracer.total_s("sampler.batch_loop", job),
        "sampler.output_gaussian_s": tracer.self_s("sampler.output_gaussian"),
        "processes.propagate_gaussian_s": tracer.self_s("processes.propagate_gaussian"),
        "sampler.batch_s": tracer.total_s("sampler.batch", job),
        "sampler.batch_self_s": tracer.self_s("sampler.batch", job),
        "sampler.batches": len(batches),
        "states.sample_source_pqd_s": tracer.self_s("states.sample_source_pqd", job),
        "states.sample_source_pqd.calls_per_batch":
            tracer.calls("states.sample_source_pqd", job) / len(batches) if batches else 0.0,
        "linalg.standard_complex_normal_s": tracer.self_s("linalg.standard_complex_normal", job),
        "sampler.flops_per_sample": flops,
        "sampler.batch_bytes": nbytes,
        "sampler.batch_peak_mib": max((s.peak_bytes for s in batches), default=0) / MIB,
        "rng.generator.calls": tracer.calls("rng.generator"),
        "sampler.empirical_stats_s": tracer.self_s("sampler.empirical_stats"),
        "sampler.to_csv_mb_per_s": rate("sampler.to_csv_bytes"),
        "sampler.to_jsonl_mb_per_s": rate("sampler.to_jsonl_bytes"),
        "experiment.parse_config_s": tracer.self_s("experiment.parse_config"),
        "cli.sample_s": tracer.self_s("cli.sample"),
        "oracle.exact_distribution_s": tracer.self_s("oracle.exact_distribution"),
        "oracle.permanent_batch_s": tracer.self_s("oracle.permanent_batch"),
        "oracle.permanent_batch.calls": tracer.calls("oracle.permanent_batch"),
        "oracle.tv_distance_s": tracer.self_s("oracle.tv_distance"),
        "check.max_abs_z": tally.max_abs_z,
        "check.tv_over_floor": tally.tv_over_floor,
        "check.failed_frac": tally.failed / max(tally.attempted, 1),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        **{f"{layer}.self_s": s for layer, s in tracer.layer_self_s().items()},
    }
    out_dir = ROOT / ".perfbench-traces"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"spans": tracer.to_records()}))
    return metrics, [traced]


def result_line(metrics: dict, units: dict, tally) -> dict:
    """The result, printed as the last line. A metric that is not a finite number
    (every operation behind it failed) reads 0 and makes the run incorrect."""
    unmeasured = [name for name, value in metrics.items()
                  if not (isinstance(value, (int, float)) and math.isfinite(value))]
    return {
        "correct": tally.failed == 0 and not unmeasured,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": 0.0 if name in unmeasured else float(metrics[name]),
                           "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pq = import_program()
    import workloads

    known = {**workloads.WORKLOADS, **workloads.EXTRA_WORKLOADS}
    if args.workload not in known:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(known)}")
    workload = known[args.workload]
    tally = workloads.Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir, \
            workloads.EngineClock(pq.sampler) as clock:
        print(json.dumps({"env": environment(pq, args)}), flush=True)
        state = workload.prepare(pq, args.seed, workdir)
        workload.warm_up(pq, args.seed)
        if args.trace:
            metrics, rounds = trace(workload, pq, state, args, tally, clock)
            units = PER_LAYER_UNITS
        else:
            metrics, rounds = measure(workload, pq, state, args, tally, clock)
            units = END_TO_END_UNITS
    print(json.dumps({"rounds": rounds}), flush=True)
    print(json.dumps(result_line(metrics, units, tally)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
