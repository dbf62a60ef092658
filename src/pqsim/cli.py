"""Command-line front end.

Subcommands: ``check`` (the verdict of the route ``sample`` runs, then the
Sigma_bar test and its threshold, and route 2's sampling path), ``sample``
(Monte Carlo outcome generation), ``oracle`` (exact brute-force
distribution), ``compare`` (sampler vs oracle with a pass/fail verdict), and
``thresholds`` (scenario tables across network sizes).

Exit codes: 0 success/pass, 1 quantitative fail, 2 usage or size guard,
3 simulability refusal.  Every run with ``--out`` writes a manifest
recording the config hash, seed, and runtime, which is enough to reproduce
the outputs byte for byte; ``sample`` also records the worker threads its
tiles ran on.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .errors import PqsimError, SimulabilityError
from .experiment import SCHEME_SINGLE_PHOTON, SCHEME_SPDC, parse_config
from .oracle import exact_distribution, tv_distance
from .presets import ScenarioParams, threshold_table
from .rng import RngStream
from .sampler import default_route, route2_plan, run_experiment, tile_workers
from .simulability import check_second_condition

# Not called here; perfbench's tracer wraps this name and stops if it is missing.
from .sampler import empirical_stats  # noqa: F401

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finish(args, started, config_hash, outputs, workers=None) -> None:
    """With ``--out``, write the run's provenance sidecar, manifest.json."""
    out = _out_dir(args)
    if out is None:
        return
    manifest = {
        "subcommand": args.command,
        "version": __version__,
        "config_hash": config_hash,
        "seed": getattr(args, "seed", None),
        "wall_time_s": time.perf_counter() - started,
        "outputs": [str(p) for p in outputs],
    }
    if workers is not None:
        manifest["workers"] = workers
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _report(args, started, config_hash, payload, name) -> None:
    """Print ``payload`` as JSON; with ``--out``, write it (keys sorted) to ``name``."""
    print(json.dumps(payload, indent=2))
    out = _out_dir(args)
    if out is not None:
        (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _finish(args, started, config_hash, [] if out is None else [out / name])


def cmd_check(args) -> int:
    started = time.perf_counter()
    config = parse_config(args.config)
    route = default_route(config)
    report = check_second_condition(config)
    try:  # route 2's verdict is the Sigma_bar report; route 1's the zero-shot set-up
        if route == 2:
            report.require()
        else:
            run_experiment(config, 0, RngStream(args.seed))
        refusal, verdict = None, f"simulatable on route {route}"
    except SimulabilityError as exc:
        refusal, verdict = str(exc), f"NOT simulatable on route {route}: {exc}"
    _say(args, f"experiment with {config.modes} modes is {verdict}")
    _say(args, f"  Sigma_bar noise ratio kappa: {report.noise_ratio:.6g} (passes iff <= 1)")
    if math.isfinite(report.threshold_p_d):
        _say(args, f"  threshold: {report.threshold_p_d:.6g} ({report.threshold_note})")
        _say(args, f"  margin (p_d - threshold): {report.margin:.6g}")
    else:
        _say(args, f"  {report.threshold_note}")
    chain, costs = route2_plan(config)
    payload = report.to_dict() | {"route": route if refusal is None else None, "refusal": refusal,
                                  "route2_path": "rank_s" if chain is None else "chain",
                                  "route2_flops_per_shot": costs}
    _report(args, started, config.config_hash(), payload, "report.json")
    return EXIT_OK


def cmd_sample(args) -> int:
    started = time.perf_counter()
    config = parse_config(args.config)
    rng = RngStream(args.seed)
    batch = run_experiment(config, args.samples, rng, condition=args.condition,
                           workers=args.workers)
    if len(batch):
        rates = ", ".join(f"{r:.4f}" for r in batch.outcomes.mean(axis=0))
        _say(args, f"drew {len(batch)} samples; per-mode click rates: [{rates}]")
    outputs = []
    out = _out_dir(args)
    if out is not None:
        sample_path = out / f"samples.{args.format}"
        batch.write(sample_path, fmt=args.format)
        outputs.append(sample_path)
        _say(args, f"wrote {sample_path}")
    # The threads the run's tiles ran on: 1 when the whole run is one tile.
    workers = tile_workers(config.modes, args.samples, args.workers)
    _finish(args, started, batch.config_hash, outputs, workers)
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    config = parse_config(args.config)
    table = exact_distribution(config)
    _report(args, started, config.config_hash(), table.to_dict(), "distribution.json")
    return EXIT_OK


def cmd_compare(args) -> int:
    started = time.perf_counter()
    config = parse_config(args.config)
    reference = config if args.reference_config is None else parse_config(args.reference_config)
    table = exact_distribution(reference)
    rng = RngStream(args.seed)
    batch = run_experiment(config, args.samples, rng, condition=args.condition)
    tv = tv_distance(table, batch)
    passed = tv <= args.tolerance
    _say(args, f"TV(sampled {args.samples}, exact) = {tv:.6f} "
               f"(tolerance {args.tolerance:g}): {'PASS' if passed else 'FAIL'}")
    payload = {"tv_distance": tv, "tolerance": args.tolerance, "pass": passed,
               "samples": args.samples}
    _report(args, started, config.config_hash(), payload, "compare.json")
    return EXIT_OK if passed else EXIT_FAIL


_THRESHOLD_COLUMNS = (
    "scheme", "modes", "eta_l", "sqrt_m_over_eta", "n_photons", "n_eta",
    "sinh2_r", "p_d_threshold", "p_d_mismatch",
)


def _format_row(row) -> str:
    sinh2 = "-" if row.sinh2_r is None else f"{row.sinh2_r:.2g}"
    return (
        f"{row.modes:>6d}  {row.eta_l:>6.2f}  {row.sqrt_m_over_eta:>12.0f}  "
        f"{row.n_photons:>6d}  {row.n_eta:>6.2g}  {sinh2:>9}  "
        f"{row.p_d_threshold:>13.3f}  {row.p_d_mismatch:>12.3f}"
    )


def cmd_thresholds(args) -> int:
    started = time.perf_counter()
    params = ScenarioParams(**{f.name: getattr(args, f.name) for f in fields(ScenarioParams)})
    modes_list = [int(tok) for tok in args.modes.split(",")]
    schemes = ([SCHEME_SINGLE_PHOTON, SCHEME_SPDC] if args.scenario == "both"
               else [args.scenario])
    rows = []
    for scheme in schemes:
        rows.extend(threshold_table(scheme, modes_list, params))
        knobs = ", ".join(f"{name}={value}" for name, value in asdict(params).items())
        _say(args, f"scenario: {scheme}  ({knobs})")
        _say(args, f"{'M':>6}  {'eta_L':>6}  {'sqrt(M)/eta':>12}  {'N':>6}  "
                   f"{'N*eta':>6}  {'sinh^2r':>9}  {'p_d threshold':>13}  {'p_d mismatch':>12}")
        for row in rows[-len(modes_list):]:
            _say(args, _format_row(row))
        _say(args, "")
    table = [r.to_dict() for r in rows]
    print(json.dumps(table, indent=2))
    outputs = []
    out = _out_dir(args)
    if out is not None:
        json_path = out / "thresholds.json"
        json_path.write_text(json.dumps(table, indent=2) + "\n")
        csv_path = out / "thresholds.csv"
        lines = [",".join(_THRESHOLD_COLUMNS)]
        for d in table:
            lines.append(",".join("" if d[c] is None else str(d[c])
                                  for c in _THRESHOLD_COLUMNS))
        csv_path.write_text("\n".join(lines) + "\n")
        outputs.extend([json_path, csv_path])
    _finish(args, started, None, outputs)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="64-bit seed for all random draws (default 0)")
    common.add_argument("--out", type=str, default=None,
                        help="output directory; also receives the run manifest")
    common.add_argument("--quiet", action="store_true",
                        help="suppress human-readable chatter")

    parser = argparse.ArgumentParser(
        prog="pqsim",
        description="Phase-space Monte Carlo sampling of imperfect "
                    "photonic experiments, with simulability checks and an "
                    "exact small-scale oracle.",
    )
    parser.add_argument("--version", action="version", version=f"pqsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="test whether an experiment is classically samplable")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(func=cmd_check)

    p_sample = sub.add_parser("sample", parents=[common],
                              help="draw outcome samples from an experiment")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--samples", type=int, required=True)
    p_sample.add_argument("--condition", type=int, choices=(1, 2), default=None,
                          help="force a sampling route (default: the one the sources pick)")
    p_sample.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_sample.add_argument("--workers", type=int, default=None,
                          help="threads for each batch's row tiles "
                               "(default: the CPUs this process may use)")
    p_sample.set_defaults(func=cmd_sample)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="exact outcome distribution over all click patterns")
    p_oracle.add_argument("--config", required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    p_compare = sub.add_parser("compare", parents=[common],
                               help="sample, run the oracle, and compare")
    p_compare.add_argument("--config", required=True)
    p_compare.add_argument("--samples", type=int, default=100_000)
    p_compare.add_argument("--tolerance", type=float, default=0.02)
    p_compare.add_argument("--condition", type=int, choices=(1, 2), default=None)
    p_compare.add_argument("--reference-config", default=None,
                           help="oracle a different config (consistency testing)")
    p_compare.set_defaults(func=cmd_compare)

    p_thr = sub.add_parser("thresholds", parents=[common],
                           help="closed-form threshold tables across network sizes")
    p_thr.add_argument("--scenario", choices=(SCHEME_SINGLE_PHOTON, SCHEME_SPDC, "both"),
                       default="both")
    p_thr.add_argument("--modes", default="10,100,1600",
                       help="comma-separated network sizes")
    for field in fields(ScenarioParams):
        p_thr.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                           type=type(field.default), default=field.default)
    p_thr.set_defaults(func=cmd_thresholds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimulabilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (PqsimError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
