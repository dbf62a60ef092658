"""Tests of the benchmark itself: its references, its checks and its output.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402

pq = run.import_program()
import workloads  # noqa: E402

from pqsim.detectors import DetectorModel  # noqa: E402
from pqsim.experiment import ExperimentConfig, PortSource  # noqa: E402
from pqsim.linalg import haar_unitary  # noqa: E402
from pqsim.oracle import exact_distribution  # noqa: E402
from pqsim.rng import RngStream  # noqa: E402
from pqsim.states import MixedSinglePhoton, Vacuum  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def heterogeneous_single_photons():
    """Vacuum and unequal one-photon mixtures on a lossy network with a
    different detector on every mode."""
    sources = (PortSource(MixedSinglePhoton(0.9, 0.8), (0,)),
               PortSource(Vacuum(), (1,)),
               PortSource(MixedSinglePhoton(0.6, 0.5), (2,)),
               PortSource(MixedSinglePhoton(0.3, 1.0), (3,)))
    return ExperimentConfig(
        modes=4, sources=sources,
        transfer=np.sqrt(0.7) * haar_unitary(4, RngStream(12)),
        detectors=tuple(DetectorModel(eta, p) for eta, p in
                        ((0.9, 0.02), (0.5, 0.3), (1.0, 0.0), (0.7, 0.1))),
    )


@pytest.mark.parametrize("config", [
    pq.presets.single_photon_config(5, 5, p_d=0.06, unitary_seed=3),
    pq.presets.single_photon_config(6, 3, p_d=0.1, unitary_seed=4),
    pq.presets.single_photon_config(6, 6, p_d=0.06, unitary_seed=5),
    heterogeneous_single_photons(),
], ids=["sp_5x5", "sp_6x3", "sp_6x6", "heterogeneous"])
def test_single_photon_marginals_match_oracle(config):
    exact = reference.marginals_from_table(exact_distribution(config, n_max=1))
    assert np.max(np.abs(reference.click_probabilities(config) - exact)) < 1e-12


@pytest.mark.parametrize("pairs, sinh2_r, n_max", [(1, 0.05, 4), (2, 0.01, 3)])
def test_spdc_marginals_match_oracle_within_truncation(pairs, sinh2_r, n_max):
    config = pq.presets.spdc_config(pairs, sinh2_r, p_d=0.06, unitary_seed=1)
    table = exact_distribution(config, n_max=n_max)
    diff = np.max(np.abs(reference.click_probabilities(config) - reference.marginals_from_table(table)))
    assert diff <= table.truncation_error + 1e-12


def test_spdc_reference_refuses_herald_meeting_its_signal():
    config = pq.presets.spdc_config(1, 0.05, p_d=0.06)
    mixed = ExperimentConfig(modes=2, sources=config.sources,
                             transfer=np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
                             detectors=config.detectors)
    with pytest.raises(ValueError, match="share an output mode"):
        reference.click_probabilities(mixed)


def test_checks_pass_exact_samples_and_fail_biased_ones():
    gen = np.random.default_rng(7)
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    n = 200_000
    counts = gen.multinomial(n, probs)
    tally = workloads.Tally()
    tally.check_tv(0.5 * np.abs(counts / n - probs).sum(), probs, n, "exact")

    p_click = np.array([0.1, 0.4, 0.02])
    exact = (gen.random((n, 3)) < p_click).astype(np.uint8)
    tally.check_marginals(exact, p_click, "exact")
    biased = (gen.random((n, 3)) < p_click * 1.05).astype(np.uint8)
    with pytest.raises(workloads.CheckFailed):
        tally.check_marginals(biased, p_click, "biased")
    with pytest.raises(workloads.CheckFailed):
        tally.check_tv(0.02, probs, n, "biased")


def test_deterministic_modes_must_match_exactly():
    outcomes = np.zeros((10, 2), dtype=np.uint8)
    assert reference.max_abs_z(outcomes, np.array([0.0, 0.5])) > 0
    outcomes[0, 0] = 1
    assert reference.max_abs_z(outcomes, np.array([0.0, 0.5])) == math.inf


def test_wrong_engine_counts_as_failed(monkeypatch):
    """A sampler that drops every click fails the marginal check."""
    small = workloads.PresetWorkload("small", "single_photon", (32, 8), samples=4096,
                                     desk_size=(4, 2), desk_n_max=1)
    original = pq.sampler.run_experiment

    def no_clicks(config, n, rng, **kwargs):
        batch = original(config, n, rng, **kwargs)
        return pq.sampler.SampleBatch(np.zeros_like(batch.outcomes), batch.seed,
                                      batch.config_hash, None)

    monkeypatch.setattr(pq.sampler, "run_experiment", no_clicks)
    tally = workloads.Tally()
    with workloads.EngineClock(pq.sampler) as clock:
        small.run_round(pq, small.prepare(pq, 1, None), 1, 0, tally, clock)
    assert tally.failed == 2  # the large job and the desk comparison


def test_wrong_summary_counts_as_failed(monkeypatch):
    """empirical_stats is checked against the outcomes it summarizes."""
    small = workloads.PresetWorkload("small", "single_photon", (32, 8), samples=4096,
                                     desk_size=(4, 2), desk_n_max=1)
    original = pq.sampler.empirical_stats

    def halved_histogram(batch):
        stats = original(batch)
        return pq.sampler.EmpiricalStats(stats.click_rate, stats.mean_total_clicks,
                                         {k: v // 2 for k, v in stats.histogram.items()})

    monkeypatch.setattr(pq.sampler, "empirical_stats", halved_histogram)
    tally = workloads.Tally()
    with workloads.EngineClock(pq.sampler) as clock:
        small.run_round(pq, small.prepare(pq, 1, None), 1, 0, tally, clock)
    assert tally.failed == 2


def test_missing_batch_loop_stops_the_run(monkeypatch):
    monkeypatch.delattr(pq.sampler, "_run_batched")
    with pytest.raises(SystemExit):
        workloads.EngineClock(pq.sampler)


def test_missing_traced_function_stops_the_run(monkeypatch):
    monkeypatch.delattr(pq.sampler, "output_gaussian")
    original = pq.sampler.run_experiment
    with pytest.raises(SystemExit, match="pqsim.sampler.output_gaussian"):
        run.tracing.install(run.tracing.Tracer(), pq)
    assert pq.sampler.run_experiment is original  # nothing left wrapped


def small_workloads():
    return [
        workloads.PresetWorkload("sp_small", "single_photon", (48, 6), samples=4096,
                                 desk_size=(4, 2), desk_n_max=1),
        workloads.PresetWorkload("spdc_small", "spdc", (16, 0.05), samples=4096,
                                 desk_size=(1, 0.05), desk_n_max=4),
    ]


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_small_presets_report_every_metric_in_both_modes(workload, tmp_path):
    args = argparse.Namespace(workload=workload.name, seed=2, seconds=0.0, trace=0)
    for mode, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
        args.trace = mode
        tally = workloads.Tally()
        state = workload.prepare(pq, args.seed, tmp_path)
        with workloads.EngineClock(pq.sampler) as clock:
            if mode:
                metrics, _ = run.trace(workload, pq, state, args, tally, clock)
            else:
                metrics, _ = run.measure(workload, pq, state, args, tally, clock)
        result = run.result_line(metrics, units, tally)
        assert result["correct"], result
        assert set(result["metrics"]) == set(units)


def test_traced_counts_repeat_exactly(tmp_path):
    workload = small_workloads()[0]
    args = argparse.Namespace(workload=workload.name, seed=4, seconds=0.0, trace=1)
    counts = []
    for _ in range(2):
        tally = workloads.Tally()
        with workloads.EngineClock(pq.sampler) as clock:
            metrics, _ = run.trace(workload, pq, workload.prepare(pq, 4, tmp_path),
                                      args, tally, clock)
        counts.append({k: v for k, v in metrics.items() if ".calls" in k or k == "sampler.batches"})
    assert counts[0] == counts[1]
    assert counts[0]["states.sample_source_pqd.calls_per_batch"] == 48
    assert counts[0]["experiment.config_hash.calls"] > 0


def run_command(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_result_line(trace, key):
    done = run_command("verify_desk", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(done.stdout.strip().splitlines()[0])["env"]
    for field in ("nproc", "python", "numpy", "blas", "blas_thread_env", "git_rev", "seed"):
        assert field in env


def test_benchmark_json_matches_runner():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_command("verify_desk", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
