"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions at the
names the program's callers look them up by.  Installing it on the program
stops with ``SystemExit`` if one of those names is gone, so a change that
drops one fails here, not only in a traced benchmark run."""

from dataclasses import replace

import numpy as np

import pqsim
import pqsim.cli
import pqsim.oracle
import pqsim.presets
from pqsim import RngStream
from pqsim.experiment import ExperimentConfig
from pqsim.sampler import SampleBatch

from conftest import load_tracing

OWNERS = (pqsim.presets, pqsim.experiment, pqsim.simulability, pqsim.processes,
          pqsim.states, pqsim.linalg, pqsim.sampler, pqsim.oracle, pqsim.rng, pqsim.cli,
          ExperimentConfig, SampleBatch, RngStream)


def test_tracer_installs_on_the_program_and_restores_it():
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    tracing.install(tracer, pqsim)
    try:
        route1 = pqsim.presets.spdc_config(2, 0.05, p_d=0.09)
        route2 = pqsim.presets.single_photon_config(4, 2, p_d=0.06)
        pqsim.sampler.run_experiment(route1, 16, RngStream(1))
        pqsim.sampler.run_experiment(route2, 16, RngStream(2))
        # Rows scaled unequally: L^dag L is not diagonal, so route 1 factors
        # the output covariance (output_gaussian, psd_factor).
        cholesky = replace(route1, transfer=np.diag([1.0, 0.9, 0.8, 0.7]) @ route1.transfer,
                           lon_spec=None)
        pqsim.sampler.run_experiment(cholesky, 16, RngStream(3), condition=1)
    finally:
        tracer.restore()

    for name in ("presets.build", "sampler.run_condition1", "sampler.output_gaussian",
                 "linalg.psd_factor", "sampler.run_condition2",
                 "simulability.check_second_condition", "states.sample_source_pqd",
                 "sampler.batch"):
        assert tracer.calls(name) >= 1, name
    for owner, attrs in zip(OWNERS, before):
        now = vars(owner)
        assert all(now.get(attr) is value for attr, value in attrs.items()), owner


def test_each_engine_runs_its_batches_through_the_module_batch_loop(monkeypatch):
    # perfbench times the sampling phase, and the tracer its batches, by
    # wrapping pqsim.sampler._run_batched; an engine that bound the loop
    # any other way would be timed as taking no time at all.
    loop, calls = pqsim.sampler._run_batched, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return loop(*args, **kwargs)

    monkeypatch.setattr(pqsim.sampler, "_run_batched", counted)
    route1 = pqsim.presets.spdc_config(2, 0.05, p_d=0.09)
    route2 = pqsim.presets.single_photon_config(4, 2, p_d=0.06)
    for config, route in ((route1, 1), (route2, 2)):
        assert pqsim.sampler.default_route(config) == route
        for shots in (0, 16):
            before = len(calls)
            batch = pqsim.sampler.run_experiment(config, shots, RngStream(4))
            assert len(batch) == shots
            assert calls[before:] == [shots]
