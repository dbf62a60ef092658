"""Structural guards on the set-up cost.

Route 2: building a config with few non-classical ports, checking it and
paying the engine's fixed cost solve no eigen- or singular-value problem
larger than |S| x |S|.  Route 1: the factor is built from the sources'
blocks (on the SPDC preset, with no covariance to factor at all), so no
such problem is larger than one source's block, and the transfer matrix is
validated only when the config is built.
"""

import numpy as np

import pqsim.experiment
import pqsim.linalg
import pqsim.processes
from pqsim import RngStream
from pqsim.presets import single_photon_config, spdc_config
from pqsim.sampler import run_experiment
from pqsim.simulability import check_second_condition, t_bar_vector

SOLVERS = ("eigvalsh", "eigh", "svd", "norm")


def spy_solvers(monkeypatch) -> list:
    """(solver name, argument shape) of every call of SOLVERS."""
    seen = []
    for name in SOLVERS:
        def spy(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            seen.append((_name, np.shape(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return seen


def test_setup_solves_only_s_by_s_problems(monkeypatch):
    modes, photons = 256, 12
    seen = spy_solvers(monkeypatch)

    config = single_photon_config(modes, photons, p_d=0.06, unitary_seed=3)
    s = int(np.count_nonzero(t_bar_vector(config) < 1.0))
    assert s == photons
    assert check_second_condition(config).simulatable
    assert run_experiment(config, 0, RngStream(1)).outcomes.shape == (0, modes)

    assert {name for name, _ in seen} >= {"eigvalsh", "eigh"}
    too_big = [(name, shape) for name, shape in seen
               if len(shape) >= 2 and max(shape[-2:]) > s]
    assert not too_big, f"solvers larger than |S| x |S| = {s} x {s}: {too_big}"


def test_route1_setup_solves_nothing_above_a_source_block(monkeypatch):
    seen = spy_solvers(monkeypatch)
    validated = []
    validate = pqsim.linalg.validate_transfer
    for module in (pqsim.linalg, pqsim.experiment, pqsim.processes):
        monkeypatch.setattr(module, "validate_transfer",
                            lambda *a, **k: validated.append(1) or validate(*a, **k))

    config = spdc_config(64, 0.05, p_d=0.06)
    built = len(validated)
    assert built >= 1
    batch = run_experiment(config, 0, RngStream(1), condition=1)
    assert batch.outcomes.shape == (0, 128)

    assert len(validated) == built, "route 1 validated the transfer matrix again"
    too_big = [(name, shape) for name, shape in seen
               if len(shape) >= 2 and max(shape[-2:]) > 4]
    assert not too_big, f"solvers larger than an SPDC block (4 x 4): {too_big}"
