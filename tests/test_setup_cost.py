"""Structural guard on the set-up cost: building a config with few
non-classical ports, checking it and paying the engine's fixed cost solve
no eigen- or singular-value problem larger than |S| x |S|."""

import numpy as np

from pqsim import RngStream
from pqsim.presets import single_photon_config
from pqsim.sampler import run_experiment
from pqsim.simulability import check_second_condition, t_bar_vector

SOLVERS = ("eigvalsh", "eigh", "svd", "norm")


def test_setup_solves_only_s_by_s_problems(monkeypatch):
    modes, photons = 256, 12
    seen = []
    for name in SOLVERS:
        def spy(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            seen.append((_name, np.shape(a)))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)

    config = single_photon_config(modes, photons, p_d=0.06, unitary_seed=3)
    s = int(np.count_nonzero(t_bar_vector(config) < 1.0))
    assert s == photons
    assert check_second_condition(config).simulatable
    assert run_experiment(config, 0, RngStream(1)).outcomes.shape == (0, modes)

    assert {name for name, _ in seen} >= {"eigvalsh", "eigh"}
    too_big = [(name, shape) for name, shape in seen
               if len(shape) >= 2 and max(shape[-2:]) > s]
    assert not too_big, f"solvers larger than |S| x |S| = {s} x {s}: {too_big}"
