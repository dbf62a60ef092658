"""Structural guards on the set-up cost.

Route 2: building a config with few non-classical ports, checking it and
paying the engine's fixed cost solve no eigen- or singular-value problem
larger than |S| x |S|.  Route 1: the factor is built from the sources'
blocks (on the SPDC preset, with no covariance to factor at all), so no
such problem is larger than one source's block.  On both routes the
transfer matrix is validated only when the config is built, and on the
presets' uniform-loss networks, whose Gram is diagonal, without a Cholesky
factorization.
"""

import dataclasses

import numpy as np
import pytest

import pqsim.experiment
import pqsim.linalg
import pqsim.processes
from pqsim import RngStream
from pqsim.linalg import haar_unitary, validate_transfer
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


def spy_validations(monkeypatch) -> list:
    """One entry per call of validate_transfer, through any module that
    imports it."""
    validated = []
    validate = pqsim.linalg.validate_transfer
    for module in (pqsim.linalg, pqsim.experiment, pqsim.processes):
        monkeypatch.setattr(module, "validate_transfer",
                            lambda *a, **k: validated.append(1) or validate(*a, **k))
    return validated


def spy_choleskys(monkeypatch) -> list:
    """The argument shape of every np.linalg.cholesky call."""
    seen = []
    cholesky = np.linalg.cholesky

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return seen


def test_setup_solves_only_s_by_s_problems(monkeypatch):
    modes, photons = 256, 12
    seen = spy_solvers(monkeypatch)
    validated = spy_validations(monkeypatch)

    config = single_photon_config(modes, photons, p_d=0.06, unitary_seed=3)
    built = len(validated)
    assert built >= 1
    s = int(np.count_nonzero(t_bar_vector(config) < 1.0))
    assert s == photons
    assert check_second_condition(config).simulatable
    assert run_experiment(config, 0, RngStream(1), condition=2).outcomes.shape == (0, modes)

    assert len(validated) == built, "route 2 validated the transfer matrix again"

    assert {name for name, _ in seen} >= {"eigvalsh", "eigh"}
    too_big = [(name, shape) for name, shape in seen
               if len(shape) >= 2 and max(shape[-2:]) > s]
    assert not too_big, f"solvers larger than |S| x |S| = {s} x {s}: {too_big}"


def test_route1_setup_solves_nothing_above_a_source_block(monkeypatch):
    seen = spy_solvers(monkeypatch)
    validated = spy_validations(monkeypatch)

    config = spdc_config(64, 0.05, p_d=0.06)
    built = len(validated)
    assert built >= 1
    batch = run_experiment(config, 0, RngStream(1), condition=1)
    assert batch.outcomes.shape == (0, 128)

    assert len(validated) == built, "route 1 validated the transfer matrix again"
    too_big = [(name, shape) for name, shape in seen
               if len(shape) >= 2 and max(shape[-2:]) > 4]
    assert not too_big, f"solvers larger than an SPDC block (4 x 4): {too_big}"


@pytest.mark.parametrize("build", [lambda: single_photon_config(1024, 32, p_d=0.06),
                                   lambda: spdc_config(512, 0.05, p_d=0.06)],
                         ids=["single_photon_1024", "spdc_512_pairs"])
def test_presets_are_validated_without_a_cholesky(monkeypatch, build):
    choleskys = spy_choleskys(monkeypatch)
    config = build()
    assert config.modes == 1024 and config.diagonal_gram
    assert not choleskys, f"Cholesky factorizations while building a preset: {choleskys}"


def test_a_non_diagonal_gram_takes_one_cholesky_and_no_norm(monkeypatch):
    modes = 1024
    matrix = np.linspace(1.0, 0.3, modes)[:, None] * haar_unitary(modes, RngStream(4))
    choleskys = spy_choleskys(monkeypatch)
    seen = spy_solvers(monkeypatch)
    out, diagonal_gram = validate_transfer(matrix, diagonal_gram=True)
    assert out is matrix and not diagonal_gram
    assert choleskys == [(modes, modes)]
    assert not seen, f"solvers after a successful Cholesky: {seen}"


def test_config_keeps_only_its_fields():
    config = single_photon_config(16, 4, p_d=0.06)
    fields = {f.name for f in dataclasses.fields(config)}
    assert set(vars(config)) == fields
    arrays = [name for name, value in vars(config).items() if isinstance(value, np.ndarray)]
    assert arrays == ["transfer"]
