"""Structural guards on the exact oracle's cost: one batch of silent sets
per set size while a size fits, a refusal before any permanent or
determinant, bounded memory, and no Python work per silent set.

Under cProfile the two 10-mode configs below make about 6,500
Python-level calls, 6 per outcome from the table's strings and their
validation; a Python loop over the 1,024 silent sets would add at least
ten numpy calls per set.
"""

import cProfile
import pstats
import tracemalloc

import numpy as np
import pytest

import pqsim.oracle
from pqsim import DetectorModel, RngStream
from pqsim.errors import OracleSizeError
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary
from pqsim.oracle import exact_distribution
from pqsim.presets import single_photon_config, spdc_config
from pqsim.states import Coherent, Vacuum



def test_one_permanent_batch_per_set_size(monkeypatch):
    seen = []
    permanent_batch = pqsim.oracle.permanent_batch
    monkeypatch.setattr(pqsim.oracle, "permanent_batch", lambda mats: (
        seen.append(mats.shape) or permanent_batch(mats)))
    exact_distribution(single_photon_config(6, 6, p_d=0.06, unitary_seed=1))
    assert seen == [(6, 6, 6), (15, 6, 6), (20, 6, 6), (15, 6, 6), (6, 6, 6), (1, 6, 6)]


@pytest.mark.parametrize("config", [
    pytest.param(ExperimentConfig(modes=20, sources=tuple(PortSource(Vacuum(), (k,))
                                                          for k in range(20)),
                                  transfer=np.eye(20, dtype=complex),
                                  detectors=(DetectorModel(0.9, 0.05),) * 20), id="vacuum_20"),
    pytest.param(spdc_config(9, 0.05, p_d=0.06), id="spdc_9_pairs"),
    pytest.param(single_photon_config(16, 14, p_d=0.06), id="photons_16x14"),
])
def test_refusal_comes_before_any_permanent_or_determinant(monkeypatch, config):
    def refuse(*args, **kwargs):
        raise AssertionError("a permanent or determinant ran before the refusal")

    monkeypatch.setattr(pqsim.oracle, "permanent_batch", refuse)
    for name in ("cholesky", "det", "inv", "slogdet", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(OracleSizeError, match=f"{config.modes} modes give 2\\^{config.modes} "
                                              "silent sets"):
        exact_distribution(config)


def test_sixteen_modes_stay_within_a_memory_budget():
    # spdc_config(8): 2^16 sets, the largest 8 at a time in 16 x 16
    # determinants; the table itself holds 65,536 strings.
    tracemalloc.start()
    try:
        table = exact_distribution(spdc_config(8, 0.05, p_d=0.06))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.probs) == 1 << 16
    assert peak < 24 << 20


def test_coherent_ports_click_independently_at_twelve_modes():
    # Through a unitary the output of coherent inputs is coherent, so clicks
    # are independent per mode.
    modes, alpha, eta_d, p_d = 12, 0.002, 0.9, 0.05
    unitary = haar_unitary(modes, RngStream(3))
    config = ExperimentConfig(modes=modes,
                              sources=tuple(PortSource(Coherent(alpha), (k,)) for k in range(modes)),
                              transfer=unitary, detectors=(DetectorModel(eta_d, p_d),) * modes)
    table = exact_distribution(config)
    click = 1.0 - (1.0 - p_d) * np.exp(-eta_d * np.abs(alpha * unitary.sum(axis=0)) ** 2)
    bits = np.array([[int(b) for b in outcome] for outcome in table.outcomes])
    product = np.prod(np.where(bits == 1, click, 1.0 - click), axis=1)
    assert np.max(np.abs(table.probs - product)) <= 1e-13


@pytest.mark.parametrize("config", [
    pytest.param(single_photon_config(10, 6, p_d=0.06, unitary_seed=1), id="single_photon_10x6"),
    pytest.param(spdc_config(5, 0.01, p_d=0.06, unitary_seed=1), id="spdc_5_pairs"),
])
def test_no_python_call_per_silent_set(config):
    profile = cProfile.Profile()
    profile.runcall(exact_distribution, config)
    assert pstats.Stats(profile).total_calls < 8 << config.modes
