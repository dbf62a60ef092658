"""Structural guards on the exact oracle's cost: one permanent stack per
distinct input ket, Ryser steps set by the ket's occupations, a size guard
that lists the kets the run propagates (each once) and counts their steps,
and no Python work per output state or occupation.

Under cProfile the two configs below make about 5,300 and 1,100
Python-level calls; a loop over output states or occupations makes
hundreds of thousands (1,183,854 and 268,017).
"""

import cProfile
import itertools
import math
import pstats
import re
import time
import tracemalloc

import numpy as np
import pytest

import pqsim.linalg
import pqsim.oracle
from pqsim import DetectorModel, RngStream
from pqsim.errors import OracleSizeError
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary
from pqsim.oracle import exact_distribution
from pqsim.presets import single_photon_config, spdc_config
from pqsim.states import Coherent, Thermal, Vacuum

from conftest import one_state_sector, oracle_suite

CASES = [
    pytest.param(lambda: single_photon_config(6, 6, p_d=0.06, unitary_seed=1), 1, 63,
                 id="single_photon_6x6"),
    pytest.param(lambda: spdc_config(2, 0.01, p_d=0.06, unitary_seed=1), 3, 14,
                 id="spdc_2_pairs"),
]


@pytest.mark.parametrize("build,n_max,stacks", CASES)
def test_one_permanent_stack_per_distinct_ket(monkeypatch, build, n_max, stacks):
    config = build()
    seen = []
    permanent_batch = pqsim.oracle.permanent_batch
    monkeypatch.setattr(pqsim.oracle, "permanent_batch", lambda mats, counts=None: (
        seen.append(mats.shape) or permanent_batch(mats, counts)))
    exact_distribution(config, n_max=n_max)
    assert len(seen) == stacks


def test_gray_steps_follow_the_ket_occupations(monkeypatch):
    # Each kernel call walks one step plan; a ket with c_k photons on input
    # mode k needs prod_k (c_k + 1) - 1 steps per output state, where a
    # stack of its expanded square matrices would take 2^n - 1.
    kets, steps = set(), []
    apply, plan = pqsim.oracle._Propagator.apply, pqsim.linalg._ryser_plan
    monkeypatch.setattr(pqsim.oracle._Propagator, "apply",
                        lambda self, ket: kets.add(ket) or apply(self, ket))
    monkeypatch.setattr(pqsim.linalg, "_ryser_plan",
                        lambda counts: steps.append(len(plan(counts))) or plan(counts))
    exact_distribution(spdc_config(2, 0.01, p_d=0.06, unitary_seed=1), n_max=3)
    kets = [ket for ket in kets if sum(ket)]
    assert len(steps) == len(kets) == 14
    assert sum(steps) == sum(math.prod(c + 1 for c in ket) - 1 for ket in kets)
    assert sum(steps) < sum((1 << sum(ket)) - 1 for ket in kets) / 4


GUARD_CASES = [pytest.param(*case.values[:2], id=case.id) for case in CASES] + [
    pytest.param(lambda c=config: c, n_max, id=name) for name, config, n_max, _ in oracle_suite()]


def record_guard(monkeypatch) -> list:
    """The ``(refusal, kets)`` each size-guard call returns, in call order."""
    listed, size_refusal = [], pqsim.oracle._size_refusal
    monkeypatch.setattr(pqsim.oracle, "_size_refusal", lambda *args: (
        listed.append(size_refusal(*args)) or listed[-1]))
    return listed


@pytest.mark.parametrize("build,n_max", GUARD_CASES)
def test_size_guard_counts_the_steps_of_the_largest_sector(monkeypatch, build, n_max):
    # The steps the guard charges its kets, C(K + n - 1, n) states times
    # prod_k (c_k + 1) - 1 per ket, equal sector by sector the Ryser steps
    # the run then takes, and its refusal below any sector's cost quotes
    # the costliest.
    config = build()
    per_sector = {}
    permanent_batch = pqsim.oracle.permanent_batch

    def spy(mats, counts):
        steps = len(mats) * (math.prod(c + 1 for c in counts) - 1)
        per_sector[sum(counts)] = per_sector.get(sum(counts), 0) + steps
        return permanent_batch(mats, counts)

    monkeypatch.setattr(pqsim.oracle, "permanent_batch", spy)
    listed = record_guard(monkeypatch)
    exact_distribution(config, n_max=n_max)
    (refusal, kets), = listed
    assert refusal is None
    charged = {}
    for _, _, occs, _ in kets:
        for ket in occs.tolist():
            n, modes = sum(ket), len(ket)
            steps = math.comb(modes + n - 1, n) * (math.prod(c + 1 for c in ket) - 1)
            if steps:
                charged[n] = charged.get(n, 0) + steps
    assert charged == per_sector

    monkeypatch.setattr(pqsim.oracle, "MAX_SECTOR_STEPS", -1)
    with pytest.raises(OracleSizeError) as err:
        exact_distribution(config, n_max=n_max)
    bound = re.search(r"a sector of (\S+) permanent steps", str(err.value)).group(1)
    assert bound == f"{max(per_sector.values(), default=0):.3g}"


@pytest.mark.parametrize("build,n_max", GUARD_CASES)
def test_each_alternative_tensors_its_blocks_once(monkeypatch, build, n_max):
    # The guard and the run share one enumeration: one _tensor call per
    # block of each mixture alternative (one alternative per block) whose
    # weight reaches the ket floor; the others keep no ket.
    config = build()
    expanded, tensored = [], []
    expand, tensor = pqsim.oracle._expand, pqsim.oracle._tensor
    monkeypatch.setattr(pqsim.oracle, "_expand", lambda *args: (
        expanded.append(expand(*args)) or expanded[-1]))
    monkeypatch.setattr(pqsim.oracle, "_tensor", lambda *args: (
        tensored.append(None) or tensor(*args)))
    exact_distribution(config, n_max=n_max)
    (blocks, _, _), = expanded
    kept = sum(math.prod(w for w, _, _ in combo) >= 1e-12 for combo in itertools.product(*blocks))
    assert len(tensored) == kept * len(blocks)


@pytest.mark.parametrize("build,n_max", GUARD_CASES)
def test_each_kept_ket_is_propagated_once(monkeypatch, build, n_max):
    config = build()
    applied, apply = [], pqsim.oracle._Propagator.apply
    monkeypatch.setattr(pqsim.oracle._Propagator, "apply",
                        lambda self, ket: applied.append(ket) or apply(self, ket))
    listed = record_guard(monkeypatch)
    exact_distribution(config, n_max=n_max)
    (_, kets), = listed
    kept = [tuple(ket) for _, _, occs, _ in kets for ket in occs.tolist()]
    assert len(set(applied)) == len(applied)
    assert sorted(applied) == sorted(kept)


def six_thermal_ports() -> ExperimentConfig:
    """Thermal(0.13) on ports 0-5 and vacuum on 6-8 of a 9-mode Haar unitary."""
    modes = 9
    sources = [PortSource(Thermal(0.13), (k,)) for k in range(6)]
    sources += [PortSource(Vacuum(), (k,)) for k in range(6, modes)]
    return ExperimentConfig(modes=modes, sources=tuple(sources),
                            transfer=haar_unitary(modes, RngStream(3)),
                            detectors=(DetectorModel(0.9, 0.05),) * modes)


def test_twelve_photons_over_nine_modes_are_refused_before_any_sector(monkeypatch):
    # Six Thermal(0.13) ports at n_max 2 keep kets of up to 2 photons
    # each: the 12-photon alternative weighs (1 - q)^6 q^12 = 2.6e-12,
    # q = 0.13 / 1.13, above the 1e-12 floor.  So the 12-photon sector over
    # 9 modes holds a ket with 2 photons on 6 modes, 728 steps for each of
    # its 125,970 states, and the 10-photon sector 2.76e8 steps in all.
    # The size guard refuses ahead of the truncation check.
    monkeypatch.setattr(pqsim.oracle, "_sector", one_state_sector(-1))
    started = time.perf_counter()
    with pytest.raises(OracleSizeError,
                       match=r"kets of up to 12 photons, a sector of 2.76e\+08 permanent "
                             r"steps over 9 modes"):
        exact_distribution(six_thermal_ports(), n_max=2)
    assert time.perf_counter() - started < 1.0


def test_alternatives_below_the_floor_are_cut_unwalked(monkeypatch):
    # At n_max 16 each Thermal(0.13) port has 17 alternatives, 17^6 = 2.4e7
    # combinations in all, and walking each in Python would take minutes.
    # A branch that cannot reach the floor is cut, so the refusal takes about
    # 1.3 s on 2 cores (a walk of every combination took 4 s at n_max 8).
    monkeypatch.setattr(pqsim.oracle, "_sector", one_state_sector(-1))
    started = time.perf_counter()
    with pytest.raises(OracleSizeError, match=r"kets of up to 12 photons, a sector of "):
        exact_distribution(six_thermal_ports(), n_max=16)
    assert time.perf_counter() - started < 5.0


def test_weak_sources_build_only_the_kets_they_keep():
    # Twelve Coherent(0.002) ports at n_max 4 tensor into 5^12 kets, of which
    # the floor keeps those of up to 2 photons: 91.  Through a unitary the
    # output is coherent, so clicks are independent per mode.
    modes, alpha, eta_d, p_d = 12, 0.002, 0.9, 0.05
    unitary = haar_unitary(modes, RngStream(3))
    config = ExperimentConfig(modes=modes,
                              sources=tuple(PortSource(Coherent(alpha), (k,)) for k in range(modes)),
                              transfer=unitary, detectors=(DetectorModel(eta_d, p_d),) * modes)
    tracemalloc.start()
    try:
        table = exact_distribution(config, n_max=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    click = 1.0 - (1.0 - p_d) * np.exp(-eta_d * np.abs(alpha * unitary.sum(axis=0)) ** 2)
    bits = np.array([[int(b) for b in outcome] for outcome in table.outcomes])
    product = np.prod(np.where(bits == 1, click, 1.0 - click), axis=1)
    assert np.max(np.abs(table.probs - product)) <= table.truncation_error + 1e-12


@pytest.mark.parametrize("build,n_max,stacks", CASES)
def test_no_python_call_per_output_state(build, n_max, stacks):
    config = build()
    profile = cProfile.Profile()
    profile.runcall(exact_distribution, config, n_max=n_max)
    calls = pstats.Stats(profile).total_calls
    assert calls < 50_000
