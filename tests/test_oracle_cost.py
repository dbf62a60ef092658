"""Structural guards on the exact oracle's cost: one permanent stack per
distinct input ket, Ryser steps set by the ket's occupations, and no
Python work per output state or occupation.

Under cProfile the two configs below make about 5,300 and 1,100
Python-level calls; a loop over output states or occupations makes
hundreds of thousands (1,183,854 and 268,017).
"""

import cProfile
import math
import pstats

import pytest

import pqsim.linalg
import pqsim.oracle
from pqsim.oracle import exact_distribution
from pqsim.presets import single_photon_config, spdc_config

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


@pytest.mark.parametrize("build,n_max,stacks", CASES)
def test_no_python_call_per_output_state(build, n_max, stacks):
    config = build()
    profile = cProfile.Profile()
    profile.runcall(exact_distribution, config, n_max=n_max)
    calls = pstats.Stats(profile).total_calls
    assert calls < 50_000
