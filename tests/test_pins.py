"""Golden pins: sha256 of the sampled CSV bytes of small runs, per route,
and the config hash of one preset.

A pin that moves means the random stream or the hash changed; a change
that moves one on purpose says so in CHANGES.md and updates it here.
"""

import hashlib

import numpy as np

from pqsim import DetectorModel, RngStream
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary
from pqsim.presets import single_photon_config, spdc_config
from pqsim.sampler import run_condition1, run_condition2
from pqsim.states import Coherent, MixedSinglePhoton, Thermal, Vacuum

DRAWS = 5000


def csv_sha256(batch) -> str:
    return hashlib.sha256(batch.to_csv_bytes()).hexdigest()


def test_route1_spdc():
    batch = run_condition1(spdc_config(3, 0.05, p_d=0.09), DRAWS, RngStream(2026))
    assert csv_sha256(batch) == "fc0a2428d3d8b55f0a49bc9bce87bb900b4f0297932c9c79c8cb22c63690b78c"


def test_route2_single_photons():
    batch = run_condition2(single_photon_config(6, 3, p_d=0.06), DRAWS, RngStream(2026))
    assert csv_sha256(batch) == "9570c5be3db0fa54c0d4237621d74e660121defd869526f3dbd6c1124f1e78e2"


def test_route2_classical_and_photon_mix():
    config = ExperimentConfig(
        modes=4,
        sources=(PortSource(Vacuum(), (0,)),
                 PortSource(MixedSinglePhoton(0.6, 0.5), (1,)),
                 PortSource(Coherent(0.4 - 0.2j), (2,)),
                 PortSource(Thermal(0.1), (3,))),
        transfer=np.sqrt(0.9) * haar_unitary(4, RngStream(5)),
        detectors=(DetectorModel(0.9, 0.3),) * 4,
    )
    batch = run_condition2(config, DRAWS, RngStream(2026))
    assert csv_sha256(batch) == "6b90073d5676a24d295656ea5b2821c2ad7859703352d8ec9d7cf7fc20ea67c0"


def test_preset_config_hash():
    config = single_photon_config(4, 2, p_d=0.06)
    assert config.config_hash() == "513f443f17f373de13e8ba65f26a189645b4f8388334093188468a8e2fbcfee3"
