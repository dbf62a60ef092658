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
from pqsim.sampler import BATCH_SIZE, run_condition1, run_condition2
from pqsim.states import (
    Coherent,
    MixedSinglePhoton,
    SpdcPair,
    Thermal,
    Vacuum,
    sample_source_pqd,
)

DRAWS = 5000


def csv_sha256(batch) -> str:
    return hashlib.sha256(batch.to_csv_bytes()).hexdigest()


def test_route1_spdc():
    batch = run_condition1(spdc_config(3, 0.05, p_d=0.09), DRAWS, RngStream(2026))
    assert csv_sha256(batch) == "a5beeaa0cb8066e69d37a6731d192ced8d8ef386be2b9ca640683ab43e511c91"


def test_route2_single_photons():
    batch = run_condition2(single_photon_config(6, 3, p_d=0.06), DRAWS, RngStream(2026))
    assert csv_sha256(batch) == "db80539839e720fdd91211bca789ae9b317de0f3f528e40d318a785e4fce29a8"


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
    assert csv_sha256(batch) == "afce0468198385e70d6903b4169fb81c885b99da1c6fb7a289713bd9ab18bb71"


def test_preset_config_hash():
    config = single_photon_config(4, 2, p_d=0.06)
    assert config.config_hash() == "513f443f17f373de13e8ba65f26a189645b4f8388334093188468a8e2fbcfee3"


def test_route2_spdc():
    # kappa = 0.50: the SPDC preset passes the Sigma_bar test as well.  On
    # all-Gaussian sources route 2's zero-noise chain is route 1's tile, so
    # it writes route 1's bytes (test_route1_spdc's pin).
    config = spdc_config(3, 0.05, p_d=0.09)
    route2 = run_condition2(config, DRAWS, RngStream(2026))
    assert route2.to_csv_bytes() == run_condition1(config, DRAWS, RngStream(2026)).to_csv_bytes()


def test_route2_rank_s_single_photons():
    # |S|/M = 1/16: route 2 samples on its rank-|S| path, whose bytes the
    # pins above, all on the zero-noise chain, no longer reach.
    batch = run_condition2(single_photon_config(64, 4, p_d=0.06), DRAWS, RngStream(2026))
    assert csv_sha256(batch) == "9b061ca20eed2739c6b37daba1bc68f9d267d1beab6335a069cb76c5b21096f8"


def test_route1_gaussian_mix():
    config = ExperimentConfig(
        modes=5,
        sources=(PortSource(Vacuum(), (0,)),
                 PortSource(Coherent(0.3 - 0.4j), (1,)),
                 PortSource(Thermal(0.2), (2,)),
                 PortSource(SpdcPair(0.35, 0.8), (3, 4))),
        transfer=np.sqrt(0.9) * haar_unitary(5, RngStream(11)),
        detectors=(DetectorModel(0.9, 0.3),) * 5,
    )
    batch = run_condition1(config, DRAWS, RngStream(2026))
    assert csv_sha256(batch) == "85304095b55fc04ca45a0f24b2f22497f9137bfecfc853850ff4383e6d3db21d"


def test_all_kinds_config_hash():
    # Explicit ports, the SPDC eta_bl left to its default, and an integer mu.
    config = ExperimentConfig.from_dict({
        "modes": 6,
        "sources": [
            {"kind": "thermal", "mean_photons": 0.25, "port": 5},
            {"kind": "spdc", "r": 0.3, "herald": 2, "signal": 0},
            {"kind": "single_photon", "mu": 1, "eta_b": 0.5, "port": 1},
            {"kind": "coherent", "amplitude": [0.5, -0.25], "port": 4},
            {"kind": "vacuum", "port": 3},
        ],
        "lon": {"kind": "uniform-loss", "eta0": 0.98, "ell": 2, "M": 6, "unitary_seed": 4},
        "detectors": {"eta_d": 0.9, "p_d": 0.1},
    })
    assert config.config_hash() == "aa1572ca1947606c0ae6783fad9fdc2babd739839506014b6439a4ab4e4f2d9e"


# At M = 48 a batch is three 5461-row tiles and a 1-row one, and the 7
# further shots make a second batch: these pin the tile streams
# rng.child(b).child(j), which no pin at M <= 16 reaches.
MULTI_TILE_DRAWS = BATCH_SIZE + 7


def test_route2_multi_tile_single_photons():
    batch = run_condition2(single_photon_config(48, 6, p_d=0.06), MULTI_TILE_DRAWS,
                           RngStream(2026), workers=2)
    assert csv_sha256(batch) == "d4928396bfe29b56d27ce50f375d9bc859c9d526dd15f1d472dde473b680ab9f"


def test_route1_multi_tile_spdc():
    batch = run_condition1(spdc_config(24, 0.05, p_d=0.09), MULTI_TILE_DRAWS,
                           RngStream(2026), workers=2)
    assert csv_sha256(batch) == "949a67c6704a416a0c880893e81e35548c2787ec596116d171cef2dd8ac282fa"


def test_gaussian_source_draws():
    # The input draw itself, below every route: amplitudes and the Philox
    # counter after each draw, per Gaussian kind and ordering (capped at t_bar).
    digest = hashlib.sha256()
    for source in (Vacuum(), Coherent(0.3 - 0.7j), Thermal(0.0), Thermal(0.4),
                   SpdcPair(0.3, 0.8)):
        for t in (-1.0, -0.3, 0.0, 0.5, 0.999, 1.0):
            gen = RngStream(7).generator()
            t_block = [min(t, source.t_bar)] * len(source.port_names)
            digest.update(sample_source_pqd(source, t_block, gen, 10_007).tobytes())
            state = gen.bit_generator.state
            digest.update(state["state"]["counter"].tobytes())
            digest.update(int(state["buffer_pos"]).to_bytes(8, "little"))
    assert digest.hexdigest() == "5ff9e288afd829ce537f4b95d9a3c4d541b9d512f08530075e5db7c11efe29d4"
