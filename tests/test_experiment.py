import json

import numpy as np
import pytest

from pqsim import DetectorModel, RngStream
from pqsim.errors import ConfigError
from pqsim.experiment import (
    SCHEME_SPDC,
    ExperimentConfig,
    Mismatch,
    PortSource,
    parse_config,
)
from pqsim.linalg import haar_unitary
from pqsim.matrixio import save_matrix_csv, save_matrix_json
from pqsim.states import Coherent, MixedSinglePhoton, SpdcPair, Vacuum


MINIMAL = {
    "modes": 2,
    "sources": ["vacuum", "vacuum"],
    "lon": "identity",
    "detectors": {"eta_d": 1.0, "p_d": 0.0},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParsing:
    def test_minimal_vacuum_config(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL))
        assert config.modes == 2
        assert all(isinstance(e.source, Vacuum) for e in config.sources)
        assert np.array_equal(config.transfer, np.eye(2))
        assert config.detectors == (DetectorModel(1.0, 0.0),) * 2

    def test_detector_range_error_names_field(self, tmp_path):
        data = dict(MINIMAL, detectors={"eta_d": 1.0, "p_d": 1.2})
        with pytest.raises(ConfigError, match="detectors.*p_d"):
            parse_config(write_config(tmp_path, data))

    def test_spdc_odd_mode_count_is_port_pairing_error(self, tmp_path):
        data = {
            "modes": 3,
            "scheme": "spdc",
            "sources": [
                {"kind": "spdc", "r": 0.2, "eta_bl": 0.9, "herald": 0, "signal": 1},
                "vacuum",
            ],
            "lon": "identity",
            "detectors": {"eta_d": 0.9, "p_d": 0.05},
        }
        with pytest.raises(ConfigError, match="pairing"):
            parse_config(write_config(tmp_path, data))

    def test_double_booked_port_rejected(self, tmp_path):
        data = {
            "modes": 2,
            "sources": [
                {"kind": "spdc", "r": 0.2, "herald": 0, "signal": 1},
                {"kind": "vacuum", "port": 1},
            ],
            "lon": "identity",
            "detectors": {"eta_d": 0.9, "p_d": 0.05},
        }
        with pytest.raises(ConfigError, match="already taken"):
            parse_config(write_config(tmp_path, data))

    def test_uncovered_port_rejected(self, tmp_path):
        data = dict(MINIMAL, sources=["vacuum"])
        with pytest.raises(ConfigError, match="free ports|no source"):
            parse_config(write_config(tmp_path, data))

    def test_unknown_source_kind_rejected(self, tmp_path):
        data = dict(MINIMAL, sources=["vacuum", {"kind": "laser"}])
        with pytest.raises(ConfigError, match="sources\\[1\\].kind"):
            parse_config(write_config(tmp_path, data))

    def test_uniform_loss_lon_is_seeded_and_contracts(self, tmp_path):
        data = dict(
            MINIMAL,
            lon={"kind": "uniform-loss", "eta0": 0.98, "ell": 2, "M": 2, "unitary_seed": 5},
        )
        config1 = parse_config(write_config(tmp_path, data, "a.json"))
        config2 = parse_config(write_config(tmp_path, data, "b.json"))
        assert np.array_equal(config1.transfer, config2.transfer)
        smax = np.linalg.norm(config1.transfer, 2)
        assert smax == pytest.approx(np.sqrt(0.98), abs=1e-12)

    def test_matrix_file_reference_relative_to_config(self, tmp_path):
        matrix = np.sqrt(0.5) * haar_unitary(2, RngStream(1))
        save_matrix_json(tmp_path / "lon.json", matrix)
        data = dict(MINIMAL, lon={"kind": "matrix", "file": "lon.json"})
        config = parse_config(write_config(tmp_path, data))
        assert np.allclose(config.transfer, matrix)

    def test_matrix_csv_file_reference(self, tmp_path):
        matrix = np.sqrt(0.5) * haar_unitary(2, RngStream(2))
        save_matrix_csv(tmp_path / "lon.csv", matrix)
        data = dict(MINIMAL, lon={"kind": "matrix", "file": "lon.csv"})
        config = parse_config(write_config(tmp_path, data))
        assert np.allclose(config.transfer, matrix)

    def test_amplifying_lon_rejected(self, tmp_path):
        data = dict(MINIMAL, lon={"kind": "matrix", "rows": 2, "cols": 2,
                                  "re": [1.5, 0, 0, 1.0], "im": [0, 0, 0, 0]})
        with pytest.raises(ConfigError, match="singular value"):
            parse_config(write_config(tmp_path, data))

    def test_per_mode_detector_list(self, tmp_path):
        data = dict(MINIMAL, detectors=[
            {"eta_d": 0.9, "p_d": 0.1}, {"eta_d": 0.8, "p_d": 0.2},
        ])
        config = parse_config(write_config(tmp_path, data))
        assert config.detectors == (DetectorModel(0.9, 0.1), DetectorModel(0.8, 0.2))
        assert config.identical_detectors() is None

    def test_scheme_inferred_from_sources(self, tmp_path):
        data = {
            "modes": 2,
            "sources": [{"kind": "spdc", "r": 0.3, "eta_bl": 0.8,
                         "herald": 0, "signal": 1}],
            "lon": "identity",
            "detectors": {"eta_d": 0.9, "p_d": 0.08},
        }
        config = parse_config(write_config(tmp_path, data))
        assert config.scheme == SCHEME_SPDC

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.json")


class TestSchemaFile:
    def test_documented_schema_accepts_real_configs(self):
        import jsonschema
        from pathlib import Path

        schema = json.loads(
            (Path(__file__).parent.parent / "docs" / "config_schema.json").read_text()
        )
        spdc = {
            "modes": 2,
            "sources": [{"kind": "spdc", "r": 0.3, "eta_bl": 0.8,
                         "herald": 0, "signal": 1}],
            "lon": {"kind": "uniform-loss", "eta0": 0.98, "ell": 2, "M": 2},
            "detectors": [{"eta_d": 0.9, "p_d": 0.08}, {"eta_d": 0.9, "p_d": 0.08}],
            "mismatch": {"f_b": 0.1, "f_l": 0.9},
        }
        for payload in (MINIMAL, spdc):
            jsonschema.validate(payload, schema)
        bad = dict(MINIMAL, detectors={"eta_d": 1.0, "p_d": 1.2})
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


class TestRoundTripAndHash:
    def build(self):
        return ExperimentConfig(
            modes=4,
            sources=(
                PortSource(MixedSinglePhoton(0.5, 0.1), (0,)),
                PortSource(Coherent(0.3 + 0.1j), (1,)),
                PortSource(SpdcPair(0.4, 0.9), (2, 3)),
            ),
            transfer=np.sqrt(0.9) * haar_unitary(4, RngStream(9)),
            detectors=(DetectorModel(0.95, 0.05),) * 4,
            mismatch=Mismatch(0.1, 0.9),
        )

    def test_round_trip_preserves_config(self, tmp_path):
        config = self.build()
        path = tmp_path / "cfg.json"
        path.write_text(config.to_json())
        assert parse_config(path) == config

    def test_hash_is_stable_and_sensitive(self):
        config = self.build()
        again = self.build()
        assert config.config_hash() == again.config_hash()
        other = ExperimentConfig(
            modes=config.modes,
            sources=config.sources,
            transfer=config.transfer,
            detectors=(DetectorModel(0.95, 0.06),) * 4,
            mismatch=config.mismatch,
        )
        assert other.config_hash() != config.config_hash()

    def test_hash_of_matrix_config_survives_json_round_trip(self, tmp_path):
        config = self.build()
        path = tmp_path / "cfg.json"
        path.write_text(config.to_json())
        assert parse_config(path).config_hash() == config.config_hash()

    def test_hash_sees_one_ulp_in_one_entry(self):
        config = self.build()
        transfer = config.transfer.copy()
        transfer[2, 1] = complex(np.nextafter(transfer[2, 1].real, np.inf), transfer[2, 1].imag)
        other = ExperimentConfig(modes=4, sources=config.sources, transfer=transfer,
                                 detectors=config.detectors, mismatch=config.mismatch)
        assert other.config_hash() != config.config_hash()

    def test_hash_ignores_memory_layout(self):
        config = self.build()
        wide = np.zeros((4, 8), dtype=complex)
        wide[:, ::2] = config.transfer
        for transfer in (np.asfortranarray(config.transfer), wide[:, ::2]):
            copy = ExperimentConfig(modes=4, sources=config.sources, transfer=transfer,
                                    detectors=config.detectors, mismatch=config.mismatch)
            assert copy.config_hash() == config.config_hash()

    def test_round_trip_of_parsed_json_config(self, tmp_path):
        data = {
            "modes": 2,
            "sources": [{"kind": "single_photon", "mu": 0.5, "eta_b": 0.1}, "vacuum"],
            "lon": {"kind": "uniform-loss", "eta0": 0.98, "ell": 2, "M": 2,
                    "unitary_seed": 3},
            "detectors": {"eta_d": 0.95, "p_d": 0.05},
            "mismatch": {"f_b": 0.1, "f_l": 0.9},
        }
        config = parse_config(write_config(tmp_path, data))
        path = tmp_path / "round.json"
        path.write_text(config.to_json())
        assert parse_config(path) == config
        assert parse_config(path).config_hash() == config.config_hash()
