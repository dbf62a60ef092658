import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsim import DetectorModel, RngStream
from pqsim.errors import ConfigError, UnsupportedSourceError
from pqsim.experiment import (
    SCHEME_SPDC,
    ExperimentConfig,
    Mismatch,
    PortSource,
    parse_config,
)
from pqsim.linalg import haar_unitary
from pqsim.matrixio import save_matrix_csv, save_matrix_json
from pqsim.presets import single_photon_config, spdc_config
from pqsim.states import SOURCE_KINDS, Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

from conftest import oracle_suite


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

    def test_spdc_scheme_on_an_odd_mode_count_parses_and_round_trips(self, tmp_path):
        # Neither route pairs modes, so an spdc experiment with a spare port is valid.
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
        config = parse_config(write_config(tmp_path, data))
        assert config.modes == 3 and config.scheme == SCHEME_SPDC
        again = ExperimentConfig.from_dict(json.loads(config.to_json()))
        assert again == config and again.config_hash() == config.config_hash()

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="scheme: unknown scheme 'boson'"):
            parse_config(write_config(tmp_path, dict(MINIMAL, scheme="boson")))

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

    def test_mode_count_beyond_the_sources_is_refused_briefly(self, tmp_path, capsys):
        # The refusal counts the uncovered ports instead of listing them.
        from pqsim.cli import EXIT_USAGE, main

        path = write_config(tmp_path, dict(MINIMAL, modes=1_000_000, sources=["vacuum"]))
        with pytest.raises(ConfigError, match="no source") as info:
            parse_config(path)
        assert len(str(info.value)) < 1024
        assert main(["check", "--config", str(path), "--quiet"]) == EXIT_USAGE
        assert len(capsys.readouterr().err) < 1024

    def test_uniform_loss_size_is_checked_before_the_unitary_is_drawn(self, tmp_path,
                                                                      monkeypatch):
        def refuse(*args):
            raise AssertionError("haar_unitary called")

        monkeypatch.setattr("pqsim.experiment.haar_unitary", refuse)
        data = dict(MINIMAL, lon={"kind": "uniform-loss", "eta0": 0.98, "ell": 2, "M": 1500})
        with pytest.raises(ConfigError, match=re.escape("lon.M: must equal modes (2)")):
            parse_config(write_config(tmp_path, data))

    def test_mismatch_range_error_names_field(self, tmp_path, capsys):
        from pqsim.cli import EXIT_USAGE, main

        path = write_config(tmp_path, dict(MINIMAL, mismatch={"f_b": 1.5}))
        message = "mismatch: f_b must be in [0, 1], got 1.5"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert main(["check", "--config", str(path), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("source,field", [
        ({"kind": "thermal", "mean_photons": 10**401}, "mean_photons"),
        ({"kind": "coherent", "amplitude": [0.5, -10**401]}, "amplitude"),
    ], ids=["thermal", "coherent"])
    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys, source,
                                                           field):
        from pqsim.cli import EXIT_USAGE, main

        path = write_config(tmp_path, dict(MINIMAL, sources=["vacuum", source]))
        message = f"sources[1].{field}: number too large for a float"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert main(["check", "--config", str(path), "--quiet"]) == EXIT_USAGE == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_unknown_source_kind_rejected(self, tmp_path):
        data = dict(MINIMAL, sources=["vacuum", {"kind": "laser"}])
        with pytest.raises(ConfigError, match="sources\\[1\\].kind"):
            parse_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("amplitude", [[None, 1.0], [[1.0], 0.0], [{}, 0.0],
                                           [True, 0.0], ["0.5", 0.0]])
    def test_malformed_amplitude_entry_is_config_error(self, tmp_path, amplitude):
        import jsonschema

        data = dict(MINIMAL, sources=["vacuum", {"kind": "coherent", "amplitude": amplitude}])
        with pytest.raises(ConfigError, match="sources\\[1\\].amplitude: expected \\[re, im\\]"):
            parse_config(write_config(tmp_path, data))
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, json.loads(SCHEMA_PATH.read_text()))

    def test_port_source_refuses_a_foreign_source(self):
        with pytest.raises(UnsupportedSourceError, match="unknown source model 'laser'"):
            PortSource("laser", (0,))

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


SCHEMA_PATH = Path(__file__).parent.parent / "docs" / "config_schema.json"

UNIFORM_LOSS = dict(MINIMAL, lon={"kind": "uniform-loss", "eta0": 0.98, "ell": 2, "M": 2,
                                  "unitary_seed": 1})


def non_integer_counts():
    """(field, JSON literal, config with "@" where the literal goes) for
    each count the schema declares an integer; each config is valid with
    "@" set to 2 on the uniform-loss network and to 1 elsewhere."""
    yield "modes", "true", dict(MINIMAL, modes="@", sources=["vacuum"])
    for key in ("M", "ell", "unitary_seed"):
        for literal in ("1e400", "2.7"):
            lon = dict(UNIFORM_LOSS["lon"], **{key: "@"})
            yield f"lon.{key}", literal, dict(UNIFORM_LOSS, lon=lon)
    for key in ("rows", "cols"):
        for literal in ("true", "1e400", "2.7"):
            lon = {"kind": "matrix", "rows": 1, "cols": 1, "re": [1.0], "im": [0.0], key: "@"}
            yield f"lon: matrix dict {key}", literal, dict(MINIMAL, modes=1, sources=["vacuum"],
                                                          lon=lon)
    yield "sources[1].port", "true", dict(MINIMAL, sources=["vacuum", {"kind": "vacuum",
                                                                       "port": "@"}])


def unknown_keys():
    """(the refused key as the error names it, config) for an unknown key
    in each kind of object the format has."""
    photon = {"kind": "single_photon", "mu": 0.5}
    pair = {"kind": "spdc", "r": 0.1, "herald": 0, "signal": 1}
    yield "config.mismtach", dict(MINIMAL, mismtach={"f_b": 0.1})
    yield "detectors.pd", dict(MINIMAL, detectors={"eta_d": 0.9, "pd": 0.3})
    yield "detectors[1].pd", dict(MINIMAL, detectors=[{"eta_d": 0.9}, {"eta_d": 0.9, "pd": 0.3}])
    yield "sources[0].eta", dict(MINIMAL, sources=[dict(photon, eta=0.1), "vacuum"])
    yield "sources[0].port", dict(MINIMAL, sources=[dict(pair, port=0)])
    yield "sources[1].herald", dict(MINIMAL, sources=["vacuum", {"kind": "vacuum", "herald": 1}])
    yield "lon.M", dict(MINIMAL, lon={"kind": "identity", "M": 2})
    yield "lon.transpose", dict(MINIMAL, lon={"kind": "matrix", "file": "lon.json",
                                              "transpose": True})
    yield "lon.scale", dict(MINIMAL, modes=1, sources=["vacuum"],
                            lon={"kind": "matrix", "rows": 1, "cols": 1, "re": [1.0],
                                 "im": [0.0], "scale": 0.5})
    yield "lon.seed", dict(UNIFORM_LOSS, lon=dict(UNIFORM_LOSS["lon"], seed=3))
    yield "mismatch.fb", dict(MINIMAL, mismatch={"fb": 0.1})


class TestSchemaFile:
    def test_documented_schema_accepts_real_configs(self):
        import jsonschema

        schema = json.loads(SCHEMA_PATH.read_text())
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


    @pytest.mark.parametrize("field, literal, data", [
        pytest.param(*case, id=f"{case[0]}={case[1]}") for case in non_integer_counts()])
    def test_schema_and_parser_refuse_non_integer_counts(self, field, literal, data,
                                                         tmp_path, capsys):
        import jsonschema

        from pqsim.cli import EXIT_USAGE, main

        schema = json.loads(SCHEMA_PATH.read_text())
        path = tmp_path / "config.json"
        valid = json.dumps(data).replace('"@"', "2" if field.startswith("lon.") else "1")
        path.write_text(valid)
        jsonschema.validate(json.loads(valid), schema)
        parse_config(path)
        text = json.dumps(data).replace('"@"', literal)
        path.write_text(text)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(json.loads(text), schema)
        with pytest.raises(ConfigError, match=re.escape(f"{field}: expected")):
            parse_config(path)
        assert main(["check", "--config", str(path), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: expected") and "Traceback" not in err

    @pytest.mark.parametrize("field, data", [
        pytest.param(field, data, id=field)
        for field, _, data in {case[0]: case for case in non_integer_counts()}.values()])
    def test_only_the_parser_refuses_a_float_count(self, field, data, tmp_path):
        # JSON Schema counts 2.0 as an integer; the README and the schema's
        # descriptions document that the parser alone refuses it.
        import jsonschema

        schema = json.loads(SCHEMA_PATH.read_text())
        text = json.dumps(data).replace('"@"', "2.0")
        jsonschema.validate(json.loads(text), schema)
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{field}: expected")):
            parse_config(path)

    @pytest.mark.parametrize("key, data", [
        pytest.param(*case, id=case[0]) for case in unknown_keys()])
    def test_schema_and_parser_refuse_unknown_keys(self, key, data, tmp_path, capsys):
        import jsonschema

        from pqsim.cli import EXIT_USAGE, main

        schema = json.loads(SCHEMA_PATH.read_text())
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, schema)
        path = write_config(tmp_path, data)
        with pytest.raises(ConfigError, match=re.escape(f"{key}: unknown key")):
            parse_config(path)
        assert main(["check", "--config", str(path), "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: unknown key") and "Traceback" not in err

    @pytest.mark.parametrize("config", [
        pytest.param(config, id=name) for name, config in
        [("single_photon", single_photon_config(6, 2, p_d=0.06)),
         ("spdc", spdc_config(3, 0.05, p_d=0.06)),
         ("mixed_detectors", ExperimentConfig(
             modes=2,
             sources=(PortSource(Coherent(0.3 - 0.4j), (1,)), PortSource(Thermal(0.2), (0,))),
             transfer=np.sqrt(0.5) * haar_unitary(2, RngStream(3)),
             detectors=(DetectorModel(0.9, 0.05), DetectorModel(0.7)),
             mismatch=Mismatch(0.25, 0.5))),
         *((name, config) for name, config, _, _ in oracle_suite())]])
    def test_written_configs_pass_both(self, config, tmp_path):
        import jsonschema

        text = config.to_json()
        jsonschema.validate(json.loads(text), json.loads(SCHEMA_PATH.read_text()))
        path = tmp_path / "config.json"
        path.write_text(text)
        assert parse_config(path) == config

    def test_source_kinds_match_the_parser(self):
        """The schema documents exactly the kinds the parser accepts, and each
        kind requires its fields without a default and, for a multi-port
        kind, its port names."""
        items = json.loads(SCHEMA_PATH.read_text())["properties"]["sources"]["items"]["oneOf"]
        required = {}
        for item in items:
            if "const" in item:
                assert item["const"] in SOURCE_KINDS
                continue
            required[item["properties"]["kind"]["const"]] = item["required"]
        assert set(required) == set(SOURCE_KINDS)
        for kind, cls in SOURCE_KINDS.items():
            ports = list(cls.port_names) if len(cls.port_names) > 1 else []
            no_default = [f.name for f in fields(cls) if f.default is MISSING]
            assert required[kind] == ["kind"] + no_default + ports, kind

    @pytest.mark.parametrize("cls, path", [(DetectorModel, ("$defs", "detector")),
                                           (Mismatch, ("properties", "mismatch"))])
    def test_detector_and_mismatch_fields_match_the_parser(self, cls, path):
        """The schema's detector and mismatch objects list exactly their
        dataclass's fields and require exactly those without a default."""
        item = json.loads(SCHEMA_PATH.read_text())
        for key in path:
            item = item[key]
        assert set(item["properties"]) == {f.name for f in fields(cls)}
        assert item.get("required", []) == [f.name for f in fields(cls)
                                            if f.default is MISSING]


def _unit(draw):
    return draw(st.one_of(st.sampled_from([0, 1]), st.floats(0.0, 1.0)))


@st.composite
def random_configs(draw):
    """ExperimentConfigs with random sources of all five kinds on randomly
    permuted ports."""
    kinds = draw(st.lists(st.sampled_from(sorted(SOURCE_KINDS)), min_size=1, max_size=5))
    sources = []
    for kind in kinds:
        if kind == "vacuum":
            sources.append(Vacuum())
        elif kind == "single_photon":
            sources.append(MixedSinglePhoton(_unit(draw), _unit(draw)))
        elif kind == "coherent":
            re, im = (draw(st.floats(-50.0, 50.0)) for _ in range(2))
            sources.append(Coherent(complex(re, im) if draw(st.booleans()) else re))
        elif kind == "thermal":
            sources.append(Thermal(draw(st.one_of(st.integers(0, 5), st.floats(0.0, 50.0)))))
        else:
            sources.append(SpdcPair(draw(st.floats(0.0, 3.0)), _unit(draw)))
    modes = sum(len(source.port_names) for source in sources)
    order = iter(draw(st.permutations(range(modes))))
    port_sources = tuple(
        PortSource(source, tuple(next(order) for _ in source.port_names))
        for source in sources
    )
    seed = draw(st.integers(0, 1000))
    mismatch = draw(st.one_of(st.none(), st.builds(Mismatch, st.floats(0.0, 1.0),
                                                   st.floats(0.0, 1.0))))
    return ExperimentConfig(
        modes=modes,
        sources=port_sources,
        transfer=draw(st.floats(0.1, 1.0)) * haar_unitary(modes, RngStream(seed)),
        detectors=tuple(DetectorModel(_unit(draw), draw(st.floats(0.0, 1.0)))
                        for _ in range(modes)),
        mismatch=mismatch,
    )


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(random_configs())
    def test_dict_round_trip_keeps_config_and_hash(self, config):
        data = json.loads(config.to_json())
        assert data == config.to_dict()
        again = ExperimentConfig.from_dict(data)
        assert again == config
        assert again.config_hash() == config.config_hash()
        assert again.to_dict() == data


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
