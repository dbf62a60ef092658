import hashlib
import json
import time
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import pqsim.oracle
import pqsim.sampler
from pqsim.cli import EXIT_FAIL, EXIT_OK, EXIT_REFUSED, EXIT_USAGE, build_parser, main
from pqsim.detectors import DetectorModel
from pqsim.errors import SimulabilityError
from pqsim.experiment import SCHEME_SINGLE_PHOTON, SCHEME_SPDC, ExperimentConfig, PortSource
from pqsim.presets import ScenarioParams, single_photon_config, spdc_config, threshold_table
from pqsim.rng import RngStream
from pqsim.states import Coherent

from conftest import (
    one_state_sector,
    oracle_suite,
    spdc_and_photon_config,
    spdc_lossy_network_config,
    thermal_on_lossy_six,
)


@pytest.fixture
def photon_config_path(tmp_path):
    config = single_photon_config(3, 1, p_d=0.06, unitary_seed=12)
    path = tmp_path / "photon.json"
    path.write_text(config.to_json())
    return path


@pytest.fixture
def hom_config_path(tmp_path):
    data = {
        "modes": 2,
        "sources": [
            {"kind": "single_photon", "mu": 0.5, "eta_b": 0.5},
            {"kind": "single_photon", "mu": 0.5, "eta_b": 0.5},
        ],
        "lon": {"kind": "matrix", "rows": 2, "cols": 2,
                "re": [0.7071067811865476, 0.7071067811865476,
                       0.7071067811865476, -0.7071067811865476],
                "im": [0.0, 0.0, 0.0, 0.0]},
        "detectors": {"eta_d": 0.9, "p_d": 0.3},
    }
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(data))
    return path


def last_json(capsys):
    text = capsys.readouterr().out
    start = min(text.find("{"), text.find("[")) if "{" in text and "[" in text else \
        max(text.find("{"), text.find("["))
    return json.loads(text[start:])


class TestCheck:
    def test_simulatable_config(self, photon_config_path, capsys):
        assert main(["check", "--config", str(photon_config_path), "--quiet"]) == EXIT_OK
        payload = last_json(capsys)
        assert payload["simulatable"] is True
        # mu * eta_b * eta_l(3) * eta_d = 0.5 * 0.1 * 0.98^log2(3) * 0.95
        assert payload["threshold_p_d"] == pytest.approx(0.04600, abs=5e-5)

    def test_heterogeneous_detectors_print_the_note_not_nan(self, hom_config_path, capsys):
        data = json.loads(hom_config_path.read_text())
        data["detectors"] = [{"eta_d": 0.9, "p_d": 0.3}, {"eta_d": 0.8, "p_d": 0.35}]
        hom_config_path.write_text(json.dumps(data))
        assert main(["check", "--config", str(hom_config_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nan" not in out
        assert "no scalar threshold: detectors are heterogeneous or dead" in out
        assert "noise ratio kappa" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["threshold_p_d"] is None and payload["margin"] is None
        assert 0.0 < payload["noise_ratio"] <= 1.0
        assert "sigma_eigenvalues" not in payload

    def test_identical_detectors_print_threshold_and_margin(self, photon_config_path, capsys):
        assert main(["check", "--config", str(photon_config_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nan" not in out
        assert "  threshold: 0.0460" in out and "  margin (p_d - threshold): 0.0139" in out

    def test_report_file_and_manifest(self, photon_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["check", "--config", str(photon_config_path),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        assert (out / "report.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "check"
        assert manifest["config_hash"]


class TestCheckRoute:
    """``check`` reports the verdict of the route ``sample`` runs."""

    @staticmethod
    def check(config, tmp_path, capsys, quiet=True):
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        capsys.readouterr()
        assert main(["check", "--config", str(path)] + ["--quiet"] * quiet) == EXIT_OK
        out = capsys.readouterr().out
        return path, json.loads(out[out.index("{"):]), out

    def test_route_is_null_exactly_when_the_run_refuses(self, tmp_path, capsys):
        cases = [(name, config, route) for name, config, _, route in oracle_suite()]
        for p_d in (0.0005, 0.06):
            cases.append(("photon", single_photon_config(3, 1, p_d=p_d, unitary_seed=12), 2))
            cases.append(("spdc", spdc_config(2, 0.05, p_d=p_d), 1))
        refusals = 0
        for name, config, route in cases:
            _, payload, _ = self.check(config, tmp_path, capsys)
            try:
                pqsim.sampler.run_experiment(config, 0, RngStream(0))
                assert payload["route"] == route and payload["refusal"] is None, name
            except SimulabilityError as exc:
                refusals += 1
                assert payload["route"] is None and payload["refusal"] == str(exc), name
        assert refusals == 2

    def test_lossy_network_checks_and_samples_on_route1(self, tmp_path, capsys):
        path, payload, out = self.check(spdc_lossy_network_config(), tmp_path, capsys,
                                        quiet=False)
        assert payload["route"] == 1 and payload["refusal"] is None
        # The Sigma_bar test fails; its lines say so without reading as the verdict.
        assert payload["simulatable"] is False
        assert payload["noise_ratio"] == pytest.approx(1.1044, abs=1e-4)
        assert payload["threshold_p_d"] == pytest.approx(0.05522, abs=1e-5)
        assert out.startswith("experiment with 6 modes is simulatable on route 1\n")
        assert "  Sigma_bar noise ratio kappa: 1.10437 (passes iff <= 1)" in out
        assert "Sigma_bar test passes iff p_d >= threshold" in out
        assert main(["sample", "--config", str(path), "--samples", "1000",
                     "--quiet"]) == EXIT_OK

    def test_spdc_and_photon_sample_on_route2_by_default(self, tmp_path, capsys):
        path, payload, _ = self.check(spdc_and_photon_config(), tmp_path, capsys)
        assert payload["route"] == 2 and payload["simulatable"] is True
        assert main(["sample", "--config", str(path), "--samples", "1000",
                     "--quiet"]) == EXIT_OK

    def test_refusal_names_the_route(self, tmp_path, capsys):
        config = spdc_lossy_network_config(p_d=0.04)
        _, payload, out = self.check(config, tmp_path, capsys, quiet=False)
        assert payload["route"] is None
        assert payload["refusal"].startswith("output-state PQD is negative")
        assert out.startswith(f"experiment with 6 modes is NOT simulatable on route 1: "
                              f"{payload['refusal']}\n")

    def test_each_route_builds_its_factor_once(self, tmp_path, monkeypatch, capsys):
        calls = Counter()
        for name in ("transition_factor", "block_rows", "gaussian_pqd_factor"):
            def spy(*args, _name=name, _real=getattr(pqsim.sampler, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(pqsim.sampler, name, spy)
        # Route 2's verdict is the Sigma_bar report, so its check builds no factor.
        cases = [(single_photon_config(4, 2, p_d=0.06), "transition_factor", 0),
                 (spdc_config(2, 0.05, p_d=0.09), "block_rows", 1),
                 (spdc_lossy_network_config(), "gaussian_pqd_factor", 1)]
        for config, factor, at_check in cases:
            path, _, _ = self.check(config, tmp_path, capsys)
            assert calls == Counter({factor: at_check}), "check"
            calls.clear()
            assert main(["sample", "--config", str(path), "--samples", "100",
                         "--quiet"]) == EXIT_OK
            assert calls == Counter({factor: 1}), "sample"
            calls.clear()

    @pytest.mark.parametrize("config, counts", [
        # Route 2: one Sigma_bar eigenproblem, no noise factor, one hash.
        (single_photon_config(64, 8, p_d=0.06), {"eigvalsh": 1, "eigh": 0, "config_hash": 1}),
        # Route 1: the report's eigenproblem, the zero-shot set-up's block
        # eigenproblem, and the hashes of the zero-shot batch and the manifest.
        (spdc_config(2, 0.05, p_d=0.09), {"eigvalsh": 1, "eigh": 1, "config_hash": 2}),
    ], ids=["route2", "route1"])
    def test_set_up_work_per_check(self, config, counts, tmp_path, monkeypatch, capsys):
        calls = Counter()
        for owner, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                            (ExperimentConfig, "config_hash")):
            def spy(*args, _name=name, _real=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        calls.clear()
        assert main(["check", "--config", str(path), "--quiet"]) == EXIT_OK
        assert {name: calls[name] for name in counts} == counts

    def test_check_and_run_condition2_refuse_with_one_text(self, tmp_path, capsys):
        config = single_photon_config(3, 1, p_d=0.0005, unitary_seed=12)
        with pytest.raises(SimulabilityError) as refused:
            pqsim.sampler.run_condition2(config, 10, RngStream(0))
        assert refused.value.report.noise_ratio > 1.0
        text = str(refused.value)
        assert text.startswith("experiment is not simulatable by the phase-space method")
        _, payload, out = self.check(config, tmp_path, capsys, quiet=False)
        assert payload["route"] is None and payload["refusal"] == text
        assert out.startswith(f"experiment with 3 modes is NOT simulatable on route 2: {text}\n")


class TestSample:
    def test_writes_samples_and_manifest(self, photon_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["sample", "--config", str(photon_config_path), "--samples", "5000",
                   "--seed", "9", "--out", str(out), "--quiet"])
        assert rc == EXIT_OK
        lines = (out / "samples.csv").read_text().splitlines()
        assert len(lines) == 5000
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_manifest_seed_reproduces_bytes(self, photon_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["sample", "--config", str(photon_config_path), "--samples", "4000",
                  "--seed", "21", "--out", str(out), "--quiet"])
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_worker_count_leaves_bytes_unchanged(self, photon_config_path, tmp_path):
        outputs = []
        for workers in (1, 4, 8):
            out = tmp_path / f"w{workers}"
            main(["sample", "--config", str(photon_config_path), "--samples", "30000",
                  "--seed", "3", "--workers", str(workers), "--out", str(out), "--quiet"])
            outputs.append((out / "samples.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_manifest_records_the_threads_the_run_used(self, photon_config_path, tmp_path):
        wide = tmp_path / "wide.json"
        wide.write_text(single_photon_config(100, 4, p_d=0.06).to_json())
        shots = str(3 * pqsim.sampler.tile_rows(100))  # one batch of three tiles
        # M = 3: a batch is one tile, so three batches give three tiles.
        batches = str(2 * pqsim.sampler.BATCH_SIZE + 5)
        runs = [(photon_config_path, "10", ["--workers", "4"], 1),  # one tile: serial
                (photon_config_path, batches, ["--workers", "4"], 3),
                (photon_config_path, batches, ["--workers", "2"], 2),
                (wide, shots, ["--workers", "4"], 3),
                (wide, shots, ["--workers", "2"], 2),
                (wide, shots, [], min(pqsim.sampler.usable_cpus(), 3))]
        for k, (path, samples, flags, threads) in enumerate(runs):
            out = tmp_path / f"run{k}"
            assert main(["sample", "--config", str(path), "--samples", samples, *flags,
                         "--out", str(out), "--quiet"]) == EXIT_OK
            assert json.loads((out / "manifest.json").read_text())["workers"] == threads

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_exits_usage(self, photon_config_path, tmp_path,
                                                workers, capsys):
        rc = main(["sample", "--config", str(photon_config_path), "--samples", "10",
                   "--workers", workers, "--out", str(tmp_path / "run"), "--quiet"])
        assert rc == EXIT_USAGE
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run" / "samples.csv").exists()

    def test_jsonl_format(self, photon_config_path, tmp_path):
        out = tmp_path / "run"
        main(["sample", "--config", str(photon_config_path), "--samples", "10",
              "--format", "jsonl", "--out", str(out), "--quiet"])
        rows = (out / "samples.jsonl").read_text().splitlines()
        assert len(rows) == 10
        assert set(json.loads(rows[0]).keys()) == {"n"}

    def test_prints_click_rates_without_a_histogram(self, tmp_path, monkeypatch, capsys):
        # Only the click rates are printed, and neither the engine nor the
        # command builds a histogram, at any mode count.
        def no_histogram(outcomes):
            raise AssertionError("histogram built")

        monkeypatch.setattr(pqsim.sampler, "_histogram", no_histogram)
        for modes in (3, 16, 32):
            config = single_photon_config(modes, 2, p_d=0.06)
            path = tmp_path / f"m{modes}.json"
            path.write_text(config.to_json())
            batch = pqsim.sampler.run_experiment(config, 3000, RngStream(5))
            assert batch.counts is None
            rc = main(["sample", "--config", str(path), "--samples", "3000", "--seed", "5",
                       "--out", str(tmp_path / f"run{modes}")])
            assert rc == EXIT_OK
            expected = ", ".join(f"{r:.4f}" for r in batch.outcomes.mean(axis=0))
            assert (f"drew 3000 samples; per-mode click rates: [{expected}]"
                    in capsys.readouterr().out)

    def test_refusal_exit_code(self, tmp_path):
        config = single_photon_config(3, 1, p_d=0.0005, unitary_seed=12)
        path = tmp_path / "bad.json"
        path.write_text(config.to_json())
        rc = main(["sample", "--config", str(path), "--samples", "10", "--quiet"])
        assert rc == EXIT_REFUSED
        # The refusal wins over a bad worker count, which the run never reaches.
        rc = main(["sample", "--config", str(path), "--samples", "10", "--workers", "0",
                   "--quiet"])
        assert rc == EXIT_REFUSED

    def test_run_too_large_to_allocate_exits_usage(self, tmp_path, capsys):
        # 10^18 four-mode shots ask for 4 EB at once, more than any address
        # space holds, so the allocation fails before a byte is touched.
        path = tmp_path / "m4.json"
        path.write_text(single_photon_config(4, 2, p_d=0.06).to_json())
        rc = main(["sample", "--config", str(path), "--samples", str(10**18), "--quiet"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOracleCommand:
    def test_distribution_json(self, hom_config_path, capsys):
        assert main(["oracle", "--config", str(hom_config_path), "--quiet"]) == EXIT_OK
        payload = last_json(capsys)
        assert set(payload["outcomes"]) == {"00", "01", "10", "11"}
        assert sum(payload["probs"]) == pytest.approx(1.0, abs=1e-9)

    def test_n_max_past_the_float_factorials_exits_usage(self, tmp_path, capsys):
        data = {"modes": 1, "sources": [{"kind": "coherent", "amplitude": [0.1, 0.0]}],
                "lon": "identity", "detectors": {"eta_d": 0.9, "p_d": 0.01}}
        path = tmp_path / "coherent.json"
        path.write_text(json.dumps(data))
        rc = main(["oracle", "--config", str(path), "--n-max", "171", "--quiet"])
        assert rc == EXIT_USAGE
        assert "n_max must be in [1, 170], got 171" in capsys.readouterr().err

    def test_n_max_past_the_photon_limit_exits_usage_before_any_permanent(
            self, tmp_path, monkeypatch, capsys):
        def no_permanent(mats, counts=None):
            raise AssertionError("a permanent was built")

        monkeypatch.setattr(pqsim.oracle, "permanent_batch", no_permanent)
        config = ExperimentConfig(modes=1, sources=(PortSource(Coherent(4.0), (0,)),),
                                  transfer=np.eye(1, dtype=complex),
                                  detectors=(DetectorModel(0.9, 0.0),))
        path = tmp_path / "coherent4.json"
        path.write_text(config.to_json())
        started = time.perf_counter()
        rc = main(["oracle", "--config", str(path), "--n-max", "50", "--quiet"])
        assert rc == EXIT_USAGE and time.perf_counter() - started < 1.0
        assert "n_max=50 gives kets of up to 50 photons" in capsys.readouterr().err
        # Too few photons for the budget, and no n_max within the limit has
        # enough: the refusal suggests none (it used to suggest 38).
        assert main(["oracle", "--config", str(path), "--n-max", "4", "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "try n_max" not in err and "no n_max keeps the kets within 16 photons" in err


    def test_sector_past_the_size_limit_exits_usage_before_any_sector(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pqsim.oracle, "_sector", one_state_sector(-1))
        path = tmp_path / "thermal.json"
        path.write_text(thermal_on_lossy_six(0.5).to_json())
        rc = main(["oracle", "--config", str(path), "--n-max", "16", "--quiet"])
        assert rc == EXIT_USAGE
        assert "8.54e+11 permanent steps over 12 modes" in capsys.readouterr().err


class TestCompare:
    def test_hom_within_tolerance(self, hom_config_path, capsys):
        rc = main(["compare", "--config", str(hom_config_path), "--samples", "100000",
                   "--tolerance", "0.02", "--seed", "5", "--quiet"])
        assert rc == EXIT_OK
        assert last_json(capsys)["pass"] is True

    def test_mismatched_reference_fails(self, hom_config_path, tmp_path, capsys):
        # Same outcome space, deliberately different physics: quantitative fail.
        other = json.loads(hom_config_path.read_text())
        other["detectors"] = {"eta_d": 0.9, "p_d": 0.05}
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        rc = main(["compare", "--config", str(hom_config_path),
                   "--reference-config", str(other_path),
                   "--samples", "50000", "--tolerance", "0.02", "--quiet"])
        assert rc == EXIT_FAIL

    def test_empty_sample_is_refused(self, hom_config_path, capsys):
        rc = main(["compare", "--config", str(hom_config_path), "--samples", "0", "--quiet"])
        assert rc == EXIT_USAGE
        assert "empty sample batch" in capsys.readouterr().err

    def test_oversized_config_is_guarded(self, tmp_path):
        data = {
            "modes": 20,
            "sources": ["vacuum"] * 20,
            "lon": "identity",
            "detectors": {"eta_d": 0.9, "p_d": 0.01},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        assert main(["compare", "--config", str(path), "--quiet"]) == EXIT_USAGE


class TestThresholds:
    def test_json_payload_has_both_scenarios(self, capsys):
        assert main(["thresholds", "--quiet"]) == EXIT_OK
        rows = last_json(capsys)
        assert len(rows) == 6
        assert {r["scheme"] for r in rows} == {"single-photon", "spdc"}

    def test_csv_output(self, tmp_path):
        out = tmp_path / "thr"
        main(["thresholds", "--out", str(out), "--quiet"])
        lines = (out / "thresholds.csv").read_text().splitlines()
        assert lines[0].startswith("scheme,modes,")
        assert len(lines) == 7

    def test_scenario_flags_set_every_params_field(self, tmp_path):
        params = ScenarioParams(mu=0.4, eta_b=0.2, eta0=0.97, ell=3, eta_d=0.9, f_b=0.2, f_l=0.8)
        flags = ["--mu", "0.4", "--eta-b", "0.2", "--eta0", "0.97", "--ell", "3",
                 "--eta-d", "0.9", "--f-b", "0.2", "--f-l", "0.8"]
        out = tmp_path / "thr"
        argv = ["thresholds", "--modes", "10,100", "--out", str(out), "--quiet", *flags]
        assert main(argv) == EXIT_OK
        expected = [row.to_dict() for scheme in (SCHEME_SINGLE_PHOTON, SCHEME_SPDC)
                    for row in threshold_table(scheme, [10, 100], params)]
        assert json.loads((out / "thresholds.json").read_text()) == expected
        defaults = build_parser().parse_args(["thresholds"])
        for field in fields(ScenarioParams):
            value = getattr(defaults, field.name)
            assert getattr(params, field.name) != field.default, field.name
            assert value == field.default and type(value) is type(field.default), field.name

    @pytest.mark.parametrize("flag, value", [
        ("mu", "2"), ("mu", "nan"), ("eta-b", "-0.1"), ("eta-d", "1.5"), ("f-b", "5"),
        ("f-l", "-0.5"),
    ])
    def test_scenario_knob_outside_the_unit_interval_exits_usage(self, flag, value, capsys):
        argv = ["thresholds", "--modes", "10", "--scenario", "single-photon",
                f"--{flag}", value]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        field = flag.replace("-", "_")
        assert captured.err == f"error: {field} must be in [0, 1], got {float(value)}\n"
        assert captured.out == ""

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(dict(modes=2, sources=["vacuum", "vacuum"],
                                        lon="identity",
                                        detectors={"eta_d": 2.0, "p_d": 0.0})))
        assert main(["check", "--config", str(path), "--quiet"]) == EXIT_USAGE


#: Golden runs: argv (``{name}`` is a config path), then the sha256 of its
#: stdout and of each file it writes next to the manifest.  A digest that
#: moves means an output's bytes changed; a change that moves one on
#: purpose says so in CHANGES.md and updates it here.
GOLDEN_RUNS = [
    pytest.param(["check", "--config", "{photon}"], {
        "stdout": "955eedc9d0df37588e63db68551ac8d5f2957ac10595d01dcc3e7ab49354e616",
        "report.json": "ac21c3a2913af16061dc0d3da54ca9cc86f5734d471a9dcfc4f679bdfe592371",
    }, id="check-photon"),
    pytest.param(["check", "--config", "{spdc}"], {
        "stdout": "40356e8812f9fdead3369a85f5bba23c12f94778e34172b7876b278d12b6286c",
        "report.json": "15a891314e6c061430df20876fd632e7eca5b5e00a053f6ec3b02d799b57f441",
    }, id="check-spdc"),
    pytest.param(["oracle", "--config", "{hom}"], {
        "stdout": "b684739db5d71a5468bfe086d4a3873e1c465e51bec8794c1b192a089b375f5b",
        "distribution.json": "b684739db5d71a5468bfe086d4a3873e1c465e51bec8794c1b192a089b375f5b",
    }, id="oracle"),
    pytest.param(["compare", "--config", "{hom}", "--samples", "20000", "--tolerance", "0.05",
      "--seed", "5"], {
        "stdout": "eab7ee41aaab3dff3f201dfeddfd826e1cfa50a1e3b03709b4ef3869f743e791",
        "compare.json": "5dc69dc2b84c3e0f2c8b603f5e3c9775be0645ad2ff2b43a9656762203e52d2b",
    }, id="compare"),
    pytest.param(["thresholds", "--modes", "10,100"], {
        "stdout": "434350c82d3ea5ddcddeb36e6c3e2fc31e3d2d4916fec930618e1ef50c5b745a",
        "thresholds.json": "434350c82d3ea5ddcddeb36e6c3e2fc31e3d2d4916fec930618e1ef50c5b745a",
        "thresholds.csv": "3d9190e8ba3941f446d2bf42bab70e2f2aa97987307f6abf08ac33657f6d357b",
    }, id="thresholds"),
    pytest.param(["sample", "--config", "{photon}", "--samples", "3000", "--seed", "9"], {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "samples.csv": "2bee1417916e2ae14017cdabce420a317a6cade735a81d2cf1724537125c1df3",
    }, id="sample-csv"),
    pytest.param(["sample", "--config", "{spdc}", "--samples", "3000", "--seed", "9",
      "--format", "jsonl"], {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "samples.jsonl": "8ad7a78f65ff1481c4986547ac01211db4fe4b211899633b25005b5b8ee74c01",
    }, id="sample-jsonl"),
]

MANIFEST_KEYS = {"subcommand", "version", "config_hash", "seed", "wall_time_s", "outputs"}


def golden_digests(argv, out, capsys):
    """Run ``pqsim`` with ``--out out --quiet``; the sha256 of its stdout
    and of each file it wrote besides the manifest."""
    capsys.readouterr()
    assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_OK
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv, expected", GOLDEN_RUNS)
    def test_output_bytes_and_manifest(self, argv, expected, tmp_path, photon_config_path,
                                       hom_config_path, capsys):
        spdc = tmp_path / "spdc.json"
        spdc.write_text(spdc_config(2, 0.05, p_d=0.09).to_json())
        paths = {"photon": photon_config_path, "spdc": spdc, "hom": hom_config_path}
        argv = [arg.format(**paths) for arg in argv]
        out = tmp_path / "run"
        assert golden_digests(argv, out, capsys) == expected
        manifest = json.loads((out / "manifest.json").read_text())
        keys = MANIFEST_KEYS | ({"workers"} if argv[0] == "sample" else set())
        assert set(manifest) == keys
        assert manifest["subcommand"] == argv[0]
        written = [name for name in expected if name != "stdout"]
        assert manifest["outputs"] == [str(out / name) for name in written]
