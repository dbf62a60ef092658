"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from pqsim import DetectorModel, RngStream
from pqsim.cli import main
from pqsim.detectors import pqd_off, pqd_on
from pqsim.errors import SimulabilityError
from pqsim.linalg import haar_unitary, permanent_batch
from pqsim.oracle import exact_distribution, tv_distance
from pqsim.presets import ScenarioParams, single_photon_config
from pqsim.processes import uniform_loss_eta
from pqsim.sampler import run_condition2, run_experiment
from pqsim.simulability import check_second_condition, threshold_single_photon, threshold_spdc
from pqsim.states import SpdcPair, pqd_single_photon_mixture

from conftest import economy_dilation, naive_permanent, oracle_suite


def report(criterion: str, detail: str = ""):
    print(f"\nacceptance {criterion}: PASS {detail}".rstrip())


# Expected printed values; tolerance is one unit in the last printed digit.
SINGLE_PHOTON_TABLE = {
    10: {"eta_l": (0.94, 0.01), "p_d_threshold": (0.044, 0.001),
         "p_d_mismatch": (0.046, 0.001)},
    100: {"eta_l": (0.87, 0.01), "p_d_threshold": (0.042, 0.001),
          "p_d_mismatch": (0.049, 0.001)},
    1600: {"eta_l": (0.81, 0.01), "p_d_threshold": (0.038, 0.001),
           "p_d_mismatch": (0.034, 0.001), "n_photons": (1044, 1),
           "n_eta": (40, 1)},
}
SPDC_TABLE = {
    10: {"p_d_threshold": (0.076, 0.001), "sqrt_m_over_eta": (36, 1),
         "n_eta": (0.89, 0.01), "p_d_mismatch": (0.091, 0.001)},
    100: {"p_d_threshold": (0.071, 0.001), "sqrt_m_over_eta": (120, 1),
          "n_eta": (8.3, 0.1), "p_d_mismatch": (0.096, 0.001)},
    1600: {"p_d_threshold": (0.060, 0.001), "sqrt_m_over_eta": (522, 1),
           "n_eta": (40, 1), "p_d_mismatch": (0.033, 0.001)},
}


def test_criterion_1_threshold_table_regression(capsys):
    started = time.perf_counter()
    assert main(["thresholds", "--quiet"]) == 0
    rows = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - started
    by_key = {(r["scheme"], r["modes"]): r for r in rows}
    checked = 0
    for modes, expectations in SINGLE_PHOTON_TABLE.items():
        row = by_key[("single-photon", modes)]
        for field, (value, tol) in expectations.items():
            assert abs(row[field] - value) <= tol + 1e-12, (modes, field, row[field])
            checked += 1
    for modes, expectations in SPDC_TABLE.items():
        row = by_key[("spdc", modes)]
        for field, (value, tol) in expectations.items():
            assert abs(row[field] - value) <= tol + 1e-12, (modes, field, row[field])
            checked += 1
    assert elapsed < 1.0, f"threshold table took {elapsed:.2f}s"
    with capsys.disabled():
        report("criterion 1 (threshold tables)",
               f"[{checked} printed values within 1 final digit, {elapsed * 1000:.0f} ms]")


def test_criterion_2_spdc_closed_form_consistency(capsys):
    started = time.perf_counter()
    worst_eig, worst_thr = 0.0, 0.0
    for r in np.linspace(0.0, 2.0, 20):
        for eta_bl in np.linspace(0.0, 1.0, 20):
            pair = SpdcPair(r, eta_bl)
            bound = pair.t_bar
            lam_min = np.linalg.eigvalsh(pair.wigner_moments()[1])[0]
            worst_eig = max(worst_eig, abs(lam_min - bound))
            for eta_d in (0.5, 0.95):
                closed = threshold_spdc(r, eta_bl, 1.0, eta_d)
                worst_thr = max(worst_thr, abs(closed - eta_d * (1.0 - bound) / 2.0))
    elapsed = time.perf_counter() - started
    assert worst_eig <= 1e-12
    assert worst_thr <= 1e-12
    assert elapsed < 1.0
    with capsys.disabled():
        report("criterion 2 (closed-form consistency)",
               f"[max eigenvalue gap {worst_eig:.2e}, max threshold gap {worst_thr:.2e}]")


def test_criterion_3_oracle_equivalence_suite(capsys):
    started = time.perf_counter()
    draws = 1_000_000
    suite = oracle_suite()
    assert len(suite) >= 10
    results = []
    for index, (name, config, _, condition) in enumerate(suite):
        table = exact_distribution(config)
        batch = run_experiment(config, draws, RngStream(8000 + index),
                               condition=condition)
        tv = tv_distance(table, batch)
        results.append((name, tv))
        assert tv <= 0.01, f"{name}: TV {tv:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s"
    worst = max(results, key=lambda item: item[1])
    with capsys.disabled():
        report("criterion 3 (oracle equivalence)",
               f"[{len(results)} configs x {draws} samples, worst TV "
               f"{worst[1]:.4f} ({worst[0]}), {elapsed:.0f} s]")


def test_criterion_4_threshold_boundary_bisection(capsys):
    started = time.perf_counter()
    params = ScenarioParams()
    modes, photons = 6, 3

    def config_at(p_d):
        return single_photon_config(modes, photons, p_d, params, unitary_seed=4)

    low, high = 0.0, 0.5
    assert not check_second_condition(config_at(low)).simulatable
    assert check_second_condition(config_at(high)).simulatable
    for _ in range(60):
        mid = 0.5 * (low + high)
        if check_second_condition(config_at(mid)).simulatable:
            high = mid
        else:
            low = mid
    eta_l = uniform_loss_eta(params.eta0, params.ell, modes)
    closed = threshold_single_photon(params.mu, params.eta_b, eta_l, params.eta_d)
    flip_error = abs(high - closed)
    assert flip_error <= 1e-9

    with pytest.raises(SimulabilityError):
        run_condition2(config_at(closed - 1e-4), 10, RngStream(1))
    batch = run_condition2(config_at(closed + 1e-4), 1000, RngStream(2))
    assert len(batch) == 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    with capsys.disabled():
        report("criterion 4 (threshold boundary)",
               f"[bisection hits closed form within {flip_error:.2e}]")


def test_criterion_5_invariant_suites(capsys):
    # Input-state PQD normalization by 2-D quadrature.
    for eta_bar in (0.0, 0.05, 0.5):
        for t in (-1.0, 0.0, 0.5):
            radius = 8.0 * math.sqrt(1.0 - t)
            total, _ = integrate.dblquad(
                lambda y, x: pqd_single_photon_mixture(complex(x, y), t, eta_bar),
                -radius, radius, -radius, radius, epsabs=1e-9, epsrel=1e-9,
            )
            assert abs(total - 1.0) <= 1e-6

    # Detector PQD normalization: off-element integrates to its POVM trace.
    for eta_d, p_d, s in ((0.95, 0.05, 1.0), (0.8, 0.1, 0.5), (1.0, 0.0, 1.0)):
        det = DetectorModel(eta_d, p_d)
        total, _ = integrate.quad(lambda u: math.pi * pqd_off(math.sqrt(u), s, det),
                                  0.0, 60.0)
        assert abs(total - (1.0 - p_d) / eta_d) <= 1e-6

    # Per-mode POVM completeness: the click element is defined as the exact
    # complement, so the identity holds to the last bit.
    for beta in (0.0, 0.4, 1.5 - 0.5j):
        det = DetectorModel(0.9, 0.07)
        assert pqd_on(beta, 0.8, det) == 1.0 / math.pi - pqd_off(beta, 0.8, det)

    # Permanents against the independent Leibniz oracle.
    for n in range(1, 6):
        gen = RngStream(600, n).generator()
        a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        expected = naive_permanent(a)
        assert abs(permanent_batch(a[None])[0] - expected) <= 1e-12 * max(1.0, abs(expected))

    # Haar unitarity and dilation reconstruction; the lossy L has one
    # lossless direction, which the dilation leaves without an environment mode.
    for seed in range(5):
        u = haar_unitary(5, RngStream(700 + seed))
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-12
        transfer = haar_unitary(3, RngStream(800 + seed)) * [1.0, np.sqrt(0.9), np.sqrt(0.5)]
        dilated, n_env = economy_dilation(transfer)
        assert n_env == 2
        assert np.max(np.abs(dilated[:3, :3] - transfer)) <= 1e-10
        assert np.max(np.abs(dilated.conj().T @ dilated - np.eye(5))) <= 1e-10

    # Oracle outputs are proper distributions.
    for name, config, _, _ in oracle_suite():
        table = exact_distribution(config)
        assert abs(table.probs.sum() - 1.0) <= 1e-9, name
    with capsys.disabled():
        report("criterion 5 (invariant suites)",
               "[normalization, completeness, permanent, Haar, dilation, tables]")


def test_criterion_6_byte_identical_across_workers(tmp_path, capsys):
    config = single_photon_config(4, 2, p_d=0.06, unitary_seed=6)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    payloads = []
    for workers in (1, 4, 8):
        out = tmp_path / f"workers{workers}"
        rc = main(["sample", "--config", str(path), "--samples", "200000",
                   "--seed", "77", "--workers", str(workers),
                   "--out", str(out), "--quiet"])
        assert rc == 0
        payloads.append((out / "samples.csv").read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    with capsys.disabled():
        report("criterion 6 (reproducibility)",
               "[200000 samples byte-identical across 1, 4, and 8 workers]")


def test_criterion_7_throughput_gate(capsys):
    baseline = json.loads((Path(__file__).parent / "perf_baseline.json").read_text())
    target = baseline["condition2_min_samples_per_second"]
    modes = baseline["modes"]
    config = single_photon_config(modes, 4, p_d=0.06, unitary_seed=8)
    run_condition2(config, 20_000, RngStream(1))  # warm up
    draws = 400_000
    started = time.perf_counter()
    run_condition2(config, draws, RngStream(2), workers=1)
    rate = draws / (time.perf_counter() - started)
    assert rate >= target, f"{rate:.0f} samples/s below the {target:.0f} baseline"
    with capsys.disabled():
        report("criterion 7 (throughput)",
               f"[{rate:,.0f} condition-2 samples/s at M={modes} on one core]")
