"""Shared test helpers: independent oracles and the cross-check config suite."""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import numpy as np

from pqsim import DetectorModel, RngStream
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary, permanent_batch, validate_transfer
from pqsim.oracle import clicks_from_silent
from pqsim.presets import spdc_config
from pqsim.states import Coherent, MixedSinglePhoton, SpdcPair, Thermal, Vacuum

#: The benchmark's tracer, which wraps functions at their callers' names.
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py``, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def naive_permanent(matrix) -> complex:
    """Leibniz-expansion permanent, O(n! n); the independent reference."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for row, col in enumerate(perm):
            prod *= a[row, col]
        total += prod
    return total


def ideal_probability_permanent(unitary, input_ports, output_ports) -> float:
    """|perm(U[S, T])|^2 / (prod n_i! prod m_j!) by the Leibniz permanent:
    the probability that a lossless network U takes one photon per entry of
    S to one photon per entry of T.  A port listed k times holds k photons
    (n_i or m_j = k), so S and T are occupations written as lists of ports."""
    s, t = sorted(input_ports), sorted(output_ports)
    assert len(s) == len(t), "photon number is conserved"
    sub = np.asarray(unitary, dtype=complex)[np.ix_(s, t)]
    repeats = [math.factorial(k) for ports in (s, t)
               for k in np.unique(ports, return_counts=True)[1].tolist()]
    return abs(naive_permanent(sub)) ** 2 / math.prod(repeats)


def matrix_csv_text(matrix) -> str:
    """A matrix in the CSV form ``load_matrix_csv`` reads: a ``rows,cols``
    header, then one ``re,im`` line per entry, row-major."""
    a = np.asarray(matrix, dtype=complex)
    lines = [f"{a.shape[0]},{a.shape[1]}"]
    lines += [f"{z.real!r},{z.imag!r}" for z in a.ravel().tolist()]
    return "\n".join(lines) + "\n"


def random_contraction(modes: int, seed: int, scale: float = 0.9) -> np.ndarray:
    return scale * haar_unitary(modes, RngStream(seed))


def beamsplitter_50_50() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def dead_detector_beamsplitter(p_d: float) -> ExperimentConfig:
    """One pure photon into a 50:50 beamsplitter, a live eta_d = 1
    detector on mode 0 and a dead (eta_d = 0) one on mode 1, both with
    random-count probability p_d.  Simulatable iff p_d >= 1/2; keeping the
    dead mode's column in Sigma_bar would demand p_d >= 1."""
    return ExperimentConfig(
        modes=2,
        sources=(PortSource(MixedSinglePhoton(1.0, 1.0), (0,)), PortSource(Vacuum(), (1,))),
        transfer=beamsplitter_50_50(),
        detectors=(DetectorModel(1.0, p_d), DetectorModel(0.0, p_d)),
    )


def route1_dead_detector_config(p_d: float) -> ExperimentConfig:
    """An SPDC pair on (0, 1), vacuum on 2 and 3, a Haar unitary on modes
    1-3, detectors (0.9, p_d) on modes 0-2 and a dead one on mode 3."""
    transfer = np.eye(4, dtype=complex)
    transfer[1:, 1:] = haar_unitary(3, RngStream(2))
    sources = (PortSource(SpdcPair(0.3, 1.0), (0, 1)),
               PortSource(Vacuum(), (2,)), PortSource(Vacuum(), (3,)))
    return ExperimentConfig(modes=4, sources=sources, transfer=transfer,
                            detectors=(DetectorModel(0.9, p_d),) * 3 + (DetectorModel(0.0, 0.0),))


def spdc_lossy_network_config(p_d: float = 0.05) -> ExperimentConfig:
    """Three SPDC pairs (sinh^2 r = 0.2) on a network with loss inside it,
    L = U diag(sqrt(d)) V with d in [0.3, 1), so L^dag L is not diagonal.
    At p_d = 0.05 the Sigma_bar test fails (kappa = 1.104, threshold 0.0552)
    while route 1 samples: its own threshold is about 0.0456."""
    d = np.random.default_rng(3).uniform(0.3, 1.0, 6)
    transfer = haar_unitary(6, RngStream(0)) @ np.diag(np.sqrt(d)) @ haar_unitary(6, RngStream(100))
    return replace(spdc_config(3, 0.2, p_d=p_d), transfer=transfer, lon_spec=None)


def spdc_and_photon_config() -> ExperimentConfig:
    """An SPDC pair on ports (0, 1) and a one-photon mixture on port 2, on a
    lossy Haar unitary; the photon is not Gaussian, so route 1 cannot run
    it, and the Sigma_bar test passes (kappa = 0.81)."""
    return _cfg(3,
                [PortSource(SpdcPair(R001, 0.9), (0, 1)),
                 PortSource(MixedSinglePhoton(0.5, 0.3), (2,))],
                math.sqrt(0.9) * haar_unitary(3, RngStream(17)),
                DetectorModel(0.9, 0.15))


def sparse_mixed_config(modes: int) -> ExperimentConfig:
    """One source of each non-vacuum kind (an SPDC pair on ports (4, 1), a
    one-photon mixture, a coherent and a thermal source) listed among vacuum
    ports, on a lossy Haar unitary; the Sigma_bar test passes."""
    sources = [PortSource(Vacuum(), (k,)) for k in range(5, modes)]
    sources[3:3] = [PortSource(SpdcPair(R001, 0.9), (4, 1)),
                    PortSource(MixedSinglePhoton(0.5, 0.3), (0,))]
    sources[9:9] = [PortSource(Coherent(0.4 + 0.2j), (3,)), PortSource(Thermal(0.1), (2,))]
    return _cfg(modes, sources, math.sqrt(0.9) * haar_unitary(modes, RngStream(19)),
                DetectorModel(0.9, 0.15))


def photon_eta_bar(config) -> np.ndarray:
    """Per-port one-photon probability eta_bar of an experiment fed by
    vacuum and one-photon mixtures only (0 on vacuum ports)."""
    eta_bar = np.zeros(config.modes)
    for entry in config.sources:
        if isinstance(entry.source, MixedSinglePhoton):
            eta_bar[entry.ports[0]] = entry.source.eta_bar
        elif not isinstance(entry.source, Vacuum):
            raise TypeError(f"no photon formula for {entry.source!r}")
    return eta_bar


def single_photon_click_marginals(config) -> np.ndarray:
    """Exact per-mode click probabilities for vacuum and one-photon-mixture
    inputs, at any mode count.

    P(no click on k) = (1 - p_d) int_0^inf e^-t prod_j (1 - t w_jk) dt with
    w_jk = eta_bar_j eta_d |L_jk|^2, the rank-1 permanent identity.  The
    integrand is a polynomial of degree N (the photon-port count) and
    int_0^inf e^-t t^n dt = n!, so the integral is sum_n (-1)^n f_n with
    f_n = n! e_n(w_k), e_n the elementary symmetric polynomial: port j takes
    f_n to f_n + n w_jk f_(n-1).  No quadrature nodes are needed, which a
    Gauss-Laguerre rule of N + 1 points overflows at N = 1044, and
    |f_n| <= (sum_j w_jk)^n <= 1 for a contraction.
    """
    eta_bar = photon_eta_bar(config)
    eta_d = np.array([d.eta_d for d in config.detectors])
    p_d = np.array([d.p_d for d in config.detectors])
    photons = np.flatnonzero(eta_bar > 0.0)
    weight = eta_bar[photons, None] * eta_d * np.abs(config.transfer[photons]) ** 2
    f = np.zeros((photons.size + 1, config.modes))
    f[0] = 1.0
    n = np.arange(1, photons.size + 1)[:, None]
    for j, w in enumerate(weight):
        f[1:j + 2] += n[:j + 1] * w * f[:j + 1]
    no_photon = (-1.0) ** np.arange(photons.size + 1) @ f
    return 1.0 - (1.0 - p_d) * no_photon


def gaussian_output_moments(config) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) of an experiment fed by SPDC pairs, thermal light and vacuum,
    after the network and the detectors' efficiency: the zero-mean Gaussian
    output state's N_jk = <a_j^dag a_k> and M_jk = <a_j a_k>.  A pair's
    signal arm carries its eta_bl loss in the input moments, and thermal
    light of mean n has N_kk = n; an output mode k is
    b_k = sum_j L_jk a_j, so N -> L^dag N L, M -> L^T M L."""
    modes = config.modes
    n = np.zeros((modes, modes), dtype=complex)
    m = np.zeros((modes, modes), dtype=complex)
    for entry in config.sources:
        if isinstance(entry.source, Thermal):
            n[entry.ports[0], entry.ports[0]] = entry.source.mean_photons
            continue
        if isinstance(entry.source, Vacuum):
            continue
        if not isinstance(entry.source, SpdcPair):
            raise TypeError(f"no zero-mean Gaussian moments for {entry.source!r}")
        herald, signal = entry.ports
        s, c, eta = math.sinh(entry.source.r), math.cosh(entry.source.r), entry.source.eta_bl
        n[herald, herald], n[signal, signal] = s * s, eta * s * s
        m[herald, signal] = m[signal, herald] = math.sqrt(eta) * s * c
    transfer = config.transfer
    root = np.sqrt([d.eta_d for d in config.detectors])
    n = root[:, None] * (transfer.conj().T @ n @ transfer) * root
    m = root[:, None] * (transfer.T @ m @ transfer) * root
    return n, m


def gaussian_total_click_variance(config) -> float:
    """Exact Var(total clicks) of an experiment fed by SPDC pairs, thermal
    light and vacuum.

    With (N, M) from :func:`gaussian_output_moments`, a set S of detectors is
    silent with probability prod_S (1 - p_d) / sqrt(det Q_S),
    Q_S = [[N_S^T + I, M_S], [M_S^*, N_S + I]] (Quesada, Arrazola and
    Killoran, PRA 98, 062322 (2018)).  The variance needs every single mode
    and pair of modes: 2 x 2 and 4 x 4 determinants.
    """
    n, m = gaussian_output_moments(config)
    dark = 1.0 - np.array([d.p_d for d in config.detectors])
    diag = np.diag(n).real
    silent = dark / np.sqrt((diag + 1.0) ** 2 - np.abs(np.diag(m)) ** 2)
    j, k = np.triu_indices(config.modes, 1)
    pair = np.stack([j, k], axis=1)
    n_s = n[pair[:, :, None], pair[:, None, :]]
    m_s = m[pair[:, :, None], pair[:, None, :]]
    q = np.empty((len(j), 4, 4), dtype=complex)
    q[:, :2, :2] = n_s.transpose(0, 2, 1) + np.eye(2)
    q[:, :2, 2:] = m_s
    q[:, 2:, :2] = m_s.conj()
    q[:, 2:, 2:] = n_s + np.eye(2)
    both_silent = dark[j] * dark[k] / np.sqrt(np.linalg.det(q).real)
    covariance = both_silent - silent[j] * silent[k]
    return float(np.sum(silent * (1.0 - silent)) + 2.0 * np.sum(covariance))


def economy_dilation(transfer: np.ndarray) -> tuple[np.ndarray, int]:
    """Embed an M x M contraction L as the top-left block of a unitary, with
    one environment (loss) mode per lossy direction: per singular value s
    with 1 - s^2 > 1e-12.  With L = V S W^dag and C = sqrt(I - S^2) over
    those directions,

        U = [[ L,        V C ],
             [ C W^dag,  -S  ]]

    and feeding the environment vacuum reproduces the lossy network exactly.
    Returns ``(unitary, n_env)`` where unitary is (M + n_env) square.
    """
    matrix = validate_transfer(transfer)
    m = matrix.shape[0]
    v, s, wh = np.linalg.svd(matrix)
    defect = np.clip(1.0 - s**2, 0.0, None)
    keep = np.flatnonzero(defect > 1e-12)
    c = np.sqrt(defect[keep])
    out = np.zeros((m + keep.size, m + keep.size), dtype=complex)
    out[:m, :m] = matrix
    out[:m, m:] = v[:, keep] * c
    out[m:, :m] = c[:, None] * wh[keep, :]
    out[m:, m:] = np.diag(-s[keep])
    return out, keep.size


def _fock_block(source, n_max: int):
    """One source as a mixture of kets in its ports' Fock basis, truncated at
    n_max photons per coherent or thermal port and at Schmidt index n_max
    for a pair: ``(alternatives, dropped)``, each alternative
    ``(weight, [(amplitude, photons per port), ...])``, and the trace norm
    of what the truncation drops: the weight left out of a mixture, and
    sqrt(e^2 + 4 e (1 - e)) for a pure state missing norm e."""
    n = range(n_max + 1)
    if isinstance(source, Vacuum):
        return [(1.0, [(1.0, (0,))])], 0.0
    if isinstance(source, MixedSinglePhoton):
        return [(1.0 - source.eta_bar, [(1.0, (0,))]), (source.eta_bar, [(1.0, (1,))])], 0.0
    if isinstance(source, Thermal):
        q = source.mean_photons / (1.0 + source.mean_photons)
        return [((1.0 - q) * q**k, [(1.0, (k,))]) for k in n], q ** (n_max + 1)
    if isinstance(source, Coherent):
        a = complex(source.amplitude)
        kets = [(math.exp(-abs(a) ** 2 / 2.0) * a**k / math.sqrt(math.factorial(k)), (k,))
                for k in n]
    else:
        th = math.tanh(source.r)
        kets = [(th**k / math.cosh(source.r), (k, k)) for k in n]
    missing = max(0.0, 1.0 - sum(abs(amp) ** 2 for amp, _ in kets))
    return [(1.0, kets)], math.sqrt(missing**2 + 4.0 * missing * (1.0 - missing))


def fock_click_table(config, n_max: int) -> tuple[np.ndarray, float]:
    """Click table (mode 0 the leading bit) of the input truncated by
    :func:`_fock_block`, and a bound on its distance from the exact table in
    every entry and in total variation: the summed trace norms dropped.

    A set T of detectors is silent with probability
    prod_T (1 - p_d) Tr[rho Gamma(I - A_T)], A_T = W_T^* W_T^T (the input
    modes' share of sum_T b^dag b), with W = L diag(sqrt(eta_d)) and each
    pair's signal row scaled by sqrt(eta_bl).  The second quantization Gamma(B) of an M x M matrix
    conserves photon number and has Fock matrix elements
    <m|Gamma(B)|n> = perm(B[m, n]) / sqrt(prod m_i! prod n_j!), row i of B
    repeated m_i times and column j n_j times.  Every mixture alternative
    and pair of its kets with equal photon numbers adds one permanent per
    set; there are no guards, so keep configs small.
    """
    modes = config.modes
    w = config.transfer * np.sqrt([d.eta_d for d in config.detectors])
    blocks, error = [], 0.0
    for entry in config.sources:
        if isinstance(entry.source, SpdcPair):
            w[entry.ports[1]] *= math.sqrt(entry.source.eta_bl)
        alternatives, dropped = _fock_block(entry.source, n_max)
        error += dropped
        blocks.append([(weight, [(amp, dict(zip(entry.ports, occ))) for amp, occ in kets])
                       for weight, kets in alternatives])
    members = (np.arange(1 << modes)[:, None] >> np.arange(modes - 1, -1, -1)) & 1
    gamma = np.eye(modes) - (w.conj() * members[:, None, :]) @ w.T
    terms = {}
    for combo in itertools.product(*blocks):
        weight = math.prod(weight for weight, _ in combo)
        kets = []
        for parts in itertools.product(*(kets for _, kets in combo)):
            occ = np.zeros(modes, dtype=int)
            for _, ports in parts:
                occ[list(ports)] = list(ports.values())
            norm = math.sqrt(math.prod(math.factorial(c) for c in occ.tolist()))
            kets.append((math.prod(amp for amp, _ in parts) / norm, occ))
        for (a, occ_a), (b, occ_b) in itertools.product(kets, repeat=2):
            if occ_a.sum() == occ_b.sum():
                terms.setdefault(int(occ_a.sum()), []).append(
                    (weight * np.conj(a) * b, np.repeat(np.arange(modes), occ_a),
                     np.repeat(np.arange(modes), occ_b)))
    silent = np.zeros(1 << modes, dtype=complex)
    for photons, group in terms.items():
        coeffs, rows, cols = (np.array(part) for part in zip(*group))
        mats = gamma[:, rows[:, :, None], cols[:, None, :]].reshape(
            len(gamma) * len(coeffs), photons, photons)
        perms = permanent_batch(mats).reshape(len(gamma), len(coeffs))
        silent += perms @ coeffs
    dark = np.prod(np.where(members, [1.0 - d.p_d for d in config.detectors], 1.0), axis=1)
    return clicks_from_silent(dark * silent.real), error


def _cfg(modes, sources, transfer, det):
    dets = (det,) * modes if isinstance(det, DetectorModel) else tuple(det)
    return ExperimentConfig(
        modes=modes, sources=tuple(sources), transfer=transfer, detectors=dets
    )


R001 = math.asinh(math.sqrt(0.01))  # sinh^2 r = 0.01


def oracle_suite():
    """Small configs (<= 4 modes, low photon number) whose sampled and exact
    distributions must agree; (name, config, n_max, condition), where n_max
    keeps :func:`fock_click_table` within 4e-4 of the exact table."""
    suite = []

    suite.append((
        "hom_noisy",
        _cfg(2,
             [PortSource(MixedSinglePhoton(0.5, 0.5), (0,)),
              PortSource(MixedSinglePhoton(0.5, 0.5), (1,))],
             beamsplitter_50_50(),
             DetectorModel(0.9, 0.3)),
        1, 2,
    ))
    suite.append((
        "lossy_single_photon",
        _cfg(3,
             [PortSource(MixedSinglePhoton(0.5, 0.1), (0,)),
              PortSource(Vacuum(), (1,)), PortSource(Vacuum(), (2,))],
             np.sqrt(0.94) * haar_unitary(3, RngStream(11)),
             DetectorModel(0.95, 0.05)),
        1, 2,
    ))
    suite.append((
        "two_photons_m4",
        _cfg(4,
             [PortSource(MixedSinglePhoton(0.6, 0.2), (0,)),
              PortSource(MixedSinglePhoton(0.6, 0.2), (1,)),
              PortSource(Vacuum(), (2,)), PortSource(Vacuum(), (3,))],
             np.sqrt(0.9) * haar_unitary(4, RngStream(5)),
             DetectorModel(0.9, 0.12)),
        1, 2,
    ))
    suite.append((
        "coherent_m3",
        _cfg(3,
             [PortSource(Coherent(0.3), (0,)),
              PortSource(Coherent(0.2j), (1,)), PortSource(Vacuum(), (2,))],
             haar_unitary(3, RngStream(7)),
             DetectorModel(0.8, 0.02)),
        6, 2,
    ))
    suite.append((
        "coherent_lossy_m2",
        _cfg(2,
             [PortSource(Coherent(0.35), (0,)), PortSource(Vacuum(), (1,))],
             random_contraction(2, 3, scale=np.sqrt(0.6)),
             DetectorModel(0.85, 0.04)),
        6, 2,
    ))
    suite.append((
        "thermal_m2",
        _cfg(2,
             [PortSource(Thermal(0.05), (0,)), PortSource(Thermal(0.02), (1,))],
             random_contraction(2, 9, scale=np.sqrt(0.8)),
             DetectorModel(0.9, 0.01)),
        6, 2,
    ))
    suite.append((
        "vacuum_dark_m3",
        _cfg(3,
             [PortSource(Vacuum(), (k,)) for k in range(3)],
             np.eye(3, dtype=complex),
             DetectorModel(0.9, 0.05)),
        1, 2,
    ))
    suite.append((
        "full_loss_m2",
        _cfg(2,
             [PortSource(MixedSinglePhoton(0.5, 0.1), (0,)),
              PortSource(Vacuum(), (1,))],
             np.zeros((2, 2), dtype=complex),
             DetectorModel(0.95, 0.04)),
        1, 2,
    ))
    suite.append((
        "mixed_sources_m3",
        _cfg(3,
             [PortSource(MixedSinglePhoton(0.4, 0.15), (0,)),
              PortSource(Coherent(0.3), (1,)), PortSource(Thermal(0.04), (2,))],
             random_contraction(3, 13, scale=np.sqrt(0.85)),
             DetectorModel(0.9, 0.08)),
        6, 2,
    ))
    suite.append((
        "spdc_pair",
        _cfg(2,
             [PortSource(SpdcPair(R001, 0.9), (0, 1))],
             np.eye(2, dtype=complex),
             DetectorModel(0.9, 0.09)),
        5, 1,
    ))
    suite.append((
        "spdc_pair_lossy_net",
        _cfg(2,
             [PortSource(SpdcPair(R001, 0.9), (0, 1))],
             np.diag([1.0, np.sqrt(0.8)]).astype(complex),
             DetectorModel(0.9, 0.08)),
        5, 1,
    ))
    signals_unitary = np.eye(4, dtype=complex)
    signals_unitary[2:, 2:] = haar_unitary(2, RngStream(21))
    suite.append((
        "spdc_two_pairs",
        _cfg(4,
             [PortSource(SpdcPair(R001, 0.5), (0, 2)),
              PortSource(SpdcPair(R001, 0.5), (1, 3))],
             signals_unitary,
             DetectorModel(0.95, 0.09)),
        3, 1,
    ))
    return suite


def random_mixed_config(seed: int, modes: int, dark_modes: int = 0,
                        dead_modes: int = 0) -> ExperimentConfig:
    """A random source mix (all five kinds) on a random contraction, with
    heterogeneous detectors whose random counts make Sigma_bar PSD.

    ``dark_modes`` detectors have p_d = 0; no light reaches them (their
    transfer columns are zero), which the verdict then requires.
    ``dead_modes`` detectors have eta_d = 0.
    """
    gen = RngStream(seed).generator()
    transfer = gen.uniform(0.5, 0.9) * haar_unitary(modes, RngStream(seed + 1))
    ports = [int(p) for p in gen.permutation(modes)]
    sources = []
    while ports:
        kind = int(gen.integers(5)) if len(ports) > 1 else int(gen.integers(4))
        if kind == 4:
            sources.append(PortSource(SpdcPair(gen.uniform(0.05, 0.6), gen.uniform(0.0, 1.0)),
                                      (ports.pop(), ports.pop())))
            continue
        source = (Vacuum(), MixedSinglePhoton(gen.uniform(0.0, 1.0), gen.uniform(0.0, 1.0)),
                  Coherent(complex(*gen.normal(size=2))), Thermal(gen.uniform(0.0, 0.5)))[kind]
        sources.append(PortSource(source, (ports.pop(),)))
    special = gen.permutation(modes)
    dark, dead = special[:dark_modes], special[dark_modes:dark_modes + dead_modes]
    transfer[:, dark] = 0.0
    tbar = np.array([1.0] * modes)
    for entry in sources:
        tbar[list(entry.ports)] = entry.source.t_bar
    needed = transfer.conj().T @ ((1.0 - tbar)[:, None] * transfer)
    lam_max = max(np.linalg.eigvalsh(needed)[-1], 0.0)
    detectors = []
    for k in range(modes):
        eta_d = 0.0 if k in dead else gen.uniform(0.3, 1.0)
        p_d = 0.0 if k in dark else eta_d * lam_max * gen.uniform(1.0, 1.2) / 2.0
        detectors.append(DetectorModel(eta_d, p_d))
    return _cfg(modes, sources, transfer, detectors)
