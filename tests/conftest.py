"""Shared test helpers: independent oracles and the cross-check config suite."""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import replace
from itertools import permutations, product
from pathlib import Path

import numpy as np

from pqsim import DetectorModel, RngStream
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.linalg import haar_unitary, permanent_batch
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


def thermal_on_lossy_six(mean_photons: float) -> ExperimentConfig:
    """Thermal(mean_photons) on port 0 and vacuum on ports 1-5 of
    sqrt(0.9) times a Haar unitary: 12 modes once the oracle adds the loss
    modes."""
    sources = [PortSource(Thermal(mean_photons), (0,))]
    sources += [PortSource(Vacuum(), (k,)) for k in range(1, 6)]
    return _cfg(6, sources, math.sqrt(0.9) * haar_unitary(6, RngStream(3)),
                DetectorModel(0.9, 0.05))


def one_state_sector(largest: int):
    """A stand-in for ``pqsim.oracle._sector`` that lists one state (every
    photon in mode 0) per sector, so an oracle run costs nothing, and
    raises for sectors above ``largest`` photons; the totals asked for are
    recorded in its ``built`` list."""
    def sector(modes: int, total: int):
        if total > largest:
            raise AssertionError(f"a {total}-photon sector over {modes} modes was built")
        sector.built.append(total)
        occ = np.zeros((1, modes), dtype=np.intp)
        occ[0, 0] = total
        return np.zeros((total, 1), dtype=np.intp), occ

    sector.built = []
    return sector


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

    P(no click on k) = (1 - p_d) int_0^inf e^-t prod_j (1 - t eta_bar_j eta_d |L_jk|^2) dt,
    the rank-1 permanent identity; the integrand is a polynomial of degree
    N (the photon-port count), so (N + 1)-point Gauss-Laguerre is exact.
    """
    eta_bar = photon_eta_bar(config)
    eta_d = np.array([d.eta_d for d in config.detectors])
    p_d = np.array([d.p_d for d in config.detectors])
    photons = np.flatnonzero(eta_bar > 0.0)
    weight = eta_bar[photons, None] * eta_d * np.abs(config.transfer[photons]) ** 2
    nodes, quad = np.polynomial.laguerre.laggauss(photons.size + 1)
    no_photon = sum(q * np.prod(1.0 - x * weight, axis=0) for x, q in zip(nodes, quad))
    return 1.0 - (1.0 - p_d) * no_photon


def spdc_output_moments(config) -> tuple[np.ndarray, np.ndarray]:
    """(N, M) of an experiment fed only by SPDC pairs, after the network and
    the detectors' efficiency: the zero-mean Gaussian output state's
    N_jk = <a_j^dag a_k> and M_jk = <a_j a_k>.  A pair's signal arm carries
    its eta_bl loss in the input moments; an output mode k is
    b_k = sum_j L_jk a_j, so N -> L^dag N L, M -> L^T M L."""
    modes = config.modes
    n = np.zeros((modes, modes), dtype=complex)
    m = np.zeros((modes, modes), dtype=complex)
    for entry in config.sources:
        if not isinstance(entry.source, SpdcPair):
            raise TypeError(f"no Gaussian moments for {entry.source!r}")
        herald, signal = entry.ports
        s, c, eta = math.sinh(entry.source.r), math.cosh(entry.source.r), entry.source.eta_bl
        n[herald, herald], n[signal, signal] = s * s, eta * s * s
        m[herald, signal] = m[signal, herald] = math.sqrt(eta) * s * c
    transfer = config.transfer
    root = np.sqrt([d.eta_d for d in config.detectors])
    n = root[:, None] * (transfer.conj().T @ n @ transfer) * root
    m = root[:, None] * (transfer.T @ m @ transfer) * root
    return n, m


def spdc_total_click_variance(config) -> float:
    """Exact Var(total clicks) of an experiment fed only by SPDC pairs.

    With (N, M) from :func:`spdc_output_moments`, a set S of detectors is
    silent with probability prod_S (1 - p_d) / sqrt(det Q_S),
    Q_S = [[N_S^T + I, M_S], [M_S^*, N_S + I]] (Quesada, Arrazola and
    Killoran, PRA 98, 062322 (2018)).  The variance needs every single mode
    and pair of modes: 2 x 2 and 4 x 4 determinants.
    """
    n, m = spdc_output_moments(config)
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


def clicks_from_silent(silent) -> np.ndarray:
    """Outcome table (mode 0 the leading bit) from the probabilities that
    each subset of the M detectors is silent, 2^M of them indexed the same
    way (bit set = mode in the subset), by Moebius inversion, mode by mode:
    "silent" reads the entry with the mode in the subset, "click" the entry
    without it minus the entry with it."""
    silent = np.asarray(silent, dtype=float)
    modes = silent.size.bit_length() - 1
    silent = silent.reshape((2,) * modes)
    for axis in range(modes):
        without, within = np.moveaxis(silent, axis, 0)
        silent = np.moveaxis(np.stack([within, without - within]), 0, axis)
    return silent.ravel()


def spdc_click_table(config) -> np.ndarray:
    """Exact probabilities of all 2^M click patterns (mode 0 the leading
    bit) of an experiment fed only by SPDC pairs, shared with no oracle code.

    Every subset S of detectors is silent with probability
    prod_S (1 - p_d) / sqrt(det Q_S), as in :func:`spdc_total_click_variance`,
    and :func:`clicks_from_silent` turns that table into the outcome table.
    """
    n, m = spdc_output_moments(config)
    dark = 1.0 - np.array([d.p_d for d in config.detectors])
    modes = config.modes
    silent = np.empty((2,) * modes)
    for members in product((0, 1), repeat=modes):
        s = np.flatnonzero(members)
        n_s, m_s = n[np.ix_(s, s)], m[np.ix_(s, s)]
        eye = np.eye(s.size)
        q = np.block([[n_s.T + eye, m_s], [m_s.conj(), n_s + eye]])
        silent[members] = np.prod(dark[s]) / math.sqrt(np.linalg.det(q).real)
    return clicks_from_silent(silent)


def photon_click_table(config) -> np.ndarray:
    """Exact probabilities of all 2^M click patterns (mode 0 the leading
    bit) of an experiment fed by vacuum and one-photon mixtures, shared with
    no sampler code.

    With W = diag(sqrt(eta_bar_S)) L_S diag(sqrt(eta_d)) over the photon
    ports S, every subset T of detectors is silent with probability
    prod_T (1 - p_d) perm(I - W_T W_T^dag), W_T the columns T of W: each
    photon, present with probability eta_bar, escapes T.  The outcome table
    follows by :func:`clicks_from_silent`.
    """
    eta_bar = photon_eta_bar(config)
    eta_d = np.array([d.eta_d for d in config.detectors])
    dark = 1.0 - np.array([d.p_d for d in config.detectors])
    photons = np.flatnonzero(eta_bar > 0.0)
    w = np.sqrt(eta_bar[photons, None] * eta_d) * config.transfer[photons]
    modes, n = config.modes, photons.size
    # members[s, k] = 1 iff mode k is in subset s, mode 0 the leading bit.
    members = (np.arange(1 << modes)[:, None] >> np.arange(modes - 1, -1, -1)) & 1
    outer = (w.T[:, :, None] * w.T[:, None, :].conj()).reshape(modes, n * n)
    gram = (members @ outer).reshape(1 << modes, n, n)
    silent = np.prod(np.where(members, dark, 1.0), axis=1) * permanent_batch(
        np.eye(n) - gram).real
    return clicks_from_silent(silent)


def _cfg(modes, sources, transfer, det):
    dets = (det,) * modes if isinstance(det, DetectorModel) else tuple(det)
    return ExperimentConfig(
        modes=modes, sources=tuple(sources), transfer=transfer, detectors=dets
    )


R001 = math.asinh(math.sqrt(0.01))  # sinh^2 r = 0.01


def oracle_suite():
    """Small configs (<= 4 modes, low photon number) whose sampled and exact
    distributions must agree; (name, config, oracle n_max, condition)."""
    suite = []

    suite.append((
        "hom_noisy",
        _cfg(2,
             [PortSource(MixedSinglePhoton(0.5, 0.5), (0,)),
              PortSource(MixedSinglePhoton(0.5, 0.5), (1,))],
             beamsplitter_50_50(),
             DetectorModel(0.9, 0.3)),
        2, 2,
    ))
    suite.append((
        "lossy_single_photon",
        _cfg(3,
             [PortSource(MixedSinglePhoton(0.5, 0.1), (0,)),
              PortSource(Vacuum(), (1,)), PortSource(Vacuum(), (2,))],
             np.sqrt(0.94) * haar_unitary(3, RngStream(11)),
             DetectorModel(0.95, 0.05)),
        2, 2,
    ))
    suite.append((
        "two_photons_m4",
        _cfg(4,
             [PortSource(MixedSinglePhoton(0.6, 0.2), (0,)),
              PortSource(MixedSinglePhoton(0.6, 0.2), (1,)),
              PortSource(Vacuum(), (2,)), PortSource(Vacuum(), (3,))],
             np.sqrt(0.9) * haar_unitary(4, RngStream(5)),
             DetectorModel(0.9, 0.12)),
        2, 2,
    ))
    suite.append((
        "coherent_m3",
        _cfg(3,
             [PortSource(Coherent(0.3), (0,)),
              PortSource(Coherent(0.2j), (1,)), PortSource(Vacuum(), (2,))],
             haar_unitary(3, RngStream(7)),
             DetectorModel(0.8, 0.02)),
        4, 2,
    ))
    suite.append((
        "coherent_lossy_m2",
        _cfg(2,
             [PortSource(Coherent(0.35), (0,)), PortSource(Vacuum(), (1,))],
             random_contraction(2, 3, scale=np.sqrt(0.6)),
             DetectorModel(0.85, 0.04)),
        4, 2,
    ))
    suite.append((
        "thermal_m2",
        _cfg(2,
             [PortSource(Thermal(0.05), (0,)), PortSource(Thermal(0.02), (1,))],
             random_contraction(2, 9, scale=np.sqrt(0.8)),
             DetectorModel(0.9, 0.01)),
        4, 2,
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
        2, 2,
    ))
    suite.append((
        "mixed_sources_m3",
        _cfg(3,
             [PortSource(MixedSinglePhoton(0.4, 0.15), (0,)),
              PortSource(Coherent(0.3), (1,)), PortSource(Thermal(0.04), (2,))],
             random_contraction(3, 13, scale=np.sqrt(0.85)),
             DetectorModel(0.9, 0.08)),
        4, 2,
    ))
    suite.append((
        "spdc_pair",
        _cfg(2,
             [PortSource(SpdcPair(R001, 0.9), (0, 1))],
             np.eye(2, dtype=complex),
             DetectorModel(0.9, 0.09)),
        3, 1,
    ))
    suite.append((
        "spdc_pair_lossy_net",
        _cfg(2,
             [PortSource(SpdcPair(R001, 0.9), (0, 1))],
             np.diag([1.0, np.sqrt(0.8)]).astype(complex),
             DetectorModel(0.9, 0.08)),
        3, 1,
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
