"""A tour of the phase-space machinery underneath the samplers.

Every object in the pipeline (source states, the network, detector
outcomes) has a family of phase-space distributions indexed by an operator
ordering parameter.  Negativity of those distributions is the obstruction
to classical sampling; this script shows where the negativity lives and how
imperfections wash it out.
"""

import math

import numpy as np

from pqsim import DetectorModel, RngStream
from pqsim.detectors import pqd_on, s_bar
from pqsim.processes import sample_transition, sigma_matrix, transition_factor
from pqsim.states import MixedSinglePhoton, pqd_single_photon_mixture

print("1. The one-photon mixture")
print("   At symmetric ordering (t = 0) a pure single photon is negative at")
print("   the origin; mixing in vacuum lifts the dip until it crosses zero")
print("   exactly when the one-photon weight drops to 1/2:")
for eta_bar in (1.0, 0.75, 0.5, 0.25):
    value = pqd_single_photon_mixture(0.0, 0.0, eta_bar)
    if abs(value) < 1e-12:
        marker = "zero"
    else:
        marker = "negative" if value < 0 else "positive"
    print(f"   one-photon weight {eta_bar:.2f}: W(0) = {value:+.4f}  ({marker})")
print()

print("2. Orderings trade negativity for singularity")
print("   Lowering t below t_bar = 1 - 2*eta_bar makes the distribution")
print("   nonnegative everywhere, at the price of a broader density:")
source = MixedSinglePhoton(mu=0.9, eta_b=0.5)
bound = source.t_bar
for t in (0.5, bound, -0.5):
    w0 = pqd_single_photon_mixture(0.0, t, source.eta_bar)
    status = "ok" if t <= bound else "NEGATIVE somewhere"
    print(f"   t = {t:+.2f} (bound {bound:+.2f}): W(0) = {w0:+.4f}  {status}")
print()

print("3. Detectors have the mirrored story")
print("   The click outcome of an on-off detector is nonnegative only for")
print("   orderings above s_bar = 1 - 2 p_d / eta_d; random counts push the")
print("   bound down and open the classical window:")
for p_d in (0.0, 0.02, 0.05, 0.10):
    det = DetectorModel(0.95, p_d)
    print(f"   p_d = {p_d:.2f}: s_bar = {s_bar(det):+.4f}, "
          f"click probability on vacuum = {math.pi * pqd_on(0.0, 1.0, det):.3f}")
print()

print("4. The network is a Gaussian channel between amplitudes")
print("   Between input ordering t and output ordering s, a transfer matrix")
print("   L maps alpha -> alpha L plus Gaussian noise of covariance Sigma/2,")
print("   legal exactly when Sigma = I - L'L - s + L't L >= 0.")
transfer = np.sqrt(0.7) * np.eye(2)
for s, t in ((1.0, 1.0), (0.0, 0.0), (0.95, 0.5)):
    sigma = sigma_matrix(transfer, np.full(2, s), np.full(2, t))
    lam = np.linalg.eigvalsh(sigma)[0]
    print(f"   s = {s:+.2f}, t = {t:+.2f}: min eig(Sigma) = {lam:+.3f} "
          f"{'(proper channel)' if lam >= -1e-10 else '(NOT a channel)'}")
print()

print("5. And sampling it is just an affine map plus noise")
alpha = np.tile([2.0 + 0.0j, 0.0], (200_000, 1))
factor = transition_factor(transfer, np.zeros(2), np.zeros(2))
beta = sample_transition(alpha, transfer, factor, RngStream(5).generator())
print(f"   E[beta_1] = {beta[:, 0].mean():+.4f} "
      f"(exact {alpha[0, 0] * math.sqrt(0.7):+.4f})")
print(f"   Var[beta_1] = {np.mean(np.abs(beta[:, 0] - beta[:, 0].mean())**2):.4f} "
      f"(exact {(1 - 0.7) / 2:.4f})")
