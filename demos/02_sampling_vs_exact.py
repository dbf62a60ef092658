"""Monte Carlo sampling of a noisy two-photon interference experiment,
cross-checked against the exact brute-force distribution.

Two imperfect single photons meet on a 50:50 beamsplitter.  With perfect
sources and detectors the coincidence outcome '11' would be forbidden; with
impurity, mode mismatch, and random counts the dip survives only partially,
and above the random-count threshold the whole experiment can be sampled
classically, which is what this script does.
"""

import numpy as np

from pqsim import DetectorModel, RngStream, check_second_condition
from pqsim.experiment import ExperimentConfig, PortSource
from pqsim.oracle import exact_distribution, tv_distance
from pqsim.sampler import empirical_stats, run_condition2
from pqsim.states import MixedSinglePhoton

beamsplitter = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
config = ExperimentConfig(
    modes=2,
    sources=(
        PortSource(MixedSinglePhoton(mu=0.5, eta_b=0.5), (0,)),
        PortSource(MixedSinglePhoton(mu=0.5, eta_b=0.5), (1,)),
    ),
    transfer=beamsplitter,
    detectors=(DetectorModel(eta_d=0.9, p_d=0.3),) * 2,
)

report = check_second_condition(config)
print(f"random-count threshold: p_d >= {report.threshold_p_d:.3f}")
print(f"this experiment has p_d = 0.3, margin {report.margin:+.3f} "
      f"-> simulatable: {report.simulatable}")
print()

n_samples = 500_000
batch = run_condition2(config, n_samples, RngStream(seed=2024))
stats = empirical_stats(batch)
table = exact_distribution(config)

print(f"{n_samples} samples drawn; comparing with the exact distribution:")
print(f"{'outcome':>8} {'sampled':>10} {'exact':>10}")
for bits, exact_p in table.as_dict().items():
    sampled = stats.histogram.get(bits, 0) / n_samples
    print(f"{bits:>8} {sampled:>10.5f} {exact_p:>10.5f}")
print()
print(f"total variation distance: {tv_distance(table, batch):.5f}")
print()

# Without noise the coincidence outcome would vanish; quantify the residue.
p11 = table.as_dict()["11"]
independent = (stats.click_rate[0] * stats.click_rate[1])
print(f"coincidence probability: {p11:.4f} "
      f"(uncorrelated clicks would give {independent:.4f})")
print("the interference dip survives as a deficit below the uncorrelated rate")
