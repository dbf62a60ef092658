"""How good does an experiment have to be before it stops being classically
simulatable?

This walk-through builds the closed-form threshold tables for the two
canonical scenarios (one-photon mixtures, and heralded SPDC pairs) on a
uniform-loss network, then shows the matrix-level positivity test agreeing
with the scalar threshold on an explicit network.
"""

from pqsim import check_second_condition
from pqsim.presets import ScenarioParams, single_photon_config, threshold_table

params = ScenarioParams()  # mu=0.5, eta_b=0.1, eta0=0.98, ell=2, eta_d=0.95

print("Scenario hardware:", params)
print()
print("A photon entering an M-mode network built from 2-port elements of")
print("transmissivity eta0 crosses log2(M) of them, so the network loss is")
print("eta_l = eta0 ** log2(M).  Random detector counts above a threshold")
print("p_d make the whole experiment classically samplable.")
print()

for scheme in ("single-photon", "spdc"):
    print(f"--- {scheme} scenario ---")
    print(f"{'M':>6} {'eta_l':>7} {'N':>6} {'N*eta':>7} {'p_d threshold':>14} "
          f"{'p_d from mismatch':>18}")
    for row in threshold_table(scheme, (10, 100, 1600), params):
        print(f"{row.modes:>6} {row.eta_l:>7.2f} {row.n_photons:>6} "
              f"{row.n_eta:>7.2g} {row.p_d_threshold:>14.3f} "
              f"{row.p_d_mismatch:>18.3f}")
    print()

print("The last column estimates the random counts produced by")
print("mode-mismatched photons that sneak through the network; whenever it")
print("exceeds the threshold column, the experiment is simulatable and the")
print("quantum advantage is gone.")
print()

# The scalar threshold is a special case of a matrix positivity test that
# works for ANY measured transfer matrix, not just the uniform-loss model.
modes = 10
config = single_photon_config(modes, modes, p_d=0.05, params=params, unitary_seed=1)
report = check_second_condition(config)
print(f"explicit {modes}-mode network at p_d = 0.05:")
print(f"  exact threshold from the positivity test: {report.threshold_p_d:.4f}")
print(f"  noise ratio kappa (simulatable iff <= 1): {report.noise_ratio:.5f}")
print(f"  simulatable: {report.simulatable}")
