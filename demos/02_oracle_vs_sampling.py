"""Exact enumeration oracle vs the permutation-sampling estimator.

The sampling estimator is unbiased for the exact values; its error shrinks
with the permutation budget, and once the budget covers all p! orderings it
enumerates them instead and matches the oracle to rounding.
"""

import numpy as np

import mshap

rng = np.random.default_rng(1)
p = 6
model = mshap.ModelFunction(p, lambda X: X[:, 0] * X[:, 1] + np.sin(X[:, 2] * X[:, 3]) - X[:, 4] ** 2 * X[:, 5])
background = rng.uniform(-1, 1, (50, p))
instance = rng.uniform(-1, 1, p)

exact = mshap.explain_matrix(model, instance[None, :], background)
phi = exact.values[0]
print("exact attribution:", np.round(phi, 6))
print(f"efficiency check: sum(phi) = {phi.sum():+.6f} "
      f"= prediction - baseline = {exact.predictions[0] - exact.baseline:+.6f}\n")

print(f"{'permutations':>12} {'max |error|':>12} {'max stderr':>12}")
for budget in (10, 40, 160, 640, 2560):
    sampled = mshap.sampling_explain_matrix(model, instance[None, :], background, budget, seed=7)
    err = np.abs(sampled.values[0] - phi).max()
    tag = " (exhaustive)" if sampled.exhaustive else ""
    print(f"{sampled.n_permutations:12d} {err:12.2e} {np.nanmax(sampled.stderr):12.2e}{tag}")

# past p! = 720 requested permutations, each distinct ordering runs exactly once
full = mshap.sampling_explain_matrix(model, instance[None, :], background, 720, seed=0)
print(f"\nwith all {full.n_permutations} orderings enumerated, max gap to the oracle: "
      f"{np.abs(full.values[0] - phi).max():.2e}")
