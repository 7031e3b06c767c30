"""Attribute a two-part (frequency x severity) prediction to its features.

A toy auto book: claim frequency rises with mileage and falls with age,
severity rises with vehicle power.  The premium model is their product.
We explain each part exactly, compose the part attributions, and check
that baseline + attributions reproduces every premium prediction.
"""

import numpy as np

import mshap

rng = np.random.default_rng(0)
names = ("driver_age", "annual_mileage", "vehicle_power")

# portfolio: age in [18, 80], mileage in [2, 40] (thousand km), power in [40, 200]
portfolio = np.column_stack([
    rng.uniform(18, 80, 200),
    rng.uniform(2, 40, 200),
    rng.uniform(40, 200, 200),
])

frequency = mshap.ModelFunction(
    3, lambda X: 0.05 + 0.004 * X[:, 1] - 0.0006 * (X[:, 0] - 18) + 0.0002 * X[:, 2]
)
severity = mshap.ModelFunction(3, lambda X: 900 + 14 * X[:, 2] + 2.5 * X[:, 1])
premium = mshap.product_model(frequency, severity)

background = portfolio[:100]
to_explain = portfolio[100:110]

expl_freq = mshap.explain_matrix(frequency, to_explain, background, feature_names=names)
expl_sev = mshap.explain_matrix(severity, to_explain, background, feature_names=names)
mu_h = mshap.baseline(premium, background)

combined = mshap.combine(expl_freq, expl_sev, mu_h, mshap.AlphaMethod.ABSOLUTE)

print(f"mean premium over the background book: {combined.baseline:8.2f}")
print(f"baseline-product correction alpha:     {combined.alpha:8.4f}\n")

header = "premium   " + "".join(f"{n:>16}" for n in names) + "   reconstruction"
print(header)
for i in range(combined.n_rows):
    parts = "".join(f"{v:16.2f}" for v in combined.values[i])
    recon = combined.baseline + combined.values[i].sum()
    print(f"{combined.predictions[i]:8.2f}  {parts} {recon:16.2f}")

report = mshap.validate_local_accuracy(combined, 1e-9)
print(f"\nlocal accuracy at 1e-9 on all rows: {report.passed}")
print(f"largest residual: {report.max_residual:.3e}")
