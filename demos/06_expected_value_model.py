"""Explain an expected-value model built from a multinomial frequency part.

A frequency classifier emits probabilities for 0..3 claims and a severity
model prices one claim; the expected cost is severity * (0*P0 + 1*P1 + 2*P2
+ 3*P3).  That outer step is a linear combination, so the same weights apply
directly to attribution matrices -- either combine the class explanations
into an expected-count explanation first, or compose per class and combine
afterwards.
"""

import numpy as np

import mshap

rng = np.random.default_rng(3)
names = ("driver_age", "annual_mileage")
portfolio = np.column_stack([rng.uniform(18, 80, 120), rng.uniform(2, 40, 120)])
background, rows = portfolio[:80], portfolio[80:]
weights = (0.0, 1.0, 2.0, 3.0)


def class_model(a):
    def logits(X):
        z = 0.03 * X[:, 1] - 0.02 * (X[:, 0] - 40) - 1.2 * a
        return 1.0 / (1.0 + np.exp(-z))
    return mshap.ModelFunction(2, logits)


classes = [class_model(a) for a in range(4)]
severity = mshap.ModelFunction(2, lambda X: 800 + 6 * X[:, 1] + 1.5 * (80 - X[:, 0]))

sev_expl = mshap.explain_matrix(severity, rows, background, feature_names=names)
class_expls = [mshap.explain_matrix(m, rows, background, feature_names=names) for m in classes]

# order 1: combine the class explanations into an expected-count explanation,
# then compose once with severity
count_expl = mshap.linear_combine_explanations(list(zip(weights, class_expls)))
mu_h_each = [
    mshap.mean_product_baseline(ce.predictions, sev_expl.predictions) for ce in class_expls
]
mu_h_total = sum(w * m for w, m in zip(weights, mu_h_each))
before = mshap.combine(count_expl, sev_expl, mu_h_total, mshap.AlphaMethod.UNIFORM)

# order 2: compose per class, then combine the four results
after = mshap.linear_combine_mshap([
    (w, mshap.combine(ce, sev_expl, mh, mshap.AlphaMethod.UNIFORM))
    for w, ce, mh in zip(weights, class_expls, mu_h_each)
])

gap = np.abs(before.values - after.values).max()
print(f"max |before - after| over {before.n_rows} rows: {gap:.2e}  (uniform weighting)\n")

print("expected cost  " + "".join(f"{n:>16}" for n in names))
for i in range(5):
    cells = "".join(f"{v:16.2f}" for v in before.values[i])
    print(f"{before.predictions[i]:13.2f} {cells}")

ok = mshap.validate_local_accuracy(before, 1e-9).passed
print(f"\nlocal accuracy of the expected-value attribution: {ok}")
