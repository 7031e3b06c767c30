"""How attribution cost scales with the feature count.

Exact enumeration pays for 2**p coalitions per batch; composing two
precomputed part explanations is quadratic in p per row.  This is why the
composition is the practical route for wide models: at p = 12 it is already
thousands of times faster per observation, and the gap doubles with every
added feature.
"""

import mshap

records = mshap.bench_scaling(
    p_values=range(2, 13), n_values=[50], background_size=100,
    seed=0, n_permutations=100, repetitions=5,
)

by_method = {}
for r in records:
    by_method.setdefault(r.method, {})[r.p] = r.per_observation_seconds

print(f"{'p':>3} {'composition':>14} {'enumeration':>14} {'sampling':>14} {'speedup':>9}")
for p in range(2, 13):
    comp = by_method["composition"][p]
    enum = by_method["exact_enumeration"][p]
    samp = by_method["permutation_sampling"][p]
    print(f"{p:3d} {comp:14.3e} {enum:14.3e} {samp:14.3e} {enum / comp:8.0f}x")

print("\nper-observation seconds; 'speedup' = enumeration / composition")
