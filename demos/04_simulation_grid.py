"""Desk-scale weighting study: every response pair crossed with a theta sweep.

108 cells (12 response-function pairs x 9 slack settings), each scoring all
four correction weightings against the exact oracle on fresh data.  The
absolute-value weighting comes out on top, with the raw weighting last --
its weights blow up whenever a row's pre-correction attributions cancel.
"""

import time

import mshap

specs = mshap.default_grid(grid_seed=0, n=100, background_size=100)
print(f"running {len(specs)} scenario cells ...")
start = time.perf_counter()
outcomes = mshap.run_grid(specs)
print(f"done in {time.perf_counter() - start:.1f}s, "
      f"{sum(1 for o in outcomes if o.error)} failures\n")

means = mshap.mean_scores_by_method(outcomes)
print(f"{'weighting':>10} {'mean score over the grid':>25}")
for method, score in sorted(means.items(), key=lambda kv: -kv[1]):
    print(f"{method.value:>10} {score:25.3f}")

# per response pair, which weighting wins?
wins = {m: 0 for m in mshap.AlphaMethod}
for outcome in outcomes:
    best = max(outcome.scores.items(), key=lambda kv: kv[1].score)[0]
    wins[best] += 1
print("\ncells won:", {m.value: w for m, w in sorted(wins.items(), key=lambda kv: -kv[1])})
