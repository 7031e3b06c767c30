"""Agreement scoring between a candidate and a reference attribution matrix.

Each cell is scored on direction, relative value, and importance rank; the
three pieces each live in (0, 1], so the per-cell total lies in (0, 3].
Dataset-level results average over all n*p cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError


@dataclass(frozen=True)
class ScoreParams:
    """Slack parameters: theta1 for direction, theta2 for value, both finite and > 0."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not (0 < self.theta1 < math.inf and 0 < self.theta2 < math.inf):
            raise InvalidInputError(
                f"thetas must be finite and strictly positive, got ({self.theta1}, {self.theta2})"
            )


@dataclass(frozen=True)
class ScoreBreakdown:
    """Aggregate agreement metrics over a candidate/reference matrix pair."""

    score: float
    direction_score: float
    relative_value_score: float
    rank_score: float
    pct_same_sign: float
    pct_same_rank: float

    def __post_init__(self):
        checks = {
            "score": (self.score, 0.0, 3.0),
            "direction_score": (self.direction_score, 0.0, 1.0),
            "relative_value_score": (self.relative_value_score, 0.0, 1.0),
            "rank_score": (self.rank_score, 0.0, 1.0),
            "pct_same_sign": (self.pct_same_sign, -0.0, 1.0),
            "pct_same_rank": (self.pct_same_rank, -0.0, 1.0),
        }
        for name, (value, lo, hi) in checks.items():
            if not (lo <= value <= hi):
                raise InvalidInputError(f"{name}={value} outside [{lo}, {hi}]")


def _direction(s, k, theta1):
    # quartered so |s| + |k| + theta1 cannot overflow; a power of two keeps normal values' bits.  A
    # quotient that divides by zero or overflows is inf, and min(1, inf) = 1 is exact (its true value
    # is > 1); the sign product may overflow to +/-inf, which compares correctly
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        slack = np.minimum(1.0, (0.25 + 0.25 * theta1) / (np.abs(s) * 0.25 + np.abs(k) * 0.25 + theta1 * 0.25))
        return np.where(s * k > 0, 1.0, slack)


def _relative_value(s, k, theta2):
    return np.minimum(1.0, (0.5 + 0.5 * theta2) / (np.abs(s * 0.5 - k * 0.5) + 0.5))


def importance_ranks(rows) -> np.ndarray:
    """Ranks 1..p in each row of an (n, p) matrix by descending absolute value; ties go to the lower index."""
    values = np.asarray(rows, dtype=float)
    if values.ndim != 2:
        raise DimensionError(f"ranks need an (n, p) matrix, got shape {values.shape}")
    order = np.argsort(-np.abs(values), axis=1, kind="stable")
    ranks = np.empty_like(order)  # the inverse permutation: the position of each column
    np.put_along_axis(ranks, order, np.arange(1, values.shape[1] + 1), axis=1)
    return ranks


def score_matrices(candidate, reference, params: ScoreParams | list[ScoreParams]) -> ScoreBreakdown | tuple:
    """Score every cell of candidate against reference and average.

    ``candidate`` and ``reference`` are one (n, p) pair, which gives one
    ``ScoreBreakdown``, or C grid cells: a (C, r, n, p) stack against (C, n, p)
    references, with a sequence of C ``ScoreParams``, gives C tuples of r
    breakdowns, each scored against its cell's reference.
    Ranks are computed row-wise on each matrix independently.  Sign agreement
    counts cells with a strictly positive product, plus cells where both
    values are exactly zero.  Means use numpy's pairwise summation, the sum
    ``np.mean`` takes, along each matrix's own n * p terms, so results are
    bit for bit the same however callers shard the cells or stack them.
    """
    cand = np.asarray(candidate, dtype=float)
    ref = np.asarray(reference, dtype=float)
    cells = cand.ndim == 4
    if not cells:
        cand, ref, params = cand[None, None], ref[None], (params,)
    if ref.ndim != 3 or cand.ndim != 4 or cand.shape[:1] + cand.shape[2:] != ref.shape:
        want = "(C, r, n, p) vs (C, n, p)" if cells else "(n, p) vs (n, p)"
        raise DimensionError(f"matrix shapes differ: {np.shape(candidate)} vs {np.shape(reference)}, not {want}")
    if isinstance(params, ScoreParams) or len(params) != len(ref):
        raise DimensionError(f"a stack of {len(ref)} cells needs a list of {len(ref)} ScoreParams")
    bad = next((q for q in params if not isinstance(q, ScoreParams)), None)
    if bad is not None:
        raise InvalidInputError(f"expected ScoreParams, got {type(bad).__name__} {bad!r}")

    c, r, n, p = cand.shape
    ranks_c = importance_ranks(cand.reshape(-1, p)).reshape(cand.shape)
    ranks_r = importance_ranks(ref.reshape(-1, p)).reshape(c, 1, n, p)
    theta1, theta2 = np.array([(q.theta1, q.theta2) for q in params], dtype=float).T[:, :, None, None, None]
    ref = ref[:, None]
    l1 = _direction(cand, ref, theta1)
    l2 = _relative_value(cand, ref, theta2)
    l3 = 1.0 / (np.abs(ranks_c - ranks_r) + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        same_sign = (cand * ref > 0) | ((cand == 0) & (ref == 0))

    def means(terms, dtype=None):
        # np.mean's own arithmetic, one reduction for the whole stack
        return (np.add.reduce(terms.reshape(c * r, n * p), axis=1, dtype=dtype) / (n * p)).tolist()

    rows = zip(means(l1), means(l2), means(l3), means(same_sign, float), means(ranks_c == ranks_r, float))
    scored = [ScoreBreakdown(d + v + k, d, v, k, sign, same) for d, v, k, sign, same in rows]
    return tuple(tuple(scored[i * r : (i + 1) * r]) for i in range(c)) if cells else scored[0]
