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
    # halved arithmetic so |s| + |k| cannot overflow for finite doubles; the
    # sign product may overflow to +/-inf, which compares correctly
    slack = np.minimum(1.0, (0.5 + 0.5 * theta1) / (np.abs(s) * 0.5 + np.abs(k) * 0.5 + theta1 * 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(s * k > 0, 1.0, slack)


def _relative_value(s, k, theta2):
    return np.minimum(1.0, (0.5 + 0.5 * theta2) / (np.abs(s * 0.5 - k * 0.5) + 0.5))


def importance_ranks(row) -> np.ndarray:
    """Ranks 1..p by descending absolute value; ties go to the lower index."""
    values = np.atleast_2d(np.asarray(row, dtype=float))
    order = np.argsort(-np.abs(values), axis=1, kind="stable")
    ranks = np.argsort(order, axis=1) + 1  # the inverse permutation: the position of each column
    return ranks[0] if np.asarray(row).ndim == 1 else ranks


def score_matrices(
    candidate, reference, params: ScoreParams
) -> ScoreBreakdown | tuple[ScoreBreakdown, ...]:
    """Score every cell of candidate against reference and average.

    ``candidate`` is one (n, p) matrix, which gives one ``ScoreBreakdown``,
    or a stack of r matrices with shape (r, n, p), which gives a tuple of r
    breakdowns, each scored against the one (n, p) ``reference``; the stack
    costs one pass over its elementwise terms instead of r calls.
    Ranks are computed row-wise on each matrix independently.  Sign agreement
    counts cells with a strictly positive product, plus cells where both
    values are exactly zero.  Means use numpy's pairwise summation, the sum
    ``np.mean`` takes, so results are reproducible regardless of how callers
    shard the cells or stack the candidates.
    """
    cand = np.asarray(candidate, dtype=float)
    ref = np.atleast_2d(np.asarray(reference, dtype=float))
    stacked = cand.ndim == 3
    if not stacked:
        cand = np.atleast_2d(cand)[None]
    if ref.ndim != 2 or cand.ndim != 3 or cand.shape[1:] != ref.shape:
        raise DimensionError(f"matrix shapes differ: {cand.shape} vs {ref.shape}")

    r, n, p = cand.shape
    ranks_c = importance_ranks(cand.reshape(r * n, p)).reshape(cand.shape)
    ranks_r = importance_ranks(ref)
    l1 = _direction(cand, ref, params.theta1)
    l2 = _relative_value(cand, ref, params.theta2)
    l3 = 1.0 / (np.abs(ranks_c - ranks_r) + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        same_sign = (cand * ref > 0) | ((cand == 0) & (ref == 0))

    def means(cells, dtype=None):
        # np.mean's own arithmetic, one reduction for the whole stack
        return (np.add.reduce(cells.reshape(r, n * p), axis=1, dtype=dtype) / (n * p)).tolist()

    breakdowns = tuple(
        ScoreBreakdown(
            score=direction + relative + rank,
            direction_score=direction,
            relative_value_score=relative,
            rank_score=rank,
            pct_same_sign=sign,
            pct_same_rank=same_rank,
        )
        for direction, relative, rank, sign, same_rank in zip(
            means(l1), means(l2), means(l3), means(same_sign, float), means(ranks_c == ranks_r, float)
        )
    )
    return breakdowns if stacked else breakdowns[0]
