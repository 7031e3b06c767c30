import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mshap import (
    DimensionError,
    InvalidInputError,
    ScoreParams,
    score_matrices,
)
from mshap.scoring import ScoreBreakdown, _direction, _relative_value, importance_ranks

# frozen by hand from the definitions:
#   λ1(1, -1 | 1.5) = (1 + 1.5) / (1 + 1 + 1.5) = 5/7
#   λ2(1, -1 | 1)   = (1 + 1) / (|1 - (-1)| + 1) = 2/3
LAMBDA1_OPPOSITE = 5.0 / 7.0
LAMBDA2_GAP_TWO = 2.0 / 3.0


def cell(s, k, theta1=1.0, theta2=1.0):
    """Score one cell: on a 1x1 pair, direction_score is λ1, relative_value_score
    is λ2, and score is the cell total λ1 + λ2 + λ3 with both ranks 1."""
    return score_matrices([[s]], [[k]], ScoreParams(theta1, theta2))


def test_lambda1_same_sign_is_one():
    for theta in (0.5, 1.5, 20.5):
        assert cell(2.0, 5.0, theta1=theta).direction_score == 1.0
        assert cell(-2.0, -5.0, theta1=theta).direction_score == 1.0


def test_lambda1_opposite_signs():
    assert cell(1.0, -1.0, theta1=1.5).direction_score == pytest.approx(LAMBDA1_OPPOSITE, rel=1e-15)


def test_lambda1_zero_pair_saturates():
    # product is not > 0, but the slack branch caps at 1
    assert cell(0.0, 0.0, theta1=1.5).direction_score == 1.0


def test_lambda2_identical_values():
    assert cell(3.25, 3.25).relative_value_score == 1.0


def test_lambda2_large_gap():
    assert cell(10.0, 0.0).relative_value_score == pytest.approx(2.0 / 11.0, rel=1e-15)


def test_lambda2_boundary_inclusive():
    for theta2 in (1.0, 6.0, 46.0, 0.3):
        assert cell(theta2, 0.0, theta2=theta2).relative_value_score == 1.0
        assert cell(0.0, theta2, theta2=theta2).relative_value_score == 1.0
        # a gap one ulp past theta2 still rounds to 1; a resolvable excess does not
        assert cell(theta2 * (1 + 1e-12), 0.0, theta2=theta2).relative_value_score < 1.0


def test_lambda3_values():
    # λ3 = 1 / (|rank gap| + 1), averaged over the cells of a 1xp row pair
    params = ScoreParams(1.5, 1.0)
    assert score_matrices([[1.0, 2.0]], [[1.0, 2.0]], params).rank_score == 1.0
    # ranks (1, 2, 3) vs (3, 2, 1): gaps 2, 0, 2
    got = score_matrices([[3.0, 2.0, 1.0]], [[1.0, 2.0, 3.0]], params).rank_score
    assert got == pytest.approx((1.0 / 3.0 + 1.0 + 1.0 / 3.0) / 3.0)
    # ranks (1, 2) vs (2, 1): gap 1 in both cells
    assert score_matrices([[2.0, 1.0]], [[1.0, 2.0]], params).rank_score == pytest.approx(1.0 / 2.0)


def test_importance_ranks_examples():
    np.testing.assert_array_equal(importance_ranks([5.0, -7.0, 1.0]), [2, 1, 3])
    np.testing.assert_array_equal(importance_ranks([0.0, 0.0]), [1, 2])
    np.testing.assert_array_equal(importance_ranks([42.0]), [1])


def test_importance_ranks_is_permutation(rng):
    for _ in range(20):
        p = int(rng.integers(1, 12))
        ranks = importance_ranks(rng.uniform(-5, 5, p))
        assert sorted(ranks.tolist()) == list(range(1, p + 1))


def test_beta_perfect_agreement():
    assert cell(1.5, 1.5, 1.5, 1.0).score == 3.0


def test_beta_frozen_example():
    got = cell(1.0, -1.0, 1.5, 1.0).score
    assert got == pytest.approx(LAMBDA1_OPPOSITE + LAMBDA2_GAP_TWO + 1.0, rel=1e-15)


def test_beta_boundaries_inclusive():
    # same sign, gap exactly theta2, same rank -> all three pieces saturate
    s, theta2 = 2.0, 6.0
    assert cell(s, s + theta2, 1.5, theta2).score == 3.0


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ScoreParams(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        ScoreParams(1.0, -2.0)
    for thetas in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(InvalidInputError, match="finite"):
            ScoreParams(*thetas)


# ---------------------------------------------------------------- matrices


def test_score_identity_matrix(rng):
    m = rng.uniform(-3, 3, (10, 4))
    out = score_matrices(m, m, ScoreParams(1.5, 1.0))
    assert out.score == 3.0
    assert out.pct_same_sign == 1.0
    assert out.pct_same_rank == 1.0


def test_score_negated_matrix(rng):
    m = rng.uniform(0.5, 3, (10, 4))
    out = score_matrices(-m, m, ScoreParams(1.5, 1.0))
    assert out.pct_same_sign == 0.0
    assert out.direction_score < 1.0


def test_score_shape_mismatch(rng):
    with pytest.raises(DimensionError):
        score_matrices(rng.uniform(size=(2, 3)), rng.uniform(size=(3, 2)), ScoreParams(1.5, 1.0))


def test_score_decomposition_identity(rng):
    cand = rng.uniform(-50, 50, (30, 6))
    ref = rng.uniform(-50, 50, (30, 6))
    out = score_matrices(cand, ref, ScoreParams(2.5, 6.0))
    assert out.score == pytest.approx(
        out.direction_score + out.relative_value_score + out.rank_score, abs=1e-12
    )


def test_score_permutation_equivariance(rng):
    # tie-free matrices: rank assignment commutes with the permutation
    cand = rng.uniform(1, 2, (15, 5)) * rng.choice([-1, 1], (15, 5))
    ref = cand + rng.uniform(-0.4, 0.4, (15, 5))
    perm = rng.permutation(5)
    out = score_matrices(cand, ref, ScoreParams(1.5, 1.0))
    out_p = score_matrices(cand[:, perm], ref[:, perm], ScoreParams(1.5, 1.0))
    for field in ("score", "direction_score", "relative_value_score", "rank_score",
                  "pct_same_sign", "pct_same_rank"):
        assert getattr(out, field) == pytest.approx(getattr(out_p, field), abs=1e-12)


# ---------------------------------------------------------------- properties

wild_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
thetas = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


@given(s=wild_floats, k=wild_floats, theta1=thetas)
def test_lambda1_range_property(s, k, theta1):
    value = cell(s, k, theta1=theta1).direction_score
    assert 0.0 < value <= 1.0


@given(s=wild_floats, k=wild_floats, theta2=thetas)
def test_lambda2_range_property(s, k, theta2):
    value = cell(s, k, theta2=theta2).relative_value_score
    assert 0.0 < value <= 1.0


@given(s=wild_floats, k=wild_floats, theta1=thetas, theta2=thetas,
       rank_s=st.integers(1, 20), rank_k=st.integers(1, 20))
def test_beta_range_property(s, k, theta1, theta2, rank_s, rank_k):
    # s and k sit among zero cells of a 1xp row pair, at the positions the
    # drawn ranks give, so the rank gap between the rows varies too
    p = max(rank_s, rank_k)
    cand = np.zeros((1, p))
    ref = np.zeros((1, p))
    cand[0, rank_s - 1] = s
    ref[0, rank_k - 1] = k
    value = score_matrices(cand, ref, ScoreParams(theta1, theta2)).score
    assert 0.0 < value <= 3.0


@given(s=wild_floats, k=wild_floats, theta1=thetas)
def test_lambda1_quadrant_rule(s, k, theta1):
    if (s > 0 and k > 0) or (s < 0 and k < 0):
        assert cell(s, k, theta1=theta1).direction_score == 1.0


@given(s=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), theta2=thetas,
       gap_small=st.floats(min_value=0, max_value=1e6, allow_nan=False),
       extra=st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_lambda2_monotone_in_gap(s, theta2, gap_small, extra):
    near = cell(s, s + gap_small, theta2=theta2).relative_value_score
    far = cell(s, s + gap_small + extra, theta2=theta2).relative_value_score
    assert far <= near


@given(s=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       k=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       theta1=thetas, bump=st.floats(min_value=0, max_value=1e6, allow_nan=False))
def test_lambda1_monotone_in_slack(s, k, theta1, bump):
    assert cell(s, k, theta1=theta1 + bump).direction_score >= cell(s, k, theta1=theta1).direction_score


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=12))
def test_ranks_always_a_permutation(row):
    ranks = importance_ranks(np.array(row))
    assert sorted(ranks.tolist()) == list(range(1, len(row) + 1))


def put_along_axis_ranks(values):
    """Ranks written by scattering 1..p to the sorted positions, kept as the reference."""
    order = np.argsort(-np.abs(values), axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[1] + 1)[None, :], axis=1)
    return ranks


tie_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e300, -np.inf])


@given(st.data(), st.integers(1, 30), st.integers(1, 9))
def test_ranks_equal_the_put_along_axis_reference(data, n, p):
    values = data.draw(arrays(np.float64, (n, p), elements=st.one_of(tie_values, st.floats(allow_nan=False))))
    got = importance_ranks(values)
    want = put_along_axis_ranks(values)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(importance_ranks(values[0]), want[0])


# ---------------------------------------------------------------- stacks


def mean_reference(candidate, reference, params):
    """The one-matrix scorer with np.mean, kept as the reference for the stacked means."""
    ranks_c = importance_ranks(candidate)
    ranks_r = importance_ranks(reference)
    direction = float(_direction(candidate, reference, params.theta1).mean())
    relative = float(_relative_value(candidate, reference, params.theta2).mean())
    rank = float((1.0 / (np.abs(ranks_c - ranks_r) + 1.0)).mean())
    with np.errstate(over="ignore", invalid="ignore"):
        same_sign = (candidate * reference > 0) | ((candidate == 0) & (reference == 0))
    return ScoreBreakdown(
        score=direction + relative + rank,
        direction_score=direction,
        relative_value_score=relative,
        rank_score=rank,
        pct_same_sign=float(same_sign.mean()),
        pct_same_rank=float((ranks_c == ranks_r).mean()),
    )


# zeros of both signs and repeated magnitudes of both signs make ties and sign edge cases common
cell_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    r=st.integers(1, 5),
    n=st.integers(1, 60),
    p=st.integers(1, 6),
    theta1=thetas,
    theta2=thetas,
)
def test_stack_equals_one_call_per_candidate(data, r, n, p, theta1, theta2):
    stack = data.draw(arrays(np.float64, (r, n, p), elements=cell_values))
    reference = data.draw(arrays(np.float64, (n, p), elements=cell_values))
    params = ScoreParams(theta1, theta2)
    got = score_matrices(stack, reference, params)
    assert isinstance(got, tuple) and len(got) == r
    for candidate, breakdown in zip(stack, got):
        single = score_matrices(candidate, reference, params)
        want = mean_reference(candidate, reference, params)
        # repr tells -0.0 from 0.0, so these are bit-for-bit comparisons
        assert repr(breakdown) == repr(single) == repr(want)


def test_matrix_gives_one_breakdown_and_stack_a_tuple(rng):
    reference = rng.uniform(-1, 1, (5, 3))
    params = ScoreParams(1.5, 1.0)
    assert isinstance(score_matrices(reference, reference, params), ScoreBreakdown)
    assert score_matrices(reference[None], reference, params) == (score_matrices(reference, reference, params),)


def test_stack_shape_errors(rng):
    params = ScoreParams(1.5, 1.0)
    reference = rng.uniform(size=(4, 3))
    bad = [
        (rng.uniform(size=(2, 4, 3)), rng.uniform(size=(2, 4, 3))),  # a 3-D reference
        (rng.uniform(size=(2, 4, 2)), reference),  # stacked matrices of another shape
        (rng.uniform(size=(2, 3, 3)), reference),
        (rng.uniform(size=(1, 2, 4, 3)), reference),  # a 4-D candidate
    ]
    for candidate, ref in bad:
        with pytest.raises(DimensionError):
            score_matrices(candidate, ref, params)
