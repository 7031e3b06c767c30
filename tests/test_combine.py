import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mshap import (
    AlphaMethod,
    DimensionError,
    InvalidInputError,
    ModelFunction,
    ShapExplanation,
    baseline,
    combine,
    explain_matrix,
    linear_combine_explanations,
    linear_combine_mshap,
    mean_product_baseline,
    product_model,
    validate_local_accuracy,
)
from mshap import tables
from mshap.combine import RAW_AMPLIFICATION_LIMIT, RAW_DEGENERACY_TOL, _combine_rules, _distribute_rows, _stack
from parts import make_parts

METHODS = list(AlphaMethod)


def prime_table_oracle(sx, sy, mu_f, mu_g):
    """Independent route: build the full cross-term table and read row + column.

    Cell (j, a) holds sx_j * sy_a, with mu_f appended to the x side and mu_g to
    the y side.  Feature j collects its mu row/column cells whole and half of
    every other cell in its row and column.
    """
    p = len(sx)
    table = np.outer(np.append(sx, mu_f), np.append(sy, mu_g))
    out = np.empty(p)
    for j in range(p):
        mu_terms = table[j, p] + table[p, j]
        halved = 0.5 * (table[j, :p].sum() + table[:p, j].sum())
        out[j] = mu_terms + halved
    return out


# ---------------------------------------------------------------- s'


def prime(sx, sy, mu_f, mu_g):
    """s' for one row, through combine: with mu_h = mu_f * mu_g, alpha is 0."""
    sx = np.atleast_2d(np.asarray(sx, dtype=float))
    sy = np.atleast_2d(np.asarray(sy, dtype=float))
    expl_f = ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1))
    expl_g = ShapExplanation(sy, mu_g, mu_g + sy.sum(axis=1))
    out = combine(expl_f, expl_g, mu_h=mu_f * mu_g, method=AlphaMethod.UNIFORM)
    assert out.alpha == 0.0
    return out.values[0]


def test_prime_single_feature_example():
    np.testing.assert_allclose(prime([2.0], [2.0], 1.0, 2.0), [10.0])


def test_prime_zero_rows_give_zero():
    out = prime(np.zeros(4), np.zeros(4), 3.0, -2.0)
    assert np.all(out == 0.0)


def test_prime_matches_table_oracle(rng):
    for _ in range(20):
        p = int(rng.integers(1, 9))
        sx = rng.uniform(-5, 5, p)
        sy = rng.uniform(-5, 5, p)
        mu_f, mu_g = rng.uniform(-3, 3, 2)
        np.testing.assert_allclose(
            prime(sx, sy, mu_f, mu_g),
            prime_table_oracle(sx, sy, mu_f, mu_g),
            rtol=1e-12,
            atol=1e-12,
        )


def test_prime_sum_identity(rng):
    # sum of the row equals x_hat * y_hat - mu_f * mu_g
    sx = rng.uniform(-10, 10, 3)
    sy = rng.uniform(-10, 10, 3)
    mu_f, mu_g = 1.7, -0.6
    x_hat = mu_f + sx.sum()
    y_hat = mu_g + sy.sum()
    total = prime(sx, sy, mu_f, mu_g).sum()
    assert total == pytest.approx(x_hat * y_hat - mu_f * mu_g, abs=1e-12 * max(1, abs(total)))


def test_prime_symmetric_in_parts(rng):
    sx = rng.uniform(-5, 5, 6)
    sy = rng.uniform(-5, 5, 6)
    forward = prime(sx, sy, 1.3, -2.1)
    swapped = prime(sy, sx, -2.1, 1.3)
    np.testing.assert_array_equal(forward, swapped)


def test_prime_length_mismatch():
    with pytest.raises(DimensionError):
        prime([1.0, 2.0], [1.0], 0.0, 0.0)


# ---------------------------------------------------------------- alpha


def centred(preds):
    """A one-feature explanation with baseline mean(preds)."""
    mu = preds.mean()
    return ShapExplanation(values=(preds - mu)[:, None], baseline=mu, predictions=preds)


def test_alpha_examples():
    def alpha(mu_f, mu_g, mu_h):
        f = ShapExplanation(values=[[0.0]], baseline=mu_f, predictions=[mu_f])
        g = ShapExplanation(values=[[0.0]], baseline=mu_g, predictions=[mu_g])
        return combine(f, g, mu_h).alpha

    assert alpha(1.0, 2.0, 2.0) == 0.0
    assert alpha(2.0, 3.0, 5.0) == 1.0


def test_alpha_is_negative_covariance(rng):
    # mu_f, mu_g, mu_h over the same rows: alpha = -cov(x_hat, y_hat)
    x_hat = rng.uniform(-4, 4, 500)
    y_hat = rng.uniform(-4, 4, 500)
    alpha = combine(centred(x_hat), centred(y_hat), mean_product_baseline(x_hat, y_hat)).alpha
    oracle = -np.cov(x_hat, y_hat, bias=True)[0, 1]
    assert alpha == pytest.approx(oracle, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------- alpha weightings


def distribute(s_prime, alpha, method, z_hat):
    """Fold alpha into one s' row; returns (row, fell back to uniform)."""
    s_z, degenerate = _distribute_rows(
        np.asarray(s_prime, dtype=float)[None, :], alpha, method, np.array([z_hat])
    )
    return s_z[0], bool(degenerate[0])


def test_distribute_uniform_example():
    values, fallback = distribute([3.0, 1.0], 4.0, AlphaMethod.UNIFORM, z_hat=10.0)
    np.testing.assert_allclose(values, [5.0, 3.0])
    assert not fallback


def test_distribute_absolute_example():
    # weights (3/4, 1/4) on s' = (3, -1); the row total must land on
    # sum(s') + alpha = 6, which pins the second entry at -1 + 1 = 0
    values, _ = distribute([3.0, -1.0], 4.0, AlphaMethod.ABSOLUTE, z_hat=8.0)
    np.testing.assert_allclose(values, [6.0, 0.0])
    assert values.sum() == pytest.approx(2.0 + 4.0)


def test_distribute_alpha_zero_is_identity():
    s = [3.0, -1.0, 0.5]
    for method in METHODS:
        values, _ = distribute(s, 0.0, method, z_hat=4.5)
        np.testing.assert_array_equal(values, s)


def test_distribute_weights_sum_to_one(rng):
    for method in METHODS:
        s = rng.uniform(-5, 5, 7)
        alpha = 3.7
        values, fallback = distribute(s, alpha, method, z_hat=float(s.sum() + 2.0))
        assert not fallback
        assert (values - s).sum() == pytest.approx(alpha, rel=1e-12)


def test_distribute_degenerate_rows_fall_back_to_uniform():
    zero = np.zeros(4)
    for method in (AlphaMethod.ABSOLUTE, AlphaMethod.SQUARED, AlphaMethod.RAW):
        values, fallback = distribute(zero, 2.0, method, z_hat=3.0)
        assert fallback
        np.testing.assert_allclose(values, np.full(4, 0.5))
    _, fallback = distribute(zero, 2.0, AlphaMethod.UNIFORM, z_hat=3.0)
    assert not fallback


def four_branch_distribute(s_prime, alpha, method, z_hat):
    """Reference: the alpha rules as four separate branches, one per weighting."""
    n, p = s_prime.shape
    uniform = np.full((n, p), 1.0 / p)
    if method is AlphaMethod.UNIFORM:
        return s_prime + alpha * uniform, np.zeros(n, dtype=bool)
    if method is AlphaMethod.RAW:
        den = s_prime.sum(axis=1)
        scale = np.maximum(1.0, np.abs(z_hat))
        degenerate = np.abs(den) < RAW_DEGENERACY_TOL * scale
        degenerate |= (
            np.abs(alpha) * np.abs(s_prime).max(axis=1)
            > RAW_AMPLIFICATION_LIMIT * scale * np.abs(den)
        )
        den = np.where(degenerate, 1.0, den)
        weights = s_prime / den[:, None]
    elif method is AlphaMethod.ABSOLUTE:
        den = np.abs(s_prime).sum(axis=1)
        degenerate = den < RAW_DEGENERACY_TOL
        den = np.where(degenerate, 1.0, den)
        weights = np.abs(s_prime) / den[:, None]
    else:
        sq = s_prime * s_prime
        den = sq.sum(axis=1)
        degenerate = den < RAW_DEGENERACY_TOL
        den = np.where(degenerate, 1.0, den)
        weights = sq / den[:, None]
    weights = np.where(degenerate[:, None], uniform, weights)
    return s_prime + alpha * weights, degenerate


tiny_or_box = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
    st.floats(min_value=-1e-11, max_value=1e-11, allow_nan=False, width=64),
)


@settings(max_examples=200)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    p=st.integers(1, 6),
    alpha=st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)),
    method=st.sampled_from(METHODS),
)
def test_distribute_matches_four_branch_reference(data, n, p, alpha, method):
    s_prime = data.draw(arrays(np.float64, (n, p), elements=tiny_or_box))
    z_hat = data.draw(arrays(np.float64, n, elements=tiny_or_box))
    kind = data.draw(arrays(np.int8, n, elements=st.sampled_from([0, 1, 2])))
    s_prime[kind == 1] = 0.0  # all-zero rows
    cancel = kind == 2  # rows whose total (nearly) cancels
    s_prime[cancel, -1] = -s_prime[cancel, :-1].sum(axis=1)
    values, fallback = _distribute_rows(s_prime, alpha, method, z_hat)
    ref_values, ref_fallback = four_branch_distribute(s_prime, alpha, method, z_hat)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(fallback, ref_fallback)


# ---------------------------------------------------------------- combine


def test_combine_constant_part_is_identity(rng):
    # g identically 1: zero SHAP matrix, mu_g = 1, mu_h = mu_f
    n, p = 8, 3
    sx = rng.uniform(-2, 2, (n, p))
    mu_f = 1.4
    expl_f = ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1))
    expl_g = ShapExplanation(np.zeros((n, p)), 1.0, np.ones(n))
    for method in METHODS:
        out = combine(expl_f, expl_g, mu_h=mu_f, method=method)
        np.testing.assert_array_equal(out.values, sx)
        assert out.alpha == 0.0


def test_combine_single_feature_forces_value(rng):
    n = 10
    expl_f, expl_g = make_parts(rng, n, 1, scale=5.0)
    mu_h = 2.2
    expected = expl_f.predictions * expl_g.predictions - mu_h
    for method in METHODS:
        out = combine(expl_f, expl_g, mu_h, method)
        np.testing.assert_allclose(out.values[:, 0], expected, rtol=1e-12, atol=1e-12)


def test_combine_local_accuracy_all_methods(rng):
    expl_f, expl_g = make_parts(rng, 100, 3)
    mu_h = mean_product_baseline(expl_f.predictions, expl_g.predictions)
    for method in METHODS:
        out = combine(expl_f, expl_g, mu_h, method)
        assert validate_local_accuracy(out, 1e-9).passed


def test_combine_totals_agree_across_methods(rng):
    expl_f, expl_g = make_parts(rng, 50, 5, scale=10.0)
    mu_h = -3.0
    totals = np.stack(
        [combine(expl_f, expl_g, mu_h, m).values.sum(axis=1) for m in METHODS]
    )
    spread = totals.max(axis=0) - totals.min(axis=0)
    assert np.all(spread <= 1e-12 * np.maximum(1.0, np.abs(totals[0])))


def test_combine_scale_covariance(rng):
    expl_f, expl_g = make_parts(rng, 20, 4, scale=3.0)
    mu_h = 1.1
    c = 4.0  # power of two: the scaling commutes exactly with rounding
    scaled_g = ShapExplanation(c * expl_g.values, c * expl_g.baseline, c * expl_g.predictions)
    for method in METHODS:
        base = combine(expl_f, expl_g, mu_h, method)
        scaled = combine(expl_f, scaled_g, c * mu_h, method)
        np.testing.assert_array_equal(scaled.values, c * base.values)
    c = 3.7  # generic scale: exact up to rounding
    scaled_g = ShapExplanation(c * expl_g.values, c * expl_g.baseline, c * expl_g.predictions)
    for method in METHODS:
        base = combine(expl_f, expl_g, mu_h, method)
        scaled = combine(expl_f, scaled_g, c * mu_h, method)
        np.testing.assert_allclose(scaled.values, c * base.values, rtol=1e-12, atol=1e-12)


def test_combine_swapping_parts_gives_same_values(rng):
    expl_f, expl_g = make_parts(rng, 12, 3, scale=2.0)
    out_fg = combine(expl_f, expl_g, 0.3, AlphaMethod.ABSOLUTE)
    out_gf = combine(expl_g, expl_f, 0.3, AlphaMethod.ABSOLUTE)
    np.testing.assert_array_equal(out_fg.values, out_gf.values)


def test_combine_records_fallback_rows(rng):
    expl_f, expl_g = make_parts(rng, 6, 3, scale=2.0)
    sx = expl_f.values.copy()
    sx[2] = 0.0
    sy = expl_g.values.copy()
    sy[2] = 0.0
    expl_f = ShapExplanation(sx, 0.0, sx.sum(axis=1))
    expl_g = ShapExplanation(sy, 0.0, sy.sum(axis=1))
    out = combine(expl_f, expl_g, mu_h=1.0, method=AlphaMethod.ABSOLUTE)
    assert out.fallback_rows == (2,)
    assert validate_local_accuracy(out, 1e-9).passed


def test_combine_name_mismatch_names_column(rng):
    expl_f, _ = make_parts(rng, 4, 3, names=("a", "b", "c"))
    _, expl_g = make_parts(rng, 4, 3, names=("a", "x", "c"))
    with pytest.raises(DimensionError, match="column 1"):
        combine(expl_f, expl_g, 0.0, AlphaMethod.UNIFORM)


def test_combine_shape_mismatch(rng):
    expl_f, _ = make_parts(rng, 4, 3)
    _, expl_g = make_parts(rng, 4, 2)
    with pytest.raises(DimensionError):
        combine(expl_f, expl_g, 0.0, AlphaMethod.UNIFORM)


def test_combine_rejects_non_finite_mu_h(rng):
    expl_f, expl_g = make_parts(rng, 4, 3, scale=1.0)
    for mu_h in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidInputError, match="mu_h"):
            combine(expl_f, expl_g, mu_h, AlphaMethod.ABSOLUTE)


@pytest.mark.parametrize("mu_h", [1.0, "mean"])
@pytest.mark.parametrize("huge", ["baselines", "values"])
def test_combine_rejects_an_overflowing_product_without_a_warning(huge, mu_h):
    # 1e200 * 1e200 overflows float64: the combined table would be all inf
    values = np.array([[0.5, -0.25], [1.0, 2.0]]) * (1e200 if huge == "values" else 1.0)
    base = 1e200 if huge == "baselines" else 0.0
    expl = ShapExplanation(values, base, base + values.sum(axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if mu_h == "mean":
            mu_h = mean_product_baseline(expl.predictions, expl.predictions)
        with pytest.raises(InvalidInputError, match="finite"):
            combine(expl, expl, mu_h, AlphaMethod.ABSOLUTE)


def test_combine_rejects_broken_local_accuracy(rng):
    expl_f, expl_g = make_parts(rng, 5, 3, scale=1.0)
    preds = expl_g.predictions.copy()
    preds[3] += 0.5
    broken = ShapExplanation(expl_g.values, expl_g.baseline, preds)
    with pytest.raises(InvalidInputError, match="row 3"):
        combine(expl_f, broken, 0.0, AlphaMethod.UNIFORM)


def test_combine_propagates_names(rng):
    names = ("age", "mileage", "zone")
    expl_f, expl_g = make_parts(rng, 4, 3, names=names)
    out = combine(expl_f, expl_g, 0.0, AlphaMethod.SQUARED)
    assert out.feature_names == names
    assert out.method is AlphaMethod.SQUARED


values_box = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)


@settings(max_examples=60)
@given(
    data=st.data(),
    n=st.integers(1, 25),
    p=st.integers(1, 10),
    method=st.sampled_from(METHODS),
)
def test_combine_local_accuracy_property(data, n, p, method):
    sx = data.draw(arrays(np.float64, (n, p), elements=values_box))
    sy = data.draw(arrays(np.float64, (n, p), elements=values_box))
    mu_f = data.draw(values_box)
    mu_g = data.draw(values_box)
    mu_h = data.draw(values_box)
    expl_f = ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1))
    expl_g = ShapExplanation(sy, mu_g, mu_g + sy.sum(axis=1))
    out = combine(expl_f, expl_g, mu_h, method)
    assert validate_local_accuracy(out, 1e-9).passed


def draw_parts(data, n, p, alpha_zero):
    sx = data.draw(arrays(np.float64, (n, p), elements=values_box))
    sy = data.draw(arrays(np.float64, (n, p), elements=values_box))
    kind = data.draw(arrays(np.int8, n, elements=st.sampled_from([0, 1, 2])))
    sx[kind == 1] = sy[kind == 1] = 0.0  # an all-zero s' row: every rule falls back
    for s in (sx, sy):  # part rows that sum to 0, so the raw total cancels
        s[kind == 2, -1] = -s[kind == 2, :-1].sum(axis=1)
    mu_f, mu_g, mu_h = (data.draw(values_box) for _ in range(3))
    if alpha_zero:
        mu_h = mu_f * mu_g
    return ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1)), ShapExplanation(sy, mu_g, mu_g + sy.sum(axis=1)), mu_h


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(1, 20), p=st.integers(1, 6), alpha_zero=st.lists(st.booleans(), min_size=1, max_size=4))
def test_one_pass_over_cells_and_rules_equals_one_combine_call_per_rule(data, n, p, alpha_zero):
    cells = [draw_parts(data, n, p, zero) for zero in alpha_zero]
    parts_f, parts_g, mu_h = zip(*cells)
    stack, fallbacks, alpha, z_hat, errors = _combine_rules(_stack(parts_f), _stack(parts_g), mu_h, METHODS)
    assert stack.shape == (len(cells), len(METHODS), n, p) and fallbacks.shape == (len(cells), len(METHODS), n)
    assert errors == [None] * len(cells)
    for c, (expl_f, expl_g, mu_h_c) in enumerate(cells):
        for method, values, fallback in zip(METHODS, stack[c], fallbacks[c]):
            one = combine(expl_f, expl_g, mu_h_c, method)
            assert values.tobytes() == one.values.tobytes()
            assert tuple(np.flatnonzero(fallback).tolist()) == one.fallback_rows
            assert z_hat[c].tobytes() == one.predictions.tobytes()
            assert alpha[c] == one.alpha


@pytest.mark.parametrize("p", [1, 3, 20])
def test_rows_on_either_side_of_a_block_edge_keep_their_bits(rng, p):
    block = tables._block_rows(p)  # combine() composes one cell in blocks of this many rows
    n = 2 * block + 1
    sx, sy = rng.uniform(-1e3, 1e3, (2, n, p))
    edges = [0, block - 1, block, 2 * block - 1, 2 * block]
    sx[edges] = sy[edges] = 0.0  # all-zero s' rows: every rule but uniform falls back there
    parts = [ShapExplanation(s, mu, mu + s.sum(axis=1)) for s, mu in ((sx, 1.5), (sy, -2.5))]
    starts = [0, block, 2 * block]
    for method in METHODS:
        whole = combine(*parts, 0.7, method)
        pieces = [
            combine(*(ShapExplanation(e.values[lo:hi], e.baseline, e.predictions[lo:hi]) for e in parts), 0.7, method)
            for lo, hi in zip(starts, starts[1:] + [n])
        ]
        assert whole.values.tobytes() == np.concatenate([piece.values for piece in pieces]).tobytes()
        assert whole.predictions.tobytes() == np.concatenate([piece.predictions for piece in pieces]).tobytes()
        assert whole.fallback_rows == tuple(lo + i for lo, piece in zip(starts, pieces) for i in piece.fallback_rows)
        assert method is AlphaMethod.UNIFORM or set(edges) <= set(whole.fallback_rows)


def test_combine_allocates_its_output_and_one_block_above_its_inputs(rng):
    # parts laid out as read_shap_table returns them: views of one (n, p + 1) array;
    # stacked copies of the parts and whole-table temporaries peaked at 20.2 MB here
    n, p = 20_000, 20
    parts = []
    for mu in (1.5, -2.5):
        data = np.empty((n, p + 1))
        data[:, :p] = rng.uniform(-1e3, 1e3, (n, p))
        data[:, p] = mu + data[:, :p].sum(axis=1)
        parts.append(ShapExplanation(data[:, :p], mu, data[:, p]))
    tracemalloc.start()
    try:
        result = combine(*parts, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= result.values.nbytes + 2 * 2**20, peak


def test_a_failing_cell_keeps_its_error_and_leaves_its_neighbours(rng):
    good = [make_parts(rng, 5, 3, scale=1.0) for _ in range(3)]
    preds = good[1][1].predictions.copy()
    preds[3] += 0.5
    broken = ShapExplanation(good[1][1].values, good[1][1].baseline, preds)
    huge = ShapExplanation(np.full((5, 3), 1e200), 1e200, np.full(5, 4e200))
    parts_f = [good[0][0], good[1][0], huge]
    parts_g = [good[0][1], broken, huge]
    stack, *_, errors = _combine_rules(_stack(parts_f), _stack(parts_g), [0.3] * 3, METHODS)
    with pytest.raises(InvalidInputError) as part_g:
        combine(parts_f[1], broken, 0.3, METHODS[0])
    with pytest.raises(InvalidInputError) as overflow:
        combine(huge, huge, 0.3, METHODS[0])
    assert errors[0] is None
    assert str(errors[1]) == str(part_g.value) and "part g fails local accuracy: worst row 3" in str(errors[1])
    assert str(errors[2]) == str(overflow.value) and "not finite" in str(errors[2])
    for method, values in zip(METHODS, stack[0]):
        assert values.tobytes() == combine(*good[0], 0.3, method).values.tobytes()


# ---------------------------------------------------------------- baselines and linear combinations


def test_mean_product_baseline_examples():
    assert mean_product_baseline([1.0, 1.0], [1.0, 1.0]) == 1.0
    assert mean_product_baseline([1.0, 3.0], [2.0, 4.0]) == 7.0
    with pytest.raises(DimensionError):
        mean_product_baseline([1.0], [1.0, 2.0])


def test_mean_product_baseline_of_empty_vectors_is_a_dimension_error():
    # the mean of no products used to leak "Mean of empty slice" and return NaN
    with pytest.raises(DimensionError, match="prediction vectors are empty"):
        mean_product_baseline([], [])


def test_mean_product_baseline_matches_product_model(rng):
    f = ModelFunction(3, lambda X: X[:, 0] + X[:, 1])
    g = ModelFunction(3, lambda X: X[:, 2] ** 2 + 1)
    rows = rng.uniform(-2, 2, (40, 3))
    direct = baseline(product_model(f, g), rows)
    assert mean_product_baseline(f(rows), g(rows)) == pytest.approx(direct, rel=1e-12)


def explanation(values, base):
    return ShapExplanation(values=values, baseline=base, predictions=base + values.sum(axis=1))


def test_linear_combine_identity(rng):
    values = rng.uniform(-1, 1, (5, 3))
    out = linear_combine_explanations([(1.0, explanation(values, 2.5))])
    np.testing.assert_array_equal(out.values, values)
    assert out.baseline == 2.5


def test_linear_combine_averaging_two_copies(rng):
    part = explanation(rng.uniform(-1, 1, (5, 3)), 2.0)
    out = linear_combine_explanations([(0.5, part), (0.5, part)])
    np.testing.assert_allclose(out.values, part.values)
    np.testing.assert_allclose(out.predictions, part.predictions)
    assert out.baseline == 2.0


def test_linear_combine_shape_mismatch(rng):
    narrow = explanation(rng.uniform(size=(2, 2)), 0.0)
    wide = explanation(rng.uniform(size=(2, 3)), 0.0)
    with pytest.raises(DimensionError):
        linear_combine_explanations([(1.0, narrow), (1.0, wide)])
    with pytest.raises(InvalidInputError):
        linear_combine_explanations([])
    with pytest.raises(InvalidInputError):
        linear_combine_mshap([])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_linear_combine_rejects_non_finite_weights(rng, weight):
    expl_f, expl_g = make_parts(rng, 4, 2, scale=1.0)
    with pytest.raises(InvalidInputError, match="finite"):
        linear_combine_explanations([(weight, expl_f)])
    combined = combine(expl_f, expl_g, 0.0, AlphaMethod.ABSOLUTE)
    with pytest.raises(InvalidInputError, match="finite"):
        linear_combine_mshap([(1.0, combined), (weight, combined)])


@pytest.mark.parametrize("huge", ["values", "baseline"])
def test_linear_combine_rejects_an_overflowing_part_without_a_warning(huge):
    values = np.array([[0.5, -0.25]]) * (1e200 if huge == "values" else 1.0)
    part = explanation(values, 1e200 if huge == "baseline" else 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite"):
            linear_combine_explanations([(1e200, part)])
        combined = combine(part, explanation(np.ones((1, 2)), 1.0), 0.0, AlphaMethod.UNIFORM)
        with pytest.raises(InvalidInputError, match="finite"):
            linear_combine_mshap([(1e200, combined)])


def test_linear_combine_rejects_misaligned_names(rng):
    values = rng.uniform(-1, 1, (3, 2))
    ab = ShapExplanation(values, 0.0, values.sum(axis=1), feature_names=("a", "b"))
    ba = ShapExplanation(values, 0.0, values.sum(axis=1), feature_names=("b", "a"))
    unnamed = explanation(values, 0.0)
    with pytest.raises(DimensionError, match="column 0"):
        linear_combine_explanations([(1.0, ab), (1.0, ba)])
    with pytest.raises(DimensionError):
        linear_combine_explanations([(1.0, unnamed), (1.0, ab), (1.0, ba)])
    combined = combine(ab, ab, 0.0, AlphaMethod.UNIFORM)
    with pytest.raises(DimensionError):
        linear_combine_mshap([(1.0, combined), (1.0, combine(ba, ba, 0.0, AlphaMethod.UNIFORM))])
    assert linear_combine_explanations([(1.0, unnamed), (1.0, ab)]).feature_names == ("a", "b")


def test_linear_combine_preserves_local_accuracy(rng):
    parts = [make_parts(rng, 6, 4, scale=2.0)[0] for _ in range(3)]
    weights = (0.5, 2.0, -1.0)
    combined = linear_combine_explanations(list(zip(weights, parts)))
    assert validate_local_accuracy(combined, 1e-9).passed


def test_expected_value_combination_matches_oracle_at_p1(rng):
    # four class-probability models and one severity model, all single-feature;
    # the oracle explains the expected-value model directly
    background = rng.uniform(0.2, 1.0, (6, 1))
    rows = rng.uniform(0.2, 1.0, (5, 1))
    class_models = [
        ModelFunction(1, lambda X, a=a: 1.0 / (1.0 + np.exp(-(X[:, 0] - 0.1 * a)))) for a in range(4)
    ]
    severity = ModelFunction(1, lambda X: 10.0 + 5.0 * X[:, 0] ** 2)
    weights = (0.0, 1.0, 2.0, 3.0)

    sev_expl = explain_matrix(severity, rows, background)
    per_class = []
    for model in class_models:
        expl = explain_matrix(model, rows, background)
        mu_h = baseline(product_model(model, severity), background)
        per_class.append(combine(expl, sev_expl, mu_h, AlphaMethod.ABSOLUTE))
    ev_mshap = linear_combine_mshap(list(zip(weights, per_class)))

    ev_model = ModelFunction(
        1, lambda X: sum(w * m(X) for w, m in zip(weights, class_models)) * severity(X)
    )
    oracle = explain_matrix(ev_model, rows, background).values
    np.testing.assert_allclose(ev_mshap.values, oracle, rtol=1e-10, atol=1e-12)
    assert validate_local_accuracy(ev_mshap, 1e-9).passed


def test_linear_combine_mshap_rejects_mixed_methods(rng):
    expl_f, expl_g = make_parts(rng, 4, 2, scale=1.0)
    a = combine(expl_f, expl_g, 0.0, AlphaMethod.UNIFORM)
    b = combine(expl_f, expl_g, 0.0, AlphaMethod.ABSOLUTE)
    with pytest.raises(InvalidInputError):
        linear_combine_mshap([(1.0, a), (1.0, b)])
