import hashlib
import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mshap import (
    AlphaMethod,
    DimensionError,
    EnumerationLimitError,
    InvalidInputError,
    ModelFunction,
    MshapExplanation,
    ScenarioSpec,
    ShapExplanation,
    ShapTable,
    additive_model,
    baseline,
    explain_matrix,
    sampling_explain_matrix,
    validate_local_accuracy,
)
from mshap import product_model, shapley
from mshap.shapley import SamplingExplanation, _shapley_weights, explain_product
from mshap.simulation import Y1_IDS, Y2_IDS, bench_models, sample_scenario_rows
from parts import constant_model, scenario_model


def additive_closed_form(coefs, instance, background):
    """Independent oracle: phi_j = c_j * (x_j - mean background_j)."""
    return np.asarray(coefs) * (np.asarray(instance) - np.asarray(background).mean(axis=0))


def explain_row(model, instance, background, **kwargs):
    """The exact oracle on a single instance: a one-row explain_matrix call."""
    return explain_matrix(model, np.asarray(instance, dtype=float)[None, :], background, **kwargs)


# ---------------------------------------------------------------- baseline


def test_baseline_constant_model():
    model = constant_model(3, 5.0)
    bg = np.zeros((4, 3))
    assert baseline(model, bg) == 5.0


def test_baseline_single_feature_mean():
    model = ModelFunction(1, lambda X: X[:, 0])
    assert baseline(model, np.array([[1.0], [3.0]])) == 2.0


def test_baseline_matches_independent_mean(rng):
    # paper-style covariate box; the oracle is a hand-rolled mean of row sums
    lo = np.array([-10.0, 0.0, -5.0])
    hi = np.array([10.0, 20.0, -1.0])
    rows = rng.uniform(lo, hi, (100, 3))
    model = additive_model([1.0, 1.0, 1.0])
    expected = sum(float(r.sum()) for r in rows) / 100
    assert baseline(model, rows) == pytest.approx(expected, rel=1e-12)


def test_baseline_arity_mismatch():
    with pytest.raises(DimensionError):
        baseline(constant_model(3, 1.0), np.zeros((4, 2)))


def test_background_set_rejects_empty():
    with pytest.raises(DimensionError):
        baseline(constant_model(3, 1.0), np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "entry, where",
    [("baseline", "background")]
    + [(entry, where) for entry in ("explain_matrix", "explain_product", "sampling_explain_matrix")
       for where in ("instances", "background")],
)
def test_a_non_finite_cell_is_rejected_before_any_model_call(entry, where, bad):
    # a non-finite cell used to come back as NaN attributions with a leaked RuntimeWarning
    calls = []
    model = ModelFunction(2, lambda X: calls.append(len(X)) or X[:, 0] - X[:, 1])
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    background = np.array([[0.0, 1.0], [2.0, 3.0], [1.0, 1.0]])
    (X if where == "instances" else background)[1, 0] = bad
    run = {
        "baseline": lambda: baseline(model, background),
        "explain_matrix": lambda: explain_matrix(model, X, background),
        "explain_product": lambda: explain_product(model, model, X, background),
        "sampling_explain_matrix": lambda: sampling_explain_matrix(model, X, background, 4, 0),
    }[entry]
    with pytest.raises(InvalidInputError, match=f"{where} hold.* a non-finite value"):
        run()
    assert calls == []


@pytest.mark.parametrize("signed", [False, True], ids=["inf", "signed-inf"])
@pytest.mark.parametrize("entry", ["explain_matrix", "explain_product", "drawn", "exhaustive"])
def test_an_infinite_model_output_is_refused_without_a_warning(entry, signed):
    # at the parent these returned NaN attributions and leaked a RuntimeWarning from inf - inf
    X = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 2.0]])
    background = np.array([[-1.0, -1.0, -1.0], [-3.0, -2.0, -3.0]])

    def fn(R):
        # a spliced row mixes signs; np.where picks inf for it (or, when signed, -inf for one
        # whose first column is negative) without computing an inf itself
        unspliced = (R > 0).all(axis=1) | (R < 0).all(axis=1)
        return np.where(unspliced, R.sum(axis=1), np.where(R[:, 0] > 0, np.inf, -np.inf) if signed else np.inf)

    model = ModelFunction(3, fn)
    run = {
        "explain_matrix": lambda: explain_matrix(model, X, background),
        "explain_product": lambda: explain_product(model, model, X, background),
        "drawn": lambda: sampling_explain_matrix(model, X, background, 4, 0),
        "exhaustive": lambda: sampling_explain_matrix(model, X, background, 6, 0),
    }[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="non-finite values in an explanation"):
            run()


@pytest.mark.parametrize("entry", ["explain_matrix", "explain_product", "drawn", "exhaustive"])
def test_a_model_with_both_infinities_on_one_instance_is_refused_without_a_warning(entry):
    # the mean of one row's +inf and -inf outputs is NaN: at the parent the walk's per-row
    # mean and the empty coalition's mean each leaked a RuntimeWarning before the typed error
    X = np.array([[1.0, 1.0, 1.0]])
    background = np.array([[-1.0, -1.0, -1.0], [-3.0, -2.0, -3.0]])
    model = ModelFunction(3, lambda R: np.where(R.min(axis=1) > -2, np.inf, -np.inf))
    run = {
        "explain_matrix": lambda: explain_matrix(model, X, background),
        "explain_product": lambda: explain_product(model, model, X, background),
        "drawn": lambda: sampling_explain_matrix(model, X, background, 4, 0),
        "exhaustive": lambda: sampling_explain_matrix(model, X, background, 6, 0),
    }[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="non-finite values in an explanation"):
            run()


EXPLANATION_TYPES = [
    pytest.param(ShapExplanation, {}, id="ShapExplanation"),
    pytest.param(
        SamplingExplanation,
        {"stderr": np.full((2, 2), np.nan), "n_permutations": 1, "exhaustive": False},
        id="SamplingExplanation",
    ),
    pytest.param(MshapExplanation, {"alpha": 0.0, "method": AlphaMethod.ABSOLUTE}, id="MshapExplanation"),
    pytest.param(ShapTable, {"prediction_column": "prediction"}, id="ShapTable"),
]


@pytest.mark.parametrize("cls, extra", EXPLANATION_TYPES)
def test_explanation_values_must_be_a_matrix(cls, extra):
    with pytest.raises(DimensionError):
        cls(values=np.zeros((2, 3, 4)), baseline=0.0, predictions=np.zeros(2), **extra)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("field", ["values", "predictions", "baseline"])
@pytest.mark.parametrize("cls, extra", EXPLANATION_TYPES)
def test_every_explanation_type_refuses_a_non_finite_entry(cls, extra, field, bad):
    good = {"values": np.array([[1.0, 2.0], [3.0, -1.0]]), "baseline": 0.5, "predictions": np.array([3.5, 2.5])}
    cls(**good, **extra)  # a NaN stderr is no attribution: SamplingExplanation keeps it
    entry = np.array(good[field])
    entry.flat[-1] = bad
    with pytest.raises(InvalidInputError, match=f"non-finite {field} in an explanation"):
        cls(**dict(good, **{field: entry}), **extra)


# ---------------------------------------------------------------- exact enumeration


def test_exact_constant_model_all_zero():
    row = explain_row(constant_model(4, 7.0), np.ones(4), np.zeros((3, 4)))
    assert np.all(row.values == 0.0)
    assert row.baseline == 7.0
    assert row.predictions[0] == 7.0


def test_exact_additive_closed_form(rng):
    coefs = [2.0, -1.5, 0.25]
    model = additive_model(coefs)
    background = rng.uniform(-1, 1, (10, 3))
    instance = rng.uniform(-1, 1, 3)
    row = explain_row(model, instance, background)
    np.testing.assert_allclose(
        row.values[0], additive_closed_form(coefs, instance, background), rtol=1e-12, atol=1e-12
    )


def test_exact_two_player_product_hand_enumeration():
    # v(empty)=0, v({1})=0, v({2})=0, v({1,2})=6 -> phi = (3, 3)
    model = ModelFunction(2, lambda X: X[:, 0] * X[:, 1])
    row = explain_row(model, [2.0, 3.0], np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(row.values[0], [3.0, 3.0], atol=1e-12)
    assert row.baseline == 0.0


def test_exact_efficiency(rng):
    model = ModelFunction(5, lambda X: X[:, 0] * X[:, 1] - np.sin(X[:, 2]) + X[:, 3] ** 2 * X[:, 4])
    background = rng.uniform(-2, 2, (7, 5))
    for _ in range(10):
        x = rng.uniform(-2, 2, 5)
        row = explain_row(model, x, background)
        total = row.predictions[0] - row.baseline
        assert abs(row.values.sum() - total) <= 1e-9 * max(1.0, abs(total))


def test_exact_symmetry(rng):
    model = ModelFunction(3, lambda X: (X[:, 0] + X[:, 1]) ** 2 + X[:, 2])
    background = rng.uniform(-1, 1, (6, 3))
    background[:, 1] = background[:, 0]
    row = explain_row(model, [0.7, 0.7, -0.3], background)
    assert abs(row.values[0, 0] - row.values[0, 1]) <= 1e-12


def test_exact_null_player(rng):
    model = ModelFunction(3, lambda X: X[:, 0] * np.exp(X[:, 1]))
    row = explain_row(model, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (5, 3)))
    assert row.values[0, 2] == 0.0


def test_exact_linearity(rng):
    f = ModelFunction(3, lambda X: X[:, 0] * X[:, 1])
    g = ModelFunction(3, lambda X: np.cos(X[:, 2]))
    a, b = 2.5, -1.25
    mixed = ModelFunction(3, lambda X: a * f(X) + b * g(X))
    background = rng.uniform(-1, 1, (6, 3))
    x = rng.uniform(-1, 1, 3)
    expected = a * explain_row(f, x, background).values + b * explain_row(g, x, background).values
    got = explain_row(mixed, x, background).values
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_exact_deterministic(rng):
    model = ModelFunction(4, lambda X: X[:, 0] * X[:, 1] + X[:, 2] / (2 + X[:, 3]))
    background = rng.uniform(-1, 1, (8, 4))
    x = rng.uniform(-1, 1, 4)
    first = explain_row(model, x, background)
    second = explain_row(model, x, background)
    assert np.array_equal(first.values, second.values)


def test_exact_enumeration_limit(monkeypatch):
    model = constant_model(17, 1.0)
    with pytest.raises(EnumerationLimitError):
        explain_row(model, np.zeros(17), np.zeros((2, 17)))
    # read at call time, by both exact entry points
    monkeypatch.setattr(shapley, "ENUM_LIMIT", 4)
    with pytest.raises(EnumerationLimitError):
        explain_row(constant_model(5, 1.0), np.zeros(5), np.zeros((2, 5)))
    with pytest.raises(EnumerationLimitError):
        explain_product(constant_model(5, 1.0), constant_model(5, 2.0), np.zeros((1, 5)), np.zeros((2, 5)))
    assert explain_row(constant_model(4, 1.0), np.zeros(4), np.zeros((2, 4))).n_features == 4


def test_exact_dimension_errors():
    model = constant_model(3, 1.0)
    with pytest.raises(DimensionError):
        explain_row(model, np.zeros(2), np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        explain_row(model, np.zeros(3), np.zeros((2, 2)))


def test_oracle_rejects_zero_rows():
    model = additive_model([1.0, 2.0])
    bg = np.zeros((4, 2))
    with pytest.raises(DimensionError):
        explain_matrix(model, np.zeros((0, 2)), bg)
    with pytest.raises(DimensionError):
        explain_product(model, model, np.zeros((0, 2)), bg)


def test_a_stack_of_explanations_fails_with_the_first_explanation_s_error():
    # the grid checks each cell's f, g and h arrays in one call; every poisoned subset of the
    # 3 explanations x (values, baseline, predictions) must give the message that constructing
    # the explanations one after another raises first
    for poisoned in range(1, 1 << 9):
        values, baselines, predictions = np.zeros((3, 2, 2)), np.zeros(3), np.zeros((3, 2))
        fields = (values[:, 1, :1], baselines[:, None], predictions[:, 1:])  # views of one entry each
        for bit in range(9):
            if poisoned >> bit & 1:
                fields[bit % 3][bit // 3] = np.nan
        with pytest.raises(InvalidInputError) as first:
            for arrays in zip(values, baselines, predictions):
                ShapExplanation(*arrays)
        with pytest.raises(InvalidInputError) as stacked:
            shapley._check_finite(values, baselines, predictions)
        assert str(stacked.value) == str(first.value)


def test_explain_product_rejects_part_arity_mismatch():
    with pytest.raises(DimensionError):
        explain_product(constant_model(2, 1.0), constant_model(3, 1.0), np.zeros((1, 2)), np.zeros((2, 2)))


def test_weights_no_overflow_at_limit():
    # sum over subset sizes of C(p-1, s) * w(s) must be 1 for any p
    for p in (1, 5, 12, 16):
        w = _shapley_weights(p)
        total = sum(math.comb(p - 1, s) * w[s] for s in range(p))
        assert total == pytest.approx(1.0, rel=1e-12)
        assert np.isfinite(w).all()


def test_explain_matrix_matches_single_rows(rng):
    model = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] + X[:, 2])
    background = rng.uniform(-1, 1, (5, 3))
    X = rng.uniform(-1, 1, (4, 3))
    batch = explain_matrix(model, X, background)
    for i in range(4):
        row = explain_row(model, X[i], background)
        np.testing.assert_array_equal(batch.values[i], row.values[0])
        assert batch.baseline == row.baseline


def _chained_model(p):
    def fn(X):
        # only elementwise products and sums, so the bits do not depend on a BLAS or SIMD path
        out = X[:, 0].copy()
        for j in range(1, p):
            out = out * (1.0 + 0.25 * X[:, j]) + X[:, j]
        return out

    return ModelFunction(p, fn)


def test_exact_oracle_bits_are_frozen_for_p_up_to_10(monkeypatch):
    # the instances as their own background (the mirrored pass), a separate
    # background, and the instances again in chunks of 5 rows (the general pass)
    digest = hashlib.sha256()
    for p in range(1, 11):
        rng = np.random.default_rng(p)
        model = _chained_model(p)
        X = rng.uniform(-1, 1, (12, p))
        background = rng.uniform(-1, 1, (9, p))
        explanations = [explain_matrix(model, X, X), explain_matrix(model, X, background)]
        with monkeypatch.context() as patch:
            patch.setattr(shapley, "SPLICE_BUDGET_BYTES", 5 * 12 * p * 8)
            explanations.append(explain_matrix(model, X, X))
        for expl in explanations:
            digest.update(expl.values.tobytes())
            digest.update(np.float64(expl.baseline).tobytes())
    assert digest.hexdigest() == "3eeb6b254c7f00cbd2017937ad9ac83b447303f995c3baafbdc4835f0c6a648b"


# ---------------------------------------------------------------- sampling


def sample_row(model, instance, background, n_permutations, seed):
    """The sampler on a single instance: a one-row sampling_explain_matrix call."""
    return sampling_explain_matrix(model, np.reshape(instance, (1, -1)), background, n_permutations, seed)


def test_sampling_constant_model_exactly_zero():
    model = constant_model(3, 4.0)
    for seed in (0, 1, 99):
        row = sample_row(model, np.ones(3), np.zeros((2, 3)), 10, seed)
        assert np.all(row.values == 0.0)


def test_sampling_additive_equals_closed_form(rng):
    coefs = [1.0, -2.0, 0.5, 3.0]
    model = additive_model(coefs, intercept=1.0)
    background = rng.uniform(-1, 1, (6, 4))
    instance = rng.uniform(-1, 1, 4)
    row = sample_row(model, instance, background, n_permutations=5, seed=3)
    np.testing.assert_allclose(
        row.values[0], additive_closed_form(coefs, instance, background), rtol=1e-12, atol=1e-12
    )


def test_sampling_product_within_three_stderr(rng):
    model = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] * X[:, 2])
    background = rng.uniform(0.5, 2.0, (10, 3))
    instance = rng.uniform(0.5, 2.0, 3)
    exact = explain_row(model, instance, background).values[0]
    sampled = sample_row(model, instance, background, n_permutations=2000, seed=11)
    gap = np.abs(sampled.values[0] - exact)
    assert np.all(gap <= 3.0 * sampled.stderr[0] + 1e-12)


def test_sampling_monte_carlo_within_three_stderr(rng):
    # p=7 keeps p! above the permutation budget, so this is the random path
    model = ModelFunction(7, lambda X: np.prod(X[:, :3], axis=1) + X[:, 3:].sum(axis=1))
    background = rng.uniform(0.5, 2.0, (8, 7))
    instance = rng.uniform(0.5, 2.0, 7)
    exact = explain_row(model, instance, background).values[0]
    sampled = sample_row(model, instance, background, n_permutations=2000, seed=11)
    assert not sampled.exhaustive
    assert sampled.n_permutations == 2000
    gap = np.abs(sampled.values[0] - exact)
    assert np.all(gap <= 3.0 * sampled.stderr[0] + 1e-12)


def test_sampling_exhaustive_equals_exact(rng):
    model = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] + np.abs(X[:, 2]))
    background = rng.uniform(-1, 1, (4, 3))
    instance = rng.uniform(-1, 1, 3)
    exact = explain_row(model, instance, background).values[0]
    # p! * m = 24 permutations requested; the 6 distinct ones are enumerated once each
    sampled = sample_row(model, instance, background, n_permutations=24, seed=0)
    assert sampled.exhaustive
    assert sampled.n_permutations == 6
    scale = np.maximum(1.0, np.abs(exact))
    assert np.all(np.abs(sampled.values[0] - exact) <= 1e-9 * scale)


def test_sampling_reproducible_under_seed(rng):
    # 50 < 5!, so permutations really are drawn from the seeded generator
    model = ModelFunction(5, lambda X: X[:, 0] * X[:, 1] - X[:, 2] * X[:, 3] * X[:, 4])
    background = rng.uniform(-1, 1, (5, 5))
    instance = rng.uniform(-1, 1, 5)
    one = sample_row(model, instance, background, 50, seed=7)
    two = sample_row(model, instance, background, 50, seed=7)
    other = sample_row(model, instance, background, 50, seed=8)
    assert np.array_equal(one.values, two.values)
    assert not np.array_equal(one.values, other.values)


def test_sampling_validates_inputs():
    model = constant_model(2, 1.0)
    with pytest.raises(InvalidInputError):
        sample_row(model, np.zeros(2), np.zeros((2, 2)), 0, seed=0)
    with pytest.raises(DimensionError):
        sample_row(model, np.zeros(3), np.zeros((2, 2)), 5, seed=0)


@pytest.mark.parametrize("bad", [-1, 1.5, "3", None, True])
@pytest.mark.parametrize("name", ["seed", "n_permutations"])
def test_sampling_rejects_a_bad_seed_or_count_before_any_evaluation(name, bad):
    rows_seen = []
    model = ModelFunction(2, lambda X: rows_seen.append(len(X)) or X[:, 0])
    kwargs = {"n_permutations": 5, "seed": 0, name: bad}
    with pytest.raises(InvalidInputError, match=name):
        sampling_explain_matrix(model, np.ones((1, 2)), np.zeros((2, 2)), **kwargs)
    assert rows_seen == []


def test_sampling_takes_numpy_integers(rng):
    model = ModelFunction(4, lambda X: X[:, 0] * X[:, 1] - X[:, 2] * X[:, 3])
    X, background = rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (3, 4))
    want = sampling_explain_matrix(model, X, background, 5, seed=3)
    got = sampling_explain_matrix(model, X, background, np.int64(5), seed=np.uint32(3))
    assert got.values.tobytes() == want.values.tobytes()


def test_sampling_matrix_local_accuracy(rng):
    model = ModelFunction(5, lambda X: X[:, 0] * X[:, 1] + X[:, 2] ** 2 - X[:, 3] * X[:, 4])
    background = rng.uniform(-1, 1, (8, 5))
    X = rng.uniform(-1, 1, (10, 5))
    expl = sampling_explain_matrix(model, X, background, n_permutations=30, seed=5)
    assert validate_local_accuracy(expl, 1e-9).passed


def test_sampling_matrix_rows_equal_one_row_calls(rng):
    # the batch shares its permutation draws, so each row (values and stderr)
    # is the one-row estimate under the same seed
    model = ModelFunction(5, lambda X: X[:, 0] * X[:, 1] + X[:, 2] ** 2 - X[:, 3] * X[:, 4])
    background = rng.uniform(-1, 1, (8, 5))
    X = rng.uniform(-1, 1, (6, 5))
    batch = sampling_explain_matrix(model, X, background, n_permutations=30, seed=5)
    assert isinstance(batch, ShapExplanation)
    assert batch.stderr.shape == batch.values.shape == (6, 5)
    assert (batch.n_permutations, batch.exhaustive) == (30, False)
    for i in range(6):
        row = sample_row(model, X[i], background, 30, seed=5)
        np.testing.assert_array_equal(batch.values[i], row.values[0])
        np.testing.assert_array_equal(batch.stderr[i], row.stderr[0])


def test_sampling_single_permutation_has_nan_stderr():
    model = additive_model([1.0, 2.0])
    row = sample_row(model, np.ones(2), np.zeros((3, 2)), 1, seed=0)
    assert row.n_permutations == 1
    assert np.isnan(row.stderr).all()


def loop_sampler(model, X, background, n_permutations, seed):
    """The sampler as one splice loop per ordering, kept as the reference for the shared walk.

    Every prefix of every ordering is spliced and evaluated, repeated
    coalitions too; returns (values, baseline, stderr).
    """
    n, p = X.shape
    m = background.shape[0]
    exhaustive = p <= 20 and n_permutations >= math.factorial(p)
    if exhaustive:
        drawn = None
        count = math.factorial(p)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        drawn = [rng.permutation(p) for _ in range(n_permutations)]
        count = n_permutations
    v_empty = model(background).mean()
    total = np.zeros((n, p))
    total_sq = np.zeros((n, p))
    step = shapley._splice_chunk(m, p)
    buffer = np.empty((min(step, n), m, p))
    for lo in range(0, n, step):
        rows = X[lo : lo + step]
        c = rows.shape[0]
        spliced = buffer[:c]
        flat = spliced.reshape(c * m, p)
        contrib = np.empty((c, p))
        chunk_total = total[lo : lo + c]
        chunk_total_sq = total_sq[lo : lo + c]
        for perm in itertools.permutations(range(p)) if exhaustive else drawn:
            spliced[...] = background
            v_prev = np.full(c, v_empty)
            for j in perm:
                spliced[:, :, j] = rows[:, None, j]
                v = model(flat).reshape(c, m).mean(axis=1)
                contrib[:, j] = v - v_prev
                v_prev = v
            chunk_total += contrib
            chunk_total_sq += contrib * contrib
    phi = total / count
    if count > 1:
        var = np.maximum(total_sq - count * phi * phi, 0.0) / (count - 1)
        stderr = np.sqrt(var / count)
    else:
        stderr = np.full((n, p), np.nan)
    return phi, v_empty, stderr


def _assert_same_sampler_bytes(got, want):
    values, base, stderr = want
    assert got.values.tobytes() == values.tobytes()
    assert got.stderr.tobytes() == stderr.tobytes()
    assert np.float64(got.baseline).tobytes() == np.float64(base).tobytes()


@pytest.mark.parametrize("p", range(1, 9))
def test_sampler_walk_equals_the_loop_reference(rng, monkeypatch, p):
    coefs = rng.uniform(-1, 1, p)
    model = ModelFunction(p, lambda X: np.exp(X @ coefs) * X[:, 0] - np.sin(X[:, -1]) ** 3)
    X = rng.uniform(-2, 2, (3, p))
    background = rng.uniform(-2, 2, (4, p))
    everything = math.factorial(p)
    # P = 1, a random P below p! (where there is one), and P = p!
    for n_permutations in sorted({1, min(9, everything), everything}):
        want = loop_sampler(model, X, background, n_permutations, seed=3)
        _assert_same_sampler_bytes(sampling_explain_matrix(model, X, background, n_permutations, 3), want)
    # any P > p! enumerates the same p! orderings as P = p!
    _assert_same_sampler_bytes(sampling_explain_matrix(model, X, background, everything + 5, 3), want)

    # instances that are their own background, then one-row chunks
    n_permutations = min(everything, 24)
    want = loop_sampler(model, X, X, n_permutations, seed=4)
    _assert_same_sampler_bytes(sampling_explain_matrix(model, X, X, n_permutations, 4), want)
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", 8)
    for bg in (background, X):
        want = loop_sampler(model, X, bg, n_permutations, seed=5)
        _assert_same_sampler_bytes(sampling_explain_matrix(model, X, bg, n_permutations, 5), want)


def test_sampler_masks_past_bit_62_equal_the_loop_reference(rng):
    # a coalition of 70 features is no int64 bit mask; the walk still keeps each one apart
    model = ModelFunction(70, lambda X: np.sin(X).sum(axis=1) * X[:, 0])
    X = rng.uniform(-2, 2, (2, 70))
    background = rng.uniform(-2, 2, (3, 70))
    want = loop_sampler(model, X, background, 3, seed=6)
    _assert_same_sampler_bytes(sampling_explain_matrix(model, X, background, 3, 6), want)


def test_exhaustive_sampler_splices_each_coalition_once_per_chunk(monkeypatch):
    # p = 3: the 6 orderings have 18 prefixes but 7 distinct nonempty coalitions
    rows_seen = []
    model = ModelFunction(3, lambda X: rows_seen.append(len(X)) or X[:, 0] * X[:, 1] + X[:, 2])
    X = np.arange(15.0).reshape(5, 3)
    background = np.ones((4, 3))
    expl = sampling_explain_matrix(model, X, background, n_permutations=6, seed=0)
    assert expl.exhaustive
    # the background's outputs, 7 blocks of 5 x 4 rows, then the predictions
    assert rows_seen == [4] + [20] * 7 + [5]
    rows_seen.clear()
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", 8)
    sampling_explain_matrix(model, X, background, n_permutations=6, seed=0)
    assert rows_seen == [4] + [4] * (7 * 5) + [5]


def _column_splices(masks):
    """Columns the walk re-splices: the bits each mask flips from the one before, from the empty set."""
    return sum(int(mask ^ prev).bit_count() for prev, mask in zip([0] + list(masks), masks))


@pytest.mark.parametrize("p, n_permutations", [(12, 64), (12, 100), (12, 400), (8, 64), (6, 720)])
def test_sampler_walks_fewer_column_splices_than_ascending_order(rng, monkeypatch, p, n_permutations):
    # the distinct prefix masks, walked in Gray-code rank rather than ascending, share more
    # bits with their neighbour (at seed 7, p = 12 and 100 orderings: 1,377 splices, not 1,794)
    walked = []
    walk = shapley._splice_walk

    def recording(evaluate, rows, background, masks, k, mirror=False):
        walked.append(list(masks))
        return walk(evaluate, rows, background, masks, k, mirror)

    monkeypatch.setattr(shapley, "_splice_walk", recording)
    model = ModelFunction(p, lambda X: np.sin(X).sum(axis=1))
    sampling_explain_matrix(model, rng.uniform(-1, 1, (2, p)), rng.uniform(-1, 1, (3, p)), n_permutations, 7)
    (masks,) = walked
    assert _column_splices(masks) < _column_splices(sorted(masks))


@pytest.mark.parametrize("p, n_permutations", [(10, 300), (7, 2000)])
def test_sampler_chunk_counts_its_walked_values(rng, monkeypatch, p, n_permutations):
    # p = 10 and 300 orderings walk about a thousand coalitions, so a row's
    # walked values outweigh its (5, 10) splice block twentyfold; p = 7 (the
    # least p whose p! exceeds 2,000, so the orderings are drawn) walks at
    # most 127 coalitions, but each row holds 14,000 contributions.  The 30 rows
    # make 10 chunks at p = 10 and 30 at p = 7; a budget that counted walked
    # values alone would hold all 30 in one chunk, whose contributions pass the bound
    budget = 256 << 10
    model = ModelFunction(p, lambda X: X[:, 0] * X[:, 1] + np.sin(X[:, 2:]).sum(axis=1))
    X = rng.uniform(-1, 1, (30, p))
    background = rng.uniform(-1, 1, (5, p))
    wide = rng.uniform(-1, 1, (1000, p))

    def call():
        return sampling_explain_matrix(model, X, background, n_permutations=n_permutations, seed=2)

    def exact():
        return explain_matrix(model, wide, background)

    whole, whole_exact = call(), exact()
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", budget)
    chunked, peak = _peak_bytes(call)
    assert peak < budget + (1 << 20)
    assert chunked.values.tobytes() == whole.values.tobytes()
    assert chunked.stderr.tobytes() == whole.stderr.tobytes()
    # the exact pass walks all 2**p - 1 coalitions: its chunks count those values
    # too, so only the (2**p, n) value stack (8.2 MB at p = 10) stands beside the budget
    chunked, peak = _peak_bytes(exact)
    assert peak < 1.5 * (1 << p) * len(wide) * 8 + budget + (1 << 20)
    assert chunked.values.tobytes() == whole_exact.values.tobytes()


# ---------------------------------------------------------------- splice budget


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_splice_budget_bounds_peak_memory_and_keeps_values(rng, monkeypatch):
    # n * m * p * 8 = 9.6 MB unchunked; a 256 kB budget takes 106 rows a block,
    # so the last of 38 blocks is a short one
    budget = 256 << 10
    slack = 2 << 20
    f = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] + X[:, 2] ** 2)
    g = additive_model([1.0, -2.0, 0.5], intercept=3.0)
    X = rng.uniform(-1, 1, (4000, 3))
    background = rng.uniform(-1, 1, (100, 3))
    calls = {
        "oracle": lambda: (explain_matrix(f, X, background),),
        "fused": lambda: explain_product(f, g, X, background),
        "sampler": lambda: (sampling_explain_matrix(f, X, background, n_permutations=4, seed=9),),
    }
    whole = {name: call() for name, call in calls.items()}
    assert X.nbytes * background.shape[0] > slack + budget
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", budget)
    for name, call in calls.items():
        chunked, peak = _peak_bytes(call)
        assert peak < budget + slack, name
        for got, want in zip(chunked, whole[name]):
            assert np.array_equal(got.values, want.values), name
            assert got.baseline == want.baseline, name
            assert np.array_equal(got.predictions, want.predictions), name


# ---------------------------------------------------------------- mirrored pass


def _count_rows(monkeypatch, call):
    rows_seen = []
    evaluate = ModelFunction.__call__

    def counting(self, X):
        rows_seen.append(len(X))
        return evaluate(self, X)

    with monkeypatch.context() as patched:
        patched.setattr(ModelFunction, "__call__", counting)
        result = call()
    return result, sum(rows_seen)


def _general_path(monkeypatch, call):
    # an 8-byte budget cuts the instances into one-row chunks, which the
    # mirrored pass never takes
    with monkeypatch.context() as patched:
        patched.setattr(shapley, "SPLICE_BUDGET_BYTES", 8)
        return call()


def _assert_bit_equal(got, want):
    for a, b in zip(got, want):
        assert np.array_equal(a.values, b.values)
        assert a.baseline == b.baseline
        assert np.array_equal(a.predictions, b.predictions)


def test_mirrored_pass_equals_general_path_on_every_scenario_pair(monkeypatch):
    for y1 in Y1_IDS:
        for y2 in Y2_IDS + ("CONST1",):
            spec = ScenarioSpec(y1, y2, 1.5, 1.0, n=100, background_size=100, seed=11)
            rows, _ = sample_scenario_rows(spec)
            f, g = scenario_model(y1, 3), scenario_model(y2, 3)

            def call():
                return explain_product(f, g, rows, rows[: spec.background_size])

            # f and g each see 3 spliced (100, 100) blocks instead of 7 and
            # the instances, whose outputs also serve as the background's
            mirrored, rows_seen = _count_rows(monkeypatch, call)
            assert rows_seen == 2 * (3 * 10_000 + 100), (y1, y2)
            _assert_bit_equal(mirrored, _general_path(monkeypatch, call))


@pytest.mark.parametrize("p", [1, 2, 5])
def test_mirrored_pass_equals_general_path_for_explain_matrix(rng, monkeypatch, p):
    coefs = rng.uniform(-1, 1, p)
    model = ModelFunction(p, lambda X: np.exp(X @ coefs) * X[:, 0] - X[:, -1] ** 3)
    X = rng.uniform(-2, 2, (40, p))
    n = X.shape[0]

    mirrored, rows_seen = _count_rows(monkeypatch, lambda: explain_matrix(model, X, X))
    assert rows_seen == ((1 << (p - 1)) - 1) * n * n + n
    _assert_bit_equal([mirrored], [_general_path(monkeypatch, lambda: explain_matrix(model, X, X))])


def test_negative_zero_against_zero_background_takes_general_path(monkeypatch):
    # equal as numbers, different as bits: a sign-reading model tells them apart
    model = ModelFunction(2, lambda X: np.copysign(1.0, X[:, 0]) + X[:, 1])
    X = np.array([[-0.0, 1.0], [2.0, -1.0], [-0.0, 3.0]])
    background = X.copy()
    background[X[:, 0] == 0, 0] = 0.0
    assert np.array_equal(X, background) and X.tobytes() != background.tobytes()

    expl, rows_seen = _count_rows(monkeypatch, lambda: explain_matrix(model, X, background))
    assert rows_seen == 3 + 3 * 9 + 3
    _assert_bit_equal([expl], [_general_path(monkeypatch, lambda: explain_matrix(model, X, background))])
    assert validate_local_accuracy(expl, 1e-12).passed


def mean_coalition_values(evaluate, X, background, predictions):
    """The coalition pass as written with np.mean, kept as the reference for np.add.reduce."""
    n, p = X.shape
    m = background.shape[0]
    step = shapley._splice_chunk(m, p)
    full = (1 << p) - 1
    mirrored = X.shape == background.shape and n <= step and X.tobytes() == background.tobytes()
    base = predictions if mirrored else evaluate(background)
    values = np.empty((len(base), 1 << p, n))
    values[:, 0] = np.array([out.mean() for out in base])[:, None]
    if mirrored:
        for k, out in enumerate(predictions):
            values[k, full] = np.repeat(out, m).reshape(n, m).mean(axis=1)
    buffer = np.empty((min(step, n), m, p))
    for lo in range(0, n, step):
        rows = X[lo : lo + step]
        c = rows.shape[0]
        spliced = buffer[:c]
        spliced[...] = background
        flat = spliced.reshape(c * m, p)
        mask = 0
        for t in range(1, 1 << (p - mirrored)):
            flip = (t & -t).bit_length() - 1
            mask ^= 1 << flip
            if mask & (1 << flip):
                spliced[:, :, flip] = rows[:, None, flip]
            else:
                spliced[:, :, flip] = background[None, :, flip]
            for k, out in enumerate(evaluate(flat)):
                block = out.reshape(c, m)
                values[k, mask, lo : lo + c] = block.mean(axis=1)
                if mirrored:
                    values[k, full ^ mask] = np.ascontiguousarray(block.T).mean(axis=1)
    return values


def _product_evaluate(rows):
    f = np.exp(0.3 * rows[:, 0]) * rows[:, 1] - rows[:, 2] ** 3
    g = rows[:, 0] * rows[:, 2] + 1.0 / (2.0 + np.sin(rows[:, 1]))
    return f, g, f * g


def _product_columns(x1, x2, x3):
    """``_product_evaluate`` on column views that broadcast against each other."""
    f = np.exp(0.3 * x1) * x2 - x3**3
    g = x1 * x3 + 1.0 / (2.0 + np.sin(x2))
    return f, g, f * g


@pytest.mark.parametrize("m", [1, 7, 8, 9, 129, 300])
@pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "general"])
def test_coalition_values_equal_the_np_mean_reference(rng, m, mirrored):
    # sums past 8 and past 128 terms take numpy's unrolled and pairwise
    # branches; both paths must add in np.mean's order
    background = rng.uniform(-2, 2, (m, 3))
    X = background.copy() if mirrored else rng.uniform(-2, 2, (11, 3))
    predictions = _product_evaluate(X)
    got = shapley._coalition_values(shapley._block_columns(_product_evaluate, m), X, background, predictions)
    want = mean_coalition_values(_product_evaluate, X, background, predictions)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 129, 300])
@pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "general"])
def test_formulas_on_column_views_equal_the_np_mean_reference(rng, m, mirrored):
    # the walk runs _product_evaluate's column form on its (c, 1) and (1, m) views,
    # as the simulation oracle runs the catalog, and must give the block's bits
    background = rng.uniform(-2, 2, (m, 3))
    X = background.copy() if mirrored else rng.uniform(-2, 2, (11, 3))
    predictions = _product_evaluate(X)
    got = shapley._coalition_values(_product_columns, X, background, predictions)
    want = mean_coalition_values(_product_evaluate, X, background, predictions)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", ["gray", "sampled"])
def test_the_block_adapter_splices_only_the_columns_each_mask_flips(rng, order):
    # the model poisons its whole input after each call, so the columns that are
    # not NaN at the next call are the ones the adapter wrote in between; one
    # that re-materialised all p columns per coalition would write p each time
    c, m, p = 4, 5, 6
    t = np.arange(1, 1 << p)
    masks = t ^ (t >> 1) if order == "gray" else np.sort(rng.choice(t, 20, replace=False))
    written = []

    def evaluate(flat):
        written.append(int((~np.isnan(flat).all(axis=0)).sum()))
        flat[...] = np.nan
        return (flat[:, 0],)

    rows, background = rng.uniform(-1, 1, (c, p)), rng.uniform(-1, 1, (m, p))
    shapley._splice_walk(shapley._block_columns(evaluate, m), rows, background, masks, 1)
    # the first call fills the new block; each later one splices the bits its mask flips
    assert written == [p] + [int(a ^ b).bit_count() for a, b in zip(masks, masks[1:])]
    assert sum(written) == _column_splices(masks) + p - int(masks[0]).bit_count()


def test_a_walk_step_with_every_bit_inside_gets_the_whole_block(rng):
    # at p = 2 an ordering that starts with feature 1 has prefix masks 2 and 3, and the
    # sampler walks them in Gray-code rank, the full mask 3 first: all p views are then
    # (c, 1) instance columns, and the block is still c * m rows, not the c they broadcast to
    c, m, p = 4, 5, 2
    seen = []

    def evaluate(flat):
        seen.append(len(flat))
        return (flat[:, 0] - flat[:, 1],)

    rows, background = rng.uniform(-1, 1, (c, p)), rng.uniform(-1, 1, (m, p))
    walked = shapley._splice_walk(shapley._block_columns(evaluate, m), rows, background, [3, 2], 1)
    assert seen == [c * m, c * m]
    assert np.array_equal(walked[0, 0, 0], rows[:, 0] - rows[:, 1])
    assert np.array_equal(walked[0, 0, 1], np.add.reduce(background[None, :, 0] - rows[:, None, 1], axis=1) / m)


@pytest.mark.parametrize("call", ["explain_matrix", "sampler"])
def test_one_block_serves_every_chunk_of_a_call(rng, monkeypatch, call):
    # a 4-row chunk budget cuts 10 instances into chunks of 4, 4 and 2: the walk steps
    # of the two full chunks share one block, and only the short last chunk gets another
    m, p = 3, 3
    blocks = []

    def fn(Z):
        if len(Z) in (4 * m, 2 * m) and not any(Z is block for block in blocks):
            blocks.append(Z)
        return Z[:, 0] * Z[:, 1] - Z[:, 2]

    model = ModelFunction(p, fn)
    X, background = rng.uniform(-1, 1, (10, p)), rng.uniform(-1, 1, (m, p))
    stacked = {"explain_matrix": 7, "sampler": 7 + 6 * (3 * p + 1)}[call]
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", 4 * (m * p + stacked) * 8)
    if call == "explain_matrix":
        explain_matrix(model, X, background)
    else:
        sampling_explain_matrix(model, X, background, n_permutations=6, seed=0)
    assert [len(block) for block in blocks] == [4 * m, 2 * m]


LAYOUT_CALLS = {
    "explain_matrix": lambda f, g, X, bg: (explain_matrix(product_model(f, g), X, bg),),
    "explain_product": lambda f, g, X, bg: explain_product(f, g, X, bg),
    "sampler": lambda f, g, X, bg: (sampling_explain_matrix(product_model(f, g), X, bg, 20, 5),),
}


@pytest.mark.parametrize("call", LAYOUT_CALLS)
@pytest.mark.parametrize("n", [37, 50, 101])
@pytest.mark.parametrize("p", [3, 7, 12])
def test_input_layout_changes_no_bit(rng, p, n, call):
    # a matrix model sees only rows the oracle copied into its own C-ordered arrays, so the
    # BLAS sums of bench_models give the same bits whatever the layout of X or the background
    f, g = bench_models(p)
    X, background = rng.uniform(-1, 1, (n, p)), rng.uniform(-1, 1, (19, p))
    want = LAYOUT_CALLS[call](f, g, X, background)
    # the copy of a C-ordered X gives the bits of the model on X itself; h is the last explanation
    assert want[-1].predictions.tobytes() == product_model(f, g)(X).tobytes()
    for fortran_x, fortran_bg in [(True, False), (False, True), (True, True)]:
        layout = (np.asfortranarray(X) if fortran_x else X, np.asfortranarray(background) if fortran_bg else background)
        for got, expl in zip(LAYOUT_CALLS[call](f, g, *layout), want, strict=True):
            assert got.values.tobytes() == expl.values.tobytes(), (fortran_x, fortran_bg)
            assert got.baseline == expl.baseline
            assert got.predictions.tobytes() == expl.predictions.tobytes()


# ---------------------------------------------------------------- splice block


def _large_traces(size):
    return [trace for trace in tracemalloc.take_snapshot().traces if trace.size >= size]


def test_no_splice_block_outlives_the_call(rng):
    # a shape no other test walks, so no block of it can predate the trace
    model = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] - X[:, 2])
    X = rng.uniform(-1, 1, (37, 3))
    background = rng.uniform(-1, 1, (101, 3))
    tracemalloc.start()
    try:
        explain_matrix(model, X, background)
        held = _large_traces(37 * 101 * 3 * 8)
    finally:
        tracemalloc.stop()
    assert held == []


def test_concurrent_walks_of_one_shape_each_get_their_own_block(rng):
    model = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] - X[:, 2])
    background = rng.uniform(-1, 1, (20, 3))
    inputs = [rng.uniform(-1, 1, (10, 3)) for _ in range(8)]
    want = [explain_matrix(model, X, background).values for X in inputs]
    wrong = []

    def work(i):
        for _ in range(30):
            if not np.array_equal(explain_matrix(model, inputs[i], background).values, want[i]):
                wrong.append(i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so walks interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_a_model_that_explains_inside_the_walk_gets_the_plain_values(rng, monkeypatch):
    # at this budget every inner chunk has the outer block's (4, 4, 3) shape,
    # so walks that shared one block per shape would let the inner walk
    # overwrite the outer coalition
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", 4 * 4 * 3 * 8)
    background = rng.uniform(-1, 1, (4, 3))
    X = rng.uniform(-1, 1, (4, 3))
    inner = ModelFunction(3, lambda Z: Z[:, 0] * Z[:, 1] - Z[:, 2] ** 2)

    def evaluate(rows):
        return (explain_matrix(inner, rows, background).values @ np.array([1.0, -2.0, 3.0]),)

    predictions = evaluate(X)
    want = mean_coalition_values(evaluate, X, background, predictions)
    got = shapley._coalition_values(shapley._block_columns(evaluate, len(background)), X, background, predictions)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [1, 3, 6, 12, 16])
def test_attributions_equal_the_per_feature_index_reference(rng, p):
    values = rng.uniform(-1, 1, (1 << p, 4))
    weights_by_size = _shapley_weights(p)
    masks = np.arange(1 << p)
    want = np.empty((4, p))
    for j in range(p):
        without = masks[(masks & (1 << j)) == 0]
        w = weights_by_size[np.bitwise_count(without)]
        want[:, j] = w @ (values[without | (1 << j)] - values[without])
    assert np.array_equal(shapley._attributions_from_values(values[None], p)[0], want)


def test_the_reduction_holds_one_half_cube_and_keeps_nothing(rng):
    values = rng.uniform(-1, 1, (1 << 16, 200))
    _, peak = _peak_bytes(lambda: shapley._attributions_from_values(values[None], 16))
    del values
    assert peak < (1 << 15) * 200 * 8 + (1 << 20)
    # no per-p state outlives a call, whichever sizes came before
    small = [rng.uniform(-1, 1, (1 << p, 50)) for p in range(1, 13)]
    tracemalloc.start()
    try:
        for p, values in enumerate(small, start=1):
            shapley._attributions_from_values(values[None], p)
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert resident < 16 << 10


# ---------------------------------------------------------------- validator


def test_validator_passes_exact_output(rng):
    model = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] * X[:, 2])
    expl = explain_matrix(model, rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, (5, 3)))
    assert validate_local_accuracy(expl, 1e-9).passed


def test_validator_flags_perturbed_row(rng):
    model = additive_model([1.0, 1.0])
    expl = explain_matrix(model, rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (4, 2)))
    values = expl.values.copy()
    values[2, 0] += 1e-3
    broken = type(expl)(values, expl.baseline, expl.predictions)
    report = validate_local_accuracy(broken, 1e-6)
    assert not report.passed
    assert not report.row_ok[2] and report.row_ok[[0, 1, 3, 4]].all()
    assert report.max_residual == pytest.approx(1e-3, rel=1e-6)
