import math
import tracemalloc

import numpy as np
import pytest

from mshap import (
    DimensionError,
    EnumerationLimitError,
    InvalidInputError,
    ModelFunction,
    ScenarioSpec,
    ShapExplanation,
    additive_model,
    baseline,
    explain_matrix,
    sampling_explain_matrix,
    validate_local_accuracy,
)
from mshap import shapley
from mshap.shapley import _shapley_weights, constant_model, explain_product
from mshap.simulation import Y1_IDS, Y2_IDS, sample_scenario_rows, scenario_model


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


def test_explanation_values_must_be_a_matrix():
    with pytest.raises(DimensionError):
        ShapExplanation(values=np.zeros((2, 3, 4)), baseline=0.0, predictions=np.zeros(2))


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


def test_exact_enumeration_limit():
    model = constant_model(17, 1.0)
    with pytest.raises(EnumerationLimitError):
        explain_row(model, np.zeros(17), np.zeros((2, 17)))
    # configurable
    with pytest.raises(EnumerationLimitError):
        explain_row(constant_model(5, 1.0), np.zeros(5), np.zeros((2, 5)), enum_limit=4)


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
    assert report.worst_row == 2
    assert not report.row_ok[2] and report.row_ok[[0, 1, 3, 4]].all()
    assert report.max_residual == pytest.approx(1e-3, rel=1e-6)
