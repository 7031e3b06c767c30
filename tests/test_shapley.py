import itertools
import math
import sys
import threading
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


def test_sampler_chunk_counts_its_walked_values(rng, monkeypatch):
    # p = 10 and 300 orderings walk about a thousand coalitions, so a row's
    # walked values outweigh its (5, 10) splice block twentyfold
    budget = 256 << 10
    model = ModelFunction(10, lambda X: X[:, 0] * X[:, 1] + np.sin(X[:, 2:]).sum(axis=1))
    X = rng.uniform(-1, 1, (300, 10))
    background = rng.uniform(-1, 1, (5, 10))

    def call():
        return sampling_explain_matrix(model, X, background, n_permutations=300, seed=2)

    whole = call()
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", budget)
    chunked, peak = _peak_bytes(call)
    assert peak < budget + (1 << 20)
    assert chunked.values.tobytes() == whole.values.tobytes()
    assert chunked.stderr.tobytes() == whole.stderr.tobytes()


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


@pytest.mark.parametrize("m", [1, 7, 8, 9, 129, 300])
@pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "general"])
def test_coalition_values_equal_the_np_mean_reference(rng, m, mirrored):
    # sums past 8 and past 128 terms take numpy's unrolled and pairwise
    # branches; both paths must add in np.mean's order
    background = rng.uniform(-2, 2, (m, 3))
    X = background.copy() if mirrored else rng.uniform(-2, 2, (11, 3))
    predictions = _product_evaluate(X)
    got = shapley._coalition_values(_product_evaluate, X, background, predictions)
    want = mean_coalition_values(_product_evaluate, X, background, predictions)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------- spare splice block


def test_a_second_call_of_the_same_shape_allocates_no_block(rng, monkeypatch):
    monkeypatch.setattr(shapley, "_spare_block", {})
    f = ModelFunction(4, lambda X: X[:, 0] * X[:, 1] + X[:, 3])
    g = additive_model([1.0, -2.0, 0.5, 3.0], intercept=3.0)
    X = rng.uniform(-1, 1, (50, 4))
    background = rng.uniform(-1, 1, (60, 4))
    block_bytes = 50 * 60 * 4 * 8
    first, fresh = _peak_bytes(lambda: explain_product(f, g, X, background))
    second, reused = _peak_bytes(lambda: explain_product(f, g, X, background))
    # the only allocation the first call makes and the second does not is the block
    assert fresh - reused >= block_bytes
    _assert_bit_equal(second, first)
    assert list(shapley._spare_block) == [(50, 60, 4)]


def test_a_call_of_another_shape_leaves_one_spare(rng, monkeypatch):
    monkeypatch.setattr(shapley, "_spare_block", {})
    model = ModelFunction(3, lambda X: X[:, 0] * X[:, 1] - X[:, 2])
    background = rng.uniform(-1, 1, (7, 3))
    for n in (5, 9, 5):
        explain_matrix(model, rng.uniform(-1, 1, (n, 3)), background)
        assert list(shapley._spare_block) == [(n, 7, 3)]


def test_concurrent_walks_of_one_shape_each_get_their_own_block(rng, monkeypatch):
    monkeypatch.setattr(shapley, "_spare_block", {})
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
    # and the inner call on the background leaves a spare of that shape, so a
    # walk that left its block in the slot while in use would hand it to the
    # inner walk, which would overwrite the outer coalition
    monkeypatch.setattr(shapley, "SPLICE_BUDGET_BYTES", 4 * 4 * 3 * 8)
    background = rng.uniform(-1, 1, (4, 3))
    X = rng.uniform(-1, 1, (4, 3))
    inner = ModelFunction(3, lambda Z: Z[:, 0] * Z[:, 1] - Z[:, 2] ** 2)

    def evaluate(rows):
        return (explain_matrix(inner, rows, background).values @ np.array([1.0, -2.0, 3.0]),)

    predictions = evaluate(X)
    want = mean_coalition_values(evaluate, X, background, predictions)
    got = shapley._coalition_values(evaluate, X, background, predictions)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [1, 3, 6])
def test_cached_weight_plan_is_read_only_and_matches_a_rebuild(rng, p):
    values = rng.uniform(-1, 1, (1 << p, 4))
    weights_by_size = _shapley_weights(p)
    masks = np.arange(1 << p)
    want = np.empty((4, p))
    for j in range(p):
        without = masks[(masks & (1 << j)) == 0]
        w = weights_by_size[np.bitwise_count(without)]
        want[:, j] = w @ (values[without | (1 << j)] - values[without])
    assert np.array_equal(shapley._attributions_from_values(values, p), want)
    for entry in shapley._weight_plan(p):
        for array in entry:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


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
