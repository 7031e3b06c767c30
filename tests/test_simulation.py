import dataclasses
import importlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mshap import (
    AlphaMethod,
    CovariateSpec,
    DimensionError,
    EnumerationLimitError,
    InvalidInputError,
    ModelFunction,
    ResampleLimitError,
    ScenarioSpec,
    ShapExplanation,
    bench_scaling,
    default_grid,
    explain_matrix,
    mean_scores_by_method,
    product_model,
    run_grid,
    run_scenario,
)
from mshap import shapley
from mshap.shapley import explain_product
from mshap import simulation
from mshap.simulation import (
    GRID_CHUNK_CELLS,
    Y1_IDS,
    Y2_IDS,
    _explain_three,
    _guard_mask,
    _y_powers,
    grid_table,
    sample_scenario_rows,
    scenario_model,
)

PAPER_BOX = CovariateSpec()
SMALL = dict(n=40, background_size=20)


# ---------------------------------------------------------------- covariates


def draw(n, seed):
    """A scenario's covariate rows; Y1A x Y2A has no denominator guard, so no redraws."""
    spec = ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, n=n, covariates=PAPER_BOX, seed=seed, background_size=1)
    rows, resampled = sample_scenario_rows(spec)
    assert resampled == 0
    return rows


def test_gen_covariates_respects_bounds():
    rows = draw(1000, seed=1)
    assert rows.shape == (1000, 3)
    lows = rows.min(axis=0)
    highs = rows.max(axis=0)
    for j, (lo, hi) in enumerate(PAPER_BOX.bounds):
        assert lo <= lows[j] and highs[j] <= hi


def test_gen_covariates_deterministic():
    a = draw(50, seed=9)
    b = draw(50, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, draw(50, seed=10))


def test_covariate_spec_validation():
    with pytest.raises(InvalidInputError):
        CovariateSpec(((2.0, 1.0),))
    with pytest.raises(InvalidInputError):
        CovariateSpec(())


@pytest.mark.parametrize(
    "bounds",
    [(-1e308, 1e308), (-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)],
    ids=["overflowing-width", "minus-inf", "plus-inf", "nan-lo", "nan-hi"],
)
def test_covariate_spec_rejects_non_finite_bounds_and_width(bounds):
    with pytest.raises(InvalidInputError, match="finite"):
        CovariateSpec(PAPER_BOX.bounds[:2] + (bounds,))


# ---------------------------------------------------------------- responses


def respond(fn_id, row):
    return float(scenario_model(fn_id, 3)(np.array([row], dtype=float))[0])


def test_eval_response_examples():
    assert respond("Y1A", [1.0, 2.0, 3.0]) == 6.0
    assert respond("Y1B", [1.0, 2.0, 3.0]) == 2 + 4 + 9
    assert respond("Y2C", [2.0, 3.0, -1.0]) == -6.0
    assert respond("Y2D", [1.0, 1.0, -1.0]) == 1.0  # x1^2 x2^3 x3^4 by hand
    assert respond("Y2E", [1.0, 1.0, -1.0]) == 2.0  # (1+1)/(1+1-1)
    assert respond("CONST1", [9.0, 9.0, 9.0]) == 1.0


def _x3_pool(rng, distinct):
    """``distinct`` x3 values of mixed sign and magnitude, with +0.0 and -0.0."""
    paper = rng.uniform(-5.0, -1.0, distinct)
    wide = rng.standard_normal(distinct) * 10.0 ** rng.uniform(-60, 60, distinct)
    return np.concatenate([paper, wide, [0.0, -0.0]])[rng.permutation(2 * distinct + 2)[:distinct]]


@settings(max_examples=80)
@given(
    n=st.integers(1, 20_000),
    distinct=st.integers(1, 20_000),
    layout=st.sampled_from(["walk", "block", "strided", "fortran"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, distinct=1, layout="block", seed=0)
@example(n=7, distinct=7, layout="strided", seed=1)
@example(n=20_000, distinct=20_000, layout="block", seed=2)
@example(n=19_999, distinct=3, layout="fortran", seed=3)
def test_y2d_gathered_power_is_bit_identical_to_the_direct_formula(n, distinct, layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "walk":
        # the (c*m, 3) block a splice walk passes: x3 either repeats each of c
        # instance rows m times or tiles the m background rows c times
        m = max(1, min(distinct, 200))
        c = max(1, n // m)
        rows, background = rng.uniform(-10, 10, (c, 3)), rng.uniform(-10, 10, (m, 3))
        rows[:, 2], background[:, 2] = _x3_pool(rng, c), _x3_pool(rng, m)
        block = np.empty((c, m, 3))
        block[...] = background
        for j in np.flatnonzero(rng.integers(0, 2, 3)):  # one coalition's spliced columns
            block[:, :, j] = rows[:, None, j]
        X = block.reshape(c * m, 3)
    else:
        x3 = rng.choice(_x3_pool(rng, min(distinct, n)), n)
        wide = np.column_stack([rng.uniform(-10, 10, n), rng.uniform(0, 20, n), x3, rng.uniform(size=(n, 2))])
        X = {
            "block": np.ascontiguousarray(wide[:, :3]),
            "strided": np.repeat(wide, 2, axis=0)[::2, :3],
            "fortran": np.asfortranarray(wide[:, :3]),
        }[layout]
    want = X[:, 0] ** 2 * X[:, 1] ** 3 * X[:, 2] ** 4
    assert _y_powers(X).tobytes() == want.tobytes()


def test_eval_response_guard_raises():
    rows = np.array([
        [1.0, -1.0, 0.0],  # both denominators exactly 0
        [1e-6, 1.0, 1.0],  # Y2F only: x1-dominated denominator ~ 2e-6
        [1.0, 1.0, -1.0],  # both denominators well clear of the guard
    ])
    y2e = ScenarioSpec("Y1A", "Y2E", 1.5, 1.0)
    y2f = ScenarioSpec("Y1A", "Y2F", 1.5, 1.0)
    np.testing.assert_array_equal(_guard_mask(y2e, rows), [True, False, False])
    np.testing.assert_array_equal(_guard_mask(y2f, rows), [True, True, False])


def test_eval_response_unknown_id_and_arity():
    with pytest.raises(InvalidInputError):
        scenario_model("Y9Z", 3)
    with pytest.raises(DimensionError):
        scenario_model("Y1A", 2)


def test_scenario_model_ignores_extra_columns():
    model = scenario_model("Y1A", 5)
    out = model(np.array([[1.0, 2.0, 3.0, 99.0, -99.0]]))
    assert out[0] == 6.0


def test_sample_scenario_rows_satisfies_guard():
    spec = ScenarioSpec("Y1A", "Y2E", 1.5, 1.0, seed=3, **SMALL)
    rows, resampled = sample_scenario_rows(spec)
    assert rows.shape == (40, 3)
    den = rows.sum(axis=1)
    assert np.all(np.abs(den) >= 1e-3)
    rows2, resampled2 = sample_scenario_rows(spec)
    assert np.array_equal(rows, rows2) and resampled == resampled2


def test_sample_scenario_rows_gives_up_when_guard_excludes_box():
    # the whole box keeps |x1+x2+x3| below the guard, so every draw fails
    tight = CovariateSpec(((-4e-4, -3e-4), (1e-4, 2e-4), (5e-5, 6e-5)))
    spec = ScenarioSpec("Y1A", "Y2E", 1.5, 1.0, n=10, covariates=tight, seed=0, background_size=5)
    with pytest.raises(ResampleLimitError):
        sample_scenario_rows(spec)


# ---------------------------------------------------------------- scenarios


def test_scenario_spec_validation():
    with pytest.raises(InvalidInputError):
        ScenarioSpec("Y2C", "Y2C", 1.5, 1.0)  # y1 not in the y1 catalog
    with pytest.raises(InvalidInputError):
        ScenarioSpec("Y1A", "nope", 1.5, 1.0)
    with pytest.raises(InvalidInputError):
        ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, n=5)
    with pytest.raises(InvalidInputError):
        ScenarioSpec("Y1A", "Y2A", -1.0, 1.0)
    with pytest.raises(InvalidInputError):
        ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, n=20, background_size=30)
    with pytest.raises(DimensionError):
        ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, covariates=CovariateSpec(((0.0, 1.0),)))


@pytest.mark.parametrize(
    "field, bad",
    [("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "3"), ("n", 50.5), ("n", True),
     ("background_size", 10.0), ("background_size", np.float64(10))],
)
def test_scenario_spec_rejects_a_seed_or_size_that_is_not_a_count(field, bad):
    with pytest.raises(InvalidInputError, match=field):
        ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, **{**SMALL, field: bad})


def test_scenario_spec_takes_numpy_integers_and_a_grid_seed_must_be_one():
    spec = ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, n=np.int64(40), background_size=np.int32(20), seed=np.uint32(5))
    assert run_scenario(spec).scores == run_scenario(ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, seed=5, **SMALL)).scores
    for bad in (-1, 1.5, True):
        with pytest.raises(InvalidInputError, match="grid_seed"):
            default_grid(grid_seed=bad)


def test_constant_control_scores_exactly_three():
    spec = ScenarioSpec("Y1A", "CONST1", 1.5, 1.0, seed=11, **SMALL)
    result = run_scenario(spec)
    for method in AlphaMethod:
        assert result.scores[method].score == 3.0
        assert result.scores[method].pct_same_rank == 1.0


def test_run_scenario_scores_in_range_and_deterministic():
    spec = ScenarioSpec("Y1B", "Y2D", 2.5, 6.0, seed=4, **SMALL)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert set(first.scores) == set(AlphaMethod)
    for method in AlphaMethod:
        assert 0.0 < first.scores[method].score <= 3.0
        assert first.scores[method] == second.scores[method]


def test_run_scenario_reference_efficiency_invariant():
    spec = ScenarioSpec("Y1B", "Y2F", 1.5, 1.0, seed=21, **SMALL)
    rows, _ = sample_scenario_rows(spec)
    background = rows[: spec.background_size]
    h = product_model(scenario_model(spec.y1, 3), scenario_model(spec.y2, 3))
    ref = explain_matrix(h, rows, background)
    totals = ref.predictions - ref.baseline
    residual = np.abs(ref.values.sum(axis=1) - totals)
    assert np.all(residual <= 1e-9 * np.maximum(1.0, np.abs(totals)))


def test_run_scenario_mshap_totals_match_reference_totals():
    # with mu_h = the oracle's baseline both row totals equal z_hat - mu_h
    spec = ScenarioSpec("Y1A", "Y2C", 1.5, 1.0, seed=8, **SMALL)
    rows, _ = sample_scenario_rows(spec)
    background = rows[: spec.background_size]
    f = scenario_model(spec.y1, 3)
    g = scenario_model(spec.y2, 3)
    h = product_model(f, g)
    ref = explain_matrix(h, rows, background)
    from mshap import combine

    expl_f = explain_matrix(f, rows, background)
    expl_g = explain_matrix(g, rows, background)
    for method in AlphaMethod:
        ours = combine(expl_f, expl_g, ref.baseline, method)
        gap = np.abs(ours.values.sum(axis=1) - ref.values.sum(axis=1))
        assert np.all(gap <= 1e-6 * np.maximum(1.0, np.abs(ref.values.sum(axis=1))))


@pytest.mark.parametrize("y1", Y1_IDS)
@pytest.mark.parametrize("y2", Y2_IDS + ("CONST1",))
def test_explain_product_equals_three_oracle_calls(y1, y2):
    spec = ScenarioSpec(y1, y2, 1.5, 1.0, seed=13, **SMALL)
    rows, _ = sample_scenario_rows(spec)
    background = rows[: spec.background_size]
    f = scenario_model(y1, 3)
    g = scenario_model(y2, 3)
    fused = explain_product(f, g, rows, background)
    for got, model in zip(fused, (f, g, product_model(f, g)), strict=True):
        want = explain_matrix(model, rows, background)
        assert np.array_equal(got.values, want.values)
        assert got.baseline == want.baseline
        assert np.array_equal(got.predictions, want.predictions)


def test_stacked_scores_equal_one_score_call_per_rule():
    # run_scenario scores the four combined matrices in one stacked call
    from mshap import ScoreParams, combine, score_matrices

    for y1 in Y1_IDS:
        for y2 in Y2_IDS + ("CONST1",):
            spec = ScenarioSpec(y1, y2, 2.5, 11.0, n=100, background_size=100, seed=17)
            rows, _ = sample_scenario_rows(spec)
            expl_f, expl_g, reference = _explain_three(spec, rows, rows[: spec.background_size])
            params = ScoreParams(spec.theta1, spec.theta2)
            got = run_scenario(spec).scores
            assert list(got) == list(AlphaMethod)
            for method in AlphaMethod:
                combined = combine(expl_f, expl_g, reference.baseline, method)
                want = score_matrices(combined.values, reference.values, params)
                # repr tells -0.0 from 0.0, so this is a bit-for-bit comparison
                assert repr(got[method]) == repr(want), (y1, y2, method)


def test_run_scenario_evaluates_each_part_once_per_coalition(monkeypatch):
    # the instances are their own background, so f and g each see the 3
    # non-empty coalitions without the last feature (of 2**(3-1) = 4) as
    # blocks of n * m = 10,000 spliced rows, and the 100 instances, whose
    # outputs are the predictions and the empty coalition's background
    # outputs; the 3 complements are those blocks transposed, the full
    # coalition is the predictions repeated, and the product is formed from
    # the part outputs, never evaluated again
    rows_seen = []
    evaluate = ModelFunction.__call__

    def counting(self, X):
        rows_seen.append(len(X))
        return evaluate(self, X)

    monkeypatch.setattr(ModelFunction, "__call__", counting)
    run_scenario(ScenarioSpec("Y1B", "Y2C", 1.5, 1.0, n=100, background_size=100, seed=3))
    assert sum(rows_seen) == 2 * (3 * 10_000 + 100) == 60_200


def test_run_scenario_checks_each_part_once(monkeypatch):
    module = importlib.import_module("mshap.combine")
    checked = []
    validate = module.validate_local_accuracy

    def counting(expl, tol_rel):
        checked.append(expl)
        return validate(expl, tol_rel)

    monkeypatch.setattr(module, "validate_local_accuracy", counting)
    result = run_scenario(ScenarioSpec("Y1B", "Y2E", 1.5, 1.0, seed=3, **SMALL))
    assert len(result.scores) == len(AlphaMethod)
    assert len(checked) == 2
    # a grid checks each part stack once per chunk: 13 cells are two chunks
    checked.clear()
    assert all(r.error is None for r in run_grid(default_grid(grid_seed=3, **SMALL)[:13]))
    assert len(checked) == 2 * 2


def test_scores_invariant_to_consistent_feature_relabeling():
    # permute the covariate columns everywhere at once: data, background, and
    # model input order; every score must come out the same
    from mshap import AlphaMethod, ModelFunction, ScoreParams, combine, score_matrices

    spec = ScenarioSpec("Y1A", "Y2C", 1.5, 1.0, seed=8, **SMALL)
    rows, _ = sample_scenario_rows(spec)
    background = rows[: spec.background_size]
    f = scenario_model(spec.y1, 3)
    g = scenario_model(spec.y2, 3)
    h = product_model(f, g)
    params = ScoreParams(spec.theta1, spec.theta2)

    perm = np.array([2, 0, 1])
    inv = np.argsort(perm)
    rows_p = rows[:, perm]
    background_p = background[:, perm]
    f_p = ModelFunction(3, lambda X: f.fn(X[:, inv]))
    g_p = ModelFunction(3, lambda X: g.fn(X[:, inv]))
    h_p = ModelFunction(3, lambda X: h.fn(X[:, inv]))

    for method in AlphaMethod:
        ref = explain_matrix(h, rows, background)
        ours = combine(
            explain_matrix(f, rows, background),
            explain_matrix(g, rows, background),
            ref.baseline,
            method,
        )
        ref_p = explain_matrix(h_p, rows_p, background_p)
        ours_p = combine(
            explain_matrix(f_p, rows_p, background_p),
            explain_matrix(g_p, rows_p, background_p),
            ref_p.baseline,
            method,
        )
        np.testing.assert_allclose(ours_p.values, ours.values[:, perm], rtol=1e-10, atol=1e-12)
        base = score_matrices(ours.values, ref.values, params)
        relabeled = score_matrices(ours_p.values, ref_p.values, params)
        for field in ("score", "direction_score", "relative_value_score", "rank_score",
                      "pct_same_sign", "pct_same_rank"):
            assert getattr(relabeled, field) == pytest.approx(getattr(base, field), abs=1e-12)


WIDE_BOX = CovariateSpec(PAPER_BOX.bounds + ((0.0, 1.0), (-2.0, 2.0)))


@pytest.mark.parametrize("y1", Y1_IDS)
@pytest.mark.parametrize("y2", Y2_IDS + ("CONST1",))
def test_oracle_enumerates_the_pair_columns_and_zeroes_the_rest(y1, y2):
    # the pair reads 3 of the 5 columns; full 5-column enumeration must agree
    spec = ScenarioSpec(y1, y2, 1.5, 1.0, covariates=WIDE_BOX, seed=13, **SMALL)
    rows, _ = sample_scenario_rows(spec)
    background = rows[: spec.background_size]
    f = scenario_model(y1, 5)
    g = scenario_model(y2, 5)
    oracle = _explain_three(spec, rows, background)
    for got, model in zip(oracle, (f, g, product_model(f, g)), strict=True):
        want = explain_matrix(model, rows, background)
        assert got.values.shape == (spec.n, 5)
        assert np.all(got.values[:, 3:] == 0.0)
        gap = np.abs(got.values - want.values).max()
        assert gap <= 1e-12 * np.abs(want.values).max()
        assert got.baseline == pytest.approx(want.baseline, rel=1e-12)
        assert np.array_equal(got.predictions, want.predictions)


def test_wide_cell_costs_a_three_column_enumeration(monkeypatch):
    # 17 inert columns add no model rows: the count is the p = 3 cell's
    # 2 * (3 * 10,000 + 100), counted as in
    # test_run_scenario_evaluates_each_part_once_per_coalition
    rows_seen = []
    evaluate = ModelFunction.__call__

    def counting(self, X):
        rows_seen.append(len(X))
        return evaluate(self, X)

    spec = ScenarioSpec(
        "Y1B", "Y2C", 1.5, 1.0, n=100, background_size=100, seed=3,
        covariates=CovariateSpec(PAPER_BOX.bounds + ((0.0, 1.0),) * 17),
    )
    monkeypatch.setattr(ModelFunction, "__call__", counting)
    result = run_scenario(spec)
    assert sum(rows_seen) == 60_200
    for method in AlphaMethod:
        assert 0.0 < result.scores[method].score <= 3.0
    rows, _ = sample_scenario_rows(spec)
    for expl in _explain_three(spec, rows, rows[: spec.background_size]):
        assert expl.values.shape == (100, 20)
        assert np.all(expl.values[:, 3:] == 0.0)


# ---------------------------------------------------------------- grid


def test_run_grid_single_cell_table():
    specs = [ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, seed=1, **SMALL)]
    outcomes = run_grid(specs)
    records = grid_table(outcomes)
    assert len(records) == 4
    assert {r["method"] for r in records} == {m.value for m in AlphaMethod}
    assert all(r["error"] == "" for r in records)


def test_run_grid_records_errors_and_continues():
    tight = CovariateSpec(((-4e-4, -3e-4), (1e-4, 2e-4), (5e-5, 6e-5)))
    specs = [
        ScenarioSpec("Y1A", "Y2E", 1.5, 1.0, n=10, covariates=tight, seed=0, background_size=5),
        ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, seed=1, **SMALL),
    ]
    results = run_grid(specs)
    assert results[0].error is not None and "ResampleLimitError" in results[0].error
    assert results[0].scores == {} and results[0].spec is specs[0]
    assert results[1].error is None and set(results[1].scores) == set(AlphaMethod)
    records = grid_table(results)
    assert len(records) == 5  # 1 error row + 4 method rows
    assert [r["scenario"] for r in records] == [0, 1, 1, 1, 1]


TIGHT_BOX = CovariateSpec(((-4e-4, -3e-4), (1e-4, 2e-4), (5e-5, 6e-5)))
SCHEMA_CELLS = {
    "scored": ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, seed=1, **SMALL),
    "errored": ScenarioSpec("Y1A", "Y2E", 1.5, 1.0, n=10, covariates=TIGHT_BOX, seed=0, background_size=5),
}


@pytest.mark.parametrize("cell", SCHEMA_CELLS)
def test_csv_columns_are_the_record_fields(cell):
    (result,) = run_grid([SCHEMA_CELLS[cell]])
    assert (result.error is None) == (cell == "scored")
    for record in grid_table([result]):
        if cell == "scored":
            assert tuple(record) == simulation.RESULT_COLUMNS
        else:
            assert set(record) < set(simulation.RESULT_COLUMNS)
    bench = simulation.BenchRecord(2, 10, "composition", 1.0, 0.1)
    assert simulation.BENCH_COLUMNS == tuple(dataclasses.asdict(bench))


def test_run_grid_equals_one_run_scenario_per_cell_on_the_desk_grid():
    specs = default_grid()
    assert len(specs) == 108
    for spec, got in zip(specs, run_grid(specs), strict=True):
        assert repr(got) == repr(run_scenario(spec))


def test_a_grid_of_13_cells_crosses_a_chunk_boundary():
    assert GRID_CHUNK_CELLS < 13 < 2 * GRID_CHUNK_CELLS
    specs = default_grid(grid_seed=5, **SMALL)[:13]
    for spec, got in zip(specs, run_grid(specs), strict=True):
        assert got.error is None
        assert repr(got) == repr(run_scenario(spec))


def test_failing_cells_mid_chunk_keep_their_error_and_leave_their_neighbours(monkeypatch):
    specs = default_grid(grid_seed=7, **SMALL)[:GRID_CHUNK_CELLS]
    tight = CovariateSpec(((-4e-4, -3e-4), (1e-4, 2e-4), (5e-5, 6e-5)))
    specs[2] = ScenarioSpec("Y1A", "Y2E", 1.5, 1.0, n=10, covariates=tight, seed=0, background_size=5)
    before = [run_scenario(spec) if i != 2 else None for i, spec in enumerate(specs)]
    explain_three = simulation._explain_three

    def poisoned(spec, rows, background):
        f, g, reference = explain_three(spec, rows, background)
        if spec is specs[3]:  # a non-finite oracle value
            values = reference.values.copy()
            values[3, 1] = np.nan
            reference = ShapExplanation(values, reference.baseline, reference.predictions)
        elif spec is specs[4]:  # part f off local accuracy in row 4
            f = ShapExplanation(f.values, f.baseline, f.predictions + np.eye(spec.n)[4])
        elif spec is specs[5]:  # parts whose product overflows float64
            f = g = ShapExplanation(np.full(f.values.shape, 1e300), 1e300, np.full(spec.n, 4e300))
        return f, g, reference

    monkeypatch.setattr(simulation, "_explain_three", poisoned)
    results = run_grid(specs)
    assert re.fullmatch(
        r"ResampleLimitError: could not satisfy the denominator guard after 100 redraw rounds "
        r"\(\d+ rows still violating\)",
        results[2].error,
    )
    assert results[3].error == "InvalidInputError: non-finite values in an explanation"
    assert results[4].error == "InvalidInputError: part f fails local accuracy: worst row 4 has residual 1.000e+00"
    assert results[5].error == (
        "InvalidInputError: the combined attributions are not finite (alpha=inf): the part "
        "baselines, values or predictions overflow float64"
    )
    for i in (2, 3, 4, 5):
        assert results[i].scores == {} and results[i].spec is specs[i]
    for i in (0, 1, 6, 7):
        assert results[i].error is None
        assert repr(results[i]) == repr(before[i])


def test_default_grid_shape_and_seeds():
    specs = default_grid(grid_seed=0)
    assert len(specs) == 2 * 6 * 3 * 3
    assert len({s.seed for s in specs}) == len(specs)
    pairs = {(s.y1, s.y2) for s in specs}
    assert len(pairs) == 12


def test_mean_scores_by_method_skips_errors():
    tight = CovariateSpec(((-4e-4, -3e-4), (1e-4, 2e-4), (5e-5, 6e-5)))
    specs = [
        ScenarioSpec("Y1A", "Y2A", 1.5, 1.0, seed=1, **SMALL),
        ScenarioSpec("Y1A", "Y2E", 1.5, 1.0, n=10, covariates=tight, seed=0, background_size=5),
    ]
    means = mean_scores_by_method(run_grid(specs))
    assert set(means) == set(AlphaMethod)
    assert all(0 < v <= 3 for v in means.values())


# ---------------------------------------------------------------- bench


def test_bench_scaling_records():
    records = bench_scaling(p_values=[2, 3], n_values=[20], background_size=30,
                            seed=0, n_permutations=10, repetitions=3)
    assert not any(r.error for r in records)
    assert len(records) == 6  # 3 methods x 2 p-values x 1 n
    for r in records:
        assert r.wall_seconds > 0
        assert r.per_observation_seconds == r.wall_seconds / r.n


def test_bench_scaling_respects_enum_limit(monkeypatch):
    monkeypatch.setattr(shapley, "ENUM_LIMIT", 4)
    records = bench_scaling(p_values=[2, 6], n_values=[10], background_size=10,
                            seed=0, n_permutations=5, repetitions=2)
    skipped = [r for r in records if r.error]
    assert len(skipped) == 1
    assert skipped[0].method == "exact_enumeration" and skipped[0].p == 6
    assert skipped[0].wall_seconds is None and skipped[0].per_observation_seconds is None
    with pytest.raises(EnumerationLimitError) as oracle:
        explain_matrix(simulation.bench_models(6)[0], np.zeros((1, 6)), np.zeros((1, 6)))
    assert skipped[0].error == str(oracle.value)
    # the skipped method keeps its place between composition and sampling
    assert [r.method for r in records if r.p == 6] == ["composition", "exact_enumeration", "permutation_sampling"]


def test_bench_record_without_an_error_needs_a_positive_time():
    with pytest.raises(InvalidInputError, match="wall_seconds must be > 0"):
        simulation.BenchRecord(3, 10, "composition")
    with pytest.raises(InvalidInputError, match="wall_seconds must be > 0"):
        simulation.BenchRecord(3, 10, "composition", 0.0, 0.0)
    skipped = simulation.BenchRecord(17, 10, "exact_enumeration", error="too wide")
    assert skipped.wall_seconds is None and skipped.per_observation_seconds is None
