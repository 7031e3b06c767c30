import dataclasses
import importlib
import re
import tracemalloc

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
from mshap import ScoreParams, combine, score_matrices, shapley
from mshap.shapley import explain_product
from mshap import simulation
from mshap.simulation import (
    GRID_CHUNK_CELLS,
    Y1_IDS,
    Y2_IDS,
    _guard_mask,
    grid_table,
    sample_scenario_rows,
)
from parts import scenario_model

PAPER_BOX = CovariateSpec()
SMALL = dict(n=40, background_size=20)
# n = 37 is no multiple of 4, so the attribution matmul has tail columns; a background of
# all 37 rows takes the mirrored walk, one of 19 the plain one
ODD_SIZES = [dict(n=37, background_size=37), dict(n=37, background_size=19)]


def explain_three(spec, rows):
    """Exact explanations of f, g and f * g on the pair's columns, padded with zeros to the cell's p."""
    k = simulation._pair_arity(spec.y1, spec.y2)
    f, g = scenario_model(spec.y1, k), scenario_model(spec.y2, k)
    zeros = np.zeros((spec.n, spec.n_features - k))
    return tuple(
        ShapExplanation(np.concatenate((e.values, zeros), axis=1), e.baseline, e.predictions)
        for e in explain_product(f, g, rows[:, :k], rows[: spec.background_size, :k])
    )


def composed_scores(spec):
    """One cell's scores from explain_product, one combine call per rule and one score_matrices call each."""
    rows, _ = sample_scenario_rows(spec)
    expl_f, expl_g, reference = explain_three(spec, rows)
    params = ScoreParams(spec.theta1, spec.theta2)
    return {
        method: score_matrices(combine(expl_f, expl_g, reference.baseline, method).values, reference.values, params)
        for method in AlphaMethod
    }


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


WALK_SIZES = [(2, 2), (37, 19), (100, 100)]
# values planted over the paper-box draws: (on an instance row, row, column, value)
PLANTED = st.lists(st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 2), st.floats()), max_size=6)


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(WALK_SIZES), seed=st.integers(0, 2**32 - 1), planted=PLANTED)
@example(size=(2, 2), seed=0, planted=[(True, 0, 0, 0.0), (False, 1, 0, -0.0), (True, 1, 2, -0.0), (False, 0, 2, 0.0)])
@example(size=(37, 19), seed=1, planted=[(True, 3, 1, np.nan), (False, 18, 2, np.nan)])
@example(size=(100, 100), seed=2, planted=[(True, 0, 0, np.inf), (False, 5, 1, -np.inf), (True, 7, 2, -np.inf)])
@example(size=(37, 19), seed=3, planted=[(True, 0, 2, -1e80), (False, 1, 2, -1e-310), (True, 1, 2, -0.5)])
def test_column_formulas_on_broadcast_views_equal_the_matrix_form(size, seed, planted):
    # every catalog formula and denominator, on a splice walk's (c, 1) and (1, m) column views,
    # gives the bits the matrix form (a scenario model, the guard) gives on the materialised block
    rng = np.random.default_rng(seed)
    lo, hi = np.array(PAPER_BOX.bounds).T
    rows, background = rng.uniform(lo, hi, (size[0], 3)), rng.uniform(lo, hi, (size[1], 3))
    for inside, i, j, value in planted:
        side = rows if inside else background
        side[i % len(side), j] = value
    for mask in range(8):
        cols = [rows[:, j, None] if mask >> j & 1 else background[None, :, j] for j in range(3)]
        block = np.empty(size + (3,))
        for j, col in enumerate(cols):
            block[:, :, j] = col
        X = block.reshape(-1, 3)
        for rf in simulation.RESPONSE_FUNCTIONS.values():
            with np.errstate(all="ignore"):
                forms = [(rf.formula(*cols[: rf.arity]), scenario_model(rf.id, 3)(X))]
                if rf.denominator is not None:
                    forms.append((rf.denominator(*cols), rf.denominator(*X.T)))
            for got, want in forms:
                assert np.broadcast_to(got, size).tobytes() == want.tobytes(), (rf.id, mask)


def test_the_catalog_oracle_holds_no_splice_block(monkeypatch):
    # a (100, 100, 3) block is 240,000 bytes; at each walk step the catalog oracle holds its
    # walked values, its coalition stack and the last step's (100, 100) output, about 120 kB
    spec = ScenarioSpec("Y1B", "Y2D", 1.5, 1.0, n=100, background_size=100, seed=3)
    rows, _ = sample_scenario_rows(spec)
    rf = simulation.RESPONSE_FUNCTIONS["Y1B"]
    held = []

    def spy(*cols):
        if np.broadcast(*cols).size == 100 * 100:  # a walk step, not the predictions
            held.append(tracemalloc.get_traced_memory()[0])
        return rf.formula(*cols)

    def held_at_the_walk_steps(call):
        held.clear()
        tracemalloc.start()
        try:
            call()
        finally:
            tracemalloc.stop()
        assert len(held) == 3
        return max(held)

    monkeypatch.setitem(simulation.RESPONSE_FUNCTIONS, "Y1B", dataclasses.replace(rf, formula=spy))
    catalog = held_at_the_walk_steps(lambda: simulation._oracle_arrays(spec, rows, rows))
    # the same models as matrices go through the block adapter, which holds the block
    models = scenario_model("Y1B", 3), scenario_model("Y2D", 3)
    blocked = held_at_the_walk_steps(lambda: explain_product(*models, rows, rows))
    assert catalog < 100 * 100 * 3 * 8 <= blocked


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


@pytest.mark.parametrize("sizes", [dict(n=100, background_size=100), *ODD_SIZES], ids=["100-100", "37-37", "37-19"])
def test_stacked_scores_equal_one_score_call_per_rule(sizes):
    # run_grid composes and scores the cells of a chunk stacked, and run_scenario a chunk of one;
    # the 14 cells cross a chunk boundary
    specs = [ScenarioSpec(y1, y2, 2.5, 11.0, seed=17, **sizes) for y1 in Y1_IDS for y2 in Y2_IDS + ("CONST1",)]
    for spec, grid in zip(specs, run_grid(specs), strict=True):
        got = run_scenario(spec)
        assert list(got.scores) == list(AlphaMethod)
        # repr tells -0.0 from 0.0, so these are bit-for-bit comparisons
        assert repr(grid) == repr(got)
        assert repr(got.scores) == repr(composed_scores(spec)), (spec.y1, spec.y2)


def count_evaluations(monkeypatch):
    """Count, from now on, the elements each catalog formula computes and the rows each model is given."""
    elements, rows = [], []
    for fn_id, rf in list(simulation.RESPONSE_FUNCTIONS.items()):

        def counting(*cols, formula=rf.formula):
            elements.append(np.broadcast(*cols).size)
            return formula(*cols)

        monkeypatch.setitem(simulation.RESPONSE_FUNCTIONS, fn_id, dataclasses.replace(rf, formula=counting))
    evaluate = ModelFunction.__call__

    def counting_call(self, X):
        rows.append(len(X))
        return evaluate(self, X)

    monkeypatch.setattr(ModelFunction, "__call__", counting_call)
    return elements, rows


def test_run_scenario_evaluates_each_part_once_per_coalition(monkeypatch):
    # the instances are their own background, so f and g each see the 3
    # non-empty coalitions without the last feature (of 2**(3-1) = 4) as
    # (100, 1) and (1, 100) column views whose formula broadcasts to n * m =
    # 10,000 elements, and the 100 instances, whose outputs are the predictions
    # and the empty coalition's background outputs; the 3 complements are those
    # outputs transposed, the full coalition is the predictions repeated, and
    # the product is formed from the part outputs, never evaluated again.  No
    # rows go through a model: the predictions and the walk both take the formulas
    elements, rows = count_evaluations(monkeypatch)
    run_scenario(ScenarioSpec("Y1B", "Y2C", 1.5, 1.0, n=100, background_size=100, seed=3))
    assert sum(elements) == 2 * (3 * 10_000 + 100) == 60_200
    assert rows == []


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
    values, baselines, predictions = simulation._oracle_arrays(spec, rows, background)
    assert values.shape == (3, spec.n, 3)
    for got, base, pred, model in zip(values, baselines, predictions, (f, g, product_model(f, g)), strict=True):
        want = explain_matrix(model, rows, background)
        # the null players the grid pads with zeros are exact zeros of the full enumeration
        assert np.all(want.values[:, 3:] == 0.0)
        gap = np.abs(got - want.values[:, :3]).max()
        assert gap <= 1e-12 * np.abs(want.values).max()
        assert base == pytest.approx(want.baseline, rel=1e-12)
        assert np.array_equal(pred, want.predictions)


def test_wide_cell_costs_a_three_column_enumeration(monkeypatch):
    # 17 inert columns add no formula elements and no model rows: the counts are
    # the p = 3 cell's, counted as in test_run_scenario_evaluates_each_part_once_per_coalition
    spec = ScenarioSpec(
        "Y1B", "Y2C", 1.5, 1.0, n=100, background_size=100, seed=3,
        covariates=CovariateSpec(PAPER_BOX.bounds + ((0.0, 1.0),) * 17),
    )
    elements, rows = count_evaluations(monkeypatch)
    result = run_scenario(spec)
    assert sum(elements) == 60_200 and rows == []
    for method in AlphaMethod:
        assert 0.0 < result.scores[method].score <= 3.0
    # the 17 columns are zeros of the composed and the reference stacks
    assert repr(result.scores) == repr(composed_scores(spec))


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


@pytest.mark.parametrize("sizes", [SMALL, *ODD_SIZES], ids=["40-20", "37-37", "37-19"])
def test_a_grid_of_13_cells_crosses_a_chunk_boundary(sizes):
    assert GRID_CHUNK_CELLS < 13 < 2 * GRID_CHUNK_CELLS
    specs = default_grid(grid_seed=5, **sizes)[:13]
    for spec, got in zip(specs, run_grid(specs), strict=True):
        assert got.error is None
        assert repr(got) == repr(run_scenario(spec))
        assert repr(got.scores) == repr(composed_scores(spec))


def test_failing_cells_mid_chunk_keep_their_error_and_leave_their_neighbours(monkeypatch):
    specs = default_grid(grid_seed=7, **SMALL)[:GRID_CHUNK_CELLS]
    tight = CovariateSpec(((-4e-4, -3e-4), (1e-4, 2e-4), (5e-5, 6e-5)))
    specs[2] = ScenarioSpec("Y1A", "Y2E", 1.5, 1.0, n=10, covariates=tight, seed=0, background_size=5)
    before = [run_scenario(spec) if i != 2 else None for i, spec in enumerate(specs)]
    oracle_arrays = simulation._oracle_arrays

    def poisoned(spec, rows, background):
        values, baselines, predictions = (a.copy() for a in oracle_arrays(spec, rows, background))
        if spec is specs[3]:  # a non-finite oracle value
            values[2, 3, 1] = np.nan
        elif spec is specs[4]:  # part f off local accuracy in row 4
            predictions[0, 4] += 1.0
        elif spec is specs[5]:  # parts whose product overflows float64
            values[:2], baselines[:2], predictions[:2] = 1e300, 1e300, 4e300
        return values, baselines, predictions

    monkeypatch.setattr(simulation, "_oracle_arrays", poisoned)
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
