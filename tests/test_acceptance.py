"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mshap import (
    AlphaMethod,
    ModelFunction,
    ScoreParams,
    ShapExplanation,
    additive_model,
    bench_scaling,
    combine,
    default_grid,
    explain_matrix,
    explanation_to_table,
    linear_combine_explanations,
    linear_combine_mshap,
    mean_product_baseline,
    mean_scores_by_method,
    product_model,
    read_shap_table,
    run_grid,
    score_matrices,
    validate_local_accuracy,
    write_shap_table,
)
from mshap.cli import RESULT_COLUMNS, SCORE_FIELDS, main
from mshap.simulation import ScenarioSpec, grid_table
from mshap.tables import write_records

FIXTURES = Path(__file__).parent / "fixtures"
METHODS = list(AlphaMethod)


def _report(number: int, message: str) -> None:
    print(f"\n[acceptance] criterion {number} PASS — {message}")


def test_criterion_1_local_accuracy_randomized():
    """10,000 randomized combine calls keep local accuracy at 1e-9 relative."""
    budget_s = 30.0
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    calls = 0
    worst = 0.0
    for i in range(2500):
        n = int(rng.integers(1, 201))
        p = int(rng.integers(1, 21))
        sx = rng.uniform(-1e3, 1e3, (n, p))
        sy = rng.uniform(-1e3, 1e3, (n, p))
        mu_f, mu_g = rng.uniform(-1e3, 1e3, 2)
        expl_f = ShapExplanation(sx, mu_f, mu_f + sx.sum(axis=1))
        expl_g = ShapExplanation(sy, mu_g, mu_g + sy.sum(axis=1))
        if i % 2 == 0:
            mu_h = mean_product_baseline(expl_f.predictions, expl_g.predictions)
        else:
            mu_h = float(rng.uniform(-1e3, 1e3))
        for method in METHODS:
            out = combine(expl_f, expl_g, mu_h, method)
            report = validate_local_accuracy(out, 1e-9)
            assert report.passed, (
                f"row {report.worst_row} of call {calls} ({method.value}) "
                f"residual {report.residuals[report.worst_row]:.3e}"
            )
            worst = max(worst, report.max_residual)
            calls += 1
    elapsed = time.perf_counter() - start
    assert calls == 10_000
    assert elapsed < budget_s, f"{elapsed:.1f}s exceeds the {budget_s:.0f}s budget"
    _report(1, f"10,000 combine calls, all rows within 1e-9 "
               f"(worst |residual| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_single_feature_oracle_equivalence():
    """At p=1 the composition equals exact enumeration of the product model."""
    rng = np.random.default_rng(202)
    cases = 0
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        background = rng.uniform(-2, 2, (m, 1))
        rows = rng.uniform(-2, 2, (10, 1))
        af, bf, cf = rng.uniform(-2, 2, 3)
        ag, bg_, cg = rng.uniform(-2, 2, 3)
        f = ModelFunction(1, lambda X, a=af, b=bf, c=cf: a * X[:, 0] ** 2 + b * X[:, 0] + c)
        g = ModelFunction(1, lambda X, a=ag, b=bg_, c=cg: a * X[:, 0] ** 2 + b * X[:, 0] + c)
        h = product_model(f, g)
        expl_f = explain_matrix(f, rows, background)
        expl_g = explain_matrix(g, rows, background)
        reference = explain_matrix(h, rows, background)
        for method in METHODS:
            ours = combine(expl_f, expl_g, reference.baseline, method)
            gap = np.abs(ours.values - reference.values)
            bound = 1e-12 * np.maximum(1.0, np.abs(reference.values))
            assert np.all(gap <= bound), f"max gap {gap.max():.3e}"
            worst = max(worst, float(gap.max()))
        cases += rows.shape[0]
    assert cases == 1000
    _report(2, f"1,000 single-feature cases match exact enumeration "
               f"(worst gap {worst:.2e} at 1e-12)")


def test_criterion_3_exact_shapley_validation():
    """Closed form, symmetry, null player, and linearity of the oracle."""
    budget_s = 60.0
    rng = np.random.default_rng(303)
    start = time.perf_counter()

    def explain_row(model, x, background):
        return explain_matrix(model, x[None, :], background).values[0]

    for _ in range(300):
        p = int(rng.integers(1, 9))
        coefs = rng.uniform(-3, 3, p)
        background = rng.uniform(-2, 2, (int(rng.integers(1, 21)), p))
        x = rng.uniform(-2, 2, p)
        row = explain_row(additive_model(coefs, intercept=float(rng.uniform(-1, 1))), x, background)
        closed = coefs * (x - background.mean(axis=0))
        assert np.all(np.abs(row - closed) <= 1e-9 * np.maximum(1.0, np.abs(closed)))

    for _ in range(100):
        p = int(rng.integers(2, 9))
        i, j = rng.choice(p, size=2, replace=False)
        rest = rng.uniform(-1, 1, p)

        def symmetric(X, i=i, j=j, w=rest):
            s = X[:, i] + X[:, j]
            return s**2 + np.sin(X[:, i] * X[:, j]) + X @ w - w[i] * X[:, i] - w[j] * X[:, j]

        background = rng.uniform(-1, 1, (6, p))
        background[:, j] = background[:, i]
        x = rng.uniform(-1, 1, p)
        x[j] = x[i]
        row = explain_row(ModelFunction(p, symmetric), x, background)
        assert abs(row[i] - row[j]) <= 1e-12 * max(1.0, abs(row[i]))

    for _ in range(100):
        p = int(rng.integers(2, 9))
        dead = int(rng.integers(0, p))
        live = [k for k in range(p) if k != dead]

        def ignores(X, live=live):
            return np.sin(X[:, live].sum(axis=1)) + np.prod(X[:, live[:2]], axis=1)

        row = explain_row(ModelFunction(p, ignores), rng.uniform(-1, 1, p), rng.uniform(-1, 1, (5, p)))
        assert row[dead] == 0.0

    for _ in range(100):
        p = int(rng.integers(1, 7))
        f = ModelFunction(p, lambda X: np.cos(X.sum(axis=1)))
        g = ModelFunction(p, lambda X: X.prod(axis=1))
        a, b = rng.uniform(-3, 3, 2)
        mixed = ModelFunction(p, lambda X: a * f(X) + b * g(X))
        background = rng.uniform(-1, 1, (5, p))
        x = rng.uniform(-1, 1, p)
        expected = a * explain_row(f, x, background) + b * explain_row(g, x, background)
        got = explain_row(mixed, x, background)
        assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(1.0, np.abs(expected)))

    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{elapsed:.1f}s exceeds the {budget_s:.0f}s budget"
    _report(3, f"closed form (300), symmetry/null/linearity (100 each) hold ({elapsed:.1f}s)")


def test_criterion_4_method_ordering_on_desk_grid():
    """Absolute weighting outscores raw weighting on the full desk grid."""
    budget_s = 600.0
    start = time.perf_counter()
    specs = default_grid(grid_seed=0, n=100, background_size=100)
    assert len(specs) == 108  # 12 response pairs x 9 theta cells
    outcomes = run_grid(specs)
    failed = [o for o in outcomes if o.error is not None]
    assert not failed, f"{len(failed)} scenario cells failed: {failed[:2]}"
    means = mean_scores_by_method(outcomes)
    elapsed = time.perf_counter() - start
    assert means[AlphaMethod.ABSOLUTE] > means[AlphaMethod.RAW], means
    assert elapsed < budget_s
    ordering = " > ".join(
        f"{m.value}={means[m]:.3f}" for m in sorted(METHODS, key=lambda m: -means[m])
    )
    _report(4, f"mean scores over 108 cells: {ordering} ({elapsed:.1f}s); "
               f"absolute > raw as published, absolute/uniform/squared gap not gated")


def test_criterion_5_runtime_scaling():
    """Enumeration blows up in p while composition stays flat."""
    budget_s = 300.0
    start = time.perf_counter()
    p_values = list(range(2, 13))
    records, errors = bench_scaling(
        p_values=p_values, n_values=[50], background_size=100, seed=0,
        n_permutations=100, repetitions=5,
    )
    elapsed = time.perf_counter() - start
    assert not errors
    enum = {r.p: r.per_observation_seconds for r in records if r.method == "exact_enumeration"}
    comp = {r.p: r.per_observation_seconds for r in records if r.method == "composition"}
    assert sorted(enum) == p_values and sorted(comp) == p_values

    increasing = all(enum[a] < enum[b] for a, b in zip(p_values, p_values[1:]))
    assert increasing, f"enumeration not strictly increasing: {enum}"
    spread = max(comp.values()) / min(comp.values())
    assert spread <= 10.0, f"composition spread {spread:.2f}x exceeds 10x"
    ratio = enum[12] / comp[12]
    assert ratio >= 100.0, f"composition only {ratio:.0f}x faster at p=12"
    assert elapsed < budget_s
    _report(5, f"enumeration strictly increasing over p=2..12, composition spread "
               f"{spread:.1f}x <= 10x, speedup at p=12 = {ratio:.0f}x >= 100x ({elapsed:.1f}s)")


def test_criterion_6_scoring_bounds_and_identities():
    """Score bounds, decomposition, boundary and quadrant rules on 10,000 cells."""
    budget_s = 10.0
    rng = np.random.default_rng(606)
    start = time.perf_counter()

    n_cells = 10_000
    magnitudes = 10.0 ** rng.uniform(-300, 300, (2, n_cells))
    signs = rng.choice([-1.0, 1.0], (2, n_cells))
    s, k = magnitudes * signs
    zero_mask = rng.random(n_cells) < 0.05
    s[zero_mask] = 0.0
    k[rng.random(n_cells) < 0.05] = 0.0
    theta1 = rng.choice(np.arange(1.5, 21.0, 1.0), n_cells)
    theta2 = rng.choice(np.arange(1.0, 47.0, 5.0), n_cells)

    def cell(si, ki, t1, t2):
        # a 1x1 pair scores one cell: direction_score and relative_value_score
        # are that cell's direction and value pieces
        return score_matrices([[si]], [[ki]], ScoreParams(t1, t2))

    for i in range(0, n_cells, 500):  # spot single cells across the range
        one = cell(s[i], k[i], theta1[i], theta2[i])
        assert 0.0 < one.direction_score <= 1.0 and 0.0 < one.relative_value_score <= 1.0

    cells = [cell(*args) for args in zip(s[:2000], k[:2000], theta1[:2000], theta2[:2000])]
    l1 = np.array([c.direction_score for c in cells])
    l2 = np.array([c.relative_value_score for c in cells])
    assert np.all((l1 > 0) & (l1 <= 1.0))
    assert np.all((l2 > 0) & (l2 <= 1.0))

    # full-matrix route over all cells
    cand = s.reshape(100, 100)
    ref = k.reshape(100, 100)
    breakdown = score_matrices(cand, ref, ScoreParams(1.5, 1.0))
    assert 0.0 < breakdown.score <= 3.0
    assert breakdown.score == pytest.approx(
        breakdown.direction_score + breakdown.relative_value_score + breakdown.rank_score,
        abs=1e-12,
    )

    same_sign = ((s > 0) & (k > 0)) | ((s < 0) & (k < 0))
    quadrant = np.array(
        [cell(si, ki, 1.5, 1.0).direction_score for si, ki in zip(s[same_sign][:2000], k[same_sign][:2000])]
    )
    assert np.all(quadrant == 1.0)

    for theta in (1.0, 6.0, 46.0):
        base = rng.uniform(-100, 100)
        assert cell(base + theta, base, 1.5, theta).relative_value_score == 1.0
        assert cell(base + theta * (1 + 1e-9), base, 1.5, theta).relative_value_score <= 1.0

    elapsed = time.perf_counter() - start
    assert elapsed < budget_s
    _report(6, f"bounds, decomposition, theta2 boundary, and quadrant rule hold "
               f"on 10,000 cells ({elapsed:.1f}s)")


def test_criterion_7_linear_combination_consistency():
    """Expected-value combination commutes with the composition."""
    rng = np.random.default_rng(707)
    weights = (0.0, 1.0, 2.0, 3.0)

    def build_parts(p):
        n = 50
        sev_values = rng.uniform(-5, 5, (n, p))
        mu_sev = 12.0
        severity = ShapExplanation(sev_values, mu_sev, mu_sev + sev_values.sum(axis=1))
        classes = []
        for _ in weights:
            cls_values = rng.uniform(-0.2, 0.2, (n, p))
            mu_cls = float(rng.uniform(0.1, 0.6))
            classes.append(ShapExplanation(cls_values, mu_cls, mu_cls + cls_values.sum(axis=1)))
        return severity, classes

    # the combination is linear throughout under the uniform rule: orders agree
    for p in (1, 4):
        severity, classes = build_parts(p)
        mu_h_each = [mean_product_baseline(c.predictions, severity.predictions) for c in classes]
        mu_h_total = sum(w * m for w, m in zip(weights, mu_h_each))

        methods = METHODS if p == 1 else [AlphaMethod.UNIFORM]
        for method in methods:
            after = linear_combine_mshap(
                [(w, combine(c, severity, mh, method)) for w, c, mh in zip(weights, classes, mu_h_each)]
            )
            count = linear_combine_explanations(list(zip(weights, classes)))
            before = combine(count, severity, mu_h_total, method)
            gap = np.abs(after.values - before.values)
            bound = 1e-9 * np.maximum(1.0, np.abs(before.values))
            assert np.all(gap <= bound), f"p={p} {method.value}: max gap {gap.max():.3e}"
            assert validate_local_accuracy(before, 1e-9).passed
            assert validate_local_accuracy(after, 1e-9).passed

    # nonuniform weightings renormalize per class, so the orders differ at p>1;
    # each order must still satisfy local accuracy on its own
    severity, classes = build_parts(4)
    mu_h_each = [mean_product_baseline(c.predictions, severity.predictions) for c in classes]
    mu_h_total = sum(w * m for w, m in zip(weights, mu_h_each))
    discrepancies = {}
    for method in (AlphaMethod.RAW, AlphaMethod.ABSOLUTE, AlphaMethod.SQUARED):
        after = linear_combine_mshap(
            [(w, combine(c, severity, mh, method)) for w, c, mh in zip(weights, classes, mu_h_each)]
        )
        before = combine(
            linear_combine_explanations(list(zip(weights, classes))), severity, mu_h_total, method
        )
        assert validate_local_accuracy(before, 1e-9).passed
        assert validate_local_accuracy(after, 1e-9).passed
        discrepancies[method.value] = float(np.abs(after.values - before.values).max())

    _report(7, "before/after orders identical (1e-9) for uniform at p=4 and all methods at p=1; "
               f"weighted-method order gaps (not gated): {discrepancies}")


def test_criterion_8_cli_parity_and_round_trip(tmp_path):
    """CLI outputs byte-match library serialization on the stored fixtures."""
    checks = 0

    def combine_parity(f_name, g_name, method, mu_h_flag, out_name):
        nonlocal checks
        out = tmp_path / out_name
        assert main([
            "combine", "--f-shap", str(FIXTURES / f_name), "--g-shap", str(FIXTURES / g_name),
            "--mu-h", mu_h_flag, "--method", method, "--out-dir", str(out),
        ]) == 0
        table_f = read_shap_table(FIXTURES / f_name)
        table_g = read_shap_table(FIXTURES / g_name)
        mu_h = (
            mean_product_baseline(table_f.predictions, table_g.predictions)
            if mu_h_flag == "auto"
            else float(mu_h_flag)
        )
        expected = combine(table_f.to_explanation(), table_g.to_explanation(),
                           mu_h, AlphaMethod(method))
        lib = tmp_path / (out_name + "_lib")
        lib.mkdir()
        write_shap_table(
            lib / "mshap.csv",
            explanation_to_table(expected, extra_meta={
                "alpha": expected.alpha,
                "method": method,
                "advisory_count": len(expected.fallback_rows),
                "fallback_rows": list(expected.fallback_rows),
            }),
        )
        assert (out / "mshap.csv").read_bytes() == (lib / "mshap.csv").read_bytes()
        assert (out / "mshap.meta.json").read_bytes() == (lib / "mshap.meta.json").read_bytes()
        checks += 1
        return expected

    # fixtures 1-3: combine on single-feature, identity, and additive pairs
    combine_parity("single_f.csv", "single_g.csv", "absolute", "auto", "single")
    mu_f = read_shap_table(FIXTURES / "identity_f.csv").baseline
    identity = combine_parity("identity_f.csv", "identity_g.csv", "uniform", repr(mu_f), "identity")
    assert identity.alpha == 0.0
    np.testing.assert_array_equal(
        identity.values, read_shap_table(FIXTURES / "identity_f.csv").values
    )
    combine_parity("additive_f.csv", "additive_g.csv", "raw", "auto", "additive")

    # fixture 4: score
    out = tmp_path / "score"
    assert main([
        "score", "--candidate", str(FIXTURES / "score_candidate.csv"),
        "--reference", str(FIXTURES / "score_reference.csv"),
        "--theta1", "2.5", "--theta2", "6", "--out-dir", str(out),
    ]) == 0
    expected_breakdown = score_matrices(
        read_shap_table(FIXTURES / "score_candidate.csv").values,
        read_shap_table(FIXTURES / "score_reference.csv").values,
        ScoreParams(2.5, 6.0),
    )
    payload = {field: getattr(expected_breakdown, field) for field in SCORE_FIELDS}
    payload.update(theta1=2.5, theta2=6.0)
    assert json.loads((out / "score.json").read_text()) == payload
    checks += 1

    # fixture 5: simulate
    out = tmp_path / "sim"
    assert main([
        "simulate", "--config", str(FIXTURES / "sim_config.json"), "--out-dir", str(out),
    ]) == 0
    cell = json.loads((FIXTURES / "sim_config.json").read_text())["scenarios"][0]
    spec = ScenarioSpec(**cell)
    write_records(tmp_path / "sim_lib.csv", RESULT_COLUMNS, grid_table(run_grid([spec])))
    assert (out / "results.csv").read_bytes() == (tmp_path / "sim_lib.csv").read_bytes()
    checks += 1
    assert checks == 5

    # write-read round trip at full 64-bit precision
    nasty = np.array([[np.pi, 1.0 / 3.0, 5e-324], [1.7976931348623157e308, -0.0, 2**53 + 1.0]])
    from mshap import ShapTable

    write_shap_table(tmp_path / "rt.csv", ShapTable(("a", "b", "c"), nasty, np.e))
    back = read_shap_table(tmp_path / "rt.csv")
    assert np.array_equal(back.values, nasty) and back.baseline == np.e

    _report(8, "combine/score/simulate byte-match library serialization on 5 stored "
               "fixtures; tables round-trip bit-exactly")
