import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mshap import (
    AlphaMethod,
    ScoreParams,
    ShapExplanation,
    ShapTable,
    additive_model,
    combine,
    explain_matrix,
    explanation_to_table,
    mean_product_baseline,
    read_shap_table,
    score_matrices,
    write_shap_table,
    write_value_table,
)
from mshap import cli, tables
from mshap.cli import main
from mshap.shapley import SPLICE_BUDGET_BYTES
from parts import make_parts, peak_bytes

NAMES = ("x1", "x2", "x3")


def write_pair(tmp_path, rng, n=12, names=NAMES, seed_models=(1.0, 2.0)):
    """One deterministic pair of exactly-explained part tables on disk."""
    p = len(names)
    X = rng.uniform(-2, 2, (n, p))
    background = X[: max(3, n // 3)]
    f = additive_model(rng.uniform(-2, 2, p), intercept=seed_models[0])
    g = additive_model(rng.uniform(-2, 2, p), intercept=seed_models[1])
    expl_f = explain_matrix(f, X, background, feature_names=names)
    expl_g = explain_matrix(g, X, background, feature_names=names)
    f_path, g_path = tmp_path / "f.csv", tmp_path / "g.csv"
    write_shap_table(f_path, explanation_to_table(expl_f))
    write_shap_table(g_path, explanation_to_table(expl_g))
    return f_path, g_path, expl_f, expl_g, X


def test_combine_matches_library_bytes(tmp_path, rng):
    f_path, g_path, expl_f, expl_g, _ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    code = main([
        "combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
        "--mu-h", "auto", "--method", "squared", "--out-dir", str(out),
    ])
    assert code == 0

    mu_h = mean_product_baseline(expl_f.predictions, expl_g.predictions)
    expected = combine(expl_f, expl_g, mu_h, AlphaMethod.SQUARED)
    lib_dir = tmp_path / "lib"
    lib_dir.mkdir()
    write_shap_table(
        lib_dir / "mshap.csv",
        explanation_to_table(
            expected,
            extra_meta={
                "alpha": expected.alpha,
                "method": "squared",
                "advisory_count": 0,
                "fallback_rows": [],
            },
        ),
    )
    assert (out / "mshap.csv").read_bytes() == (lib_dir / "mshap.csv").read_bytes()
    assert (out / "mshap.meta.json").read_bytes() == (lib_dir / "mshap.meta.json").read_bytes()


def test_combine_explicit_mu_h_and_identity_part(tmp_path, rng):
    # g is the constant-1 part: zero matrix, baseline 1
    expl_f, _ = make_parts(rng, 6, 3, scale=2.0, names=NAMES)
    zeros = np.zeros((6, 3))
    from mshap import ShapExplanation

    expl_g = ShapExplanation(zeros, 1.0, np.ones(6), NAMES)
    write_shap_table(tmp_path / "f.csv", explanation_to_table(expl_f))
    write_shap_table(tmp_path / "g.csv", explanation_to_table(expl_g))
    out = tmp_path / "out"
    code = main([
        "combine", "--f-shap", str(tmp_path / "f.csv"), "--g-shap", str(tmp_path / "g.csv"),
        "--mu-h", str(expl_f.baseline), "--out-dir", str(out),
    ])
    assert code == 0
    back = read_shap_table(out / "mshap.csv")
    assert np.array_equal(back.values, expl_f.values)
    assert back.extra_meta["alpha"] == 0.0


def test_combine_single_feature_forces_product_rule(tmp_path, rng):
    expl_f, expl_g = make_parts(rng, 5, 1, scale=3.0, names=("only",))
    write_shap_table(tmp_path / "f.csv", explanation_to_table(expl_f))
    write_shap_table(tmp_path / "g.csv", explanation_to_table(expl_g))
    out = tmp_path / "out"
    assert main([
        "combine", "--f-shap", str(tmp_path / "f.csv"), "--g-shap", str(tmp_path / "g.csv"),
        "--mu-h", "auto", "--out-dir", str(out),
    ]) == 0
    back = read_shap_table(out / "mshap.csv")
    mu_h = mean_product_baseline(expl_f.predictions, expl_g.predictions)
    np.testing.assert_allclose(
        back.values[:, 0], expl_f.predictions * expl_g.predictions - mu_h, rtol=1e-12
    )


def test_combine_header_mismatch_names_column(tmp_path, rng, capsys):
    expl_f, _ = make_parts(rng, 4, 3, names=("x1", "x2", "x3"))
    _, expl_g = make_parts(rng, 4, 3, names=("x1", "zz", "x3"))
    write_shap_table(tmp_path / "f.csv", explanation_to_table(expl_f))
    write_shap_table(tmp_path / "g.csv", explanation_to_table(expl_g))
    code = main([
        "combine", "--f-shap", str(tmp_path / "f.csv"), "--g-shap", str(tmp_path / "g.csv"),
        "--mu-h", "0", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "column 1" in err and "zz" in err


def test_combine_auto_requires_prediction_columns(tmp_path, rng):
    expl_f, expl_g = make_parts(rng, 4, 2, names=("a", "b"))
    from mshap import ShapTable

    for name, expl in (("f", expl_f), ("g", expl_g)):
        table = ShapTable(values=expl.values, baseline=expl.baseline, feature_names=("a", "b"))
        write_shap_table(tmp_path / f"{name}.csv", table)
    code = main([
        "combine", "--f-shap", str(tmp_path / "f.csv"), "--g-shap", str(tmp_path / "g.csv"),
        "--mu-h", "auto", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 3


def test_combine_parse_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,zebra\n")
    (tmp_path / "bad.meta.json").write_text('{"baseline": 0.0}')
    code = main([
        "combine", "--f-shap", str(bad), "--g-shap", str(bad),
        "--mu-h", "0", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 3


@pytest.mark.parametrize("mu_h", ["nan", "inf"])
def test_combine_non_finite_mu_h_exits_3(tmp_path, rng, capsys, mu_h):
    f_path, g_path, _, _, _ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    code = main([
        "combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
        "--mu-h", mu_h, "--out-dir", str(out),
    ])
    assert code == 3
    assert "mu_h must be finite" in capsys.readouterr().err
    assert not (out / "mshap.csv").exists()


@pytest.mark.parametrize("mu_h", ["1.0", "auto"])
def test_combine_overflow_exits_3_with_one_error_line(tmp_path, capsys, mu_h):
    # part baselines of 1e200 make alpha and every combined value overflow
    values = np.array([[0.5, -0.25], [1.0, 2.0]])
    for name in ("f", "g"):
        expl = ShapExplanation(values, 1e200, 1e200 + values.sum(axis=1))
        write_shap_table(tmp_path / f"{name}.csv", explanation_to_table(expl))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "combine", "--f-shap", str(tmp_path / "f.csv"), "--g-shap", str(tmp_path / "g.csv"),
            "--mu-h", mu_h, "--out-dir", str(out),
        ])
    assert code == 3
    assert [str(w.message) for w in caught] == []
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "finite" in line
    assert not out.exists()


def test_prediction_feature_name_collision_exits_3_before_any_out_dir(tmp_path, rng, capsys):
    # the combined table's prediction column would take a feature's name
    names = ("a", "prediction")
    for name in ("f", "g"):
        table = ShapTable(values=rng.uniform(-1, 1, (3, 2)), baseline=1.0, feature_names=names)
        write_shap_table(tmp_path / f"{name}.csv", table)
    out = tmp_path / "out"
    code = main([
        "combine", "--f-shap", str(tmp_path / "f.csv"), "--g-shap", str(tmp_path / "g.csv"),
        "--mu-h", "1.0", "--out-dir", str(out),
    ])
    assert code == 3
    assert "collides with a feature name" in capsys.readouterr().err
    assert not out.exists()


def test_env_variable_overrides_default(tmp_path, rng, monkeypatch):
    f_path, g_path, *_ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    monkeypatch.setenv("MSHAP_METHOD", "uniform")
    assert main([
        "combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
        "--mu-h", "auto", "--out-dir", str(out),
    ]) == 0
    assert read_shap_table(out / "mshap.csv").extra_meta["method"] == "uniform"


def test_flag_beats_env(tmp_path, rng, monkeypatch):
    f_path, g_path, *_ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    monkeypatch.setenv("MSHAP_METHOD", "uniform")
    assert main([
        "combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
        "--mu-h", "auto", "--method", "raw", "--out-dir", str(out),
    ]) == 0
    assert read_shap_table(out / "mshap.csv").extra_meta["method"] == "raw"


def test_score_matches_library(tmp_path, rng):
    f_path, g_path, expl_f, expl_g, _ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    assert main([
        "score", "--candidate", str(f_path), "--reference", str(g_path),
        "--theta1", "2.5", "--theta2", "6", "--out-dir", str(out),
    ]) == 0
    payload = json.loads((out / "score.json").read_text())
    expected = score_matrices(expl_f.values, expl_g.values, ScoreParams(2.5, 6.0))
    for field in ("score", "direction_score", "relative_value_score", "rank_score",
                  "pct_same_sign", "pct_same_rank"):
        assert payload[field] == getattr(expected, field)


def test_score_self_is_three(tmp_path, rng):
    f_path, _, _, _, _ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    assert main(["score", "--candidate", str(f_path), "--reference", str(f_path),
                 "--out-dir", str(out)]) == 0
    assert json.loads((out / "score.json").read_text())["score"] == 3.0


def test_score_shape_mismatch_reports_the_table_shapes(tmp_path, rng, capsys):
    paths = []
    for n in (1, 2):
        (tmp_path / str(n)).mkdir()
        paths.append(write_pair(tmp_path / str(n), rng, n=n, names=("x1", "x2"))[0])
    out = tmp_path / "out"
    assert main(["score", "--candidate", str(paths[0]), "--reference", str(paths[1]),
                 "--out-dir", str(out)]) == 3
    assert "matrix shapes differ: (1, 2) vs (2, 2)" in capsys.readouterr().err
    assert not out.exists()


def test_score_name_mismatch_reports_the_first_differing_column(tmp_path, rng, capsys):
    paths = []
    for names in (("x1", "x2"), ("x1", "z2")):
        (tmp_path / names[1]).mkdir()
        paths.append(write_pair(tmp_path / names[1], rng, names=names)[0])
    out = tmp_path / "out"
    assert main(["score", "--candidate", str(paths[0]), "--reference", str(paths[1]),
                 "--out-dir", str(out)]) == 3
    assert "feature names disagree at column 1: 'x2' vs 'z2'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_single_cell_and_determinism(tmp_path):
    config = {
        "scenarios": [
            {"y1": "Y1A", "y2": "Y2C", "theta1": 1.5, "theta2": 1.0,
             "n": 30, "background_size": 15, "seed": 7}
        ]
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    body = (out1 / "results.csv").read_text()
    assert body == (out2 / "results.csv").read_text()
    lines = body.strip().splitlines()
    assert len(lines) == 5  # header + 4 methods
    assert lines[0].startswith("scenario,y1,y2,theta1")


def test_simulate_desk_grid_bytes_are_frozen(tmp_path):
    # results.csv of the 108-cell desk grid (18 cells Y2D) at seed 0; a change
    # to these bytes is an output change that CHANGES.md must announce
    out = tmp_path / "out"
    assert main(["simulate", "--seed", "0", "--out-dir", str(out)]) == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == "07e368ce1bb3f99a9c0633092af2259c2f663031e2ec0e5af4fe2e97df141693"


def test_simulate_threads_is_ignored(tmp_path, capsys):
    # 24 cells are three chunks of 8, which a thread pool once ran side by side
    grid = {"y1": ["Y1A", "Y1B"], "theta1": [1.5], "theta2": [1.0, 21.0], "n": 30, "background_size": 15}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": grid, "seed": 3}))
    out = tmp_path / "out"
    runs = []
    for threads in ("1", "4"):
        assert main(["simulate", "--config", str(cfg), "--threads", threads, "--out-dir", str(out)]) == 0
        runs.append((capsys.readouterr().out, (out / "results.csv").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == f"ran 24 scenarios (0 failed) -> {out / 'results.csv'}\n"


def test_simulate_echoed_config_reproduces_run(tmp_path):
    config = {
        "grid": {"y1": ["Y1A"], "y2": ["Y2A", "Y2C"], "theta1": [1.5], "theta2": [1.0],
                 "n": 25, "background_size": 10},
        "seed": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert main(["simulate", "--config", str(out1 / "resolved_config.json"),
                 "--out-dir", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_simulate_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"y1": ["Y1A"]}, "typo_key": 1}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    cfg.write_text(json.dumps({"grid": {"y1": ["Y1A"], "bogus": 2}}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_simulate_wrong_subcommand_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "bench"}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "key, value", [("reference", "exact"), ("enum_limit", 4), ("sampling_permutations", 40)]
)
def test_simulate_removed_oracle_options_are_unknown_keys(tmp_path, capsys, key, value):
    # the oracle is always exact over the pair's columns, so nothing selects it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value, "grid": {"y1": ["Y1A"]}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid", [{"y1": []}, {"y2": []}, {"theta1": ""}, {"theta2": []}],
    ids=["y1", "y2", "theta1", "theta2"],
)
def test_simulate_empty_grid_axis_is_usage_error(tmp_path, capsys, grid):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": grid}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "at least one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bounds, code",
    [([-1e308, 1e308], 3), ([float("-inf"), 1], 3), ([0, float("nan")], 3), ([True, 2], 2)],
    ids=["overflowing-width", "minus-inf", "nan", "boolean"],
)
def test_simulate_bad_covariate_bounds_fail_before_any_work(tmp_path, capsys, bounds, code):
    # json writes the non-finite floats as -Infinity and NaN, which json.load reads back
    config = {"grid": {"y1": ["Y1A"], "y2": ["Y2A"], "theta1": [1.5], "theta2": [1.0],
                       "covariates": [[-1, 1], [-1, 1], bounds]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_simulate_library_parity(tmp_path):
    from mshap import ScenarioSpec, run_grid
    from mshap.simulation import grid_table
    from mshap.simulation import RESULT_COLUMNS
    from mshap.tables import write_records

    config = {"scenarios": [{"y1": "Y1B", "y2": "Y2D", "theta1": 2.5, "theta2": 6.0,
                             "n": 25, "background_size": 10, "seed": 5}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    spec = ScenarioSpec("Y1B", "Y2D", 2.5, 6.0, n=25, background_size=10, seed=5)
    write_records(tmp_path / "lib.csv", RESULT_COLUMNS, grid_table(run_grid([spec])))
    assert (out / "results.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()


def test_bench_writes_records_and_machine_meta(tmp_path):
    config = {"p_values": [2, 3], "n_values": [10], "background_size": 10,
              "n_permutations": 5, "repetitions": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "p,n,method,wall_seconds,per_observation_seconds,error"
    assert len(lines) == 7  # header + 3 methods x 2 p values
    meta = json.loads((out / "bench.meta.json").read_text())
    assert "machine" in meta and "python" in meta
    assert meta["numpy"] == np.__version__
    assert meta["cpu_count"] == os.cpu_count()


def test_bench_writes_a_refused_method_as_a_row_between_its_neighbours(tmp_path, capsys, monkeypatch):
    from mshap import shapley

    monkeypatch.setattr(shapley, "ENUM_LIMIT", 4)
    out = tmp_path / "o"
    argv = ["bench", "--p-values", "2,6", "--n-values", "10", "--background-size", "10",
            "--n-permutations", "5", "--repetitions", "2", "--out-dir", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"5 timings, 1 skipped -> {out / 'bench.csv'}"
    with open(out / "bench.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    methods = ["composition", "exact_enumeration", "permutation_sampling"]
    assert [(r["p"], r["method"]) for r in rows] == [(p, m) for p in ("2", "6") for m in methods]
    skipped = rows[4]
    oracle = "6 features exceeds the enumeration limit of 4 (2**6 coalitions); use sampling"
    assert (skipped["wall_seconds"], skipped["per_observation_seconds"], skipped["error"]) == ("", "", oracle)
    assert all(float(r["wall_seconds"]) > 0 and r["error"] == "" for r in rows if r is not skipped)


def test_bench_zero_rows_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["bench", "--p-values", "2", "--n-values", "0", "--out-dir", str(out)]) == 2
    assert ">= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("option", ["p_values", "n_values"])
def test_bench_empty_value_list_is_usage_error(tmp_path, capsys, monkeypatch, option, source):
    out = tmp_path / "o"
    argv = ["bench", "--out-dir", str(out)]
    if source == "flag":
        argv += ["--" + option.replace("_", "-"), ""]
    elif source == "env":
        monkeypatch.setenv("MSHAP_" + option.upper(), " , ")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: []}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert "at least one value" in capsys.readouterr().err
    assert not out.exists()


def test_bench_enum_limit_is_no_longer_an_option(tmp_path, capsys):
    # the enumeration limit is shapley.ENUM_LIMIT; a flag or config key for it is a usage error
    out = tmp_path / "o"
    assert main(["bench", "--p-values", "30", "--enum-limit", "40", "--out-dir", str(out)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "bench", "enum_limit": 40}))
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert "unknown config keys: enum_limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--threads", "0"), ("--threads", "-5")],
)
def test_simulate_non_positive_counts_are_usage_errors(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    assert main(["simulate", flag, value, "--out-dir", str(out)]) == 2
    assert ">= 1" in capsys.readouterr().err
    assert not out.exists()


def test_summary_data_outputs(tmp_path, rng):
    f_path, g_path, expl_f, expl_g, X = write_pair(tmp_path, rng, n=8)
    out = tmp_path / "out"
    assert main(["combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
                 "--mu-h", "auto", "--out-dir", str(out)]) == 0
    write_value_table(tmp_path / "cov.csv", NAMES, X)
    assert main(["summary-data", "--mshap", str(out / "mshap.csv"),
                 "--covariates", str(tmp_path / "cov.csv"), "--out-dir", str(out)]) == 0

    importance = (out / "importance.csv").read_text().strip().splitlines()
    assert importance[0] == "feature,mean_abs_value"
    weights = [float(line.split(",")[1]) for line in importance[1:]]
    assert weights == sorted(weights, reverse=True)

    table = read_shap_table(out / "mshap.csv")
    obs = (out / "observations.csv").read_text().strip().splitlines()
    assert obs[0] == "row,feature,covariate_value,mshap_value"
    assert len(obs) == 1 + 8 * 3
    # local accuracy restated: per-row records sum (with mu_h) to the prediction
    first = [line for line in obs[1:] if line.split(",")[0] == "0"]
    total = sum(float(line.split(",")[3]) for line in first)
    assert total + table.baseline == pytest.approx(table.predictions[0], rel=1e-12)


def test_summary_data_tied_importance_ordered_by_name(tmp_path):
    from mshap import ShapTable, write_shap_table

    values = np.array([[1.0, -1.0], [-1.0, 1.0]])  # equal mean |value| per column
    write_shap_table(tmp_path / "m.csv", ShapTable(values=values, baseline=0.0, feature_names=("bb", "aa")))
    write_value_table(tmp_path / "cov.csv", ("bb", "aa"), np.zeros((2, 2)))
    out = tmp_path / "out"
    assert main(["summary-data", "--mshap", str(tmp_path / "m.csv"),
                 "--covariates", str(tmp_path / "cov.csv"), "--out-dir", str(out)]) == 0
    lines = (out / "importance.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["aa", "bb"]


def test_summary_data_order_matches_importance_ranks(tmp_path, rng):
    from mshap.scoring import importance_ranks

    f_path, g_path, *_ , X = write_pair(tmp_path, rng, n=10)
    out = tmp_path / "out"
    assert main(["combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
                 "--mu-h", "auto", "--out-dir", str(out)]) == 0
    write_value_table(tmp_path / "cov.csv", NAMES, X)
    assert main(["summary-data", "--mshap", str(out / "mshap.csv"),
                 "--covariates", str(tmp_path / "cov.csv"), "--out-dir", str(out)]) == 0
    mean_abs = np.abs(read_shap_table(out / "mshap.csv").values).mean(axis=0)
    (ranks,) = importance_ranks(mean_abs[None])
    expected_order = [NAMES[j] for j in np.argsort(ranks)]
    lines = (out / "importance.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == expected_order


def _summary_inputs(tmp_path, rng, n, names):
    """An attribution table and a covariate table of n rows, and their arrays."""
    values = rng.uniform(-1, 1, (n, len(names)))
    cov = rng.uniform(-2, 2, (n, len(names)))
    table = ShapTable(
        values=values, baseline=0.5, predictions=0.5 + values.sum(axis=1),
        feature_names=names, prediction_column="prediction",
    )
    write_shap_table(tmp_path / "m.csv", table)
    write_value_table(tmp_path / "x.csv", names, cov)
    argv = ["summary-data", "--mshap", str(tmp_path / "m.csv"), "--covariates", str(tmp_path / "x.csv"),
            "--out-dir", str(tmp_path / "out")]
    return argv, values, cov


def test_observations_across_block_edges_equal_the_whole_long_format(tmp_path, rng, capsys):
    names = ("a", 'b,"c"', "d")
    p = len(names)
    n = 2 * tables._block_rows(4 * p) + 3  # summary-data writes blocks of this many table rows
    argv, values, cov = _summary_inputs(tmp_path, rng, n, names)
    assert main(argv) == 0
    # the reference: the whole long-format columns, built at once
    columns = (np.repeat(np.arange(n), p), np.tile(names, n), cov.ravel(), values.ravel())
    want = "".join(tables._csv_blocks(("row", "feature", "covariate_value", "mshap_value"), [columns]))
    assert (tmp_path / "out" / "observations.csv").read_bytes().decode() == want


def test_summary_data_peaks_below_four_tables(tmp_path, rng, capsys):
    # whole long-format columns and a copy of the read table peaked at 7.0x the array (5.6 MB) here
    argv, values, _ = _summary_inputs(tmp_path, rng, 5_000, tuple(f"x{j + 1}" for j in range(20)))
    code, peak = peak_bytes(lambda: main(argv))
    assert code == 0
    assert peak < 4 * values.nbytes, peak


@pytest.mark.parametrize("n, p", [(3_000, 20), (100_000, 20), (4_097, 7), (5_000, 1)])
def test_blocked_mean_abs_is_the_full_mean_bit_for_bit(rng, n, p):
    # importance.csv is checked against numpy's full mean exactly; the values come as
    # read_shap_table returns them, a view beside the prediction column
    table = rng.standard_normal((n, p + 1)) * 10.0 ** rng.uniform(-8, 8, (n, p + 1))
    assert cli._mean_abs(table[:, :p]).tobytes() == np.abs(table[:, :p]).mean(axis=0).tobytes()


def test_summary_data_peaks_below_its_two_tables_plus_one_block(tmp_path, rng, capsys):
    # the readers' and writers' blocks took about 0.5 MiB here; the full-size np.abs
    # temporary of the column means took 3 MiB more
    argv, values, cov = _summary_inputs(tmp_path, rng, 20_000, tuple(f"x{j + 1}" for j in range(20)))
    code, peak = peak_bytes(lambda: main(argv))
    assert code == 0
    parsed = values.nbytes + values[:, 0].nbytes + cov.nbytes  # the attribution table holds the predictions too
    assert peak < parsed + 2**20, peak
    means = np.abs(values).mean(axis=0)
    lines = (tmp_path / "out" / "importance.csv").read_text().splitlines()[1:]
    assert sorted(float(line.split(",")[1]) for line in lines) == sorted(means.tolist())


def test_summary_data_misalignment_exits_3(tmp_path, rng):
    f_path, g_path, *_ , X = write_pair(tmp_path, rng, n=8)
    out = tmp_path / "out"
    assert main(["combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
                 "--mu-h", "auto", "--out-dir", str(out)]) == 0
    write_value_table(tmp_path / "cov.csv", NAMES, X[:4])
    assert main(["summary-data", "--mshap", str(out / "mshap.csv"),
                 "--covariates", str(tmp_path / "cov.csv"), "--out-dir", str(out)]) == 3


def _write_repeated_names(tmp_path, stem):
    path = tmp_path / f"{stem}.csv"
    path.write_text("x1,x1,prediction\n1,2,3.5\n0.5,-1,1\n")
    path.with_name(f"{stem}.meta.json").write_text('{"baseline": 0.5, "prediction_column": "prediction"}')
    return path


@pytest.mark.parametrize("subcommand", ["combine", "summary-data"])
def test_repeated_feature_names_exit_3_before_any_out_dir(tmp_path, capsys, subcommand):
    # two columns of one name used to pass and give importance.csv two x1 rows
    first, second = _write_repeated_names(tmp_path, "a"), _write_repeated_names(tmp_path, "b")
    out = tmp_path / "out"
    if subcommand == "combine":
        argv = ["combine", "--f-shap", str(first), "--g-shap", str(second), "--mu-h", "auto"]
    else:
        argv = ["summary-data", "--mshap", str(first), "--covariates", str(second)]
    assert main(argv + ["--out-dir", str(out)]) == 3
    assert "repeats the column name 'x1'" in capsys.readouterr().err
    assert not out.exists()


def test_failed_bench_leaves_no_out_dir(tmp_path, capsys, monkeypatch):
    from mshap import InvalidInputError, cli

    def failing(**kwargs):
        raise InvalidInputError("bench failed")

    monkeypatch.setattr(cli, "bench_scaling", failing)
    out = tmp_path / "o"
    assert main(["bench", "--p-values", "2", "--n-values", "10", "--out-dir", str(out)]) == 3
    assert "bench failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "error",
    [MemoryError("Unable to allocate 48.8 GiB for an array with shape (3, 65536, 100000)"), MemoryError()],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_3_with_one_error_line(tmp_path, capsys, monkeypatch, error):
    from mshap import cli

    def exhausted(**kwargs):
        raise error

    monkeypatch.setattr(cli, "bench_scaling", exhausted)
    out = tmp_path / "o"
    assert main(["bench", "--p-values", "16", "--n-values", "100000", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {str(error) or 'out of memory'}\n"
    assert not out.exists()


def test_missing_required_flag_is_usage_error(tmp_path):
    assert main(["combine", "--g-shap", "g.csv", "--out-dir", str(tmp_path)]) == 2


def test_bad_method_is_usage_error(tmp_path, rng):
    f_path, g_path, *_ = write_pair(tmp_path, rng)
    assert main(["combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
                 "--method", "harmonic", "--out-dir", str(tmp_path / "o")]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_console_entry_subprocess(tmp_path):
    # one end-to-end subprocess run to pin the installed entry point and exit code
    proc = subprocess.run(
        [sys.executable, "-m", "mshap", "score", "--candidate", "missing.csv",
         "--reference", "missing.csv", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "error:" in proc.stderr
    proc = subprocess.run([sys.executable, "-m", "mshap"], capture_output=True, text=True)
    assert proc.returncode == 2


# Outputs of the parent revision's per-cell writers for the fixed input below.
FROZEN_OUTPUTS = {
    "mshap.csv": (
        'x1,x2,x3,prediction\n'
        '-58688.117448430174,-791.63120228107027,-2242.7645468513274,12.386245545737321\n'
        '-7091.5973953024286,-4.1815883287891483e-05,-54634.673434556396,8.6285714335939172\n'
        '30863.914772474323,92591.119329789508,-6.2500330265591639,185183.6835123456\n'
    ),
    "importance.csv": 'feature,mean_abs_value\nx1,32214.543205402308\nx2,31127.583524628819\nx3,18961.229338144763\n',
    "observations.csv": (
        'row,feature,covariate_value,mshap_value\n'
        '0,x1,1.7976931348623157e+308,-58688.117448430174\n'
        '0,x2,-0,-791.63120228107027\n'
        '0,x3,4.9406564584124654e-324,-2242.7645468513274\n'
        '1,x1,0.33333333333333331,-7091.5973953024286\n'
        '1,x2,2.7182818284590451,-4.1815883287891483e-05\n'
        '1,x3,-7,-54634.673434556396\n'
        '2,x1,9007199254740992,30863.914772474323\n'
        '2,x2,1e+22,92591.119329789508\n'
        '2,x3,-9.9999999999999995e-08,-6.2500330265591639\n'
    ),
}


def test_combine_and_summary_data_bytes_are_frozen(tmp_path):
    names = ("x1", "x2", "x3")
    f = np.array([[math.pi, -1.0 / 3.0, 5e-324], [0.1, 2.0**-30, -0.0], [1e-300, 123456.789, -2.5]])
    g = np.array([[0.5, 0.25, -0.125], [1.0 / 7.0, -0.0, 3.0], [0.75, -1.5, 1e-10]])
    for name, values, base in (("f", f, 1.5), ("g", g, 2.25)):
        table = ShapTable(
            values=values,
            baseline=base,
            predictions=base + values.sum(axis=1),
            feature_names=names,
            prediction_column="prediction",
        )
        write_shap_table(tmp_path / f"{name}.csv", table)
    cov = np.array([[1.7976931348623157e308, -0.0, 5e-324], [1.0 / 3.0, math.e, -7.0],
                    [2.0**53 + 1.0, 1e22, -1e-7]])
    write_value_table(tmp_path / "cov.csv", names, cov)
    out = tmp_path / "o"
    assert main(["combine", "--f-shap", str(tmp_path / "f.csv"), "--g-shap", str(tmp_path / "g.csv"),
                 "--mu-h", "auto", "--out-dir", str(out)]) == 0
    assert main(["summary-data", "--mshap", str(out / "mshap.csv"),
                 "--covariates", str(tmp_path / "cov.csv"), "--out-dir", str(out)]) == 0
    for name, text in FROZEN_OUTPUTS.items():
        assert (out / name).read_text() == text, name


def test_every_output_file_is_written_through_the_tables_module(tmp_path, rng, monkeypatch):
    from mshap import tables

    f_path, g_path, *_, X = write_pair(tmp_path, rng, n=8)
    write_value_table(tmp_path / "cov.csv", NAMES, X)
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({"scenarios": [{"y1": "Y1A", "y2": "Y2A", "theta1": 1.5, "theta2": 1.0,
                                              "n": 10, "background_size": 5}]}))
    written = []
    original = tables._atomic_write_text

    def record(path, text):
        written.append(Path(path))
        original(path, text)

    monkeypatch.setattr(tables, "_atomic_write_text", record)
    runs = tmp_path / "runs"
    calls = {
        "combine": ["--f-shap", str(f_path), "--g-shap", str(g_path)],
        "score": ["--candidate", str(f_path), "--reference", str(g_path)],
        "simulate": ["--config", str(sim)],
        "bench": ["--p-values", "2", "--n-values", "5", "--background-size", "5",
                  "--n-permutations", "3", "--repetitions", "1"],
        "summary-data": ["--mshap", str(runs / "combine" / "mshap.csv"), "--covariates", str(tmp_path / "cov.csv")],
    }
    for name, args in calls.items():
        assert main([name, *args, "--out-dir", str(runs / name)]) == 0, name
    files = {path for path in runs.rglob("*") if path.is_file()}
    assert len(files) == 13
    assert files == set(written)


_SMALL_CELL = {"y1": "Y1A", "y2": "Y2C", "theta1": 1.5, "theta2": 1.0, "n": 20, "background_size": 10}
_SMALL_GRID = {"y1": ["Y1A"], "y2": ["Y2C"], "theta1": [1.5], "theta2": [1.0], "n": 20, "background_size": 10}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"scenarios": [{"y1": "Y1A", "y2": "Y2A", "theta1": 1.5, "theta2": 1.0, "n": "abc"}]},
         "scenario 0: n: expected an integer, got 'abc'"),
        ({"scenarios": [{"y1": "Y1A", "y2": "Y2A", "theta1": "abc", "theta2": 1.0}]},
         "scenario 0: theta1: expected a number, got 'abc'"),
        ({"scenarios": [{"y1": "Y1A", "y2": "Y2A", "theta1": 1.5, "theta2": 1.0, "seed": -1}]},
         "scenario 0: seed: expected an integer >= 0, got -1"),
        ({"grid": {"theta1": "abc"}}, "grid: theta1: expected a number, got 'abc'"),
        ({"grid": {"y1": 5}}, "grid: y1: expected a list of at least one value, got 5"),
        ({"grid": {"n": [20]}}, "grid: n: expected an integer, got [20]"),
        ({"scenarios": [{**_SMALL_CELL, "y1": ["Y1A"]}]}, "scenario 0: y1: expected a string, got ['Y1A']"),
        ({"scenarios": [{**_SMALL_CELL, "y2": 5}]}, "scenario 0: y2: expected a string, got 5"),
        ({"scenarios": [{**_SMALL_CELL, "y1": None}]}, "scenario 0: missing key 'y1'"),
        ({"scenarios": [_SMALL_CELL, {**_SMALL_CELL, "theta2": None}]}, "scenario 1: missing key 'theta2'"),
        ({"grid": {**_SMALL_GRID, "y1": [["Y1A"]]}}, "grid: y1: expected a string, got ['Y1A']"),
        ({"grid": {**_SMALL_GRID, "seed": 3}}, "grid: unknown keys: seed"),
        ({"grid": []}, "grid must be an object"),
    ],
    ids=["scenario-n", "scenario-theta1", "scenario-seed", "grid-theta1", "grid-y1", "grid-n",
         "scenario-list-id", "scenario-number-id", "scenario-null-id", "second-scenario-null-theta2",
         "grid-nested-id", "grid-seed", "grid-not-object"],
)
def test_simulate_malformed_config_is_usage_error(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_config_keys_are_the_library_names():
    # a cell is ScenarioSpec(**fields) and a grid is default_grid(grid_seed=seed, **fields)
    from mshap import ScenarioSpec, default_grid
    from mshap.cli import _CELL, _GRID

    spec_fields = dataclasses.fields(ScenarioSpec)
    assert {opt.name for opt in _CELL} == {f.name for f in spec_fields}
    no_default = {f.name for f in spec_fields if f.default is f.default_factory is dataclasses.MISSING}
    assert {opt.name for opt in _CELL if opt.required} == no_default
    assert {opt.name for opt in _GRID} == set(inspect.signature(default_grid).parameters) - {"grid_seed"}
    assert not any(opt.required for opt in _GRID)


def _simulate_bytes(tmp_path, config, name):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return (out / "results.csv").read_bytes()


@pytest.mark.parametrize(
    "section, key",
    [("scenarios", "n"), ("scenarios", "background_size"), ("scenarios", "seed"), ("scenarios", "covariates"),
     ("grid", "n"), ("grid", "y1"), ("grid", "theta2"), ("grid", "covariates")],
)
def test_simulate_null_is_an_absent_key(tmp_path, section, key):
    # the library default applies: n = 100 and background_size = 100 go together
    base = dict(_SMALL_CELL if section == "scenarios" else _SMALL_GRID, seed=4)
    if section == "grid":
        del base["seed"]
    if key in ("n", "background_size"):
        del base["n"], base["background_size"]
    with_null, without = {**base, key: None}, {k: v for k, v in base.items() if k != key}

    def config(fields):
        return {"scenarios": [fields]} if section == "scenarios" else {"grid": fields}

    assert _simulate_bytes(tmp_path, config(with_null), "null") == _simulate_bytes(tmp_path, config(without), "absent")


def test_a_path_in_a_config_must_be_a_string(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"candidate": 5, "reference": "r.csv", "out_dir": str(tmp_path / "o")}))
    assert main(["score", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: expected a string, got 5\n"
    assert not (tmp_path / "o").exists()


def test_simulate_grid_string_is_a_list_not_characters(tmp_path):
    config = {"grid": {"y1": "Y1A", "y2": ["Y2A"], "theta1": "15", "theta2": [1.0],
                       "n": 20, "background_size": 10}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert {line.split(",")[header.index("theta1")] for line in lines[1:]} == {"15"}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1"],
        ["bench", "--seed", "-3"],
        ["bench", "--p-values", "0"],
        ["bench", "--p-values", "2,0"],
        ["bench", "--background-size", "0"],
        ["bench", "--n-permutations", "0"],
        ["bench", "--repetitions", "0"],
        ["combine", "--threads", "-4"],
    ],
    ids=lambda argv: "_".join(argv).lstrip("-"),
)
def test_counts_and_seeds_out_of_range_are_usage_errors(tmp_path, rng, capsys, argv):
    f_path, g_path, *_ = write_pair(tmp_path, rng)
    small = {
        "simulate": ["--threads", "1"],
        "bench": ["--p-values", "2", "--n-values", "5", "--background-size", "5",
                  "--n-permutations", "3", "--repetitions", "1"],
        "combine": ["--f-shap", str(f_path), "--g-shap", str(g_path)],
    }[argv[0]]
    out = tmp_path / "o"
    # the flag under test comes last, so it overrides the small defaults
    assert main([argv[0], *small, *argv[1:], "--out-dir", str(out)]) == 2
    assert ">= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, code",
    [("table", 3), ("sidecar", 3), ("config", 2)],
)
def test_non_utf8_input_is_a_typed_error(tmp_path, rng, capsys, bad, code):
    f_path, g_path, _, _, _ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    if bad == "table":
        f_path.write_bytes(b"a,b\n\xff,1\n")
    elif bad == "sidecar":
        f_path.with_name("f.meta.json").write_bytes(b'{"baseline": 0.0, "note": "\xff"}')
    if bad == "config":
        config = tmp_path / "bad.json"
        config.write_bytes(b'{"seed": "\xff"}')
        argv = ["simulate", "--config", str(config), "--out-dir", str(out)]
    else:
        argv = ["score", "--candidate", str(f_path), "--reference", str(g_path), "--out-dir", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8 text" in err
    assert not (out / "score.json").exists() and not (out / "results.csv").exists()


BIG = "1" + "0" * 400  # a JSON integer past float range


def _assert_one_error_line(capsys, text):
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and text in line


def test_a_sidecar_baseline_past_float_range_exits_3(tmp_path, rng, capsys):
    f_path, g_path, _, _, _ = write_pair(tmp_path, rng)
    f_path.with_name("f.meta.json").write_text('{"baseline": %s}' % BIG)
    out = tmp_path / "out"
    assert main(["score", "--candidate", str(f_path), "--reference", str(g_path), "--out-dir", str(out)]) == 3
    _assert_one_error_line(capsys, "baseline must be a finite number")
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, config",
    [("score", '{"theta1": %s}' % BIG),
     ("combine", '{"mu_h": %s}' % BIG),
     ("simulate", '{"grid": {"theta2": [1.0, %s]}}' % BIG),
     ("simulate", '{"grid": {"covariates": [[0, %s], [0, 1], [0, 1]]}}' % BIG)],
    ids=["theta1", "mu_h", "grid-theta2", "covariates"],
)
def test_a_config_number_past_float_range_exits_2(tmp_path, rng, capsys, subcommand, config):
    f_path, g_path, _, _, _ = write_pair(tmp_path, rng)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    inputs = {"score": ["--candidate", str(f_path), "--reference", str(g_path)],
              "combine": ["--f-shap", str(f_path), "--g-shap", str(g_path)], "simulate": []}[subcommand]
    out = tmp_path / "out"
    assert main([subcommand, *inputs, "--config", str(cfg), "--out-dir", str(out)]) == 2
    _assert_one_error_line(capsys, "expected a number")
    assert not out.exists()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-to-str digit limit")
@pytest.mark.parametrize("bad, code", [("config", 2), ("sidecar", 3)])
def test_an_integer_past_the_digit_limit_is_a_typed_error(tmp_path, rng, capsys, bad, code):
    f_path, g_path, _, _, _ = write_pair(tmp_path, rng)
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    cfg = tmp_path / "cfg.json"
    if bad == "config":
        cfg.write_text('{"theta1": %s}' % huge)
    else:
        cfg.write_text("{}")
        f_path.with_name("f.meta.json").write_text('{"baseline": %s}' % huge)
    out = tmp_path / "out"
    argv = ["score", "--candidate", str(f_path), "--reference", str(g_path), "--config", str(cfg)]
    assert main([*argv, "--out-dir", str(out)]) == code
    _assert_one_error_line(capsys, "invalid JSON")
    assert not out.exists()


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("bom_on", ["covariates", "table", "sidecar", "config"])
def test_a_byte_order_mark_is_not_read_as_data(tmp_path, rng, bom_on):
    # spreadsheets save "CSV UTF-8" with a leading U+FEFF, which must not
    # become part of the first name or break the JSON parser
    f_path, g_path, _, _, X = write_pair(tmp_path, rng, n=8)
    covariates, config = tmp_path / "cov.csv", tmp_path / "cfg.json"
    write_value_table(covariates, NAMES, X)
    cell = {"y1": "Y1A", "y2": "Y2D", "theta1": 1.5, "theta2": 1.0, "n": 10, "background_size": 5, "seed": 1}
    config.write_text(json.dumps({"scenarios": [cell]}))
    argv, target = {
        "covariates": (["summary-data", "--mshap", str(f_path), "--covariates", str(covariates)], covariates),
        "table": (["score", "--candidate", str(f_path), "--reference", str(g_path)], f_path),
        "sidecar": (["score", "--candidate", str(f_path), "--reference", str(g_path)],
                    f_path.with_name("f.meta.json")),
        "config": (["simulate", "--config", str(config)], config),
    }[bom_on]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main([*argv, "--out-dir", str(plain)]) == 0
    target.write_bytes(BOM + target.read_bytes())
    assert main([*argv, "--out-dir", str(marked)]) == 0
    outputs = sorted(path.name for path in plain.iterdir())
    assert outputs == sorted(path.name for path in marked.iterdir())
    for name in outputs:
        body = (marked / name).read_bytes()
        assert not body.startswith(BOM)  # writers stay BOM-free
        if name != "resolved_config.json":  # it echoes --out-dir
            assert body == (plain / name).read_bytes()


@pytest.mark.parametrize(
    "subcommand, first, second",
    [("combine", "--f-shap", "--g-shap"), ("score", "--candidate", "--reference"),
     ("summary-data", "--mshap", "--covariates")],
    ids=["combine", "score", "summary-data"],
)
def test_unreadable_input_leaves_no_out_dir(tmp_path, rng, capsys, subcommand, first, second):
    # the second input is the bad one, so the first is read before the failure
    f_path, g_path, _, _, _ = write_pair(tmp_path, rng)
    g_path.write_bytes(b"a,b\n\xff,1\n")
    out = tmp_path / "out"
    argv = [subcommand, first, str(f_path), second, str(g_path), "--out-dir", str(out)]
    assert main(argv) == 3
    assert "not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_score_infinite_theta_is_rejected(tmp_path, rng, capsys):
    f_path, g_path, _, _, _ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    assert main([
        "score", "--candidate", str(f_path), "--reference", str(g_path),
        "--theta1", "inf", "--out-dir", str(out),
    ]) == 3
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_regenerated_fixtures_equal_the_committed_ones(tmp_path):
    fixtures = Path(__file__).resolve().parent / "fixtures"
    pythonpath = [str(fixtures.parent.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [sys.executable, str(fixtures / "regenerate.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    committed = sorted(p.name for p in fixtures.iterdir() if p.suffix in (".csv", ".json"))
    assert len(committed) == 17
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (fixtures / name).read_bytes(), name


def test_an_oversized_csv_field_exits_3_with_one_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1," + "1" * 200_000 + "\n")
    (tmp_path / "bad.meta.json").write_text('{"baseline": 0.0}')
    out = tmp_path / "out"
    assert main(["score", "--candidate", str(bad), "--reference", str(bad), "--out-dir", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad}: ") and "field larger than field limit" in line
    assert not out.exists()


def test_an_out_dir_that_names_a_file_is_a_usage_error(tmp_path, rng, capsys):
    f_path, g_path, *_ = write_pair(tmp_path, rng)
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    code = main(["combine", "--f-shap", str(f_path), "--g-shap", str(g_path), "--out-dir", str(out)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: cannot create output directory {out}: File exists"
    assert out.read_text() == "keep me\n"


def test_a_failed_sidecar_write_exits_3_and_leaves_no_table(tmp_path, rng, capsys):
    f_path, g_path, *_ = write_pair(tmp_path, rng)
    out = tmp_path / "out"
    (out / "mshap.meta.json").mkdir(parents=True)
    argv = ["combine", "--f-shap", str(f_path), "--g-shap", str(g_path), "--mu-h", "auto", "--out-dir", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out / 'mshap.meta.json'}: Is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == ["mshap.meta.json"]


@pytest.mark.parametrize("subcommand", ["combine", "simulate"])
def test_a_failed_output_write_exits_3_with_one_error_line(tmp_path, rng, capsys, subcommand):
    out = tmp_path / "out"
    if subcommand == "combine":
        f_path, g_path, *_ = write_pair(tmp_path, rng)
        argv = ["combine", "--f-shap", str(f_path), "--g-shap", str(g_path), "--mu-h", "auto"]
        blocked = out / "mshap.csv"
    else:
        cfg = tmp_path / "cfg.json"
        cell = {"y1": "Y1A", "y2": "Y2C", "theta1": 1.5, "theta2": 1.0, "n": 30, "background_size": 15, "seed": 7}
        cfg.write_text(json.dumps({"scenarios": [cell]}))
        argv = ["simulate", "--config", str(cfg)]
        blocked = out / "results.csv"
    # a directory where the output file goes: the rename over it fails
    blocked.mkdir(parents=True)
    (blocked / "kept").write_text("old")
    assert main(argv + ["--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == f"error: cannot write {blocked}: Is a directory\n"
    assert (blocked / "kept").read_text() == "old"
    assert not list(out.glob("*.tmp"))


_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")
_ORACLE_RUNS = {
    "simulate": ["simulate", "--seed", "0"],  # the 108-cell desk grid
    "bench": ["bench", "--p-values", "8,10", "--n-values", "50", "--repetitions", "1"],
}
# calls main twice in one process and prints the minor page faults of the second call
_SECOND_CALL_FAULTS = """
import resource, sys
from mshap.cli import main
argv, out = sys.argv[1:-1], sys.argv[-1]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main([*argv, "--out-dir", out]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap trimming is set through glibc's mallopt")
@pytest.mark.parametrize("command", sorted(_ORACLE_RUNS))
def test_a_second_oracle_run_faults_in_almost_no_pages(tmp_path, command):
    # with glibc's default trimming the second desk-grid run took about 5,000-11,000
    # minor faults and the small bench about 2,300: the freed heap was faulted back in
    env = {k: v for k, v in os.environ.items() if k not in _MALLOC_ENV}
    proc = subprocess.run(
        [sys.executable, "-c", _SECOND_CALL_FAULTS, *_ORACLE_RUNS[command], str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 1_000


class _Libc:
    """A C library stand-in whose mallopt records its calls."""

    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def mallopt_calls(monkeypatch):
    calls = []
    for name in _MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: _Libc(calls))
    return calls


def _one_cell_simulate(tmp_path, out):
    cfg = tmp_path / "cell.json"
    cell = {"y1": "Y1A", "y2": "Y2C", "theta1": 1.5, "theta2": 1.0, "n": 30, "background_size": 15, "seed": 7}
    cfg.write_text(json.dumps({"scenarios": [cell]}))
    return ["simulate", "--config", str(cfg), "--out-dir", str(out)]


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_the_oracle_commands_keep_their_freed_heap(tmp_path, capsys, mallopt_calls, command):
    if command == "simulate":
        argv = _one_cell_simulate(tmp_path, tmp_path / "out")
    else:
        argv = ["bench", "--p-values", "2", "--n-values", "10", "--repetitions", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert mallopt_calls == [(-3, SPLICE_BUDGET_BYTES // 2), (-1, SPLICE_BUDGET_BYTES)]


def test_the_table_commands_and_the_library_leave_the_heap_alone(tmp_path, rng, capsys, mallopt_calls):
    from mshap import ScenarioSpec, run_grid

    f_path, g_path, *_ = write_pair(tmp_path, rng)
    assert main(["combine", "--f-shap", str(f_path), "--g-shap", str(g_path), "--out-dir", str(tmp_path / "c")]) == 0
    assert main(["score", "--candidate", str(f_path), "--reference", str(g_path), "--out-dir", str(tmp_path / "s")]) == 0
    argv, _, _ = _summary_inputs(tmp_path, rng, 5, NAMES)
    assert main(argv) == 0
    run_grid([ScenarioSpec("Y1A", "Y2C", 1.5, 1.0, n=20, background_size=10, seed=1)])
    assert mallopt_calls == []


@pytest.mark.parametrize("setting", [*_MALLOC_ENV, "other libc"])
def test_a_malloc_setting_or_another_libc_suppresses_the_call(tmp_path, capsys, monkeypatch, mallopt_calls, setting):
    if setting == "other libc":
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
    else:
        monkeypatch.setenv(setting, "glibc.malloc.trim_threshold=131072" if setting == "GLIBC_TUNABLES" else "131072")
    assert main(_one_cell_simulate(tmp_path, tmp_path / "out")) == 0
    assert mallopt_calls == []


def test_a_libc_without_mallopt_changes_no_output(tmp_path, capsys, monkeypatch, mallopt_calls):
    assert main(_one_cell_simulate(tmp_path, tmp_path / "with")) == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert main(_one_cell_simulate(tmp_path, tmp_path / "without")) == 0
    assert len(mallopt_calls) == 2
    assert (tmp_path / "with" / "results.csv").read_bytes() == (tmp_path / "without" / "results.csv").read_bytes()
