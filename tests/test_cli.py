import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mshap import (
    AlphaMethod,
    ScoreParams,
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
from mshap.cli import main
from parts import make_parts

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
    from mshap.cli import RESULT_COLUMNS
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


def test_bench_zero_rows_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["bench", "--p-values", "2", "--n-values", "0", "--out-dir", str(out)]) == 2
    assert ">= 1" in capsys.readouterr().err
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
    ranks = importance_ranks(mean_abs)
    expected_order = [NAMES[j] for j in np.argsort(ranks)]
    lines = (out / "importance.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == expected_order


def test_summary_data_misalignment_exits_3(tmp_path, rng):
    f_path, g_path, *_ , X = write_pair(tmp_path, rng, n=8)
    out = tmp_path / "out"
    assert main(["combine", "--f-shap", str(f_path), "--g-shap", str(g_path),
                 "--mu-h", "auto", "--out-dir", str(out)]) == 0
    write_value_table(tmp_path / "cov.csv", NAMES, X[:4])
    assert main(["summary-data", "--mshap", str(out / "mshap.csv"),
                 "--covariates", str(tmp_path / "cov.csv"), "--out-dir", str(out)]) == 3


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


@pytest.mark.parametrize(
    "config",
    [
        {"scenarios": [{"y1": "Y1A", "y2": "Y2A", "theta1": 1.5, "theta2": 1.0, "n": "abc"}]},
        {"scenarios": [{"y1": "Y1A", "y2": "Y2A", "theta1": "abc", "theta2": 1.0}]},
        {"scenarios": [{"y1": "Y1A", "y2": "Y2A", "theta1": 1.5, "theta2": 1.0, "seed": -1}]},
        {"grid": {"theta1": "abc"}},
        {"grid": {"y1": 5}},
        {"grid": {"n": [20]}},
    ],
    ids=["scenario-n", "scenario-theta1", "scenario-seed", "grid-theta1", "grid-y1", "grid-n"],
)
def test_simulate_malformed_config_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
