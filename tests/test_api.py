"""The package namespace holds what the demos, the README and the CLI use."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mshap
from mshap.cli import OPTIONS
from mshap.scoring import importance_ranks
from mshap.shapley import explain_product

PUBLIC = [
    # types
    "AlphaMethod", "CovariateSpec", "ModelFunction", "MshapExplanation",
    "ScenarioSpec", "ScoreParams", "ShapExplanation", "ShapTable",
    # errors
    "DimensionError", "EnumerationLimitError", "InvalidInputError", "MshapError",
    "ResampleLimitError", "TableFormatError",
    # functions
    "additive_model", "baseline", "bench_scaling", "combine", "default_grid",
    "explain_matrix", "explanation_to_table", "linear_combine_explanations",
    "linear_combine_mshap", "mean_product_baseline", "mean_scores_by_method",
    "product_model", "read_shap_table", "read_value_table", "run_grid",
    "run_scenario", "sampling_explain_matrix", "score_matrices",
    "validate_local_accuracy", "write_shap_table", "write_value_table",
]


def test_public_names_are_exactly_the_used_ones():
    assert len(PUBLIC) == 35
    assert sorted(mshap.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(mshap, name) is not None, name


def test_every_attribution_result_is_a_shap_explanation(tmp_path):
    f = mshap.additive_model([1.0, -2.0])
    g = mshap.additive_model([0.5, 3.0], intercept=2.0)
    X = np.array([[0.5, 1.0], [-1.0, 2.0]])
    expl_f = mshap.explain_matrix(f, X, X)
    expl_g = mshap.sampling_explain_matrix(g, X, X, n_permutations=2, seed=0)
    combined = mshap.combine(expl_f, expl_g, 1.0)
    mshap.write_shap_table(tmp_path / "f.csv", mshap.explanation_to_table(expl_f))
    read = mshap.read_shap_table(tmp_path / "f.csv")
    for expl in (expl_f, expl_g, combined, read):
        assert isinstance(expl, mshap.ShapExplanation)
        assert mshap.validate_local_accuracy(expl, 1e-9).passed


def test_comparing_two_equal_explanations_gives_a_bool(tmp_path):
    # array fields make a field-wise __eq__ raise; equality is identity instead
    f = mshap.additive_model([1.0, -2.0])
    g = mshap.additive_model([0.5, 3.0], intercept=2.0)
    X = np.array([[0.5, 1.0], [-1.0, 2.0]])
    mshap.write_shap_table(tmp_path / "f.csv", mshap.explanation_to_table(mshap.explain_matrix(f, X, X)))
    builds = {
        "ShapExplanation": lambda: mshap.explain_matrix(f, X, X),
        "SamplingExplanation": lambda: mshap.sampling_explain_matrix(g, X, X, n_permutations=2, seed=0),
        "MshapExplanation": lambda: mshap.combine(
            mshap.explain_matrix(f, X, X), mshap.explain_matrix(g, X, X), 1.0
        ),
        "ShapTable": lambda: mshap.read_shap_table(tmp_path / "f.csv"),
    }
    for name, build in builds.items():
        a, b = build(), build()
        assert type(a).__name__ == name
        assert np.array_equal(a.values, b.values), name
        assert (a == b) is False, name
        assert (a == a) is True, name
        assert (a != b) is True, name


# adding an option or a parameter back is an edit to these two tables
OPTION_NAMES = {
    "combine": ["config", "out_dir", "f_shap", "g_shap", "mu_h", "method", "threads"],
    "score": ["config", "out_dir", "candidate", "reference", "theta1", "theta2"],
    "simulate": ["config", "out_dir", "seed", "threads", "grid", "scenarios"],
    "bench": ["config", "out_dir", "seed", "p_values", "n_values", "background_size",
              "n_permutations", "repetitions"],
    "summary-data": ["config", "out_dir", "mshap", "covariates"],
}

PARAMETERS = {
    mshap.explain_matrix: ["model", "X", "background", "feature_names"],
    explain_product: ["f", "g", "X", "background"],
    mshap.sampling_explain_matrix: ["model", "X", "background", "n_permutations", "seed"],
    mshap.bench_scaling: ["p_values", "n_values", "background_size", "seed", "n_permutations",
                          "repetitions"],
    mshap.default_grid: ["grid_seed", "n", "background_size", "theta1", "theta2", "covariates", "y1", "y2"],
    mshap.explanation_to_table: ["expl", "extra_meta"],
    mshap.score_matrices: ["candidate", "reference", "params"],
    mshap.run_grid: ["specs"],
}


def test_cli_option_names_are_pinned():
    assert {name: [opt.name for opt in opts] for name, opts in OPTIONS.items()} == OPTION_NAMES


def test_function_parameter_names_are_pinned():
    for fn, names in PARAMETERS.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__
    # keyword-only, so an argument meant for a removed parameter cannot bind to them
    for fn, name in ((mshap.explain_matrix, "feature_names"), (mshap.explanation_to_table, "extra_meta")):
        assert inspect.signature(fn).parameters[name].kind is inspect.Parameter.KEYWORD_ONLY


def test_importing_the_cli_loads_neither_openssl_nor_a_thread_pool():
    # secrets loads OpenSSL through hashlib, and concurrent.futures and
    # statistics cost milliseconds per process that a serial run never uses
    code = "import sys, mshap.cli; print(sorted({'_hashlib', 'concurrent.futures', 'statistics'} & set(sys.modules)))"
    src = str(Path(mshap.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


CUBE, BACKGROUND, PARAMS = np.ones((2, 2, 2)), np.ones((3, 2)), mshap.ScoreParams(1.5, 1.0)
SHAPE_CASES = {
    "explain_matrix 3-D instances": lambda model, _: mshap.explain_matrix(model, CUBE, BACKGROUND),
    "explain_product 3-D instances": lambda model, _: explain_product(model, model, CUBE, BACKGROUND),
    "sampler 3-D instances": lambda model, _: mshap.sampling_explain_matrix(model, CUBE, BACKGROUND, 4, 0),
    "explain_matrix 1-D instance": lambda model, _: mshap.explain_matrix(model, np.ones(2), BACKGROUND),
    "ShapExplanation 1-D values": lambda *_: mshap.ShapExplanation([1.0, 2.0], 0.0, [3.0]),
    "ShapTable 1-D values": lambda *_: mshap.ShapTable(values=[1.0, 2.0], baseline=0.0),
    "(n, 1) predictions": lambda *_: mshap.ShapExplanation(np.ones((2, 2)), 0.0, [[2.0], [2.0]]),
    "write_value_table 1-D values": lambda _, out: mshap.write_value_table(out / "v.csv", ("a", "b"), [1.0, 2.0]),
    "score_matrices 1-D pair": lambda *_: mshap.score_matrices([1.0, 2.0], [1.0, 2.0], PARAMS),
    "mean_product_baseline (2, 2) vs (4,)": lambda *_: mshap.mean_product_baseline(np.ones((2, 2)), np.ones(4)),
    "importance_ranks 1-D row": lambda *_: importance_ranks([1.0, 2.0]),
}


@pytest.mark.parametrize("case", SHAPE_CASES)
def test_a_matrix_argument_is_2d_and_a_prediction_vector_1d(tmp_path, case):
    # each of these shapes used to be reshaped into a matrix or a vector, or, for a 3-D
    # instance array or a 1-D row to rank, to fail with an untyped ValueError
    calls = []
    model = mshap.ModelFunction(2, lambda X: calls.append(len(X)) or X[:, 0] * X[:, 1])
    with pytest.raises(mshap.DimensionError):
        SHAPE_CASES[case](model, tmp_path)
    assert calls == [] and list(tmp_path.iterdir()) == []
