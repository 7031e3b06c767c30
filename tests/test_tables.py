import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mshap import (
    DimensionError,
    ShapExplanation,
    ShapTable,
    TableFormatError,
    explanation_to_table,
    fmt17,
    read_shap_table,
    read_value_table,
    write_shap_table,
    write_value_table,
)
from mshap.tables import meta_path

NASTY = [math.pi, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -0.0, 1.0, -123456.789, 2**53 + 1.0]


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt17_round_trips_floats(x):
    assert float(fmt17(x)) == x


def test_round_trip_preserves_exact_values(tmp_path):
    values = np.array([NASTY, NASTY[::-1]])
    table = ShapTable(tuple(f"c{i}" for i in range(values.shape[1])), values, baseline=math.pi)
    path = tmp_path / "t.csv"
    write_shap_table(path, table)
    back = read_shap_table(path)
    assert np.array_equal(back.values, values)
    assert back.baseline == math.pi
    assert back.feature_names == table.feature_names


def test_round_trip_with_prediction_column(tmp_path):
    values = np.array([[1.5, -2.5], [0.25, 0.75]])
    preds = np.array([10.0, 20.0])
    table = ShapTable(("a", "b"), values, 3.0, preds, "prediction", {"alpha": 0.5})
    path = tmp_path / "t.csv"
    write_shap_table(path, table)
    back = read_shap_table(path)
    assert back.feature_names == ("a", "b")
    assert np.array_equal(back.values, values)
    assert np.array_equal(back.predictions, preds)
    assert back.prediction_column == "prediction"
    assert back.extra_meta == {"alpha": 0.5}


def test_written_files_and_sidecar_naming(tmp_path):
    path = tmp_path / "expl.csv"
    write_shap_table(path, ShapTable(("x1",), np.array([[1.0]]), 0.0))
    assert path.exists()
    assert (tmp_path / "expl.meta.json").exists()
    assert meta_path(path).name == "expl.meta.json"


def test_dotted_names_keep_separate_sidecars(tmp_path):
    write_shap_table(tmp_path / "run.v1.csv", ShapTable(("x",), np.array([[1.0]]), 1.0))
    write_shap_table(tmp_path / "run.v2.csv", ShapTable(("x",), np.array([[1.0]]), 2.0))
    assert meta_path(tmp_path / "run.v1.csv").name == "run.v1.meta.json"
    assert read_shap_table(tmp_path / "run.v1.csv").baseline == 1.0
    assert read_shap_table(tmp_path / "run.v2.csv").baseline == 2.0


def test_written_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_shap_table(tmp_path / "t.csv", ShapTable(("x",), np.array([[1.0]]), 0.0))
    finally:
        os.umask(old)
    for name in ("t.csv", "t.meta.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644


def test_to_explanation_reconstructs_predictions(tmp_path):
    values = np.array([[1.0, 2.0], [3.0, -1.0]])
    table = ShapTable(("a", "b"), values, baseline=10.0)
    expl = table.to_explanation()
    np.testing.assert_array_equal(expl.predictions, [13.0, 12.0])


def test_explanation_to_table_and_back(tmp_path):
    expl = ShapExplanation(np.array([[0.1, 0.2]]), 1.0, np.array([1.3]), ("u", "v"))
    table = explanation_to_table(expl)
    write_shap_table(tmp_path / "e.csv", table)
    back = read_shap_table(tmp_path / "e.csv")
    assert np.array_equal(back.values, expl.values)
    assert np.array_equal(back.predictions, expl.predictions)


def test_explanation_to_table_default_names():
    expl = ShapExplanation(np.array([[0.1, 0.2, 0.3]]), 0.0, np.array([0.6]))
    assert explanation_to_table(expl).feature_names == ("x1", "x2", "x3")


def test_value_table_round_trip(tmp_path):
    rows = np.array([[1.0, 2.0], [3.5, -0.25]])
    write_value_table(tmp_path / "v.csv", ("p", "q"), rows)
    names, back = read_value_table(tmp_path / "v.csv")
    assert names == ("p", "q")
    assert np.array_equal(back, rows)


def test_read_errors(tmp_path):
    missing_meta = tmp_path / "no_meta.csv"
    missing_meta.write_text("a,b\n1,2\n")
    with pytest.raises(TableFormatError, match="sidecar"):
        read_shap_table(missing_meta)

    with pytest.raises(TableFormatError):
        read_value_table(tmp_path / "absent.csv")

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(TableFormatError, match="empty"):
        read_value_table(empty)

    headless = tmp_path / "only_header.csv"
    headless.write_text("a,b\n")
    with pytest.raises(TableFormatError, match="no data rows"):
        read_value_table(headless)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    with pytest.raises(TableFormatError, match="expected 2 columns"):
        read_value_table(ragged)

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("a,b\n1,zebra\n")
    with pytest.raises(TableFormatError):
        read_value_table(alpha)

    inf = tmp_path / "inf.csv"
    inf.write_text("a,b\n1,inf\n")
    with pytest.raises(TableFormatError, match="non-finite"):
        read_value_table(inf)


def test_bad_metadata(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    side = meta_path(path)

    side.write_text("[]")
    with pytest.raises(TableFormatError, match="baseline"):
        read_shap_table(path)

    side.write_text(json.dumps({"baseline": "soon"}))
    with pytest.raises(TableFormatError, match="finite"):
        read_shap_table(path)

    side.write_text(json.dumps({"baseline": 0.0, "prediction_column": "nope"}))
    with pytest.raises(TableFormatError, match="nope"):
        read_shap_table(path)

    side.write_text("{not json")
    with pytest.raises(TableFormatError, match="JSON"):
        read_shap_table(path)


def test_prediction_column_collision(tmp_path):
    table = ShapTable(("a", "prediction"), np.ones((1, 2)), 0.0, np.ones(1), "prediction")
    with pytest.raises(TableFormatError, match="collides"):
        write_shap_table(tmp_path / "t.csv", table)


def test_table_shape_validation():
    with pytest.raises(DimensionError):
        ShapTable(("a",), np.ones((2, 2)), 0.0)
    with pytest.raises(DimensionError):
        ShapTable(("a", "b"), np.ones((2, 2)), 0.0, np.ones(3), "p")
    with pytest.raises(DimensionError):
        ShapTable(("a", "b"), np.ones((2, 2)), 0.0, predictions=np.ones(2))  # no column name


def test_atomic_overwrite(tmp_path):
    path = tmp_path / "t.csv"
    write_shap_table(path, ShapTable(("x",), np.array([[1.0]]), 0.0))
    write_shap_table(path, ShapTable(("x",), np.array([[2.0]]), 5.0))
    back = read_shap_table(path)
    assert back.values[0, 0] == 2.0 and back.baseline == 5.0
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert not leftovers
