import csv
import io
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
from mshap.tables import meta_path, render_csv, write_records

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


def _fmt17_reference(header, body) -> str:
    """The renderer's contract, one cell at a time: plain header, 17-digit cells."""
    lines = [",".join(header)] + [",".join(fmt17(cell) for cell in row) for row in body]
    return "\n".join(lines) + "\n"


def _csv_writer_reference(fields, records) -> str:
    """csv.writer with floats as fmt17 and a missing field as an empty cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for record in records:
        cells = [record.get(f, "") for f in fields]
        writer.writerow([fmt17(v) if isinstance(v, float) else v for v in cells])
    return buffer.getvalue()


# every 64-bit pattern: NaN payloads, infinities, subnormals and signed zeros
_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
_BODIES = st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(st.one_of(st.sampled_from(NASTY), _BITS), min_size=k, max_size=k),
                       min_size=1, max_size=6)
)


def test_render_csv_matches_per_cell_fmt17_on_nasty_values():
    body = np.array([NASTY, NASTY[::-1], [-x for x in NASTY]])
    header = [f"c{j}" for j in range(body.shape[1])]
    assert render_csv(header, list(body.T)) == _fmt17_reference(header, body)


@given(_BODIES)
def test_render_csv_matches_per_cell_fmt17(rows):
    body = np.array(rows, dtype=float)
    header = [f"x{j}" for j in range(body.shape[1])]
    assert render_csv(header, list(body.T)) == _fmt17_reference(header, body)


_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n;')), max_size=6)
_CELLS = st.one_of(st.none(), _TEXT, st.integers(-10**20, 10**20), st.sampled_from(NASTY), _BITS)


@given(st.lists(st.fixed_dictionaries({"a": _CELLS, "b": _CELLS}), max_size=5), _TEXT)
def test_record_cells_are_quoted_like_csv_writer(records, name):
    fields = ("a", "b", name or "c")
    records = [{**r, fields[2]: r["a"]} for r in records]
    assert render_csv(fields, [[r.get(f, "") for r in records] for f in fields]) == (
        _csv_writer_reference(fields, records)
    )


def test_write_records_leaves_missing_fields_empty(tmp_path):
    write_records(tmp_path / "r.csv", ("p", "t", "error"), [{"p": 2, "t": 0.5}, {"p": 3, "error": "x, y"}])
    assert (tmp_path / "r.csv").read_text() == 'p,t,error\n2,0.5,\n3,,"x, y"\n'


def test_string_array_cells_are_quoted():
    names = np.tile(np.array(["a,b", "c"]), 3)
    text = render_csv(["f"], [names])
    assert text == 'f\n"a,b"\nc\n"a,b"\nc\n"a,b"\nc\n'


def test_header_names_with_commas_and_quotes_round_trip(tmp_path):
    names = ("a,b", 'say "hi"', "c")
    table = ShapTable(names, np.ones((2, 3)), 0.0, np.full(2, 3.0), "prediction")
    write_shap_table(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == '"a,b","say ""hi""",c,prediction'
    back = read_shap_table(tmp_path / "t.csv")
    assert back.feature_names == names
    assert np.array_equal(back.values, table.values)
    assert np.array_equal(back.predictions, table.predictions)


def test_carriage_return_in_a_name_is_quoted(tmp_path):
    write_value_table(tmp_path / "v.csv", ("a\rb", "c"), np.ones((1, 2)))
    assert (tmp_path / "v.csv").read_bytes().startswith(b'"a\rb",c\n')
    assert read_value_table(tmp_path / "v.csv")[0] == ("a\rb", "c")


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("1,2\n3\n", 3, "expected 2 columns, found 1"),
        ("1,2\n3,4,5\n", 3, "expected 2 columns, found 3"),
        ("1,zebra\n3\n", 2, "could not convert string to float: 'zebra'"),
        ("1,2\n3,inf\n", 3, "non-finite value"),
        ("1,nan\n3\n", 2, "non-finite value"),
        ("1,2\n\n3,4\n", 3, "expected 2 columns, found 0"),
        ("1,2\n3,4\n\n", 4, "expected 2 columns, found 0"),
    ],
)
def test_read_errors_name_the_first_bad_line(tmp_path, body, line, message):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + body)
    with pytest.raises(TableFormatError) as err:
        read_value_table(path)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_reader_accepts_what_float_accepts(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'a,"b"\r\n 1_000 ,"2.5"\r\n-0,1e-320\r\n')
    names, data = read_value_table(path)
    assert names == ("a", "b")
    assert data.tolist() == [[1000.0, 2.5], [-0.0, 1e-320]]
