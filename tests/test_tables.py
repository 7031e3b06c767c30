import csv
import errno
import io
import json
import math
import os
import re
import stat
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mshap import (
    DimensionError,
    InvalidInputError,
    MshapError,
    ShapExplanation,
    ShapTable,
    TableFormatError,
    explanation_to_table,
    read_shap_table,
    read_value_table,
    write_shap_table,
    write_value_table,
)
from mshap import tables
from mshap.tables import _csv_blocks, _text_cell, fmt17, meta_path, write_records
from parts import peak_bytes

def csv_text(header, columns) -> str:
    """The text ``write_csv`` writes, rendered as one block of whole columns."""
    return "".join(_csv_blocks(header, [columns]))


NASTY = [math.pi, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, -0.0, 1.0, -123456.789, 2**53 + 1.0]


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt17_round_trips_floats(x):
    assert float(fmt17(x)) == x


def test_round_trip_preserves_exact_values(tmp_path):
    values = np.array([NASTY, NASTY[::-1]])
    names = tuple(f"c{i}" for i in range(values.shape[1]))
    table = ShapTable(values=values, baseline=math.pi, feature_names=names)
    path = tmp_path / "t.csv"
    write_shap_table(path, table)
    back = read_shap_table(path)
    assert np.array_equal(back.values, values)
    assert back.baseline == math.pi
    assert back.feature_names == table.feature_names


def test_round_trip_with_prediction_column(tmp_path):
    values = np.array([[1.5, -2.5], [0.25, 0.75]])
    preds = np.array([10.0, 20.0])
    table = ShapTable(
        values=values,
        baseline=3.0,
        predictions=preds,
        feature_names=("a", "b"),
        prediction_column="prediction",
        extra_meta={"alpha": 0.5},
    )
    path = tmp_path / "t.csv"
    write_shap_table(path, table)
    back = read_shap_table(path)
    assert back.feature_names == ("a", "b")
    assert np.array_equal(back.values, values)
    assert np.array_equal(back.predictions, preds)
    assert back.prediction_column == "prediction"
    assert back.extra_meta == {"alpha": 0.5}


@pytest.mark.parametrize("position", [0, 1, 2])
def test_the_prediction_column_reads_at_any_position(tmp_path, position):
    values = np.array([[1.5, -2.5], [0.25, 0.75], [-0.0, 5e-324]])
    preds = 0.5 + values.sum(axis=1)
    header = ["a", "b"]
    header.insert(position, "p")
    path = tmp_path / "t.csv"
    write_value_table(path, header, np.insert(values, position, preds, axis=1))
    meta_path(path).write_text(json.dumps({"baseline": 0.5, "prediction_column": "p"}))
    back = read_shap_table(path)
    assert back.feature_names == ("a", "b") and back.prediction_column == "p"
    assert back.values.tobytes() == values.tobytes()
    assert back.predictions.tobytes() == preds.tobytes()
    # last, where write_shap_table puts it, the columns are views of the parsed array
    assert np.may_share_memory(back.values, back.predictions) == (position == 2)


@pytest.mark.parametrize("key", ["baseline", "prediction_column"])
def test_extra_meta_cannot_overwrite_sidecar_keys(tmp_path, key):
    values = np.array([[1.0, 2.0]])
    expl = ShapExplanation(values, 10.0, np.array([13.0]), feature_names=("a", "b"))
    path = tmp_path / "t.csv"
    with pytest.raises(TableFormatError, match=key):
        write_shap_table(path, explanation_to_table(expl, extra_meta={key: None, "alpha": 0.5}))
    with pytest.raises(TableFormatError, match=key):
        ShapTable(values=values, baseline=10.0, extra_meta={key: 0.0})
    assert not path.exists() and not meta_path(path).exists()


def test_written_files_and_sidecar_naming(tmp_path):
    path = tmp_path / "expl.csv"
    write_shap_table(path, ShapTable(values=[[1.0]], baseline=0.0, feature_names=("x1",)))
    assert path.exists()
    assert (tmp_path / "expl.meta.json").exists()
    assert meta_path(path).name == "expl.meta.json"


def test_dotted_names_keep_separate_sidecars(tmp_path):
    write_shap_table(tmp_path / "run.v1.csv", ShapTable(values=[[1.0]], baseline=1.0, feature_names=("x",)))
    write_shap_table(tmp_path / "run.v2.csv", ShapTable(values=[[1.0]], baseline=2.0, feature_names=("x",)))
    assert meta_path(tmp_path / "run.v1.csv").name == "run.v1.meta.json"
    assert read_shap_table(tmp_path / "run.v1.csv").baseline == 1.0
    assert read_shap_table(tmp_path / "run.v2.csv").baseline == 2.0


def test_written_files_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_shap_table(tmp_path / "t.csv", ShapTable(values=[[1.0]], baseline=0.0, feature_names=("x",)))
    finally:
        os.umask(old)
    for name in ("t.csv", "t.meta.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644


def test_to_explanation_reconstructs_predictions():
    values = np.array([[1.0, 2.0], [3.0, -1.0]])
    table = ShapTable(values=values, baseline=10.0)
    assert isinstance(table, ShapExplanation)
    assert table.to_explanation() is table
    assert table.feature_names == ("x1", "x2")
    np.testing.assert_array_equal(table.predictions, [13.0, 12.0])


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


def test_a_byte_order_mark_is_not_part_of_a_name(tmp_path):
    # spreadsheets save "CSV UTF-8" with a leading U+FEFF
    path = tmp_path / "v.csv"
    path.write_bytes(b"\xef\xbb\xbfx1,x2\n1,2\n")
    assert read_value_table(path)[0] == ("x1", "x2")


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


def test_repeated_header_names_are_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("x1,x2,x1,prediction\n1,2,3,4\n")
    with pytest.raises(TableFormatError, match="repeats the column name 'x1'"):
        read_value_table(path)
    path.with_name("dup.meta.json").write_text('{"baseline": 0.0, "prediction_column": "prediction"}')
    with pytest.raises(TableFormatError, match="'x1'"):
        read_shap_table(path)
    with pytest.raises(DimensionError, match="'x1' appears more than once"):
        ShapExplanation(np.ones((1, 3)), 0.0, np.array([3.0]), feature_names=("x1", "x2", "x1"))


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

    side.write_text(json.dumps({"baseline": True}))
    with pytest.raises(TableFormatError, match="baseline must be a finite number"):
        read_shap_table(path)

    side.write_text(json.dumps({"baseline": 0.0, "prediction_column": "nope"}))
    with pytest.raises(TableFormatError, match="nope"):
        read_shap_table(path)

    # the prediction column is the table's only column: no feature is left
    side.write_text(json.dumps({"baseline": 0.0, "prediction_column": "a"}))
    with pytest.raises(TableFormatError, match=re.escape(f"{path}: no feature columns")):
        read_shap_table(path)

    side.write_text("{not json")
    with pytest.raises(TableFormatError, match="JSON"):
        read_shap_table(path)


def test_prediction_column_collision():
    # rejected when the table is built, so no writer ever sees it
    with pytest.raises(TableFormatError, match="collides"):
        ShapTable(
            values=np.ones((1, 2)),
            baseline=0.0,
            predictions=np.ones(1),
            feature_names=("a", "prediction"),
            prediction_column="prediction",
        )


def test_table_shape_validation():
    with pytest.raises(DimensionError):
        ShapTable(values=np.ones((2, 2)), baseline=0.0, feature_names=("a",))
    with pytest.raises(DimensionError):
        ShapTable(values=np.ones((2, 2)), baseline=0.0, predictions=np.ones(3), prediction_column="p")
    with pytest.raises(DimensionError):
        ShapTable(values=np.ones((2, 2)), baseline=0.0, predictions=np.ones(2))  # no column name
    with pytest.raises(DimensionError):
        ShapTable(values=np.ones((2, 2)), baseline=0.0, prediction_column="p")  # no predictions


@pytest.mark.parametrize(
    "values, field", [([[1e308, 1e308]], "predictions"), ([[np.inf, -np.inf]], "values")], ids=["overflow", "inf-minus-inf"]
)
def test_a_table_whose_row_sum_is_not_finite_is_refused_without_a_warning(values, field):
    # the predictions a table derives from its row sums used to overflow, or meet inf - inf, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"non-finite {field} in an explanation"):
            ShapTable(values=values, baseline=0.0)


def test_atomic_overwrite(tmp_path):
    path = tmp_path / "t.csv"
    write_shap_table(path, ShapTable(values=[[1.0]], baseline=0.0, feature_names=("x",)))
    write_shap_table(path, ShapTable(values=[[2.0]], baseline=5.0, feature_names=("x",)))
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


def test_csv_text_matches_per_cell_fmt17_on_nasty_values():
    body = np.array([NASTY, NASTY[::-1], [-x for x in NASTY]])
    header = [f"c{j}" for j in range(body.shape[1])]
    assert csv_text(header, list(body.T)) == _fmt17_reference(header, body)


@given(_BODIES)
def test_csv_text_matches_per_cell_fmt17(rows):
    body = np.array(rows, dtype=float)
    header = [f"x{j}" for j in range(body.shape[1])]
    assert csv_text(header, list(body.T)) == _fmt17_reference(header, body)


_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n;')), max_size=6)
_CELLS = st.one_of(st.none(), _TEXT, st.integers(-10**20, 10**20), st.sampled_from(NASTY), _BITS)


@given(st.lists(st.fixed_dictionaries({"a": _CELLS, "b": _CELLS}), max_size=5), _TEXT)
def test_record_cells_are_quoted_like_csv_writer(records, name):
    fields = ("a", "b", name or "c")
    records = [{**r, fields[2]: r["a"]} for r in records]
    assert csv_text(fields, [[r.get(f, "") for r in records] for f in fields]) == (
        _csv_writer_reference(fields, records)
    )


def test_write_records_leaves_missing_fields_empty(tmp_path):
    write_records(tmp_path / "r.csv", ("p", "t", "error"), [{"p": 2, "t": 0.5}, {"p": 3, "error": "x, y"}])
    assert (tmp_path / "r.csv").read_text() == 'p,t,error\n2,0.5,\n3,,"x, y"\n'


def test_string_array_cells_are_quoted():
    names = np.tile(np.array(["a,b", "c"]), 3)
    text = csv_text(["f"], [names])
    assert text == 'f\n"a,b"\nc\n"a,b"\nc\n"a,b"\nc\n'


def test_tiled_text_column_is_formatted_once_per_name_with_the_same_bytes(monkeypatch):
    names = np.array(["a,b", 'say "hi"', "c\rd", "plain", ""])
    tiled = np.tile(names, 40)
    mixed = [0.0, -0.0, True, 1, None, "1", "a,b", "a,b"]
    header = ("row", "feature", "mixed")
    columns = (np.arange(tiled.size), tiled, mixed * (tiled.size // len(mixed)))
    want = "".join(
        [",".join(_text_cell(h) for h in header) + "\n"]
        + [f"{i},{_text_cell(name)},{_text_cell(cell)}\n" for i, name, cell in zip(*columns)]
    )
    calls = []

    def counting(value, alone=False):
        calls.append(value)
        return _text_cell(value, alone)

    monkeypatch.setattr(tables, "_text_cell", counting)
    text = csv_text(header, columns)
    assert text == want
    # equal numbers and bools keep their own texts: 0, -0, True, 1
    assert text.split("\n")[1:5] == ["0,\"a,b\",0", '1,"say ""hi""",-0', '2,"c\rd",True', "3,plain,1"]
    # 3 header cells, the 5 distinct names, the 5 non-str cells of every
    # block of the mixed column, and its one str cell ("1") that no column
    # had before ("a,b" is shared with the names)
    assert len(calls) == 3 + 5 + 5 * (tiled.size // len(mixed)) + 1
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [row[1] for row in rows[1:]] == tiled.tolist()


def test_header_names_with_commas_and_quotes_round_trip(tmp_path):
    names = ("a,b", 'say "hi"', "c")
    table = ShapTable(
        values=np.ones((2, 3)),
        baseline=0.0,
        predictions=np.full(2, 3.0),
        feature_names=names,
        prediction_column="prediction",
    )
    write_shap_table(tmp_path / "t.csv", table)
    assert (tmp_path / "t.csv").read_text().splitlines()[0] == '"a,b","say ""hi""",c,prediction'
    back = read_shap_table(tmp_path / "t.csv")
    assert back.feature_names == names
    assert np.array_equal(back.values, table.values)
    assert np.array_equal(back.predictions, table.predictions)


def test_lone_empty_column_name_round_trips(tmp_path):
    # a blank line would read back as a row of no cells; csv.writer writes ""
    path = tmp_path / "v.csv"
    write_value_table(path, ("",), np.ones((2, 1)))
    assert path.read_bytes() == b'""\n1\n1\n'
    names, values = read_value_table(path)
    assert names == ("",)
    assert np.array_equal(values, np.ones((2, 1)))
    assert csv_text(["f"], [["", "a"]]) == 'f\n""\na\n'
    assert csv_text(["a", "b"], [["", "x"], [None, ""]]) == "a,b\n,\nx,\n"


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


@pytest.mark.parametrize(
    "text, line, message",
    [
        ('a,b\n"1\n",2\nx,2\n', 4, "could not convert string to float: 'x'"),
        ('a,b\n1,2\n"3\n\n",4\n5,6,7\n', 6, "expected 2 columns, found 3"),
        # a row that spans lines is named by the line it starts on
        ('a,b\n1,2\n"3\n\n",x\n', 3, "could not convert string to float: 'x'"),
    ],
)
def test_a_row_after_a_quoted_newline_names_its_own_line(tmp_path, text, line, message):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    with pytest.raises(TableFormatError) as err:
        read_value_table(path)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_reader_accepts_what_float_accepts(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'a,"b"\r\n 1_000 ,"2.5"\r\n-0,1e-320\r\n')
    names, data = read_value_table(path)
    assert names == ("a", "b")
    assert data.tolist() == [[1000.0, 2.5], [-0.0, 1e-320]]


def _rows_per_block(columns):
    return max(1, tables._BLOCK_CELLS // columns)


@pytest.mark.parametrize("columns", [1, 4, 21])
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
def test_block_boundaries_round_trip_byte_for_byte(tmp_path, rng, columns, blocks, extra):
    n = blocks * _rows_per_block(columns) + extra
    values = rng.standard_normal((n, columns)) * np.exp(rng.uniform(-30, 30, (n, columns)))
    values.flat[: len(NASTY)] = NASTY[: values.size]
    names = tuple(f"c{j}" for j in range(columns))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    if n == 0:
        # the reader rejects a header without rows, so the writer refuses one
        assert csv_text(names, list(values.T)) == _fmt17_reference(names, values)
        with pytest.raises(DimensionError, match="must be"):
            write_value_table(first, names, values)
        assert not first.exists()
        return
    write_value_table(first, names, values)
    text = first.read_bytes().decode()
    assert text == _fmt17_reference(names, values)
    assert text == csv_text(names, list(values.T))
    back_names, back = read_value_table(first)
    assert back_names == names and back.tobytes() == values.tobytes()
    write_value_table(second, back_names, back)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "names, values, error, message",
    [
        (("a", "a"), np.ones((2, 2)), DimensionError, "feature name 'a' appears more than once"),
        (("a", "b", "a"), np.ones((1, 3)), DimensionError, "feature name 'a' appears more than once"),
        ((), np.ones((2, 0)), DimensionError, r"value table must be \(n>=1, p>=1\), got \(2, 0\)"),
        (("a", "b"), np.ones((0, 2)), DimensionError, r"value table must be \(n>=1, p>=1\), got \(0, 2\)"),
        (("a", "b"), [[1.0, np.inf]], InvalidInputError, "non-finite value"),
        (("a", "b"), [[np.nan, 1.0]], InvalidInputError, "non-finite value"),
    ],
    ids=["repeat", "repeat-apart", "no-columns", "no-rows", "inf", "nan"],
)
def test_write_value_table_refuses_what_the_reader_rejects(tmp_path, names, values, error, message):
    # each of these used to be written, then rejected by read_value_table
    path = tmp_path / "v.csv"
    with pytest.raises(error, match=message):
        write_value_table(path, names, values)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "table",
    [
        lambda: ShapTable(values=[[np.inf, 1.0]], baseline=0.0),
        lambda: ShapTable(values=[[np.nan, 1.0]], baseline=0.0, predictions=[1.5], prediction_column="prediction"),
        lambda: explanation_to_table(ShapExplanation(np.ones((2, 2)), 0.0, np.array([2.0, -np.inf]))),
        lambda: ShapTable(values=[[1.0, 1.0]], baseline=np.inf, predictions=[2.0], prediction_column="prediction"),
    ],
    ids=["value", "value-with-predictions", "prediction", "baseline"],
)
def test_write_shap_table_refuses_what_the_reader_rejects(tmp_path, table):
    # each of these used to be written, then rejected by read_shap_table; now no such table can be built
    with pytest.raises(InvalidInputError, match="non-finite"):
        write_shap_table(tmp_path / "t.csv", table())
    assert list(tmp_path.iterdir()) == []


def test_mixed_columns_across_blocks_match_csv_writer():
    # the long-format layout of observations.csv: int, repeated text, two floats
    n = 3 * _rows_per_block(4) + 5
    names = np.array(["x1", "a,b", 'say "hi"', "x\ny"])
    columns = (np.arange(n), np.tile(names, n)[:n], np.linspace(-1, 1, n), np.full(n, -0.0))
    fields = ("row", "feature", "covariate_value", "mshap_value")
    records = [dict(zip(fields, (int(i), str(s), float(a), float(b)))) for i, s, a, b in zip(*columns)]
    assert csv_text(fields, columns) == _csv_writer_reference(fields, records)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,2,3", "expected 4 columns, found 3"),
        ("1,2,3,4,5", "expected 4 columns, found 5"),
        ("1,2,zebra,4", "could not convert string to float: 'zebra'"),
        ("1,2,3,-inf", "non-finite value"),
    ],
)
@pytest.mark.parametrize("where", ["first", "last-of-first-block", "first-of-second-block", "third-block", "tail"])
def test_a_bad_row_in_any_block_names_its_line(tmp_path, row, message, where):
    step = _rows_per_block(4)
    index = {"first": 0, "last-of-first-block": step - 1, "first-of-second-block": step,
             "third-block": 2 * step + 7, "tail": 3 * step + 4}[where]
    assert step > 7  # each index falls in the block it names
    lines = ["1,2,3,4"] * (3 * step + 5)
    lines[index] = row
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d\n" + "\n".join(lines) + "\n")
    with pytest.raises(TableFormatError) as err:
        read_value_table(path)
    assert str(err.value) == f"{path}:{index + 2}: {message}"


def test_the_first_bad_row_is_reported_when_later_blocks_are_bad_too(tmp_path):
    step = _rows_per_block(4)
    lines = ["1,2,3,4"] * (3 * step)
    lines[step + 3] = "1,2,3,nan"
    lines[step + 9] = "1,2"
    lines[2 * step + 1] = "x,2,3,4"
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d\n" + "\n".join(lines) + "\n")
    with pytest.raises(TableFormatError) as err:
        read_value_table(path)
    assert str(err.value) == f"{path}:{step + 5}: non-finite value"


def test_a_table_write_and_read_hold_one_block_beside_the_array(tmp_path, rng):
    values = rng.standard_normal((20_000, 20))
    names = tuple(f"x{j}" for j in range(20))
    path = tmp_path / "t.csv"

    def write_and_read():
        write_value_table(path, names, values)
        return read_value_table(path)

    (_, back), peak = peak_bytes(write_and_read)
    assert np.array_equal(back, values)
    # whole-table formatting and parsing peaked at 11x the array (36.7 MB)
    assert peak < 3 * values.nbytes, peak


def test_a_read_holds_one_array_and_a_block_of_text(tmp_path, rng):
    values = rng.standard_normal((20_000, 20))
    path = tmp_path / "t.csv"
    write_value_table(path, tuple(f"x{j}" for j in range(20)), values)
    block_text = path.stat().st_size * _rows_per_block(20) // len(values)
    (_, back), peak = peak_bytes(lambda: read_value_table(path))
    assert back.tobytes() == values.tobytes()
    # a block is held as its lines, their join and numpy's parse of them; the
    # concatenated blocks held the table twice (2.0x the array)
    assert peak < values.nbytes + 8 * block_text, peak


@pytest.mark.parametrize("layout", ["bare-cr", "quoted-newline", "header-over-two-lines"])
def test_a_table_whose_lines_are_not_its_rows_reads_whole(tmp_path, rng, layout):
    # the line count sizes the array; one row more or fewer than lines puts the blocks together instead
    step = _rows_per_block(4)
    values = rng.standard_normal((3 * step + 5, 4))
    lines = [",".join(map(tables.fmt17, row)) + "\n" for row in values]
    header = "a,b,c,d\n"
    if layout == "bare-cr":
        lines[2 * step] = lines[2 * step][:-1] + "\r"
    elif layout == "quoted-newline":
        head, last = lines[2 * step].rsplit(",", 1)
        lines[2 * step] = f'{head},"{last}"\n'
    else:
        header = 'a,b,c,"d\n"\n'
    path = tmp_path / "t.csv"
    path.write_bytes((header + "".join(lines)).encode())
    assert read_value_table(path)[1].tobytes() == values.tobytes()


def test_an_oversized_field_is_a_table_format_error(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1," + "1" * 200_000 + "\n")
    with pytest.raises(TableFormatError) as err:
        read_value_table(path)
    assert str(err.value).startswith(f"{path}: ") and "field larger than field limit" in str(err.value)


@pytest.mark.parametrize("where", ["replace", "create"])
def test_a_failed_write_is_one_typed_error_and_keeps_the_old_file(tmp_path, monkeypatch, where):
    path = tmp_path / "v.csv"
    write_value_table(path, ("a",), [[1.0]])
    before = path.read_bytes()
    if where == "replace":
        def full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(tables.os, "replace", full)
        target, reason = path, "No space left on device"
    else:
        target, reason = tmp_path / "missing" / "v.csv", "No such file or directory"
    with pytest.raises(MshapError) as err:
        write_value_table(target, ("a",), [[2.0]])
    assert str(err.value) == f"cannot write {target}: {reason}"
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["v.csv"]


@pytest.mark.parametrize("where", ["new", "replace"])
def test_a_failed_sidecar_write_leaves_no_new_table(tmp_path, where):
    path = tmp_path / "t.csv"
    if where == "replace":
        path.write_text("old\n")
    # a directory where the sidecar goes: its rename fails after the table's succeeded
    meta_path(path).mkdir()
    table = explanation_to_table(ShapExplanation(np.array([[1.0, 2.0]]), 0.5, np.array([3.5])))
    with pytest.raises(MshapError, match=f"cannot write {re.escape(str(meta_path(path)))}: Is a directory"):
        write_shap_table(path, table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.meta.json"]


# -- numpy's C tokenizer against the csv module -------------------------------

_WIDTH = 16


def _row(first="1", end="\n"):
    return ",".join([first] + ["1"] * (_WIDTH - 1)) + end


# each case is one line among rows of ones (a quoted newline makes it two)
_TOKENIZER_CASES = {
    "blank": "\n",
    "whitespace-only": "   \n",
    "comment": _row("#1"),
    "underscore": _row("1_000"),
    "unicode-digits": _row("\u0661\u0662"),
    "no-break-space": _row("\xa01\xa0"),
    "quoted": _row('"2.5"'),
    "quoted-comma": _row('"1,5"'),
    "quoted-newline": _row('"1\n"'),
    # the quote opens in a line's last field: at a block's end it closes in the next block
    "quoted-newline-in-last-field": _row(end=',"1\n"\n')[2:],
    "quoted-newline-joins-rows": _row(end=',"2\n3",')[2:] + _row()[2:],
    "cr": _row(end="\r"),
    "crlf": _row(end="\r\n"),
    "bom-in-cell": _row("\ufeff1"),
    "trailing-comma": _row(end=",\n"),
    "inf": _row("inf"),
    "nan": _row("nan"),
    "infinity": _row("-Infinity"),
    "finite-field-over-the-limit": _row("1." + "0" * csv.field_size_limit()),
    "file-separator": _row("\x1c1"),
    "nul": _row("1\x00"),
}


def _read_both_ways(path, monkeypatch):
    """read_value_table's outcome, then the csv module's alone: with numpy's
    tokenizer declining every block, the reader is the csv path from line 2."""
    outcomes = []
    for decline in (False, True):
        if decline:
            monkeypatch.setattr(tables, "_load_block", lambda lines, width: None)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the CLI prints one error line and nothing else
                names, data = read_value_table(path)
            outcomes.append((names, data.shape, data.tobytes()))
        except TableFormatError as exc:
            outcomes.append(str(exc))
    return outcomes


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
@pytest.mark.parametrize("where", ["first-of-block", "inside-block", "last-of-block"])
@pytest.mark.parametrize("case", list(_TOKENIZER_CASES))
def test_numpy_and_the_csv_module_read_every_block_alike(tmp_path, monkeypatch, case, where, bom):
    step = _rows_per_block(_WIDTH)
    index = {"first-of-block": step, "inside-block": step + step // 2, "last-of-block": 2 * step - 1}[where]
    lines = [_row()] * (2 * step + 5)
    lines[index] = _TOKENIZER_CASES[case]
    path = tmp_path / "t.csv"
    header = ",".join(f"c{j}" for j in range(_WIDTH)) + "\n"
    path.write_bytes((bom + header + "".join(lines)).encode())
    fast, reference = _read_both_ways(path, monkeypatch)
    assert fast == reference


_LINES = st.lists(
    st.tuples(
        st.lists(
            st.one_of(
                st.sampled_from(["1", "-0", "2.5e-3", '"7"', "1e400", "nan"]),
                st.text(alphabet='0123456789.eE+-_ ,"#\n\r\t\x00\x0b\x1c\x1f\xa0\u0663\u2028', max_size=4),
            ),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(["\n", "\r\n", "\r", ""]),
    ).map(lambda row: ",".join(row[0]) + row[1]),
    min_size=1,
    max_size=9,
)


@given(_LINES)
def test_numpy_and_the_csv_module_agree_on_arbitrary_lines(tmp_path_factory, lines):
    # blocks of two rows, so that most tables span several
    path = tmp_path_factory.mktemp("lines") / "t.csv"
    path.write_text("a,b\n" + "".join(lines), newline="")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tables, "_BLOCK_CELLS", 4)
        fast, reference = _read_both_ways(path, monkeypatch)
    assert fast == reference


def test_a_block_of_blank_lines_is_todays_error_without_a_warning(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n\n3,4\n")
    monkeypatch.setattr(tables, "_BLOCK_CELLS", 2)  # one row per block
    fast, reference = _read_both_ways(path, monkeypatch)
    assert fast == reference == f"{path}:3: expected 2 columns, found 0"


def test_clean_blocks_never_reach_the_csv_module(tmp_path, monkeypatch, rng):
    values = rng.standard_normal((3 * _rows_per_block(4) + 5, 4))
    path = tmp_path / "t.csv"
    write_value_table(path, tuple("abcd"), values)

    def csv_path(*args):
        raise AssertionError("a clean block was parsed by the csv module")

    monkeypatch.setattr(tables, "_parse_rows", csv_path)
    assert read_value_table(path)[1].tobytes() == values.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("bad", [True, False], ids=["bad-second-block", "clean"])
def test_a_table_reads_through_a_pipe_without_seeking(tmp_path, bad):
    step = _rows_per_block(4)
    lines = ["1,2,3,4"] * (3 * step)
    if bad:
        lines[step + 10] = "1,2,zebra,4"
    path = tmp_path / "t.csv"
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "w") as pipe:
                pipe.write("a,b,c,d\n" + "\n".join(lines) + "\n")
        except BrokenPipeError:
            pass  # the reader stopped at the bad row

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        if bad:
            with pytest.raises(TableFormatError) as err:
                read_value_table(path)
            assert str(err.value) == f"{path}:{step + 12}: could not convert string to float: 'zebra'"
        else:
            assert read_value_table(path)[1].shape == (3 * step, 4)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
