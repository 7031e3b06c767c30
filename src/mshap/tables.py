"""The file formats: every CSV file goes through ``write_csv``, every JSON file
through ``write_json``, and both write through a temp file plus rename.  Every
JSON file, a table's sidecar or a CLI config, is read by ``read_json``.

Tables are read and written in blocks of ``_BLOCK_CELLS`` (4,096) cells:
beyond the parsed array, a read or write holds one block of text whatever
the table's size, and a write puts its blocks into the temp file before the
rename.  A read of a regular file counts its lines first and parses the
rows into one array of that many rows.

A SHAP table has a header of feature names, one observation per row, and an
optional prediction column.  Its baseline travels in a JSON sidecar
(``foo.csv`` pairs with ``foo.meta.json``).  Float cells carry 17 significant
digits, which round-trips 64-bit floats; header and text cells are quoted
the way ``csv.writer`` quotes them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, InvalidInputError, MshapError, TableFormatError
from .shapley import ShapExplanation, _check_unique, _first_repeat


_BLOCK_CELLS = 1 << 12
# the sidecar keys a table owns; any other key is the table's ``extra_meta``
_SIDECAR_KEYS = ("baseline", "prediction_column")


def _block_rows(columns: int) -> int:
    return max(1, _BLOCK_CELLS // max(columns, 1))


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def meta_path(path) -> Path:
    """Sidecar of a table: only the last suffix is replaced (run.v1.csv -> run.v1.meta.json)."""
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def _atomic_write_text(path, chunks) -> None:
    """Write the strings of ``chunks`` one after another, all or nothing."""
    path = Path(path)
    # mkstemp would create the file 0600; an exclusive create with 0666 gets
    # the mode open() gives, i.e. the umask applies
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # e.g. a directory sits where the file goes
            raise MshapError(f"cannot write {path}: {exc.strerror}") from None
        raise


def write_json(path, payload: dict) -> None:
    _atomic_write_text(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def read_json(path, what: str):
    """The JSON value in ``path``, UTF-8 with an optional BOM; ``what`` names the file in a read error."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise TableFormatError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:  # bad syntax, or an integer past the int-to-str digit limit
        raise TableFormatError(f"{path}: invalid JSON: {exc}") from None


def _text_cell(value, alone: bool = False) -> str:
    """One cell as ``csv.writer`` writes it: None empty, floats with 17 digits.

    An empty cell ``alone`` on its line is written ``""``: a blank line would
    read back as a row of no cells.
    """
    text = "" if value is None else fmt17(value) if isinstance(value, float) else str(value)
    # a bare carriage return is quoted too, so csv.reader reads the cell back whole
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text or ('""' if alone else "")


def _csv_blocks(header, blocks):
    """CSV text: the header line, then the rows of each block of ``blocks``, a
    list of 1-D column parts, one per header cell.

    Float arrays are written with ``%.17g`` and integer arrays with ``%d``, one
    formatting call per row; any other column is text, made by ``_text_cell``
    once per distinct string.
    """
    alone = len(header) == 1
    # only str cells share a text: 0.0 == -0.0 and True == 1 would share a key
    texts: dict[str, str] = {}

    def text(value) -> str:
        if not isinstance(value, str):
            return _text_cell(value, alone)
        if value not in texts:
            texts[value] = _text_cell(value, alone)
        return texts[value]

    yield ",".join(_text_cell(name, alone) for name in header) + "\n"
    for block in blocks:
        kinds = [part.dtype.kind if isinstance(part, np.ndarray) else "O" for part in block]
        row = ",".join({"f": "%.17g", "i": "%d", "u": "%d"}.get(kind, "%s") for kind in kinds) + "\n"
        body = [part.tolist() if kind in "fiu" else [text(v) for v in part] for part, kind in zip(block, kinds)]
        # zip stops at the shortest part
        yield "".join([row % cells for cells in zip(*body)])


def write_csv_blocks(path, header, blocks) -> None:
    """Write the header line, then each block's rows, as ``_csv_blocks`` renders them."""
    _atomic_write_text(path, _csv_blocks(header, blocks))


def write_csv(path, header, columns) -> None:
    """Write whole 1-D ``columns``, one per header cell, in blocks of ``_block_rows`` rows."""
    n_rows = min((len(col) for col in columns), default=0)
    step = _block_rows(len(columns))
    write_csv_blocks(path, header, ([col[lo : lo + step] for col in columns] for lo in range(0, n_rows, step)))


def write_records(path, fields, records) -> None:
    """One row per record and one column per field; a missing field is empty."""
    write_csv(path, fields, [[r.get(f, "") for r in records] for f in fields])


@dataclass(frozen=True, eq=False, kw_only=True)
class ShapTable(ShapExplanation):
    """One table file and its sidecar fields, as a :class:`ShapExplanation`.

    ``predictions`` and ``prediction_column`` are given together or not at
    all.  Without them the table has no prediction column, and the
    predictions are the baseline plus the row sums.  Feature names default
    to ``x1..xp``.
    """

    predictions: np.ndarray | None = field(default=None, kw_only=False)
    prediction_column: str | None = None
    extra_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.predictions is None) != (self.prediction_column is None):
            raise DimensionError("predictions and prediction_column must be given together")
        reserved = sorted(set(self.extra_meta) & set(_SIDECAR_KEYS))
        if reserved:
            raise TableFormatError(f"extra_meta may not set the sidecar's own keys: {reserved}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError(f"table values must be an (n, p) matrix, got shape {values.shape}")
        if self.predictions is None:
            # local accuracy pins the prediction once the baseline is known
            with np.errstate(over="ignore", invalid="ignore"):  # ShapExplanation rejects a non-finite sum
                object.__setattr__(self, "predictions", float(self.baseline) + values.sum(axis=1))
        if self.feature_names is None:
            names = tuple(f"x{j + 1}" for j in range(values.shape[1]))
            object.__setattr__(self, "feature_names", names)
        super().__post_init__()
        if self.prediction_column in self.feature_names:
            raise TableFormatError(f"prediction column {self.prediction_column!r} collides with a feature name")

    def to_explanation(self) -> ShapExplanation:
        """The table itself; it already is one."""
        return self


def explanation_to_table(expl: ShapExplanation, *, extra_meta: dict | None = None) -> ShapTable:
    """The explanation as a table with a ``prediction`` column."""
    return ShapTable(
        values=expl.values,
        baseline=expl.baseline,
        predictions=expl.predictions,
        feature_names=expl.feature_names,
        prediction_column="prediction",
        extra_meta=dict(extra_meta or {}),
    )


def write_shap_table(path, table: ShapTable) -> None:
    """Write the table and its sidecar, which ``read_shap_table`` reads back, or raise and leave no new table."""
    header = list(table.feature_names)
    columns = list(table.values.T)
    if table.prediction_column is not None:
        header.append(table.prediction_column)
        columns.append(table.predictions)
    meta = {
        "baseline": table.baseline,
        "prediction_column": table.prediction_column,
        **table.extra_meta,
    }
    write_csv(path, header, columns)
    try:
        write_json(meta_path(path), meta)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _parse_cells(path, handle, rows: int) -> tuple[list[str], np.ndarray]:
    """The header and the rows of ``handle`` as one float array.

    The first ``rows`` rows, the data line count of a regular file, fill one
    array allocated up front; if the table turns out to hold more rows (bare
    ``\\r`` line ends) or fewer (a quoted newline), its blocks are concatenated
    instead.  A pipe passes 0 rows, so every block is concatenated.
    """
    try:
        header = next(csv.reader(handle))
    except StopIteration:
        raise TableFormatError(f"{path}: empty table") from None
    repeated = _first_repeat(header)
    if repeated is not None:
        raise TableFormatError(f"{path}: header repeats the column name {repeated!r}")
    table, filled, rest = np.empty((rows, len(header))), 0, []
    for data in _row_blocks(path, handle, header):
        if rest or filled + len(data) > rows:
            rest.append(data)
        else:
            table[filled : filled + len(data)] = data
            filled += len(data)
    if not filled and not rest:
        raise TableFormatError(f"{path}: table has a header but no data rows")
    if filled == rows and not rest:
        return header, table
    return header, np.concatenate([table[:filled], *rest])


def _row_blocks(path, handle, header):
    """The data rows of ``handle`` as float arrays of ``_block_rows`` rows, in file order."""
    lineno, step = 2, _block_rows(len(header))
    while lines := list(itertools.islice(handle, step)):
        if (data := _load_block(lines, len(header))) is None:
            # this block and the rest go through the csv module: rows and errors as ever
            yield from _parse_rows(path, header, csv.reader(itertools.chain(lines, handle)), lineno)
            return
        yield data
        lineno += len(lines)


def _count_lines(raw) -> int:
    """The lines of a binary file, a last line without a newline included."""
    lines, last = 0, b"\n"
    while chunk := raw.read(1 << 16):
        lines += chunk.count(b"\n")
        last = chunk[-1:]
    return lines + (last != b"\n")


def _load_block(lines, width) -> np.ndarray | None:
    """The lines as rows of ``width`` finite floats by numpy's C tokenizer; None where the csv module may differ."""
    text = "".join(lines)
    # numpy warns on an all-blank block, has no field size limit, and strips 0x1c-0x1f where float() does not
    if not text.strip("\r\n") or max(map(len, lines)) > csv.field_size_limit() or any(
        sep in text for sep in "\x1c\x1d\x1e\x1f"
    ):
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:  # a quote among them, or a cell that numpy rejects
        return None
    # one row per line: numpy skips a blank line
    return data if data.shape == (len(lines), width) and np.isfinite(data).all() else None


def _parse_rows(path, header, reader, lineno):
    """The rows of ``reader`` as float arrays of ``_block_rows`` rows; ``lineno`` is
    the reader's first line, and an error names the line its row starts on."""
    step, parsed, start = _block_rows(len(header)), [], lineno
    for row in reader:
        if len(row) != len(header):
            raise TableFormatError(f"{path}:{start}: expected {len(header)} columns, found {len(row)}")
        try:
            parsed.append([float(cell) for cell in row])
        except ValueError as exc:
            raise TableFormatError(f"{path}:{start}: {exc}") from None
        if not all(math.isfinite(v) for v in parsed[-1]):
            raise TableFormatError(f"{path}:{start}: non-finite value")
        start = lineno + reader.line_num  # a quoted newline makes a row span lines
        if len(parsed) == step:
            yield np.array(parsed)
            parsed = []
    if parsed:
        yield np.array(parsed)


def read_value_table(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a plain headed CSV of finite reals (no sidecar)."""
    path = Path(path)
    try:
        with open(path, "rb") as raw:
            rows = 0
            if raw.seekable():  # a pipe cannot be read twice
                rows = max(_count_lines(raw) - 1, 0)
                raw.seek(0)
            with io.TextIOWrapper(raw, encoding="utf-8-sig", newline="") as handle:
                header, data = _parse_cells(path, handle, rows)
    except OSError as exc:
        raise TableFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise TableFormatError(f"{path}: not a readable CSV table: {exc}") from None
    return tuple(header), data


def write_value_table(path, feature_names, values) -> None:
    """Write a headed table that ``read_value_table`` reads back, or raise before any file exists."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or 0 in values.shape:
        raise DimensionError(f"value table must be (n>=1, p>=1), got {values.shape}")
    if values.shape[1] != len(feature_names):
        raise DimensionError(f"{len(feature_names)} names for {values.shape[1]} columns")
    _check_unique(feature_names)
    if not np.isfinite(values).all():
        raise InvalidInputError("value table holds a non-finite value")
    write_csv(path, feature_names, values.T)


def read_shap_table(path) -> ShapTable:
    """Read a table and its required metadata sidecar."""
    path = Path(path)
    header, data = read_value_table(path)
    side = meta_path(path)
    meta = read_json(side, "metadata sidecar")
    if not isinstance(meta, dict) or "baseline" not in meta:
        raise TableFormatError(f"{side}: metadata must be an object with a 'baseline' field")
    baseline = meta["baseline"]
    try:
        finite = not isinstance(baseline, bool) and math.isfinite(baseline)
    except (TypeError, OverflowError):  # not a number, or an integer past float range
        finite = False
    if not finite:
        raise TableFormatError(f"{side}: baseline must be a finite number, got {baseline!r}")
    pred_col = meta.get("prediction_column")
    names, features, predictions = tuple(header), data, None
    if pred_col is not None:
        if pred_col not in header:
            raise TableFormatError(f"{path}: prediction column {pred_col!r} not in header")
        if len(header) == 1:
            raise TableFormatError(f"{path}: no feature columns besides the prediction column {pred_col!r}")
        idx = header.index(pred_col)
        names = tuple(h for i, h in enumerate(header) if i != idx)
        # views of the parsed array where the column is last, as write_shap_table puts it
        features = data[:, :-1] if idx == len(names) else np.delete(data, idx, axis=1)
        predictions = data[:, idx]
    return ShapTable(
        feature_names=names,
        values=features,
        baseline=baseline,
        predictions=predictions,
        prediction_column=pred_col,
        extra_meta={k: v for k, v in meta.items() if k not in _SIDECAR_KEYS},
    )
