"""The file formats: every CSV file goes through ``render_csv``, every JSON file
through ``write_json``, and both write through a temp file plus rename.

A SHAP table has a header of feature names, one observation per row, and an
optional prediction column.  Its baseline travels in a JSON sidecar
(``foo.csv`` pairs with ``foo.meta.json``).  Float cells carry 17 significant
digits, which round-trips 64-bit floats; header and text cells are quoted
the way ``csv.writer`` quotes them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionError, TableFormatError
from .shapley import ShapExplanation


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def meta_path(path) -> Path:
    """Sidecar of a table: only the last suffix is replaced (run.v1.csv -> run.v1.meta.json)."""
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    # mkstemp would create the file 0600; an exclusive create with 0666 gets
    # the mode open() gives, i.e. the umask applies
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _text_cell(value) -> str:
    """One cell as ``csv.writer`` writes it: None empty, floats with 17 digits."""
    text = "" if value is None else fmt17(value) if isinstance(value, float) else str(value)
    # a bare carriage return is quoted too, so csv.reader reads the cell back whole
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(header, columns) -> str:
    """CSV text: the header, then one line per row of ``columns`` (1-D, one per header cell).

    Float arrays are written with ``%.17g`` and integer arrays with ``%d``, one
    formatting call per row; any other column is text, made by ``_text_cell``.
    """
    fmts, body = [], []
    for col in columns:
        kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
        fmts.append({"f": "%.17g", "i": "%d", "u": "%d"}.get(kind, "%s"))
        body.append(col.tolist() if kind in "fiu" else [_text_cell(v) for v in col])
    row = ",".join(fmts) + "\n"
    head = ",".join(map(_text_cell, header)) + "\n"
    return "".join([head] + [row % cells for cells in zip(*body)])


def write_csv(path, header, columns) -> None:
    _atomic_write_text(path, render_csv(header, columns))


def write_records(path, fields, records) -> None:
    """One row per record and one column per field; a missing field is empty."""
    write_csv(path, fields, [[r.get(f, "") for r in records] for f in fields])


@dataclass(frozen=True)
class ShapTable:
    """In-memory form of one table file plus its sidecar fields."""

    feature_names: tuple[str, ...]
    values: np.ndarray
    baseline: float
    predictions: np.ndarray | None = None
    prediction_column: str | None = None
    extra_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        names = tuple(str(s) for s in self.feature_names)
        if len(names) != values.shape[1]:
            raise DimensionError(f"{len(names)} feature names for {values.shape[1]} columns")
        if (self.predictions is None) != (self.prediction_column is None):
            raise DimensionError("predictions and prediction_column must be given together")
        if self.predictions is not None:
            preds = np.asarray(self.predictions, dtype=float).reshape(-1)
            if preds.shape[0] != values.shape[0]:
                raise DimensionError(
                    f"{preds.shape[0]} predictions for {values.shape[0]} rows"
                )
            object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "baseline", float(self.baseline))

    def to_explanation(self) -> ShapExplanation:
        preds = self.predictions
        if preds is None:
            # local accuracy pins the prediction once the baseline is known
            preds = self.baseline + self.values.sum(axis=1)
        return ShapExplanation(
            values=self.values,
            baseline=self.baseline,
            predictions=preds,
            feature_names=self.feature_names,
        )


def explanation_to_table(
    expl: ShapExplanation,
    prediction_column: str = "prediction",
    extra_meta: dict | None = None,
) -> ShapTable:
    names = expl.feature_names
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(expl.values.shape[1]))
    return ShapTable(
        feature_names=names,
        values=expl.values,
        baseline=expl.baseline,
        predictions=expl.predictions,
        prediction_column=prediction_column,
        extra_meta=dict(extra_meta or {}),
    )


def write_shap_table(path, table: ShapTable) -> None:
    header = list(table.feature_names)
    columns = list(table.values.T)
    if table.predictions is not None:
        if table.prediction_column in table.feature_names:
            raise TableFormatError(
                f"prediction column {table.prediction_column!r} collides with a feature name"
            )
        header.append(table.prediction_column)
        columns.append(table.predictions)
    meta = {
        "baseline": table.baseline,
        "prediction_column": table.prediction_column,
        **table.extra_meta,
    }
    write_csv(path, header, columns)
    write_json(meta_path(path), meta)


def _parse_cells(path, reader) -> tuple[list[str], np.ndarray]:
    try:
        header = next(reader)
    except StopIteration:
        raise TableFormatError(f"{path}: empty table") from None
    rows = list(reader)
    if not rows:
        raise TableFormatError(f"{path}: table has a header but no data rows")
    try:
        data = np.array(rows, dtype=float)
    except ValueError:  # a ragged row, or a cell that float() rejects
        pass
    else:
        if data.shape[1:] == (len(header),) and np.isfinite(data).all():
            return header, data
    # only a bad table gets here: scan it so that its first bad row is reported
    parsed = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise TableFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, found {len(row)}"
            )
        try:
            parsed.append([float(cell) for cell in row])
        except ValueError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in parsed[-1]):
            raise TableFormatError(f"{path}:{lineno}: non-finite value")
    return header, np.array(parsed)


def read_value_table(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a plain headed CSV of finite reals (no sidecar)."""
    path = Path(path)
    try:
        with open(path, newline="") as handle:
            header, data = _parse_cells(path, csv.reader(handle))
    except OSError as exc:
        raise TableFormatError(f"cannot read {path}: {exc}") from None
    return tuple(header), data


def write_value_table(path, feature_names, values) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != len(feature_names):
        raise DimensionError(f"{len(feature_names)} names for {values.shape[1]} columns")
    write_csv(path, feature_names, values.T)


def read_shap_table(path) -> ShapTable:
    """Read a table and its required metadata sidecar."""
    path = Path(path)
    header, data = read_value_table(path)
    side = meta_path(path)
    try:
        with open(side) as handle:
            meta = json.load(handle)
    except OSError as exc:
        raise TableFormatError(f"cannot read metadata sidecar {side}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{side}: invalid JSON: {exc}") from None
    if not isinstance(meta, dict) or "baseline" not in meta:
        raise TableFormatError(f"{side}: metadata must be an object with a 'baseline' field")
    baseline = meta["baseline"]
    if not isinstance(baseline, (int, float)) or not math.isfinite(baseline):
        raise TableFormatError(f"{side}: baseline must be a finite number, got {baseline!r}")
    pred_col = meta.get("prediction_column")
    extra = {k: v for k, v in meta.items() if k not in ("baseline", "prediction_column")}
    if pred_col is None:
        return ShapTable(tuple(header), data, baseline, extra_meta=extra)
    if pred_col not in header:
        raise TableFormatError(f"{path}: prediction column {pred_col!r} not in header")
    idx = header.index(pred_col)
    names = tuple(h for i, h in enumerate(header) if i != idx)
    features = np.delete(data, idx, axis=1)
    return ShapTable(
        feature_names=names,
        values=features,
        baseline=baseline,
        predictions=data[:, idx],
        prediction_column=pred_col,
        extra_meta=extra,
    )
