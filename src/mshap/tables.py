"""Delimited attribution tables with a metadata sidecar.

A SHAP table is a comma-delimited text file with a header of feature names,
one observation per row, and an optional prediction column.  The baseline is
not inferable from the matrix, so it travels in a JSON sidecar next to the
table (``foo.csv`` pairs with ``foo.meta.json``).  Cells are written with 17
significant digits, which round-trips 64-bit floats losslessly, and all
writes go through a temp file plus rename.
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


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt17(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_shap_table(path, table: ShapTable) -> None:
    path = Path(path)
    header = list(table.feature_names)
    body = table.values
    if table.predictions is not None:
        if table.prediction_column in table.feature_names:
            raise TableFormatError(
                f"prediction column {table.prediction_column!r} collides with a feature name"
            )
        header.append(table.prediction_column)
        body = np.column_stack([table.values, table.predictions])
    meta = {
        "baseline": table.baseline,
        "prediction_column": table.prediction_column,
        **table.extra_meta,
    }
    _atomic_write_text(path, render_csv(header, body))
    _atomic_write_text(meta_path(path), json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _parse_cells(path, reader) -> tuple[list[str], np.ndarray]:
    try:
        header = next(reader)
    except StopIteration:
        raise TableFormatError(f"{path}: empty table") from None
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise TableFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, found {len(row)}"
            )
        try:
            parsed = [float(cell) for cell in row]
        except ValueError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in parsed):
            raise TableFormatError(f"{path}:{lineno}: non-finite value")
        rows.append(parsed)
    if not rows:
        raise TableFormatError(f"{path}: table has a header but no data rows")
    return header, np.array(rows, dtype=float)


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
    _atomic_write_text(Path(path), render_csv(list(feature_names), values))


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
