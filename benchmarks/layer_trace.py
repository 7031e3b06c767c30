"""Outside-in layer trace for the mshap benchmark.

The traced run replaces each layer entry point, under the module attribute
its caller looks up at call time, with a wrapper that records a span: name,
start, end, parent span and operation id, plus a few counts taken at the
same boundary.  No file under ``src/`` changes; ``Tracer.installed()``
restores every original on exit.  Spans stay in memory and are reduced to
per-layer numbers when the pass ends.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Wall time that no root span covers is "unattributed":
the benchmark's own glue between calls, or work a later version routes past
every wrapped name.  Work routed past a wrapped name that is still called
from inside a wrapped caller shows up as that caller's self time instead
(``cli.main`` or ``simulation.run_grid``).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layers reported with self time and call counts, in report order.
LAYERS = (
    "shapley.model",
    "shapley.explain_matrix",
    "shapley.sampling_explain_matrix",
    "simulation.sample_scenario_rows",
    "simulation.run_grid",
    "combine.combine",
    "scoring.score_matrices",
    "tables.read",
    "tables.write",
    "cli.main",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 marks a root span
    op: int = 0  # id of the top-level call this span belongs to
    counts: dict | None = None


class Tracer:
    """Collects spans for one traced pass.  Single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []  # indices of the open spans
        self._ops = 0

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # open and close are inlined: model calls run tens of thousands
            # of times per pass, and every step here is trace overhead
            if stack:
                parent = stack[-1]
                op = spans[parent].op
            else:
                self._ops += 1
                parent, op = -1, self._ops
            span = Span(name, clock(), 0.0, parent, op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts = count(args, kwargs, result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets=None):
        """Swap every target for its traced wrapper; restore them on exit.

        A target whose module or attribute no longer exists is skipped and
        listed in ``missing``, so its time falls to the enclosing span.
        """
        saved = []
        try:
            for module_name, path, name, count in targets or TARGETS:
                owner = sys.modules.get(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                own = attr in vars(owner)
                original = getattr(owner, attr)
                saved.append((owner, attr, original, own))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _count_model(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "X"))}


def _count_explain(args, kwargs, result):
    # bytes of the (n, m, p) float64 splice tensor this call implies
    background = _arg(args, kwargs, 2, "background")
    m = len(getattr(background, "data", background))
    n, p = result.values.shape
    return {"splice_bytes": n * m * p * 8}


def _count_sample(args, kwargs, result):
    rows, resampled = result
    return {"kept": len(rows), "drawn": len(rows) + int(resampled)}


def _count_combine(args, kwargs, result):
    return {"rows": result.values.shape[0], "fallback": len(result.fallback_rows)}


def _count_score(args, kwargs, result):
    candidate = _arg(args, kwargs, 0, "candidate")
    return {"cells": int(getattr(candidate, "size", 0))}


def _count_file(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)}


# (module, attribute path, layer, counter)
TARGETS = (
    ("mshap.cli", "main", "cli.main", None),
    ("mshap.cli", "run_grid", "simulation.run_grid", None),
    ("mshap.cli", "combine", "combine.combine", _count_combine),
    ("mshap.cli", "score_matrices", "scoring.score_matrices", _count_score),
    ("mshap.cli", "read_shap_table", "tables.read", _count_file),
    ("mshap.cli", "read_value_table", "tables.read", _count_file),
    ("mshap.cli", "write_shap_table", "tables.write", _count_file),
    ("mshap.cli", "_atomic_write_text", "tables.write", _count_file),
    ("mshap.tables", "read_value_table", "tables.read", _count_file),
    ("mshap.tables", "_atomic_write_text", "tables.write", _count_file),
    ("mshap.simulation", "sample_scenario_rows", "simulation.sample_scenario_rows", _count_sample),
    ("mshap.simulation", "explain_matrix", "shapley.explain_matrix", _count_explain),
    ("mshap.simulation", "sampling_explain_matrix", "shapley.sampling_explain_matrix", _count_explain),
    ("mshap.simulation", "combine", "combine.combine", _count_combine),
    ("mshap.simulation", "score_matrices", "scoring.score_matrices", _count_score),
    ("mshap.shapley", "explain_matrix", "shapley.explain_matrix", _count_explain),
    ("mshap.shapley", "sampling_explain_matrix", "shapley.sampling_explain_matrix", _count_explain),
    ("mshap.shapley", "ModelFunction.__call__", "shapley.model", _count_model),
    ("mshap.combine", "combine", "combine.combine", _count_combine),
    ("mshap.scoring", "score_matrices", "scoring.score_matrices", _count_score),
)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(span.start, span.end, kids)
        for span, kids in zip(spans, children)
    ]


def unattributed(spans: list[Span], start: float, end: float) -> float:
    """Wall time in ``[start, end]`` that no root span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    return (end - start) - covered(start, end, roots)


def _nested_in_same_layer(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Per-layer numbers for one traced window ``[start, end]``.

    Also returns ``trace.self_sum_s`` and ``trace.unattributed_s`` so the
    caller can check that self times plus unattributed time equal the wall.
    """
    wall = end - start
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    totals: dict[str, float] = {}
    splice_max = 0
    for span, own in zip(spans, selfs):
        out[f"{span.name}.self_s"] = out.get(f"{span.name}.self_s", 0.0) + own
        out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
        for key, value in (span.counts or {}).items():
            if key == "bytes" and _nested_in_same_layer(spans, span):
                continue  # the outer read or write already counted this file
            if key == "splice_bytes":
                splice_max = max(splice_max, value)
            else:
                name = f"{span.name}.{key}"
                totals[name] = totals.get(name, 0) + value
    drawn = totals.get("simulation.sample_scenario_rows.drawn", 0)
    combined = totals.get("combine.combine.rows", 0)
    out.update(
        {
            "shapley.model.rows": totals.get("shapley.model.rows", 0),
            "shapley.splice_bytes_max": splice_max,
            "simulation.accept_ratio": (
                totals.get("simulation.sample_scenario_rows.kept", 0) / drawn if drawn else 0.0
            ),
            "combine.fallback_frac": (
                totals.get("combine.combine.fallback", 0) / combined if combined else 0.0
            ),
            "scoring.score_matrices.cells": totals.get("scoring.score_matrices.cells", 0),
            "tables.read.bytes": totals.get("tables.read.bytes", 0),
            "tables.write.bytes": totals.get("tables.write.bytes", 0),
        }
    )
    gap = unattributed(spans, start, end)
    out["trace.unattributed_frac"] = gap / wall if wall > 0 else 0.0
    out["trace.self_sum_s"] = sum(selfs)
    out["trace.unattributed_s"] = gap
    return out
