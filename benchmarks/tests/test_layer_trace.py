import sys

import numpy as np
import pytest

import mshap.shapley
from layer_trace import Span, Tracer, covered, layer_metrics, self_times, unattributed


def _nested_spans():
    # cli.main [0, 10] -> explain [1, 6] -> h [2, 5] -> f [2.5, 3], g [3.5, 4.5];
    # then a lone model call [6.5, 7] and a table write [8, 9] under cli.main,
    # which nests a write of the same file [8.2, 8.8]
    return [
        Span("cli.main", 0.0, 10.0, parent=-1, op=1),
        Span("shapley.explain_matrix", 1.0, 6.0, parent=0, op=1, counts={"splice_bytes": 64}),
        Span("shapley.model", 2.0, 5.0, parent=1, op=1, counts={"rows": 4}),
        Span("shapley.model", 2.5, 3.0, parent=2, op=1, counts={"rows": 4}),
        Span("shapley.model", 3.5, 4.5, parent=2, op=1, counts={"rows": 4}),
        Span("shapley.model", 6.5, 7.0, parent=0, op=1, counts={"rows": 2}),
        Span("tables.write", 8.0, 9.0, parent=0, op=1, counts={"bytes": 100}),
        Span("tables.write", 8.2, 8.8, parent=6, op=1, counts={"bytes": 100}),
    ]


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1, 3), (2, 4), (6, 7)]) == 4.0
    assert covered(2.0, 5.0, [(0, 3), (4, 9)]) == 2.0
    assert covered(0.0, 1.0, [(2, 3)]) == 0.0


def test_self_times_subtract_child_coverage():
    spans = _nested_spans()
    assert self_times(spans) == pytest.approx([10 - 5 - 0.5 - 1, 5 - 3, 3 - 0.5 - 1, 0.5, 1.0, 0.5, 0.4, 0.6])


def test_layer_metrics_sum_nested_model_calls():
    spans = _nested_spans()
    m = layer_metrics(spans, -1.0, 12.0)
    # h's self time excludes f and g, and the three add up to h's interval
    assert m["shapley.model.self_s"] == pytest.approx(1.5 + 0.5 + 1.0 + 0.5)
    assert m["shapley.model.calls"] == 4
    assert m["shapley.model.rows"] == 14
    assert m["shapley.explain_matrix.self_s"] == pytest.approx(2.0)
    assert m["cli.main.self_s"] == pytest.approx(3.5)
    assert m["tables.write.self_s"] == pytest.approx(1.0)
    assert m["tables.write.calls"] == 2
    assert m["tables.write.bytes"] == 100  # the nested write is the same file
    assert m["shapley.splice_bytes_max"] == 64
    assert m["simulation.sample_scenario_rows.calls"] == 0
    assert m["trace.unattributed_s"] == pytest.approx(3.0)
    assert m["trace.unattributed_frac"] == pytest.approx(3.0 / 13.0)
    assert m["trace.self_sum_s"] + m["trace.unattributed_s"] == pytest.approx(13.0)


def test_unattributed_counts_gaps_between_roots():
    spans = [Span("a", 1.0, 2.0), Span("b", 3.0, 4.0), Span("c", 3.5, 3.8, parent=1)]
    assert unattributed(spans, 0.0, 5.0) == pytest.approx(3.0)


def test_tracer_records_product_nesting_and_restores_originals():
    sh = sys.modules["mshap.shapley"]
    original_call = sh.ModelFunction.__call__
    original_explain = sh.explain_matrix
    rng = np.random.default_rng(0)
    p = 4
    X, bg = rng.uniform(-1, 1, (5, p)), rng.uniform(-1, 1, (7, p))
    f = sh.additive_model(np.ones(p), 1.0)
    h = sh.product_model(f, sh.additive_model(np.arange(1.0, p + 1), 2.0))
    plain = sh.explain_matrix(h, X, bg)

    tracer = Tracer()
    with tracer.installed():
        t0 = __import__("time").perf_counter()
        traced = sh.explain_matrix(h, X, bg)
        t1 = __import__("time").perf_counter()
    assert sh.ModelFunction.__call__ is original_call
    assert sh.explain_matrix is original_explain
    assert np.array_equal(plain.values, traced.values)

    m = layer_metrics(tracer.spans, t0, t1)
    h_calls = 2**p + 1  # background value, 2**p - 1 coalitions, predictions
    assert m["shapley.explain_matrix.calls"] == 1
    assert m["shapley.model.calls"] == 3 * h_calls  # each h call nests f and g
    assert m["shapley.model.rows"] == 3 * (7 + (2**p - 1) * 5 * 7 + 5)
    assert m["shapley.splice_bytes_max"] == 5 * 7 * p * 8
    assert {s.op for s in tracer.spans} == {1}
    assert m["trace.self_sum_s"] + m["trace.unattributed_s"] == pytest.approx(t1 - t0, rel=1e-9)


def test_missing_target_is_skipped():
    tracer = Tracer()
    targets = (("mshap.shapley", "no_such_function", "shapley.model", None),)
    with tracer.installed(targets):
        pass
    assert tracer.missing == ["mshap.shapley.no_such_function"]
