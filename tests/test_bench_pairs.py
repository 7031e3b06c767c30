import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402


def _run(correct=True, exit=0, **values):
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return {"exit": exit, "result": {"correct": correct, "metrics": metrics}}


def test_parse_run_keeps_the_machine_block_and_the_last_line():
    last = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"stage1_s": {"value": 0.5, "unit": "s"}}}
    stdout = "\n".join([
        "mshap benchmark: workload cli_tables, seed 3, 30 s measured",
        'machine {"cpu_count": 2, "seed": 3}',
        "  stage1_s  0.5 s",
        json.dumps(last),
    ]) + "\n"
    assert bench_pairs.parse_run(stdout) == {"machine": {"cpu_count": 2, "seed": 3}, "result": last}
    assert bench_pairs.parse_run("") == {"machine": None, "result": None}
    died = stdout.rsplit("\n", 2)[0] + "\nTraceback (most recent call last):\n"
    assert bench_pairs.parse_run(died) == {"machine": {"cpu_count": 2, "seed": 3}, "result": None}


def test_summary_counts_wins_in_the_better_direction_and_ties_for_neither():
    parent = [3.0, 1.0, 2.0, 4.0, 5.0]
    change = [2.0, 1.0, 1.0, 4.5, 4.0]
    pairs = [{"parent": _run(t=p, r=p), "change": _run(t=c, r=c)} for p, c in zip(parent, change)]
    pairs.append({"parent": _run(t=9.0, r=9.0), "change": {"exit": 1, "result": None}})  # a run that printed nothing
    metrics = [
        {"name": "t", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "r", "unit": "ratio", "better": "higher", "bound": 0.1},
    ]
    summary = bench_pairs.summarize(pairs, metrics)
    assert summary["t"]["change_won"] == "3 of 5"
    assert summary["r"]["change_won"] == "1 of 5"
    assert summary["t"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert summary["t"]["change"]["median"] == 2.0
    assert summary["t"]["bound"] == 0.25


METRICS = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}]


def test_a_pair_with_an_incorrect_or_failed_run_is_dropped():
    good = [{"parent": _run(t=p), "change": _run(t=p - 1.0)} for p in (2.0, 3.0, 4.0)]
    bad = [
        {"parent": _run(t=1.0), "change": _run(correct=False, t=100.0)},  # printed "correct": false
        {"parent": _run(exit=1, t=100.0), "change": _run(t=1.0)},  # metrics, but a failed exit
        {"parent": _run(t=1.0), "change": {"exit": 0, "result": {"correct": True}}},  # no metrics
    ]
    assert [bench_pairs.usable(p) for p in good + bad] == [True] * 3 + [False] * 3
    summary = bench_pairs.summarize(good + bad, METRICS)["t"]
    assert summary["change_won"] == "3 of 3"
    assert summary["parent"]["median"] == 3.0 and summary["change"]["median"] == 2.0


def test_a_workload_with_no_usable_pair_gets_null_quartiles():
    # this used to raise ValueError: not enough values to unpack, and write no BENCH file
    pairs = [{"parent": _run(t=1.0), "change": _run(correct=False, t=1.0)}]
    empty = {"median": None, "q1": None, "q3": None, "iqr": None}
    for given in (pairs, []):
        summary = bench_pairs.summarize(given, METRICS)["t"]
        assert summary["parent"] == summary["change"] == empty
        assert summary["change_won"] == "0 of 0"
        assert summary["verdict"] == "unresolved"


def test_main_records_the_dropped_pairs_and_exits_1(tmp_path, monkeypatch):
    spec = {"workloads": [{"name": "w"}, {"name": "v"}], "end_to_end": METRICS, "per_layer": METRICS}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs, "TRACED_PAIRS", 1)
    monkeypatch.setattr(bench_pairs, "commit", lambda checkout: {"commit": None, "src_tree": None})
    calls = []

    def fake_run(checkout, workload, seed, trace):
        calls.append((workload, trace))
        return _run(correct=len(calls) != 2, t=float(len(calls)))  # the second run is incorrect

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out)]) == 1
    record = json.loads(out.read_text())
    assert record["workloads"]["w"]["dropped_pairs"] == 1
    assert record["workloads"]["w"]["summary"]["t"]["change_won"] == "1 of 1"
    assert record["workloads"]["v"]["dropped_pairs"] == 0
    # every workload gets its own traced pairs, after all the untraced ones
    assert calls == [("w", 0)] * 4 + [("v", 0)] * 4 + [("w", 1)] * 2 + [("v", 1)] * 2
    assert sorted(record["traced"]) == ["v", "w"]
    for traced in record["traced"].values():
        assert traced["dropped_pairs"] == 0 and traced["summary"]["t"]["change_won"] == "0 of 1"


@pytest.mark.parametrize("nested", [False, True], ids=["plain", "inside-another-repository"])
def test_main_refuses_a_checkout_that_is_not_the_top_of_a_git_work_tree(tmp_path, monkeypatch, capsys, nested):
    checkout = tmp_path / "outer" / "export"
    checkout.mkdir(parents=True)
    if nested:
        subprocess.run(["git", "init", "-q", str(tmp_path / "outer")], check=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w"}], "end_to_end": METRICS}))

    def fake_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(checkout), "--change", str(checkout), "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {checkout} is not the top of a git work tree\n"
    assert not out.exists()


PARENT = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5: a spread of 4.3 %


@pytest.mark.parametrize(
    "change, expected",
    [
        ([p - 5.0 for p in PARENT], "gain"),  # 10 of 10 won, medians 5 apart
        ([p - 5.0 for p in PARENT[:9]] + [300.0], "gain"),  # 9 of 10 is enough
        ([p - 5.0 for p in PARENT[:8]] + [300.0, 300.0], "unchanged"),  # 8 of 10 is not
        ([p - 1.0 for p in PARENT], "unchanged"),  # 10 of 10 won, but inside the parent's IQR
        ([p * 1.3 for p in PARENT], "regression"),  # the median is 30 % worse, the bound 25 %
        ([p * 1.2 for p in PARENT], "unchanged"),  # 20 % worse is inside the bound
    ],
)
def test_verdict_of_a_lower_is_better_metric(change, expected):
    assert bench_pairs.verdict(PARENT, change, True, 0.25) == expected


def test_verdict_of_a_higher_is_better_metric():
    assert bench_pairs.verdict(PARENT, [p + 5.0 for p in PARENT], False, 0.25) == "gain"
    assert bench_pairs.verdict(PARENT, [p * 0.7 for p in PARENT], False, 0.25) == "regression"
    assert bench_pairs.verdict(PARENT, [p - 5.0 for p in PARENT], False, 0.25) == "unchanged"


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate():
    wide = [1.0, 2.0, 3.0, 4.0, 100.0, 100.0, 197.0, 198.0, 199.0, 200.0]  # IQR 194.5, median 100
    assert bench_pairs.verdict(wide, [w - 0.5 for w in wide], True, 0.25) == "unresolved"
    # every change run beat every parent run, by less than the IQR: no gain, but resolved
    assert bench_pairs.verdict(wide, [0.5] * 10, True, 0.25) == "unchanged"
    # with no bound a metric is a gain or unchanged
    assert bench_pairs.verdict(wide, [w * 2 for w in wide], True, None) == "unchanged"


def test_the_summary_carries_each_metric_s_verdict():
    pairs = [{"parent": _run(t=p), "change": _run(t=p - 5.0)} for p in PARENT]
    assert bench_pairs.summarize(pairs, METRICS)["t"]["verdict"] == "gain"
