import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402


def _run(**values):
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    return {"result": {"correct": True, "metrics": metrics}}


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
    pairs.append({"parent": _run(t=9.0, r=9.0), "change": {"result": None}})  # a run that printed nothing
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
