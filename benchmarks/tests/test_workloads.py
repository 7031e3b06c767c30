import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(run.__file__).resolve().parent

TINY_GRID = {"y1": ["Y1A"], "y2": ["Y2A", "Y2E"], "theta1": [1.5], "theta2": [1.0, 6.0], "n": 20, "background_size": 20}
TINY = {
    "sim_grid": lambda: workloads.SimGrid({"paper": TINY_GRID, "desk": {**TINY_GRID, "theta2": [46.0]}}),
    "cli_tables": lambda: workloads.CliTables(rows=300, features=4),
    "oracle_wide": lambda: workloads.OracleWide(p=4, n=10, m=20, permutations=8, sampler_seeds=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_passes_every_check(name, tmp_path):
    report = run.measure(TINY[name](), 3, 0.0, True, tmp_path)
    assert report.attempted > 0
    assert report.failed == 0, report.problems
    assert report.trace_problems == []
    assert report.missing_targets == []
    layers = run.per_layer(report)
    assert set(layers) == set(run.PER_LAYER)
    e2e = run.end_to_end(report)
    assert set(e2e) == set(run.END_TO_END)
    assert all(value > 0 for value in e2e.values())


def test_tiny_runs_are_reproducible(tmp_path):
    a = run.measure(TINY["cli_tables"](), 5, 0.0, False, tmp_path / "a")
    b = run.measure(TINY["cli_tables"](), 5, 0.0, False, tmp_path / "b")
    assert a.warm.digests == b.warm.digests


def test_digest_mismatch_fails_the_operations(tmp_path):
    wl = TINY["sim_grid"]()
    report = run.measure(wl, 0, 0.0, False, tmp_path, expected={"paper": "0" * 64})
    paper_cells = wl.cells("paper")
    assert report.failed == paper_cells * 2  # warm-up pass and one measured pass
    assert any("differs from the recorded" in p for p in report.problems)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == {name: (unit, better) for name, (unit, better, _) in table.items()}


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "oracle_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "oracle_wide", "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: v[0] for k, v in run.END_TO_END.items()}
