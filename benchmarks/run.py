"""One-command benchmark for mshap.

Run from the repository root:

    python3 benchmarks/run.py --workload sim_grid --seed 0 --seconds 20 --trace 0

Workloads: sim_grid, cli_tables, oracle_wide (see README.md).  The run
imports mshap from ``src/``, builds its inputs from the seed, sets them up
several times, runs one warm-up pass with every output check, then repeats
passes until ``--seconds`` have passed.  Every pass is checked.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see layer_trace.py), after checking
that traced outputs are byte-identical to untraced ones and that self times
plus unattributed time add up to the traced wall time.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the mshap
sources are missing.  Single process, single thread.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sim_grid", "cli_tables", "oracle_wide")
# set-up is sampled again whenever this long has passed since the last
# sample, so set-up samples spread over the run like the passes do
SETUP_EVERY_S = 3.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# relative tolerance of "self times + unattributed == traced wall"
TRACE_SUM_TOL = 1e-9

# name -> (unit, better, what it stands for on each workload)
END_TO_END = {
    "setup_s": ("s", "lower", "import, input generation and input files written"),
    "peak_rss_mb": ("MB", "lower", "peak resident set of the run"),
    "stage1_s": ("s", "lower", "sim_grid: paper grid simulate; cli_tables: combine; oracle_wide: exact f, g, h"),
    "stage2_s": ("s", "lower", "sim_grid: desk grid simulate; cli_tables: summary-data; oracle_wide: sampler"),
}

_MODEL = "sim_grid stage1_s/stage2_s, oracle_wide stage1_s; no change on cli_tables"
_GRID = "sim_grid stage1_s/stage2_s (cells_per_s)"
_TABLES = "cli_tables stage1_s/stage2_s, peak_rss_mb"
# name -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    "shapley.model.self_s": ("s", "lower", _MODEL),
    "shapley.model.calls": ("count", "lower", _MODEL),
    "shapley.model.rows": ("rows", "lower", _MODEL),
    "shapley.explain_matrix.self_s": ("s", "lower", "sim_grid stage1_s/stage2_s, oracle_wide stage1_s"),
    "shapley.explain_matrix.calls": ("count", "lower", "sim_grid stage1_s/stage2_s, oracle_wide stage1_s"),
    "shapley.sampling_explain_matrix.self_s": ("s", "lower", "oracle_wide stage2_s (sampler_s)"),
    "shapley.sampling_explain_matrix.calls": ("count", "lower", "oracle_wide stage2_s (sampler_s)"),
    "shapley.splice_bytes_max": ("bytes", "lower", "oracle_wide peak_rss_mb (computed n*m*p*8)"),
    "shapley.sampler_rmse": ("attribution", "lower", "oracle_wide sampler error, compared at equal model.rows"),
    "simulation.sample_scenario_rows.self_s": ("s", "lower", _GRID),
    "simulation.sample_scenario_rows.calls": ("count", "lower", _GRID),
    "simulation.accept_ratio": ("ratio", "higher", _GRID),
    "simulation.run_grid.self_s": ("s", "lower", _GRID),
    "combine.combine.self_s": ("s", "lower", _GRID),
    "combine.combine.calls": ("count", "lower", _GRID),
    "combine.fallback_frac": ("ratio", "lower", _GRID),
    "scoring.score_matrices.self_s": ("s", "lower", _GRID),
    "scoring.score_matrices.calls": ("count", "lower", _GRID),
    "scoring.score_matrices.cells": ("cells", "lower", _GRID),
    "tables.read.self_s": ("s", "lower", _TABLES),
    "tables.read.bytes": ("bytes", "lower", _TABLES),
    "tables.write.self_s": ("s", "lower", _TABLES),
    "tables.write.bytes": ("bytes", "lower", _TABLES),
    "cli.main.self_s": ("s", "lower", "cli_tables stage2_s (summary_data_s), peak_rss_mb"),
    "trace.unattributed_frac": ("ratio", "lower", "none: wall time no span covers"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced / untraced wall - 1"),
}


@dataclass
class Report:
    setup_s: list[float]
    warm: object
    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    trace_problems: list[str] = field(default_factory=list)
    missing_targets: list[str] = field(default_factory=list)


def _median(values) -> float:
    values = [v for v in values if v == v]  # a failed stage has no time
    return statistics.median(values) if values else 0.0


def _count(report: Report, result, reference_digests) -> None:
    report.attempted += result.attempted
    report.failed += result.failed
    report.problems.extend(result.problems)
    if result.digests != reference_digests:
        # outputs that differ from the warm-up pass fail every op of the pass
        report.failed += result.attempted - result.failed
        report.problems.append(f"outputs differ from the warm-up pass: {result.digests}")


def _setup(workload, index: int, work: Path):
    """One set-up sample: a fresh-process import plus the workload's set-up."""
    import_s = import_seconds()
    t0 = time.perf_counter()
    inputs = workload.setup(index, work)
    return import_s + time.perf_counter() - t0, inputs


def measure(workload, index: int, seconds: float, trace: bool, work: Path, expected=None) -> Report:
    """Set up, warm up, then run passes for ``seconds``; checks every pass.

    Set-up rewrites the same inputs, so later samples leave them unchanged.
    """
    from layer_trace import Tracer, layer_metrics

    setup_s, inputs = _setup(workload, index, work)
    warm = workload.run_pass(inputs, expected, full_check=True)
    report = Report(setup_s=[setup_s], warm=warm)
    report.attempted, report.failed = warm.attempted, warm.failed
    report.problems.extend(warm.problems)

    last_setup = time.perf_counter()
    deadline = last_setup + seconds
    while True:
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            report.setup_s.append(_setup(workload, index, work)[0])
            last_setup = time.perf_counter()
        plain = workload.run_pass(inputs, expected)
        _count(report, plain, warm.digests)
        report.plain.append(plain)
        if trace:
            tracer = Tracer()
            with tracer.installed():
                traced = workload.run_pass(inputs, expected)
            _count(report, traced, warm.digests)
            report.traced.append(traced)
            report.missing_targets = tracer.missing
            metrics = layer_metrics(tracer.spans, *traced.window)
            wall = traced.window[1] - traced.window[0]
            gap = metrics["trace.self_sum_s"] + metrics["trace.unattributed_s"] - wall
            if abs(gap) > TRACE_SUM_TOL * wall:
                report.trace_problems.append(f"self times + unattributed miss the traced wall by {gap:.3e} s")
            if traced.digests != plain.digests:
                report.trace_problems.append("traced outputs differ from untraced outputs")
            metrics["shapley.sampler_rmse"] = traced.sampler_rmse or 0.0
            report.layers.append(metrics)
        if time.perf_counter() >= deadline:
            return report


def end_to_end(report: Report) -> dict[str, float]:
    return {
        "setup_s": statistics.median(report.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stage1_s": _median(p.stage_s[0] for p in report.plain),
        "stage2_s": _median(p.stage_s[1] for p in report.plain),
    }


def _wall(passes) -> float:
    return _median(p.window[1] - p.window[0] for p in passes)


def per_layer(report: Report) -> dict[str, float]:
    out = {name: _median(m.get(name, 0.0) for m in report.layers) for name in PER_LAYER}
    out["trace.overhead_frac"] = _wall(report.traced) / _wall(report.plain) - 1.0
    return out


def _cache_bytes(name: int):
    # glibc's _SC_LEVEL2_CACHE_SIZE (191) and _SC_LEVEL3_CACHE_SIZE (194)
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def machine(seed: int, index: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "l2_bytes": _cache_bytes(191) if sys.platform.startswith("linux") else None,
        "l3_bytes": _cache_bytes(194) if sys.platform.startswith("linux") else None,
        "seed": seed,
        "input_set": index,
    }


def _print_report(workload, report: Report, e2e: dict, layers: dict | None) -> None:
    n = len(report.plain)
    print(f"end-to-end, untraced (timings are medians over {n} passes after one warm-up pass):")
    notes = {
        "setup_s": f"median of {len(report.setup_s)} set-ups, each a fresh-process import + input generation",
        "stage1_s": workload.stage_names[0],
        "stage2_s": workload.stage_names[1],
    }
    units = {k: v[0] for k, v in END_TO_END.items()}
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.6g} {units[name]:<6} {notes.get(name, '')}")
    for name, value, unit in workload.extra_metrics(report.plain):
        print(f"  {name:<16} {value:12.6g} {unit}")
    frac = report.failed / report.attempted if report.attempted else 0.0
    print(f"  {'ops_failed_frac':<16} {frac:12.6g} ratio  {report.failed} failed of {report.attempted} attempted")
    if layers is not None:
        print(f"per-layer, traced (medians over {len(report.traced)} traced passes):")
        for name, value in layers.items():
            unit, _, moves = PER_LAYER[name]
            print(f"  {name:<40} {value:14.6g} {unit:<12} -> {moves}")
        if report.missing_targets:
            print(f"  not wrapped (absent from the program): {', '.join(report.missing_targets)}")
    for problem in (report.problems + report.trace_problems)[:20]:
        print(f"  FAILED CHECK: {problem}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def load_program() -> bool:
    """Import mshap from ``src/``, single-threaded.

    Returns False, after saying why on stderr, when the sources are missing.
    """
    if not (SRC / "mshap" / "cli.py").is_file():
        print(f"error: no mshap sources under {SRC}", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("mshap.cli")
    if Path(cli.__file__).resolve().parent != SRC / "mshap":
        print(f"error: imported mshap from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


def import_seconds() -> float:
    """Time to import mshap.cli, numpy included, in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import mshap.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not load_program():
        return 2
    # imports mshap, which load_program() has just put on the path
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    index = args.seed % workloads.INPUT_SETS
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    print(f"mshap benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s measured")
    print("machine " + json.dumps(machine(args.seed, index), sort_keys=True))
    try:
        report = measure(
            workload, index, args.seconds, bool(args.trace), work,
            expected=workloads.recorded_digests(args.workload, index),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    e2e = end_to_end(report)
    layers = per_layer(report) if args.trace else None
    _print_report(workload, report, e2e, layers)
    correct = report.failed == 0 and not report.trace_problems
    chosen, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in chosen.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
