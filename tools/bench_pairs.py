"""Run the benchmark in two checkouts, in alternating pairs, and record one BENCH file.

Run from the change's git clone, with the parent commit in a sibling git
clone whose path has the same length (each checkout must be the top of a git
work tree, or the tool exits 2 before any run):

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_<n>.json

For every workload that BENCHMARK.json gates, each pair runs

    python3 benchmarks/run.py --workload W --seed S --trace 0

once in each checkout, for run.py's default run length, in ten pairs; the
side that runs first alternates from pair to pair, so drift in the
machine's speed falls on both sides alike.  Three more
alternating pairs of traced ``cli_tables`` runs (``--trace 1``) give the
per-layer metrics of the table layers: a single traced pair cannot resolve
them, because the machine's speed drifts between runs.
Each run is kept with its command, seed, exit code, ``machine`` block and
the JSON object of its last line.  Only pairs whose two runs both exited 0
and printed ``"correct": true`` are summarized; each group records how many
it dropped.  For each metric the file also holds both sides' medians and
quartiles (null when no pair is left) and the number of pairs the change
won (ties count for neither side), and a verdict (see ``verdict``).  Runs
are sequential, one process each.  The exit status is 1 when any pair was
dropped.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACED = "cli_tables"
PAIRS = 10
TRACED_PAIRS = 3


def parse_run(stdout: str) -> dict:
    """The ``machine`` block and the last-line metrics of one run.py output."""
    lines = stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:  # the run died before its last line
        result = None
    return {"machine": machine, "result": result}


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    command = ["python3", "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    print(f"{checkout}: {' '.join(command)} -> exit {proc.returncode}", file=sys.stderr)
    return {"command": " ".join(command), "seed": seed, "exit": proc.returncode, **parse_run(proc.stdout)}


def usable(pair: dict) -> bool:
    """Both runs exited 0 and printed ``"correct": true`` with their metrics."""
    results = [(pair[side]["exit"], pair[side]["result"] or {}) for side in SIDES]
    return all(code == 0 and result.get("correct") is True and result.get("metrics") for code, result in results)


def _quartiles(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "iqr": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _wins(parent: list[float], change: list[float], lower: bool) -> int:
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], lower: bool, bound: float | None) -> str:
    """One metric's verdict over its usable pairs (``parent[i]`` beside ``change[i]``).

    - ``gain``: the change won at least 9 in 10 pairs, and its median is
      better than the parent's by more than the parent's IQR;
    - ``regression``: its median is worse than the parent's by more than
      ``bound``, a fraction of the parent's median;
    - ``unresolved``: the parent's IQR is wider than the bound, and not every
      change run beat every parent run; or no pair is usable;
    - ``unchanged``: none of these.  A metric without a bound is never a
      regression nor unresolved.
    """
    if not parent:
        return "unresolved"
    ours, theirs = _quartiles(parent), _quartiles(change)
    better = (ours["median"] - theirs["median"]) * (1 if lower else -1)
    if 10 * _wins(parent, change, lower) >= 9 * len(parent) and better > ours["iqr"]:
        return "gain"
    if bound is None:
        return "unchanged"
    if -better > bound * abs(ours["median"]):
        return "regression"
    apart = max(change) < min(parent) if lower else min(change) > max(parent)
    return "unresolved" if ours["iqr"] > bound * abs(ours["median"]) and not apart else "unchanged"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, over the usable pairs: each side's median and quartiles, the pairs the change won and its verdict."""
    pairs = [p for p in pairs if usable(p)]
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric.get("bound"),
            **{side: _quartiles(values[side]) for side in SIDES},
            "change_won": f"{_wins(values['parent'], values['change'], lower)} of {len(pairs)}",
            "verdict": verdict(values["parent"], values["change"], lower, metric.get("bound")),
        }
    return out


def run_pairs(checkouts: dict, workload: str, seed: int, trace: int, count: int) -> list[dict]:
    """``count`` pairs of runs, the side that runs first alternating."""
    pairs = []
    for index in range(count):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(checkouts[side], workload, seed, trace)
        pairs.append(pair)
    return pairs


def commit(checkout: Path) -> dict:
    """The checkout's HEAD commit and ``src`` tree; exit 2 unless it is the top of a git work tree."""

    def rev(spec):
        try:
            proc = subprocess.run(["git", "rev-parse", spec], cwd=checkout, capture_output=True, text=True)
        except OSError:  # no such directory
            return None
        return proc.stdout.strip() or None

    # a plain export has no commit, and one nested in another repository would report that repository's
    top = rev("--show-toplevel")
    if top is None or Path(top).resolve() != checkout.resolve():
        print(f"error: {checkout} is not the top of a git work tree", file=sys.stderr)
        raise SystemExit(2)
    return {"commit": rev("HEAD"), "src_tree": rev("HEAD:src")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])]),
        "seed": args.seed,
        **{side: commit(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    def group(pairs: list[dict], metrics: list[dict]) -> dict:
        dropped = sum(not usable(p) for p in pairs)
        return {"pairs": pairs, "dropped_pairs": dropped, "summary": summarize(pairs, metrics)}

    for workload in (w["name"] for w in spec["workloads"]):
        record["workloads"][workload] = group(run_pairs(checkouts, workload, args.seed, 0, PAIRS), spec["end_to_end"])
    record["traced"] = {"workload": TRACED, **group(run_pairs(checkouts, TRACED, args.seed, 1, TRACED_PAIRS), spec["per_layer"])}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if any(g["dropped_pairs"] for g in [*record["workloads"].values(), record["traced"]]) else 0


if __name__ == "__main__":
    sys.exit(main())
