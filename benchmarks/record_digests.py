"""Record the output digests that every benchmark run is checked against.

Run from the repository root:

    python3 benchmarks/record_digests.py

Runs one fully checked pass of sim_grid and cli_tables on each of the
``INPUT_SETS`` input sets and writes ``digests.json``.  Rerun it only when
the benchmark's inputs change.  When the program's outputs change, the
benchmark's checks fail; rerecording then needs a stated reason.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

RECORDED = ("sim_grid", "cli_tables")


def main() -> int:
    if not run.load_program():
        return 2
    import workloads

    work = run.ROOT / ".bench_work" / f"record-{os.getpid()}"
    digests: dict[str, dict[str, dict[str, str]]] = {}
    try:
        for name in RECORDED:
            workload = workloads.WORKLOADS[name]()
            digests[name] = {}
            for index in range(workloads.INPUT_SETS):
                result = workload.run_pass(workload.setup(index, work), full_check=True)
                if result.failed:
                    print(f"{name} input set {index}: {result.problems}", file=sys.stderr)
                    return 1
                digests[name][str(index)] = result.digests
                print(f"{name} {index} {result.digests}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
