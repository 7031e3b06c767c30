"""Smoke test: the narrative demos run to completion.

Demos 04 and 05 are left out: the acceptance suite already runs the desk
grid and the runtime-scaling study they print.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo -> a line its stdout must contain, or None
DEMOS = {
    "01_two_part_attribution.py": "local accuracy at 1e-9 on all rows: True",
    "02_oracle_vs_sampling.py": None,
    "03_alpha_weightings.py": None,
    "06_expected_value_model.py": "local accuracy of the expected-value attribution: True",
    "07_cli_tables.py": None,
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    # TMPDIR keeps the scratch directory demo 07 makes inside tmp_path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if DEMOS[name] is not None:
        assert DEMOS[name] in proc.stdout.splitlines()
