"""Smoke test: the narrative demos run to completion.

Demos 04 and 05 are left out: the acceptance suite already runs the desk
grid and the runtime-scaling study they print.  Demos 02 and 06 print no
timing and no path, so their whole stdout is pinned.
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

# demo -> its full stdout
GOLDEN = {
    "02_oracle_vs_sampling.py": (
        "exact attribution: [-0.038366 -0.041259  0.01397   0.007975  0.005323 -0.036039]\n"
        "efficiency check: sum(phi) = -0.088398 = prediction - baseline = -0.088398\n"
        "\n"
        "permutations  max |error|   max stderr\n"
        "          10     1.95e-02     8.68e-03\n"
        "          40     1.46e-02     4.65e-03\n"
        "         160     8.95e-03     2.48e-03\n"
        "         640     3.36e-03     1.28e-03\n"
        "         720     3.75e-16     1.21e-03 (exhaustive)\n"
        "\n"
        "with all 720 orderings enumerated, max gap to the oracle: 3.75e-16\n"
    ),
    "06_expected_value_model.py": (
        "max |before - after| over 40 rows: 1.14e-13  (uniform weighting)\n"
        "\n"
        "expected cost        driver_age  annual_mileage\n"
        "      1335.25           337.09          252.00\n"
        "       818.91           132.84          -60.09\n"
        "       385.74           -24.41         -336.02\n"
        "       476.21          -255.32          -14.64\n"
        "       610.92          -364.10          228.86\n"
        "\n"
        "local accuracy of the expected-value attribution: True\n"
    ),
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
    if name in GOLDEN:
        assert proc.stdout == GOLDEN[name]
