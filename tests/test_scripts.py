"""Smoke test of the demo scripts: each runs to the end and prints its table."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, header", [
    ("best_type_demo.py", ["n", "best", "type", "value/use", "gap"]),
    ("coding_vs_bounds.py", ["n", "M", "best_pe", "mean_pe", "implied", "band+slack"]),
    ("exponent_curve_demo.py", ["rate", "lower", "upper", "exact", "alpha*"]),
])
def test_script_runs(script, header):
    # Each script puts src/ on its own path, so no install is needed.
    res = subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / script)], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert header in [line.split() for line in res.stdout.splitlines()]
