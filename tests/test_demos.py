"""Every demo script runs to completion and prints its golden output.

Each demo is deterministic, so its stdout is pinned byte for byte by
tests/golden/demo_<stem>.txt.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_prints_its_golden_output(demo, tmp_path):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (ROOT / "tests" / "golden" / f"demo_{demo.stem}.txt").read_bytes()
