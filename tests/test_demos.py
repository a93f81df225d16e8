"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
