"""Every demo script, and the README's library quickstart, runs to completion and prints its
golden output.

Each is deterministic, so its stdout is pinned byte for byte: a demo's by
tests/golden/demo_<stem>.txt, the quickstart's by tests/golden/readme_quickstart.txt.
"""

import contextlib
import io
import re
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


def test_readme_quickstart_prints_its_golden_output():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README.md has no python block under 'Library quickstart'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue() == (ROOT / "tests" / "golden" / "readme_quickstart.txt").read_text(encoding="utf-8")
