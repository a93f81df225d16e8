"""Test-session setup shared by every test module.

CLI tests run ``python -m nmwit`` in subprocesses, some of them with a
temporary working directory. A relative ``PYTHONPATH=src`` does not resolve
there, so the absolute path of ``src`` is put first on the PYTHONPATH that
subprocesses inherit.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
