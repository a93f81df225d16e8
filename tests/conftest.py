"""Test-session setup shared by every test module.

CLI tests run ``python -m nmwit`` in subprocesses, some of them with a
temporary working directory. A relative ``PYTHONPATH=src`` does not resolve
there, so the absolute path of ``src`` is put first on the PYTHONPATH that
subprocesses inherit. PYTHONWARNINGS gives those subprocesses (the CLI and
the demos) the warning policy that pyproject.toml gives in-process tests: a
RuntimeWarning or DeprecationWarning is an error.

The solves fixture counts eigensolves at kernel's solver boundary.
"""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning,error::DeprecationWarning"


@pytest.fixture
def solves(monkeypatch):
    """The eigensolves kernel makes while a test runs, one (kind, matrices, vectors) each.

    kind is "complex" or "real" for a LAPACK call in that arithmetic and "x" for the
    closed form of real X-pattern matrices; vectors says whether eigenvectors were asked for.
    """
    from nmwit import kernel

    calls, lapack, closed_form = [], kernel._lapack, kernel._x_solve

    def counted_lapack(A, vectors):
        kind = "complex" if A.dtype.kind == "c" else "real"
        calls.append((kind, int(np.prod(A.shape[:-2])), vectors))
        return lapack(A, vectors)

    def counted_closed_form(G, vectors):
        calls.append(("x", len(G), vectors))
        return closed_form(G, vectors)

    monkeypatch.setattr(kernel, "_lapack", counted_lapack)
    monkeypatch.setattr(kernel, "_x_solve", counted_closed_form)
    return calls
