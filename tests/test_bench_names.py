"""The bench tracer wraps nmwit functions by name; every name must still exist.

bench/test_tracing.py runs outside tier-1, so this check keeps a deletion in
src/ from silently leaving the tracer a function it can no longer find.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves_in_nmwit():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"nmwit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"nmwit.{module}.{name}"
