"""The bench calls nmwit functions by name; every name must still exist.

The tracer wraps the functions that bench/tracing.py lists, and the workloads
in bench/workloads.py call ``nmwit.<name>`` and ``cli.<name>``. bench/ runs
outside tier-1, so these checks keep a rename or a deletion in src/ from
silently leaving the bench a name it can no longer find: each of its items
would fail while tier-1 stayed green.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import nmwit
from nmwit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves_in_nmwit():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"nmwit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"nmwit.{module}.{name}"


def test_every_name_the_workloads_use_resolves():
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {"nmwit": nmwit, "cli": cli}
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {module for module, _ in used} == set(modules)
    for module, name in sorted(used):
        assert hasattr(modules[module], name), f"{module}.{name}"
