"""The bench calls nmwit functions by name and checks their output; both must still hold.

The tracer wraps the functions that bench/tracing.py lists, and the workloads
in bench/workloads.py call ``nmwit.<name>`` and ``cli.<name>`` and check what
they return or write against closed forms. bench/ runs outside tier-1, so
these checks keep a change in src/ from silently leaving the bench a name it
can no longer find, an argument the CLI no longer takes, or an output its
checks reject: each of its items would fail while tier-1 stayed green.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import nmwit
from nmwit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(stem):
    """bench/<stem>.py as a module, registered in sys.modules, where @dataclass looks it up."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_nmwit():
    tracing = _load("tracing")
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


@pytest.mark.parametrize("name, items", [("time_scan", 1000), ("generator_sweep", 3),
                                         ("phase_scan", 61 * 101)])
def test_each_workload_runs_one_request_without_a_failed_item(name, items, tmp_path):
    # The workload's own set-up, warm-up and output checks, on one request.
    workload = _load("workloads").WORKLOADS[name](7, tmp_path)
    workload.warm_up()
    request = workload.request(0)
    assert (request.items, request.failed) == (items, 0)
