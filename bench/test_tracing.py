"""Checks of the benchmark's span tracer.

    python3 -m pytest bench/test_tracing.py -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy.linalg

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import nmwit  # noqa: E402
import nmwit.cli  # noqa: E402,F401
from tracing import NUMPY_TRACED, Tracer, traced_names  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every loaded nmwit module, plus the numpy eigensolvers."""
    out = {(key, attr): value
           for key, module in list(sys.modules.items())
           if key == "nmwit" or key.startswith("nmwit.")
           for attr, value in vars(module).items()}
    out.update({("numpy.linalg", fn): getattr(numpy.linalg, fn) for fn in NUMPY_TRACED})
    return out


def _traced_run(tmp_path: Path) -> Tracer:
    tracer = Tracer()
    with tracer.installed(), tracer.span("root"):
        nmwit.cli.main(["witness", "--scenario", "eternal", "--t-start", "0.1",
                        "--t-stop", "2", "--t-steps", "5", "--output", str(tmp_path / "w.csv")])
        nmwit.cli.main(["divisibility", "--scenario", "eternal", "--t-start", "0.1",
                        "--t-stop", "2", "--t-steps", "5", "--output", str(tmp_path / "d.csv")])
        m = nmwit.small_time_map(nmwit.depolarizer(1.0, -0.5, 0.3), 0.5, 0.01)
        nmwit.evaluate(nmwit.build_witness(m), nmwit.choi_of(m))
        nmwit.cli.main(["entangle", "--scan", "--gamma1-range", "0:0.6:4", "--gamma2-range",
                        "0:1:4", "--samples", "200", "--output", str(tmp_path / "s.csv")])
    return tracer


def test_self_times_sum_to_root_span(tmp_path):
    tracer = _traced_run(tmp_path)
    name, start, end, parent, error = tracer.spans[0]
    assert (name, parent, error) == ("root", -1, False)
    assert all(span[3] >= 0 for span in tracer.spans[1:])
    summary = tracer.summary()
    assert set(traced_names()) - {"numpy.linalg.svd"} <= set(summary)
    total_self = sum(s["self_s"] for s in summary.values())
    assert math.isclose(total_self, end - start, rel_tol=1e-9)
    assert all(s["self_s"] >= 0 for s in summary.values())


def test_wrappers_removed_after_traced_run(tmp_path):
    before = _bindings()
    _traced_run(tmp_path)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_call_counts_repeat(tmp_path):
    def counts():
        return {name: s["calls"] for name, s in _traced_run(tmp_path).summary().items()}

    assert counts() == counts()
