"""In-memory span tracer installed from outside the nmwit package.

The tracer replaces module attributes with timing wrappers and puts the
originals back on uninstall; nothing under ``src/`` is edited. Every nmwit
module attribute that is bound to one of the traced functions is wrapped, so
a call made through ``from .lindblad import extend_and_apply`` in another
module is timed as well. ``numpy.linalg`` eigensolvers are wrapped the same
way, which counts their calls from any caller.

A span is ``[name, start, end, parent, error]`` with ``parent`` the index of
the enclosing span (-1 for a root). Self time is a span's duration minus the
durations of its direct children; since spans nest on one thread, the self
times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy.linalg

#: Public functions whose calls are timed, keyed by nmwit module.
TRACED = {
    "kernel": ("eig_hermitian",),
    "lindblad": ("extend_and_apply",),
    "choi": ("choi_state", "choi_of", "classify"),
    "spa": ("optimal_decomposition",),
    "witness": ("build_witness", "evaluate"),
    "entanglement": ("is_positive", "is_cp", "werner_threshold", "detect_entanglement"),
    "cli": ("resolve_config", "main"),
}

#: Eigensolvers counted from any caller.
NUMPY_TRACED = ("eigh", "eigvalsh", "svd")


def traced_names() -> list[str]:
    """Span names of every wrapped function, in report order."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [f"numpy.linalg.{fn}" for fn in NUMPY_TRACED]


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, error: bool) -> None:
        end = self._clock()
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2], span[4] = start, end, error

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = self._clock()
        error = False
        try:
            yield
        except BaseException:
            error = True
            raise
        finally:
            self._close(idx, start, error)

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            start = tracer._clock()
            error = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                tracer._close(idx, start, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever an nmwit module binds it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"nmwit.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "nmwit" or key.startswith("nmwit."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for fn in NUMPY_TRACED:
            original = getattr(numpy.linalg, fn)
            self._restore.append((numpy.linalg, fn, original))
            setattr(numpy.linalg, fn, self._wrap(f"numpy.linalg.{fn}", original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, error), inner in zip(self.spans, child_time):
            s = out.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["errors"] += int(error)
            s["total_s"] += end - start
            s["self_s"] += (end - start) - inner
        return out

    def write(self, path) -> None:
        """Dump the spans as JSON lines: name, start, end, parent, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
