"""Host-speed reference for scaling the benchmark's timings.

Other tenants of the host make its speed swing by up to a half, within
seconds and for minutes on end; CPU time swings with wall time, so this is
not preemption. A fixed reference kernel, small-matrix numpy and Python work
that calls no nmwit code, is timed while the workload runs, and timings are
scaled by ``REF_S`` over the kernel's time around them. The scaled figures
read roughly as on an undisturbed host.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

#: About the fastest time one reference_kernel() call took on a shared 2-vCPU
#: Intel Xeon virtual machine (Python 3.11.7, numpy 2.4.6).
REF_S = 0.003

_H = np.arange(16.0).reshape(4, 4) * (1 + 1j)
_H = _H + _H.conj().T
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_EYE2 = np.eye(2)
# Bound at import, before a tracer can wrap numpy.linalg, so the kernel's
# calls never show up in a trace.
_eigh = np.linalg.eigh


def reference_kernel() -> float:
    """Fixed small-matrix numpy and Python work that calls no nmwit code."""
    acc = 0.0
    for _ in range(50):
        e = np.kron(_EYE2, _X)
        m = _H + 0.01 * (e @ _H @ e.conj().T - 0.5 * (_H + _H))
        if np.abs(m - m.conj().T).max() < 1e-9:
            acc += float(_eigh(m)[0][0])
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class HostClock:
    """``perf_counter`` that stops while the reference kernel runs.

    Inside ``sampling()``, a SIGALRM interval timer runs the kernel every
    ``period`` seconds on the main thread, between bytecodes, and records
    ``(clock time, kernel seconds)``. Intervals measured with ``now()``
    exclude the kernel's time, so workload timings are not inflated by it.
    """

    def __init__(self) -> None:
        self.paused = 0.0
        self.samples: list[tuple[float, float]] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, signum, frame) -> None:
        at = self.now()
        seconds = kernel_seconds()
        self.paused += seconds
        self.samples.append((at, seconds))

    @contextmanager
    def sampling(self, period: float):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time sampled in [start, end] (clock time).

        With no sample in the interval, the sample nearest its middle is used.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            mid = 0.5 * (start + end)
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return REF_S * len(inside) / sum(inside)
