"""One benchmark client process: set up, then run one workload.

Started by run.py, which puts the checkout's ``src`` on PYTHONPATH and fixes
the BLAS thread count at 1. Prints one JSON line whose ``ready`` field is
CLOCK_MONOTONIC at the end of set-up (nmwit imported, inputs built); the
parent subtracts its launch time from it.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR --setup-only
    python3 bench/worker.py --workload NAME --seed N --workdir DIR --seconds S
    python3 bench/worker.py --workload NAME --seed N --workdir DIR --trace-out FILE
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import REF_S, HostClock, kernel_seconds
from tracing import NUMPY_TRACED, Tracer, traced_names
from workloads import WORKLOADS


#: Consecutive requests are grouped into windows of at least this much busy
#: time; a longer request is a window of its own.
WINDOW_S = 0.25
#: Interval between reference-kernel samples of the host's speed.
SAMPLE_PERIOD_S = 0.2


def closed_loop(w, seconds: float) -> dict:
    """Issue requests back to back until ``seconds`` of wall time have passed.

    Each window's times are scaled by the host speed sampled during it (see
    hostspeed), so the figures read roughly as on an undisturbed host; the
    unscaled figures are reported beside them. The loop runs for ``seconds``
    on the workload's clock, which stops while the host is sampled.
    """
    clock = HostClock()
    w.now = clock.now
    items = failed = requests = 0
    windows = []  # [items, busy seconds, latency samples, host scale]
    cur: list = [0, 0.0, []]
    with clock.sampling(SAMPLE_PERIOD_S):
        start = opened = clock.now()
        while clock.now() - start < seconds:
            r = w.request(requests)
            requests += 1
            items += r.items
            failed += r.failed
            cur[0] += r.items
            cur[1] += r.busy_s
            cur[2] += r.latencies_s
            if cur[1] >= WINDOW_S:
                closed = clock.now()
                windows.append([*cur, clock.scale(opened, closed)])
                cur, opened = [0, 0.0, []], closed
        if cur[0]:
            windows.append([*cur, clock.scale(opened, clock.now())])
    del w.now
    scaled = np.concatenate([np.array(lat) * f for _, _, lat, f in windows]) * 1e6
    raw = np.concatenate([lat for _, _, lat, _ in windows]) * 1e6
    busy = sum(b for _, b, _, _ in windows)
    return {
        "attempted": items,
        "failed": failed,
        "requests": requests,
        "windows": len(windows),
        "latency_samples": len(scaled),
        "host_samples": len(clock.samples),
        "host_scale_median": float(np.median([f for *_, f in windows])),
        "unscaled": {"items_per_s": items / busy, "item_p50_us": float(np.percentile(raw, 50)),
                     "item_p90_us": float(np.percentile(raw, 90))},
        "metrics": {
            "items_per_s": items / sum(b * f for _, b, _, f in windows),
            "item_p50_us": float(np.percentile(scaled, 50)),
            "item_p90_us": float(np.percentile(scaled, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def traced_block(w, trace_out: Path) -> dict:
    """Run the workload's fixed block twice, untraced and traced, request by request.

    The block has a fixed number of requests, so the per-item call counts
    repeat exactly for a seed. Each request runs once without and once with
    the tracer installed, alternating which goes first. The tracing overhead
    compares their host-speed-scaled times; the spans run on the same clock,
    which stops while the host is sampled.
    """
    clock = HostClock()
    w.now = clock.now
    tracer = Tracer(clock.now)
    items = failed = 0
    plain = busy = 0.0

    def scaled(k, trace):
        start = clock.now()
        if trace:
            w.span = tracer.span
            try:
                with tracer.installed(), tracer.span("bench.request"):
                    r = w.request(k)
            finally:
                del w.span
        else:
            r = w.request(k)
        return r, r.busy_s * clock.scale(start, clock.now())

    with clock.sampling(SAMPLE_PERIOD_S):
        for k in range(w.trace_requests):
            order = (True, False) if k % 2 else (False, True)
            runs = {trace: scaled(k, trace) for trace in order}
            r, seconds = runs[True]
            items += r.items
            failed += r.failed
            busy += seconds
            plain += runs[False][1]
    del w.now
    summary = tracer.summary()
    tracer.write(trace_out)
    zero = {"calls": 0, "errors": 0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    for name in traced_names():
        s = summary.get(name, zero)
        metrics[f"{name}.calls"] = s["calls"]
        metrics[f"{name}.calls_per_item"] = s["calls"] / items
        metrics[f"{name}.self_s"] = s["self_s"]
        metrics[f"{name}.errors"] = s["errors"]
    count = lambda name: summary.get(name, zero)["calls"]  # noqa: E731
    eigensolves = sum(count(f"numpy.linalg.{fn}") for fn in NUMPY_TRACED)
    thresholds = count("entanglement.werner_threshold")
    metrics["numpy.linalg.eigensolves_per_item"] = eigensolves / items
    metrics["entanglement.detect_entanglement.calls_per_threshold"] = (
        count("entanglement.detect_entanglement") / thresholds if thresholds else 0.0)
    metrics["lindblad.generator_build_s"] = summary.get("lindblad.generator_build", zero)["self_s"]
    metrics["trace.items"] = items
    metrics["trace.overhead_frac"] = busy / plain - 1.0
    return {"attempted": items, "failed": failed, "requests": w.trace_requests, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    w = WORKLOADS[args.workload](args.seed, args.workdir)
    out: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    # Scales this process's set-up time like the closed loop's timings.
    out["host_scale"] = REF_S / min(kernel_seconds() for _ in range(3))
    if not args.setup_only:
        w.warm_up()
        if args.trace_out:
            out.update(traced_block(w, args.trace_out))
        else:
            out.update(closed_loop(w, args.seconds))
        out["mix"] = w.mix()
        out["env"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
