"""Benchmark entry point: run one workload for one seed, print one JSON result.

    python3 bench/run.py --workload time_scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every workload process is a fresh
interpreter with the checkout's ``src`` on PYTHONPATH and the BLAS thread
count fixed at 1; the processes run one after another, never side by side.

``--trace 0`` starts ten set-up-only processes, then one closed-loop client
that measures for ``--seconds``, and prints the end-to-end metrics.
``--trace 1`` runs the workload's fixed-size block with every request once
untraced and once under the span tracer, and prints the per-layer metrics;
``--seconds`` is unused there.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the environment, input mix and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("time_scan", "generator_sweep", "phase_scan")
#: Set-up-only processes started before the measuring one; setup_s is the
#: median over all of them.
SETUP_PROBES = 10
#: Every process started here must have ended by then.
DEADLINE_S = 170.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _launch(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return (unscaled setup seconds, its JSON line)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    launched = _now()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - launched, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["ready"] - launched, out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Return (info, result) for one run."""
    deadline = _now() + DEADLINE_S
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    try:
        if trace:
            trace_out = out_dir / f"trace_{workload}_seed{seed}.jsonl"
            _, out = _launch([*common, "--trace-out", str(trace_out)], deadline)
            launches = []
        else:
            launches = [_launch([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
            launches.append(_launch([*common, "--seconds", str(seconds)], deadline))
            out = launches[-1][1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = dict(out["metrics"])
    if not trace:
        # Scaled by host speed like the worker's own timings, by the
        # reference kernel timed in each process right after set-up.
        measured["setup_s"] = statistics.median(s * o["host_scale"] for s, o in launches)
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in listed} ^ set(measured)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "requests": out["requests"],
        "windows": out.get("windows"),
        "latency_samples": out.get("latency_samples"),
        "host_samples": out.get("host_samples"),
        "host_scale_median": out.get("host_scale_median"),
        "unscaled": out.get("unscaled"),
        "unscaled_setup_s": statistics.median(s for s, _ in launches) if launches else None,
        "setup_samples": len(launches),
        "failed_frac": out["failed"] / out["attempted"],
        "mix": out["mix"],
        "env": out["env"],
    }
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "nmwit" / "__init__.py").is_file():
        print(f"no nmwit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
