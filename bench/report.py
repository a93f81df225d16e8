"""Run every workload over several seeds and print each metric with its unit.

    python3 bench/report.py                       # seeds 1-3, end-to-end only
    python3 bench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace --json out.json

Each run is ``bench/run.py`` in a subprocess, one after another. For each
workload and end-to-end metric the table gives the median over seeds, the
quartiles and the quartile spread as a share of the median, under the
metric's per-workload name (``instants_per_s`` for ``items_per_s`` on
``time_scan``, and so on), plus ``failed_frac`` over all runs. ``--trace``
adds one traced run per workload (first seed) and prints its nonzero
per-layer metrics. ``--json`` writes all of it, with the environment and the
measured input mix, to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS

#: The name each end-to-end metric goes by on a workload.
ALIASES = {
    "time_scan": {"items_per_s": "instants_per_s"},
    "generator_sweep": {"items_per_s": "snapshots_per_s", "item_p50_us": "snapshot_p50_us",
                        "item_p90_us": "snapshot_p90_us"},
    "phase_scan": {"items_per_s": "grid_points_per_s"},
}


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info["info"], result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--json", type=Path, help="write the aggregated results here")
    args = parser.parse_args()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    print(f"{'workload':16s} {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s}  unit")
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, False) for seed in args.seeds]
        entry: dict = {"end_to_end": {}, "mix": [info["mix"] for info, _ in runs]}
        report["env"] = runs[0][0]["env"]
        for m in spec["end_to_end"]:
            name = ALIASES[workload].get(m["name"], m["name"])
            s = spread([result["metrics"][m["name"]]["value"] for _, result in runs])
            entry["end_to_end"][name] = {**s, "unit": m["unit"]}
            print(f"{workload:16s} {name:20s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['iqr_frac']:8.4f}  {m['unit']}")
        failed = sum(result["failed"] for _, result in runs)
        attempted = sum(result["attempted"] for _, result in runs)
        entry["failed_frac"] = failed / attempted
        entry["correct"] = all(result["correct"] for _, result in runs)
        print(f"{workload:16s} {'failed_frac':20s} {failed / attempted:12.6g} "
              f"{'':12s} {'':12s} {'':8s}  {failed}/{attempted}")
        if args.trace:
            info, result = run_once(workload, args.seeds[0], args.seconds, True)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            for k, v in result["metrics"].items():
                if v["value"]:
                    print(f"{workload:16s}   {k:58s} {v['value']:14.6g}  {units[k]}")
        report["workloads"][workload] = entry
    env = report["env"]
    print(f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"BLAS threads {env['blas_threads']}, {args.seconds} s per run, seeds {args.seeds}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
