"""Run the benchmark on two revisions in alternating pairs, and compare them.

    python tools/pairs.py --parent REV --change REV --workload W --pairs N \
        [--first-seed K] [--out BENCH_n.json] [--tmp DIR]

Each revision is written by ``git archive`` into its own directory of a
temporary directory (``parent/`` and ``change/``, names of one length), and
each side runs its own ``bench/run.py --trace 0`` there, for
``BENCHMARK.json``'s ``run_seconds``. Pair i runs seed K + i on both sides;
the parent goes first on even i and the change on odd i. For each end-to-end
metric it prints both sides' medians and quartiles
(``statistics.quantiles(n=4)``, first and third) and the pairs the change
won, by the direction ``BENCHMARK.json`` gives the metric. ``--out`` writes
the same, with every pair, both commits and the argv, as JSON. To compare
uncommitted work, pass the commit that ``git stash create`` prints.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def export(rev: str, into: Path) -> None:
    """The tree of rev, written into the directory into."""
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in tree: its metrics' values, with attempted and failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {**{name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {}
        for side in SIDES:
            q = statistics.quantiles(values[side], n=4) if len(pairs) > 1 else values[side] * 2
            stats[f"{side}_median"] = statistics.median(values[side])
            stats[f"{side}_quartiles"] = [q[0], q[-1]]
        won = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        out[name] = {**stats, "change_better_pairs": won, "pairs": len(pairs),
                     "relative_change": stats["change_median"] / stats["parent_median"] - 1.0}
    out["failed"] = sum(p[side]["failed"] for p in pairs for side in SIDES)
    return out


def report(workload: str, stats: dict, metrics: list[dict]) -> None:
    print(f"{workload}: {stats[metrics[0]['name']]['pairs']} pairs, {stats['failed']} failed items")
    for metric in metrics:
        s = stats[metric["name"]]
        pq, cq = s["parent_quartiles"], s["change_quartiles"]
        print(f"  {metric['name']:12} parent {s['parent_median']:.6g} [{pq[0]:.6g}, {pq[1]:.6g}]"
              f"  change {s['change_median']:.6g} [{cq[0]:.6g}, {cq[1]:.6g}]"
              f"  {s['relative_change']:+.1%}  change better in {s['change_better_pairs']}"
              f"/{s['pairs']}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the pairs and their summary to this JSON file")
    parser.add_argument("--tmp", help="directory to make the temporary trees in")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, workload = spec["run_seconds"], args.workload
    metrics = spec["end_to_end"]
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.parent, args.change))}
    pairs = []
    tmp = Path(tempfile.mkdtemp(prefix="pairs-", dir=args.tmp))
    try:
        for side in SIDES:
            export(commits[side], tmp / side)
        for i in range(args.pairs):
            seed, order = args.first_seed + i, SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(tmp / side, workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side][metrics[1]['name']]:.6g}" for side in SIDES), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stats = summary(pairs, metrics)
    report(workload, stats, metrics)
    if args.out:
        import numpy

        record = {
            **commits,
            "argv": ["python", "tools/pairs.py", *argv],
            "run_argv": f"python3 bench/run.py --workload {workload} --seed N --seconds {seconds:g} "
                        "--trace 0",
            "method": "git archive of each commit into parent/ and change/ of one temporary "
                      "directory; seed N runs both sides, the parent first on odd pairs counted "
                      "from 1; metrics are the host-scaled figures run.py reports; quartiles are "
                      "statistics.quantiles(n=4), first and third",
            "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "nproc": os.cpu_count()},
            "workload": workload,
            "summary": stats,
            "pairs": pairs,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
