"""The three benchmark workloads and their output checks.

Each workload is a closed-loop client: it issues request k only after request
k-1 has returned. A request times its nmwit calls, checks their outputs
against closed forms, and returns the busy seconds with one latency sample
per item (library calls) or per request (CLI calls). A failed check, an
untyped exception or a nonzero CLI exit counts the affected items as failed;
it never aborts the run.

Why these three: users of nmwit either sweep one generator over a long time
grid (``time_scan``: per-generator costs amortized, ``lindblad`` and the Choi
path dominate), probe many distinct generators through the library
(``generator_sweep``: per-generator costs paid on every item), or scan the
Werner phase plane (``phase_scan``: all time in ``entanglement``, none in
``lindblad``/``choi``/``spa``/``witness``, the no-change control for a faster
superoperator core).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nmwit
from nmwit import cli


def _read_csv(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV output (header comments and column line dropped)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    return [ln.split(",") for ln in body[1:]]


def _close(a: float, b: float, rel: float = 1e-10, abs_: float = 1e-14) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_


@dataclass
class Request:
    """Outcome of one closed-loop request."""

    items: int
    busy_s: float
    latencies_s: list[float]
    failed: int


class Workload:
    name = ""
    #: Requests in the fixed-size block that the traced run times.
    trace_requests = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        self.workdir = workdir

    #: Clock for every timing; the worker swaps in the host-speed sampler's clock.
    now = staticmethod(time.perf_counter)

    @staticmethod
    def span(name: str):
        """Span around the benchmark's own steps; replaced by the tracer's in traced runs."""
        return nullcontext()

    def warm_up(self) -> None:
        """One small request down the same code path, so lazy set-up is not timed."""

    def request(self, k: int) -> Request:
        raise NotImplementedError

    def mix(self) -> dict:
        """Measured input mix over the requests run so far."""
        return {}


class TimeScan(Workload):
    """CLI ``divisibility`` then ``witness`` for the eternal depolarizer over one
    ascending 1000-instant grid. An item is one instant of the grid."""

    name = "time_scan"
    trace_requests = 4
    steps = 1000

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.epsilon = float(self.rng.uniform(0.005, 0.02))
        self.t_start = float(self.rng.uniform(0.05, 0.1))
        self.t_stop = float(self.rng.uniform(4.0, 5.0))
        self.grid = np.linspace(self.t_start, self.t_stop, self.steps)
        self.args = self._args(self.steps)
        self.checked = self.indivisible = 0

    def _args(self, steps: int) -> list[str]:
        return ["--scenario", "eternal", "--epsilon", repr(self.epsilon),
                "--t-start", repr(self.t_start), "--t-stop", repr(self.t_stop),
                "--t-steps", str(steps)]

    def _run(self, args: list[str]) -> tuple[float, int, int, Path, Path]:
        div, wit = self.workdir / "divisibility.csv", self.workdir / "witness.csv"
        start = self.now()
        rc_div = cli.main(["divisibility", *args, "--output", str(div)])
        rc_wit = cli.main(["witness", *args, "--output", str(wit)])
        return self.now() - start, rc_div, rc_wit, div, wit

    def warm_up(self) -> None:
        self._run(self._args(20))

    def request(self, k: int) -> Request:
        n = self.steps
        start = self.now()
        try:
            busy, rc_div, rc_wit, div, wit = self._run(self.args)
        except Exception:
            busy = self.now() - start
            return Request(n, busy, [busy / n], n)
        if rc_div or rc_wit:
            return Request(n, busy, [busy / n], n)
        div_rows, wit_rows = _read_csv(div), _read_csv(wit)
        if len(div_rows) != n or len(wit_rows) != n:
            return Request(n, busy, [busy / n], n)
        eps = self.epsilon
        failed = 0
        for t, d, w in zip(self.grid, div_rows, wit_rows):
            self.checked += 1
            self.indivisible += d[3] == "false"
            th = math.tanh(t)
            lam = -eps * th
            omega = 4 * eps * th / (1 + 4 * eps * th)
            nu = 1 - omega
            ok = (
                _close(float(d[0]), t, 1e-11) and _close(float(w[0]), t, 1e-11)
                and _close(float(d[1]), lam)
                and _close(float(d[2]), -2 * lam)
                and d[3] == "false"
                and _close(float(w[1]), omega)
                and _close(float(w[2]), nu)
                and _close(float(w[3]), nu * lam)
                and w[4] == "true"
            )
            failed += not ok
        return Request(n, busy, [busy / n], failed)

    def mix(self) -> dict:
        return {"instants_per_request": self.steps, "epsilon": self.epsilon,
                "t_start": self.t_start, "t_stop": self.t_stop,
                "indivisible_share": self.indivisible / max(self.checked, 1)}


class GeneratorSweep(Workload):
    """Library calls on many distinct seeded generators: 1 to 4 random Hermitian
    jumps with constant coefficients in [-1, 1], each evaluated at a few
    instants. An item is one snapshot; a request is one generator."""

    name = "generator_sweep"
    trace_requests = 600
    pool_size = 4096
    instants = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = self.rng
        self.pool = []
        for _ in range(self.pool_size):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
            jumps = (a + a.conj().transpose(0, 2, 1)) / 2
            coefs = rng.uniform(-1.0, 1.0, size=n)
            eps = float(rng.uniform(0.001, 0.05))
            ts = rng.uniform(0.0, 3.0, size=self.instants)
            self.pool.append((jumps, coefs, eps, ts))
        self.snapshots = 0
        self.indivisible = 0
        self.degenerate = 0
        self.jump_counts: Counter = Counter()

    def warm_up(self) -> None:
        for k in range(4):
            for _ in self._snapshots(self.pool[-1 - k]):
                pass

    def _snapshots(self, spec):
        """Yield (seconds, choi, verdict, witness or None, value or None) per instant.

        The first snapshot's seconds include building the generator."""
        jumps, coefs, eps, ts = spec
        start = self.now()
        with self.span("lindblad.generator_build"):
            gen = nmwit.LindbladGenerator(
                dim=2, terms=tuple((nmwit.constant(float(c)), L) for c, L in zip(coefs, jumps)))
        build = self.now() - start
        for t in ts:
            start = self.now()
            m = nmwit.small_time_map(gen, t, eps)
            c = nmwit.choi_of(m)
            v = nmwit.classify(c)
            W = value = None
            if not v.markovian:
                try:
                    W = nmwit.build_witness(m)
                    value = nmwit.evaluate(W, c)
                except nmwit.DegenerateMinimum:
                    pass
            yield self.now() - start + build, c, v, W, value
            build = 0.0

    def request(self, k: int) -> Request:
        spec = self.pool[k % self.pool_size]
        self.jump_counts[len(spec[1])] += 1
        latencies, failed = [], 0
        mark = self.now()
        try:
            for seconds, c, v, W, value in self._snapshots(spec):
                mark = self.now()
                latencies.append(seconds)
                self.snapshots += 1
                ok = abs(np.trace(c.matrix).real - 1.0) <= 1e-12
                if not v.markovian:
                    self.indivisible += 1
                    if W is None:
                        # DegenerateMinimum: a typed refusal, not a wrong answer.
                        self.degenerate += 1
                    else:
                        ok = ok and value < 0 and abs(value - W.nu * v.minimum_eigenvalue) <= 1e-10
                failed += not ok
        except Exception:
            # The snapshot that raised is timed up to here, checks included.
            latencies.append(self.now() - mark)
            failed += self.instants - len(latencies) + 1
        return Request(self.instants, sum(latencies), latencies, failed)

    def mix(self) -> dict:
        generators = sum(self.jump_counts.values())
        return {
            "snapshots": self.snapshots,
            "indivisible_share": self.indivisible / max(self.snapshots, 1),
            "degenerate_minimum": self.degenerate,
            "jump_count_share": {str(n): self.jump_counts[n] / max(generators, 1)
                                 for n in range(1, 5)},
        }


def werner_threshold_closed(g1: float, g2: float) -> float:
    """Werner detection onset 1 / (8 g1 + 4 g2 - 3) on the non-CP part of g1, g2 >= 0."""
    return 1.0 / (8.0 * g1 + 4.0 * g2 - 3.0)


class PhaseScan(Workload):
    """CLI ``entangle --scan`` over the documented 0:0.6 x 0:1 grid (61 x 101
    points, 10,000 samples per point). An item is one grid point."""

    name = "phase_scan"
    gamma1_range = "0:0.6:61"
    gamma2_range = "0:1:101"
    margin = 1e-9

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.points = 61 * 101
        self.scan_seed = int(self.rng.integers(0, 2**31))
        self.out = self.workdir / "scan.csv"
        self.regions: Counter = Counter()

    def _argv(self, g1_range: str, g2_range: str) -> list[str]:
        return ["entangle", "--scan", "--gamma1-range", g1_range, "--gamma2-range", g2_range,
                "--samples", "10000", "--seed", str(self.scan_seed), "--output", str(self.out)]

    def warm_up(self) -> None:
        cli.main(self._argv("0:0.6:3", "0:1:3"))

    def request(self, k: int) -> Request:
        n = self.points
        start = self.now()
        try:
            rc = cli.main(self._argv(self.gamma1_range, self.gamma2_range))
        except Exception:
            rc = None
        busy = self.now() - start
        rows = _read_csv(self.out) if rc == 0 else []
        if len(rows) != n:
            return Request(n, busy, [busy / n], n)
        m = self.margin
        failed = 0
        for g1s, g2s, positive, cp, threshold in rows:
            g1, g2 = float(g1s), float(g2s)
            pos_expected = g1 <= 0.5 + m and g1 + g2 <= 1.0 + m
            cp_expected = 1.0 - 2.0 * g1 - g2 >= -m
            ok = positive == str(pos_expected).lower() and cp == str(cp_expected).lower()
            if pos_expected and not cp_expected:
                self.regions["positive_not_cp"] += 1
                closed = werner_threshold_closed(g1, g2)
                ok = ok and threshold != "" and abs(float(threshold) - closed) < 2e-6
            else:
                self.regions["cp" if cp_expected else "not_positive"] += 1
                ok = ok and threshold == ""
            failed += not ok
        return Request(n, busy, [busy / n], failed)

    def mix(self) -> dict:
        total = max(sum(self.regions.values()), 1)
        return {"grid_points": self.points, "scan_seed": self.scan_seed,
                **{f"{r}_share": self.regions[r] / total
                   for r in ("not_positive", "positive_not_cp", "cp")}}


WORKLOADS = {w.name: w for w in (TimeScan, GeneratorSweep, PhaseScan)}
WORKLOAD_NAMES = list(WORKLOADS)
