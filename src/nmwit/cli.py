"""Command-line harness: scenario runs, scans and exports.

Subcommands
  divisibility  per-instant Choi spectrum classification over a time grid
  witness       witness construction and self-evaluation over a time grid
  spa           optimal mixing parameters (p*, omega, nu) over a time grid
  entangle      Werner-state detection at one map point, or a phase scan
  prop1         randomized adjoint-identity suite, prints the max residual

Configuration comes from flags, or a JSON file via --config with flags taking
precedence; the merged effective configuration is echoed into the output
header. Outputs are deterministic for a fixed configuration (seeded streams,
no timestamps), and every numeric is emitted with 12 significant digits.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 degenerate witness minimum, 5 requested map point not positive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import choi, entanglement, lindblad, spa, witness
from .errors import DegenerateMinimum, MapNotPositive, NmwitError
from .kernel import in_grid_order

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DEGENERATE = 4
EXIT_NOT_POSITIVE = 5

_SCENARIOS = ("dephasing", "eternal", "custom")


class ConfigError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round12(v):
    """Round floats to 12 significant digits for JSON emission."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, (list, tuple)):
        return [_round12(x) for x in v]
    if isinstance(v, dict):
        return {k: _round12(x) for k, x in v.items()}
    return v


@dataclass
class ScenarioConfig:
    command: str
    scenario: str = "eternal"
    generator_file: str | None = None
    gamma_d: float = -1.0
    epsilon: float = 0.01
    t_grid: list[float] = field(default_factory=lambda: [1.0])
    tolerance: float = 1e-9
    seed: int = 0
    output: str | None = None
    format: str = "csv"
    # entangle
    gamma1: float | None = None
    gamma2: float | None = None
    p: float | None = None
    scan: bool = False
    gamma1_range: tuple[float, float, int] | None = None
    gamma2_range: tuple[float, float, int] | None = None
    samples: int = 10_000
    # witness
    export_witness: str | None = None
    # prop1
    draws: int = 100
    echo: list[tuple[str, object]] = field(default_factory=list)
    generator: lindblad.LindbladGenerator | None = None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; explicit flags override it")
    common.add_argument("--scenario", choices=_SCENARIOS)
    common.add_argument("--generator", help="generator description file (scenario=custom)")
    common.add_argument("--gamma-d", type=float, dest="gamma_d",
                        help="constant dephasing coefficient (scenario=dephasing, default -1)")
    common.add_argument("--epsilon", type=float, help="small-time step (default 0.01)")
    common.add_argument("--t-start", type=float, dest="t_start")
    common.add_argument("--t-stop", type=float, dest="t_stop")
    common.add_argument("--t-steps", type=int, dest="t_steps")
    common.add_argument("--tolerance", type=float, help="classification tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, help="RNG seed (fallback: NMWIT_SEED, then 0)")
    common.add_argument("--output", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"))

    parser = argparse.ArgumentParser(
        prog="nmwit",
        description="Qubit channel divisibility, SPA witnesses and entanglement detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("divisibility", parents=[common],
                   help="classify instantaneous divisibility over a time grid")
    wit = sub.add_parser("witness", parents=[common],
                         help="build and evaluate witnesses over a time grid")
    wit.add_argument("--export-witness", dest="export_witness",
                     help="also write the witness matrices (JSON) to this path")
    sub.add_parser("spa", parents=[common],
                   help="print p*, omega, nu for scenario instants")
    ent = sub.add_parser("entangle", parents=[common],
                         help="Werner detection at a map point, or a phase scan")
    ent.add_argument("--gamma1", type=float)
    ent.add_argument("--gamma2", type=float)
    ent.add_argument("--p", type=float, help="Werner parameter (single-point mode)")
    ent.add_argument("--scan", action="store_true", help="run a phase scan instead")
    ent.add_argument("--gamma1-range", dest="gamma1_range", help="lo:hi:steps")
    ent.add_argument("--gamma2-range", dest="gamma2_range", help="lo:hi:steps")
    ent.add_argument("--samples", type=int, help="pure-state samples per grid point")
    pr = sub.add_parser("prop1", parents=[common],
                        help="randomized adjoint-identity suite")
    pr.add_argument("--draws", type=int, help="number of random draws (default 100)")
    return parser


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        return float(lo), float(hi), int(steps)
    except ValueError:
        raise ConfigError(f"{name} must look like lo:hi:steps, got {text!r}") from None


def _as(kind, value, name: str):
    """kind(value) for a flag or config-file value; a ConfigError naming it if that fails."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}") from None


def _merged(args: argparse.Namespace, file_cfg: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")

    cfg = ScenarioConfig(command=args.command)
    cfg.scenario = _merged(args, file_cfg, "scenario", "eternal")
    if cfg.scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    cfg.generator_file = _merged(args, file_cfg, "generator", None)
    cfg.gamma_d = _as(float, _merged(args, file_cfg, "gamma_d", -1.0), "gamma_d")
    cfg.epsilon = _as(float, _merged(args, file_cfg, "epsilon", 0.01), "epsilon")
    cfg.tolerance = _as(float, _merged(args, file_cfg, "tolerance", 1e-9), "tolerance")
    cfg.output = _merged(args, file_cfg, "output", None)
    cfg.format = _merged(args, file_cfg, "format", "csv")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    if not 0 < cfg.epsilon < np.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {cfg.epsilon!r}")
    if not 0 < cfg.tolerance < np.inf:
        raise ConfigError(f"tolerance must be finite and > 0, got {cfg.tolerance!r}")

    seed = getattr(args, "seed", None)
    if seed is None:
        seed = file_cfg.get("seed")
    if seed is None and "NMWIT_SEED" in os.environ:
        try:
            seed = int(os.environ["NMWIT_SEED"])
        except ValueError:
            raise ConfigError(
                f"NMWIT_SEED must be an integer, got {os.environ['NMWIT_SEED']!r}"
            ) from None
    cfg.seed = _as(int, seed, "seed") if seed is not None else 0
    if cfg.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    # Time grid: explicit flags (start/stop/steps) override a file-level grid.
    t_start = getattr(args, "t_start", None)
    t_stop = getattr(args, "t_stop", None)
    t_steps = getattr(args, "t_steps", None)
    if t_start is None and t_stop is None and t_steps is None and "t_grid" in file_cfg:
        if not isinstance(file_cfg["t_grid"], list):
            raise ConfigError(f"t_grid must be a list of numbers, got {file_cfg['t_grid']!r}")
        grid = [_as(float, t, "t_grid entry") for t in file_cfg["t_grid"]]
        if not grid:
            raise ConfigError("t_grid in config file is empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("t_grid in config file must be strictly ascending")
        cfg.t_grid = grid
        cfg.echo = [("t_grid", "[" + " ".join(_fmt(t) for t in grid) + "]")]
    else:
        start = _as(float, t_start if t_start is not None else file_cfg.get("t_start", 1.0),
                    "t_start")
        steps = _as(int, t_steps if t_steps is not None else file_cfg.get("t_steps", 1), "t_steps")
        stop = _as(float, t_stop if t_stop is not None else file_cfg.get("t_stop", start), "t_stop")
        if steps < 1:
            raise ConfigError(f"t_steps must be >= 1, got {steps}")
        if steps > 1 and not stop > start:
            raise ConfigError("t_stop must exceed t_start when t_steps > 1")
        cfg.t_grid = [float(t) for t in np.linspace(start, stop, steps)]
        cfg.echo = [("t_start", start), ("t_stop", stop), ("t_steps", steps)]

    header = [("command", cfg.command)]
    if cfg.command in ("divisibility", "witness", "spa"):
        header.append(("scenario", cfg.scenario))
        if cfg.scenario == "custom":
            if not cfg.generator_file:
                raise ConfigError("scenario=custom requires --generator")
            try:
                cfg.generator = lindblad.load_generator(cfg.generator_file)
            except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
                raise ConfigError(f"cannot load generator {cfg.generator_file}: {e}") from None
            header.append(("generator", cfg.generator_file))
        elif cfg.scenario == "dephasing":
            cfg.generator = lindblad.dephasing(cfg.gamma_d)
            header.append(("gamma_d", cfg.gamma_d))
        else:
            cfg.generator = lindblad.eternal_depolarizer()
        header.append(("epsilon", cfg.epsilon))
        header.extend(cfg.echo)
    elif cfg.command == "entangle":
        cfg.gamma1 = _merged(args, file_cfg, "gamma1", None)
        cfg.gamma2 = _merged(args, file_cfg, "gamma2", None)
        cfg.p = _merged(args, file_cfg, "p", None)
        cfg.scan = bool(getattr(args, "scan", False) or file_cfg.get("scan", False))
        cfg.samples = _as(int, _merged(args, file_cfg, "samples", 10_000), "samples")
        if cfg.samples < 1:
            raise ConfigError("samples must be >= 1")
        if cfg.scan:
            r1 = _merged(args, file_cfg, "gamma1_range", None)
            r2 = _merged(args, file_cfg, "gamma2_range", None)
            if r1 is None or r2 is None:
                raise ConfigError("scan mode requires --gamma1-range and --gamma2-range")

            def as_range(r, name):
                if isinstance(r, str):
                    lo, hi, steps = _parse_range(r, name)
                else:
                    try:
                        lo, hi, steps = r
                        lo, hi, steps = float(lo), float(hi), int(steps)
                    except (TypeError, ValueError):
                        raise ConfigError(f"{name} must be [lo, hi, steps], got {r!r}") from None
                if not np.isfinite(hi - lo):  # also catches an overflowing span
                    raise ConfigError(f"{name} needs finite bounds and span, got {lo!r}:{hi!r}")
                return lo, hi, steps

            cfg.gamma1_range = as_range(r1, "--gamma1-range")
            cfg.gamma2_range = as_range(r2, "--gamma2-range")
            if cfg.gamma1_range[2] < 1 or cfg.gamma2_range[2] < 1:
                raise ConfigError("range steps must be >= 1")
            header.append(("gamma1_range", ":".join(_fmt(x) for x in cfg.gamma1_range)))
            header.append(("gamma2_range", ":".join(_fmt(x) for x in cfg.gamma2_range)))
            header.append(("samples", cfg.samples))
        else:
            if cfg.gamma1 is None or cfg.gamma2 is None or cfg.p is None:
                raise ConfigError("single-point mode requires --gamma1, --gamma2 and --p")
            cfg.gamma1 = _as(float, cfg.gamma1, "gamma1")
            cfg.gamma2 = _as(float, cfg.gamma2, "gamma2")
            cfg.p = _as(float, cfg.p, "p")
            # Built here only to validate, so that bad values exit as config errors.
            entanglement.MapFamilyPoint(cfg.gamma1, cfg.gamma2)
            entanglement.werner(cfg.p)
            header.extend([("gamma1", cfg.gamma1), ("gamma2", cfg.gamma2), ("p", cfg.p)])
    elif cfg.command == "prop1":
        cfg.draws = _as(int, _merged(args, file_cfg, "draws", 100), "draws")
        if cfg.draws < 1:
            raise ConfigError("draws must be >= 1")
        header.append(("draws", cfg.draws))

    header.extend([("tolerance", cfg.tolerance), ("seed", cfg.seed), ("format", cfg.format)])
    cfg.echo = header
    if cfg.command == "witness":
        cfg.export_witness = getattr(args, "export_witness", None) or file_cfg.get("export_witness")
    return cfg


def _emit(cfg: ScenarioConfig, columns: list[str], rows: list[list]) -> None:
    if cfg.format == "csv":
        lines = [f"# {k} = {_fmt(v)}" for k, v in cfg.echo]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "config": {k: _round12(v) for k, v in cfg.echo},
            "columns": columns,
            "rows": [[_round12(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_divisibility(cfg: ScenarioConfig) -> int:
    results = choi.scan(cfg.generator, cfg.t_grid, cfg.epsilon, cfg.tolerance)
    rows = [
        [t, v.minimum_eigenvalue, v.trace_norm_excess, v.markovian] for t, v in results
    ]
    _emit(cfg, ["t", "lambda_min", "trace_norm_excess", "markovian"], rows)
    return EXIT_OK


def cmd_witness(cfg: ScenarioConfig) -> int:
    matrices, omega, nu, tau, witnesses = witness.witness_scan(
        cfg.generator, cfg.t_grid, cfg.epsilon)
    values = witness.witness_values(nu, tau, matrices)
    omega, nu = omega.tolist(), nu.tolist()
    rows = [[t, o, n, v, v < -cfg.tolerance] for t, o, n, v in zip(cfg.t_grid, omega, nu, values)]
    _emit(cfg, ["t", "omega", "nu", "witness_value", "detected"], rows)
    if cfg.export_witness:
        exports = [
            witness.witness_to_dict(witness.WitnessOperator(
                matrix=W, nu=n, omega=o, tau=v,
                source_map=lindblad.small_time_map(cfg.generator, t, cfg.epsilon)))
            for t, o, n, v, W in zip(cfg.t_grid, omega, nu, tau, witnesses)
        ]
        with open(cfg.export_witness, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(_round12(exports), indent=2) + "\n")
    return EXIT_OK


def cmd_spa(cfg: ScenarioConfig) -> int:
    gen, eps = cfg.generator, cfg.epsilon

    def stacked(times):
        _, matrices, spectrum = choi.choi_grid(gen, times, eps)
        return spa.spa_grid(matrices, spectrum.eigenvalues)[:3]

    def single(t):
        spa.optimal_decomposition(choi.choi_of(lindblad.small_time_map(gen, t, eps)))

    lam, omega, nu = (x.tolist() for x in in_grid_order(stacked, single, cfg.t_grid))
    rows = [[t, lm, o, o, n] for t, lm, o, n in zip(cfg.t_grid, lam, omega, nu)]
    _emit(cfg, ["t", "lambda_minus", "p_star", "omega", "nu"], rows)
    return EXIT_OK


def cmd_entangle(cfg: ScenarioConfig) -> int:
    if cfg.scan:
        lo1, hi1, n1 = cfg.gamma1_range
        lo2, hi2, n2 = cfg.gamma2_range
        results = entanglement.phase_scan(
            (lo1, hi1), (lo2, hi2), (n1, n2),
            n_samples=cfg.samples, tolerance=cfg.tolerance, seed=cfg.seed,
        )
        rows = [[r.gamma1, r.gamma2, r.positive, r.cp, r.werner_threshold] for r in results]
        _emit(cfg, ["gamma1", "gamma2", "positive", "cp", "werner_threshold"], rows)
        return EXIT_OK
    pt = entanglement.MapFamilyPoint(cfg.gamma1, cfg.gamma2)
    state = entanglement.werner(cfg.p)
    detected, lam = entanglement.detect_entanglement(state.matrix, pt, cfg.tolerance)
    _emit(cfg, ["gamma1", "gamma2", "p", "lambda_min", "detected"],
          [[cfg.gamma1, cfg.gamma2, cfg.p, lam, detected]])
    return EXIT_OK


def cmd_prop1(cfg: ScenarioConfig) -> int:
    worst = witness.adjoint_identity_max_residual(cfg.draws, cfg.seed)
    _emit(cfg, ["draws", "max_residual"], [[cfg.draws, worst]])
    if worst >= 1e-10:
        print(f"adjoint-identity residual {worst:.3e} exceeds 1e-10", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_HANDLERS = {
    "divisibility": cmd_divisibility,
    "witness": cmd_witness,
    "spa": cmd_spa,
    "entangle": cmd_entangle,
    "prop1": cmd_prop1,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, NmwitError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _HANDLERS[args.command](cfg)
    except DegenerateMinimum as e:
        print(f"degenerate minimum: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MapNotPositive as e:
        print(f"map not positive: {e}", file=sys.stderr)
        return EXIT_NOT_POSITIVE
    except (NmwitError, ValueError, RuntimeError, FloatingPointError, OSError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
