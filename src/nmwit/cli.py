"""Command-line harness: scenario runs, scans and exports.

Subcommands
  divisibility  per-instant Choi spectrum classification over a time grid
  witness       witness construction and self-evaluation over a time grid
  spa           optimal mixing parameters (p*, omega, nu) over a time grid
  entangle      Werner-state detection at one map point, or a phase scan
  prop1         randomized adjoint-identity suite, prints the max residual

Each option is declared once, in the table below. A key ``k`` of the JSON file
given by --config is parsed as the flag ``--k`` (underscores become dashes);
``t_grid`` (a list of instants) is file-only, and a scan range may be a
``[lo, hi, steps]`` list. Unknown keys and wrongly typed values are config
errors. Flags beat the file, which beats the defaults; the effective
configuration is echoed into the output header. Outputs are deterministic
(seeded streams, no timestamps), with 12 significant digits per numeric.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 degenerate witness minimum, 5 requested map point not positive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import choi, entanglement, lindblad, spa, witness
from .errors import DegenerateMinimum, MapNotPositive, NmwitError
from .kernel import in_grid_order

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_DEGENERATE = 4
EXIT_NOT_POSITIVE = 5

_CONFIG = ("--config", {"help": "JSON config file; explicit flags override it"})
# Options every subcommand takes, and that a config file may set.
_COMMON = (
    ("--scenario", {"choices": ("dephasing", "eternal", "custom")}),
    ("--generator", {"help": "generator description file (scenario=custom)"}),
    ("--gamma-d", {"type": float,
                   "help": "constant dephasing coefficient (scenario=dephasing, default -1)"}),
    ("--epsilon", {"type": float, "help": "small-time step (default 0.01)"}),
    ("--t-start", {"type": float}),
    ("--t-stop", {"type": float}),
    ("--t-steps", {"type": int}),
    ("--tolerance", {"type": float, "help": "classification tolerance (default 1e-9)"}),
    ("--seed", {"type": int, "help": "RNG seed (fallback: NMWIT_SEED, then 0)"}),
    ("--output", {"help": "output path (default stdout)"}),
    ("--format", {"choices": ("csv", "json")}),
)
# Each subcommand's help and its own options.
_COMMANDS = {
    "divisibility": ("classify instantaneous divisibility over a time grid", ()),
    "witness": ("build and evaluate witnesses over a time grid", (
        ("--export-witness", {"help": "also write the witness matrices (JSON) to this path"}),
    )),
    "spa": ("print p*, omega, nu for scenario instants", ()),
    "entangle": ("Werner detection at a map point, or a phase scan", (
        ("--gamma1", {"type": float}),
        ("--gamma2", {"type": float}),
        ("--p", {"type": float, "help": "Werner parameter (single-point mode)"}),
        ("--scan", {"action": "store_true", "help": "run a phase scan instead"}),
        ("--gamma1-range", {"help": "lo:hi:steps"}),
        ("--gamma2-range", {"help": "lo:hi:steps"}),
        ("--samples", {"type": int, "help": "pure-state samples per grid point"}),
    )),
    "prop1": ("randomized adjoint-identity suite", (
        ("--draws", {"type": int, "help": "number of random draws (default 100)"}),
    )),
}
# Config-file only: the instants, each parsed as a float.
_T_GRID = ("--t-grid", {"type": float, "action": "append"})
# Values of the options that neither a flag nor the config file sets. The
# seed's fallback is NMWIT_SEED before 0, and t_stop's is t_start.
_DEFAULTS = {
    "scenario": "eternal", "generator": None, "gamma_d": -1.0, "epsilon": 0.01,
    "t_start": 1.0, "t_steps": 1, "tolerance": 1e-9, "output": None, "format": "csv",
    "export_witness": None, "scan": False, "samples": 10_000, "draws": 100,
}


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


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; an option that is not given is absent from its namespace."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag, spec in (_CONFIG, *_COMMON):
        common.add_argument(flag, **spec)
    parser = argparse.ArgumentParser(
        prog="nmwit",
        description="Qubit channel divisibility, SPA witnesses and entanglement detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        subparser = sub.add_parser(command, parents=[common], help=help_text,
                                   argument_default=argparse.SUPPRESS)
        for flag, spec in options:
            subparser.add_argument(flag, **spec)
    return parser


def _tokens(key: str, value, spec: dict | None, source: str) -> list[str]:
    """Flag tokens for a config-file entry, if it names an option and its JSON type suits it."""
    if spec is None:
        raise ConfigError(f"unknown config key {key!r} in {source}")
    flag = "--" + key.replace("_", "-")

    def is_text(v) -> bool:  # a string, or a number where the option parses one
        return isinstance(v, str) or (
            "type" in spec and isinstance(v, (int, float)) and not isinstance(v, bool))

    action = spec.get("action")
    if action == "store_true":
        if isinstance(value, bool):
            return [flag] if value else []
    elif action == "append":
        if isinstance(value, list) and value and all(map(is_text, value)):
            return [f"{flag}={v}" for v in value]
    elif key.endswith("_range") and isinstance(value, list):
        return [f"{flag}={':'.join(map(str, value))}"]
    elif is_text(value):
        return [f"{flag}={value}"]
    raise ConfigError(f"config key {key} has the wrong type: {value!r}")


def _parse_keys(data: dict, source: str) -> dict:
    """The options that the keys of ``data`` set, parsed by the flags they name."""
    declared = (*_COMMON, _T_GRID, *(o for _, options in _COMMANDS.values() for o in options))
    specs = {flag[2:].replace("-", "_"): spec for flag, spec in declared}
    argv = [t for key, value in data.items() for t in _tokens(key, value, specs.get(key), source)]
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False,
                                     argument_default=argparse.SUPPRESS)
    for flag, spec in declared:
        parser.add_argument(flag, **spec)
    try:
        return vars(parser.parse_args(argv))
    except argparse.ArgumentError as e:  # a value the option's type or choices reject
        raise ConfigError(f"{source}: {e}") from None


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ConfigError(f"{name} must look like lo:hi:steps, got {text!r}") from None
    if not np.isfinite(hi - lo):  # also catches an overflowing span
        raise ConfigError(f"{name} needs finite bounds and span, got {lo!r}:{hi!r}")
    if steps < 1:
        raise ConfigError("range steps must be >= 1")
    return lo, hi, steps


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Flags over the config file over defaults, checked, as the namespace the handlers read.

    Adds ``t_grid``, ``echo`` (the header's (key, value) pairs) and the objects
    the handler uses: ``generator`` as a ``LindbladGenerator``, or ``entangle``'s
    ``point`` and ``werner`` state.
    """
    flags, from_file = vars(args), {}
    if "config" in flags:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                from_file = json.load(fh)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}") from None
        if not isinstance(from_file, dict):
            raise ConfigError("config file must contain a JSON object")
        from_file = _parse_keys(from_file, args.config)
    cfg = {**_DEFAULTS, **from_file, **flags}
    for key in ("epsilon", "tolerance"):
        if not 0 < cfg[key] < np.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {cfg[key]!r}")
    if "seed" not in cfg and "NMWIT_SEED" in os.environ:
        cfg.update(_parse_keys({"seed": os.environ["NMWIT_SEED"]}, "NMWIT_SEED"))
    if cfg.setdefault("seed", 0) < 0:
        raise ConfigError("seed must be a nonnegative integer")

    if "t_grid" in cfg and not {"t_start", "t_stop", "t_steps"} & flags.keys():
        grid = cfg["t_grid"]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("t_grid in config file must be strictly ascending")
        grid_echo = [("t_grid", "[" + " ".join(_fmt(t) for t in grid) + "]")]
    else:
        start, steps = cfg["t_start"], cfg["t_steps"]
        stop = cfg.get("t_stop", start)
        if steps < 1:
            raise ConfigError(f"t_steps must be >= 1, got {steps}")
        if steps > 1 and not stop > start:
            raise ConfigError("t_stop must exceed t_start when t_steps > 1")
        cfg["t_grid"] = [float(t) for t in np.linspace(start, stop, steps)]
        grid_echo = [("t_start", start), ("t_stop", stop), ("t_steps", steps)]

    echo = [("command", args.command)]
    if args.command in ("divisibility", "witness", "spa"):
        echo.append(("scenario", cfg["scenario"]))
        if cfg["scenario"] == "custom":
            path = cfg["generator"]
            if not path:
                raise ConfigError("scenario=custom requires --generator")
            try:
                cfg["generator"] = lindblad.load_generator(path)
            except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
                raise ConfigError(f"cannot load generator {path}: {e}") from None
            echo.append(("generator", path))
        elif cfg["scenario"] == "dephasing":
            cfg["generator"] = lindblad.dephasing(cfg["gamma_d"])
            echo.append(("gamma_d", cfg["gamma_d"]))
        else:
            cfg["generator"] = lindblad.eternal_depolarizer()
        echo += [("epsilon", cfg["epsilon"]), *grid_echo]
    elif args.command == "entangle":
        if cfg["samples"] < 1:
            raise ConfigError("samples must be >= 1")
        if cfg["scan"]:
            for key in ("gamma1_range", "gamma2_range"):
                if key not in cfg:
                    raise ConfigError("scan mode requires --gamma1-range and --gamma2-range")
                cfg[key] = _parse_range(cfg[key], "--" + key.replace("_", "-"))
                echo.append((key, ":".join(_fmt(x) for x in cfg[key])))
            echo.append(("samples", cfg["samples"]))
        else:
            keys = ("gamma1", "gamma2", "p")
            if not cfg.keys() >= set(keys):
                raise ConfigError("single-point mode requires --gamma1, --gamma2 and --p")
            # Built here, so that bad values exit as config errors.
            cfg["point"] = entanglement.MapFamilyPoint(cfg["gamma1"], cfg["gamma2"])
            cfg["werner"] = entanglement.werner(cfg["p"])
            echo.extend((key, cfg[key]) for key in keys)
    elif args.command == "prop1":
        if cfg["draws"] < 1:
            raise ConfigError("draws must be >= 1")
        echo.append(("draws", cfg["draws"]))

    echo.extend((key, cfg[key]) for key in ("tolerance", "seed", "format"))
    return argparse.Namespace(**cfg, echo=echo)


def _emit(cfg: argparse.Namespace, columns: list[str], rows: list[list]) -> None:
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


def cmd_divisibility(cfg: argparse.Namespace) -> int:
    results = choi.scan(cfg.generator, cfg.t_grid, cfg.epsilon, cfg.tolerance)
    rows = [
        [t, v.minimum_eigenvalue, v.trace_norm_excess, v.markovian] for t, v in results
    ]
    _emit(cfg, ["t", "lambda_min", "trace_norm_excess", "markovian"], rows)
    return EXIT_OK


def cmd_witness(cfg: argparse.Namespace) -> int:
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


def cmd_spa(cfg: argparse.Namespace) -> int:
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


def cmd_entangle(cfg: argparse.Namespace) -> int:
    if cfg.scan:
        (lo1, hi1, n1), (lo2, hi2, n2) = cfg.gamma1_range, cfg.gamma2_range
        results = entanglement.phase_scan(
            (lo1, hi1), (lo2, hi2), (n1, n2),
            n_samples=cfg.samples, tolerance=cfg.tolerance, seed=cfg.seed,
        )
        rows = [[r.gamma1, r.gamma2, r.positive, r.cp, r.werner_threshold] for r in results]
        _emit(cfg, ["gamma1", "gamma2", "positive", "cp", "werner_threshold"], rows)
        return EXIT_OK
    detected, lam = entanglement.detect_entanglement(cfg.werner.matrix, cfg.point, cfg.tolerance)
    _emit(cfg, ["gamma1", "gamma2", "p", "lambda_min", "detected"],
          [[cfg.gamma1, cfg.gamma2, cfg.p, lam, detected]])
    return EXIT_OK


def cmd_prop1(cfg: argparse.Namespace) -> int:
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
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, NmwitError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # Overflow and NaN reach the checks that decide the exit code; warnings are noise.
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](cfg)
    except DegenerateMinimum as e:
        print(f"degenerate minimum: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MapNotPositive as e:
        print(f"map not positive: {e}", file=sys.stderr)
        return EXIT_NOT_POSITIVE
    except (NmwitError, ValueError, RuntimeError, OSError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
