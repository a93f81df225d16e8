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
configuration is echoed into the output header. --tolerance takes the library's
rule (finite and >= 0). Outputs are deterministic (seeded streams, no
timestamps), with 12 significant digits per numeric; _json_text writes both the
JSON tables and the witness export (witness.witness_dicts of the stacked pass).

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 degenerate witness minimum, 5 requested map point not positive.

Heap policy: main fixes glibc malloc's mmap and trim thresholds once per
process (_hold_heap), where mallopt is available. Left dynamic, both rise
with the largest block freed so far, so whether a block's stacks (about 1 MB
per phase-scan block) come from the heap, or from fresh pages that the next
block faults in again, depends on what the process freed before. With both
fixed, a request reuses the heap its predecessor left, in a one-shot process
too (between the scan's blocks). Only main does this: a library must not
change its host's allocator.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import choi, entanglement, kernel, lindblad, spa, witness
from .errors import DegenerateMinimum, MapNotPositive, NmwitError

# glibc mallopt parameters, and the values _hold_heap gives them: its dynamic mmap threshold's
# ceiling on 64-bit hosts (32 MiB), and twice that for the trim threshold, as the dynamic rule sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 1024 * 1024

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
        ("--samples", {"type": int,
                       "help": "checked and echoed; the scan decides positivity without sampling"}),
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


_BOOL_TEXT = ("false", "true")
_BOOL_CELLS = np.array(_BOOL_TEXT, dtype=object)
# The phase scan's (positive, cp) cells, indexed by 2*positive + cp.
_FLAG_CELLS = np.array([b"false,false,", b"false,true,", b"true,false,", b"true,true,"])


def _fmt(v) -> str:
    if isinstance(v, bool):
        return _BOOL_TEXT[v]
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round12(v):
    """Round floats to 12 significant digits for JSON emission."""
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, (list, tuple)):
        return [_round12(x) for x in v]
    if isinstance(v, dict):
        return {k: _round12(x) for k, x in v.items()}
    return v


def _json_text(payload) -> str:
    """payload as JSON text, _round12 of it indented by 2: the tables' JSON and the witness export."""
    return json.dumps(_round12(payload), indent=2) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once, on first use.

    An option that is not given is absent from the namespace it returns.
    """
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
        return float(lo), float(hi), int(steps)
    except ValueError:
        raise ConfigError(f"{name} must look like lo:hi:steps, got {text!r}") from None


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
    if not 0 < cfg["epsilon"] < np.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {cfg['epsilon']!r}")
    kernel.check_tolerance(cfg["tolerance"])  # the library's rule, raised as a config error
    if "seed" not in cfg and "NMWIT_SEED" in os.environ:
        cfg.update(_parse_keys({"seed": os.environ["NMWIT_SEED"]}, "NMWIT_SEED"))
    if cfg.setdefault("seed", 0) < 0:
        raise ConfigError("seed must be a nonnegative integer")
    # Unwritable output paths fail here, before any computation or output.
    for key in ("output", "export_witness") if args.command == "witness" else ("output",):
        parent = os.path.dirname(os.path.abspath(cfg[key])) if cfg[key] else None
        if parent and os.path.isdir(cfg[key]):
            raise ConfigError(f"cannot write {key} {cfg[key]}: it is a directory")
        if parent and not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise ConfigError(f"cannot write {key} {cfg[key]}: {parent} is not a writable directory")

    if "t_grid" in cfg and not {"t_start", "t_stop", "t_steps"} & flags.keys():
        grid_echo = [("t_grid", "[" + " ".join(_fmt(t) for t in cfg["t_grid"]) + "]")]
    else:
        start, steps = cfg["t_start"], cfg["t_steps"]
        stop = cfg.get("t_stop", start)
        if steps < 1:
            raise ConfigError(f"t_steps must be >= 1, got {steps}")
        if steps > 1 and not 0 < stop - start < np.inf:  # also catches an overflowing span
            raise ConfigError("t_stop must exceed t_start, with finite bounds and span, when "
                              f"t_steps > 1, got {start!r}:{stop!r}")
        cfg["t_grid"] = np.linspace(start, stop, steps) if steps > 1 else [start]
        grid_echo = [("t_start", start), ("t_stop", stop), ("t_steps", steps)]
    cfg["t_grid"] = choi.checked_grid(cfg["t_grid"])

    echo = [("command", args.command)]
    if args.command in ("divisibility", "witness", "spa"):
        echo.append(("scenario", cfg["scenario"]))
        if cfg["scenario"] == "custom":
            path = cfg["generator"]
            if not path:
                raise ConfigError("scenario=custom requires --generator")
            try:
                cfg["generator"] = lindblad.load_generator(path)
            except (OSError, ValueError, NmwitError) as e:  # bad JSON and bad coefficients included
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
            g1, g2 = cfg["gamma1_range"], cfg["gamma2_range"]
            cfg["scan_grid"] = entanglement.scan_axes(g1[:2], g2[:2], (g1[2], g2[2]))
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


def _csv_head(cfg: argparse.Namespace, columns: list[str]) -> str:
    """The lines of a CSV output above its body: the echoed configuration and the header."""
    head = [f"# {k} = {_fmt(v)}" for k, v in cfg.echo]
    return "\n".join([*head, ",".join(columns)]) + "\n"


def _emit(cfg: argparse.Namespace, names: list[str], columns: list) -> None:
    """Write the rows zipped from columns of equal length, 1-D arrays or lists of Python floats
    (the checked time grid). In CSV, the body is one %-operation: the row template (%.12g for a
    float column, else %s) repeated once per row, over the cells taken row by row, a bool array's
    cells gathered from false/true in one indexing and any other's as each cell's _fmt string, so
    no cell is looked at for its type. In JSON, the echo, names and rows go through _json_text.

    One % over the 1000-row divisibility body took 0.94-1.05 ms, against 1.01-1.22 ms for one
    template per row (in-process, best of 400 in each of two runs, 2 vCPU); taking its cells by one
    slice assignment per column, 0.036 ms against 0.099 ms through itertools.chain over zip. Only
    the phase scan's CSV is written apart, in cmd_entangle, as the bytes of one record array of
    NUL-padded cells, so each axis value is formatted once and no row is joined in Python.
    """
    if cfg.format == "csv":
        kinds = ["f" if isinstance(column, list) else column.dtype.kind for column in columns]
        template = ",".join("%.12g" if kind == "f" else "%s" for kind in kinds)
        columns = [column if isinstance(column, list) else column.tolist() if kind == "f"
                   else _BOOL_CELLS[column.view(np.uint8)].tolist() if kind == "b"
                   else list(map(_fmt, column.tolist()))
                   for column, kind in zip(columns, kinds)]
        rows, width = len(columns[0]), len(columns)
        cells = [None] * (rows * width)  # taken row by row: cell j of each row from column j
        for j, column in enumerate(columns):
            cells[j::width] = column
        text = _csv_head(cfg, names) + (template + "\n") * rows % tuple(cells)
    else:
        text = _json_text({"config": dict(cfg.echo), "columns": names,
                           "rows": list(zip(*(c if isinstance(c, list) else c.tolist() for c in columns)))})
    _write(cfg.output, text)


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_divisibility(cfg: argparse.Namespace) -> int:
    lam, excess, markovian = choi.grid_pass(
        cfg.generator, cfg.t_grid, cfg.epsilon,
        lambda times, c, matrices, lam, tau: choi.divisibility_grid(lam, cfg.tolerance),
        vectors=False)
    _emit(cfg, ["t", "lambda_min", "trace_norm_excess", "markovian"],
          [cfg.t_grid, lam, excess, markovian])
    return EXIT_OK


def cmd_witness(cfg: argparse.Namespace) -> int:
    c, matrices, omega, nu, tau = choi.grid_pass(cfg.generator, cfg.t_grid, cfg.epsilon,
                                                 witness.witness_stage)
    values = witness.witness_values(nu, tau, matrices)
    # Formed before either file is written, so a witness that overflows writes neither.
    if cfg.export_witness:
        witnesses = witness.witness_matrices(cfg.generator, c, cfg.epsilon, nu, tau)
    _emit(cfg, ["t", "omega", "nu", "witness_value", "detected"],
          [cfg.t_grid, omega, nu, values, values < -cfg.tolerance])
    if cfg.export_witness:
        _write(cfg.export_witness, _json_text(witness.witness_dicts(
            cfg.generator, cfg.t_grid, cfg.epsilon, omega, nu, tau, witnesses)))
    return EXIT_OK


def cmd_spa(cfg: argparse.Namespace) -> int:
    lam, omega, nu = choi.grid_pass(
        cfg.generator, cfg.t_grid, cfg.epsilon, lambda times, c, matrices, lam, tau: spa.spa_grid(lam),
        vectors=False)
    _emit(cfg, ["t", "lambda_minus", "p_star", "omega", "nu"], [cfg.t_grid, lam, omega, omega, nu])
    return EXIT_OK


def cmd_entangle(cfg: argparse.Namespace) -> int:
    if not cfg.scan:
        detected, lam = entanglement.detect_entanglement(cfg.werner.matrix, cfg.point, cfg.tolerance)
        _emit(cfg, ["gamma1", "gamma2", "p", "lambda_min", "detected"],
              [np.array([v]) for v in (cfg.gamma1, cfg.gamma2, cfg.p, lam, detected)])
        return EXIT_OK
    g1s, g2s = cfg.scan_grid
    g1, g2, positive, cp, thresholds = entanglement.scan_columns(g1s, g2s, cfg.tolerance)
    names = ["gamma1", "gamma2", "positive", "cp", "werner_threshold"]
    if cfg.format != "csv":
        _emit(cfg, names, [g1, g2, positive, cp, np.where(np.isnan(thresholds), None, thresholds)])
        return EXIT_OK
    # The cells that _fmt writes, as NUL-padded fields of one record per row: each axis value
    # formatted once, each (positive, cp) pair looked up and each threshold found formatted.
    a, b = (np.array(["%.12g," % g for g in axis.tolist()], dtype="S") for axis in (g1s, g2s))
    found = ~np.isnan(thresholds)
    t = np.array(["%.12g" % p for p in thresholds[found].tolist()], dtype="S")
    rows = np.zeros(positive.size, dtype=[("g1", a.dtype), ("g2", b.dtype),
                                          ("flags", _FLAG_CELLS.dtype), ("t", t.dtype), ("end", "S1")])
    rows["g1"], rows["g2"] = entanglement.grid_points(a, b)
    rows["flags"], rows["end"] = _FLAG_CELLS[2 * positive + cp], b"\n"
    rows["t"][found] = t
    body = rows.tobytes().translate(None, b"\0").decode("ascii")
    _write(cfg.output, _csv_head(cfg, names) + body)
    return EXIT_OK


def cmd_prop1(cfg: argparse.Namespace) -> int:
    worst = witness.adjoint_identity_max_residual(cfg.draws, cfg.seed)
    _emit(cfg, ["draws", "max_residual"], [np.array([cfg.draws]), np.array([worst])])
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


@functools.cache
def _hold_heap() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process, once (see the module
    docstring); whether mallopt was found and accepted both."""
    import ctypes  # here, not at import, so that importing nmwit costs nothing for it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no C library to load
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD) == 1)


def main(argv=None) -> int:
    _hold_heap()
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
    except (NmwitError, np.linalg.LinAlgError, OSError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
