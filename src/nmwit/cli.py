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

Every CSV body, _emit's tables and the phase scan's, is one byte array of cells
padded with 0xFF, which one bytes.translate drops. Its float cells come from
one formatter, _format12, which writes '%.12g' % v byte for byte: numpy writes
the cells with 1e-4 <= |v| < 1e11 that are not within 0.001 of a 12-digit tie,
from a table of 4-digit groups, and Python's '%.12g' the rest.

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


def _fmt(v) -> str:
    if isinstance(v, bool):
        return _BOOL_TEXT[v]
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# A CSV cell is written as a field of bytes, padded to its column's width with 0xFF, a byte that
# UTF-8 never produces, so that one bytes.translate of the body drops the padding and nothing else.
_PAD = np.uint8(0xFF)


def _fields(cells: list[bytes], width: int = 0) -> np.ndarray:
    """cells as the rows of a (len(cells), width) uint8 array, right-aligned, width widened to the
    longest cell."""
    width = max(width, max(map(len, cells), default=0))
    return np.frombuffer(b"".join(c.rjust(width, b"\xff") for c in cells),
                         np.uint8).reshape(len(cells), width)


@functools.cache
def _slots() -> np.ndarray:
    """The 4-byte pieces of _format12's fields, as one <u4 array of the sections that
    _PLAIN, ..., _POINT_END index: each 4-digit group k, with its trailing zeros padded (_TRAIL,
    0 all pad), its leading zeros padded (_LEAD, 0 all pad; _LEAD1, 0 as "0"); and each 3-digit
    k after "-" (_NEG, leading zeros padded) or "." (_POINT; _POINT_END, trailing zeros padded,
    0 all pad)."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.array([np.tile(np.repeat(ascii_digits, 10 ** (3 - j)), 10 ** j)
                       for j in range(4)])  # by rows: digit j of each k
    lead, trail = digits == ord("0"), digits == ord("0")
    for j in (1, 2, 3):
        lead[j] &= lead[j - 1]
        trail[3 - j] &= trail[4 - j]
    lead1 = lead & [[True], [True], [True], [False]]
    trail, lead, lead1 = (digits | mask * _PAD for mask in (trail, lead, lead1))
    neg, point, point_end = lead[:, :1000].copy(), digits[:, :1000].copy(), trail[:, :1000].copy()
    neg[0], point[0], point_end[0, 1:] = ord("-"), ord("."), ord(".")
    rows = np.concatenate([digits, trail, lead, lead1, neg, point, point_end], axis=1)
    slots = np.empty((rows.shape[1], 4), np.uint8)
    slots[:, 0], slots[:, 1], slots[:, 2], slots[:, 3] = rows
    return slots.view("<u4").ravel()


_PLAIN, _TRAIL, _LEAD, _LEAD1, _NEG, _POINT, _POINT_END = 0, 10_000, 20_000, 30_000, 40_000, 41_000, 42_000
_WIDTH = 28  # seven slots; the widest '%.12g' cell, "-1.23456789012e-300", takes 19 bytes
_BLOCK = 4096  # cells per pass of _format12 and per block of _emit's rows: it bounds their arrays
_POW10 = np.array([float(10 ** k) for k in range(17)])  # exact, as is every power of ten to 1e22
_POW10_INT = 10 ** np.arange(17, dtype=np.int64)


def _format12(values) -> np.ndarray:
    """'%.12g' % v of each v of the float array values, as an array of shape values.shape +
    (_WIDTH,) of 0xFF-padded fields.

    numpy writes a cell when 1e-4 <= |v| < 1e11. With x = floor(log10 |v|), s = |v| * 10**(11 - x)
    is one correctly rounded product by an exact power of ten, within 2**-14 of the exact one. It
    takes D = rint(s) when 1e11 <= s, D < 1e12 and |s - D| < 0.499: then the exact product is no
    tie, and lies in [1e11, 1e12), or rounds to 1e11 where log10 overshot by one, so D is the
    correctly rounded 12-digit mantissa of v, and x its exponent. Split at the point, D is an
    integer part I < 10**11 and 15 fraction digits F (leading zeros where x < 0). A field is seven
    slots of four bytes: the sign and I's first three digits, I's next two 4-digit groups, "." and
    F's first three digits, and F's three 4-digit groups, each looked up in _slots() by its value
    and by whether the groups before it (of I) or after it (of F) are all zero. So I's leading
    zeros but its last digit, F's trailing zeros, and the point of an integer, are padding, and no
    cell is looked at alone. Python's '%.12g' writes every other cell: zero, NaN, inf, the
    exponent form, a near-tie, and a log10 off by one. The cells are taken _BLOCK at a time.
    """
    values, slots = np.asarray(values, dtype=float), _slots()
    flat, out = values.ravel(), np.empty((values.size, 7), "<u4")
    for start in range(0, flat.size, _BLOCK):
        v, o = flat[start:start + _BLOCK], out[start:start + _BLOCK]
        s = np.abs(v)  # |v|, scaled in place to s
        fast = (s >= 1e-4) & (s < 1e11)
        s[~fast] = 1.0
        x = np.floor(np.log10(s)).astype(np.intp)  # -5..11, so that 11 - x and 4 + x index _POW10
        s *= _POW10[11 - x]
        d = np.rint(s)
        fast &= (s >= 1e11) & (d < 1e12) & (np.abs(s - d) < 0.499)
        slow = np.flatnonzero(~fast)
        d[slow], x[slow] = 1e11, 0  # so that every group below indexes its section
        i, f = np.divmod(d.astype(np.int64), _POW10_INT[11 - x])
        f *= _POW10_INT[4 + x]
        i0, i = np.divmod(i, 100_000_000)  # I's groups from the first, with "are all before 0"
        o[:, 0] = slots.take(i0 + np.where(v < 0, _NEG, _LEAD))
        head = i0 == 0
        i1, i2 = np.divmod(i, 10_000)
        o[:, 1] = slots.take(i1 + _LEAD * head)
        o[:, 2] = slots.take(i2 + _LEAD1 * (head & (i1 == 0)))
        f, f3 = np.divmod(f, 10_000)  # F's groups from the last, with "are all after 0"
        o[:, 6] = slots.take(f3 + _TRAIL)
        tail = f3 == 0
        f, f2 = np.divmod(f, 10_000)
        o[:, 5] = slots.take(f2 + _TRAIL * tail)
        tail &= f2 == 0
        f0, f1 = np.divmod(f, 10_000)
        o[:, 4] = slots.take(f1 + _TRAIL * tail)
        o[:, 3] = slots.take(f0 + (_POINT + (_POINT_END - _POINT) * (tail & (f1 == 0))))
        if slow.size:
            o.view(np.uint8)[slow] = _fields([b"%.12g" % c for c in v[slow].tolist()], _WIDTH)
    return out.view(np.uint8).reshape(*values.shape, _WIDTH)


_BOOL_FIELDS = _fields([t.encode() for t in _BOOL_TEXT])
# The phase scan's (positive, cp) cells, indexed by 2*positive + cp.
_FLAG_FIELDS = _fields([f"{p},{c}".encode() for p in _BOOL_TEXT for c in _BOOL_TEXT])


def _lines(fields: list[np.ndarray]) -> str:
    """The CSV lines whose cells are the rows of fields, (rows, width) arrays of 0xFF-padded bytes,
    built as one (rows, line width) byte array."""
    ends = np.cumsum([f.shape[1] + 1 for f in fields])
    body = np.empty((len(fields[0]), ends[-1]), np.uint8)
    for f, end in zip(fields, ends):
        body[:, end - 1 - f.shape[1]:end - 1] = f
    body[:, ends[:-1] - 1] = ord(",")
    body[:, -1] = ord("\n")
    return body.tobytes().translate(None, b"\xff").decode()


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
    """Write the rows zipped from columns of equal length, 1-D arrays. In CSV, _csv_lines writes
    the body in blocks of rows of about _BLOCK cells, so that its arrays stay small at any grid. In
    JSON, the echo, names and rows go through _json_text.

    The 1000-row divisibility table took 0.45-0.52 ms, against 0.67-0.76 ms with the one
    %-operation over a row template that this writer replaced (in-process, best of 400 in each of
    four alternating runs, 2 vCPU).
    """
    if cfg.format == "csv":
        step = max(1, _BLOCK // len(columns))
        text = _csv_head(cfg, names) + "".join(
            _csv_lines([column[start:start + step] for column in columns])
            for start in range(0, len(columns[0]), step))
    else:
        text = _json_text({"config": dict(cfg.echo), "columns": names,
                           "rows": list(zip(*(c.tolist() for c in columns)))})
    _write(cfg.output, text)


def _csv_lines(columns: list) -> str:
    """The CSV lines of the rows zipped from columns, built by _lines. A column's dtype gives its
    kind, with no look at its cells: the float columns are formatted together by one _format12,
    a bool column's cells are gathered from false/true, and any other's are each cell's _fmt
    bytes."""
    is_float = [column.dtype.kind == "f" for column in columns]
    floats = [column for column, f in zip(columns, is_float) if f]
    cells = iter(_format12(np.column_stack(floats)).swapaxes(0, 1) if floats else ())
    return _lines([next(cells) if f
                   else np.take(_BOOL_FIELDS, column.view(np.uint8), axis=0) if column.dtype.kind == "b"
                   else _fields([_fmt(v).encode() for v in column.tolist()])
                   for column, f in zip(columns, is_float)])


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
    # Each axis value is formatted once, and each threshold where one was found, all in one
    # _format12; the byte columns that are padding in every cell of an axis or of the thresholds
    # are dropped before the rows are gathered, so the body holds not many more bytes than it writes.
    found = ~np.isnan(thresholds)
    fields = _format12(np.concatenate([g1s, g2s, thresholds[found]]))
    cells1, cells2, found_cells = (part[:, (part != _PAD).any(axis=0)]
                                   for part in np.split(fields, [len(g1s), len(g1s) + len(g2s)]))
    i1, i2 = entanglement.grid_points(np.arange(len(g1s)), np.arange(len(g2s)))
    t = np.full((thresholds.size, found_cells.shape[1]), _PAD, np.uint8)
    t[found] = found_cells
    body = _lines([np.take(cells1, i1, axis=0), np.take(cells2, i2, axis=0),
                   np.take(_FLAG_FIELDS, 2 * positive + cp, axis=0), t])
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
