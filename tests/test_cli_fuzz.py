"""Fuzzed command lines, config files and generator files, run through cli.main.

Whatever the input, the CLI ends with a documented exit code (0, 2, 3, 4 or
5), prints nothing on stderr when it succeeds and exactly one line when it
fails, and raises no warning (numpy's would print on stderr). argparse's own
usage exit for a malformed flag (SystemExit(2)) is accepted as it is. Sizes
stay small: at most 5 instants, 3 steps per scan range and 3 draws.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmwit import cli

NUMBERS = ("0", "1", "-1", "0.5", "1e-300", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf")
FLOATS = tuple(float(v) for v in NUMBERS)
COMMANDS = ("divisibility", "witness", "spa", "entangle", "prop1")
_FUZZ = dict(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


def run(argv) -> None:
    """Run cli.main on argv and check its exit code, its stderr and that it warns of nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's usage error, for a malformed flag
            assert e.code == 2, argv
        else:
            assert code in (0, 2, 3, 4, 5), argv
            assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1), (argv, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])


def _range():
    bound = st.sampled_from(NUMBERS)
    return st.one_of(st.tuples(bound, bound, st.sampled_from(("0", "1", "2", "3", "nan")))
                     .map(":".join), st.sampled_from(("", "0:1", "a:b:c", "0:0.6:3")))


def _flag_values(paths):
    """The values of each subcommand's options on the command line (None: a bare flag)."""
    number = st.sampled_from(NUMBERS)
    common = {
        "scenario": st.sampled_from(("dephasing", "eternal", "custom")), "gamma-d": number,
        "epsilon": number, "t-start": number, "t-stop": number, "tolerance": number,
        "t-steps": st.sampled_from((*NUMBERS, "2", "3", "5")), "seed": number,
        "format": st.sampled_from(("csv", "json")), "output": st.sampled_from(paths),
    }
    return {
        "divisibility": common, "spa": common,
        "witness": {**common, "export-witness": st.sampled_from(paths)},
        "entangle": {**common, "gamma1": number, "gamma2": number, "p": number, "scan": st.none(),
                     "gamma1-range": _range(), "gamma2-range": _range(), "samples": number},
        "prop1": {**common, "draws": st.sampled_from((*NUMBERS, "2", "3"))},
    }


@settings(max_examples=150, **_FUZZ)
@given(data=st.data())
def test_fuzzed_flags_exit_with_a_documented_code_and_one_stderr_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "g.json").write_text(json.dumps({"dim": 2, "terms": [
            {"coefficient": {"kind": "constant", "value": -1}, "jump": "sigma_z"}]}))
        command = data.draw(st.sampled_from(COMMANDS))
        values = _flag_values((f"{tmp}/out.txt", tmp, f"{tmp}/missing/out.txt"))[command]
        names = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=5))
        if command == "entangle":  # a point or a scan, mostly
            names += [n for n in data.draw(st.sampled_from(
                (["gamma1", "gamma2", "p"], ["scan", "gamma1-range", "gamma2-range"]))) if n not in names]
        if command == "prop1" and "draws" not in names:  # 100 by default
            names.append("draws")
        argv = [command, f"--generator={tmp}/g.json"]
        for name in names:
            value = data.draw(values[name])
            argv.append(f"--{name}" if value is None else f"--{name}={value}")
        run(argv)


_number = st.sampled_from(FLOATS)
# Matrix entries: numbers and [re, im] pairs, with a few of the wrong type.
_entry = st.sampled_from((*FLOATS, *FLOATS[:4], [1.0, -1.0], [0.5, 0.5], [0.0, 1e308],
                          [math.nan, 0.0], "x", None, [1], True))


@st.composite
def jumps(draw, dim):
    kind = draw(st.sampled_from(("pauli", "pauli", "matrix", "matrix", "ragged", "other")))
    if kind == "pauli":
        return draw(st.sampled_from(("sigma_x", "SIGMA_Y", "sigma_z", "sigma_w")))
    if kind == "other":
        return draw(st.sampled_from((5, None, {"matrix": 5}, {"matrix": "ab"}, [[1]])))
    widths = [dim] * dim if kind == "matrix" else draw(st.lists(st.integers(0, 3), max_size=3))
    return {"matrix": [[draw(_entry) for _ in range(width)] for width in widths]}


_coefficients = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, _number),
    st.builds(lambda s: {"kind": "eternal_tanh", "scale": s}, _number),
    st.builds(lambda ts, vs: {"kind": "tabulated", "times": ts, "values": vs},
              st.sampled_from(([-1.0, 0.5, 2.0, 6.0], [0.0, 1.0, 0.5, 2.0], [1.5, 2.0, 3.0, 4.0])),
              st.lists(_number, min_size=3, max_size=4)),
    st.sampled_from(({"kind": "eternal_tanh"}, {"kind": "callable"}, {"kind": "constant"},
                     {"kind": "other"}, {"kind": "constant", "value": "1"}, 1.0)),
)


@st.composite
def generators(draw):
    dim = draw(st.sampled_from((1, 2, 2, 3)))
    terms = [{"coefficient": draw(_coefficients), "jump": draw(jumps(dim))}
             for _ in range(draw(st.integers(0, 4)))]
    return draw(st.sampled_from(({"dim": dim, "terms": terms}, {"dim": dim, "terms": terms},
                                 {"dim": str(dim), "terms": terms}, {"dim": dim}, [terms])))


def _config_values(paths):
    """Each config-file key's values, mostly well typed."""
    number = st.sampled_from((*FLOATS, "0.5", "nan", True, None, [1]))
    integer = st.sampled_from((0, 1, 1, 2, 3, 5, -1, 2.5, 1e308, "3", True, None))
    return {
        "scenario": st.sampled_from(("dephasing", "eternal", "custom", "other")),
        "generator": st.sampled_from((*paths, 5)), "gamma_d": number, "epsilon": number,
        "t_start": number, "t_stop": number, "t_steps": integer, "tolerance": number,
        "seed": integer, "format": st.sampled_from(("csv", "json", "xml")),
        "output": st.sampled_from((*paths, 2)), "export_witness": st.sampled_from((*paths, 2)),
        "t_grid": st.one_of(st.lists(_number, min_size=1, max_size=5), st.sampled_from(("12", 5))),
        "gamma1": number, "gamma2": number, "p": number, "scan": st.sampled_from((True, False, "no")),
        "gamma1_range": st.one_of(_range(), st.lists(_number, min_size=3, max_size=3)),
        "gamma2_range": st.one_of(_range(), st.tuples(_number, _number, st.integers(0, 3)).map(list)),
        "samples": integer, "draws": st.sampled_from((1, 2, 3, 0, -1, 2.5, "2")),
        "epsilonn": number,
    }


@settings(max_examples=200, **_FUZZ)
@given(data=st.data())
def test_fuzzed_config_and_generator_files_exit_with_a_documented_code_and_one_stderr_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = (f"{tmp}/g.json", f"{tmp}/out.txt", tmp, f"{tmp}/missing/out.txt")
        Path(tmp, "g.json").write_text(json.dumps(data.draw(generators())))
        values = _config_values(paths)
        keys = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=6))
        config = {key: data.draw(values[key]) for key in keys}
        command = data.draw(st.sampled_from(COMMANDS))
        config.setdefault("draws", 1)
        if command != "entangle" and data.draw(st.booleans()):
            config.update(scenario="custom", generator=f"{tmp}/g.json")
        Path(tmp, "c.json").write_text(json.dumps(config))
        run([command, f"--config={tmp}/c.json"])

