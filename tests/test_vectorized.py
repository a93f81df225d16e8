"""The vectorized pieces of a time-grid pass against their per-instant forms, bit for bit.

The coefficient rows are filled one term's column at a time, the witness
values come from two stacked matrix-vector products, and cli._emit writes a
table from its typed columns, with one % over the whole CSV body; the phase
scan's CSV body is one packed record array. Each must give the bits of the
per-instant loop or per-cell path it replaces (oracles.loop_coefficients,
oracles.loop_witness_values, and cli._fmt joined over the cells of each row).
"""

import argparse
import io
import json
import math
import re
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmwit
from nmwit import cli
from nmwit.choi import checked_grid, grid_pass
from nmwit.errors import ParameterOutOfRange
from nmwit.lindblad import coefficients
from nmwit.witness import witness_stage, witness_values

from oracles import loop_coefficients, loop_witness_values, scan_rows

_value = st.floats(-2.0, 2.0) | st.sampled_from((0.0, -0.0))


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def coefficient_models(draw):
    """One coefficient of each of the three kinds, defined on [0, 5]: a table of a few drawn
    values, or of a*sin(t) + b at up to 64 evenly spaced knots."""
    kind = draw(st.sampled_from(("constant", "eternal_tanh", "tabulated", "sampled")))
    if kind == "constant":
        return nmwit.constant(draw(_value))
    if kind == "eternal_tanh":
        return nmwit.eternal_tanh(draw(_value))
    if kind == "tabulated":
        inner = draw(st.lists(st.floats(0.1, 4.9), max_size=4, unique=True))
        times = [0.0, *sorted(inner), 5.0]
        return nmwit.tabulated(times, [draw(_value) for _ in times])
    a, b = draw(_value), draw(_value)
    times = np.linspace(0.0, 5.0, draw(st.integers(2, 64))).tolist()
    return nmwit.tabulated(times, [a * math.sin(t) + b for t in times])


grids = st.lists(st.floats(0.0, 5.0), min_size=1, max_size=30, unique=True).map(sorted)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(coefs=st.lists(coefficient_models(), min_size=1, max_size=4), grid=grids)
def test_coefficients_are_the_per_instant_rows_bit_for_bit(coefs, grid):
    gen = nmwit.LindbladGenerator(dim=2, terms=tuple((c, nmwit.SIGMA_Z) for c in coefs))
    c = coefficients(gen, grid)
    assert c.shape == (len(grid), len(coefs)) and c.dtype == float
    assert _same_bits(c, loop_coefficients(gen, grid))


def test_a_tabulated_column_is_the_per_instant_calls_bit_for_bit():
    # The custom golden generator's tabulated term, on its 1000-instant grid.
    gen = nmwit.load_generator(Path(__file__).parent / "golden" / "custom_generator.json")
    grid = np.linspace(0.01, 4.99, 1000).tolist()
    (a, (coef, _)), = ((a, term) for a, term in enumerate(gen.terms) if term[0].kind == "tabulated")
    assert _same_bits(coefficients(gen, grid)[:, a], [coef(t) for t in grid])


def test_a_tabulated_column_fails_at_its_first_instant_outside_the_table():
    table = nmwit.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    gen = nmwit.LindbladGenerator(dim=2, terms=((table, nmwit.SIGMA_Z),))
    with pytest.raises(ParameterOutOfRange) as per_instant:
        table(2.5)
    with pytest.raises(ParameterOutOfRange) as column:
        coefficients(gen, [0.5, 1.0, 2.5, 1.5, 3.0, -1.0])
    assert str(column.value) == str(per_instant.value) == "t=2.5 outside tabulated domain [0, 2]"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), n=st.sampled_from((1, 4, 9)))
def test_witness_values_are_the_per_instant_vdots_bit_for_bit(seed, k, n):
    rng = np.random.default_rng(seed)
    nu = rng.uniform(0.0, 1.0, k)
    tau = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    A = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    matrices = A + A.conj().swapaxes(1, 2)
    values = witness_values(nu, tau, matrices)
    assert isinstance(values, np.ndarray) and values.dtype == float
    assert _same_bits(values, loop_witness_values(nu, tau, matrices))


@pytest.mark.parametrize("gen, epsilon", [
    (nmwit.eternal_depolarizer(), 0.0137),
    (nmwit.load_generator(Path(__file__).parent / "golden" / "custom_generator.json"), 0.02)])
def test_witness_values_of_a_scan_are_the_per_instant_vdots_bit_for_bit(gen, epsilon):
    _, matrices, _, nu, tau = grid_pass(gen, checked_grid(np.linspace(0.05, 4.95, 1000)), epsilon,
                                        witness_stage)
    assert _same_bits(witness_values(nu, tau, matrices), loop_witness_values(nu, tau, matrices))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=12, unique=True).map(sorted),
       top=st.floats(1.0, 5.0), start=st.floats(0.0, 5.9))
def test_a_grid_that_leaves_a_tabulated_domain_fails_at_its_first_failing_instant(grid, top, start):
    # Term 0 is tabulated on [0, top], term 1 on [start, 6]: term 0 fails late in the
    # grid and term 1 early. The columns are filled term by term, but the error is
    # that of a loop over the grid: the first failing instant's, term order within it.
    first_term = nmwit.tabulated([0.0, top], [1.0, -1.0])
    second_term = nmwit.tabulated([start, 6.0], [0.5, -0.5])
    terms = ((first_term, nmwit.SIGMA_X), (second_term, nmwit.SIGMA_Z))
    gen = nmwit.LindbladGenerator(dim=2, terms=terms)
    stage, grid = lambda times, c, matrices, lam, tau: len(times), checked_grid(grid)
    first = next((t for t in grid if t > top or t < start), None)
    if first is None:
        assert grid_pass(gen, grid, 0.01, stage) == len(grid)
    else:
        domain = f"[0, {top:g}]" if first > top else f"[{start:g}, 6]"
        message = f"t={first:g} outside tabulated domain {domain}"
        with pytest.raises(ParameterOutOfRange, match=f"^{re.escape(message)}$"):
            grid_pass(gen, grid, 0.01, stage)


# Table cells. Floats with the values _fmt treats apart, and a column of any
# cells: ints, strings, bools and None among floats.
_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.225e-308, 1e300, 1e-300, 1.0 / 3.0)
_SPECIAL = (*_FLOATS, -5e-324, -1e300, 0.1, 2.0**53, 123456789012.5, 0, -7, 10**20, "eternal",
            "a b", "", True, False, None)
_floats = st.sampled_from(_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)


def _objects(cells: list) -> np.ndarray:
    return np.array(cells, dtype=object)


# Each kind of cells, and the column the commands pass them as: a list of Python floats (the
# checked time grid), an array whose dtype gives the kind, or an object array of other cells.
_COLUMNS = {
    "float list": (_floats, list),
    "float": (_floats, lambda cells: np.array(cells, dtype=float)),
    "bool": (st.booleans(), lambda cells: np.array(cells, dtype=bool)),
    "int": (st.integers(-2**63, 2**63 - 1), lambda cells: np.array(cells, dtype=np.int64)),
    "big int": (st.integers(-10**20, 10**20), _objects),
    "float or None": (st.none() | _floats, _objects),
    "numpy scalar": (st.one_of(_floats.map(np.float64), st.booleans().map(np.bool_),
                               st.integers(-10**6, 10**6).map(np.int64)), _objects),
    "None": (st.none(), _objects),
    # No newline: the fmt-join test splits the CSV into lines.
    "str": (st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=6), _objects),
    "any": (st.one_of(st.sampled_from(_SPECIAL), _floats, st.integers(-10**6, 10**6),
                      st.text(alphabet="abc%s_ ", max_size=4)), _objects),
}


@st.composite
def table_columns(draw):
    rows = draw(st.integers(1, 200))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=5))
    return [column(draw(st.lists(cells, min_size=rows, max_size=rows)))
            for cells, column in (_COLUMNS[kind] for kind in kinds)]


def _written(fmt, names, columns, echo=(("command", "test"),)):
    """What cli._emit writes to stdout for (names, columns) in the format fmt."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt, echo=list(echo), output=None), names, columns)
    return out.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@example(columns=[list(_FLOATS), np.array([True, False] * 5), np.array([-x for x in _FLOATS])])
@example(columns=[_objects([0.1, 0.25, None, math.nan]), _objects([np.float64(0.5), 1.0, -0.0, 2.0]),
                  _objects([1, True, "a%s", None]), np.array([2**63 - 1, -1, 0, 7])])
@given(columns=table_columns())
def test_emit_writes_each_row_as_the_fmt_join_and_the_round12_of_its_cells(columns):
    # A column's dtype gives its kind, with no look at its cells: a float array or a list
    # (of Python floats) takes %.12g, a bool array false/true, and any other is written
    # cell by cell, whatever the type of each cell.
    names = [f"c{k}" for k in range(len(columns))]
    rows = list(zip(*(c if isinstance(c, list) else c.tolist() for c in columns)))
    csv = _written("csv", names, columns)
    assert csv.split("\n")[:2] == ["# command = test", ",".join(names)]
    assert csv.split("\n")[2:] == [",".join(map(cli._fmt, row)) for row in rows] + [""]
    payload = {"config": {"command": "test"}, "columns": names,
               "rows": [[cli._round12(v) for v in row] for row in rows]}
    try:
        expected = json.dumps(payload, indent=2) + "\n"
    except TypeError:  # numpy bools and ints have no JSON form; no command passes them
        with pytest.raises(TypeError):
            _written("json", names, columns)
    else:
        assert _written("json", names, columns) == expected


_BOUND = st.floats(-1.0, 1.5) | st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@example(g1=(0.0, 0.6, 40), g2=(0.0, 1.0, 30))  # 1200 points, in two blocks
@given(g1=st.tuples(_BOUND, _BOUND, st.integers(1, 6)), g2=st.tuples(_BOUND, _BOUND, st.integers(1, 6)))
def test_the_packed_scan_body_is_the_fmt_join_of_the_phase_scan_rows(g1, g2):
    # cmd_entangle writes the scan's CSV body from one record array; each line must be
    # the cells of a point of the phase_scan columns, each written by _fmt.
    argv = ["entangle", "--scan", "--gamma1-range=%r:%r:%d" % g1, "--gamma2-range=%r:%r:%d" % g2]
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    rows = scan_rows(nmwit.phase_scan(g1[:2], g2[:2], (g1[2], g2[2])))
    body = out.getvalue().split("\ngamma1,gamma2,positive,cp,werner_threshold\n")[1]
    assert body == "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)


GOLDEN = Path(__file__).parent / "golden"
_CUSTOM_1000 = ["--scenario", "custom", "--generator", "custom_generator.json", "--epsilon", "0.02",
                "--t-start", "0.01", "--t-stop", "4.99", "--t-steps", "1000", "--seed", "3"]


def _json_of_csv(text, echo):
    """The JSON output whose rows are the cells of the CSV output text."""
    names, *cells = (line.split(",") for line in text.splitlines() if not line.startswith("#"))
    rows = [[c == "true" if c in ("true", "false") else float(c) for c in row] for row in cells]
    payload = {"config": {k: cli._round12(v) for k, v in echo}, "columns": names, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("command", ["divisibility", "witness", "spa"])
@pytest.mark.parametrize("golden, args", [
    ("eternal_{}_1.csv", ["--scenario", "eternal", "--epsilon", "0.0137", "--t-start", "1",
                          "--seed", "3"]),
    ("eternal_{}_1000.csv", ["--scenario", "eternal", "--epsilon", "0.0137", "--t-start", "0.05",
                             "--t-stop", "5", "--t-steps", "1000", "--seed", "3"]),
    ("custom_{}_1000.csv", _CUSTOM_1000)])
def test_time_grid_commands_write_the_golden_rows_in_csv_and_json(command, golden, args,
                                                                  monkeypatch, capsys):
    # A float's JSON value is its 12-digit CSV cell read back, so the JSON
    # output is pinned byte for byte by the CSV golden's cells.
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / golden.format(command)).read_text(encoding="utf-8")
    assert cli.main([command, *args]) == 0
    assert capsys.readouterr().out == expected
    argv = [command, *args, "--format", "json"]
    assert cli.main(argv) == 0
    echo = cli.resolve_config(cli.build_parser().parse_args(argv)).echo
    assert capsys.readouterr().out == _json_of_csv(expected, echo)
