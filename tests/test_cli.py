import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nmwit
from nmwit import cli


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("NMWIT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nmwit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def csv_rows(stdout):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_divisibility_eternal_grid():
    r = run_cli("divisibility", "--scenario", "eternal", "--epsilon", "0.01",
                "--t-start", "0.1", "--t-stop", "4.0", "--t-steps", "40")
    assert r.returncode == 0
    header, rows = csv_rows(r.stdout)
    assert header == ["t", "lambda_min", "trace_norm_excess", "markovian"]
    assert len(rows) == 40
    assert all(row[3] == "false" for row in rows)
    # spot-check one value against the closed form
    t0 = float(rows[0][0])
    assert float(rows[0][1]) == pytest.approx(-0.01 * np.tanh(t0), abs=1e-10)


def test_divisibility_constant_depolarizer_via_generator_file(tmp_path):
    gen = {
        "dim": 2,
        "terms": [
            {"coefficient": {"kind": "constant", "value": 1.0}, "jump": "sigma_x"},
            {"coefficient": {"kind": "constant", "value": 1.0}, "jump": "sigma_y"},
            {"coefficient": {"kind": "constant", "value": 1.0}, "jump": "sigma_z"},
        ],
    }
    path = tmp_path / "depol.json"
    path.write_text(json.dumps(gen))
    r = run_cli("divisibility", "--scenario", "custom", "--generator", str(path),
                "--t-start", "0.2", "--t-stop", "2.0", "--t-steps", "5")
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    assert all(row[3] == "true" for row in rows)


def test_divisibility_tabulated_nonnegative_dephasing(tmp_path):
    gen = {
        "dim": 2,
        "terms": [
            {
                "coefficient": {"kind": "tabulated", "times": [0.0, 5.0], "values": [0.5, 2.0]},
                "jump": "sigma_z",
            }
        ],
    }
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(gen))
    r = run_cli("divisibility", "--scenario", "custom", "--generator", str(path),
                "--t-start", "0.5", "--t-stop", "4.5", "--t-steps", "9")
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    assert all(row[3] == "true" for row in rows)


def test_witness_eternal_values():
    r = run_cli("witness", "--scenario", "eternal", "--epsilon", "0.01", "--t-start", "1")
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    (row,) = rows
    assert float(row[1]) == pytest.approx(0.029563161011900832, abs=1e-10)
    assert float(row[2]) == pytest.approx(0.9704368389880992, abs=1e-10)
    assert float(row[3]) == pytest.approx(-0.007390790252975192, abs=1e-10)
    assert row[4] == "true"


def test_witness_dephasing_values_and_export(tmp_path):
    out = tmp_path / "wit.json"
    r = run_cli("witness", "--scenario", "dephasing", "--gamma-d", "-1",
                "--epsilon", "0.01", "--t-start", "1", "--export-witness", str(out))
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    assert float(rows[0][1]) == pytest.approx(0.038461538461538464, abs=1e-10)
    assert float(rows[0][3]) == pytest.approx(-0.009615384615384614, abs=1e-10)
    exported = json.loads(out.read_text())
    (entry,) = exported
    assert entry["source_map"]["generator"] == "dephasing"
    matrix = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
    assert matrix.shape == (4, 4)
    assert np.abs(matrix - matrix.conj().T).max() < 1e-9
    tau = np.array([complex(re, im) for re, im in entry["tau"]])
    target = np.array([-1, 0, 0, 1]) / np.sqrt(2)
    assert abs(np.vdot(tau, target)) > 1 - 1e-9


def test_witness_degenerate_exit_code():
    r = run_cli("witness", "--scenario", "dephasing", "--gamma-d", "1", "--t-start", "1")
    assert r.returncode == 4
    assert "t=1" in r.stderr


def test_spa_values_json():
    r = run_cli("spa", "--scenario", "eternal", "--t-start", "1", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["columns"] == ["t", "lambda_minus", "p_star", "omega", "nu"]
    (row,) = payload["rows"]
    assert row[2] == pytest.approx(0.029563161011900832, abs=1e-10)
    assert payload["config"]["scenario"] == "eternal"


def test_entangle_single_point():
    r = run_cli("entangle", "--gamma1", "0.5", "--gamma2", "0.5", "--p", "0.5")
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    assert float(rows[0][3]) == pytest.approx(-0.125, abs=1e-10)
    assert rows[0][4] == "true"
    r = run_cli("entangle", "--gamma1", "0.5", "--gamma2", "0.5", "--p", "0.2")
    _, rows = csv_rows(r.stdout)
    assert rows[0][4] == "false"


def test_entangle_non_positive_point_exit_code():
    r = run_cli("entangle", "--gamma1", "0.5", "--gamma2", "0.9", "--p", "0.5")
    assert r.returncode == 5
    assert "not positive" in r.stderr


def test_entangle_scan_mode():
    r = run_cli("entangle", "--scan", "--gamma1-range", "0:0.5:3",
                "--gamma2-range", "0:1:5", "--samples", "1000", "--seed", "7")
    assert r.returncode == 0
    header, rows = csv_rows(r.stdout)
    assert header == ["gamma1", "gamma2", "positive", "cp", "werner_threshold"]
    assert len(rows) == 15
    by_point = {(row[0], row[1]): row for row in rows}
    full_range = by_point[("0.5", "0.5")]
    assert full_range[2] == "true" and full_range[3] == "false"
    assert float(full_range[4]) == pytest.approx(1 / 3, abs=1e-6)
    identity = by_point[("0", "0")]
    assert identity[2] == "true" and identity[3] == "true" and identity[4] == ""


def test_prop1_passes_and_reports():
    r = run_cli("prop1", "--draws", "50", "--seed", "11")
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    assert float(rows[0][1]) < 1e-10


def test_config_parse_failures_exit_2(tmp_path):
    assert run_cli("divisibility", "--scenario", "custom").returncode == 2  # missing generator
    assert run_cli("divisibility", "--epsilon", "-0.5").returncode == 2
    assert run_cli("divisibility", "--t-steps", "0").returncode == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run_cli("divisibility", "--config", str(bad)).returncode == 2
    assert run_cli("entangle", "--gamma1", "0.5").returncode == 2  # missing gamma2/p
    unsorted = tmp_path / "unsorted.json"
    unsorted.write_text(json.dumps({"t_grid": [2.0, 1.0]}))
    assert run_cli("divisibility", "--config", str(unsorted)).returncode == 2


@pytest.mark.parametrize("argv, message", [
    (["divisibility", "--config", "array.json"], "config file must contain a JSON object"),
    (["prop1", "--seed", "-1"], "seed must be a nonnegative integer"),
    (["entangle", "--scan", "--gamma1-range", "0:1:2", "--gamma2-range", "0:1:2", "--samples", "0"],
     "samples must be >= 1"),
    (["entangle", "--scan"], "scan mode requires --gamma1-range and --gamma2-range"),
    (["entangle", "--scan", "--gamma1-range", "0:1:2"],
     "scan mode requires --gamma1-range and --gamma2-range"),
], ids=["config-array", "seed-negative", "samples-zero", "scan-without-ranges", "scan-without-gamma2-range"])
def test_config_values_out_of_range_exit_2_with_their_message(argv, message, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "array.json").write_text('[{"epsilon": 0.02}]')
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_prop1_exits_3_when_the_residual_reaches_its_bound(monkeypatch, capsys):
    # The table is written first, then the verdict goes to stderr.
    monkeypatch.setattr(nmwit.witness, "adjoint_identity_max_residual", lambda draws, seed: 1e-10)
    assert cli.main(["prop1", "--draws", "3"]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[-2:] == ["draws,max_residual", "3,1e-10"]
    assert err == "adjoint-identity residual 1.000e-10 exceeds 1e-10\n"


def test_numeric_failure_exit_3(tmp_path):
    # tabulated coefficient evaluated outside its domain mid-scan
    gen = {
        "dim": 2,
        "terms": [
            {
                "coefficient": {"kind": "tabulated", "times": [0.0, 1.0], "values": [1.0, 1.0]},
                "jump": "sigma_z",
            }
        ],
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(gen))
    r = run_cli("divisibility", "--scenario", "custom", "--generator", str(path),
                "--t-start", "0.5", "--t-stop", "2.0", "--t-steps", "4")
    assert r.returncode == 3
    assert "numerical failure" in r.stderr


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "eternal",
        "epsilon": 0.02,
        "t_grid": [0.5, 1.0, 2.0],
        "format": "csv",
    }))
    r = run_cli("divisibility", "--config", str(cfg))
    assert r.returncode == 0
    _, rows = csv_rows(r.stdout)
    assert len(rows) == 3
    assert float(rows[1][1]) == pytest.approx(-0.02 * np.tanh(1.0), abs=1e-10)
    # flag overrides the file's epsilon; the header echoes the effective value
    r2 = run_cli("divisibility", "--config", str(cfg), "--epsilon", "0.01")
    assert "# epsilon = 0.01" in r2.stdout
    _, rows2 = csv_rows(r2.stdout)
    assert float(rows2[1][1]) == pytest.approx(-0.01 * np.tanh(1.0), abs=1e-10)


def test_seed_env_fallback():
    direct = run_cli("prop1", "--draws", "20", "--seed", "123")
    via_env = run_cli("prop1", "--draws", "20", env_extra={"NMWIT_SEED": "123"})
    assert direct.stdout.replace("# seed = 123", "#") == via_env.stdout.replace("# seed = 123", "#")
    assert "# seed = 123" in via_env.stdout
    bad_env = run_cli("prop1", env_extra={"NMWIT_SEED": "abc"})
    assert bad_env.returncode == 2


def test_output_file_and_numeric_precision(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("witness", "--scenario", "eternal", "--t-start", "1",
                "--output", str(out))
    assert r.returncode == 0 and r.stdout == ""
    text = out.read_text()
    _, rows = csv_rows(text)
    # 12 significant digits round-trip
    assert rows[0][3] == f"{-0.007390790252975192:.12g}"


def test_non_finite_or_malformed_generator_input_exits_2(tmp_path, capsys):
    assert run_cli("spa", "--scenario", "dephasing", "--gamma-d", "nan").returncode == 2
    assert run_cli("divisibility", "--epsilon", "inf").returncode == 2
    # These used to exit 3 (--tolerance inf: 0) from the command itself.
    for argv in (
        ["divisibility", "--tolerance", "inf"],
        ["entangle", "--gamma1", "0.5", "--gamma2", "0.5", "--p", "2"],
        ["entangle", "--gamma1", "nan", "--gamma2", "0.5", "--p", "0.5"],
        *(["entangle", "--scan", f"--gamma1-range={r}", "--gamma2-range", "0:1:3"]
          for r in ("nan:0.6:3", "0:inf:3", "-1e308:1e308:3")),
        # Finite coefficients whose closed forms overflow used to exit 3 (the
        # scan, as a failed cross-check) or 5 (the single point, as not positive).
        ["entangle", "--scan", "--gamma1-range", "8e307:8.9e307:2", "--gamma2-range", "0:1:2"],
        ["entangle", "--scan", "--gamma1-range", "0:0.5:2", "--gamma2-range", "0:9e307:2"],
        ["entangle", "--gamma1", "8e307", "--gamma2", "0", "--p", "0.5"],
    ):
        assert cli.main(argv) == 2, argv
        assert "config error" in capsys.readouterr().err, argv
    wrong_shape = tmp_path / "wrong_shape.json"
    wrong_shape.write_text(json.dumps({"dim": 2, "terms": [
        {"coefficient": {"kind": "constant", "value": 1.0}, "jump": {"matrix": [[1]]}}]}))
    r = run_cli("divisibility", "--scenario", "custom", "--generator", str(wrong_shape))
    assert r.returncode == 2
    assert "config error" in r.stderr


@pytest.mark.parametrize("command, extra", [
    ("divisibility", []), ("witness", []), ("spa", []),
    ("entangle", ["--gamma1", "0.5", "--gamma2", "0.5", "--p", "0.5"]),
    ("entangle", ["--scan", "--gamma1-range", "0:0.6:4", "--gamma2-range", "0:1:3"]),
], ids=["divisibility", "witness", "spa", "entangle", "entangle-scan"])
def test_the_tolerance_takes_the_librarys_rule(command, extra, tmp_path, capsys):
    # Finite and >= 0, as kernel.check_tolerance: 0 runs (it used to exit 2), and a negative,
    # NaN or infinite tolerance is a config error.
    argv = [command, *extra, "--output", str(tmp_path / "out.csv"), "--tolerance"]
    assert cli.main([*argv, "0"]) == 0
    assert (tmp_path / "out.csv").read_text().count("# tolerance = 0\n") == 1
    for bad in ("-1", "nan", "inf"):
        assert cli.main([*argv, bad]) == 2, bad
        assert capsys.readouterr().err == (
            f"config error: tolerance must be finite and >= 0, got {float(bad)!r}\n")


def _tabulated_generator(tmp_path, times, values, jump):
    path = tmp_path / "tabulated.json"
    path.write_text(json.dumps({"dim": 2, "terms": [
        {"coefficient": {"kind": "tabulated", "times": times, "values": values}, "jump": jump}]}))
    return str(path)


_GRID = ["--t-start", "0.5", "--t-stop", "2", "--t-steps", "4"]
_DEGENERATE_AT_HALF = ("degenerate minimum: minimum eigenvalue of the SPA state is degenerate "
                       "at t=0.5 (gap 0)")
_PAST_DOMAIN = "numerical failure: t=1.5 outside tabulated domain [0, 1]"
_NOT_FINITE = "numerical failure: t and epsilon must be finite, got t=nan, epsilon=0.01"


# Exit code and last stderr line of grids that fail. They are those of a loop
# over the instants, although a grid runs as one stacked pass: the first
# failing instant in grid order decides the error, and within that instant
# its first failing check. Each case is (tabulated coefficient or None for the
# eternal scenario, extra arguments, {command: (exit code, last stderr line)}).
GRID_ORDER_CASES = {
    # SPA minimum degenerate from t=0.5 on (a CP snapshot with two zero
    # eigenvalues); the table ends before t=1.5.
    "degenerate_then_past_domain": (
        ([0, 1], [2, 2], "sigma_z"), _GRID,
        {"divisibility": (3, _PAST_DOMAIN), "witness": (4, _DEGENERATE_AT_HALF),
         "spa": (3, _PAST_DOMAIN)}),
    "starts_before_domain": (
        ([1, 3], [-1, -1], "sigma_z"), _GRID,
        {cmd: (3, "numerical failure: t=0.5 outside tabulated domain [1, 3]")
         for cmd in ("divisibility", "witness", "spa")}),
    # Trace check fails at t=0.5 (the terms cancel to a trace of 0).
    "trace_then_past_domain": (
        ([0, 1], [1e300, 1e300], "sigma_x"), _GRID,
        {cmd: (3, "numerical failure: Choi matrix trace 0 is not 1")
         for cmd in ("divisibility", "witness", "spa")}),
    # epsilon * c overflows, so the Hermiticity check fails at t=0.5.
    "overflow_then_past_domain": (
        ([0, 1], [1e308, 1e308], "sigma_x"), [*_GRID, "--epsilon", "10"],
        {cmd: (3, "numerical failure: matrix is not Hermitian within 1e-09 (max deviation nan)")
         for cmd in ("divisibility", "witness", "spa")}),
    "non_finite_instant": (
        None, ["--t-start", "nan"],
        {cmd: (3, _NOT_FINITE) for cmd in ("divisibility", "witness", "spa")}),
    # t=0.5 degenerate, then an instant that is not finite.
    "degenerate_then_non_finite": (
        ([0, 1], [2, 2], "sigma_z"), ["--config", "nan_grid.json"],
        {"divisibility": (3, _NOT_FINITE), "witness": (4, _DEGENERATE_AT_HALF),
         "spa": (3, _NOT_FINITE)}),
}


@pytest.mark.parametrize("command", ["divisibility", "witness", "spa"])
@pytest.mark.parametrize("case", sorted(GRID_ORDER_CASES))
def test_first_failing_instant_in_grid_order_decides_the_error(
    case, command, tmp_path, monkeypatch, capsys
):
    coefficient, extra, expected = GRID_ORDER_CASES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan_grid.json").write_text('{"t_grid": [0.5, NaN]}')
    argv = [command, *extra]
    if coefficient is not None:
        generator = _tabulated_generator(tmp_path, *coefficient)
        argv += ["--scenario", "custom", "--generator", generator]
    code = cli.main(argv)
    assert (code, capsys.readouterr().err.splitlines()[-1]) == expected[command]


@pytest.mark.parametrize("command, config", [
    ("spa", {"gamma_d": "abc"}),
    ("divisibility", {"epsilon": "abc"}),
    ("divisibility", {"tolerance": None}),
    ("prop1", {"seed": "abc"}),
    ("divisibility", {"seed": 1e400}),
    ("divisibility", {"t_start": "abc"}),
    ("divisibility", {"t_stop": [1]}),
    ("divisibility", {"t_steps": "abc"}),
    ("divisibility", {"t_steps": 1e400}),
    ("divisibility", {"t_grid": [0.5, "abc"]}),
    ("divisibility", {"t_grid": 5}),
    ("divisibility", {"t_grid": "123"}),
    ("entangle", {"scan": True, "gamma1_range": "0:1:2", "gamma2_range": "0:1:2",
                  "samples": "abc"}),
    ("prop1", {"draws": "abc"}),
    ("entangle", {"gamma1": "abc", "gamma2": 0.5, "p": 0.5}),
    ("entangle", {"gamma1": 0.5, "gamma2": 0.5, "p": [1]}),
    # Non-integral values for integer keys, once truncated.
    ("divisibility", {"t_start": 0.5, "t_stop": 1, "t_steps": 2.5}),
    ("prop1", {"seed": 3.9}),
    ("entangle", {"scan": True, "gamma1_range": "0:1:2", "gamma2_range": "0:1:2",
                  "samples": 10.9}),
    ("entangle", {"scan": True, "gamma1_range": [0, 0.5, 2.7], "gamma2_range": "0:1:2"}),
    # Booleans and strings where the other is meant, and paths that are not strings.
    ("prop1", {"seed": True}),
    ("entangle", {"scan": "false", "gamma1_range": "0:1:2", "gamma2_range": "0:1:2"}),
    ("divisibility", {"output": 2}),
    ("witness", {"export_witness": 2}),
])
def test_wrongly_typed_config_value_exits_2(command, config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilonn": 0.02}))
    assert cli.main(["divisibility", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key 'epsilonn' in {path}\n"
    # A key that another subcommand reads is accepted.
    path.write_text(json.dumps({"draws": 5, "gamma1_range": "0:1:2", "export_witness": "w.json"}))
    assert cli.main(["divisibility", "--config", str(path)]) == 0


def test_numpy_warnings_stay_off_stderr(tmp_path):
    generator = _tabulated_generator(tmp_path, [0, 1], [1e308, 1e308], "sigma_x")
    r = run_cli("divisibility", "--scenario", "custom", "--generator", generator,
                *_GRID, "--epsilon", "10")
    assert r.returncode == 3
    assert r.stderr == ("numerical failure: matrix is not Hermitian within 1e-09 "
                        "(max deviation nan)\n")


def test_linear_algebra_failure_exits_3(monkeypatch, capsys):
    # An eigensolver that does not converge raises numpy's LinAlgError, a
    # ValueError that no library check types.
    def fail(cfg):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setitem(cli._HANDLERS, "spa", fail)
    assert cli.main(["spa"]) == 3
    assert capsys.readouterr() == ("", "numerical failure: Eigenvalues did not converge\n")


@pytest.mark.parametrize("argv", [
    ["divisibility", "--t-steps", "3", "--t-stop", "2", "--output", "{missing}/x.csv"],
    ["witness", "--t-steps", "3", "--t-stop", "2", "--export-witness", "{missing}/w.json"],
    # An existing directory, whose parent is writable.
    ["divisibility", "--t-steps", "3", "--t-stop", "2", "--output", "{directory}"],
    ["witness", "--t-steps", "3", "--t-stop", "2", "--export-witness", "{directory}"],
])
def test_unwritable_output_path_exits_2_before_any_output(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "no_such_dir", directory=tmp_path) for a in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: cannot write ") and argv[-1] in err


@pytest.mark.parametrize("command", ["divisibility", "witness", "spa", "prop1"])
def test_time_bounds_that_are_not_finite(command, capsys):
    # A one-step grid is its start, whatever t_stop is; a longer grid needs
    # finite bounds and a finite span (config error). Neither prints a warning.
    extra = ["--draws", "2"] if command == "prop1" else []
    assert cli.main([command, "--t-stop=inf", *extra]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command != "prop1":
        assert "# t_stop = inf\n" in out and out.splitlines()[-1].startswith("1,")
    for bounds in (["--t-stop=inf"], ["--t-start=-inf"], ["--t-start=-1e308", "--t-stop=1e308"]):
        assert cli.main([command, *bounds, "--t-steps=3", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "config error: t_stop must exceed t_start, with finite bounds and span, when t_steps > 1")


@pytest.mark.parametrize("command", ["divisibility", "witness", "spa"])
@pytest.mark.parametrize("extra", [
    # A span too small for the step count repeats instants.
    ["--t-start=0", "--t-stop=5e-324", "--t-steps=5"],
    ["--config", "repeated.json"],
    ["--config", "descending.json"],
])
def test_time_grid_that_is_not_strictly_ascending_exits_2(command, extra, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "repeated.json").write_text('{"t_grid": [0.5, 1.0, 1.0]}')
    (tmp_path / "descending.json").write_text('{"t_grid": [1.0, 0.5]}')
    assert cli.main([command, *extra]) == 2
    assert capsys.readouterr() == ("", "config error: t_grid must be strictly ascending\n")


@pytest.mark.parametrize("gamma1_range, gamma2_range", [
    ((0.0, 0.5, 0), (0.0, 1.0, 2)),
    ((0.0, 0.5, 2), (0.0, 1.0, -1)),
    ((math.nan, 0.6, 3), (0.0, 1.0, 3)),
    ((-1e308, 1e308, 3), (0.0, 1.0, 3)),
    ((8e307, 8.9e307, 2), (0.0, 1.0, 2)),
])
def test_bad_scan_range_exits_2_with_the_library_message(gamma1_range, gamma2_range, capsys):
    # The CLI rejects a scan grid by the check phase_scan makes, with its message.
    (lo1, hi1, n1), (lo2, hi2, n2) = gamma1_range, gamma2_range
    with pytest.raises(nmwit.NmwitError) as raised:
        nmwit.phase_scan((lo1, hi1), (lo2, hi2), (n1, n2))
    argv = ["entangle", "--scan", f"--gamma1-range={lo1}:{hi1}:{n1}", f"--gamma2-range={lo2}:{hi2}:{n2}"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {raised.value}\n")


@pytest.mark.parametrize("description, message", [
    ({"dim": 2, "terms": 5}, "generator terms must be a list, got 5"),
    ([{"dim": 2, "terms": []}], "generator description must be a JSON object"),
    ({"dim": 2, "terms": [{"coefficient": 1.0, "jump": "sigma_z"}]},
     "term 0 must be an object with a coefficient object"),
    ({"dim": 0, "terms": []}, "generator dim must be an integer >= 1, got 0"),
    ({"dim": 2, "terms": [{"coefficient": {"kind": "constant", "value": 1.0},
                           "jump": {"matrix": 5}}]}, "term 0: 'int' object is not iterable"),
    ({"dim": 2, "terms": [{"coefficient": {"kind": "constant", "value": math.nan},
                           "jump": "sigma_z"}]}, "coefficient value, scale and times must be finite"),
    ({"dim": 2, "terms": [{"coefficient": {"kind": "tabulated", "times": [0, "2"], "values": [1, 2]},
                           "jump": "sigma_z"}]}, "tabulated time must be real, got '2'"),
    ({"dim": 2, "terms": [{"coefficient": {"kind": "constant", "value": 1.0}, "jump": 5}]},
     "jump must be a Pauli name or {'matrix': ...}, got 5"),
    ({"dim": 2, "terms": [{"coefficient": {"kind": "constant", "value": 1.0}}]},
     "term 0 lacks the key 'jump'"),
    # A jump that is not finite, and one whose L^dag L overflows (compiled without warnings).
    *(({"dim": 2, "terms": [{"coefficient": {"kind": "constant", "value": 1.0},
                             "jump": {"matrix": matrix}}]},
       "jump operators and their compiled images must be finite")
      for matrix in ([[math.nan, 0], [0, 1]], [[1e308, 0], [0, 1e308]])),
    # A table given as an object or as text, which used to be read as its keys or characters.
    *(({"dim": 2, "terms": [{"coefficient": {"kind": "tabulated", "times": times, "values": [1, 2]},
                             "jump": "sigma_z"}]}, f"tabulated times must be a sequence, got {times!r}")
      for times in ({"0": 1, "1": 2}, "01")),
])
def test_malformed_generator_file_exits_2(description, message, tmp_path, capsys):
    path = tmp_path / "generator.json"
    path.write_text(json.dumps(description))
    assert cli.main(["divisibility", "--scenario", "custom", "--generator", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: cannot load generator {path}: {message}\n"


def test_samples_and_seed_are_echoed_but_do_not_change_the_scan(capsys):
    scan = ["entangle", "--scan", "--gamma1-range", "0:0.6:7", "--gamma2-range", "0:1:11"]
    outputs = []
    for extra in ([], ["--samples", "3", "--seed", "99"]):
        assert cli.main(scan + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert "# samples = 3\n" in outputs[1] and "# seed = 99\n" in outputs[1]
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert strip(outputs[0]) == strip(outputs[1])


@pytest.mark.parametrize("argv", [
    ["divisibility", *_GRID],
    ["witness", *_GRID],
    ["witness", *_GRID, "--export-witness", "wit.json"],
    ["spa", *_GRID, "--format", "json"],
    ["entangle", "--scan", "--gamma1-range", "0:0.6:7", "--gamma2-range", "0:1:11"],
    ["entangle", "--gamma1", "0.5", "--gamma2", "0.5", "--p", "0.5"],
    ["prop1", "--draws", "3"],
])
def test_each_command_checks_its_grids_once(argv, tmp_path, monkeypatch, capsys):
    # resolve_config checks the time grid (and a scan's axes); the handlers
    # run on what it returned and do not check them again.
    monkeypatch.chdir(tmp_path)
    calls = []
    for module, name in ((nmwit.choi, "checked_grid"), (nmwit.entanglement, "scan_axes")):
        check = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _check=check, _name=name: (calls.append(_name),
                                                                     _check(*args))[1])
    assert cli.main(argv) == 0
    assert sorted(calls) == ["checked_grid", *(["scan_axes"] if "--scan" in argv else [])]


@pytest.mark.parametrize("export", [False, True])
def test_witness_forms_the_witness_matrices_only_for_an_export(export, tmp_path, monkeypatch,
                                                               capsys):
    monkeypatch.chdir(tmp_path)
    calls, extend = [], nmwit.witness.finite_image
    monkeypatch.setattr(nmwit.witness, "finite_image",
                        lambda *args: (calls.append(args), extend(*args))[1])
    assert cli.main(["witness", *_GRID, *(["--export-witness", "wit.json"] if export else [])]) == 0
    assert len(calls) == export
    assert (tmp_path / "wit.json").exists() == export


def test_a_witness_that_overflows_exits_3_and_writes_neither_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"dim": 2, "terms": [
        {"coefficient": {"kind": "constant", "value": -1e308}, "jump": "sigma_z"}]}))
    code = cli.main(["witness", "--scenario", "custom", "--generator", "g.json", "--epsilon", "1e-300",
                     "--output", "out.csv", "--export-witness", "wit.json"])
    assert (code, capsys.readouterr().err) == (
        3, "numerical failure: the operator and its image under id (x) N must be finite\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


def test_a_degenerate_grid_exits_4_before_any_export(tmp_path, monkeypatch, capsys):
    # The pass fails past the table's domain first; its replay meets the
    # degenerate SPA minimum at t=0.5, before any witness matrix is formed.
    monkeypatch.chdir(tmp_path)
    generator = _tabulated_generator(tmp_path, [0, 1], [2, 2], "sigma_z")
    code = cli.main(["witness", *_GRID, "--scenario", "custom", "--generator", generator,
                     "--export-witness", "wit.json"])
    assert (code, capsys.readouterr().err.splitlines()[-1]) == (4, _DEGENERATE_AT_HALF)
    assert not (tmp_path / "wit.json").exists()



# Runs each argv (a JSON list) once, then 20 times more, in-process, and prints each
# of the 20 requests' minor page faults.
_FAULTS_PER_REQUEST = """
import json, resource, sys
from nmwit import cli
faults = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0
    faults.append([])
    for _ in range(20):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(argv) == 0
        faults[-1].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_repeated_requests_fault_in_no_pages_once_the_heap_is_held(tmp_path):
    # cli.main fixes glibc's mmap and trim thresholds, so a request's stacks come
    # from the heap its predecessor left and not from pages the OS faults in again:
    # in a fresh process, after a warm-up, 20 61x101 scans and 20 1000-instant
    # eternal witnesses take fewer than 5 minor page faults per request; a request
    # now and then takes a few, so the bound is on the mean. Without the held heap
    # each scan refaults hundreds of pages.
    if not cli._hold_heap():
        pytest.skip("glibc's mallopt is unavailable, so the heap is not held")
    scan = ["entangle", "--scan", "--gamma1-range", "0:0.6:61", "--gamma2-range", "0:1:101",
            "--output", str(tmp_path / "scan.csv")]
    witness = ["witness", "--scenario", "eternal", "--epsilon", "0.01", "--t-start", "0.07",
               "--t-stop", "4.5", "--t-steps", "1000", "--output", str(tmp_path / "witness.csv")]
    child = subprocess.run([sys.executable, "-c", _FAULTS_PER_REQUEST, json.dumps([scan, witness])],
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    for argv, faults in zip((scan, witness), json.loads(child.stdout)):
        assert sum(faults) < 5 * len(faults), (argv[0], faults)
