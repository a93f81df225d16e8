"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a PASS line (visible with pytest -s); a failed assertion
fails the corresponding criterion.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import nmwit
from nmwit import cli

from oracles import scan_rows, spa_onset_bisect, werner_threshold_closed

EPS = 0.01
ETERNAL_INSTANTS = (0.25, 0.5, 1.0, 2.0, 4.0)
TAU_TARGET = np.array([-1, 0, 0, 1]) / np.sqrt(2)


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def _dephasing_map(eps, gamma=-1.0):
    return nmwit.small_time_map(nmwit.dephasing(gamma), 0.0, eps)


def _eternal_map(t, eps=EPS):
    return nmwit.small_time_map(nmwit.eternal_depolarizer(), t, eps)


def _scenario_witnesses():
    maps = [_dephasing_map(EPS)] + [_eternal_map(t) for t in ETERNAL_INSTANTS]
    return [nmwit.build_witness(m) for m in maps]


def test_criterion_1_dephasing_choi_spectrum():
    for eps in (0.005, 0.01, 0.05):
        c = nmwit.choi_of(_dephasing_map(eps))
        assert abs(c.spectrum.eigenvalues[0] - (-eps)) < 1e-10
        overlap = abs(np.vdot(c.spectrum.eigenvectors[:, 0], TAU_TARGET))
        assert overlap > 1 - 1e-10
    _report(1, "dephasing Choi minimum eigenvalue -eps|G| with eigenvector (-1,0,0,1)/sqrt(2)")


def test_criterion_2_spa_threshold_formula():
    for eps in (0.005, 0.01, 0.05):
        for gamma in (-1.0, -0.5):
            m = _dephasing_map(eps, gamma)
            p = nmwit.optimal_decomposition(nmwit.choi_of(m)).omega
            assert abs(p - 4 * eps * abs(gamma) / (1 + 4 * eps * abs(gamma))) < 1e-12
            assert abs(p - spa_onset_bisect(nmwit.choi_of(m).matrix)) < 1e-8
    _report(2, "optimal mixing weight matches 4e|G|/(1+4e|G|) and the bisection onset")


def test_criterion_3_eternal_thresholds_and_detection():
    for t in ETERNAL_INSTANTS:
        m = _eternal_map(t)
        dec = nmwit.optimal_decomposition(nmwit.choi_of(m))
        th = np.tanh(t)
        assert abs(dec.omega - 4 * EPS * th / (1 + 4 * EPS * th)) < 1e-12
        assert abs(dec.nu - 1 / (1 + 4 * EPS * th)) < 1e-12
        W = nmwit.build_witness(m)
        c = nmwit.choi_of(m)
        value = nmwit.evaluate(W, c)
        assert abs(value - dec.nu * (-EPS * th)) < 1e-10
        assert nmwit.classify_by_witness(W, c) == nmwit.NON_MARKOVIAN_DETECTED
    _report(3, "eternal-depolarizer omega/nu formulas and detection at every instant")


def test_criterion_4_witness_soundness_and_sign_equivalence():
    witnesses = _scenario_witnesses()
    rng = np.random.default_rng(2024)

    for _ in range(200):
        g = rng.uniform(0.0, 1.0, size=3)
        t, eps = rng.uniform(0.0, 3.0), rng.uniform(0.001, 0.05)
        c = nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(*g), t, eps))
        for W in witnesses:
            assert nmwit.evaluate(W, c) >= -1e-10

    accepted = 0
    while accepted < 200:
        g = rng.uniform(-1.0, 1.0, size=3)
        if g.min() >= 0:
            continue
        accepted += 1
        eps = rng.uniform(0.001, 0.05)
        m = nmwit.small_time_map(nmwit.depolarizer(*g), 0.0, eps)
        c = nmwit.choi_of(m)
        lam_min = c.spectrum.eigenvalues[0]
        if lam_min < -1e-9:
            W = nmwit.build_witness(m)
            value = nmwit.evaluate(W, c)
            assert value < 0
            assert abs(value - W.nu * lam_min) < 1e-10
    _report(4, "witnesses nonnegative on 200 divisible snapshots, negative on 200 indivisible ones")


def test_criterion_5_adjoint_identity_suite():
    worst = nmwit.adjoint_identity_max_residual(draws=100, seed=0)
    assert worst < 1e-10
    _report(5, f"adjoint-identity max residual {worst:.2e} < 1e-10 over 100 draws")


def test_criterion_6_werner_detection():
    point = nmwit.MapFamilyPoint(0.5, 0.5)
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0):
        _, lam = nmwit.detect_entanglement(nmwit.werner(p).matrix, point)
        assert abs(lam - (1 - 3 * p) / 4) < 1e-12
    thr = nmwit.werner_threshold(point)
    assert abs(thr - 1 / 3) < 1e-6
    _report(6, "Werner minimum eigenvalue (1-3p)/4 and detection threshold 1/3")


def test_criterion_7_phase_diagram_truth_finding():
    # Each row's transfer matrices and Choi spectra are checked against the
    # closed forms, and each Werner bracket against eigvalsh; any disagreement
    # raises, so a completed scan certifies zero disagreements across the grid.
    rows = scan_rows(nmwit.phase_scan((0.0, 0.6), (0.0, 1.0), (61, 101)))
    assert len(rows) == 61 * 101

    margin = 1e-9
    for g1, g2, positive, cp, threshold in rows:
        positive_expected = g1 <= 0.5 + margin and g1 + g2 <= 1.0 + margin
        assert positive == positive_expected, (g1, g2)
        cp_expected = 1.0 - 2.0 * g1 - g2 >= -margin
        assert cp == cp_expected, (g1, g2)
        if positive and not cp:
            assert threshold is not None, (g1, g2)
            assert abs(threshold - werner_threshold_closed(g1, g2)) < 2e-6
        else:
            assert threshold is None

    by_point = {(round(g1, 9), round(g2, 9)): row for g1, g2, *row in rows}  # [positive, cp, threshold]
    # documented discrepancies with the nominal parameter region
    assert not by_point[(0.5, 0.9)][0]
    assert by_point[(0.2, 0.2)][1]
    assert abs(by_point[(0.5, 0.5)][2] - 1 / 3) < 1e-6
    _report(7, "positivity checks agree at all 6161 grid points; region boundaries "
               "are gamma1 <= 1/2 and gamma1+gamma2 <= 1 (positive), 2*gamma1+gamma2 > 1 (NCP)")


def _run_cli(args, out_dir, tag):
    env = os.environ.copy()
    env.pop("NMWIT_SEED", None)
    result = subprocess.run(
        [sys.executable, "-m", "nmwit", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=out_dir,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# Criterion 8's invocations, each with the name of its stdout golden file.
CLI_INVOCATIONS = [
    ("divisibility.csv",
     ["divisibility", "--scenario", "eternal", "--epsilon", "0.01",
      "--t-start", "0.1", "--t-stop", "4.0", "--t-steps", "40", "--seed", "3"]),
    ("witness.csv",
     ["witness", "--scenario", "eternal", "--t-start", "0.25", "--t-stop", "4.0",
      "--t-steps", "5", "--seed", "3", "--export-witness", "wit.json"]),
    ("spa.csv",
     ["spa", "--scenario", "dephasing", "--gamma-d", "-1", "--t-start", "1", "--seed", "3"]),
    ("entangle_point.csv",
     ["entangle", "--gamma1", "0.5", "--gamma2", "0.5", "--p", "0.5", "--seed", "3"]),
    ("entangle_scan.json",
     ["entangle", "--scan", "--gamma1-range", "0:0.6:7", "--gamma2-range", "0:1:11",
      "--samples", "2000", "--seed", "3", "--format", "json"]),
    ("prop1.csv", ["prop1", "--draws", "100", "--seed", "3"]),
]
GOLDEN = Path(__file__).parent / "golden"


def test_criterion_8_cli_determinism(tmp_path):
    for k, (_, args) in enumerate(CLI_INVOCATIONS):
        dir_a, dir_b = tmp_path / f"a{k}", tmp_path / f"b{k}"
        dir_a.mkdir(), dir_b.mkdir()
        out_a = _run_cli(args, dir_a, "a")
        out_b = _run_cli(args, dir_b, "b")
        assert out_a == out_b, f"stdout differs for {args[0]}"
        assert out_a  # non-empty
        for name in ("wit.json",):
            fa, fb = dir_a / name, dir_b / name
            if fa.exists():
                assert fa.read_bytes() == fb.read_bytes()
    _report(8, "byte-identical outputs across repeated seeded runs of all subcommands")


def _grid_1000(scenario_args, epsilon, start, stop):
    return [*scenario_args, "--epsilon", epsilon, "--t-start", start, "--t-stop", stop,
            "--t-steps", "1000", "--seed", "3"]


_ETERNAL = _grid_1000(["--scenario", "eternal"], "0.0137", "0.05", "5")
# Constant, eternal_tanh and tabulated coefficients, and a non-Pauli Hermitian jump.
_CUSTOM = ["--scenario", "custom", "--generator", "custom_generator.json"]

# Pinned byte for byte beside criterion 8's invocations, but not run twice:
# (stdout golden, arguments, exported file or None).
GOLDEN_INVOCATIONS = [
    *((golden, args, "wit.json" if "wit.json" in args else None)
      for golden, args in CLI_INVOCATIONS),
    *((f"eternal_{cmd}_1000.csv", [cmd, *_ETERNAL], None)
      for cmd in ("divisibility", "witness", "spa")),
    *((f"custom_{cmd}_1000.csv", [cmd, *_grid_1000(_CUSTOM, "0.02", "0.01", "4.99")], None)
      for cmd in ("divisibility", "witness", "spa")),
    ("custom_witness_100.json",
     ["witness", *_CUSTOM, "--epsilon", "0.02", "--t-start", "0.1", "--t-stop", "4.9",
      "--t-steps", "100", "--seed", "3", "--format", "json",
      "--export-witness", "custom_witness_100_export.json"],
     "custom_witness_100_export.json"),
    # Runs driven by the config_*.json files, one of them with overriding flags.
    ("file_t_grid_divisibility.csv", ["divisibility", "--config", "config_t_grid.json"], None),
    ("file_t_grid_witness.json", ["witness", "--config", "config_t_grid_json.json"], None),
    ("file_scan_strings.csv", ["entangle", "--config", "config_scan_strings.json"], None),
    ("file_scan_lists.json", ["entangle", "--config", "config_scan_lists.json"], None),
    ("file_custom_witness.csv", ["witness", "--config", "config_custom.json"],
     "file_custom_export.json"),
    ("file_override_divisibility.csv",
     ["divisibility", "--config", "config_override.json", "--epsilon", "0.01",
      "--t-start", "0.25", "--t-stop", "2", "--t-steps", "4"], None),
    ("file_override_entangle.json",
     ["entangle", "--config", "config_override.json", "--p", "0.3", "--format", "json"], None),
    ("file_override_prop1.csv", ["prop1", "--config", "config_override.json", "--seed", "4"],
     None),
    # Scans with no threshold at all (no point is positive but not CP), of one point, and
    # with negative bounds.
    *((f"entangle_scan_{name}.{fmt}",
       ["entangle", "--scan", f"--gamma1-range={g1}", f"--gamma2-range={g2}", "--seed", "3",
        "--format", fmt], None)
      for name, g1, g2 in (("empty", "0:0.2:5", "0:0.5:6"), ("one_point", "0.3:0.3:1", "0.6:0.6:1"),
                           ("negative", "-0.2:0.7:37", "-0.5:1.3:53"))
      for fmt in ("csv", "json")),
]


def test_cli_output_matches_golden_files(tmp_path):
    # A change that alters any byte here must update the golden file and say
    # why in CHANGES.md.
    for k, (golden, args, exported) in enumerate(GOLDEN_INVOCATIONS):
        run_dir = tmp_path / str(k)
        run_dir.mkdir()
        for source in (GOLDEN / "custom_generator.json", *GOLDEN.glob("config_*.json")):
            shutil.copy(source, run_dir)
        out = _run_cli(args, run_dir, golden)
        assert out.encode() == (GOLDEN / golden).read_bytes(), f"stdout differs from {golden}"
        if exported:
            assert (run_dir / exported).read_bytes() == (GOLDEN / exported).read_bytes()


def test_in_process_cli_runs_match_golden_files(tmp_path, monkeypatch, capsys):
    # cli.main called many times in one process, as the benchmark calls it:
    # every invocation twice, the second round in reverse order, so that the
    # subcommands interleave over the one parser and the cached row templates.
    monkeypatch.delenv("NMWIT_SEED", raising=False)
    for source in (GOLDEN / "custom_generator.json", *GOLDEN.glob("config_*.json")):
        shutil.copy(source, tmp_path)
    monkeypatch.chdir(tmp_path)
    for golden, args, exported in [*GOLDEN_INVOCATIONS, *reversed(GOLDEN_INVOCATIONS)]:
        assert cli.main(list(args)) == 0, golden
        assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes(), golden
        if exported:
            assert (tmp_path / exported).read_bytes() == (GOLDEN / exported).read_bytes(), exported


def test_full_phase_scan_matches_golden_file(tmp_path):
    # The 61x101 grid at 10k samples, as the benchmark and the README run it,
    # in-process; the small scan above covers only 7x11 points.
    out = tmp_path / "scan.csv"
    args = ["entangle", "--scan", "--gamma1-range", "0:0.6:61", "--gamma2-range", "0:1:101",
            "--samples", "10000", "--seed", "0", "--output", str(out)]
    assert cli.main(args) == 0
    assert out.read_bytes() == (GOLDEN / "entangle_scan_full.csv").read_bytes()
