import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nmwit
from nmwit import cli, entanglement
from nmwit.errors import (
    CrossCheckFailed,
    DimensionMismatch,
    EmptyGrid,
    MapNotPositive,
    ParameterOutOfRange,
)
from nmwit.entanglement import _FAMILY, _choi_weights, _factors, _werner_thresholds
from nmwit.lindblad import (choi_matrices, depolarizer, extend, extend_and_apply, finite_image,
                            small_time_map)

from oracles import (
    family_extend,
    family_map_apply,
    loop_threshold,
    rand_density,
    rand_hermitian,
    rand_separable,
    sample_pure_states,
    werner_extended_min_eig,
    werner_threshold_closed,
)


def pt(g1, g2):
    return nmwit.MapFamilyPoint(g1, g2)


# --- the map family ----------------------------------------------------------

def test_family_map_identity_point():
    rho = rand_density(np.random.default_rng(61), 2)
    assert np.abs(family_map_apply(pt(0.0, 0.0), rho) - rho).max() < 1e-15


def test_family_map_half_half_negates_bloch_vector():
    rng = np.random.default_rng(62)
    for _ in range(10):
        rho = rand_density(rng, 2)
        out = family_map_apply(pt(0.5, 0.5), rho)
        assert np.abs(out - (np.trace(rho) * np.eye(2) - rho)).max() < 1e-12


def test_family_map_bloch_action_on_axis_states():
    g1, g2 = 0.3, 0.25
    s, u = 1 - 2 * g1 - 2 * g2, 1 - 4 * g1
    paulis = (nmwit.SIGMA_X, nmwit.SIGMA_Y, nmwit.SIGMA_Z)
    for axis, factor in zip(paulis, (s, s, u)):
        for sign in (1.0, -1.0):
            rho = (np.eye(2) + sign * axis) / 2
            out = family_map_apply(pt(g1, g2), rho)
            bloch_out = [np.trace(p @ out).real for p in paulis]
            bloch_in = [np.trace(p @ rho).real * factor for p in paulis]
            assert np.abs(np.array(bloch_out) - bloch_in).max() < 1e-12


def test_family_map_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        family_map_apply(pt(0.1, 0.1), np.eye(4))


# --- positivity --------------------------------------------------------------

def test_positivity_known_points():
    assert nmwit.is_positive(pt(0.5, 0.5))
    assert nmwit.is_positive(pt(0.0, 0.0))
    assert not nmwit.is_positive(pt(0.5, 0.9))


def test_positivity_sampling_agrees_with_closed_form():
    rng = np.random.default_rng(63)
    for _ in range(40):
        point = pt(rng.uniform(0, 0.7), rng.uniform(0, 1.1))
        got = nmwit.is_positive(point)  # raises if the transfer matrix disagrees
        s, u = _factors(point.gamma1, point.gamma2)
        assert got == (max(abs(s), abs(u)) <= 1 + 2e-9)


@pytest.mark.parametrize("delta", [1e-9, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("point", [(0.5, 0.2), (0.3, 0.7)])
def test_positivity_cross_check_just_outside_the_boundary(point, delta):
    # Past gamma1 = 1/2 the worst input is a pole, past gamma1 + gamma2 = 1 it
    # is on the equator. Both offsets put the worst output eigenvalue at
    # -2*delta: the map is not positive, and the transfer-matrix check must
    # not fire (no CrossCheckFailed) this close to the boundary.
    g1, g2 = point
    outside = pt(g1 + delta, g2) if g1 == 0.5 else pt(g1, g2 + 2 * delta)
    assert not nmwit.is_positive(outside)
    assert nmwit.is_positive(pt(g1, g2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g1=st.floats(-0.3, 0.8), g2=st.floats(-0.3, 1.3), seed=st.integers(0, 2**32 - 1))
def test_is_positive_agrees_with_map_outputs_on_pure_states(g1, g2, seed):
    # Sampled pure states plus the poles and an equator state, where the least
    # output eigenvalue of this family sits; a point within rounding of the
    # boundary could go either way, so it is skipped.
    s, u = _factors(g1, g2)
    assume(abs(max(abs(s), abs(u)) - (1 + 2e-9)) > 1e-12)
    extremal = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]]])
    rhos = np.concatenate((sample_pure_states(200, np.random.default_rng(seed)), extremal))
    lam = min(np.linalg.eigvalsh(family_map_apply(pt(g1, g2), rho))[0] for rho in rhos)
    assert nmwit.is_positive(pt(g1, g2)) == (lam >= -1e-9)


def test_transfer_matrix_check_fires_on_wrong_bloch_factors(monkeypatch):
    factors = entanglement._factors
    monkeypatch.setattr(entanglement, "_factors", lambda g1, g2: (factors(g1, g2)[0] + 1e-9,
                                                                 factors(g1, g2)[1]))
    with pytest.raises(CrossCheckFailed, match="^transfer matrix mismatch at gamma1=0.3, gamma2=0.4$"):
        nmwit.is_positive(pt(0.3, 0.4))
    with pytest.raises(CrossCheckFailed, match="^transfer matrix mismatch"):
        nmwit.phase_scan((0.0, 0.5), (0.0, 1.0), (2, 3))


def test_choi_spectrum_check_fires_on_wrong_weights(monkeypatch):
    weights = entanglement._choi_weights
    monkeypatch.setattr(entanglement, "_choi_weights", lambda g1, g2: weights(g1, g2) + 1e-9)
    with pytest.raises(CrossCheckFailed, match="^Choi spectrum mismatch at gamma1=0.3, gamma2=0.4$"):
        nmwit.is_cp(pt(0.3, 0.4))


def test_werner_bracket_check_fires_on_wrong_weights():
    # A least Choi weight off by 0.01 moves the closed-form threshold 1/3 by
    # about 0.01, far outside the 1e-6 bracket that eigvalsh confirms.
    g = np.array([0.5])
    with pytest.raises(CrossCheckFailed, match="^Werner bracket .* not confirmed at gamma1=0.5"):
        _werner_thresholds(g, g, 1e-6, 1e-9, _choi_weights(g, g)[:, 0] + 0.01)


@pytest.mark.parametrize("entry", [
    lambda point: nmwit.werner_threshold(point),
    lambda point: nmwit.detect_entanglement(nmwit.werner(0.9).matrix, point),
], ids=["werner_threshold", "detect_entanglement"])
@pytest.mark.parametrize("g2, offset", [(0.4, 1e-9), (0.4, 5.0), (0.8, 0.5)],
                         ids=["slightly-off", "says-not-positive", "says-positive"])
def test_threshold_and_detection_cross_check_their_positivity(entry, g2, offset, monkeypatch):
    # They decide positivity as is_positive does, from the map's own transfer
    # matrix: a wrong Bloch factor fails the check, whether the closed form
    # then calls a positive map (0.3, 0.4) not positive or a map that is not
    # positive (0.3, 0.8; s = -1.2) positive.
    factors = entanglement._factors
    monkeypatch.setattr(entanglement, "_factors", lambda g1, g2: (factors(g1, g2)[0] + offset,
                                                                 factors(g1, g2)[1]))
    with pytest.raises(CrossCheckFailed, match=f"^transfer matrix mismatch at gamma1=0.3, gamma2={g2}$"):
        entry(pt(0.3, g2))


def test_cross_check_failure_is_a_runtime_error():
    assert issubclass(CrossCheckFailed, nmwit.NmwitError)
    assert issubclass(CrossCheckFailed, RuntimeError)


# --- complete positivity -------------------------------------------------------

def test_cp_known_points():
    assert not nmwit.is_cp(pt(0.5, 0.5))  # Choi weight 1 - 2g1 - g2 = -1/2
    assert nmwit.is_cp(pt(0.0, 0.0))
    assert nmwit.is_cp(pt(0.2, 0.2))  # weights (0.4, 0.2, 0.2, 0.2)


def test_cp_closed_form_matches_diagonalization():
    rng = np.random.default_rng(64)
    for _ in range(40):
        point = pt(rng.uniform(0, 0.7), rng.uniform(0, 1.1))
        nmwit.is_cp(point)  # raises on closed-form/numeric mismatch


# --- Werner states -----------------------------------------------------------

def test_werner_extremes():
    assert np.abs(nmwit.werner(0.0).matrix - np.eye(4) / 4).max() < 1e-15
    psi_m = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.abs(nmwit.werner(1.0).matrix - nmwit.projector(psi_m)).max() < 1e-15


def test_werner_half_spectrum():
    vals = np.linalg.eigvalsh(nmwit.werner(0.5).matrix)
    assert np.abs(vals - [0.125, 0.125, 0.125, 0.625]).max() < 1e-12


def test_werner_rejects_out_of_range():
    for p in (-0.2, 1.01):
        with pytest.raises(ParameterOutOfRange):
            nmwit.werner(p)


# --- detection ---------------------------------------------------------------

@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0])
def test_reduction_point_closed_form(p):
    detected, lam = nmwit.detect_entanglement(nmwit.werner(p).matrix, pt(0.5, 0.5))
    assert lam == pytest.approx((1 - 3 * p) / 4, abs=1e-12)
    assert detected == (p > 1 / 3)


def test_detection_threshold_boundary_not_detected():
    detected, _ = nmwit.detect_entanglement(nmwit.werner(1 / 3).matrix, pt(0.5, 0.5))
    assert not detected


def test_product_states_never_detected():
    rng = np.random.default_rng(65)
    for _ in range(20):
        state = np.kron(rand_density(rng, 2), rand_density(rng, 2))
        detected, lam = nmwit.detect_entanglement(state, pt(0.5, 0.5))
        assert not detected and lam >= -1e-12


def test_separable_mixtures_never_detected():
    rng = np.random.default_rng(66)
    points = [pt(0.5, 0.5), pt(0.25, 0.6), pt(0.4, 0.45)]
    for _ in range(500):
        state = rand_separable(rng)
        for point in points:
            _, lam = nmwit.detect_entanglement(state, point)
            assert lam >= -1e-10


def test_detect_rejects_non_positive_map():
    with pytest.raises(MapNotPositive):
        nmwit.detect_entanglement(nmwit.werner(0.5).matrix, pt(0.5, 0.9))


def test_detect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        nmwit.detect_entanglement(np.eye(2) / 2, pt(0.5, 0.5))


def test_extended_spectrum_matches_closed_form():
    rng = np.random.default_rng(67)
    for _ in range(25):
        g1, g2 = rng.uniform(0, 0.5), rng.uniform(0, 0.6)
        if max(abs(1 - 2 * g1 - 2 * g2), abs(1 - 4 * g1)) > 1:
            continue
        p = rng.uniform(0, 1)
        _, lam = nmwit.detect_entanglement(nmwit.werner(p).matrix, pt(g1, g2))
        assert lam == pytest.approx(werner_extended_min_eig(g1, g2, p), abs=1e-12)


# --- thresholds and the phase scan --------------------------------------------

def test_werner_threshold_full_range_point():
    thr = nmwit.werner_threshold(pt(0.5, 0.5))
    assert abs(thr - 1 / 3) < 1e-6


def test_werner_threshold_matches_closed_form():
    for g1, g2 in [(0.25, 0.6), (0.3, 0.5), (0.4, 0.45)]:
        thr = nmwit.werner_threshold(pt(g1, g2))
        assert abs(thr - werner_threshold_closed(g1, g2)) < 2e-6


def test_werner_threshold_none_for_cp_points():
    assert nmwit.werner_threshold(pt(0.2, 0.2)) is None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    g1=st.floats(0.05, 0.5),
    fractions=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
)
def test_batched_werner_thresholds_match_per_point_bisection(g1, fractions):
    # One gamma1 row of positive-but-not-CP points, 1 - 2*g1 < g2 <= 1 - g1,
    # where the closed-form onset is 1/(8*g1 + 4*g2 - 3).
    g2 = np.array([1.0 - 2.0 * g1 + f * g1 for f in fractions])
    g1s = np.full(len(g2), g1)
    batch = _werner_thresholds(g1s, g2, 1e-6, 1e-9, _choi_weights(g1s, g2)[:, 0])
    for thr, b in zip(batch, g2):
        point = pt(g1, float(b))
        assert thr == nmwit.werner_threshold(point) == loop_threshold(point)
        assert abs(thr - 1.0 / (8.0 * g1 + 4.0 * b - 3.0)) < 2e-6


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    g1=st.floats(0.0, 0.5),
    f=st.floats(0.0, 1.0),
    resolution=st.one_of(st.integers(1, 30).map(lambda u: 2.0**-u), st.floats(2.0**-30, 0.5),
                         st.sampled_from((0.5, 0.75, 1.0, 3.0, 1e300))),
    tolerance=st.floats(1e-15, 1e-3),
)
def test_werner_threshold_matches_per_point_bisection_at_any_resolution(g1, f, resolution,
                                                                        tolerance):
    # Positive points, 0 <= g1 <= 1/2 and -g1 <= g2 <= 1 - g1; CP ones
    # (g1 <= f <= 1 - g1) return None from both.
    point = pt(g1, f - g1)
    assert (nmwit.werner_threshold(point, resolution=resolution, tolerance=tolerance)
            == loop_threshold(point, resolution, tolerance))


def test_werner_bisection_diagonalizes_only_at_the_boundary(monkeypatch):
    # After the positivity check's one-row Choi solve, every decision is one
    # eigvalsh of a stacked (hi, one step below) pair, one step being 2**-20
    # (the lattice of resolution 1e-6). At (0.5, 0.3) the closed-form onset
    # lands on the crossing, so one pair settles it; at (0.5, 0.25 + 2e-9)
    # the crossing is within rounding of p = 1/2, where the closed form cannot
    # decide and eigvalsh does.
    near, far = pt(0.5, 0.25 + 2e-9), pt(0.5, 0.3)
    expected = loop_threshold(near), loop_threshold(far)
    calls, eigvalsh, werner_matrices = [], np.linalg.eigvalsh, entanglement._werner_matrices
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
    assert nmwit.werner_threshold(far) == expected[1]
    assert calls == [1, 2]
    calls.clear()
    monkeypatch.setattr(entanglement, "_werner_matrices",
                        lambda p: calls.append(np.ravel(p).tolist()) or werner_matrices(p))
    assert nmwit.werner_threshold(near) == expected[0]
    # Each step is ([p at hi, p one step below], one eigvalsh of both), ending at the threshold.
    assert calls[0] == 1
    calls = calls[1:]
    assert len(calls) % 2 == 0 and calls[1::2] == [2] * (len(calls) // 2)
    pairs = calls[0::2]
    assert all(lo == hi - 2.0**-20 for hi, lo in pairs)
    assert pairs[-1][0] == expected[0]


@pytest.mark.parametrize("offset", [-1e-5, 1e-5])
def test_werner_walk_corrects_an_onset_some_steps_off(offset):
    # A least Choi weight off by 1e-5 moves the closed-form onset at (0.5, 0.5)
    # by about 4.4e-6, four or five lattice steps up or down; the walk still
    # ends where bisection does.
    g = np.array([0.5])
    assert (_werner_thresholds(g, g, 1e-6, 1e-9, _choi_weights(g, g)[:, 0] + offset)
            == [loop_threshold(pt(0.5, 0.5))])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_family_rows_extend_like_per_point_maps(coeffs, seed):
    # The family's stacked rows (g1, g1, g2) through lindblad.extend equal, bit for
    # bit, the unit-step snapshot of depolarizer(g1, g1, g2) applied point by
    # point, for a stacked X and for one X shared by every row (a broadcast
    # view, as choi_matrices shares P, or the plain matrix, which extend
    # broadcasts), and match the blockwise oracle.
    rng = np.random.default_rng(seed)
    X = np.stack([rand_hermitian(rng, 4) for _ in coeffs])
    rows = np.array([(a, a, b) for a, b in coeffs])
    stacked = extend(_FAMILY, rows, 1.0, X)
    shared = extend(_FAMILY, rows, 1.0, np.broadcast_to(X[0], X.shape))
    assert np.array_equal(extend(_FAMILY, rows, 1.0, X[0]), shared)
    for k, (a, b) in enumerate(coeffs):
        m = small_time_map(depolarizer(a, a, b), 0.0, 1.0)
        assert np.array_equal(stacked[k], extend_and_apply(m, X[k]))
        assert np.array_equal(shared[k], extend_and_apply(m, X[0]))
        assert np.abs(stacked[k] - family_extend(pt(a, b), X[k])).max() < 1e-14
        assert np.abs(shared[k] - family_extend(pt(a, b), X[0])).max() < 1e-14


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.0, 1.0)),
                min_size=1, max_size=8))
def test_family_choi_stacks_and_werner_images_are_exactly_real(points):
    # Every product of two imaginary sigma_y entries is real, so kernel.eigvalsh
    # diagonalizes the family's stacks in real arithmetic, negative and large
    # coefficients included.
    g1, g2, p = np.array(points).T
    rows = np.stack([g1, g1, g2], axis=-1)
    assert not choi_matrices(_FAMILY, rows, 1.0).imag.any()
    assert not extend(_FAMILY, rows, 1.0, entanglement._werner_matrices(p)).imag.any()


def test_detection_diagonalizes_a_complex_image_as_complex_and_a_real_one_as_real(monkeypatch):
    rng, point, eigvalsh = np.random.default_rng(71), pt(0.5, 0.3), np.linalg.eigvalsh
    for state, real in [(rand_density(rng, 4), False), (nmwit.werner(0.7).matrix, True)]:
        image = finite_image(_FAMILY, np.array([0.5, 0.5, 0.3]), 1.0, state)
        assert image.imag.any() != real
        expected = eigvalsh(image.real if real else image)[0]
        kinds = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: kinds.append(a.dtype.kind) or eigvalsh(a))
        lam = nmwit.detect_entanglement(state, point)[1]
        monkeypatch.undo()
        assert kinds == ["f", "f" if real else "c"]  # the positivity check's Choi solve, then the image
        assert np.float64(lam).tobytes() == expected.tobytes()


def test_phase_scan_small_grid():
    rows = nmwit.phase_scan((0.0, 0.5), (0.0, 1.0), (3, 5))
    assert len(rows) == 15
    by_point = {(round(r.gamma1, 6), round(r.gamma2, 6)): r for r in rows}
    r = by_point[(0.5, 0.5)]
    assert r.positive and not r.cp
    assert abs(r.werner_threshold - 1 / 3) < 1e-6
    r = by_point[(0.0, 0.0)]
    assert r.positive and r.cp and r.werner_threshold is None
    r = by_point[(0.5, 1.0)]
    assert not r.positive and r.werner_threshold is None


def test_phase_scan_rejects_empty_grid():
    with pytest.raises(EmptyGrid):
        nmwit.phase_scan((0.0, 0.5), (0.0, 1.0), (0, 5))


# --- the blocked phase scan ------------------------------------------------------

# Grids of several blocks of 512 points: 13 rows of 101 points go in blocks of
# 5 rows, the last one partial; rows of 700 points go one row per block.
_BLOCKED = [((0.0, 0.6), (0.0, 1.0), (13, 101)), ((0.0, 0.6), (0.0, 1.0), (3, 700))]


@pytest.fixture
def blocks_of_512(monkeypatch):
    """Blocks of 512 points, so that the grids above span several blocks whatever _BLOCK is."""
    monkeypatch.setattr(entanglement, "_BLOCK", 512)


def _scan_table(g1_range, g2_range, steps):
    return [[r.gamma1, r.gamma2, r.positive, r.cp, r.werner_threshold]
            for r in nmwit.phase_scan(g1_range, g2_range, steps)]


@pytest.mark.parametrize("g1_range, g2_range, steps", _BLOCKED)
def test_blocked_phase_scan_is_the_per_point_loop(g1_range, g2_range, steps, blocks_of_512):
    g1s, g2s = np.linspace(*g1_range, steps[0]), np.linspace(*g2_range, steps[1])
    expected = []
    for g1 in g1s.tolist():
        for g2 in g2s.tolist():
            point = pt(g1, g2)
            positive = nmwit.is_positive(point, tolerance=1e-9)
            cp = nmwit.is_cp(point, tolerance=1e-9)
            threshold = nmwit.werner_threshold(point) if positive and not cp else None
            expected.append([g1, g2, positive, cp, threshold])
    assert any(row[4] is not None for row in expected)
    assert _scan_table(g1_range, g2_range, steps) == expected


@pytest.mark.parametrize("g1_range, g2_range, steps", _BLOCKED)
def test_blocked_scan_output_is_the_fmt_join_and_round12_of_the_rows(g1_range, g2_range, steps,
                                                                      capsys, blocks_of_512):
    rows = _scan_table(g1_range, g2_range, steps)
    argv = ["entangle", "--scan", "--gamma1-range", f"{g1_range[0]}:{g1_range[1]}:{steps[0]}",
            "--gamma2-range", f"{g2_range[0]}:{g2_range[1]}:{steps[1]}"]
    assert cli.main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("gamma1,gamma2,positive,cp,werner_threshold")
    assert lines[header + 1:] == [",".join(map(cli._fmt, row)) for row in rows]
    assert cli.main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == [list(map(cli._round12, row))
                                                           for row in rows]


@pytest.mark.parametrize("g1_range, g2_range, steps", _BLOCKED)
def test_blocked_scan_checks_whole_rows_at_most_a_block_at_a_time(g1_range, g2_range, steps,
                                                                  monkeypatch, blocks_of_512):
    sizes, check = [], entanglement._check_points

    def recorder(g1, g2, tolerance):
        sizes.append(len(g1))
        return check(g1, g2, tolerance)

    monkeypatch.setattr(entanglement, "_check_points", recorder)
    nmwit.phase_scan(g1_range, g2_range, steps)
    n1, n2 = steps
    assert sum(sizes) == n1 * n2 and all(size % n2 == 0 for size in sizes)
    assert max(sizes) <= max(n2, entanglement._BLOCK)
    assert len(sizes) == -(-n1 // max(1, entanglement._BLOCK // n2))


_G1S, _G2S = np.linspace(0.0, 0.6, 13), np.linspace(0.0, 1.0, 101)


def _bump(corners, g1, g2):
    """1e-9 at the grid points at or past any (row, column) corner, 0 elsewhere."""
    hit = np.zeros(np.shape(g1), dtype=bool)
    for i, j in corners:
        hit |= (g1 >= _G1S[i]) & (g2 >= _G2S[j])
    return 1e-9 * hit


@pytest.mark.parametrize("factor_corners, weight_corners, expected", [
    # Only points of the second and third blocks are off; the first of them is named.
    (((6, 50), (11, 3)), (), ("transfer matrix", 6, 50)),
    ((), ((6, 50), (11, 3)), ("Choi spectrum", 6, 50)),
    # Within a block, the first failing point wins, then its first failing check.
    (((6, 50),), ((6, 20),), ("Choi spectrum", 6, 20)),
    (((6, 50),), ((6, 50),), ("transfer matrix", 6, 50)),
])
def test_blocked_scan_fails_at_the_first_failing_point_in_grid_order(
    factor_corners, weight_corners, expected, monkeypatch, blocks_of_512
):
    factors, weights = entanglement._factors, entanglement._choi_weights
    monkeypatch.setattr(entanglement, "_factors", lambda g1, g2: (
        factors(g1, g2)[0] + _bump(factor_corners, g1, g2), factors(g1, g2)[1]))
    monkeypatch.setattr(entanglement, "_choi_weights", lambda g1, g2: (
        weights(g1, g2) + _bump(weight_corners, g1, g2)[..., None]))
    what, i, j = expected
    message = f"{what} mismatch at gamma1={_G1S[i]:g}, gamma2={_G2S[j]:g}"
    with pytest.raises(CrossCheckFailed, match=f"^{re.escape(message)}$"):
        nmwit.phase_scan((0.0, 0.6), (0.0, 1.0), (13, 101))
