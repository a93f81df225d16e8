import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nmwit
from nmwit import cli, entanglement, kernel
from nmwit.errors import (
    CrossCheckFailed,
    DimensionMismatch,
    EmptyGrid,
    MapNotPositive,
    NonHermitianInput,
    ParameterOutOfRange,
)
from nmwit.entanglement import _FAMILY, _choi_weights, _factors, _werner_thresholds
from nmwit.lindblad import (choi_matrices, depolarizer, extend, extend_and_apply, finite_image,
                            small_time_map)

from oracles import (
    family_extend,
    family_map_apply,
    finite_by_factors_and_weights,
    loop_threshold,
    per_block_scan_columns,
    rand_density,
    rand_hermitian,
    rand_separable,
    sample_pure_states,
    scan_rows,
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


# --- the check in real arithmetic ---------------------------------------------

def _sorted_weights(g1, g2):
    """The Choi weights {1-2*g1-g2, g1, g1, g2} of each point, ordered by np.sort."""
    return np.sort(np.stack([1.0 - 2.0 * g1 - g2, g1, g1, g2], axis=-1), axis=-1)


def test_the_family_compiles_to_real_choi_images():
    # _check_points reads the transfer matrix off J in one real product, which needs a real J.
    assert _FAMILY.choi_images.dtype == np.float64


_COEFFICIENT = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-300])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(_COEFFICIENT, _COEFFICIENT), min_size=1, max_size=40))
def test_the_real_transfer_product_is_the_complex_one_and_keeps_the_verdicts(points):
    # J times the interleaved parts of _TRANSFER is J.astype(complex) @ _TRANSFER within
    # 1e-15 of each row's largest entry; the complex product passes the transfer check, so
    # _check_points, which passes it too, gives every point the closed forms' verdicts.
    g1, g2 = np.array(points).T
    n = len(g1)
    J = choi_matrices(_FAMILY, np.stack([g1, g1, g2], axis=-1), 1.0)
    real = (J.reshape(n, 16) @ entanglement._TRANSFER.view(float)).view(complex)
    ref = J.astype(complex).reshape(n, 16) @ entanglement._TRANSFER
    assert (np.abs(real - ref) <= 1e-15 * np.abs(ref).max(axis=1, keepdims=True)).all()
    s, u = _factors(g1, g2)
    ref[:, 0] -= 1.0
    ref[:, 5:11:5] -= s[:, None]
    ref[:, 15] -= u
    assert not entanglement._disagree(ref, g1, g2).any()
    positive, cp, least = entanglement._check_points(g1, g2, 1e-9)
    assert np.array_equal(positive, np.maximum(np.abs(s), np.abs(u)) <= 1.0 + 2e-9)
    assert np.array_equal(least, _sorted_weights(g1, g2)[:, 0]) and np.array_equal(cp, least >= -1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(_COEFFICIENT, _COEFFICIENT), min_size=1, max_size=12),
       width=st.sampled_from([4, 16]), kind=st.sampled_from([float, complex]), data=st.data())
def test_the_flat_check_gives_each_point_the_verdict_of_its_largest_residual(points, width, kind,
                                                                             data):
    # Residual entries within their point's bound, a few of them replaced by NaN, +-inf, the
    # bound itself or the next float past it (in either sign); whether the block passes the flat
    # all() or is reduced point by point, each point's verdict is that of its largest |entry|.
    g1, g2 = np.array(points).T
    n = len(g1)
    bound = 1e-12 * (1.0 + np.abs(g1) + np.abs(g2))
    parts = st.lists(st.floats(-0.7, 0.7), min_size=n * width, max_size=n * width)
    r = np.array(data.draw(parts)).reshape(n, width) * bound[:, None]
    if kind is complex:  # |re + i im| <= 0.7 * sqrt(2) * bound stays within the bound
        r = r + 1j * np.array(data.draw(parts)).reshape(n, width) * bound[:, None]
    specials = st.tuples(st.integers(0, n - 1), st.integers(0, width - 1),
                         st.sampled_from(["at", "-at", "over", "-over", np.nan, np.inf, -np.inf]))
    for k, j, special in data.draw(st.lists(specials, max_size=3)):
        at, over = bound[k], np.nextafter(bound[k], np.inf)
        r[k, j] = {"at": at, "-at": -at, "over": over, "-over": -over}.get(special, special)
    expected = ~(np.abs(r).reshape(n, -1).max(axis=-1) <= bound)
    assert np.array_equal(entanglement._disagree(r, g1, g2), expected)


# Finite coefficients with finite weights, no -0.0 among them, and ties among the weights.
_FINITE = st.floats(-1e300, 1e300).map(lambda x: x + 0.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=20))
def test_the_choi_weights_network_is_np_sort_bit_for_bit(points):
    g1, g2 = np.array(points).T
    assert _choi_weights(g1, g2).tobytes() == _sorted_weights(g1, g2).tobytes()
    for a, b in points:  # and on the scalars of one MapFamilyPoint
        assert _choi_weights(a, b).tobytes() == _sorted_weights(a, b).tobytes()


@pytest.mark.parametrize("g1, g2", [(-0.0, 1.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.5, -0.0)])
def test_the_choi_weights_network_orders_a_negative_zero_by_value(g1, g2):
    # Against 0.0, -0.0 may take either place, in the network as in np.sort: the values
    # agree, and no verdict reads the sign of a zero weight.
    assert np.array_equal(_choi_weights(g1, g2), _sorted_weights(g1, g2))


# The largest |g1| whose u = 1 - 4*g1 is finite: at g1 = g2 = -_G1_EDGE, s is the largest float.
_G1_EDGE = np.nextafter(2.0**1022, 0.0)
_ANY = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.5, 2.0**1022,
                                       -2.0**1022, 2.0**1023, -2.0**1023, _G1_EDGE, -_G1_EDGE,
                                       np.nextafter(2.0**1023, 0.0), -np.nextafter(2.0**1023, 0.0)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(_ANY, _ANY), min_size=1, max_size=20))
def test_finite_decides_as_with_np_sort_on_infinite_and_nan_input(points):
    # The network keeps every inf and spreads every NaN, so the weights of each point are
    # finite exactly when the np.sort ones are. _finite reads the Bloch factors alone, and
    # decides as the rule that read the weights too: a finite u bounds |g1| by max/4 and a
    # finite s then |g2| by max/2, so a weight (1 - 2*g1) - g2 is finite wherever both are.
    g1, g2 = np.array(points).T
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(_sorted_weights(g1, g2)).all(axis=1)
        assert np.array_equal(np.isfinite(_choi_weights(g1, g2)).all(axis=1), finite)
    for a, b in points:
        assert entanglement._finite(a, b) == finite_by_factors_and_weights(a, b), (a, b)
    assert entanglement._finite(g1, g2) == finite_by_factors_and_weights(g1, g2)


def test_where_s_is_the_largest_float_a_weight_is_three_quarters_of_it():
    # A weight w = 1 - 2*g1 - g2 is (s + 1 - 2*g1) / 2, largest where s and -g1 are: at
    # g1 = g2 = -_G1_EDGE, s is the largest float and w about 3/4 of it. One float further
    # out in g2, s overflows and the point is rejected for it.
    big = np.finfo(float).max
    s, u = _factors(-_G1_EDGE, -_G1_EDGE)
    assert s == big and np.isfinite(u) and entanglement._finite(-_G1_EDGE, -_G1_EDGE)
    assert _choi_weights(-_G1_EDGE, -_G1_EDGE).max() <= 0.75 * big
    assert not entanglement._finite(-_G1_EDGE, -2.0**1022)
    assert not finite_by_factors_and_weights(-_G1_EDGE, -2.0**1022)


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


@pytest.mark.parametrize("triangle", [np.triu, np.tril], ids=["upper", "lower"])
def test_detect_rejects_a_state_that_is_not_hermitian(triangle):
    # A solve reads one triangle of the image, so these two read (False, 0.25) and
    # (False, -4.5e-17) at this point when their Hermiticity went unchecked.
    with pytest.raises(NonHermitianInput, match="not Hermitian"):
        nmwit.detect_entanglement(triangle(np.ones((4, 4))) / 4, pt(0.3, 0.5))


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
    hi, found = _werner_thresholds(g1s, g2, 1e-6, 1e-9, _choi_weights(g1s, g2)[:, 0])
    assert found.all()
    for thr, b in zip(hi.tolist(), g2):
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


def test_werner_bisection_diagonalizes_only_at_the_boundary(solves, monkeypatch):
    # After the positivity check's one-row Choi solve, every decision is one
    # eigenvalue solve of a stacked (hi, one step below) pair, one step being 2**-20
    # (the lattice of resolution 1e-6). At (0.5, 0.3) the closed-form onset
    # lands on the crossing, so one pair settles it; at (0.5, 0.25 + 2e-9)
    # the crossing is within rounding of p = 1/2, where the closed form cannot
    # decide and the spectra do. Every matrix is X-pattern, so each solve is kernel's closed form.
    near, far = pt(0.5, 0.25 + 2e-9), pt(0.5, 0.3)
    expected = loop_threshold(near), loop_threshold(far)
    werner_matrices = entanglement._werner_matrices
    solves.clear()
    assert nmwit.werner_threshold(far) == expected[1]
    assert solves == [("x", 1, False), ("x", 2, False)]
    solves.clear()
    monkeypatch.setattr(entanglement, "_werner_matrices",
                        lambda p: solves.append(np.ravel(p).tolist()) or werner_matrices(p))
    assert nmwit.werner_threshold(near) == expected[0]
    # Each step is ([p at hi, p one step below], one solve of both), ending at the threshold.
    assert solves[0] == ("x", 1, False)
    calls = solves[1:]
    assert len(calls) % 2 == 0 and calls[1::2] == [("x", 2, False)] * (len(calls) // 2)
    pairs = calls[0::2]
    assert all(lo == hi - 2.0**-20 for hi, lo in pairs)
    assert pairs[-1][0] == expected[0]


@pytest.mark.parametrize("offset", [-1e-5, 1e-5])
def test_werner_walk_corrects_an_onset_some_steps_off(offset):
    # A least Choi weight off by 1e-5 moves the closed-form onset at (0.5, 0.5)
    # by about 4.4e-6, four or five lattice steps up or down; the walk still
    # ends where bisection does.
    g = np.array([0.5])
    hi, found = _werner_thresholds(g, g, 1e-6, 1e-9, _choi_weights(g, g)[:, 0] + offset)
    assert found.tolist() == [True] and hi.tolist() == [loop_threshold(pt(0.5, 0.5))]


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
    # Every product of two imaginary sigma_y entries is real, and the map is
    # Pauli-diagonal, so the family's stacks are exactly real and exactly zero
    # outside the X (Bell-diagonal): kernel.eigvalsh solves them in closed form,
    # negative and large coefficients included.
    g1, g2, p = np.array(points).T
    rows = np.stack([g1, g1, g2], axis=-1)
    off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
    for stack in choi_matrices(_FAMILY, rows, 1.0), extend(_FAMILY, rows, 1.0,
                                                             entanglement._werner_matrices(p)):
        assert not stack.imag.any() and not stack[..., off_x].any()


def _real_density(rng):
    A = rng.normal(size=(4, 4))
    return A @ A.T / np.trace(A @ A.T)


def test_detection_diagonalizes_a_complex_image_as_complex_and_a_real_one_as_real(solves):
    # The positivity check's Choi solve is the closed form; the image of a complex
    # state takes the complex LAPACK solve, that of a real state the real one, and
    # that of a Werner state (X-pattern, as is every Bell-diagonal state) the closed form.
    rng, point = np.random.default_rng(71), pt(0.5, 0.3)
    for state, kind in [(rand_density(rng, 4), "complex"), (_real_density(rng), "real"),
                        (nmwit.werner(0.7).matrix, "x")]:
        image = finite_image(_FAMILY, np.array([0.5, 0.5, 0.3]), 1.0, state)
        solves.clear()
        expected = kernel.eigvalsh(image)[0]
        assert solves == [(kind, 1, False)]
        solves.clear()
        lam = nmwit.detect_entanglement(state, point)[1]
        assert solves == [("x", 1, False), (kind, 1, False)]
        assert np.float64(lam).tobytes() == expected.tobytes()
        if kind != "x":
            numpy_solve = np.linalg.eigh(image.real if kind == "real" else image)[0][0]
            assert expected.tobytes() == numpy_solve.tobytes()


def test_phase_scan_small_grid():
    columns = nmwit.phase_scan((0.0, 0.5), (0.0, 1.0), (3, 5))
    assert [(c.shape, c.dtype.kind) for c in columns] == [((15,), k) for k in "ffbbf"]
    by_point = {(round(g1, 6), round(g2, 6)): row for g1, g2, *row in scan_rows(columns)}
    positive, cp, threshold = by_point[(0.5, 0.5)]
    assert positive and not cp
    assert abs(threshold - 1 / 3) < 1e-6
    assert by_point[(0.0, 0.0)] == [True, True, None]
    assert by_point[(0.5, 1.0)] == [False, False, None]


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
    assert scan_rows(nmwit.phase_scan(g1_range, g2_range, steps)) == expected


@pytest.mark.parametrize("g1_range, g2_range, steps", _BLOCKED)
def test_blocked_scan_output_is_the_fmt_join_and_round12_of_the_rows(g1_range, g2_range, steps,
                                                                      capsys, blocks_of_512):
    rows = scan_rows(nmwit.phase_scan(g1_range, g2_range, steps))
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


# --- the batched Werner walk ---------------------------------------------------

# 21 rows of 31 points; with one row per check block, the positive-but-not-CP points
# (up to 15 a row) wait in batches of 20, which span several blocks.
_ROW_AXES = np.linspace(0.0, 0.6, 21), np.linspace(0.0, 1.0, 31)


@pytest.fixture
def one_row_blocks(monkeypatch):
    monkeypatch.setattr(entanglement, "_BLOCK", len(_ROW_AXES[1]))


def test_walks_across_one_row_blocks_are_a_per_point_loop_bit_for_bit(one_row_blocks, monkeypatch):
    walks, walk = [], entanglement._werner_thresholds
    monkeypatch.setattr(entanglement, "_werner_thresholds",
                        lambda g1, g2, *args: walks.append(g1) or walk(g1, g2, *args))
    g1, g2, positive, cp, thresholds = entanglement.scan_columns(*_ROW_AXES, 1e-9)
    monkeypatch.setattr(entanglement, "_werner_thresholds", walk)
    points = [pt(a, b) for a, b in zip(g1.tolist(), g2.tolist())]
    assert positive.tolist() == [nmwit.is_positive(point) for point in points]
    assert cp.tolist() == [nmwit.is_cp(point) for point in points]
    expected = [nmwit.werner_threshold(point) if p and not c else None
                for point, p, c in zip(points, positive.tolist(), cp.tolist())]
    assert thresholds.tobytes() == np.array([np.nan if t is None else t for t in expected]).tobytes()
    # Batches of two thirds of a block, each in grid order, some across blocks.
    sizes = [len(w) for w in walks]
    assert sum(sizes) == np.count_nonzero(positive & ~cp) and max(sizes) == 2 * 31 // 3
    assert len(walks) < len(set(g1[positive & ~cp].tolist()))
    assert any(len(set(w.tolist())) > 1 for w in walks)


def _failing(monkeypatch, check_row=None, walk_row=None):
    """Replace the scan's check and walk by ones that raise CrossCheckFailed, naming the first
    given point of the gamma1 row given, as the real ones name their first failing point; log
    each call as ("check" or "walk", its first point's row)."""
    row_of = {g: i for i, g in enumerate(_ROW_AXES[0].tolist())}
    log, check, walk = [], entanglement._check_points, entanglement._werner_thresholds

    def failing(name, real, row):
        def run(g1, g2, *args):
            log.append((name, row_of[g1[0]]))
            bad = g1 == _ROW_AXES[0][row] if row is not None else np.zeros(len(g1), dtype=bool)
            if bad.any():
                k = int(np.argmax(bad))
                raise CrossCheckFailed(f"{name} failed at gamma1={g1[k]:g}, gamma2={g2[k]:g}")
            return real(g1, g2, *args)
        return run

    monkeypatch.setattr(entanglement, "_check_points", failing("check", check, check_row))
    monkeypatch.setattr(entanglement, "_werner_thresholds", failing("walk", walk, walk_row))
    return log


@pytest.mark.parametrize("check_row, walk_row, expected, pending", [
    # Row 10's walk fails and row 11's check fails while row 10 is pending: the per-block
    # loop walks row 10 before it checks row 11, so the batched scan walks it first too.
    (11, 10, "walk failed at gamma1=0.3, gamma2=0.433333", True),
    # Row 11's check fails while row 10 is pending, which is walked first, and passes.
    (11, None, "check failed at gamma1=0.33, gamma2=0", True),
    # The batch of rows 10-12, walked once row 12 is checked, fails at row 12's first point.
    (13, 12, "walk failed at gamma1=0.36, gamma2=0.3", False),
    (None, 12, "walk failed at gamma1=0.36, gamma2=0.3", False),
    # The batch walked once row 11 is checked holds all of row 10, which comes first.
    (None, 10, "walk failed at gamma1=0.3, gamma2=0.433333", False),
])
def test_a_failing_batched_scan_raises_the_error_of_the_per_block_loop(
        check_row, walk_row, expected, pending, one_row_blocks, monkeypatch):
    log = _failing(monkeypatch, check_row, walk_row)
    with pytest.raises(CrossCheckFailed) as per_block:
        per_block_scan_columns(*_ROW_AXES, 1e-9)
    del log[:]
    with pytest.raises(CrossCheckFailed) as batched:
        entanglement.scan_columns(*_ROW_AXES, 1e-9)
    assert str(batched.value) == str(per_block.value) == expected
    # Whether the failing check was the last call but one, and the pending points were walked
    # after it.
    assert (check_row is not None and log[-2:] == [("check", check_row), ("walk", check_row - 1)]) == pending


def _traced_peak(run):
    """The tracemalloc peak of run(), above what is allocated when it starts."""
    run()  # once untraced, so that caches and first-use costs are not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_walk_batch_peaks_below_a_check_block():
    # The 61x101 grid's blocks of 10 rows, and a batch of two thirds of a block walked from
    # their positive-but-not-CP points: the walk's peak stays below the check's.
    g1s, g2s = entanglement.scan_axes((0.0, 0.6), (0.0, 1.0), (61, 101))
    g1, g2 = entanglement.grid_points(g1s, g2s)
    step = entanglement._BLOCK // 101 * 101
    positive, cp, least = entanglement._check_points(g1, g2, 1e-9)
    todo = np.flatnonzero(positive & ~cp)[:2 * step // 3]
    assert len(todo) == 2 * step // 3
    block = slice(20 * 101, 20 * 101 + step)
    check = _traced_peak(lambda: entanglement._check_points(g1[block], g2[block], 1e-9))
    walk = _traced_peak(lambda: entanglement._werner_thresholds(
        g1[todo], g2[todo], entanglement._RESOLUTION, 1e-9, least[todo]))
    assert walk < check
