import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import nmwit
from nmwit.cli import _round12
from nmwit.errors import DegenerateMinimum, DimensionMismatch, NonHermitianInput, ParameterOutOfRange
from nmwit.choi import checked_grid, grid_pass
from nmwit.witness import witness_dicts, witness_matrices, witness_stage

from oracles import BELL_PHI_PLUS, bell_witness_image, rand_density

EPS = 0.01
TAU_TARGET = np.array([-1, 0, 0, 1]) / np.sqrt(2)


def _dephasing_map(gamma=-1.0):
    return nmwit.small_time_map(nmwit.dephasing(gamma), 0.0, EPS)


def _eternal_map(t):
    return nmwit.small_time_map(nmwit.eternal_depolarizer(), t, EPS)


def test_witness_reuses_the_maps_choi_state(solves):
    # One eigensolve for the Choi state; build_witness reads the SPA weights and
    # tau off it and diagonalizes nothing.
    m = _eternal_map(1.0)
    choi = nmwit.choi_of(m)
    W = nmwit.build_witness(m)
    assert solves == [("x", 1, True)]
    assert nmwit.evaluate(W, choi) < 0


def test_a_witness_that_overflows_is_refused():
    # The Choi state is finite, Hermitian and of unit trace, but the term times
    # the superoperator's 1/P[0,0] = 2 overflows in the extension.
    gen = nmwit.LindbladGenerator(dim=2, terms=((nmwit.constant(-1e308), nmwit.SIGMA_Z),))
    m = nmwit.small_time_map(gen, 1.0, 1e-300)
    assert np.isfinite(nmwit.choi_of(m).matrix).all()
    with pytest.raises(ParameterOutOfRange, match="must be finite$"):
        nmwit.build_witness(m)


def test_one_dimensional_snapshot_has_a_witness():
    # A 1x1 SPA state has one eigenvalue, so its minimum is never degenerate;
    # the witness pass used to index a second eigenvalue that does not exist.
    gen = nmwit.LindbladGenerator(dim=1, terms=((nmwit.constant(1.0), [[2.0]]),))
    m = nmwit.small_time_map(gen, 1.0, EPS)
    W = nmwit.build_witness(m)
    assert (W.nu, W.omega, W.matrix.tolist()) == (1.0, 0.0, [[1.0]])
    assert nmwit.evaluate(W, nmwit.choi_of(m)) == 1.0


# --- adjoint identity --------------------------------------------------------

def test_adjoint_identity_dephasing_instance():
    res = nmwit.adjoint_identity_residual(
        nmwit.SIGMA_Z, TAU_TARGET, nmwit.projector(BELL_PHI_PLUS), -0.01
    )
    assert res < 1e-12


def test_adjoint_identity_zero_coefficient_is_exact():
    rng = np.random.default_rng(51)
    G = np.array([[0.3, 1 + 2j], [1 - 2j, -0.7]])
    res = nmwit.adjoint_identity_residual(
        G, np.array([1, 0, 0, 0], dtype=complex), rand_density(rng, 4), 0.0
    )
    assert res == 0.0


def test_adjoint_identity_randomized_suite():
    assert nmwit.adjoint_identity_max_residual(draws=100, seed=7) < 1e-10


def test_adjoint_identity_rejects_non_hermitian_jump():
    with pytest.raises(NonHermitianInput, match="^adjoint identity requires a Hermitian jump operator$"):
        nmwit.adjoint_identity_residual(
            np.array([[0, 1], [0, 0]]), TAU_TARGET, np.eye(4) / 4, 0.5
        )


# --- construction ------------------------------------------------------------

def test_dephasing_witness_minimizing_vector():
    W = nmwit.build_witness(_dephasing_map())
    assert abs(np.vdot(W.tau, TAU_TARGET)) > 1 - 1e-12
    assert np.abs(W.matrix - W.matrix.conj().T).max() < 1e-12


def test_eternal_witness_minimizing_vector():
    W = nmwit.build_witness(_eternal_map(1.0))
    assert abs(np.vdot(W.tau, TAU_TARGET)) > 1 - 1e-12


def test_cp_map_raises_degenerate_minimum():
    with pytest.raises(DegenerateMinimum):
        nmwit.build_witness(_dephasing_map(gamma=1.0))


def test_witness_matrix_reconstructs_from_provenance():
    for m in (_dephasing_map(), _eternal_map(0.5)):
        W = nmwit.build_witness(m)
        rebuilt = W.nu * nmwit.extend_and_apply(m, nmwit.projector(W.tau))
        assert np.abs(W.matrix - rebuilt).max() < 1e-12


def test_dephasing_witness_matrix_matches_bell_oracle():
    W = nmwit.build_witness(_dephasing_map())
    expected = W.nu * bell_witness_image((0.0, 0.0, -1.0), EPS)
    assert np.abs(W.matrix - expected).max() < 1e-12


# --- evaluation --------------------------------------------------------------

def test_dephasing_self_evaluation():
    m = _dephasing_map()
    val = nmwit.evaluate(nmwit.build_witness(m), nmwit.choi_of(m))
    assert val == pytest.approx(-0.009615384615384614, abs=1e-12)


def test_cross_evaluation_on_divisible_dephasing():
    W = nmwit.build_witness(_dephasing_map())
    val = nmwit.evaluate(W, nmwit.choi_of(_dephasing_map(gamma=1.0)))
    assert val == pytest.approx(0.009615384615384614, abs=1e-12)


def test_eternal_self_evaluation():
    m = _eternal_map(1.0)
    val = nmwit.evaluate(nmwit.build_witness(m), nmwit.choi_of(m))
    assert val == pytest.approx(-0.007390790252975192, abs=1e-12)


def test_evaluate_dimension_mismatch():
    W = nmwit.build_witness(_dephasing_map())
    bad = nmwit.choi_state(np.eye(2) / 2)
    with pytest.raises(DimensionMismatch):
        nmwit.evaluate(W, bad)


def test_identity_chain():
    for m in (_dephasing_map(), _eternal_map(0.25), _eternal_map(2.0)):
        W = nmwit.build_witness(m)
        c = nmwit.choi_of(m)
        dec = nmwit.optimal_decomposition(c)
        val = nmwit.evaluate(W, c)
        assert val == pytest.approx(W.nu * c.spectrum.eigenvalues[0], abs=1e-10)
        mu_min = dec.spa_choi.spectrum.eigenvalues[0]
        assert val == pytest.approx(mu_min - dec.omega / 4, abs=1e-10)


def test_lab_frame_expectation_equals_choi_evaluation():
    # Measuring the stored observable on the maximally entangled input is the
    # same number as the projector form on the Choi state (adjoint identity).
    for m in (_dephasing_map(), _eternal_map(1.0)):
        W = nmwit.build_witness(m)
        lab = float(np.trace(W.matrix @ nmwit.projector(BELL_PHI_PLUS)).real)
        assert lab == pytest.approx(nmwit.evaluate(W, nmwit.choi_of(m)), abs=1e-12)


# --- classification ----------------------------------------------------------

def test_eternal_witness_detects_at_every_instant():
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        m = _eternal_map(t)
        verdict = nmwit.classify_by_witness(nmwit.build_witness(m), nmwit.choi_of(m))
        assert verdict == nmwit.NON_MARKOVIAN_DETECTED


def test_divisible_snapshots_are_never_flagged():
    rng = np.random.default_rng(52)
    witnesses = [nmwit.build_witness(_dephasing_map())] + [
        nmwit.build_witness(_eternal_map(t)) for t in (0.5, 2.0)
    ]
    for _ in range(50):
        g = rng.uniform(0.0, 1.5, size=3)
        m = nmwit.small_time_map(
            nmwit.depolarizer(*g), rng.uniform(0, 3), rng.uniform(0.001, 0.05)
        )
        c = nmwit.choi_of(m)
        for W in witnesses:
            assert nmwit.evaluate(W, c) >= -1e-10
            assert nmwit.classify_by_witness(W, c) == nmwit.MARKOVIAN_CONSISTENT


def test_identity_channel_against_dephasing_witness():
    W = nmwit.build_witness(_dephasing_map())
    c = nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(0.0, 0.0, 0.0), 0.0, EPS))
    assert nmwit.evaluate(W, c) == pytest.approx(0.0, abs=1e-12)
    assert nmwit.classify_by_witness(W, c) == nmwit.MARKOVIAN_CONSISTENT


def test_sign_equivalence_on_random_indivisible_snapshots():
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 50:
        g = rng.uniform(-1.0, 1.0, size=3)
        if g.min() >= 0:
            continue
        m = nmwit.small_time_map(nmwit.depolarizer(*g), 0.0, rng.uniform(0.001, 0.05))
        c = nmwit.choi_of(m)
        if c.spectrum.eigenvalues[0] >= -1e-9:
            continue
        W = nmwit.build_witness(m)
        val = nmwit.evaluate(W, c)
        assert val < 0
        assert val == pytest.approx(W.nu * c.spectrum.eigenvalues[0], abs=1e-10)
        checked += 1


# --- export ------------------------------------------------------------------

def _export(W, gen=nmwit.dephasing(-1.0), t=0.0, eps=EPS):
    """witness_dicts at one instant: W's export as the witness of the snapshot (gen, t, eps)."""
    return witness_dicts(gen, [t], eps, np.array([W.omega]), np.array([W.nu]), W.tau[None],
                         W.matrix[None])[0]


def test_witness_export_dict():
    W = nmwit.build_witness(_eternal_map(1.0))
    d = _export(W, nmwit.eternal_depolarizer(), 1.0)
    assert d["source_map"] == {"t": 1.0, "epsilon": EPS, "generator": "eternal_depolarizer"}
    assert len(d["matrix"]) == 4 and all(len(row) == 4 for row in d["matrix"])
    matrix = np.array([[complex(re, im) for re, im in row] for row in d["matrix"]])
    assert np.abs(matrix - W.matrix).max() == 0.0
    tau = np.array([complex(re, im) for re, im in d["tau"]])
    assert np.abs(tau - W.tau).max() == 0.0
    assert d["nu"] == W.nu and d["omega"] == W.omega


def _check_floor(W):
    """Parts of W's matrix and tau below the floor are exported as +0.0, and every other part
    prints as without the floor. Returns the number of parts the floor changed."""
    d = _export(W)
    changed = 0
    for key, A in (("matrix", W.matrix), ("tau", W.tau)):
        floor = 1e-14 * np.abs(A).max()
        for y, x in zip(np.ravel(d[key]).tolist(), np.stack((A.real, A.imag), axis=-1).ravel().tolist()):
            if abs(x) < floor:
                assert y == 0.0 and math.copysign(1.0, y) == 1.0, (x, y)
                changed += repr(y) != repr(x)
            else:
                assert f"{y:.12g}" == f"{x:.12g}", (x, y)
    return changed


def test_witness_export_floors_only_the_rounding_residue():
    gen = nmwit.load_generator(Path(__file__).parent / "golden" / "custom_generator.json")
    times, eps = np.linspace(0.1, 4.9, 100), 0.02
    c, _, omega, nu, tau = grid_pass(gen, checked_grid(times), eps, witness_stage)
    witnesses = witness_matrices(gen, c, eps, nu, tau)
    changed = sum(_check_floor(nmwit.WitnessOperator(matrix=W, nu=n, omega=o, tau=v))
                  for o, n, v, W in zip(omega, nu, tau, witnesses))
    assert changed > 0


def test_witness_export_writes_signed_zeros_as_zero_and_keeps_parts_above_the_floor():
    above, below = np.nextafter(1e-14, 1.0), np.nextafter(1e-14, 0.0)
    matrix = np.array([[1.0, complex(-0.0, above)], [complex(above, -0.0), complex(below, -below)]])
    tau = np.array([complex(-0.0, 0.0), complex(-2.0, -below * 2)])
    W = nmwit.WitnessOperator(matrix=matrix, nu=1.0, omega=0.0, tau=tau)
    assert _check_floor(W) == 6
    d = _export(W)
    assert d["matrix"] == [[[1.0, 0.0], [0.0, above]], [[above, 0.0], [0.0, 0.0]]]
    assert d["tau"] == [[0.0, 0.0], [-2.0, 0.0]]


@st.composite
def _wide_generators(draw):
    """d = 1-3, one or two real or complex jumps, each with a coefficient tabulated at t = 0, 2.5
    and 5 from values of magnitude 1e-7 to 1e4. nu, which scales each witness matrix, keeps the
    largest magnitudes of a grid's witnesses within a few orders of each other: the per-array
    floor is pinned on arbitrary stacks below."""
    d, dtype = draw(st.integers(1, 3)), draw(st.sampled_from((float, complex)))
    part = st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d)
    value = st.builds(lambda sign, k: sign * 10.0**k, st.sampled_from((-1.0, 1.0)), st.integers(-7, 4))
    terms = []
    for _ in range(draw(st.integers(1, min(2, d * d)))):
        jump = np.array(draw(part)) + (1j * np.array(draw(part)) if dtype is complex else 0.0)
        values = draw(st.lists(value, min_size=3, max_size=3))
        terms.append((nmwit.tabulated([0.0, 2.5, 5.0], values), jump.reshape(d, d)))
    return nmwit.LindbladGenerator(dim=d, terms=tuple(terms))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(gen=_wide_generators(),
       grid=st.lists(st.floats(0.01, 4.99), min_size=1, max_size=8, unique=True).map(sorted),
       eps=st.floats(0.001, 0.05))
def test_the_stacked_export_is_the_one_instant_export_at_each_instant(gen, grid, eps):
    # The export the CLI writes from the stacked pass is, in JSON text, a loop over the grid of
    # witness_dicts at one instant, of the matrix, nu, omega and tau that build_witness gives.
    kept, expected = [], []
    for t in grid:  # a degenerate instant has no witness; the rest of the grid is exported
        try:
            expected.append(_export(nmwit.build_witness(nmwit.small_time_map(gen, t, eps)), gen, t, eps))
            kept.append(t)
        except DegenerateMinimum:
            pass
    assume(kept)
    c, _, omega, nu, tau = grid_pass(gen, checked_grid(kept), eps, witness_stage)
    stacked = witness_dicts(gen, checked_grid(kept), eps, omega, nu, tau,
                            witness_matrices(gen, c, eps, nu, tau))
    assert stacked == expected
    assert json.dumps(_round12(stacked), indent=2) == json.dumps(_round12(expected), indent=2)


_PART = st.sampled_from((0.0, -0.0, 1e-14, -1e-15, 0.5)) | st.floats(-1.0, 1.0)


@st.composite
def _scaled_stacks(draw):
    """(matrices, tau): 1-4 instants of d^2 x d^2 complex matrices and d^2-vectors, d = 1-3, the
    instants scaled by 10**k with k from -30 to 30, so that their largest magnitudes differ widely."""
    n, T = draw(st.integers(1, 3)) ** 2, draw(st.integers(1, 4))
    parts = st.lists(_PART, min_size=2 * T * n * (n + 1), max_size=2 * T * n * (n + 1))
    values = np.array(draw(parts)).view(complex).reshape(T, n, n + 1)
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-30, 30), min_size=T, max_size=T)))
    values *= scales[:, None, None]
    return values[:, :, :n], values[:, :, n]


# No shrinking: a failing stack is reported as found, where shrinking it would take minutes.
@settings(max_examples=150, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(stacks=_scaled_stacks(), nu=st.floats(1e-3, 1.0), omega=st.floats(0.0, 1.0))
# The second instant is the first scaled by 1e-10: its parts at 1e-13 of its own largest
# magnitude are kept, though they lie far below 1e-14 of the stack's.
@example(stacks=(np.array([[[1.0, 1e-13j], [1e-13, 1e-15]], [[1e-10, 1e-23j], [1e-23, 1e-25]]]),
                 np.array([[1.0, 1e-13], [1e-10, 1e-23]])), nu=1.0, omega=0.0)
def test_witness_dicts_floors_each_array_of_a_stack_as_it_floors_it_alone(stacks, nu, omega):
    matrices, tau = stacks
    gen, times = nmwit.eternal_depolarizer(), checked_grid(0.5 + np.arange(len(tau)))
    stacked = witness_dicts(gen, times, EPS, np.full(len(tau), omega), np.full(len(tau), nu), tau, matrices)
    witnesses = [nmwit.WitnessOperator(matrix=W, nu=nu, omega=omega, tau=v) for W, v in zip(matrices, tau)]
    alone = [_export(W, gen, t) for t, W in zip(times, witnesses)]
    assert json.dumps(_round12(stacked), indent=2) == json.dumps(_round12(alone), indent=2)
    for W in witnesses:
        _check_floor(W)


@pytest.mark.parametrize("start, stop", [(0.1, 3.0), (0.07, 4.2)])
@pytest.mark.parametrize("gen", [nmwit.eternal_depolarizer(), nmwit.dephasing(-1.0)],
                         ids=["eternal", "dephasing"])
def test_x_pattern_witnesses_are_exactly_zero_outside_the_x(gen, start, stop):
    # The closed form solves each Bell-diagonal Choi matrix as two 2x2 blocks, so tau lies
    # in one block and W has exactly 0.0 outside the X: the --export-witness floor at
    # 1e-14 of the largest entry never decides these entries. (LAPACK's dense solve left
    # roundoff up to 7.2e-15 there on these grids for the eternal depolarizer.)
    grid = checked_grid(np.linspace(start, stop, 1000))
    c, _, _, nu, tau = grid_pass(gen, grid, EPS, witness_stage)
    W = witness_matrices(gen, c, EPS, nu, tau)
    x = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
    assert ((tau[:, [1, 2]] == 0).all(axis=1) | (tau[:, [0, 3]] == 0).all(axis=1)).all()
    assert not W[:, ~x].any()
