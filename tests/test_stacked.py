"""The stacked grid pass against the per-instant reference, and its invariants.

A generator's time grid runs as one stacked Choi -> SPA -> witness pass; the
reference in oracles.reference_snapshot builds each instant alone, with a
Kronecker product per term and call and one one-matrix eigensolve each, in
the arithmetic kernel's rule gives that matrix alone. The two
must agree bit for bit, except the witness matrices, which the package forms
with one compiled superoperator per term and which agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmwit
from nmwit.choi import checked_grid, choi_grid, grid_pass
from nmwit.errors import DegenerateMinimum, EmptyGrid, UnorderedGrid
from nmwit.spa import spa_grid
from nmwit.witness import witness_matrices, witness_stage, witness_values

from oracles import reference_snapshot, same_bits_as, spa_mixture

_value = st.floats(-1.0, 1.0)


@st.composite
def coefficients(draw):
    kind = draw(st.sampled_from(("constant", "eternal_tanh", "tabulated")))
    if kind == "constant":
        return nmwit.constant(draw(_value))
    if kind == "eternal_tanh":
        return nmwit.eternal_tanh(draw(st.floats(-1.5, 1.5)))
    inner = draw(st.lists(st.floats(0.1, 4.9), max_size=3, unique=True))
    times = [0.0, *sorted(inner), 5.0]
    return nmwit.tabulated(times, [draw(_value) for _ in times])


@st.composite
def hermitian_jumps(draw):
    a, b, re, im = (draw(st.floats(-1.0, 1.0)) for _ in range(4))
    return np.array([[a, re - 1j * im], [re + 1j * im, b]])


@st.composite
def generators(draw):
    terms = draw(st.lists(st.tuples(coefficients(), hermitian_jumps()), min_size=1, max_size=4))
    return nmwit.LindbladGenerator(dim=2, terms=tuple(terms))


grids = st.lists(st.floats(0.01, 4.99), min_size=1, max_size=12, unique=True).map(sorted)
epsilons = st.floats(0.001, 0.05)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


_REAL_JUMP = np.array([[0.3, 0.5], [0.5, -0.2]])
_COMPLEX_JUMP = np.array([[0.2, 0.3 - 0.6j], [0.3 + 0.6j, -0.1]])
_TWELVE = [0.25 + 0.4 * k for k in range(12)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen=generators(), grid=grids, eps=epsilons)
# An exactly real generator: every Choi matrix is solved in real arithmetic.
@example(gen=nmwit.LindbladGenerator(dim=2, terms=((nmwit.constant(-0.8), _REAL_JUMP),)),
         grid=_TWELVE, eps=0.01)
# A mixed grid: the complex jump's coefficient is 0 up to t = 2, so the first
# five Choi matrices are exactly real and the other seven complex.
@example(gen=nmwit.LindbladGenerator(dim=2, terms=(
    (nmwit.constant(-0.5), _REAL_JUMP),
    (nmwit.tabulated([0.0, 2.0, 5.0], [0.0, 0.0, 0.9]), _COMPLEX_JUMP),
)), grid=_TWELVE, eps=0.01)
# X-pattern Choi matrices only: the closed form on a stack of 12 and on each alone.
@example(gen=nmwit.eternal_depolarizer(), grid=_TWELVE, eps=0.01)
# All three kinds: X-pattern up to t = 2, then real, and complex from t = 3.5 on.
@example(gen=nmwit.LindbladGenerator(dim=2, terms=(
    (nmwit.constant(-0.5), nmwit.SIGMA_Z),
    (nmwit.tabulated([0.0, 2.0, 5.0], [0.0, 0.0, 0.9]), _REAL_JUMP),
    (nmwit.tabulated([0.0, 3.5, 5.0], [0.0, 0.0, 0.7]), _COMPLEX_JUMP),
)), grid=_TWELVE, eps=0.01)
def test_stacked_pass_matches_per_instant_reference(gen, grid, eps):
    refs = [reference_snapshot(gen, t, eps) for t in grid]
    _, matrices, spectrum = choi_grid(gen, grid, eps)
    for k, (C, vals, *_) in enumerate(refs):
        assert same_bits_as(matrices[k], C)
        assert _same_bits(spectrum.eigenvalues[k], vals)
    # The first instant with a degenerate SPA minimum ends the pass, as it ends a loop.
    first = next((k for k, ref in enumerate(refs) if ref[2] is None), len(grid))
    if first < len(grid):
        with pytest.raises(DegenerateMinimum, match=f"at t={grid[first]:g} "):
            grid_pass(gen, checked_grid(grid), eps, witness_stage)
    if first == 0:
        return
    c, _, omega, nu, tau = grid_pass(gen, checked_grid(grid[:first]), eps, witness_stage)
    witnesses = witness_matrices(gen, c, eps, nu, tau)
    values = witness_values(nu, tau, matrices[:first])
    for k in range(first):
        _, _, ref_omega, ref_nu, ref_tau, ref_W, ref_value = refs[k]
        assert (omega[k], nu[k], values[k]) == (ref_omega, ref_nu, ref_value)
        assert same_bits_as(tau[k], ref_tau)
        # The package applies the summed superoperator sum_a c_a S_a where the
        # reference sums each term's image, so the witness matrix agrees to rounding only.
        assert np.abs(witnesses[k] - ref_W).max() <= 4 * np.finfo(float).eps * np.abs(ref_W).max()
        # The public one-instant functions are the same pass on a one-instant stack.
        m = nmwit.small_time_map(gen, grid[k], eps)
        choi = nmwit.choi_of(m)
        W = nmwit.build_witness(m)
        assert same_bits_as(matrices[k], choi.matrix)
        assert _same_bits(W.matrix, witnesses[k])
        assert nmwit.evaluate(W, choi) == values[k]


@pytest.mark.parametrize("gen, dtype", [
    (nmwit.eternal_depolarizer(), float),
    (nmwit.dephasing(), float),
    (nmwit.LindbladGenerator(dim=2, terms=((nmwit.constant(-0.8), _REAL_JUMP),)), float),
    (nmwit.LindbladGenerator(dim=2, terms=((nmwit.constant(-0.8), _COMPLEX_JUMP),)), complex),
], ids=["eternal", "dephasing", "real-jump", "complex-jump"])
def test_what_is_read_off_the_choi_state_keeps_the_compiled_dtype(gen, dtype):
    # The compile decides real or complex once; the Choi matrix, its eigenvectors, the
    # witness, the SPA state and the pass's tau take that dtype. A matrix from outside is complex.
    m = nmwit.small_time_map(gen, 1.0, 0.01)
    choi, W = nmwit.choi_of(m), nmwit.build_witness(m)
    *_, tau = grid_pass(gen, [1.0], 0.01, witness_stage)
    spa_matrix = nmwit.optimal_decomposition(choi).spa_choi.matrix
    assert gen.choi_images.dtype == dtype
    for array in (choi.matrix, choi.spectrum.eigenvectors, W.tau, W.matrix, spa_matrix, tau):
        assert array.dtype == dtype
    outside = nmwit.choi_state(choi.matrix, 1.0, 0.01)
    assert outside.matrix.dtype == outside.spectrum.eigenvectors.dtype == complex


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen=generators(), grid=grids, eps=epsilons)
# A real X-pattern Choi matrix, whose closed-form omega differs from complex LAPACK's in the
# last bits (0.003984063745019919 against 0.003984063745020032).
@example(gen=nmwit.LindbladGenerator(dim=2, terms=((nmwit.constant(-1.0), nmwit.SIGMA_Y),)),
         grid=[1.0], eps=0.001)
def test_spa_spectrum_and_tau_match_the_diagonalized_mixture(gen, grid, eps):
    # The SPA mixture built and diagonalized on its own (oracles.spa_mixture)
    # checks what the package reads off the Choi eigendecomposition.
    for t in grid:
        m = nmwit.small_time_map(gen, t, eps)
        choi = nmwit.choi_of(m)
        if choi.spectrum.eigenvalues[0] >= -1e-9:
            continue
        dec = nmwit.optimal_decomposition(choi)
        omega, nu, mixed, mvals, mvecs = spa_mixture(choi.matrix)
        assert (dec.omega, dec.nu) == (omega, nu)
        spa = dec.spa_choi
        assert np.abs(spa.spectrum.eigenvalues - np.linalg.eigvalsh(spa.matrix)).max() <= 1e-14
        assert np.abs(spa.spectrum.eigenvalues - mvals).max() <= 1e-14
        V = spa.spectrum.eigenvectors
        assert np.abs(V.conj().T @ spa.matrix @ V - np.diag(spa.spectrum.eigenvalues)).max() <= 1e-14
        try:
            tau = nmwit.build_witness(m).tau
        except DegenerateMinimum:
            continue
        mu = np.vdot(tau, mixed @ tau).real
        assert abs(np.linalg.norm(tau) - 1.0) <= 1e-12
        assert abs(mu) <= 1e-12
        assert np.linalg.norm(mixed @ tau - mu * tau) <= 1e-12
        if mvals[1] - mvals[0] > 1e-6:  # then the explicit eigenvector is tau up to a phase
            assert 1.0 - abs(np.vdot(mvecs[:, 0], tau)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen=generators(), grid=grids, eps=epsilons)
def test_choi_trace_is_one(gen, grid, eps):
    _, matrices, _ = choi_grid(gen, grid, eps)
    assert np.abs(np.trace(matrices, axis1=1, axis2=2) - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen=generators(), t=st.floats(0.01, 4.99), eps=epsilons,
       cp_rates=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       cp_t=st.floats(0.0, 3.0), cp_eps=epsilons)
def test_witness_sign_on_indivisible_and_cp_snapshots(gen, t, eps, cp_rates, cp_t, cp_eps):
    m = nmwit.small_time_map(gen, t, eps)
    choi = nmwit.choi_of(m)
    lam_min = choi.spectrum.eigenvalues[0]
    if lam_min >= -1e-9:
        return
    W = nmwit.build_witness(m)
    value = nmwit.evaluate(W, choi)
    assert value < 0
    assert abs(value - W.nu * lam_min) <= 1e-12
    cp = nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(*cp_rates), cp_t, cp_eps))
    assert nmwit.evaluate(W, cp) >= -1e-12


@pytest.mark.parametrize("grid, error", [
    ([], EmptyGrid), ([1.0, 0.5], UnorderedGrid), ([1.0, 1.0], UnorderedGrid)])
def test_every_grid_pass_rejects_an_empty_or_unordered_grid(grid, error):
    # The time-grid rule is checked_grid's, whichever stage runs over the grid.
    gen, eps = nmwit.eternal_depolarizer(), 0.01
    spa_stage = lambda times, c, matrices, eigenvalues, tau: spa_grid(eigenvalues)
    for run in (lambda: grid_pass(gen, checked_grid(grid), eps, spa_stage),
                lambda: nmwit.scan(gen, grid, eps)):
        with pytest.raises(error, match=r"^t_grid (is empty|must be strictly ascending)$"):
            run()
