"""The library's one-snapshot path: compile -> small_time_map -> choi_of -> classify ->
build_witness -> evaluate.

Each step is the one-instant case of the stacked grid pass, so at every instant it
gives the bits of the pass's row. The generators are those the generator_sweep bench
workload draws: 1 to 4 random Hermitian complex jumps with constant coefficients in
[-1, 1], epsilon in [0.001, 0.05] and instants in [0, 3].
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmwit
from nmwit.choi import checked_grid, grid_pass, verdicts
from nmwit.errors import DegenerateMinimum, NonHermitianInput, ParameterOutOfRange
from nmwit.lindblad import _superoperators
from nmwit.witness import witness_matrices, witness_stage, witness_values

from oracles import same_bits_as


@st.composite
def sweep_generators(draw):
    """A generator as generator_sweep draws one: 1 to 4 Hermitian complex 2x2 jumps, constant
    coefficients in [-1, 1]."""
    part = st.floats(-3.0, 3.0)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        a = np.array(draw(st.lists(part, min_size=8, max_size=8))).reshape(2, 2, 2)
        a = a[0] + 1j * a[1]
        terms.append((nmwit.constant(draw(st.floats(-1.0, 1.0))), (a + a.conj().T) / 2))
    return nmwit.LindbladGenerator(dim=2, terms=tuple(terms))


def _bits(x):
    return np.asarray(x).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gen=sweep_generators(), eps=st.floats(0.001, 0.05),
       times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3, unique=True).map(sorted))
def test_each_snapshot_call_gives_the_bits_of_the_grid_pass_row(gen, eps, times):
    grid = checked_grid(times)
    c, matrices, lam, tau = grid_pass(gen, grid, eps, lambda _, c, m, lam, tau: (c, m, lam, tau))
    rows = verdicts(lam, 1e-9)
    witnessed = []
    for k, t in enumerate(times):
        m = nmwit.small_time_map(gen, t, eps)
        choi = nmwit.choi_of(m)
        assert same_bits_as(choi.matrix, matrices[k])
        assert _bits(choi.spectrum.eigenvalues) == _bits(lam[k])
        assert _bits(choi.spectrum.eigenvectors[:, 0]) == _bits(tau[k])
        v = nmwit.classify(choi)
        assert _bits([v.minimum_eigenvalue, v.trace_norm_excess]) == _bits(
            [rows[k].minimum_eigenvalue, rows[k].trace_norm_excess])
        assert (v.markovian, v.tolerance) == (rows[k].markovian, rows[k].tolerance)
        try:
            W = nmwit.build_witness(m)
        except DegenerateMinimum:
            continue
        witnessed.append((t, W, nmwit.evaluate(W, choi)))
    if not witnessed:
        return
    # The witness stage over the instants that have a witness, as the CLI's witness command runs it.
    kept = checked_grid([t for t, _, _ in witnessed])
    c, matrices, omega, nu, tau = grid_pass(gen, kept, eps, witness_stage)
    W_grid = witness_matrices(gen, c, eps, nu, tau)
    values = witness_values(nu, tau, matrices)
    for k, (_, W, value) in enumerate(witnessed):
        assert same_bits_as(W.matrix, W_grid[k])
        assert _bits(W.tau) == _bits(tau[k])
        assert _bits([W.nu, W.omega, value]) == _bits([nu[k], omega[k], values[k]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gen=sweep_generators(), eps=st.floats(0.001, 0.05))
def test_the_superoperators_are_compiled_once_per_generator_and_read_only(gen, eps):
    twin = nmwit.LindbladGenerator(dim=2, terms=gen.terms)
    assert "superoperators" not in vars(gen)  # not compiled before its first use
    S = gen.superoperators
    assert S is gen.superoperators
    assert not S.flags.writeable and (S.base is None or not S.base.flags.writeable)
    assert same_bits_as(S, _superoperators(gen))  # a fresh computation has the same bits
    # A generator built from the same terms compiles its own.
    assert twin.superoperators is not S and not np.shares_memory(twin.superoperators, S)
    assert same_bits_as(twin.superoperators, S)
    # The jumps are kept read-only, with the bits they were given.
    for (_, kept), (_, given_jump) in zip(gen.terms, twin.terms):
        assert not kept.flags.writeable and _bits(kept) == _bits(given_jump)
    # A witness built before and after the superoperators are kept has the same bits.
    fresh = nmwit.LindbladGenerator(dim=2, terms=gen.terms)
    try:
        first = nmwit.build_witness(nmwit.small_time_map(fresh, 1.0, eps))
    except DegenerateMinimum:
        return
    again = nmwit.build_witness(nmwit.small_time_map(fresh, 1.0, eps))
    assert "superoperators" in vars(fresh)
    assert _bits(first.matrix) == _bits(again.matrix)


_COMPLEX_JUMP = np.array([[0.2, 0.3 - 0.6j], [0.3 + 0.6j, -0.1]])


@pytest.mark.parametrize("terms", [
    ((1e308, nmwit.SIGMA_X),),
    ((-1e308, _COMPLEX_JUMP),),
    ((1.0, nmwit.SIGMA_Z), (1e308, nmwit.SIGMA_Y), (-1e308, _COMPLEX_JUMP)),
], ids=["x-pattern", "complex", "three-terms"])
def test_an_overflowing_choi_stack_raises_typed_errors_without_warnings(terms):
    # epsilon * c * B_a overflows, so the Choi matrix is not finite: its checks, which run
    # under np.errstate, report it as a typed error, as extend_and_apply reports its image.
    gen = nmwit.LindbladGenerator(dim=2, terms=tuple((nmwit.constant(c), L) for c, L in terms))
    X = np.diag([1.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for build, error in ((nmwit.choi_of, NonHermitianInput), (nmwit.build_witness, NonHermitianInput),
                             (lambda m: nmwit.extend_and_apply(m, X), ParameterOutOfRange)):
            with pytest.raises(error):
                build(nmwit.small_time_map(gen, 1.0, 10.0))
