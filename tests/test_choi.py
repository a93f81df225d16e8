from pathlib import Path

import numpy as np
import pytest

import nmwit
from nmwit import kernel
from nmwit.choi import checked_grid, divisibility_grid, grid_pass
from nmwit.cli import main
from nmwit.errors import EmptyGrid

from oracles import BELL_PHI_PLUS, bell_choi, bell_weights, rand_unitary, tensor

EPS = 0.01


def _map(gen, t=0.0, eps=EPS):
    return nmwit.small_time_map(gen, t, eps)


def test_identity_channel_choi():
    c = nmwit.choi_of(_map(nmwit.depolarizer(0.0, 0.0, 0.0)))
    assert np.abs(c.matrix - nmwit.projector(BELL_PHI_PLUS)).max() < 1e-15
    assert np.allclose(c.spectrum.eigenvalues, [0, 0, 0, 1], atol=1e-12)


def test_choi_state_is_built_once_per_map():
    gen = nmwit.eternal_depolarizer()
    m = _map(gen, t=1.0)
    c = nmwit.choi_of(m)
    assert nmwit.choi_of(m) is c
    assert not c.matrix.flags.writeable
    # The kept state is no part of the map's value.
    fresh = _map(gen, t=1.0)
    assert fresh == m and repr(fresh) == repr(m)
    assert nmwit.choi_of(fresh) is not c
    assert nmwit.choi_of(fresh).matrix.tobytes() == c.matrix.tobytes()


def test_each_choi_state_is_diagonalized_once(solves, capsys):
    # The verdict, trace-norm excess included, the SPA weights and the witness
    # eigenvector are read from the spectrum that checked_spectrum keeps: one
    # stacked eigensolve per grid, one per snapshot, with eigenvectors only
    # where they are read (the witness, and a snapshot's kept state). The
    # eternal depolarizer's Choi matrices are X-pattern, so that solve is the closed form.
    gen = nmwit.eternal_depolarizer()
    grid = np.linspace(0.1, 2.0, 40)
    m, n = _map(gen, t=1.0), _map(gen, t=1.0)
    grid_flags = ["--t-start", "0.1", "--t-stop", "2", "--t-steps", "40"]
    runs = (
        (40, False, lambda: nmwit.scan(gen, grid, EPS)),
        (40, True, lambda: main(["witness", *grid_flags])),
        (40, False, lambda: main(["spa", *grid_flags])),
        (1, True, lambda: nmwit.classify(nmwit.choi_of(m))),
        (1, True, lambda: (nmwit.choi_of(n), nmwit.build_witness(n))),
    )
    for rows, vectors, run in runs:
        solves.clear()
        run()
        assert solves == [("x", rows, vectors)]
    # The witness and spa runs' echoes, columns and rows.
    assert len(capsys.readouterr().out.splitlines()) == 2 * (9 + 1 + 40)


_GRIDS = {  # generator, epsilon, 500 instants
    "custom": (nmwit.load_generator(Path(__file__).parent / "golden" / "custom_generator.json"),
               0.02, np.linspace(0.01, 4.9, 500)),
    "eternal": (nmwit.eternal_depolarizer(), EPS, np.linspace(0.01, 4.9, 500)),
}


@pytest.mark.parametrize("name", list(_GRIDS))
def test_trace_norm_excess_is_the_trace_norm_of_the_choi_state_less_one(name):
    # DivisibilityVerdict documents trace_norm_excess as ||C||_1 - 1: trace_norm solves C
    # under kernel's rule with the one LAPACK routine, so the two agree bit for bit.
    gen, eps, grid = _GRIDS[name]
    for t in grid:
        choi = nmwit.choi_of(nmwit.small_time_map(gen, t, eps))
        assert nmwit.trace_norm(choi.matrix) - 1.0 == nmwit.classify(choi).trace_norm_excess


@pytest.mark.parametrize("name", list(_GRIDS))
def test_eigvalsh_gives_the_kept_choi_spectrum_bit_for_bit(name):
    gen, eps, grid = _GRIDS[name]
    for t in grid:
        choi = nmwit.choi_of(nmwit.small_time_map(gen, t, eps))
        assert kernel.eigvalsh(choi.matrix).tobytes() == choi.spectrum.eigenvalues.tobytes()


def test_negative_dephasing_choi_spectrum_and_eigenvector():
    c = nmwit.choi_of(_map(nmwit.dephasing(-1.0)))
    assert np.abs(c.spectrum.eigenvalues - [-0.01, 0.0, 0.0, 1.01]).max() < 1e-12
    target = np.array([-1, 0, 0, 1]) / np.sqrt(2)
    overlap = abs(np.vdot(c.spectrum.eigenvectors[:, 0], target))
    assert overlap > 1 - 1e-12


def test_eternal_depolarizer_choi_at_t1():
    c = nmwit.choi_of(_map(nmwit.eternal_depolarizer(), t=1.0))
    expected = [-0.007615941559557649, 0.01, 0.01, 0.9876159415595577]
    assert np.abs(c.spectrum.eigenvalues - expected).max() < 1e-12
    gam = (1.0, 1.0, -np.tanh(1.0))
    assert np.abs(c.matrix - bell_choi(gam, EPS)).max() < 1e-14


def test_classify_identity_channel():
    v = nmwit.classify(nmwit.choi_of(_map(nmwit.depolarizer(0.0, 0.0, 0.0))))
    assert v.markovian
    assert abs(v.trace_norm_excess) < 1e-12


def test_classify_negative_dephasing():
    v = nmwit.classify(nmwit.choi_of(_map(nmwit.dephasing(-1.0))))
    assert not v.markovian
    assert v.minimum_eigenvalue == pytest.approx(-0.01, abs=1e-12)
    assert v.trace_norm_excess == pytest.approx(0.02, abs=1e-12)


def test_classify_positive_dephasing():
    v = nmwit.classify(nmwit.choi_of(_map(nmwit.dephasing(1.0))))
    assert v.markovian
    assert v.minimum_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_scan_eternal_depolarizer_is_indivisible_everywhere():
    t, lam, _, markovian = nmwit.scan(nmwit.eternal_depolarizer(), [0.5, 1.0, 2.0], EPS)
    assert t.tolist() == [0.5, 1.0, 2.0]
    assert not markovian.any()
    # lambda_min at each instant is -eps*tanh(t)
    assert lam == pytest.approx(-EPS * np.tanh(t), abs=1e-12)


def test_scan_constant_depolarizer_is_divisible_everywhere():
    _, _, _, markovian = nmwit.scan(nmwit.depolarizer(1.0, 1.0, 1.0), [0.1, 1.0, 5.0], EPS)
    assert markovian.all()


def test_scan_eternal_boundary_instant():
    _, _, _, markovian = nmwit.scan(nmwit.eternal_depolarizer(), [0.0], EPS)
    assert markovian.tolist() == [True]  # tanh(0) = 0


_SCAN_GRIDS = {**_GRIDS, "dephasing": (  # divisible until the coefficient turns negative at t=1.5
    nmwit.dephasing(nmwit.tabulated([0.0, 3.0], [1.0, -1.0])), EPS, np.linspace(0.0, 3.0, 500))}


@pytest.mark.parametrize("name", ["eternal", "dephasing", "custom"])
def test_scan_columns_are_the_grid_pass_columns_and_a_classify_loop_bit_for_bit(name):
    # At this tolerance some instants of each grid are markovian only by the tolerance.
    (gen, eps, grid), tolerance = _SCAN_GRIDS[name], 1e-3
    columns = nmwit.scan(gen, grid, eps, tolerance)
    assert [(c.dtype, c.shape) for c in columns] == [(float, (500,))] * 3 + [(bool, (500,))]
    assert columns[0].tobytes() == np.asarray(grid, dtype=float).tobytes()
    _, lam, _, markovian = columns
    assert (markovian & (lam < 0)).any() and not markovian.all()
    grid_columns = grid_pass(gen, checked_grid(grid), eps, vectors=False,
                             stage=lambda times, c, matrices, lam, tau: divisibility_grid(lam, tolerance))
    loop = [nmwit.classify(nmwit.choi_of(nmwit.small_time_map(gen, t, eps)), tolerance) for t in grid]
    loop_columns = [np.array([v.minimum_eigenvalue for v in loop]),
                    np.array([v.trace_norm_excess for v in loop]), np.array([v.markovian for v in loop])]
    for column, from_pass, from_loop in zip(columns[1:], grid_columns, loop_columns):
        assert column.tobytes() == from_pass.tobytes() == from_loop.tobytes()


def test_scan_rejects_bad_grids():
    gen = nmwit.dephasing(1.0)
    with pytest.raises(EmptyGrid):
        nmwit.scan(gen, [], EPS)
    with pytest.raises(ValueError):
        nmwit.scan(gen, [1.0, 0.5], EPS)


def test_nonnegative_coefficients_imply_markovian():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = rng.uniform(0.0, 2.0, size=3)
        t, eps = rng.uniform(0.0, 3.0), rng.uniform(0.001, 0.05)
        v = nmwit.classify(nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(*g), t, eps)))
        assert v.markovian
        assert v.trace_norm_excess <= 2 * 1e-9  # classify's default tolerance


def test_choi_eigenvalues_match_bell_closed_form():
    rng = np.random.default_rng(32)
    for _ in range(25):
        g = tuple(rng.uniform(-1.0, 1.0, size=3))
        eps = rng.uniform(0.001, 0.05)
        c = nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(*g), 0.0, eps))
        assert np.abs(c.spectrum.eigenvalues - np.sort(bell_weights(g, eps))).max() < 1e-10


def test_trace_norm_excess_equals_twice_negative_weight():
    rng = np.random.default_rng(33)
    for _ in range(25):
        g = tuple(rng.uniform(-1.0, 1.0, size=3))
        c = nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(*g), 0.0, EPS))
        v = nmwit.classify(c)
        neg = c.spectrum.eigenvalues[c.spectrum.eigenvalues < 0].sum()
        assert v.trace_norm_excess == pytest.approx(2 * abs(neg), abs=1e-10)


def test_convex_mixtures_of_divisible_snapshots_stay_divisible():
    rng = np.random.default_rng(34)
    t, eps = 0.7, EPS
    for _ in range(10):
        c1 = nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(*rng.uniform(0, 1, 3)), t, eps))
        c2 = nmwit.choi_of(nmwit.small_time_map(nmwit.depolarizer(*rng.uniform(0, 1, 3)), t, eps))
        for w in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = nmwit.choi_state(w * c1.matrix + (1 - w) * c2.matrix)
            assert nmwit.classify(mix).markovian


def test_verdict_is_invariant_under_local_unitary_input():
    # Any maximally entangled input (U (x) I)|phi+> yields an isospectral Choi.
    rng = np.random.default_rng(35)
    m = _map(nmwit.eternal_depolarizer(), t=1.3)
    c = nmwit.choi_of(m)
    for _ in range(5):
        U4 = tensor(rand_unitary(rng, 2), np.eye(2))
        rotated = U4 @ nmwit.projector(BELL_PHI_PLUS) @ U4.conj().T
        alt = nmwit.extend_and_apply(m, rotated)
        assert np.abs(np.linalg.eigvalsh(alt) - c.spectrum.eigenvalues).max() < 1e-10


def test_scan_fails_with_the_first_failing_instant_in_grid_order():
    # A whole grid is one stacked pass, filled one term's column at a time, but it must
    # fail as a loop over the instants fails: the second term's table ends at t=2.5, so
    # t=2.6 wins over the first term's t=3.5, and a trace failure at t=1 wins over both.
    table_to_3 = nmwit.tabulated([0.0, 3.0], [1.0, 1.0])
    table_to_2_5 = nmwit.tabulated([0.0, 2.5], [1.0, 1.0])
    terms = ((table_to_3, nmwit.SIGMA_X), (table_to_2_5, nmwit.SIGMA_Z))
    gen = nmwit.LindbladGenerator(dim=2, terms=terms)
    with pytest.raises(nmwit.ParameterOutOfRange, match=r"^t=2\.6 outside tabulated domain \[0, 2\.5\]$"):
        nmwit.scan(gen, [1.0, 2.6, 3.5], EPS)
    huge_at_1 = nmwit.tabulated([0.0, 0.9, 1.0, 1.1, 4.0], [1.0, 1.0, 1e300, 1.0, 1.0])
    gen = nmwit.LindbladGenerator(dim=2, terms=((huge_at_1, nmwit.SIGMA_Y), *gen.terms))
    with pytest.raises(ValueError, match="Choi matrix trace"):
        nmwit.scan(gen, [1.0, 2.6, 3.5], EPS)
    with pytest.raises(nmwit.ParameterOutOfRange, match="t=inf"):
        nmwit.scan(gen, [0.5, float("inf")], EPS)


@pytest.mark.parametrize("matrix, trace", [(np.zeros((4, 4)), "0"), (np.eye(4) / 3, "1.33333")])
def test_trace_error_prints_the_trace_as_a_plain_number(matrix, trace):
    with pytest.raises(ValueError, match=rf"^Choi matrix trace {trace} is not 1$"):
        nmwit.choi_state(matrix)
