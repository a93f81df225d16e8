import ast
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmwit
from nmwit import kernel
from nmwit.errors import DimensionMismatch, NonHermitianInput
from nmwit.kernel import BELL_PSI_MINUS, dag

from oracles import (
    BELL_PHI_PLUS,
    bell_choi,
    is_density,
    jacobi_eigvalsh,
    partial_trace,
    rand_density,
    rand_hermitian,
    reconstruct,
    same_bits_as,
    tensor,
    x_solve_by_argsort,
)


def test_pauli_z_spectrum():
    spec = nmwit.eig_hermitian(nmwit.SIGMA_Z)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_scaled_identity_spectrum():
    spec = nmwit.eig_hermitian(np.eye(4) / 4)
    assert np.allclose(spec.eigenvalues, [0.25, 0.25, 0.25, 0.25])


def test_random_hermitian_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        H = rand_hermitian(rng, 4)
        spec = nmwit.eig_hermitian(H)
        assert np.abs(spec.eigenvalues - jacobi_eigvalsh(H)).max() < 1e-9


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        nmwit.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_spectrum_reconstruction_and_orthonormality():
    rng = np.random.default_rng(12)
    for n in (2, 4):
        for _ in range(10):
            H = rand_hermitian(rng, n)
            spec = nmwit.eig_hermitian(H)
            assert np.abs(reconstruct(spec) - H).max() < 1e-9
            gram = dag(spec.eigenvectors) @ spec.eigenvectors
            assert np.abs(gram - np.eye(n)).max() < 1e-9


def test_tensor_identity_with_sigma_z():
    out = tensor(np.eye(2), nmwit.SIGMA_Z)
    assert np.allclose(out, np.diag([1, -1, 1, -1]))


def test_tensor_bell_state_symmetry():
    XX = tensor(nmwit.SIGMA_X, nmwit.SIGMA_X)
    assert np.abs(XX @ BELL_PHI_PLUS - BELL_PHI_PLUS).max() < 1e-15


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = np.trace(tensor(A, B))
        assert abs(lhs - np.trace(A) * np.trace(B)) < 1e-12


def test_tensor_mixed_product_rule():
    rng = np.random.default_rng(14)
    A, B, C, D = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
    lhs = tensor(A, B) @ tensor(C, D)
    rhs = tensor(A @ C, B @ D)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_partial_trace_entangled_marginal():
    rho = nmwit.projector(BELL_PSI_MINUS)
    out = partial_trace(rho, "second", (2, 2))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(15)
    A = rand_density(rng, 2)
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = partial_trace(tensor(A, B), "second", (2, 2))
    assert np.abs(out - A * np.trace(B)).max() < 1e-12
    out = partial_trace(tensor(A, B), "first", (2, 2))
    assert np.abs(out - B * np.trace(A)).max() < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(16)
    for _ in range(10):
        X = rand_density(rng, 4)
        for sub in ("first", "second"):
            out = partial_trace(X, sub, (2, 2))
            assert abs(np.trace(out) - np.trace(X)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(4), "first", (2, 3))


def test_trace_norm_of_density_matrix_is_one():
    rng = np.random.default_rng(17)
    for _ in range(5):
        assert abs(nmwit.trace_norm(rand_density(rng, 4)) - 1.0) < 1e-12


def test_trace_norm_sigma_z():
    assert abs(nmwit.trace_norm(nmwit.SIGMA_Z) - 2.0) < 1e-15


def test_trace_norm_negative_dephasing_choi():
    # Bell-basis eigenvalues are {1 + eps|G|, -eps|G|, 0, 0}.
    for eps in (0.005, 0.01, 0.05):
        C = bell_choi((0.0, 0.0, -1.0), eps)
        assert abs(nmwit.trace_norm(C) - (1.0 + 2.0 * eps)) < 1e-12


def test_trace_norm_bounds_trace():
    rng = np.random.default_rng(18)
    for _ in range(20):
        H = rand_hermitian(rng, 4)
        assert nmwit.trace_norm(H) >= abs(np.trace(H).real) - 1e-12
    # equality exactly on the PSD cone
    P = rand_density(rng, 4)
    assert abs(nmwit.trace_norm(P) - np.trace(P).real) < 1e-12
    N = np.diag([-1.0, 2.0]).astype(complex)
    assert nmwit.trace_norm(N) > abs(np.trace(N).real) + 1.0


def test_hermiticity_and_density_predicates():
    assert nmwit.is_hermitian(nmwit.SIGMA_Y)
    assert not nmwit.is_hermitian(np.array([[0, 1], [0, 0]]))
    assert is_density(np.eye(2) / 2)
    assert not is_density(np.eye(2))  # trace 2
    assert not is_density(nmwit.SIGMA_Z)  # negative eigenvalue


# Which entries of a 4x4 matrix an X-pattern matrix may have nonzero: the blocks (0, 3) and (1, 2).
_X = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


@st.composite
def hermitian_stacks(draw):
    """(M, kind): a (n, 4, 4) or (2, n, 4, 4) stack of Hermitian matrices, and the kind of each
    matrix: 0 complex, 1 exactly real, 2 exactly real and X-pattern."""
    shape = (*draw(st.sampled_from([(), (2,)])), draw(st.integers(1, 9)))
    size = int(np.prod(shape))
    kind = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))).reshape(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(*shape, 4, 4)) + 1j * rng.normal(size=(*shape, 4, 4))
    A[kind > 0] = A[kind > 0].real
    A[kind == 2] *= _X
    return (A + A.conj().swapaxes(-1, -2)) / 2, kind


def _solved(name, run):
    """(run(), the matrices np.linalg.<name> received in complex and in real arithmetic, the
    number of its calls, the number of closed-form calls)."""
    calls, closed, solve, x_solve = [], [], getattr(np.linalg, name), kernel._x_solve
    with mock.patch.object(np.linalg, name, lambda A: calls.append(A) or solve(A)), \
            mock.patch.object(kernel, "_x_solve", lambda G, v: closed.append(G) or x_solve(G, v)):
        result = run()
    received = [np.concatenate([A.reshape(-1, 4, 4) for A in calls if A.dtype.kind == k] or
                               [np.empty((0, 4, 4))]) for k in "cf"]
    return result, *received, len(calls), len(closed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stack=hermitian_stacks())
def test_each_matrix_of_a_stack_is_solved_alone_in_its_own_arithmetic(stack):
    # The rule is per matrix: exactly the complex matrices reach LAPACK as complex and the
    # real ones outside the X pattern as real, and no X-pattern matrix reaches it. So each
    # matrix gets the bits of its own one-matrix solve in any stack, with one call per kind
    # present.
    M, kind = stack
    flat, flat_kind = M.reshape(-1, 4, 4), kind.ravel()
    lapack_calls, x_calls = len({0, 1} & set(flat_kind.tolist())), int((flat_kind == 2).any())
    spectrum, *eigh_received = _solved("eigh", lambda: kernel.eigh_checked(flat))
    # LAPACK is always eigh, whose vectors are dropped where none are asked for, so every
    # matrix of every kind keeps its eigenvalue bits with vectors or without.
    values, *eigvalsh_received = _solved("eigh", lambda: kernel.eigvalsh(M))
    bare, *bare_received = _solved("eigh", lambda: kernel.eigh_checked(flat, vectors=False))
    assert bare.eigenvectors is None and not bare.eigenvalues.flags.writeable
    assert bare.eigenvalues.tobytes() == spectrum.eigenvalues.tobytes()
    assert values.shape == M.shape[:-1] and values.tobytes() == spectrum.eigenvalues.tobytes()
    for complex_rows, real_rows, n, n_x in eigh_received, eigvalsh_received, bare_received:
        assert np.array_equal(complex_rows, flat[flat_kind == 0])
        assert np.array_equal(real_rows, flat[flat_kind == 1].real)
        assert (n, n_x) == (lapack_calls, x_calls)
    # Eigenvectors take the stack's dtype: these stacks are complex, whatever the kind of a
    # matrix; a real matrix arriving real gets real vectors, with the same bits.
    assert spectrum.eigenvectors.dtype == flat.dtype == complex
    assert not spectrum.eigenvalues.flags.writeable and not spectrum.eigenvectors.flags.writeable
    if flat_kind.all():
        real = kernel.eigh_checked(flat.real)
        assert real.eigenvectors.dtype == float
        assert same_bits_as(real.eigenvectors, spectrum.eigenvectors)
    for k, row in enumerate(flat):
        one = kernel.eigh_checked(row[None])
        if flat_kind[k]:
            real = kernel.eigh_checked(row.real[None])
            assert real.eigenvectors.dtype == float and same_bits_as(real.eigenvectors, one.eigenvectors)
        assert spectrum.eigenvalues[k].tobytes() == one.eigenvalues.tobytes()
        assert spectrum.eigenvectors[k].tobytes() == one.eigenvectors.tobytes()
        assert spectrum.eigenvalues[k].tobytes() == kernel.eigvalsh(row).tobytes()
        if flat_kind[k] != 2:
            lapack = row.real if flat_kind[k] else row
            vals, vecs = np.linalg.eigh(lapack)
            assert one.eigenvalues[0].tobytes() == vals.tobytes()
            assert one.eigenvectors[0].tobytes() == vecs.astype(complex).tobytes()


@pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values-only"])
@pytest.mark.parametrize("index", [0, None], ids=["0", "None"])
def test_a_spectrum_indexes_its_eigenvectors_only_when_it_has_them(index, vectors):
    # A stack of two: [0] selects the first spectrum, [None] adds an axis; a spectrum
    # asked for without vectors keeps eigenvectors None.
    M = np.stack([np.diag([2.0, 1.0]), nmwit.SIGMA_Y])
    spectrum = kernel.eigh_checked(M, vectors)
    part = spectrum[index]
    assert part.eigenvalues.tobytes() == spectrum.eigenvalues[index].tobytes()
    if vectors:
        assert part.eigenvectors.tobytes() == spectrum.eigenvectors[index].tobytes()
    else:
        assert part.eigenvectors is None


_SPECIAL = st.sampled_from([0.0, 0.5, -0.5, 1.0, -0.25])
_ENTRY = st.one_of(_SPECIAL, st.floats(2.0**-20, 1.0), st.floats(-1.0, -(2.0**-20)))


@st.composite
def x_blocks(draw):
    """(a, b, c) of a symmetric 2x2 block: any, zero, diagonal (b = 0) or with a = c."""
    a, b, c = draw(_ENTRY), draw(_ENTRY), draw(_ENTRY)
    form = draw(st.sampled_from(["any", "zero", "diagonal", "a = c"]))
    return {"any": (a, b, c), "zero": (0.0, 0.0, 0.0), "diagonal": (a, 0.0, c), "a = c": (a, b, a)}[form]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(first=x_blocks(), second=st.one_of(x_blocks(), st.none()),
       scale=st.sampled_from([1.0, 2.0**1000, 2.0**-1000, 1e300, 1e-300]))
def test_closed_form_matches_40_digit_eigenvalues_of_each_block(first, second, scale):
    # An X-pattern matrix with blocks (0, 3) and (1, 2); second None repeats the first block,
    # an exact tie across the blocks. Each eigenvalue, the smaller one of each block too,
    # is within a few ulp of its own magnitude; the eigenvectors are orthonormal and their
    # residual is within a few ulp of the largest entry; no result is -0.0.
    blocks = [first, first if second is None else second]
    M = np.zeros((4, 4))
    for (i, j), (a, b, c) in zip([(0, 3), (1, 2)], blocks):
        M[i, i], M[i, j], M[j, i], M[j, j] = a * scale, b * scale, b * scale, c * scale
    spectrum = kernel.eigh_checked(M[None])[0]
    values, V = spectrum.eigenvalues, spectrum.eigenvectors
    with mpmath.workdps(40):
        exact = []
        for i, j in [(0, 3), (1, 2)]:
            a, b, c = (mpmath.mpf(float(M[p, q])) for p, q in [(i, i), (i, j), (j, j)])
            sign = 1 if a + c >= 0 else -1  # big is the eigenvalue of larger magnitude
            big = (a + c) / 2 + sign * mpmath.sqrt(((a - c) / 2) ** 2 + b * b)
            exact += [big, (a * c - b * b) / big] if big else [big, big]
        exact.sort()
        for got, x in zip(values.tolist(), exact):
            assert abs(mpmath.mpf(got) - x) <= 4 * np.spacing(abs(float(x)))
    norm = np.abs(M).max()
    assert np.abs(V.conj().T @ V - np.eye(4)).max() <= 4 * np.finfo(float).eps
    assert np.abs(M @ V - V * values).max() <= 8 * np.spacing(norm)
    assert values.tobytes() == kernel.eigvalsh(M).tobytes()
    for part in (values, V.real, V.imag):
        assert not (np.signbit(part) & (part == 0)).any()


_DYADIC = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 0.25, -0.75])


@st.composite
def x_stacks(draw):
    """A stack (k, 4, 4) of X-pattern matrices; in each, the block (1, 2) is drawn alone
    or from the block (0, 3) (a, b, c): equal to it, mirrored (c, b, a: the same eigenvalue
    bits, other vectors), zero, entirely below or above it, or overflowing to +-inf; or the
    two blocks are diagonal with dyadic entries and share one, so that their lo or hi tie."""
    k = draw(st.integers(1, 6))
    M = np.zeros((k, 4, 4))
    for m in M:
        first, scale = draw(x_blocks()), draw(st.sampled_from([1.0, 2.0**1000, 2.0**-1000, 1e300]))
        a, b, c = first
        second = draw(st.sampled_from(["any", "equal", "mirrored", "zero", "below", "above",
                                       "inf", "shared"]))
        if second == "shared":
            (x, z, w), swap = draw(st.tuples(_DYADIC, _DYADIC, _DYADIC)), draw(st.booleans())
            blocks = [(x, 0.0, z), (w, 0.0, x) if swap else (x, 0.0, w)]
        else:
            blocks = [first, {"any": draw(x_blocks()), "equal": first, "mirrored": (c, b, a),
                              "zero": (0.0, 0.0, 0.0), "below": (a - 4.0, b, c - 4.0),
                              "above": (a + 4.0, b, c + 4.0), "inf": (0.0, 0.0, 0.0)}[second]]
        for (i, j), (a, b, c) in zip([(0, 3), (1, 2)], draw(st.permutations(blocks))):
            m[i, i], m[i, j], m[j, i], m[j, j] = a * scale, b * scale, b * scale, c * scale
        if second == "inf":  # a block with eigenvalues 0 and +-2e308, which is +-inf
            sign, (i, j) = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([(0, 3), (1, 2)]))
            m[i, i], m[i, j], m[j, i], m[j, j] = sign * 1e308, 1e308, 1e308, sign * 1e308
    return M


@settings(max_examples=300, deadline=None, derandomize=True)
@given(M=x_stacks())
def test_the_closed_form_merge_orders_as_a_stable_argsort_bit_for_bit(M):
    # The merge of the blocks' pairs puts eigenvalues and eigenvectors in the order of a
    # stable argsort of [lo (0, 3), hi (0, 3), lo (1, 2), hi (1, 2)], ties and infinities
    # included, with vectors or without; so do the public entries, which solve these
    # stacks in closed form.
    for vectors in (True, False):
        values, vecs = kernel._x_solve(M, vectors)
        ref_values, ref_vecs = x_solve_by_argsort(M, vectors)
        assert values.tobytes() == ref_values.tobytes()
        assert vecs is None if not vectors else vecs.tobytes() == ref_vecs.tobytes()
        spectrum = kernel.eigh_checked(M, vectors)
        assert spectrum.eigenvalues.tobytes() == ref_values.tobytes()
        assert spectrum.eigenvectors is None if not vectors else (
            spectrum.eigenvectors.tobytes() == ref_vecs.tobytes())
    assert kernel.eigvalsh(M).tobytes() == ref_values.tobytes()


def test_an_overflowing_x_pattern_eigenvalue_is_inf_without_a_warning():
    # As LAPACK gives for the block alone; tier-1 turns a RuntimeWarning into an error.
    M = 1e308 * np.outer([1, 0, 0, 1], [1, 0, 0, 1])
    assert np.linalg.eigvalsh(M[::3, ::3]).tolist() == [0.0, np.inf]
    assert kernel.eigvalsh(M).tolist() == [0.0, 0.0, 0.0, np.inf]
    assert kernel.eigh_checked(M[None]).eigenvalues.tolist() == [[0.0, 0.0, 0.0, np.inf]]


@pytest.mark.parametrize("matrix, kind", [(nmwit.SIGMA_X, "f"), (nmwit.SIGMA_Y, "c")])
def test_trace_norm_solves_a_hermitian_matrix_under_the_rule(matrix, kind, monkeypatch):
    kinds, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: kinds.append(A.dtype.kind) or eigh(A))
    assert nmwit.trace_norm(matrix) == 2.0
    assert kinds == [kind]


# numpy.linalg's eigensolvers and SVDs, which only kernel may call.
_LINALG_SOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals"}


def _solver_references(source):
    """The references to a numpy.linalg eigensolver or SVD in Python source, as source text."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _LINALG_SOLVERS:
            yield ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            yield from (f"{node.module}.{a.name}" for a in node.names if a.name in _LINALG_SOLVERS)


def test_only_kernel_references_an_eigensolver_or_svd():
    # kernel's per-matrix rule (and its closed form for X-pattern matrices) holds for the
    # package only if every eigensolve goes through kernel, and kernel's eigenvalues are the
    # same bits with vectors or without only if its one LAPACK routine is eigh; no SVD is left.
    assert list(_solver_references(
        "import numpy as np\nfrom numpy.linalg import eigvalsh, norm\nla = np.linalg\n"
        "np.linalg.eigh(A); la.svd(A); np.linalg.norm(A); s.eigenvalues\n"
    )) == ["numpy.linalg.eigvalsh", "np.linalg.eigh", "la.svd"]
    package = Path(nmwit.__file__).parent
    found = {path.name: list(_solver_references(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("kernel.py") == ["np.linalg.eigh"]
    assert found and not any(found.values()), found


# The per-instant objects that the CLI's witness export used to build at every instant.
_PER_INSTANT = {"small_time_map", "SmallTimeMap", "WitnessOperator"}


def _per_instant_references(source):
    """The names in Python source that refer to a per-instant snapshot map or witness object."""
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else None)
        if name in _PER_INSTANT:
            yield name
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names if a.name in _PER_INSTANT)


def test_the_cli_builds_no_per_instant_map_or_witness():
    # The CLI works from the stacked pass: cmd_witness exports through witness.witness_dicts,
    # with no SmallTimeMap or WitnessOperator per instant.
    assert list(_per_instant_references(
        "from .witness import WitnessOperator\nlindblad.small_time_map(g, t, e)\n"
        "m = SmallTimeMap(g, t, e)\nwitness.witness_dicts(g, ts, e, o, n, v, W)\n"
    )) == ["WitnessOperator", "small_time_map", "SmallTimeMap"]
    source = (Path(nmwit.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert not list(_per_instant_references(source))
