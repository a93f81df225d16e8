from unittest import mock

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
    tensor,
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


@st.composite
def hermitian_stacks(draw):
    """(M, real): a (n, 4, 4) or (2, n, 4, 4) stack of Hermitian matrices, and which are exactly real."""
    shape = (*draw(st.sampled_from([(), (2,)])), draw(st.integers(1, 5)))
    size = int(np.prod(shape))
    real = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(*shape, 4, 4)) + 1j * rng.normal(size=(*shape, 4, 4))
    A[real] = A[real].real
    return (A + A.conj().swapaxes(-1, -2)) / 2, real


def _solved(name, run):
    """(run(), the matrices np.linalg.<name> received in real arithmetic, the number of calls)."""
    calls, solve = [], getattr(np.linalg, name)
    with mock.patch.object(np.linalg, name, lambda A: calls.append(A) or solve(A)):
        result = run()
    real = [A.reshape(-1, *A.shape[-2:]) for A in calls if A.dtype.kind == "f"]
    return result, np.concatenate(real) if real else np.empty((0, 4, 4)), len(calls)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(stack=hermitian_stacks())
def test_each_matrix_of_a_stack_is_solved_alone_in_its_own_arithmetic(stack):
    # The rule is per matrix: exactly the real matrices reach LAPACK as real,
    # so each matrix gets the bits of its own one-matrix solve in any stack,
    # and a mixed stack takes one call more than a stack of one kind.
    M, real = stack
    flat, flat_real = M.reshape(-1, 4, 4), real.ravel()
    calls = 1 + (real.any() and not real.all())
    spectrum, solved_real, n = _solved("eigh", lambda: kernel.eigh_checked(flat))
    assert np.array_equal(solved_real, flat[flat_real]) and n == calls
    values, solved_real, n = _solved("eigvalsh", lambda: kernel.eigvalsh(M))
    assert np.array_equal(solved_real, M[real]) and n == calls
    assert spectrum.eigenvectors.dtype == complex and values.shape == M.shape[:-1]
    assert not spectrum.eigenvalues.flags.writeable and not spectrum.eigenvectors.flags.writeable
    values = values.reshape(-1, 4)
    for k, row in enumerate(flat):
        vals, vecs = np.linalg.eigh(row.real if flat_real[k] else row)
        one = kernel.eigh_checked(row[None])
        assert spectrum.eigenvalues[k].tobytes() == vals.tobytes() == one.eigenvalues.tobytes()
        assert (spectrum.eigenvectors[k].tobytes() == vecs.astype(complex).tobytes()
                == one.eigenvectors.tobytes())
        assert (values[k].tobytes() == np.linalg.eigvalsh(row.real if flat_real[k] else row).tobytes()
                == kernel.eigvalsh(row).tobytes())


@pytest.mark.parametrize("matrix, kind", [(nmwit.SIGMA_X, "f"), (nmwit.SIGMA_Y, "c")])
def test_trace_norm_solves_a_hermitian_matrix_under_the_rule(matrix, kind, monkeypatch):
    kinds, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: kinds.append(A.dtype.kind) or eigvalsh(A))
    assert nmwit.trace_norm(matrix) == 2.0
    assert kinds == [kind]
