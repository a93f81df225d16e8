import numpy as np
import pytest

import nmwit
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
