"""Dense complex-matrix foundation.

Construction helpers (Paulis, Bell vectors, projectors), Hermitian
eigendecomposition, Kronecker products, partial trace and trace norm.
All functions take and return plain numpy arrays; arrays produced here are
marked read-only, and every operation is a pure function, so values can be
shared freely across threads.

Intended scale is small dense matrices (qubit and two-qubit operators, up to
dimension ~16); there is no sparse or arbitrary-precision path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

#: Default tolerances for the Hermiticity / positivity / trace predicates.
#: Overridable per call.
TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9


def frozen(values) -> np.ndarray:
    """Complex read-only array from array-like input."""
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


SIGMA_X = frozen([[0, 1], [1, 0]])
SIGMA_Y = frozen([[0, -1j], [1j, 0]])
SIGMA_Z = frozen([[1, 0], [0, -1]])

#: Lookup used by the JSON generator format; keys are lower-case.
PAULI_BY_NAME = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z}


def dag(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(M).conj().T


def is_hermitian(M: np.ndarray, tol: float = TOL_HERM) -> bool:
    M = np.asarray(M)
    return M.ndim == 2 and M.shape[0] == M.shape[1] and np.abs(M - dag(M)).max() < tol


def is_density(
    M: np.ndarray,
    tol_herm: float = TOL_HERM,
    tol_psd: float = TOL_PSD,
    tol_trace: float = TOL_TRACE,
) -> bool:
    """Hermitian, positive semidefinite (within tol) and unit trace."""
    M = np.asarray(M)
    if not is_hermitian(M, tol_herm):
        return False
    if abs(np.trace(M).real - 1.0) >= tol_trace:
        return False
    return np.linalg.eigvalsh(M)[0] >= -tol_psd


def max_entangled(d: int) -> np.ndarray:
    """Ket sum_i |ii> / sqrt(d) on a d*d bipartite space."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    v.setflags(write=False)
    return v


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| (no normalization applied)."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


# Two-qubit Bell kets in the computational basis.
BELL_PHI_PLUS = frozen(np.array([1, 0, 0, 1]) / np.sqrt(2))
BELL_PSI_MINUS = frozen(np.array([0, 1, -1, 0]) / np.sqrt(2))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; column k of eigenvectors is the
    orthonormal eigenvector for eigenvalues[k]. Within a degenerate subspace
    the basis choice is arbitrary and callers must not rely on it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum_k lambda_k |v_k><v_k|."""
        return (self.eigenvectors * self.eigenvalues) @ dag(self.eigenvectors)


def eig_hermitian(M: np.ndarray, tol_herm: float = TOL_HERM) -> Spectrum:
    """Ascending eigendecomposition of a Hermitian matrix.

    Raises NonHermitianInput when the input fails the Hermiticity check at
    tol_herm.
    """
    M = np.asarray(M, dtype=complex)
    if not is_hermitian(M, tol_herm):
        raise NonHermitianInput(
            f"matrix is not Hermitian within {tol_herm:g} "
            f"(max deviation {np.abs(M - dag(M)).max():.3g})"
        )
    vals, vecs = np.linalg.eigh(M)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def partial_trace(X: np.ndarray, subsystem: str, dims: tuple[int, int]) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    subsystem names the factor that is traced OUT ("first" or "second");
    dims = (d1, d2) are the factor dimensions with d1*d2 = dim(X).
    """
    X = np.asarray(X, dtype=complex)
    d1, d2 = dims
    if X.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatch(f"expected shape {(d1 * d2, d1 * d2)}, got {X.shape}")
    T = X.reshape(d1, d2, d1, d2)
    if subsystem == "first":
        return np.einsum("ijik->jk", T)
    if subsystem == "second":
        return np.einsum("ijkj->ik", T)
    raise ValueError(f"subsystem must be 'first' or 'second', got {subsystem!r}")


def trace_norm(X: np.ndarray) -> float:
    """Sum of absolute eigenvalues for Hermitian X (singular values otherwise)."""
    X = np.asarray(X, dtype=complex)
    if is_hermitian(X):
        return float(np.abs(np.linalg.eigvalsh(X)).sum())
    return float(np.linalg.svd(X, compute_uv=False).sum())
