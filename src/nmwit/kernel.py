"""Dense complex-matrix foundation.

Construction helpers (Paulis, Bell vectors, projectors), Hermitian
eigendecomposition and trace norm. All functions take and return plain numpy
arrays, and every operation is a pure function. The module's constants, the
arrays of frozen and max_entangled and those of eigh_checked's Spectrum are
marked read-only, so they can be shared freely across threads; projector and
eigvalsh return fresh writable arrays.

Every Hermitian eigensolve of the package goes through eigh_checked or
eigvalsh, under one rule decided per matrix: a matrix whose imaginary part is
all zero is solved in real arithmetic, any other in complex arithmetic. So a
matrix gets the same bits alone as in any stack; a stack of one kind takes
one LAPACK call, and a mixed stack one more, for its real matrices.
eig_hermitian is eigh_checked's one-matrix case, and eigh_checked's
eigenvectors are complex either way.

Intended scale is small dense matrices (qubit and two-qubit operators, up to
dimension ~16); there is no sparse or arbitrary-precision path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput, ParameterOutOfRange

#: Tolerances of the Hermiticity / positivity predicates.
TOL_HERM = 1e-9
TOL_PSD = 1e-9


def check_tolerance(tolerance: float) -> None:
    """ParameterOutOfRange unless a verdict's tolerance is finite and >= 0."""
    if not 0.0 <= tolerance < np.inf:
        raise ParameterOutOfRange(f"tolerance must be finite and >= 0, got {float(tolerance)!r}")


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


def as_complex(X) -> np.ndarray:
    """X as a complex array; DimensionMismatch unless it is numeric."""
    try:
        return np.asarray(X, dtype=complex)
    except (TypeError, ValueError):  # strings, ragged nesting, other objects
        raise DimensionMismatch(f"expected a numeric array, got {type(X).__name__}") from None


def as_matrix(X, shape: tuple[int, int] | None = None) -> np.ndarray:
    """X as a complex matrix; DimensionMismatch unless a nonempty numeric matrix (of shape, if given)."""
    X = as_complex(X)
    if X.ndim != 2 or not X.size or X.shape != (shape or X.shape):
        raise DimensionMismatch(f"expected shape {shape or '(n, m) with n, m >= 1'}, got {X.shape}")
    return X


def dag(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(M).conj().T


def is_hermitian(M: np.ndarray) -> bool:
    """Whether M is square and equals its conjugate transpose within TOL_HERM.

    Raises DimensionMismatch unless M is a nonempty numeric matrix.
    """
    M = as_matrix(M)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing difference is not < TOL_HERM
        return M.shape[0] == M.shape[1] and np.abs(M - dag(M)).max() < TOL_HERM


def max_entangled(d: int) -> np.ndarray:
    """Ket sum_i |ii> / sqrt(d) on a d*d bipartite space."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    v.setflags(write=False)
    return v


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| (no normalization applied); DimensionMismatch unless v is
    numeric, ParameterOutOfRange unless |v><v| is finite."""
    v = as_complex(v)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        P = np.outer(v, v.conj())
    if not np.isfinite(P).all():
        raise ParameterOutOfRange("the projector's entries must be finite")
    return P


# The singlet Bell ket in the computational basis.
BELL_PSI_MINUS = frozen(np.array([0, 1, -1, 0]) / np.sqrt(2))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    eigenvalues are real and ascending along the last axis; column k of
    eigenvectors is the orthonormal eigenvector for eigenvalues[..., k].
    Within a degenerate subspace the basis choice is arbitrary and callers
    must not rely on it. Indexing selects from a stack (None adds an axis).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __getitem__(self, index) -> Spectrum:
        return Spectrum(self.eigenvalues[index], self.eigenvectors[index])


def _solve(solve, M: np.ndarray):
    """solve(M), a tuple of arrays, for a matrix or stack (..., n, n) under the module's rule."""
    cplx = M.imag.any(axis=(-2, -1))
    k = np.count_nonzero(cplx)
    out = solve(M if k else M.real)
    if 0 < k < cplx.size:  # a mixed stack: its real matrices again, in real arithmetic
        real = ~cplx
        for whole, part in zip(out, solve(M.real[real])):
            whole[real] = part
    return out


def eigvalsh(M: np.ndarray) -> np.ndarray:
    """Fresh ascending eigenvalues of a Hermitian matrix or stack, unchecked, under the module's rule."""
    return _solve(lambda A: (np.linalg.eigvalsh(A),), M)[0]


def eigh_checked(M: np.ndarray) -> Spectrum:
    """Ascending eigendecompositions of a stack (k, n, n) of Hermitian matrices, under the module's rule.

    Eigenvalues are real and eigenvectors complex, both read-only. Raises
    NonHermitianInput for the first matrix that fails the Hermiticity check
    at TOL_HERM.
    """
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise NonHermitianInput(f"expected square matrices, got shape {M.shape[1:]}")
    deviation = np.abs(M - M.conj().swapaxes(1, 2)).max(axis=(1, 2))
    if not (deviation < TOL_HERM).all():
        k = int(np.argmin(deviation < TOL_HERM))
        raise NonHermitianInput(
            f"matrix is not Hermitian within {TOL_HERM:g} (max deviation {deviation[k]:.3g})"
        )
    vals, vecs = _solve(np.linalg.eigh, M)
    vecs = vecs.astype(complex, copy=False)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def eig_hermitian(M: np.ndarray) -> Spectrum:
    """Ascending eigendecomposition of a Hermitian matrix (eigh_checked on one matrix).

    Raises DimensionMismatch unless M is a nonempty numeric matrix, and
    NonHermitianInput when it fails the Hermiticity check at TOL_HERM.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing difference is not < TOL_HERM
        return eigh_checked(as_matrix(M)[None])[0]


def trace_norm(X: np.ndarray) -> float:
    """Sum of absolute eigenvalues for Hermitian X (singular values otherwise).

    Raises DimensionMismatch unless X is a numeric matrix, and
    ParameterOutOfRange unless X and its trace norm are finite.
    """
    X = as_matrix(X)
    if not np.isfinite(X).all():
        raise ParameterOutOfRange("matrix entries must be finite")
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        norm = float(np.abs(eigvalsh(X)).sum() if is_hermitian(X)
                     else np.linalg.svd(X, compute_uv=False).sum())
    if not np.isfinite(norm):
        raise ParameterOutOfRange(f"trace norm overflows, got {norm}")
    return norm
