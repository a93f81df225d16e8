"""Dense matrix foundation.

Construction helpers (Paulis, Bell vectors, projectors), Hermitian
eigendecomposition and the trace norm of a Hermitian matrix. All functions
take and return plain numpy arrays, and every operation is a pure function.
The module's constants, the arrays of frozen and max_entangled and those of
eigh_checked's Spectrum are marked read-only, so they can be shared freely
across threads; projector and eigvalsh return fresh writable arrays.

Every Hermitian eigensolve of the package goes through eigh_checked or
eigvalsh, under one rule decided per matrix, which knows three kinds:
- a matrix whose imaginary part is not all zero: LAPACK in complex arithmetic;
- a real matrix, of a real or a complex dtype: LAPACK in real arithmetic;
- a real 4x4 matrix that is also exactly zero outside the "X" of the blocks
  (0, 3) and (1, 2), as every Bell-diagonal matrix is: the closed form of
  those two symmetric 2x2 blocks (_x_blocks), never LAPACK. It runs over one
  contiguous (3, 2, k) array of the blocks' (a, b, c), and merges their
  ordered pairs with min/max and three masks (_x_solve), with no sort.
_solve sorts a stack's matrices by kind, solves each kind in one call and
scatters the results back, so a matrix gets the same bits alone as in any
stack. A stack of a real dtype (the float64 stacks of a Pauli-diagonal
generator, lindblad) holds real matrices only, so it is neither tested for an
imaginary part nor copied into one: its Hermiticity check in eigh_checked is
a real transpose, difference and abs. A real matrix gets the same bits
whether it arrives real or as complex with a zero imaginary part, and
eigh_checked's eigenvectors take the stack's dtype, whatever the kind of each
matrix; eig_hermitian is its one-matrix case. LAPACK is always numpy's eigh, its
vectors dropped where none are asked for (its values-only routine may differ
in the last bits); only the closed form, whose eigenvalues do not depend on
them, leaves its vectors out. So eigvalsh and eigh_checked, with vectors or
without, give every matrix the same eigenvalue bits.

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
#: Complex scalars, which float() refuses (Python's) or truncates (numpy's), and numpy orders.
COMPLEX = (complex, np.complexfloating)
_NOT_REAL = (str, bytes, *COMPLEX)  # what real_scalar refuses before float() sees it


def shown(x):
    """x for a message, as Python floats (complex where x is complex), not numpy scalars."""
    return (np.asarray(x) + 0.0).tolist()


def real_scalar(x, name: str) -> float:
    """float(x); ParameterOutOfRange if x is a complex scalar, text (which float() would parse) or
    anything else that float() refuses, an integer beyond the float range included."""
    if not isinstance(x, _NOT_REAL):
        try:
            return float(x)
        except OverflowError:  # not shown: repr() refuses an int of over 4300 digits
            raise ParameterOutOfRange(f"{name} must be within the float range") from None
        except (TypeError, ValueError):
            pass
    raise ParameterOutOfRange(f"{name} must be real, got {(shown(x) if isinstance(x, COMPLEX) else x)!r}")


def check_tolerance(tolerance: float) -> None:
    """ParameterOutOfRange unless a verdict's tolerance is real, finite and >= 0."""
    if isinstance(tolerance, COMPLEX) or not 0.0 <= real_scalar(tolerance, "tolerance") < np.inf:
        raise ParameterOutOfRange(f"tolerance must be finite and >= 0, got {shown(tolerance)!r}")


def frozen(values, dtype=complex) -> np.ndarray:
    """Read-only array, complex unless dtype says otherwise, from array-like input."""
    arr = np.array(values, dtype=dtype)
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


def is_dim(d) -> bool:
    """Whether d is a dimension: an integer >= 1, and not a bool."""
    return not isinstance(d, bool) and isinstance(d, (int, np.integer)) and d >= 1


def max_entangled(d: int) -> np.ndarray:
    """Ket sum_i |ii> / sqrt(d) on a d*d bipartite space; ParameterOutOfRange unless is_dim(d)."""
    if not is_dim(d):
        raise ParameterOutOfRange(f"dimension must be an integer >= 1, got {d!r}")
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
    eigenvectors is the orthonormal eigenvector for eigenvalues[..., k]
    (eigenvectors is None for a spectrum asked for without them).
    Within a degenerate subspace the basis choice is arbitrary and callers
    must not rely on it. Indexing selects from a stack (None adds an axis).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def __getitem__(self, index) -> Spectrum:
        vecs = self.eigenvectors
        return Spectrum(self.eigenvalues[index], None if vecs is None else vecs[index])


# Flat indices into a 4x4 matrix: (a, b, c) of its blocks [[a, b], [b, c]] (0, 3) and (1, 2),
# both blocks' a, then their b (from the lower triangle that LAPACK reads), then their c; and the
# eight entries outside that "X" pattern.
_BLOCKS = np.array([0, 5, 12, 9, 15, 10])
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for float64 (TwoProduct)


def _x_blocks(B: np.ndarray, vectors: bool):
    """(lo, hi, x, y) of the symmetric blocks [[a, b], [b, c]] whose (a, b, c) run along the
    first axis of B, elementwise.

    lo <= hi are the eigenvalues, (x, y) is hi's unit eigenvector and (-y, x) lo's (x and y
    are None unless vectors). Each block is scaled by a power of two so that its largest
    |entry| lies in [0.5, 1), which is exact. The eigenvalue of larger magnitude is rt1 of
    LAPACK's dlaev2, the other det / rt1, with det = a*c - b*b from Dekker's error-free
    TwoProduct; the eigenvector is formed as in dlaev2, from a ratio of magnitude at most 1.
    """
    e = np.frexp(np.abs(B).max(axis=0))[1]
    B = np.ldexp(B, -e)
    H = B * _SPLIT
    H = H - (H - B)
    L = B - H  # each entry split exactly into halves of 26 bits
    (X, Y), (HX, HY), (LX, LY) = ((A[:2], A[2:0:-1]) for A in (B, H, L))
    P = X * Y  # (a*c, b*b) and their rounding errors E
    E = (((HX * HY - P) + HX * LY) + LX * HY) + LX * LY
    det = (P[0] - P[1]) + (E[0] - E[1])
    a, b, c = B
    sm, df, tb = a + c, a - c, b + b
    rt = np.sqrt(df * df + tb * tb)
    rt1 = 0.5 * (sm + np.copysign(rt, sm))
    rt2 = det / (rt1 + (rt1 == 0.0))  # 0 for a zero block
    with np.errstate(over="ignore"):  # an eigenvalue beyond the float range is inf, as from LAPACK
        lo, hi = np.ldexp(np.stack((np.minimum(rt1, rt2), np.maximum(rt1, rt2))),
                          e) + 0.0  # + 0.0 turns -0.0 into 0.0
    if not vectors:
        return lo, hi, None, None
    # hi's eigenvector is (r, tb) for df >= 0 and (tb, r) otherwise, up to a factor, with
    # r = |df| + rt >= |tb| free of cancellation; r = 0 only for a multiple of the identity.
    r = np.maximum(np.abs(df) + rt, np.abs(tb))
    t = tb / (r + (r == 0.0))
    h = np.sqrt(1.0 + t * t)
    x, y = 1.0 / h, t / h
    up = df >= 0.0
    return lo, hi, np.where(up, x, y), np.where(up, y, x)


def _x_solve(R: np.ndarray, vectors: bool):
    """(eigenvalues, real eigenvectors or None) of a stack (k, 4, 4) of real X-pattern
    matrices, from the closed form of their two blocks, merged in the order of a stable
    sort of [lo (0, 3), hi (0, 3), lo (1, 2), hi (1, 2)]."""
    k = len(R)
    lo, hi, x, y = _x_blocks(R.reshape(k, 16).T[_BLOCKS].reshape(3, 2, k), vectors)
    p, q = np.maximum(*lo), np.minimum(*hi)  # the middle two, in either order
    vals = np.empty((k, 4))
    for j, (merge, u, v) in enumerate(((np.minimum, *lo), (np.minimum, p, q),
                                       (np.maximum, p, q), (np.maximum, *hi))):
        merge(u, v, out=vals[:, j])
    if not vectors:
        return vals, None
    first, last = lo[1] < lo[0], hi[0] > hi[1]  # block (1, 2)'s lo leads, block (0, 3)'s hi trails
    # The middle lo goes after the middle hi where q < p, or on a tie of hi (0, 3) and lo (1, 2).
    swap = (q < p) | ((q == p) & ~(first | last))
    x, y = x + 0.0, y + 0.0  # no -0.0
    # [block, component, k], on the coordinates (0, 3) of block (0, 3) and (1, 2) of (1, 2).
    lov, hiv = np.stack((0.0 - y, x), axis=1), np.stack((x, y), axis=1)
    V = np.zeros((4, 4, k))  # V[j, :, i] is the eigenvector of vals[i, j]
    # The leading lo, the middle lo, the middle hi and the trailing hi; the middle two then swap.
    for j, vec, block_03 in ((0, lov, ~first), (1, lov, first), (2, hiv, ~last), (3, hiv, last)):
        np.copyto(V[j, ::3], vec[0], where=block_03)
        np.copyto(V[j, 1:3], vec[1], where=~block_03)
    middle = V[1].copy()
    np.copyto(V[1], V[2], where=swap)
    np.copyto(V[2], middle, where=swap)
    return vals, V.transpose(2, 1, 0)


def _lapack(A: np.ndarray, vectors: bool):
    """(eigenvalues, eigenvectors or None) of a stack, from numpy.linalg.eigh either way."""
    vals, vecs = np.linalg.eigh(A)
    return vals, vecs if vectors else None


def _solve(M: np.ndarray, vectors: bool):
    """(eigenvalues, eigenvectors or None) of a Hermitian matrix or stack (..., n, n) under the
    module's rule: its complex, real and real X-pattern matrices, each kind solved in one call."""
    if M.dtype.kind != "c":  # a real stack: no imaginary part to test
        cplx = np.zeros(M.shape[:-2], dtype=bool)
    else:
        cplx = M.imag.any(axis=(-2, -1))
        if np.count_nonzero(cplx) == cplx.size:  # complex matrices only, which need no X test
            return _lapack(M, vectors)
    shape, n = M.shape[:-1], M.shape[-1]
    M, cplx = M.reshape(-1, n, n), cplx.reshape(-1)
    R = M.real  # M itself when M is real
    x = ~(cplx | R.reshape(-1, 16)[:, _OFF_X].any(axis=1)) if n == 4 else np.zeros_like(cplx)
    kinds = [kind for kind in ((x, _x_solve, R), (cplx, _lapack, M), (~(cplx | x), _lapack, R))
             if kind[0].any()]
    if len(kinds) == 1:  # one kind: the whole stack in one call, with no rows to gather
        (_, solve, A), = kinds
        vals, vecs = solve(A, vectors)
        vecs = vecs.astype(M.dtype, copy=False) if vectors else None
    else:  # each kind solved once, its results scattered back to its rows
        vals = np.empty(M.shape[:-1])
        vecs = np.empty(M.shape, dtype=M.dtype) if vectors else None
        for rows, solve, A in kinds:
            vals[rows], part = solve(A[rows], vectors)
            if vectors:
                vecs[rows] = part
    return vals.reshape(shape), vecs.reshape(*shape, n) if vectors else None


def eigvalsh(M: np.ndarray) -> np.ndarray:
    """Fresh ascending eigenvalues of a Hermitian matrix or stack, unchecked, under the module's rule."""
    return _solve(M, False)[0]


def eigh_checked(M: np.ndarray, vectors: bool = True) -> Spectrum:
    """Ascending eigendecompositions of a stack (k, n, n) of Hermitian matrices, real or
    complex, under the module's rule.

    Eigenvalues are real and eigenvectors of M's dtype, both read-only. Raises
    NonHermitianInput for the first matrix that fails the Hermiticity check
    at TOL_HERM. Without vectors, eigenvectors is None and the eigenvalues are
    the same bits.
    """
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise NonHermitianInput(f"expected square matrices, got shape {M.shape[1:]}")
    if not np.abs(M - M.conj().swapaxes(1, 2)).max(initial=0.0) < TOL_HERM:  # a NaN fails too
        deviation = np.abs(M - M.conj().swapaxes(1, 2)).max(axis=(1, 2))  # per matrix, to report
        k = int(np.argmin(deviation < TOL_HERM))
        raise NonHermitianInput(
            f"matrix is not Hermitian within {TOL_HERM:g} (max deviation {deviation[k]:.3g})"
        )
    vals, vecs = _solve(M, vectors)
    vals.setflags(write=False)
    if vectors:
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
    """Sum of absolute eigenvalues of a Hermitian matrix X.

    Raises DimensionMismatch unless X is a numeric matrix, ParameterOutOfRange
    unless X and its trace norm are finite, and NonHermitianInput unless X is
    square and Hermitian within TOL_HERM.
    """
    X = as_matrix(X)
    if not np.isfinite(X).all():
        raise ParameterOutOfRange("matrix entries must be finite")
    with np.errstate(over="ignore"):  # an overflowing difference fails the Hermiticity check, a sum below
        norm = float(np.abs(eigh_checked(X[None], vectors=False).eigenvalues).sum())
    if not np.isfinite(norm):
        raise ParameterOutOfRange(f"trace norm overflows, got {norm}")
    return norm
