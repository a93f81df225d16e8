"""Independent oracles used to pin expected values.

Nothing here shares a code path with the package: eigenvalues come from a
hand-rolled Jacobi rotation solver, generator actions from Pauli-basis
coefficient algebra, Choi matrices from explicit Bell-projector sums, and SPA
thresholds from bisection on the positivity indicator. The exceptions are
loop_threshold, the per-point Werner bisection on the package's own
detect_entanglement, which pins where the package's threshold search must
end, and the one-matrix eigensolves of reference_snapshot and of
spa_mixture's Choi state (below).

The linear-algebra helpers that only tests use (tensor, partial_trace,
is_density, reconstruct) live here too, as do the single-system map actions
(apply_generator, map_apply, family_map_apply, with family_extend applying
the last blockwise to a two-qubit operator) and the per-instant reference
pipeline that the package's stacked pass must reproduce bit for bit: the
Lindblad term loop with a Kronecker product per term and call, and one
eigensolve per matrix, which is the package's own one-matrix solve
(eig_hermitian), so that each matrix is solved under kernel's rule: in
complex or real arithmetic, or in closed form for a real X-pattern matrix.
spa_mixture builds and diagonalizes the SPA mixture explicitly, the
second eigensolve that the package reads off the Choi eigendecomposition
instead; it takes (omega, nu) from the Choi state's eigenvalues under
kernel's rule too, since a real X-pattern matrix's closed form and complex
LAPACK differ in the last bits. The witness matrices it builds agree with the
package's to rounding only: the package sums the terms of id (x) L_t through
one compiled superoperator per term.

loop_coefficients and loop_witness_values are the per-instant forms of the
package's column-wise coefficients and stacked witness values, which must
reproduce them bit for bit; loop_coefficients reads each coefficient's kind
and parameters itself (coefficient_at), not through the package's rule. same_bits_as compares a stack the package keeps
real with a complex reference bit for bit.

x_solve_by_argsort pins the order in which kernel's closed form returns the
eigenvalues and eigenvectors of real X-pattern matrices: it takes each
block's pair from the package's own kernel._x_blocks and orders the four by a
stable argsort, as the closed form did before its merge replaced the sort.
"""

from __future__ import annotations

import math

import numpy as np

import nmwit
from nmwit.errors import DimensionMismatch
from nmwit.kernel import frozen

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# Bell kets: (phi+, psi+, psi-, phi-) is the order in which I (x) sigma_i
# permutes them starting from phi+ (up to phase): I(x)X phi+ = psi+,
# I(x)Y phi+ = i psi-, I(x)Z phi+ = phi-.
PHI_P = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PHI_M = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
PSI_P = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_M = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
# phi+ read-only, as the package's own kets are.
BELL_PHI_PLUS = frozen(PHI_P)


def proj(v):
    return np.outer(v, np.conj(v))


# ---------------------------------------------------------------------------
# Jacobi eigensolver (real symmetric core + complex Hermitian embedding)

def _jacobi_real_symmetric(S, sweeps=100, tol=1e-13):
    A = np.array(S, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.abs(A - np.diag(np.diag(A))).max()
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def jacobi_eigvalsh(H):
    """Eigenvalues of a complex Hermitian matrix, ascending.

    Uses the real-symmetric embedding [[Re H, -Im H], [Im H, Re H]], whose
    spectrum is that of H with every multiplicity doubled.
    """
    H = np.asarray(H, dtype=complex)
    A, B = H.real, H.imag
    M = np.block([[A, -B], [B, A]])
    return _jacobi_real_symmetric(M)[::2]


# ---------------------------------------------------------------------------
# Pauli-coefficient route for the depolarizer-type generator

def bloch_apply_pauli_generator(gammas, rho):
    """sum_i g_i (sigma_i rho sigma_i - rho) via Bloch coefficients.

    Writing rho = (r0 I + sum_i r_i sigma_i)/2 with r_i = tr(sigma_i rho),
    conjugation by sigma_j negates the sigma_i components with i != j, so the
    generator damps each component by -2 * (sum of the other coefficients)
    and kills the identity part. No matrix conjugation is performed.
    """
    rho = np.asarray(rho, dtype=complex)
    paulis = (SX, SY, SZ)
    r = [np.trace(s @ rho) for s in paulis]
    gx, gy, gz = gammas
    damp = (gy + gz, gx + gz, gx + gy)
    out = np.zeros((2, 2), dtype=complex)
    for d, ri, s in zip(damp, r, paulis):
        out -= d * ri * s
    return out


# ---------------------------------------------------------------------------
# Bell-basis closed forms for Pauli-generator snapshots

def bell_weights(gammas, eps):
    """Choi weights on (phi+, psi+, psi-, phi-) for the first-order snapshot."""
    gx, gy, gz = gammas
    return np.array([1.0 - eps * (gx + gy + gz), eps * gx, eps * gy, eps * gz])


def bell_choi(gammas, eps):
    """Snapshot Choi matrix assembled from Bell projectors."""
    w = bell_weights(gammas, eps)
    vs = (PHI_P, PSI_P, PSI_M, PHI_M)
    return sum(wi * proj(v) for wi, v in zip(w, vs))


def bell_witness_image(gammas, eps):
    """(id (x) N)(|phi-><phi-|) from the Bell permutation table.

    Conjugating |phi-> by I(x)sigma_i gives (psi-, psi+, phi+) up to phase for
    i = (x, y, z), so the image is Bell-diagonal with the x/y weights landing
    on the opposite-parity singlet/triplet states relative to the phi+ case.
    """
    gx, gy, gz = gammas
    pairs = [
        (1.0 - eps * (gx + gy + gz), PHI_M),
        (eps * gx, PSI_M),
        (eps * gy, PSI_P),
        (eps * gz, PHI_P),
    ]
    return sum(w * proj(v) for w, v in pairs)


# ---------------------------------------------------------------------------
# SPA threshold by bisection on positivity of the mixture

def spa_onset_bisect(choi_matrix, iterations=60, psd_tol=1e-12):
    """Smallest depolarizer weight making p*I/n + (1-p)*C positive semidefinite."""
    C = np.asarray(choi_matrix, dtype=complex)
    n = C.shape[0]

    def psd(p):
        return np.linalg.eigvalsh(p * np.eye(n) / n + (1.0 - p) * C)[0] >= -psd_tol

    if psd(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if psd(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Werner detection closed forms for the two-parameter map family

def werner_extended_min_eig(g1, g2, p):
    """min eig of (id (x) Map)(W_p) from Bell-operator algebra.

    With Bloch factors s = 1-2g1-2g2 and u = 1-4g1, the extended map scales
    the sigma_i (x) sigma_i terms of W_p by (s, s, u), giving Bell-basis
    eigenvalues {(1-pu)/4 twice, (1-p(2s-u))/4, (1+p(2s+u))/4}.
    """
    s, u = 1.0 - 2.0 * g1 - 2.0 * g2, 1.0 - 4.0 * g1
    vals = [(1 - p * u) / 4, (1 - p * u) / 4, (1 - p * (2 * s - u)) / 4, (1 + p * (2 * s + u)) / 4]
    return min(vals)


def finite_by_factors_and_weights(g1, g2):
    """The map family's finiteness rule as it was before it read the Bloch factors alone: the
    factors s = 1-2g1-2g2 and u = 1-4g1 and the Choi weights {1-2g1-g2, g1, g1, g2} of every
    point are finite."""
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (1.0 - 2.0 * g1 - 2.0 * g2, 1.0 - 4.0 * g1, 1.0 - 2.0 * g1 - g2, g1, g2)
        return all(np.isfinite(v).all() for v in values)


def werner_threshold_closed(g1, g2):
    """Detection onset in p: 1 / max(1-4g1, 1-4g2, 8g1+4g2-3), None if > 1."""
    M = max(1.0 - 4.0 * g1, 1.0 - 4.0 * g2, 8.0 * g1 + 4.0 * g2 - 3.0)
    return 1.0 / M if M > 1.0 else None


def scan_rows(columns):
    """phase_scan's columns as rows [gamma1, gamma2, positive, cp, threshold] of Python values,
    the threshold None where its column holds NaN."""
    g1, g2, positive, cp, threshold = (column.tolist() for column in columns)
    return [[a, b, p, c, None if math.isnan(t) else t]
            for a, b, p, c, t in zip(g1, g2, positive, cp, threshold)]


def loop_threshold(point, resolution=1e-6, tolerance=1e-9):
    """Scalar bisection, one detect_entanglement per step: the batched reference."""
    if not nmwit.detect_entanglement(nmwit.werner(1.0).matrix, point, tolerance)[0]:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if nmwit.detect_entanglement(nmwit.werner(mid).matrix, point, tolerance)[0]:
            hi = mid
        else:
            lo = mid
    return hi


def family_map_apply(pt, rho):
    """The family map at pt on a single-qubit operator, as a sum of Pauli conjugations."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 operator, got shape {rho.shape}")
    g1, g2 = pt.gamma1, pt.gamma2
    return (
        (1.0 - 2.0 * g1 - g2) * rho
        + g1 * (SX @ rho @ SX)
        + g1 * (SY @ rho @ SY)
        + g2 * (SZ @ rho @ SZ)
    )


def family_extend(pt, X):
    """(id (x) Map)(X) = sum_ij |i><j| (x) Map(X_ij) over the 2x2 blocks X_ij of a 4x4 X."""
    X = np.asarray(X, dtype=complex)
    return np.block([[family_map_apply(pt, X[2 * i:2 * i + 2, 2 * j:2 * j + 2]) for j in range(2)]
                     for i in range(2)])


# ---------------------------------------------------------------------------
# Bloch-uniform pure states: the package samples none; is_positive is checked
# against the map's outputs on them

def sample_bloch(n, rng):
    """(nx, ny, z) components of n Bloch-sphere-uniform unit vectors: z, then the azimuth."""
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = np.sqrt(1.0 - z * z)
    return r * np.cos(phi), r * np.sin(phi), z


def sample_pure_states(n, rng):
    """(n, 2, 2) batch of pure-state density matrices, Bloch-sphere uniform."""
    nx, ny, z = sample_bloch(n, rng)
    rho = np.empty((n, 2, 2), dtype=complex)
    rho[:, 0, 0] = (1.0 + z) / 2
    rho[:, 1, 1] = (1.0 - z) / 2
    rho[:, 0, 1] = (nx - 1j * ny) / 2
    rho[:, 1, 0] = (nx + 1j * ny) / 2
    return rho


# ---------------------------------------------------------------------------
# Seeded random inputs

def rand_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2


def rand_density(rng, n):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = B @ B.conj().T
    return rho / np.trace(rho).real


def rand_unitary(rng, n):
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def rand_separable(rng, terms=4):
    """Random convex mixture of random two-qubit product states."""
    out = np.zeros((4, 4), dtype=complex)
    weights = rng.uniform(0.1, 1.0, size=terms)
    weights /= weights.sum()
    for w in weights:
        out += w * np.kron(rand_density(rng, 2), rand_density(rng, 2))
    return out


# ---------------------------------------------------------------------------
# Linear-algebra helpers used only by tests

def tensor(A, B):
    """Kronecker product A (x) B."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def partial_trace(X, subsystem, dims):
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


def is_density(M, tol_herm=1e-9, tol_psd=1e-9, tol_trace=1e-9):
    """Hermitian, positive semidefinite (within tol) and unit trace."""
    M = np.asarray(M)
    if not (M.ndim == 2 and M.shape[0] == M.shape[1] and np.abs(M - M.conj().T).max() < tol_herm):
        return False
    if abs(np.trace(M).real - 1.0) >= tol_trace:
        return False
    return np.linalg.eigvalsh(M)[0] >= -tol_psd


def reconstruct(spectrum):
    """Sum_k lambda_k |v_k><v_k| of an eigendecomposition."""
    V = spectrum.eigenvectors
    return (V * spectrum.eigenvalues) @ V.conj().T


# ---------------------------------------------------------------------------
# Per-instant reference pipeline: Choi state, SPA, witness

def dissipator(gen, X, t, ancilla):
    """(id_ancilla (x) L_t)(X), building E = I (x) L and K = I (x) L^dag L per term and call."""
    eye = np.eye(ancilla)
    out = np.zeros_like(X)
    for coef, L in gen.terms:
        g = coef(t)
        E = np.kron(eye, L)
        K = np.kron(eye, L.conj().T @ L)
        out += g * (E @ X @ E.conj().T - 0.5 * (K @ X + X @ K))
    return out


def apply_generator(gen, rho, t):
    """L_t(rho) for a single-system operator rho: the dissipator with no ancilla."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (gen.dim, gen.dim):
        raise DimensionMismatch(f"rho shape {rho.shape} does not match generator dim {gen.dim}")
    return dissipator(gen, rho, t, 1)


def map_apply(m, rho):
    """N(rho) = rho + epsilon * L_t(rho) for a snapshot map m."""
    return np.asarray(rho, dtype=complex) + m.epsilon * apply_generator(m.generator, rho, m.t)


def spa_weights(vals):
    """(omega, nu) of the SPA of a Choi state with ascending eigenvalues vals."""
    lam = -float(vals[0]) if vals[0] < -1e-9 else 0.0
    a = lam * len(vals)
    return a / (a + 1.0), 1.0 / (a + 1.0)


def spa_mixture(C):
    """(omega, nu, the mixture (1 - omega) C + omega I/n, its eigenvalues, its eigenvectors).

    The mixture is built and diagonalized explicitly, independently of C's eigenvectors.
    """
    C = np.asarray(C, dtype=complex)
    n = C.shape[0]
    omega, nu = spa_weights(nmwit.eig_hermitian(C).eigenvalues)
    mixed = omega * np.eye(n) / n + (1.0 - omega) * C
    mvals, mvecs = np.linalg.eigh(mixed)
    return omega, nu, mixed, mvals, mvecs


def reference_snapshot(gen, t, eps):
    """(Choi matrix, eigenvalues, omega, nu, tau, witness, value) of one instant.

    tau is the eigenvector of C's least eigenvalue, which is the SPA state's
    least eigenvector, and the SPA state's two lowest eigenvalues are
    nu * (vals[1] - vals[0]) apart. omega, nu, tau, witness and value are
    None when that gap is below 1e-12 (a degenerate SPA minimum).
    """
    d = gen.dim
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    P = np.outer(phi, phi.conj())
    C = P + eps * dissipator(gen, P, t, d)
    spectrum = nmwit.eig_hermitian(C)
    vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    omega, nu = spa_weights(vals)
    if nu * (vals[1] - vals[0]) < 1e-12:
        return C, vals, None, None, None, None, None
    tau = np.array(vecs[:, 0], dtype=complex)
    X = np.outer(tau, tau.conj())
    W = nu * (X + eps * dissipator(gen, X, t, d))
    value = float(np.real(nu * np.vdot(tau, C @ tau)))
    return C, vals, omega, nu, tau, W, value


# ---------------------------------------------------------------------------
# Per-instant forms of the package's stacked helpers

def coefficient_at(coef, t):
    """c(t) of one coefficient inside its domain, from its kind's formula in scalar arithmetic."""
    if coef.kind == "constant":
        return coef.value
    if coef.kind == "eternal_tanh":
        return coef.scale * math.tanh(t)
    return float(np.interp(t, coef.times, coef.values))


def loop_coefficients(gen, times):
    """c_a(t) of each term (columns) at each instant (rows), one coefficient_at per entry."""
    return np.array([[coefficient_at(coef, t) for coef, _ in gen.terms] for t in times], dtype=float)


def loop_witness_values(nu, tau, matrices):
    """nu * <tau| C |tau> of each instant, one np.vdot each."""
    return [float(np.real(n * np.vdot(v, C @ v))) for n, v, C in zip(nu.tolist(), tau, matrices)]


def x_solve_by_argsort(R, vectors):
    """(eigenvalues, eigenvectors or None) of a stack (k, 4, 4) of real X-pattern matrices:
    the closed-form pairs of the blocks (0, 3) and (1, 2), [lo (0, 3), hi (0, 3), lo (1, 2),
    hi (1, 2)], ordered by a stable argsort, and lo's eigenvector (-y, x) and hi's (x, y) on
    the coordinates of their block, gathered in the same order."""
    k, rows, cols = len(R), (0, 1), (3, 2)
    B = np.stack([R[:, rows, rows].T, R[:, cols, rows].T, R[:, cols, cols].T])  # (a, b, c) of each
    lo, hi, x, y = nmwit.kernel._x_blocks(B, vectors)
    values = np.stack([lo[0], hi[0], lo[1], hi[1]], axis=1)
    order, i = np.argsort(values, axis=1, kind="stable"), np.arange(k)[:, None]
    if not vectors:
        return values[i, order], None
    V = np.zeros((k, 4, 4))  # V[:, j] is the eigenvector of values[:, j]
    for j, (block, first, second) in enumerate([(0, -y[0], x[0]), (0, x[0], y[0]),
                                                (1, -y[1], x[1]), (1, x[1], y[1])]):
        V[:, j, rows[block]], V[:, j, cols[block]] = first + 0.0, second + 0.0
    return values[i, order], V[i, order].transpose(0, 2, 1)


def same_bits_as(A, ref) -> bool:
    """Whether A has the bits of ref, or, where A is real and ref complex, those of ref's real
    part with ref's imaginary part exactly zero (the package keeps exactly real stacks real)."""
    A, ref = np.asarray(A), np.asarray(ref)
    if np.iscomplexobj(ref) and not np.iscomplexobj(A):
        if ref.imag.any():
            return False
        ref = ref.real
    return A.dtype == ref.dtype and A.shape == ref.shape and A.tobytes() == ref.tobytes()
