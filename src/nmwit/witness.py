"""Indivisibility witnesses built from the structural physical approximation.

Construction: take the on-boundary SPA state sigma_tilde of a snapshot map,
let tau be the eigenvector of its (unique) minimum eigenvalue, and set

    W = nu * (id (x) N)(|tau><tau|).

W is the observable measured on the shared maximally entangled input in the
lab. Because the generator's jump operators are Hermitian, the snapshot map is
self-adjoint under the Hilbert-Schmidt pairing (the adjoint identity below),
so that expectation equals nu * <tau| C |tau> with C the Choi state of the
dynamics being probed. Evaluation against Choi states therefore goes through
the projector form, which is manifestly nonnegative on every positive
semidefinite (divisible-snapshot) Choi state and negative on the Choi state
the witness was built from whenever that state has a negative eigenvalue.

The SPA state nu*C + omega*I/d^2 has the eigenvectors of C, so tau is the
eigenvector of C's least eigenvalue and nothing is diagonalized but C. A grid
of instants is one stacked pass (choi.grid_pass) with one stage,
witness_stage: witness_weights reads (omega, nu) off the Choi spectra and
rejects a degenerate minimum, so the pass fails as a loop of build_witness
over the grid does. witness_matrices forms every witness matrix from tau with
one stacked extension, and witness_dicts the export of the whole stack.
build_witness and evaluate are the one-instant cases of the stage with
witness_matrices (off the Choi state the snapshot map keeps, choi.choi_of)
and of witness_values. witness_values needs no witness matrix, so the CLI's
witness command forms the matrices only when it exports them, and exports
them from the stacks, with no snapshot map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import ChoiState, choi_of
from .errors import DegenerateMinimum, DimensionMismatch, NonHermitianInput, ParameterOutOfRange
from .kernel import as_complex, as_matrix, check_tolerance, dag, is_hermitian, projector
from .lindblad import LindbladGenerator, SmallTimeMap, constant, finite_image
from .lindblad import extend_and_apply, small_time_map
from .spa import spa_grid

MARKOVIAN_CONSISTENT = "markovian_consistent"
NON_MARKOVIAN_DETECTED = "non_markovian_detected"
_DEGENERACY_TOL = 1e-12  # an SPA state whose two lowest eigenvalues are closer has no witness


@dataclass(frozen=True)
class WitnessOperator:
    """Witness matrix with the (nu, omega, tau) it was built from.

    For a witness of the snapshot map m, matrix is Hermitian and equal to
    nu * extend_and_apply(m, |tau><tau|).
    """

    matrix: np.ndarray
    nu: float
    omega: float
    tau: np.ndarray


def adjoint_identity_residual(
    G: np.ndarray,
    alpha: np.ndarray,
    rho: np.ndarray,
    gamma: float,
) -> float:
    """Two-sided check of the adjoint identity for a Hermitian jump G.

    With N(rho) = rho + gamma*(G rho G^dag - {G^dag G, rho}/2) extended as
    id (x) N, returns |Tr[|a><a| (id(x)N)(rho)] - Tr[(id(x)N)(|a><a|) rho]|.
    Both sides are computed independently; the result should be at roundoff
    level. Raises NonHermitianInput when G fails the Hermiticity check, since
    the identity is only asserted under that hypothesis, and
    ParameterOutOfRange when a side overflows.
    """
    G, alpha, rho = as_matrix(G), as_complex(alpha), as_matrix(rho)
    if not is_hermitian(G):
        raise NonHermitianInput("adjoint identity requires a Hermitian jump operator")
    n = G.shape[0] ** 2
    if rho.shape != (n, n) or alpha.shape != (n,):
        raise DimensionMismatch(f"incompatible shapes: G {G.shape}, alpha {alpha.shape}, rho {rho.shape}")
    # N is the epsilon = 1 snapshot of the one-term generator (gamma, G).
    m = small_time_map(LindbladGenerator(dim=G.shape[0], terms=((constant(gamma), G),)), 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        P = projector(alpha)
        lhs = np.trace(P @ extend_and_apply(m, rho))
        rhs = np.trace(extend_and_apply(m, P) @ rho)
        residual = abs(lhs - rhs)
    if not np.isfinite(residual):
        raise ParameterOutOfRange("the two sides of the adjoint identity overflow")
    return float(residual)


def adjoint_identity_max_residual(draws: int = 100, seed: int = 0) -> float:
    """Max adjoint-identity residual over a seeded randomized suite.

    Each draw uses a random Hermitian 2x2 jump, a random unit 4-vector, a
    random 4x4 density matrix and a coefficient in [-1, 1]. A maximum over
    no draws is undefined, so ParameterOutOfRange unless draws >= 1 and seed >= 0.
    """
    if draws < 1 or seed < 0:
        raise ParameterOutOfRange(f"draws must be >= 1 and seed >= 0, got draws={draws!r}, seed={seed!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        G = (A + dag(A)) / 2
        alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
        alpha /= np.linalg.norm(alpha)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = B @ dag(B)
        rho /= np.trace(rho).real
        gamma = rng.uniform(-1.0, 1.0)
        worst = max(worst, adjoint_identity_residual(G, alpha, rho, gamma))
    return worst


def witness_weights(times, eigenvalues: np.ndarray):
    """(omega, nu) of the SPA states of snapshots at times, from their ascending Choi spectra.

    Raises DegenerateMinimum for the first SPA state whose two lowest
    eigenvalues, nu * (lambda_1 - lambda_0), are within _DEGENERACY_TOL,
    because its minimizing eigenvector is then not well defined.
    """
    _, omega, nu = spa_grid(eigenvalues)
    lam = eigenvalues  # a 1x1 state has one eigenvalue, so no degenerate minimum
    gap = nu * (lam[:, 1] - lam[:, 0]) if lam.shape[1] > 1 else np.full(len(lam), np.inf)
    if (gap < _DEGENERACY_TOL).any():
        k = int(np.argmax(gap < _DEGENERACY_TOL))
        raise DegenerateMinimum(f"minimum eigenvalue of the SPA state is degenerate "
                                f"at t={times[k]:g} (gap {gap[k]:.3g})")
    return omega, nu


def witness_matrices(gen: LindbladGenerator, c: np.ndarray, epsilon: float, nu: np.ndarray,
                     tau: np.ndarray) -> np.ndarray:
    """The read-only witness matrices nu * (id (x) N)(|tau><tau|) of snapshots with
    coefficient rows c, as one stacked extension. A snapshot's Choi state may be finite while
    its terms overflow in the extension, so ParameterOutOfRange unless every image is finite."""
    witnesses = finite_image(gen, c, epsilon, tau[:, :, None] * tau.conj()[:, None, :])
    witnesses *= nu[:, None, None]
    witnesses.setflags(write=False)
    return witnesses


def witness_stage(times, c: np.ndarray, matrices: np.ndarray, eigenvalues: np.ndarray, tau: np.ndarray):
    """The grid_pass stage (c, matrices, omega, nu, tau), tau read-only; (omega, nu) are
    witness_weights of the Choi spectra, which raises DegenerateMinimum."""
    tau.setflags(write=False)
    return (c, matrices, *witness_weights(times, eigenvalues), tau)


def build_witness(m: SmallTimeMap) -> WitnessOperator:
    """Witness operator for the snapshot map m (the witness stage and witness_matrices at one instant).

    It reads m's Choi state through choi_of(m), which builds it only if no
    earlier call on m has. Raises DegenerateMinimum as witness_weights.
    """
    spectrum = choi_of(m).spectrum
    omega, nu = witness_weights([m.t], spectrum.eigenvalues[None])
    tau = spectrum.eigenvectors[None, :, 0]
    matrices = witness_matrices(m.generator, m._choi[1], m.epsilon, nu, tau)  # choi_of's row c
    return WitnessOperator(matrix=matrices[0], nu=float(nu[0]), omega=float(omega[0]), tau=tau[0])


def witness_values(nu: np.ndarray | float, tau: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """nu * <tau| C |tau> of each instant of a stack, as two stacked matrix-vector products."""
    return nu * (tau.conj()[:, None, :] @ (matrices @ tau[:, :, None]))[:, 0, 0].real


def evaluate(W: WitnessOperator, choi: ChoiState) -> float:
    """Witness value on a Choi state: nu * <tau| C |tau>.

    This is the expectation of the stored observable on the maximally
    entangled input under the probed dynamics (the adjoint identity moves the
    map from the witness side to the state side). On the Choi state of the
    witness's own source map it equals nu * lambda_min(C), i.e.
    lambda_min(sigma_tilde) - omega/4 for qubits.
    """
    if choi.matrix.shape[0] != W.tau.shape[0]:
        raise DimensionMismatch(
            f"witness dimension {W.tau.shape[0]} vs Choi dimension {choi.matrix.shape[0]}"
        )
    return float(witness_values(W.nu, W.tau[None], choi.matrix[None])[0])


def classify_by_witness(W: WitnessOperator, choi: ChoiState, tolerance: float = 1e-9) -> str:
    """NON_MARKOVIAN_DETECTED when the witness value drops below -tolerance;
    ParameterOutOfRange unless tolerance is finite and >= 0."""
    check_tolerance(tolerance)
    return NON_MARKOVIAN_DETECTED if evaluate(W, choi) < -tolerance else MARKOVIAN_CONSISTENT


def _floored_pairs(A: np.ndarray) -> list:
    """A stack's arrays as [re, im] pairs, a part below 1e-14 of its array's largest magnitude as 0.0."""
    parts = np.stack((A.real, A.imag), axis=-1)
    scale = np.abs(A).max(axis=tuple(range(1, A.ndim)), keepdims=True)[..., None]
    parts[np.abs(parts) < 1e-14 * scale] = 0.0
    return parts.tolist()


def witness_dicts(gen: LindbladGenerator, times, epsilon: float, omega, nu, tau, matrices) -> list:
    """The JSON-exportable form of each instant of a witness stack: matrix and tau as [re, im]
    pairs, floored by _floored_pairs, plus nu, omega and the source map's t, epsilon and label."""
    return [{"matrix": W, "nu": n, "omega": o, "tau": v,
             "source_map": {"t": t, "epsilon": float(epsilon), "generator": gen.label}}
            for W, n, o, v, t in zip(_floored_pairs(matrices), nu.tolist(), omega.tolist(),
                                     _floored_pairs(tau), times)]
