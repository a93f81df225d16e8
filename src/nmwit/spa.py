"""Structural physical approximation of a snapshot map.

Mixing a (possibly non-CP) map M with the depolarizing map Theta(rho) = I_d/d
as p*Theta + (1-p)*M keeps every Choi eigenvector and maps its eigenvalue to
p/d^2 + (1-p)*lambda, so the smallest p that makes the mixture CP is

    p* = |lambda_-| d^2 / (|lambda_-| d^2 + 1),

with lambda_- the most negative Choi eigenvalue (0 for CP maps). The same
quantity written as the optimal decomposition

    sigma_tilde = omega * I/d^2 + nu * C,   omega = p*, nu = 1 - p*,

with C the snapshot's Choi state, is what the witness construction
consumes. The identity term is normalized to the maximally mixed state so
sigma_tilde keeps unit trace alongside omega + nu = 1.

spa_grid reads (lambda_-, omega, nu) off a stack of Choi spectra, and
optimal_decomposition is its one-instant case; neither diagonalizes the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import ChoiState
from .kernel import TOL_PSD, Spectrum, frozen


@dataclass(frozen=True)
class SpaDecomposition:
    """(|lambda_-|, omega = p*, nu) plus the on-boundary mixed Choi state."""

    lambda_minus: float
    omega: float
    nu: float
    spa_choi: ChoiState


def spa_grid(eigenvalues: np.ndarray):
    """(lambda_minus, omega, nu) of a stack of Choi states from their ascending spectra."""
    lam_min = eigenvalues[:, 0]
    # Eigenvalues above -TOL_PSD count as zero: CP maps need no approximation.
    lam = np.where(lam_min < -TOL_PSD, -lam_min, 0.0)
    a = lam * eigenvalues.shape[1]
    return lam, a / (a + 1.0), 1.0 / (a + 1.0)


def optimal_decomposition(choi: ChoiState) -> SpaDecomposition:
    """Optimal (omega, nu) split of the structural physical approximation.

    choi is the snapshot's Choi state; d^2 is its matrix dimension. The
    returned spa_choi sits exactly on the CP boundary: its minimum
    eigenvalue is zero up to roundoff.
    """
    lam, p, nu = (float(x[0]) for x in spa_grid(choi.spectrum.eigenvalues[None]))
    n = len(choi.matrix)
    shifted = nu * choi.spectrum.eigenvalues + p / n  # the mixture keeps C's eigenvectors
    shifted.setflags(write=False)
    matrix = frozen(nu * choi.matrix + p * np.eye(n) / n, choi.matrix.dtype)
    spa_choi = ChoiState(matrix, choi.t, choi.epsilon, Spectrum(shifted, choi.spectrum.eigenvectors))
    return SpaDecomposition(lambda_minus=lam, omega=p, nu=nu, spa_choi=spa_choi)
