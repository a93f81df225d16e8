"""Structural physical approximation of a snapshot map.

Mixing a (possibly non-CP) map M with the depolarizing map Theta(rho) = I_d/d
as p*Theta + (1-p)*M shifts every Choi eigenvalue to p/d^2 + (1-p)*lambda, so
the smallest p that lands the mixture on the completely-positive boundary is

    p* = |lambda_-| d^2 / (|lambda_-| d^2 + 1),

with lambda_- the most negative Choi eigenvalue (0 for CP maps). The same
quantity written as the optimal decomposition

    sigma_tilde = omega * I/d^2 + nu * C,   omega = p*, nu = 1 - p*,

with C the snapshot's Choi state, is what the witness construction
consumes. The identity term is normalized to the maximally mixed state so
sigma_tilde keeps unit trace alongside omega + nu = 1.

spa_grid computes the decomposition for a stack of Choi states, and
optimal_decomposition is its one-instant case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import ChoiState, checked_spectrum
from .kernel import TOL_PSD


@dataclass(frozen=True)
class SpaDecomposition:
    """(|lambda_-|, omega = p*, nu) plus the on-boundary mixed Choi state."""

    lambda_minus: float
    omega: float
    nu: float
    spa_choi: ChoiState


def spa_grid(matrices: np.ndarray, eigenvalues: np.ndarray):
    """(lambda_minus, omega, nu, mixed spectra, mixed) for Choi matrices with ascending spectra."""
    lam_min = eigenvalues[:, 0]
    # Eigenvalues above -TOL_PSD count as zero: CP maps need no approximation.
    lam = np.where(lam_min < -TOL_PSD, -lam_min, 0.0)
    n = matrices.shape[-1]
    a = lam * n
    p = a / (a + 1.0)
    mixed = (1.0 - p)[:, None, None] * matrices
    mixed += p[:, None, None] * np.eye(n) / n
    mixed.setflags(write=False)
    return lam, p, 1.0 / (a + 1.0), checked_spectrum(mixed), mixed


def optimal_decomposition(choi: ChoiState) -> SpaDecomposition:
    """Optimal (omega, nu) split of the structural physical approximation.

    choi is the snapshot's Choi state; d^2 is its matrix dimension. The
    returned spa_choi sits exactly on the CP boundary: its minimum
    eigenvalue is zero up to roundoff.
    """
    lam, p, nu, spectrum, mixed = spa_grid(choi.matrix[None], choi.spectrum.eigenvalues[None])
    return SpaDecomposition(lambda_minus=float(lam[0]), omega=float(p[0]), nu=float(nu[0]),
                            spa_choi=ChoiState(mixed[0], choi.t, choi.epsilon, spectrum[0]))
