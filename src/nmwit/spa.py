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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import ChoiState, choi_state
from .kernel import TOL_PSD


@dataclass(frozen=True)
class SpaDecomposition:
    """(|lambda_-|, omega = p*, nu) plus the on-boundary mixed Choi state."""

    lambda_minus: float
    omega: float
    nu: float
    spa_choi: ChoiState


def optimal_decomposition(choi: ChoiState, tol_psd: float = TOL_PSD) -> SpaDecomposition:
    """Optimal (omega, nu) split of the structural physical approximation.

    choi is the snapshot's Choi state; d^2 is its matrix dimension. The
    returned spa_choi sits exactly on the CP boundary: its minimum
    eigenvalue is zero up to roundoff.
    """
    lam_min = float(choi.spectrum.eigenvalues[0])
    # Eigenvalues above -tol_psd count as zero: CP maps need no approximation.
    lam = -lam_min if lam_min < -tol_psd else 0.0
    n = choi.matrix.shape[0]
    a = lam * n
    p = a / (a + 1.0)
    nu = 1.0 / (a + 1.0)
    mixed = p * np.eye(n) / n + (1.0 - p) * choi.matrix
    return SpaDecomposition(
        lambda_minus=lam,
        omega=p,
        nu=nu,
        spa_choi=choi_state(mixed, choi.t, choi.epsilon),
    )
