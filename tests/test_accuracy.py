"""Accuracy of the exported witness eigenvectors against 40-digit arithmetic.

The witness exports print tau at 12 significant digits, so a reformulation of
the float64 linear algebra can move their last digit. This pins how far
witness_scan's tau may sit from the exact least eigenvector of the same
float64 Choi matrix, computed by mpmath at 40 digits, on the grid of
custom_witness_100_export.json.
"""

from pathlib import Path

import mpmath
import numpy as np

import nmwit
from nmwit.witness import witness_scan

GOLDEN = Path(__file__).parent / "golden"


def _least_eigenvector(C, dps=40):
    """The eigenvector of C's least eigenvalue at dps digits, rounded to complex."""
    with mpmath.workdps(dps):
        A = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in C])  # exact
        E, Q = mpmath.eigh(A)
        k = min(range(len(E)), key=lambda i: E[i])
        return np.array([complex(Q[i, k]) for i in range(Q.rows)])


def test_witness_tau_is_the_least_eigenvector_to_1e13():
    gen = nmwit.load_generator(GOLDEN / "custom_generator.json")
    matrices, _, _, tau, _ = witness_scan(gen, np.linspace(0.1, 4.9, 100), 0.02)
    worst = 0.0
    for C, v in zip(matrices, tau):
        exact = _least_eigenvector(C)
        overlap = np.vdot(exact, v)
        worst = max(worst, np.linalg.norm(v - exact * overlap / abs(overlap)))  # phase aligned
    assert worst <= 1e-13
