"""Accuracy of the exported witnesses against 40-digit arithmetic.

The witness exports print tau and the witness matrices at 12 significant
digits, so a reformulation of the float64 linear algebra can move their last
digit. On the grid of custom_witness_100_export.json, this pins how far
witness_scan's tau may sit from the exact least eigenvector of the same
float64 Choi matrix, and how far each witness matrix may sit from
nu * (X + epsilon * (id (x) L_t)(X)), X = |tau><tau|, evaluated by mpmath at
40 digits from the same float64 nu, tau and coefficients.
"""

from pathlib import Path

import mpmath
import numpy as np

import nmwit
from nmwit.lindblad import coefficients
from nmwit.witness import witness_scan

GOLDEN = Path(__file__).parent / "golden"


def _mp(M):
    """M as an mpmath matrix, exactly."""
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in M])


def _kron(A, B):
    """A (x) B of two mpmath matrices."""
    m = B.rows
    return mpmath.matrix([[A[i // m, j // m] * B[i % m, j % m] for j in range(A.cols * m)]
                          for i in range(A.rows * m)])


def _least_eigenvector(C, dps=40):
    """The eigenvector of C's least eigenvalue at dps digits, rounded to complex."""
    with mpmath.workdps(dps):
        A = _mp(C)
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


def test_witness_matrices_are_the_40_digit_extension_to_2_ulp():
    # The relative error is 0.58 ulp of the largest entry with the compiled
    # superoperators, as with the term-by-term products they replaced.
    gen = nmwit.load_generator(GOLDEN / "custom_generator.json")
    times, epsilon = np.linspace(0.1, 4.9, 100), 0.02
    _, _, nu, tau, witnesses = witness_scan(gen, times, epsilon)
    c = coefficients(gen, times.tolist())
    d = gen.dim
    worst = 0.0
    with mpmath.workdps(40):
        eye = mpmath.eye(d)
        jumps = [_mp(L) for _, L in gen.terms]
        E = [_kron(eye, L) for L in jumps]
        K = [_kron(eye, L.H * L) for L in jumps]
        for k, W in enumerate(witnesses):
            v = _mp(tau[k][:, None])
            X = v * v.H
            LX = mpmath.matrix(d * d, d * d)
            for a in range(len(jumps)):
                LX += mpmath.mpf(c[k, a]) * (E[a] * X * E[a].H - (K[a] * X + X * K[a]) / 2)
            Wx = mpmath.mpf(nu[k]) * (X + mpmath.mpf(epsilon) * LX)
            exact = np.array([[complex(Wx[i, j]) for j in range(d * d)] for i in range(d * d)])
            worst = max(worst, np.abs(W - exact).max() / np.abs(exact).max())
    assert worst <= 2 * np.finfo(float).eps
