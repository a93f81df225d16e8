"""Classify instantaneous CP-divisibility along a trajectory.

The snapshot map over a short step epsilon at time t is N = id + eps*L_t.
Its Choi state is positive semidefinite exactly when the propagator over
that step is completely positive, so the sign of the minimum Choi
eigenvalue classifies each instant. The benchmark depolarizer keeps its
z coefficient at -tanh(t) < 0 forever, so every instant after t=0 is
indivisible even though the overall evolution is completely positive.
"""

import numpy as np

import nmwit

eps = 0.01
grid = np.linspace(0.1, 4.0, 14)

print("eternal depolarizer: gamma = (1, 1, -tanh t), eps =", eps)
print(f"{'t':>6} {'lambda_min':>13} {'||C||_1 - 1':>13}  verdict")
columns = nmwit.scan(nmwit.eternal_depolarizer(), grid, eps)  # (t, lambda_min, ||C||_1 - 1, markovian)
for t, lam, excess, markovian in zip(*(column.tolist() for column in columns)):
    tag = "markovian" if markovian else "NON-markovian"
    print(f"{t:6.2f} {lam:13.6f} {excess:13.6f}  {tag}")

# lambda_min tracks -eps*tanh(t): the negativity saturates with the coefficient
print("\nclosed form -eps*tanh(t) at t=2:", -eps * np.tanh(2.0))

# contrast: all-nonnegative coefficients are divisible at every instant
print("\nconstant depolarizer gamma = (1, 1, 1):")
columns = nmwit.scan(nmwit.depolarizer(1.0, 1.0, 1.0), [0.5, 1.0, 2.0], eps)
for t, lam, _, markovian in zip(*(column.tolist() for column in columns)):
    print(f"  t={t:4.1f}  markovian={markovian}  lambda_min={lam:.2e}")
