"""Structural physical approximation of an indivisible dephasing snapshot.

A dephasing generator with a negative coefficient produces a snapshot Choi
state with one negative eigenvalue -eps*|G|. Mixing with the depolarizing
map shifts the whole spectrum toward 1/4; the smallest mixing weight that
reaches positivity is p* = 4 eps|G| / (1 + 4 eps|G|), and the mixture at p*
sits exactly on the CP boundary.
"""

import numpy as np

import nmwit

eps = 0.01
m = nmwit.small_time_map(nmwit.dephasing(-1.0), 0.0, eps)

c = nmwit.choi_of(m)
print("snapshot Choi eigenvalues:", np.round(c.spectrum.eigenvalues, 6))
print("trace-norm excess ||C||_1 - 1 =", nmwit.trace_norm(c.matrix) - 1)

dec = nmwit.optimal_decomposition(c)
p_star = dec.omega
print("\noptimal mixing weight p* =", p_star)
print("closed form 4e/(1+4e)   =", 4 * eps / (1 + 4 * eps))

print("\nspectrum of the mixture around p*:")
for p in (0.0, p_star / 2, p_star, p_star + 1e-3, 0.1):
    lam = nmwit.eig_hermitian(p * np.eye(4) / 4 + (1 - p) * c.matrix).eigenvalues[0]
    marker = "<- boundary" if abs(p - p_star) < 1e-12 else ""
    print(f"  p={p:9.6f}  lambda_min={lam:+.3e} {marker}")

print("\noptimal decomposition: omega =", dec.omega, " nu =", dec.nu)
print("omega + nu =", dec.omega + dec.nu)
print("on-boundary SPA Choi eigenvalues:", np.round(dec.spa_choi.spectrum.eigenvalues, 8))
