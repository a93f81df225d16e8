"""Two-parameter positive-map family and Werner-state entanglement detection.

The family is the unit-step map of a Pauli generator with coefficients
(g1, g1, g2):

    Map(rho) = (1 - 2*g1 - g2) rho + g1 X rho X + g1 Y rho Y + g2 Z rho Z,

unital and trace preserving, acting on Bloch vectors as
(x, y, z) -> (s x, s y, u z) with s = 1 - 2*g1 - 2*g2 and u = 1 - 4*g1.
Positivity of the map is therefore equivalent to max(|s|, |u|) <= 1, and
complete positivity to nonnegativity of the Choi weights
{1 - 2*g1 - g2, g1, g1, g2}. Both facts are re-derived numerically at every
use: positivity by seeded pure-state sampling against the closed form, and
complete positivity by dense diagonalization against the closed form.

A point that is positive but not completely positive certifies entanglement:
a negative eigenvalue of (id (x) Map)(state) cannot occur on separable input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyGrid, MapNotPositive, ParameterOutOfRange
from .kernel import (
    BELL_PSI_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOL_PSD,
    frozen,
    max_entangled,
    projector,
)

_IX = np.kron(np.eye(2), SIGMA_X)
_IY = np.kron(np.eye(2), SIGMA_Y)
_IZ = np.kron(np.eye(2), SIGMA_Z)


@dataclass(frozen=True)
class MapFamilyPoint:
    """Coefficients (gamma1, gamma2); range classification is an output, not a constraint."""

    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma1) and math.isfinite(self.gamma2)):
            raise ParameterOutOfRange(
                f"map coefficients must be finite, got gamma1={self.gamma1!r}, gamma2={self.gamma2!r}"
            )


@dataclass(frozen=True)
class WernerState:
    """p |psi-><psi-| + (1-p) I/4."""

    p: float
    matrix: np.ndarray


def werner(p: float) -> WernerState:
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"Werner parameter must lie in [0, 1], got {p!r}")
    matrix = p * projector(BELL_PSI_MINUS) + (1.0 - p) * np.eye(4) / 4
    return WernerState(p=float(p), matrix=frozen(matrix))


def family_map_apply(pt: MapFamilyPoint, rho: np.ndarray) -> np.ndarray:
    """Apply the family map at pt to a single-qubit operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 operator, got shape {rho.shape}")
    g1, g2 = pt.gamma1, pt.gamma2
    return (
        (1.0 - 2.0 * g1 - g2) * rho
        + g1 * (SIGMA_X @ rho @ SIGMA_X)
        + g1 * (SIGMA_Y @ rho @ SIGMA_Y)
        + g2 * (SIGMA_Z @ rho @ SIGMA_Z)
    )


def extend_family_map(pt: MapFamilyPoint, X: np.ndarray) -> np.ndarray:
    """(id (x) Map)(X): identity on the first qubit, family map on the second."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 operator, got shape {X.shape}")
    g1, g2 = pt.gamma1, pt.gamma2
    return (
        (1.0 - 2.0 * g1 - g2) * X
        + g1 * (_IX @ X @ _IX)
        + g1 * (_IY @ X @ _IY)
        + g2 * (_IZ @ X @ _IZ)
    )


def bloch_factors(pt: MapFamilyPoint) -> tuple[float, float]:
    """Transverse and longitudinal Bloch scaling factors (s, u)."""
    return 1.0 - 2.0 * pt.gamma1 - 2.0 * pt.gamma2, 1.0 - 4.0 * pt.gamma1


def _bloch_positive(pt: MapFamilyPoint, tolerance: float) -> bool:
    # Worst output eigenvalue over pure inputs is (1 - max|factor|)/2, so the
    # eigenvalue criterion lambda_min >= -tol is exactly max|factor| <= 1+2*tol.
    s, u = bloch_factors(pt)
    return max(abs(s), abs(u)) <= 1.0 + 2.0 * tolerance


def _point_seed(base_seed: int, pt: MapFamilyPoint) -> np.random.SeedSequence:
    # Stable per-point stream: fold the exact IEEE bit patterns of the
    # coordinates into the seed material.
    b1 = int(np.float64(pt.gamma1).view(np.uint64))
    b2 = int(np.float64(pt.gamma2).view(np.uint64))
    return np.random.SeedSequence([int(base_seed), b1, b2])


def _sample_bloch(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nx, ny, z) components of n Bloch-sphere-uniform unit vectors."""
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = np.sqrt(1.0 - z * z)
    return r * np.cos(phi), r * np.sin(phi), z


def sample_pure_states(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 2, 2) batch of pure-state density matrices, Bloch-sphere uniform."""
    nx, ny, z = _sample_bloch(n, rng)
    rho = np.empty((n, 2, 2), dtype=complex)
    rho[:, 0, 0] = (1.0 + z) / 2
    rho[:, 1, 1] = (1.0 - z) / 2
    rho[:, 0, 1] = (nx - 1j * ny) / 2
    rho[:, 1, 0] = (nx + 1j * ny) / 2
    return rho


def _batch_output_min_eig(pt: MapFamilyPoint, nx, ny, z) -> np.ndarray:
    """Minimum eigenvalue of the map output on each sampled pure state.

    Entrywise form of the four Pauli conjugations on rho = [[a, b], [b*, d]]:
    X and Y swap the diagonal while Y and Z negate the off-diagonal, so the
    output diagonal is ((1-2g1)a + 2g1*d, (1-2g1)d + 2g1*a) and the
    off-diagonal is (1-2g1-2g2)*b. The 2x2 eigenvalues then follow from the
    quadratic formula. Equality with family_map_apply is pinned by tests.
    """
    g1, g2 = pt.gamma1, pt.gamma2
    a = (1.0 + z) / 2
    d = (1.0 - z) / 2
    a_out = (1.0 - 2.0 * g1) * a + 2.0 * g1 * d
    d_out = (1.0 - 2.0 * g1) * d + 2.0 * g1 * a
    s = 1.0 - 2.0 * g1 - 2.0 * g2
    b_sq = (s * s) * (nx * nx + ny * ny) / 4.0  # |b| = |nx - i*ny| / 2
    return (a_out + d_out) / 2 - np.sqrt(((a_out - d_out) / 2) ** 2 + b_sq)


# Poles and an equatorial direction, as (nx, ny, z). The output eigenvalue
# depends on the input only through z^2, linearly under the square root, so
# its minimum over the sphere sits at z = +-1 or z = 0; uniform samples
# never reach those exactly.
_EXTREMAL_BLOCH = (np.array([0.0, 0.0, 1.0]), np.zeros(3), np.array([1.0, -1.0, 0.0]))


def is_positive(
    pt: MapFamilyPoint,
    n_samples: int = 10_000,
    *,
    tolerance: float = TOL_PSD,
    seed: int = 0,
) -> bool:
    """Positivity of the family map, established two independent ways.

    Samples n_samples Bloch-uniform pure states (deterministic stream derived
    from seed and the point coordinates) plus the extremal directions
    z = +-1 and z = 0, applies the map and checks the minimum output
    eigenvalue; the closed-form Bloch criterion is evaluated
    alongside and the two must agree, otherwise a RuntimeError is raised.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    closed = _bloch_positive(pt, tolerance)
    rng = np.random.default_rng(_point_seed(seed, pt))
    nx, ny, z = _sample_bloch(n_samples, rng)
    lam = min(
        _batch_output_min_eig(pt, nx, ny, z).min(),
        _batch_output_min_eig(pt, *_EXTREMAL_BLOCH).min(),
    )
    sampled = bool(lam >= -tolerance)
    if sampled != closed:
        raise RuntimeError(
            f"positivity checks disagree at gamma1={pt.gamma1:g}, gamma2={pt.gamma2:g}: "
            f"sampled={sampled}, closed-form={closed}"
        )
    return closed


def choi_weights(pt: MapFamilyPoint) -> np.ndarray:
    """Closed-form Choi eigenvalues {1-2*g1-g2, g1, g1, g2}, ascending."""
    g1, g2 = pt.gamma1, pt.gamma2
    return np.sort([1.0 - 2.0 * g1 - g2, g1, g1, g2])


def is_cp(pt: MapFamilyPoint, *, tolerance: float = TOL_PSD) -> bool:
    """Complete positivity via the Choi spectrum, closed form vs diagonalization."""
    closed = choi_weights(pt)
    numeric = np.linalg.eigvalsh(extend_family_map(pt, projector(max_entangled(2))))
    if np.abs(closed - numeric).max() > 1e-12:
        raise RuntimeError(
            f"Choi spectrum mismatch at gamma1={pt.gamma1:g}, gamma2={pt.gamma2:g}"
        )
    return bool(closed[0] >= -tolerance)


def detect_entanglement(
    state: np.ndarray,
    pt: MapFamilyPoint,
    tolerance: float = 1e-9,
) -> tuple[bool, float]:
    """One-sided entanglement certificate from the extended map spectrum.

    Returns (detected, min_eigenvalue of (id (x) Map)(state)); detected means
    the eigenvalue is below -tolerance, which is impossible for separable
    states under a positive map. Raises MapNotPositive when pt fails the
    positivity criterion, since a non-positive map certifies nothing.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 state, got shape {state.shape}")
    if not _bloch_positive(pt, tolerance):
        raise MapNotPositive(
            f"map at gamma1={pt.gamma1:g}, gamma2={pt.gamma2:g} is not positive"
        )
    lam = float(np.linalg.eigvalsh(extend_family_map(pt, state))[0])
    return lam < -tolerance, lam


def werner_threshold(
    pt: MapFamilyPoint,
    *,
    resolution: float = 1e-6,
    tolerance: float = 1e-9,
) -> float | None:
    """Smallest Werner parameter detected at pt, by bisection.

    Returns None when not even p = 1 is detected. The detection region in p
    is an interval ending at 1, so bisection on the indicator is exact up to
    the requested resolution, or up to float spacing when that is coarser.
    """
    if not 0.0 < resolution < np.inf:
        raise ParameterOutOfRange(f"resolution must be finite and > 0, got {resolution!r}")
    detected, _ = detect_entanglement(werner(1.0).matrix, pt, tolerance)
    if not detected:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if detect_entanglement(werner(mid).matrix, pt, tolerance)[0]:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class PhaseScanRow:
    gamma1: float
    gamma2: float
    positive: bool
    cp: bool
    werner_threshold: float | None


def phase_scan(
    gamma1_range: tuple[float, float],
    gamma2_range: tuple[float, float],
    steps: tuple[int, int],
    *,
    n_samples: int = 10_000,
    tolerance: float = 1e-9,
    seed: int = 0,
) -> list[PhaseScanRow]:
    """Classify the (gamma1, gamma2) grid and locate Werner thresholds.

    Each grid point records positivity (double-checked, see is_positive),
    complete positivity, and - only where the map is positive but not
    completely positive - the bisected Werner detection threshold.
    """
    n1, n2 = steps
    if n1 < 1 or n2 < 1:
        raise EmptyGrid(f"grid steps must be >= 1, got {steps}")
    g1s = np.linspace(gamma1_range[0], gamma1_range[1], n1)
    g2s = np.linspace(gamma2_range[0], gamma2_range[1], n2)
    rows = []
    for g1 in g1s:
        for g2 in g2s:
            pt = MapFamilyPoint(float(g1), float(g2))
            positive = is_positive(pt, n_samples, tolerance=tolerance, seed=seed)
            cp = is_cp(pt, tolerance=tolerance)
            threshold = None
            if positive and not cp:
                threshold = werner_threshold(pt, tolerance=tolerance)
            rows.append(
                PhaseScanRow(
                    gamma1=pt.gamma1,
                    gamma2=pt.gamma2,
                    positive=positive,
                    cp=cp,
                    werner_threshold=threshold,
                )
            )
    return rows
