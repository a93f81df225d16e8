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

The output spectrum of a pure input depends on its Bloch vector only through
z, since nx^2 + ny^2 = 1 - z^2, so positivity sampling draws z alone. The
phase scan works one gamma1 row at a time: one stacked diagonalization checks
complete positivity for the whole row, and the Werner thresholds of the row's
positive-but-not-CP points are bisected in lockstep, one stacked
diagonalization per bisection step, each point stopping on its own.

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
_CHOI_INPUT = projector(max_entangled(2))
_SINGLET = projector(BELL_PSI_MINUS)
_RESOLUTION = 1e-6


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


def _werner_matrices(p):
    """Werner matrices for a scalar or an array of parameters, stacked on the leading axes."""
    p = np.asarray(p, dtype=float)[..., None, None]
    return p * _SINGLET + (1.0 - p) * np.eye(4) / 4


def werner(p: float) -> WernerState:
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"Werner parameter must lie in [0, 1], got {p!r}")
    return WernerState(p=float(p), matrix=frozen(_werner_matrices(p)))


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


def _extend(g1, g2, X):
    """(id (x) Map)(X) with broadcasting: coefficients of shape S, X of shape S + (4, 4) or (4, 4)."""
    g1 = np.asarray(g1, dtype=float)[..., None, None]
    g2 = np.asarray(g2, dtype=float)[..., None, None]
    return (
        (1.0 - 2.0 * g1 - g2) * X
        + g1 * (_IX @ X @ _IX)
        + g1 * (_IY @ X @ _IY)
        + g2 * (_IZ @ X @ _IZ)
    )


def extend_family_map(pt: MapFamilyPoint, X: np.ndarray) -> np.ndarray:
    """(id (x) Map)(X): identity on the first qubit, family map on the second."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 operator, got shape {X.shape}")
    return _extend(pt.gamma1, pt.gamma2, X)


def bloch_factors(pt: MapFamilyPoint) -> tuple[float, float]:
    """Transverse and longitudinal Bloch scaling factors (s, u)."""
    return 1.0 - 2.0 * pt.gamma1 - 2.0 * pt.gamma2, 1.0 - 4.0 * pt.gamma1


def _bloch_positive(pt: MapFamilyPoint, tolerance: float) -> bool:
    # Worst output eigenvalue over pure inputs is (1 - max|factor|)/2, so the
    # eigenvalue criterion lambda_min >= -tol is exactly max|factor| <= 1+2*tol.
    s, u = bloch_factors(pt)
    return max(abs(s), abs(u)) <= 1.0 + 2.0 * tolerance


def _require_positive(pt: MapFamilyPoint, tolerance: float) -> None:
    if not _bloch_positive(pt, tolerance):
        raise MapNotPositive(
            f"map at gamma1={pt.gamma1:g}, gamma2={pt.gamma2:g} is not positive"
        )


def _point_seed(base_seed: int, pt: MapFamilyPoint) -> np.random.SeedSequence:
    # Stable per-point stream: fold the exact IEEE bit patterns of the
    # coordinates into the seed material.
    b1 = int(np.float64(pt.gamma1).view(np.uint64))
    b2 = int(np.float64(pt.gamma2).view(np.uint64))
    return np.random.SeedSequence([int(base_seed), b1, b2])


def _output_min_eig(pt: MapFamilyPoint, z: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of the map output on pure inputs with Bloch z-component z.

    The map sends the Bloch vector (nx, ny, z) to (s nx, s ny, u z), and
    nx^2 + ny^2 = 1 - z^2 on pure states, so the output eigenvalues are
    (1 +- sqrt(s^2 (1 - z^2) + u^2 z^2)) / 2. At z = +-1 and z = 0 the radicand
    is exactly u^2 and s^2. Equality with family_map_apply + eigvalsh is
    pinned by tests.
    """
    s, u = bloch_factors(pt)
    z2 = np.square(z)
    q = 1.0 - z2
    q *= s * s
    z2 *= u * u
    q += z2
    np.sqrt(q, out=q)
    np.subtract(1.0, q, out=q)
    q *= 0.5
    return q


# The output eigenvalue depends on z^2 linearly under the square root, so its
# minimum over the sphere sits at z = +-1 or z = 0; uniform samples never
# reach those exactly.
_EXTREMAL_Z = np.array([1.0, -1.0, 0.0])


def is_positive(
    pt: MapFamilyPoint,
    n_samples: int = 10_000,
    *,
    tolerance: float = TOL_PSD,
    seed: int = 0,
) -> bool:
    """Positivity of the family map, established two independent ways.

    Draws the z-components of n_samples Bloch-uniform pure states
    (deterministic stream derived from seed and the point coordinates; the
    azimuth does not affect the output spectrum and is not drawn), adds the
    extremal directions z = +-1 and z = 0, and checks the minimum output
    eigenvalue; the closed-form Bloch criterion is evaluated alongside and
    the two must agree, otherwise a RuntimeError is raised.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    closed = _bloch_positive(pt, tolerance)
    rng = np.random.default_rng(_point_seed(seed, pt))
    z = np.concatenate((rng.uniform(-1.0, 1.0, size=n_samples), _EXTREMAL_Z))
    lam = _output_min_eig(pt, z).min()
    sampled = bool(lam >= -tolerance)
    if sampled != closed:
        raise RuntimeError(
            f"positivity checks disagree at gamma1={pt.gamma1:g}, gamma2={pt.gamma2:g}: "
            f"sampled={sampled}, closed-form={closed}"
        )
    return closed


def _cp_batch(g1: np.ndarray, g2: np.ndarray, tolerance: float) -> np.ndarray:
    """Complete positivity of each point (g1[k], g2[k]), closed form vs one stacked eigvalsh."""
    # Closed-form Choi eigenvalues {1-2*g1-g2, g1, g1, g2}, ascending.
    closed = np.sort(np.stack([1.0 - 2.0 * g1 - g2, g1, g1, g2], axis=-1), axis=-1)
    numeric = np.linalg.eigvalsh(_extend(g1, g2, _CHOI_INPUT))
    mismatch = np.abs(closed - numeric).max(axis=-1) > 1e-12
    if mismatch.any():
        k = int(np.argmax(mismatch))
        raise RuntimeError(f"Choi spectrum mismatch at gamma1={g1[k]:g}, gamma2={g2[k]:g}")
    return closed[:, 0] >= -tolerance


def is_cp(pt: MapFamilyPoint, *, tolerance: float = TOL_PSD) -> bool:
    """Complete positivity via the Choi spectrum, closed form vs diagonalization."""
    return bool(_cp_batch(np.array([pt.gamma1]), np.array([pt.gamma2]), tolerance)[0])


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
    _require_positive(pt, tolerance)
    lam = float(np.linalg.eigvalsh(extend_family_map(pt, state))[0])
    return lam < -tolerance, lam


def _werner_thresholds(
    g1: np.ndarray, g2: np.ndarray, resolution: float, tolerance: float
) -> list[float | None]:
    """Bisected Werner thresholds of positive points (g1[k], g2[k]), in lockstep.

    Each step diagonalizes the extended Werner matrices of all points still
    bisecting in one stacked eigvalsh; a point stops once its bracket is at
    most resolution wide or its midpoint equals an end (float spacing).
    """

    def detected(idx: np.ndarray, p: np.ndarray) -> np.ndarray:
        lam = np.linalg.eigvalsh(_extend(g1[idx], g2[idx], _werner_matrices(p)))[:, 0]
        return lam < -tolerance

    lo, hi = np.zeros(len(g1)), np.ones(len(g1))
    found = detected(np.arange(len(g1)), hi)
    active = found.copy()
    while True:
        mid = 0.5 * (lo + hi)
        active &= (hi - lo > resolution) & (mid != lo) & (mid != hi)
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        d = detected(idx, mid[idx])
        hi[idx[d]] = mid[idx[d]]
        lo[idx[~d]] = mid[idx[~d]]
    return [float(h) if f else None for h, f in zip(hi, found)]


def werner_threshold(
    pt: MapFamilyPoint,
    *,
    resolution: float = _RESOLUTION,
    tolerance: float = 1e-9,
) -> float | None:
    """Smallest Werner parameter detected at pt, by bisection.

    Returns None when not even p = 1 is detected. The detection region in p
    is an interval ending at 1, so bisection on the indicator is exact up to
    the requested resolution, or up to float spacing when that is coarser.
    Raises MapNotPositive when pt fails the positivity criterion.
    """
    if not 0.0 < resolution < np.inf:
        raise ParameterOutOfRange(f"resolution must be finite and > 0, got {resolution!r}")
    _require_positive(pt, tolerance)
    return _werner_thresholds(
        np.array([pt.gamma1]), np.array([pt.gamma2]), resolution, tolerance
    )[0]


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
    completely positive - the bisected Werner detection threshold at the
    default resolution of werner_threshold. Complete positivity and the
    thresholds are computed for a whole gamma1 row at a time.
    """
    n1, n2 = steps
    if n1 < 1 or n2 < 1:
        raise EmptyGrid(f"grid steps must be >= 1, got {steps}")
    g1s = np.linspace(gamma1_range[0], gamma1_range[1], n1)
    g2s = np.linspace(gamma2_range[0], gamma2_range[1], n2)
    rows = []
    for g1 in g1s:
        g1_row = np.full(n2, g1)
        points = [MapFamilyPoint(float(g1), float(g2)) for g2 in g2s]
        positive = np.array(
            [is_positive(pt, n_samples, tolerance=tolerance, seed=seed) for pt in points]
        )
        cp = _cp_batch(g1_row, g2s, tolerance)
        thresholds: list[float | None] = [None] * n2
        todo = np.flatnonzero(positive & ~cp)
        if todo.size:
            found = _werner_thresholds(g1_row[todo], g2s[todo], _RESOLUTION, tolerance)
            for k, threshold in zip(todo, found):
                thresholds[k] = threshold
        rows.extend(
            PhaseScanRow(
                gamma1=pt.gamma1,
                gamma2=pt.gamma2,
                positive=bool(p),
                cp=bool(c),
                werner_threshold=t,
            )
            for pt, p, c, t in zip(points, positive, cp, thresholds)
        )
    return rows
