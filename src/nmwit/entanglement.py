"""Two-parameter positive-map family and Werner-state entanglement detection.

The family is the epsilon = 1 snapshot of the Pauli generator
depolarizer(g1, g1, g2): one compiled _FAMILY, given coefficient rows (g1, g1, g2):

    Map(rho) = (1 - 2*g1 - g2) rho + g1 X rho X + g1 Y rho Y + g2 Z rho Z,

unital and trace preserving, acting on Bloch vectors as
(x, y, z) -> (s x, s y, u z) with s = 1 - 2*g1 - 2*g2 and u = 1 - 4*g1.
Positivity of the map is therefore equivalent to max(|s|, |u|) <= 1, and
complete positivity to nonnegativity of the Choi weights
{1 - 2*g1 - g2, g1, g1, g2}. Both closed forms are checked against the map
itself at every use, from its stacked Choi matrices J (lindblad.choi_matrices):
the Pauli transfer matrix, read off all of J in one matrix product, must be
diag(1, s, s, u), and the spectrum of J must be the Choi weights. Both run
in real arithmetic, with no sort: the product is real since J is. A
disagreement raises CrossCheckFailed. Every entry that judges a point runs
this one check (_check_points), the phase scan on each block.

Every spectrum here comes from kernel.eigvalsh, which solves each matrix
under kernel's rule: a real X-pattern (Bell-diagonal) matrix in closed form,
any other real matrix in real arithmetic, a complex one in complex
arithmetic. The family's Choi matrices and Werner images are always real
X-pattern matrices (the map is Pauli-diagonal, and each product of two
imaginary sigma_y entries is real), so the scan solves no eigenproblem with
LAPACK; the image of a state is of the state's kind. _FAMILY compiles to a
float64 stack (lindblad), and _SINGLET and _werner_matrices are real, so the
scan's Choi stacks and the Werner walk's images are float64 stacks, built and
solved on half the bytes of complex ones. detect_entanglement extends the
complex matrix of werner(p); the real part of that image has the bits of the
walk's real image, its imaginary part is zero, and kernel gives a matrix the
same bits real or complex, alone or in a stack. So the Werner walk and
detect_entanglement decide every Werner parameter alike.

The phase scan checks the grid in flat slices of _BLOCK points, one Choi
stack a slice, and then finds the Werner thresholds of its
positive-but-not-CP points together, in grid order, two thirds of a block
of points at a time, so that a walk holds no more memory than a check.
Every stacked step works point by point, so neither the block nor the batch
edges change a result. A failing check first walks the points before its
block, so the first error raised is that of a loop over the points. A
threshold is the point where bisection of the detected interval would end,
on the lattice of multiples of _H = 2**-20; it is decided by the spectrum
of (id (x) Map)(W_p) alone, at the threshold and one step below, both in
one stacked solve per step, starting from the closed-form onset of the
spectrum p*w + (1-p)/4 over the Choi weights w, which the check has already
computed. The walk returns a batch's thresholds as the arrays (hi, found),
and the scan keeps them in one float column, NaN where no threshold is
found, so no point is visited in Python; the check compares every residual
entry with its point's bound and judges the block by one flat all(),
reducing it point by point only when it fails.

A point that is positive but not completely positive certifies entanglement:
a negative eigenvalue of (id (x) Map)(state) cannot occur on separable input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckFailed,
    EmptyGrid,
    MapNotPositive,
    NonHermitianInput,
    ParameterOutOfRange,
)
from .kernel import (
    BELL_PSI_MINUS,
    COMPLEX,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOL_HERM,
    TOL_PSD,
    as_matrix,
    check_tolerance,
    eigvalsh,
    frozen,
    is_dim,
    is_hermitian,
    is_integer,
    projector,
    real_scalar,
    shown,
)
from .lindblad import choi_matrices, depolarizer, extend, finite_image

_FAMILY = depolarizer(0.0, 0.0, 0.0)
_SINGLET = frozen(projector(BELL_PSI_MINUS).real, float)
_H = 2.0**-20  # the Werner walk's lattice spacing
_STEPS = 64  # lattice steps a Werner threshold may walk from its closed-form onset
# Points per phase-scan check block; a walk batch is two thirds of a block, since a walk holds
# about 4/3 of a check's bytes per point. The 61x101 grid in one block ran a CLI scan about 15%
# faster (4.7-4.9 against 5.6-5.7 ms), but the process kept 4.4 MB more resident (in-process,
# 2 vCPU).
_BLOCK = 1024
# R[i, j] = Tr[(sigma_j^T (x) sigma_i) J] is the Pauli transfer matrix of the map
# whose Choi matrix is J. Flattened, R.ravel() = J.ravel() @ _TRANSFER, with
# _TRANSFER[4b + a, 4i + j] = (sigma_j^T (x) sigma_i)[a, b].
_PAULIS = (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)
_PROBES = np.array([[np.kron(sj.T, si) for sj in _PAULIS] for si in _PAULIS])
_TRANSFER = frozen(_PROBES.transpose(3, 2, 0, 1).reshape(16, 16))


@dataclass(frozen=True)
class MapFamilyPoint:
    """Coefficients (gamma1, gamma2) with finite closed forms; range classification is an output."""

    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        # real_scalar refuses text and other non-numbers; a complex coefficient is reported below.
        if not _finite(*(x if isinstance(x, COMPLEX) else real_scalar(x, name)
                         for x, name in ((self.gamma1, "gamma1"), (self.gamma2, "gamma2")))):
            raise ParameterOutOfRange("map coefficients must be real, with finite closed forms, got "
                                      f"gamma1={shown(self.gamma1)!r}, gamma2={shown(self.gamma2)!r}")


@dataclass(frozen=True)
class WernerState:
    """p |psi-><psi-| + (1-p) I/4."""

    p: float
    matrix: np.ndarray


def _werner_matrices(p):
    """Real Werner matrices for a scalar or an array of parameters, stacked on the leading axes."""
    p = np.asarray(p, dtype=float)[..., None, None]
    return p * _SINGLET + (1.0 - p) * np.eye(4) / 4


def werner(p: float) -> WernerState:
    if isinstance(p, COMPLEX) or not 0.0 <= real_scalar(p, "Werner parameter") <= 1.0:
        raise ParameterOutOfRange(f"Werner parameter must lie in [0, 1], got {shown(p)!r}")
    return WernerState(p=float(p), matrix=frozen(_werner_matrices(p)))


def _factors(g1, g2):
    """Transverse and longitudinal Bloch factors (s, u) of scalar or array coefficients."""
    return 1.0 - 2.0 * g1 - 2.0 * g2, 1.0 - 4.0 * g1


def _finite(g1, g2) -> bool:
    """Whether g1 and g2 are real and every point's Bloch factors finite. Then so are its Choi weights:
    a finite u bounds |g1| by max/4, a finite s |g2| by max/2, so (1 - 2*g1) - g2 stays finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # a complex g1 or g2 gives a complex factor
        return all(np.isrealobj(x) and np.isfinite(x).all() for x in _factors(g1, g2))


def _positive(s, u, tolerance: float):
    # Worst output eigenvalue over pure inputs is (1 - max|factor|)/2, so the
    # eigenvalue criterion lambda_min >= -tol is exactly max|factor| <= 1+2*tol.
    return np.maximum(np.abs(s), np.abs(u)) <= 1.0 + 2.0 * tolerance


def _require_positive(pt: MapFamilyPoint, tolerance: float) -> np.ndarray:
    """pt's least Choi weight, as _check_points returns it; MapNotPositive unless pt is positive."""
    positive, _, least = _check_points(np.array([pt.gamma1]), np.array([pt.gamma2]), tolerance)
    if not positive[0]:
        raise MapNotPositive(
            f"map at gamma1={pt.gamma1:g}, gamma2={pt.gamma2:g} is not positive"
        )
    return least


def is_positive(pt: MapFamilyPoint, *, tolerance: float = TOL_PSD) -> bool:
    """Positivity of the family map, from the closed-form Bloch criterion.

    A unital qubit map is positive exactly when max(|s|, |u|) <= 1 (King &
    Ruskai, IEEE TIT 47, 192, 2001). The criterion is used only once the map's
    own Pauli transfer matrix, read off its Choi matrix, equals
    diag(1, s, s, u); otherwise CrossCheckFailed is raised.
    """
    return bool(_check_points(np.array([pt.gamma1]), np.array([pt.gamma2]), tolerance)[0][0])


def _choi_weights(g1, g2) -> np.ndarray:
    """Closed-form Choi eigenvalues {1-2*g1-g2, g1, g1, g2} of each point, ascending, from a
    sorting network of five comparators: (0, 1), (2, 3), (0, 2), (1, 3), (1, 2)."""
    w = 1.0 - 2.0 * g1 - g2
    a, b, c, d = np.minimum(w, g1), np.maximum(w, g1), np.minimum(g1, g2), np.maximum(g1, g2)
    a, c, b, d = np.minimum(a, c), np.maximum(a, c), np.minimum(b, d), np.maximum(b, d)
    return np.stack([a, np.minimum(b, c), np.maximum(b, c), d], axis=-1)


def _disagree(residual: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Whether the closed-form-minus-numeric residual exceeds rounding at each point.

    Rounding may reach 1e-12 per unit of coefficient magnitude; NaN always differs.
    Every entry is compared with its point's bound and the block judged by one
    flat all(); only a block that fails is reduced point by point, to the
    verdicts a per-point max would give.
    """
    bound = 1e-12 * (1.0 + np.abs(g1) + np.abs(g2))
    within = np.abs(residual).reshape(len(g1), -1) <= bound[:, None]
    return np.zeros(len(g1), dtype=bool) if within.all() else ~within.all(axis=-1)


def _check_points(g1: np.ndarray, g2: np.ndarray, tolerance: float):
    """(positive, cp, least Choi weight) of each point (g1[k], g2[k]), from one stacked Choi matrix J.

    The Pauli transfer matrix R[i, j] = Tr[(sigma_j^T (x) sigma_i) J] must equal
    diag(1, s, s, u), and the spectrum of J the closed-form Choi weights.
    A mismatch raises CrossCheckFailed for the first failing point, naming
    its first failing check, as a loop over the points would. Raises
    ParameterOutOfRange unless tolerance is finite and >= 0.
    """
    check_tolerance(tolerance)
    J = choi_matrices(_FAMILY, np.stack([g1, g1, g2], axis=-1), 1.0)
    s, u = _factors(g1, g2)
    # R[k, 4i + j], real J times _TRANSFER's interleaved parts; the diagonal is at 0, 5, 10, 15.
    R = (J.reshape(len(g1), 16) @ _TRANSFER.view(float)).view(complex)
    R[:, 0] -= 1.0
    R[:, 5:11:5] -= s[:, None]
    R[:, 15] -= u
    wrong_transfer = _disagree(R, g1, g2)
    weights = _choi_weights(g1, g2)
    wrong = wrong_transfer | _disagree(weights - eigvalsh(J), g1, g2)
    if wrong.any():
        k = int(np.argmax(wrong))
        what = "transfer matrix" if wrong_transfer[k] else "Choi spectrum"
        raise CrossCheckFailed(f"{what} mismatch at gamma1={g1[k]:g}, gamma2={g2[k]:g}")
    least = weights[:, 0]
    return _positive(s, u, tolerance), least >= -tolerance, least


def is_cp(pt: MapFamilyPoint, *, tolerance: float = TOL_PSD) -> bool:
    """Complete positivity via the Choi spectrum, closed form vs diagonalization."""
    return bool(_check_points(np.array([pt.gamma1]), np.array([pt.gamma2]), tolerance)[1][0])


def detect_entanglement(
    state: np.ndarray,
    pt: MapFamilyPoint,
    tolerance: float = 1e-9,
) -> tuple[bool, float]:
    """One-sided entanglement certificate from the extended map spectrum.

    Returns (detected, min_eigenvalue of (id (x) Map)(state)); detected means
    the eigenvalue is below -tolerance, which is impossible for separable
    states under a positive map. The image is diagonalized under kernel's
    rule, as the Werner walk diagonalizes it: in closed form when it is a
    real X-pattern matrix, as for every Werner state, else by LAPACK in real
    or complex arithmetic.
    Raises MapNotPositive or CrossCheckFailed as is_positive decides them,
    since a non-positive map certifies nothing, ParameterOutOfRange when
    the state or its image is not finite, and NonHermitianInput unless the
    state is Hermitian within TOL_HERM: a solve reads one triangle only.
    """
    state = as_matrix(state, (4, 4))
    _require_positive(pt, tolerance)
    image = finite_image(_FAMILY, np.array([pt.gamma1, pt.gamma1, pt.gamma2]), 1.0, state)
    if not is_hermitian(state):
        raise NonHermitianInput(f"state is not Hermitian within {TOL_HERM:g}")
    lam = float(eigvalsh(image)[0])
    return lam < -tolerance, lam


def _werner_thresholds(
    g1: np.ndarray, g2: np.ndarray, tolerance: float, least: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Werner thresholds of positive points (g1[k], g2[k]), where bisection from [0, 1] ends.

    Bisection ends at [lo, hi] of width _H, detected at hi and not at lo: hi
    is the first point of the lattice of multiples of _H that is detected.
    Each point starts at the closed-form onset p* = (1/4 + tolerance) /
    (1/4 - w_min) of the spectrum p*w + (1-p)/4 of (id (x) Map)(W_p), rounded
    up to the lattice; least holds each point's w_min, as _check_points
    returns it. Each step diagonalizes every point at hi and at lo in one
    stacked extend and one eigvalsh, as detect_entanglement diagonalizes one
    image, and moves hi up where it is not detected (below 1) and down where
    lo is detected too. Every step is exact on the lattice, and hi stays
    >= _H, since W_0 = I/4 is never detected. A point not settled after
    _STEPS steps raises CrossCheckFailed. Returns the arrays (hi, found):
    point k has the threshold hi[k] where found[k], and none (not even p = 1
    is detected) elsewhere.
    """
    rows = np.stack([g1, g1, g2], axis=-1)
    with np.errstate(all="ignore"):  # p* is not finite where no Werner state can be detected
        onset = (0.25 + tolerance) / (0.25 - least)
    hi = np.fmax(np.ceil(np.fmin(onset, 1.0) / _H) * _H, _H)
    for _ in range(_STEPS):
        lo = hi - _H
        # Each point's map applied to its Werner states at hi and at lo, a (2, n, 4, 4) stack.
        images = extend(_FAMILY, rows, 1.0, _werner_matrices([hi, lo]))
        found, below = eigvalsh(images)[..., 0] < -tolerance
        up, down = ~found & (hi < 1.0), found & below
        if not (up | down).any():
            return hi, found
        hi, last = np.where(up, hi + _H, np.where(down, lo, hi)), hi
    k = int(np.argmax(up | down))
    raise CrossCheckFailed(f"Werner bracket [{lo[k]:g}, {last[k]:g}] not confirmed "
                           f"at gamma1={g1[k]:g}, gamma2={g2[k]:g}")


def werner_threshold(pt: MapFamilyPoint, *, tolerance: float = 1e-9) -> float | None:
    """Smallest Werner parameter detected at pt, where bisection from [0, 1] ends.

    Returns None when not even p = 1 is detected. The detection region in p
    is an interval ending at 1, so its end is exact up to _H = 2**-20.
    Raises MapNotPositive or CrossCheckFailed as is_positive decides them;
    the walk starts from that check's least Choi weight.
    """
    hi, found = _werner_thresholds(np.array([pt.gamma1]), np.array([pt.gamma2]), tolerance,
                                   _require_positive(pt, tolerance))
    return float(hi[0]) if found[0] else None


def scan_axes(gamma1_range, gamma2_range, steps):
    """The gamma1 and gamma2 axes of a phase scan. ParameterOutOfRange unless steps is a tuple or
    list of two integers and every range bound is a number, EmptyGrid unless both steps are >= 1,
    and ParameterOutOfRange unless every grid point has finite coefficients and closed forms."""
    if not (isinstance(steps, (tuple, list)) and len(steps) == 2 and all(map(is_integer, steps))):
        raise ParameterOutOfRange(f"grid steps must be two integers, got {steps!r}")
    if not all(map(is_dim, steps)):
        raise EmptyGrid(f"grid steps must be >= 1, got {steps}")
    # real_scalar refuses text and other non-numbers; a complex bound is reported below.
    bounds = [x if isinstance(x, COMPLEX) else real_scalar(x, "scan range bound")
              for r in (gamma1_range, gamma2_range) for x in (r[0], r[1])]
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows is reported below
        g1s = np.linspace(*bounds[:2], steps[0])
        g2s = np.linspace(*bounds[2:], steps[1])
    if not _finite(*np.meshgrid(g1s, g2s, indexing="ij")):
        raise ParameterOutOfRange("scan ranges must give real coefficients with finite closed forms, "
                                  f"got {tuple(shown(gamma1_range))}, {tuple(shown(gamma2_range))}")
    return g1s, g2s


def grid_points(g1s: np.ndarray, g2s: np.ndarray):
    """The grid g1s x g2s in scan order, as two columns: point k is (g1s[k // len(g2s)], g2s[k % len(g2s)])."""
    return np.repeat(g1s, len(g2s)), np.tile(g2s, len(g1s))


def scan_columns(g1s: np.ndarray, g2s: np.ndarray, tolerance: float):
    """The columns (gamma1, gamma2, positive, cp, werner_threshold) of a phase scan over axes that
    scan_axes returned, point k of each at grid_points' point k.

    The threshold column is float, NaN where the point is not positive-but-not-CP
    or no Werner state is detected there; each walk's found thresholds enter
    it in one scatter. The grid is checked _BLOCK points at a time, and then
    its positive-but-not-CP points are walked in grid order, 2 * _BLOCK // 3
    at a time (a walk holds about 4/3 of a check's bytes per point). A
    failing check first walks the points before its block, then raises, so
    the error raised is the first that a loop over the points would meet.
    """
    g1, g2 = grid_points(g1s, g2s)
    positive, cp = np.empty(g1.size, dtype=bool), np.empty(g1.size, dtype=bool)
    least, thresholds = np.empty(g1.size), np.full(g1.size, np.nan)
    batch = 2 * _BLOCK // 3

    def walk(stop):
        todo = np.flatnonzero(positive[:stop] & ~cp[:stop])
        for k in range(0, todo.size, batch):
            points = todo[k:k + batch]
            hi, found = _werner_thresholds(g1[points], g2[points], tolerance, least[points])
            thresholds[points[found]] = hi[found]

    for start in range(0, g1.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        try:
            positive[block], cp[block], least[block] = _check_points(g1[block], g2[block], tolerance)
        except Exception:
            walk(start)
            raise
    walk(g1.size)
    return g1, g2, positive, cp, thresholds


def phase_scan(
    gamma1_range: tuple[float, float],
    gamma2_range: tuple[float, float],
    steps: tuple[int, int],
    *,
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classify the (gamma1, gamma2) grid and locate Werner thresholds.

    Returns the 1-D columns (gamma1, gamma2, positive, cp, werner_threshold),
    one entry per grid point, gamma1 outer and gamma2 inner (the CLI table's
    row order); werner_threshold is NaN where there is none. The grid is
    decided _BLOCK points at a time: positivity from the closed-form Bloch
    criterion and complete positivity from the closed-form Choi weights, both
    cross-checked against the block's stacked Choi matrices (see is_positive
    and is_cp), and - only where the map is positive but not completely
    positive - the Werner detection threshold of werner_threshold, found for
    a batch of points at once.
    """
    return scan_columns(*scan_axes(gamma1_range, gamma2_range, steps), tolerance)
