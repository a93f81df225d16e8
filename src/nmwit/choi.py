"""Snapshot Choi states and instantaneous divisibility classification.

The Choi state of a snapshot map is (id (x) N)(|phi+><phi+|) with |phi+> the
computational-basis maximally entangled state. The map is completely positive
exactly when this state is positive semidefinite, so the sign of its minimum
eigenvalue classifies the instant as divisible (memoryless) or not; the
trace-norm excess ||C||_1 - 1 is the equivalent scalar indicator.

A grid of instants, which checked_grid accepts or rejects, is one stacked
pass (grid_pass): choi_grid builds every Choi state from the generator's
compiled Choi images and checks and diagonalizes them in one eigh_checked
call, and a stage (the verdicts, the SPA, the witness) reads the stack and its
eigendecomposition.
The CLI checks its grid once, when it reads its configuration, and runs
_grid_pass, which takes a grid checked_grid has returned. choi_of and classify
are the pass's one-instant case; a map keeps its choi_of state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyGrid, NotUnitTrace, UnorderedGrid
from .kernel import Spectrum, as_matrix, check_tolerance, eigh_checked, frozen
from .lindblad import LindbladGenerator, SmallTimeMap, choi_matrices, coefficients, small_time_map


@dataclass(frozen=True)
class ChoiState:
    """Hermitian unit-trace d^2 x d^2 matrix with cached spectrum.

    (t, epsilon) record which snapshot produced it.
    """

    matrix: np.ndarray
    t: float
    epsilon: float
    spectrum: Spectrum


def checked_spectrum(matrices: np.ndarray) -> Spectrum:
    """Spectra of a stack of Choi matrices; raises for the first that is not
    Hermitian (NonHermitianInput) or, failing that, not of unit trace (NotUnitTrace)."""
    spectrum = eigh_checked(matrices)
    tr = np.trace(matrices, axis1=1, axis2=2).real
    off = abs(tr - 1.0) > 1e-9
    if off.any():
        raise NotUnitTrace(f"Choi matrix trace {tr[off.argmax()]:.6g} is not 1")
    return spectrum


def choi_state(matrix: np.ndarray, t: float, epsilon: float) -> ChoiState:
    """Wrap a matrix as a ChoiState, enforcing a numeric matrix, Hermiticity and unit trace."""
    matrix = frozen(as_matrix(matrix))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the Hermiticity check
        return ChoiState(matrix, t, epsilon, checked_spectrum(matrix[None])[0])


def choi_grid(gen: LindbladGenerator, times, epsilon: float):
    """(coefficient rows, Choi matrices, their spectra) for the snapshots at times."""
    # Checks the snapshots as small_time_map does: the first non-finite t, else the first t.
    small_time_map(gen, times[int(np.isfinite(times).argmin())], epsilon)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails checked_spectrum's checks
        c = coefficients(gen, times)
        matrices = choi_matrices(gen, c, epsilon)
        return c, matrices, checked_spectrum(matrices)


def checked_grid(t_grid) -> list[float]:
    """The instants of t_grid as floats, None as NaN (left to the snapshots' finiteness check);
    DimensionMismatch unless a 1-D real sequence, EmptyGrid if empty, UnorderedGrid unless ascending."""
    try:
        grid = np.asarray(t_grid)
        if grid.dtype.kind != "c":  # a complex cast to float would drop the imaginary part
            grid = np.asarray(grid, dtype=float)
    except (TypeError, ValueError):  # strings, ragged nesting, other objects
        grid = None
    if grid is None or grid.dtype != float or grid.ndim != 1:
        raise DimensionMismatch(f"t_grid must be a 1-D sequence of real numbers, got {type(t_grid).__name__}")
    if not grid.size:
        raise EmptyGrid("t_grid is empty")
    if (grid[1:] <= grid[:-1]).any():
        raise UnorderedGrid("t_grid must be strictly ascending")
    return grid.tolist()


def grid_pass(gen: LindbladGenerator, t_grid, epsilon: float, stage):
    """stage(times, c, matrices, eigenvalues, tau) after choi_grid over the checked t_grid, in one pass.

    tau[k] is the eigenvector of the least eigenvalue eigenvalues[k, 0]. A
    failing pass is replayed one instant at a time, so that the error is that
    of a loop over the grid: the first failing instant's, at its first failing check.
    """
    return _grid_pass(gen, checked_grid(t_grid), epsilon, stage)


def _grid_pass(gen: LindbladGenerator, grid: list[float], epsilon: float, stage):
    """grid_pass over a grid that checked_grid has already returned."""
    def run(times):
        c, matrices, spectrum = choi_grid(gen, times, epsilon)
        # The stage gets the eigenvectors of the least eigenvalues; the others are freed.
        lam, tau, spectrum = spectrum.eigenvalues, spectrum.eigenvectors[:, :, 0].copy(), None
        return stage(times, c, matrices, lam, tau)

    try:
        return run(grid)
    except Exception:
        for t in grid:
            run([t])
        raise


def choi_of(m: SmallTimeMap) -> ChoiState:
    """Choi state (id (x) N)(|phi+><phi+|) of a snapshot map, built once and kept by m."""
    if m._choi is None:
        _, matrices, spectrum = choi_grid(m.generator, [m.t], m.epsilon)
        object.__setattr__(m, "_choi", ChoiState(matrices[0], m.t, m.epsilon, spectrum[0]))
    return m._choi


@dataclass(frozen=True)
class DivisibilityVerdict:
    """Outcome of the instantaneous CP-divisibility test.

    markovian is minimum_eigenvalue >= -tolerance; trace_norm_excess is
    ||C||_1 - 1 and equals twice the total negative spectral weight.
    """

    minimum_eigenvalue: float
    trace_norm_excess: float
    markovian: bool
    tolerance: float


def divisibility_grid(eigenvalues: np.ndarray, tolerance: float):
    """(minimum eigenvalues, trace-norm excesses, markovian flags), as lists, of a stack of
    checked Choi states from their ascending eigenvalues; ParameterOutOfRange unless
    tolerance is finite and >= 0."""
    check_tolerance(tolerance)
    lam = eigenvalues[:, 0].tolist()
    excess = (np.abs(eigenvalues).sum(axis=1) - 1.0).tolist()
    return lam, excess, [x >= -tolerance for x in lam]


def verdicts(eigenvalues: np.ndarray, tolerance: float) -> list:
    """DivisibilityVerdict of each of a stack of checked Choi states, from their ascending eigenvalues."""
    return [DivisibilityVerdict(lam, excess, markovian, tolerance)
            for lam, excess, markovian in zip(*divisibility_grid(eigenvalues, tolerance))]


def classify(choi: ChoiState, tolerance: float = 1e-9) -> DivisibilityVerdict:
    return verdicts(choi.spectrum.eigenvalues[None], tolerance)[0]


def scan(
    gen: LindbladGenerator,
    t_grid,
    epsilon: float,
    tolerance: float = 1e-9,
) -> list[tuple[float, DivisibilityVerdict]]:
    """Classify instantaneous divisibility at each instant of an ascending grid (see grid_pass)."""
    return grid_pass(gen, t_grid, epsilon,
                     lambda times, c, matrices, lam, tau: list(zip(times, verdicts(lam, tolerance))))
