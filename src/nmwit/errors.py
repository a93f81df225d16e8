"""Exception types shared across the package."""


class NmwitError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(NmwitError, ValueError):
    """A Hermitian-only operation received a matrix, or the adjoint identity a jump operator,
    that fails the Hermiticity check."""


class DimensionMismatch(NmwitError, ValueError):
    """Operator dimensions are incompatible with the requested operation."""


class EmptyGrid(NmwitError, ValueError):
    """A scan was requested over an empty grid."""


class ParameterOutOfRange(NmwitError, ValueError):
    """A scalar parameter lies outside its admissible range, a small-time step <= 0 included."""


class DegenerateMinimum(NmwitError):
    """The minimum eigenvalue needed for witness construction is degenerate.

    Tie-breaking inside a degenerate eigenspace is not well defined, so the
    construction refuses rather than silently picking a vector.
    """


class MapNotPositive(NmwitError):
    """A non-positive map certifies nothing about entanglement."""


class CrossCheckFailed(NmwitError, RuntimeError):
    """Two independent evaluations of the same quantity disagree: a defect, not bad input."""


class MalformedDescription(NmwitError, ValueError):
    """A generator or coefficient model is malformed."""


class NotUnitTrace(NmwitError, ValueError):
    """A Choi matrix does not have the unit trace of a trace-preserving map."""


class UnorderedGrid(NmwitError, ValueError):
    """A time grid is not strictly ascending."""
