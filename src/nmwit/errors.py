"""Exception types shared across the package."""


class NmwitError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(NmwitError):
    """A Hermitian-only operation received a matrix that fails the Hermiticity check."""


class DimensionMismatch(NmwitError):
    """Operator dimensions are incompatible with the requested operation."""


class NonPositiveEpsilon(NmwitError):
    """The small-time step must be strictly positive."""


class EmptyGrid(NmwitError):
    """A scan was requested over an empty grid."""


class ParameterOutOfRange(NmwitError):
    """A scalar parameter lies outside its admissible range."""


class DegenerateMinimum(NmwitError):
    """The minimum eigenvalue needed for witness construction is degenerate.

    Tie-breaking inside a degenerate eigenspace is not well defined, so the
    construction refuses rather than silently picking a vector.
    """


class NonHermitianJump(NmwitError):
    """The adjoint identity is only asserted for Hermitian jump operators."""


class MapNotPositive(NmwitError):
    """A non-positive map certifies nothing about entanglement."""


class CrossCheckFailed(NmwitError, RuntimeError):
    """Two independent evaluations of the same quantity disagree: a defect, not bad input."""


class MalformedDescription(NmwitError, ValueError):
    """A generator or coefficient model is malformed, a callable coefficient's value included."""


class NotUnitTrace(NmwitError, ValueError):
    """A Choi matrix does not have the unit trace of a trace-preserving map."""


class UnorderedGrid(NmwitError, ValueError):
    """A time grid is not strictly ascending."""
