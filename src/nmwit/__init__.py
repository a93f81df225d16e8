"""Qubit channel divisibility classification, SPA-based indivisibility
witnesses, and positive-map entanglement detection.

All heavy lifting is dense small-matrix numerics on numpy arrays; every
public operation is a pure function over immutable values. The imports below
are the public surface: __all__ is every name they bind, submodules aside.
"""

from types import ModuleType as _Module

from .choi import ChoiState, DivisibilityVerdict, choi_of, choi_state, classify, scan
from .entanglement import (
    MapFamilyPoint,
    WernerState,
    detect_entanglement,
    is_cp,
    is_positive,
    phase_scan,
    werner,
    werner_threshold,
)
from .errors import (
    CrossCheckFailed,
    DegenerateMinimum,
    DimensionMismatch,
    EmptyGrid,
    MalformedDescription,
    MapNotPositive,
    NmwitError,
    NonHermitianInput,
    NotUnitTrace,
    ParameterOutOfRange,
    UnorderedGrid,
)
from .kernel import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Spectrum,
    eig_hermitian,
    is_hermitian,
    max_entangled,
    projector,
    trace_norm,
)
from .lindblad import (
    CoefficientModel,
    LindbladGenerator,
    SmallTimeMap,
    constant,
    dephasing,
    depolarizer,
    eternal_depolarizer,
    eternal_tanh,
    extend_and_apply,
    generator_from_dict,
    load_generator,
    small_time_map,
    tabulated,
)
from .spa import SpaDecomposition, optimal_decomposition
from .witness import (
    MARKOVIAN_CONSISTENT,
    NON_MARKOVIAN_DETECTED,
    WitnessOperator,
    build_witness,
    classify_by_witness,
    evaluate,
    adjoint_identity_max_residual,
    adjoint_identity_residual,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _Module))]
