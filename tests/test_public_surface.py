"""The package's exported set, pinned by name.

nmwit/__init__.py lists each public name once, in its import blocks, and
derives __all__ from them; this pins the set that results.
"""

import nmwit

EXPORTED = {
    "ChoiState", "CoefficientModel", "CrossCheckFailed", "DegenerateMinimum", "DimensionMismatch",
    "DivisibilityVerdict", "EmptyGrid", "LindbladGenerator", "MARKOVIAN_CONSISTENT",
    "MalformedDescription", "MapFamilyPoint", "MapNotPositive", "NON_MARKOVIAN_DETECTED",
    "NmwitError", "NonHermitianInput", "NotUnitTrace",
    "ParameterOutOfRange", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SmallTimeMap", "SpaDecomposition",
    "Spectrum", "UnorderedGrid", "WernerState", "WitnessOperator",
    "adjoint_identity_max_residual", "adjoint_identity_residual", "build_witness", "choi_of",
    "choi_state", "classify", "classify_by_witness", "constant", "dephasing", "depolarizer",
    "detect_entanglement", "eig_hermitian", "eternal_depolarizer", "eternal_tanh", "evaluate",
    "extend_and_apply", "generator_from_dict", "is_cp", "is_hermitian",
    "is_positive", "load_generator", "max_entangled", "optimal_decomposition", "phase_scan",
    "projector", "scan", "small_time_map", "tabulated", "trace_norm", "werner", "werner_threshold",
}


def test_the_exported_set_is_pinned_and_each_name_resolves():
    assert len(nmwit.__all__) == len(set(nmwit.__all__))
    assert set(nmwit.__all__) == EXPORTED
    for name in nmwit.__all__:
        assert getattr(nmwit, name) is not None, name


def test_a_star_import_binds_the_exported_set():
    namespace = {}
    exec("from nmwit import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED
