"""Non-finite or out-of-range numeric input is rejected with a typed error."""

import json
import math
import warnings

import numpy as np
import pytest

import nmwit
from nmwit import cli, kernel
from nmwit.entanglement import _choi_weights, _werner_thresholds
from nmwit.errors import (
    DimensionMismatch,
    EmptyGrid,
    MalformedDescription,
    NmwitError,
    NonHermitianInput,
    NotUnitTrace,
    ParameterOutOfRange,
    UnorderedGrid,
)

from oracles import werner_threshold_closed

NAN, INF = math.nan, math.inf
HALF = nmwit.MapFamilyPoint(0.5, 0.5)
_SNAPSHOT = nmwit.small_time_map(nmwit.dephasing(-1.0), 1.0, 0.01)


def _one_jump(matrix):
    return nmwit.LindbladGenerator(dim=2, terms=((nmwit.constant(1.0), matrix),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: nmwit.werner_threshold(HALF, resolution=0.0),
        lambda: nmwit.werner_threshold(HALF, resolution=-1.0),
        lambda: nmwit.werner_threshold(HALF, resolution=NAN),
        lambda: nmwit.werner_threshold(HALF, resolution=INF),
        lambda: nmwit.constant(NAN),
        lambda: nmwit.constant(INF),
        lambda: nmwit.eternal_tanh(NAN),
        lambda: nmwit.tabulated([0.0, NAN], [1.0, 2.0]),
        lambda: nmwit.dephasing(NAN),
        lambda: nmwit.small_time_map(nmwit.dephasing(-1.0), NAN, 0.01),
        lambda: nmwit.small_time_map(nmwit.dephasing(-1.0), INF, 0.01),
        lambda: nmwit.small_time_map(nmwit.dephasing(-1.0), 1.0, INF),
        lambda: nmwit.MapFamilyPoint(NAN, 0.2),
        lambda: nmwit.MapFamilyPoint(0.2, -INF),
        # Finite coefficients whose Bloch factors or Choi weights overflow.
        lambda: nmwit.MapFamilyPoint(8e307, 0.0),
        lambda: nmwit.MapFamilyPoint(0.0, 9e307),
        lambda: nmwit.MapFamilyPoint(-5e307, -5e307),
        lambda: nmwit.phase_scan((8e307, 8.9e307), (0.0, 1.0), (2, 2)),
        # Complex coefficients, which used to fail the transfer-matrix cross-check instead.
        lambda: nmwit.MapFamilyPoint(0.4 + 1e-3j, 0.4),
        lambda: nmwit.MapFamilyPoint(0.4, np.complex128(0.4)),
        lambda: nmwit.phase_scan((0, 0.5 + 1j), (0, 1), (2, 2)),
        lambda: nmwit.phase_scan((0, 0.5), (0, 1 + 0j), (2, 2)),
        # Jump operators that are not finite, or whose L^dag L overflows.
        lambda: _one_jump([[INF, 0], [0, 1]]),
        lambda: _one_jump([[NAN, 0], [0, 1]]),
        lambda: _one_jump([[1e308, 0], [0, 1e308]]),
        # States that are not finite (no numpy warning on the way), and a negative seed.
        lambda: nmwit.detect_entanglement(np.full((4, 4), NAN), HALF),
        lambda: nmwit.detect_entanglement(np.diag([INF, 0, 0, 0]), HALF),
        lambda: nmwit.adjoint_identity_max_residual(2, -1),
        # A maximum over no draws.
        lambda: nmwit.adjoint_identity_max_residual(0),
        lambda: nmwit.adjoint_identity_max_residual(-3, 1),
        # Matrices that are not finite or whose image or trace norm overflows.
        lambda: nmwit.trace_norm(np.full((2, 2), NAN)),
        lambda: nmwit.trace_norm(np.full((2, 2), 1e308)),
        lambda: nmwit.trace_norm(1e308 * np.outer([1, 0, 0, 1], [1, 0, 0, 1])),  # X pattern
        lambda: nmwit.extend_and_apply(_SNAPSHOT, np.full((4, 4), 1e308)),
        lambda: nmwit.projector([NAN, 0.0]),
        lambda: nmwit.projector([1e200, 1.0]),
        # A dimension that is not an integer >= 1 (a bool is not one), as for a generator's dim.
        *(lambda d=d: nmwit.max_entangled(d) for d in (0, -1, 1.5, True, "2")),
    ],
    ids=[
        "resolution=0", "resolution=-1", "resolution=nan", "resolution=inf",
        "constant-nan", "constant-inf", "tanh-scale-nan", "tabulated-time-nan",
        "dephasing-nan", "t=nan", "t=inf", "epsilon=inf",
        "gamma1=nan", "gamma2=-inf",
        "gamma1=8e307", "gamma2=9e307", "gamma1=gamma2=-5e307", "scan-overflow",
        "gamma1-complex", "gamma2-complex-zero-imag", "scan-gamma1-complex", "scan-gamma2-complex",
        "jump-inf", "jump-nan", "jump-1e308",
        "state-nan", "state-inf", "seed=-1", "draws=0", "draws=-3",
        "trace-norm-nan", "trace-norm-overflow", "trace-norm-x-overflow", "extend-overflow",
        "projector-nan", "projector-overflow",
        "max-entangled-0", "max-entangled--1", "max-entangled-1.5", "max-entangled-true",
        "max-entangled-string",
    ],
)
def test_bad_numeric_input_raises_parameter_out_of_range(build):
    with pytest.raises(ParameterOutOfRange):
        build()


_CHOI = nmwit.choi_of(_SNAPSHOT)


@pytest.mark.parametrize("z", [1j, 0.5 + 0j, 1e-6 + 1j, np.complex128(0.5), np.complex64(1j)],
                         ids=["1j", "0.5+0j", "1e-6+1j", "numpy-complex128", "numpy-complex64"])
@pytest.mark.parametrize(
    "build",
    [
        lambda z: kernel.check_tolerance(z),
        lambda z: nmwit.classify(_CHOI, z),
        lambda z: nmwit.scan(nmwit.dephasing(-1.0), [0.5, 1.0], 0.01, z),
        lambda z: nmwit.is_positive(HALF, tolerance=z),
        lambda z: nmwit.is_cp(HALF, tolerance=z),
        lambda z: nmwit.classify_by_witness(nmwit.build_witness(_SNAPSHOT), _CHOI, z),
        lambda z: nmwit.werner(z),
        lambda z: nmwit.werner_threshold(nmwit.MapFamilyPoint(0.4, 0.4), resolution=z),
        lambda z: nmwit.constant(z),
        lambda z: nmwit.eternal_tanh(z),
        lambda z: nmwit.tabulated([0.0, z], [1.0, 2.0]),
        lambda z: nmwit.tabulated([0.0, 1.0], [z, 2.0]),
        lambda z: nmwit.dephasing(z),
        lambda z: nmwit.small_time_map(nmwit.dephasing(-1.0), z, 0.01),
        lambda z: nmwit.small_time_map(nmwit.dephasing(-1.0), 1.0, z),
    ],
    ids=["check-tolerance", "classify", "scan", "is-positive", "is-cp", "classify-by-witness",
         "werner", "resolution", "constant", "tanh-scale", "tabulated-time", "tabulated-value",
         "dephasing", "t", "epsilon"],
)
def test_complex_scalars_raise_parameter_out_of_range(build, z):
    # float() refuses a Python complex and truncates a numpy one, Python cannot order a
    # complex and numpy orders it lexicographically: each used to escape as a bare TypeError
    # or pass with its imaginary part dropped.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange):
            build(z)


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: nmwit.werner(np.float64(2.0)), "got 2.0"),
        (lambda: nmwit.MapFamilyPoint(np.float64(INF), 0), "gamma1=inf, gamma2=0.0"),
        (lambda: nmwit.werner_threshold(HALF, resolution=np.float64(-1)), "got -1.0"),
        (lambda: nmwit.SmallTimeMap(nmwit.dephasing(-1.0), np.float64(NAN), 0.01),
         "got t=nan, epsilon=0.01"),
        (lambda: nmwit.SmallTimeMap(nmwit.dephasing(-1.0), 1.0, np.float64(INF)),
         "got t=1.0, epsilon=inf"),
        (lambda: nmwit.SmallTimeMap(nmwit.dephasing(-1.0), 1.0, np.float64(NAN)), "got nan"),
        (lambda: nmwit.phase_scan((np.float64(0), np.float64(INF)), (0, 1), (2, 2)),
         "got (0.0, inf), (0.0, 1.0)"),
        # A complex coefficient keeps its imaginary part (no float() of it).
        (lambda: nmwit.MapFamilyPoint(0.4 + 1e-3j, 0.4), "got gamma1=(0.4+0.001j), gamma2=0.4"),
        (lambda: nmwit.MapFamilyPoint(0, np.complex128(0.5)), "got gamma1=0.0, gamma2=(0.5+0j)"),
        (lambda: nmwit.phase_scan((0, 0.5 + 1j), (0, 1), (2, 2)), "got (0j, (0.5+1j)), (0.0, 1.0)"),
        (lambda: nmwit.werner(np.complex128(0.5)), "got (0.5+0j)"),
        (lambda: nmwit.small_time_map(nmwit.dephasing(-1.0), 1.0, np.complex128(0.01)), "got (0.01+0j)"),
    ],
    ids=["werner", "map-point", "resolution", "t=nan", "epsilon=inf", "epsilon=nan", "scan-range",
         "map-point-complex", "map-point-numpy-complex", "scan-range-complex", "werner-numpy-complex",
         "epsilon-numpy-complex"],
)
def test_numpy_scalars_are_shown_as_python_floats(build, shown):
    with pytest.raises(NmwitError) as raised:
        build()
    assert "np.float64" not in str(raised.value)
    assert str(raised.value).endswith(shown)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nmwit.trace_norm(np.zeros(3)),
        lambda: nmwit.trace_norm(np.zeros((2, 2, 2))),
        lambda: nmwit.trace_norm("x"),
        lambda: nmwit.extend_and_apply(_SNAPSHOT, "x"),
        lambda: nmwit.extend_and_apply(_SNAPSHOT, [[1, 2], [3]]),
        lambda: nmwit.detect_entanglement("x", HALF),
        lambda: nmwit.trace_norm(np.zeros((0, 0))),
        lambda: nmwit.eig_hermitian(np.zeros((0, 0))),
        lambda: nmwit.choi_state(np.zeros((0, 0))),
        lambda: nmwit.is_hermitian(np.zeros((0, 0))),
        *(call for X in ("x", [[1, 2], [3]]) for call in (
            lambda X=X: nmwit.choi_state(X),
            lambda X=X: nmwit.eig_hermitian(X),
            lambda X=X: nmwit.is_hermitian(X),
            lambda X=X: nmwit.projector(X),
            lambda X=X: nmwit.adjoint_identity_residual(X, np.ones(4), np.eye(4) / 4, 0.5),
            lambda X=X: nmwit.adjoint_identity_residual(nmwit.SIGMA_Z, X, np.eye(4) / 4, 0.5),
            lambda X=X: nmwit.adjoint_identity_residual(nmwit.SIGMA_Z, np.ones(4), X, 0.5))),
        # Jumps that are ragged, a string, or of the wrong shape.
        *(lambda jump=jump: _one_jump(jump) for jump in ([[1, 0], [0]], "sigma_x", np.eye(3))),
    ],
    ids=["trace-norm-vector", "trace-norm-stack", "trace-norm-string", "extend-string",
         "extend-ragged", "detect-string", "trace-norm-empty", "eig-hermitian-empty", "choi-state-empty",
         "is-hermitian-empty",
         *(f"{call}-{kind}" for kind in ("string", "ragged") for call in (
             "choi-state", "eig-hermitian", "is-hermitian", "projector", "adjoint-G", "adjoint-alpha",
             "adjoint-rho")),
         "jump-ragged", "jump-string", "jump-3x3"],
)
def test_input_that_is_not_a_numeric_matrix_raises_dimension_mismatch(build):
    # Each escaped as a LinAlgError or ValueError, or (a stack given to
    # trace_norm) returned a number.
    with pytest.raises(DimensionMismatch):
        build()


def _too_many_terms():
    return nmwit.LindbladGenerator(
        dim=2, terms=tuple((nmwit.constant(1.0), nmwit.SIGMA_Z) for _ in range(5)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: nmwit.CoefficientModel(kind="mystery"), MalformedDescription,
         "unknown coefficient kind 'mystery'"),
        (lambda: nmwit.tabulated([0.0, 1.0], [1.0]), MalformedDescription,
         "tabulated coefficient needs >= 2 aligned (time, value) pairs"),
        (lambda: nmwit.tabulated([0.0, 0.0], [1.0, 2.0]), MalformedDescription,
         "tabulated times must be strictly increasing"),
        (lambda: nmwit.tabulated([0.0, 1.0], [1.0, NAN]), MalformedDescription,
         "tabulated values must be finite"),
        (_too_many_terms, MalformedDescription, "5 terms exceed dim^2 = 4"),
        (lambda: nmwit.choi_state(np.eye(4)), NotUnitTrace, "Choi matrix trace 4 is not 1"),
        (lambda: nmwit.scan(nmwit.dephasing(1.0), [1.0, 0.5], 0.01), UnorderedGrid,
         "t_grid must be strictly ascending"),
        (lambda: nmwit.LindbladGenerator(dim=0, terms=()), MalformedDescription,
         "generator dim must be an integer >= 1, got 0"),
        # Matrix jumps that are ragged, hold a string, or an [re, im] entry of three numbers;
        # numpy and Python word the first and the last, so only the prefix is pinned.
        *((lambda matrix=matrix: nmwit.generator_from_dict({"dim": 2, "terms": [
            {"coefficient": {"kind": "constant", "value": 1.0}, "jump": {"matrix": matrix}}]}),
           MalformedDescription, message)
          for matrix, message in (
              ([[1, 0], [0]], "term 0: "),
              ([[1, "x"], [0, 1]],
               "term 0: a jump matrix entry must be a number or an [re, im] pair of numbers, got 'x'"),
              ([[[1, 0, 0], 0], [0, 1]], "term 0: "))),
        (lambda: nmwit.adjoint_identity_residual([[0, 1], [0, 0]], np.ones(4), np.eye(4) / 4, 0.5),
         NonHermitianInput, "adjoint identity requires a Hermitian jump operator"),
        (lambda: nmwit.adjoint_identity_residual(nmwit.SIGMA_Z, np.ones(3), np.eye(4) / 4, 0.5),
         DimensionMismatch, "incompatible shapes: G (2, 2), alpha (3,), rho (4, 4)"),
        (lambda: nmwit.adjoint_identity_residual(nmwit.SIGMA_Z, 1e150 * np.ones(4), 1e10 * np.eye(4), 0.5),
         ParameterOutOfRange, "the two sides of the adjoint identity overflow"),
        (lambda: nmwit.small_time_map(nmwit.dephasing(1.0), 0.0, 0.0), ParameterOutOfRange,
         "epsilon must be > 0, got 0.0"),
        (lambda: nmwit.MapFamilyPoint(NAN, 0.5), ParameterOutOfRange,
         "map coefficients must be real, with finite closed forms, got gamma1=nan, gamma2=0.5"),
        (lambda: nmwit.scan(nmwit.dephasing(1.0), [], 0.01), EmptyGrid, "t_grid is empty"),
        # A CoefficientModel built directly checks its fields as the factories do.
        (lambda: nmwit.CoefficientModel(kind="constant", value=1j), ParameterOutOfRange,
         "coefficient value must be real, got 1j"),
        (lambda: nmwit.CoefficientModel(kind="constant", value="1"), ParameterOutOfRange,
         "coefficient value must be real, got '1'"),
        (lambda: nmwit.CoefficientModel(kind="eternal_tanh", scale=np.complex128(2)), ParameterOutOfRange,
         "coefficient scale must be real, got (2+0j)"),
        (lambda: nmwit.CoefficientModel(kind="tabulated", times=(0.0, "1"), values=(1.0, 2.0)),
         ParameterOutOfRange, "tabulated time must be real, got '1'"),
        (lambda: nmwit.CoefficientModel(kind="tabulated", times=(0.0, 1.0), values=(1.0, 2j)),
         ParameterOutOfRange, "tabulated value must be real, got 2j"),
        (lambda: nmwit.constant("1"), ParameterOutOfRange, "coefficient value must be real, got '1'"),
        (lambda: nmwit.CoefficientModel(kind="constant", value=1.0, times=(0.0,)), MalformedDescription,
         "a coefficient of kind 'constant' does not read times"),
        (lambda: nmwit.CoefficientModel(kind="eternal_tanh", value=2.0, values=(1.0,)),
         MalformedDescription, "a coefficient of kind 'eternal_tanh' does not read value, values"),
        (lambda: nmwit.CoefficientModel(kind="tabulated", scale=1.0, times=(0.0, 1.0), values=(1.0, 2.0)),
         MalformedDescription, "a coefficient of kind 'tabulated' does not read scale"),
        # Text and other non-numbers given for a real scalar, which float() parses or refuses.
        (lambda: nmwit.scan(nmwit.dephasing(1.0), [1.0], 0.01, tolerance="1"), ParameterOutOfRange,
         "tolerance must be real, got '1'"),
        (lambda: nmwit.classify(_CHOI, tolerance="1"), ParameterOutOfRange,
         "tolerance must be real, got '1'"),
        (lambda: nmwit.is_positive(HALF, tolerance="x"), ParameterOutOfRange,
         "tolerance must be real, got 'x'"),
        (lambda: nmwit.is_cp(HALF, tolerance=None), ParameterOutOfRange, "tolerance must be real, got None"),
        (lambda: nmwit.werner("0.5"), ParameterOutOfRange, "Werner parameter must be real, got '0.5'"),
        (lambda: nmwit.werner_threshold(HALF, resolution="1e-6"), ParameterOutOfRange,
         "resolution must be real, got '1e-6'"),
        (lambda: nmwit.MapFamilyPoint("0.1", 0.2), ParameterOutOfRange, "gamma1 must be real, got '0.1'"),
        (lambda: nmwit.MapFamilyPoint(0.1, [0.2]), ParameterOutOfRange, "gamma2 must be real, got [0.2]"),
        (lambda: nmwit.CoefficientModel(kind="tabulated", times=5, values=(1.0,)), MalformedDescription,
         "tabulated times must be a sequence, got 5"),
        (lambda: nmwit.CoefficientModel(kind="tabulated", times=(0.0, 1.0), values=None),
         MalformedDescription, "tabulated values must be a sequence, got None"),
        # An integer beyond the float range, which float() refuses with OverflowError; repr()
        # refuses the second one, of over 4300 digits.
        (lambda: nmwit.scan(nmwit.dephasing(1.0), [1.0], 0.01, tolerance=10**400), ParameterOutOfRange,
         "tolerance must be within the float range"),
        (lambda: nmwit.werner(-(10**5000)), ParameterOutOfRange,
         "Werner parameter must be within the float range"),
    ],
    ids=[
        "unknown-kind", "tabulated-unaligned", "tabulated-times-not-increasing",
        "tabulated-value-nan", "terms-exceed-dim-squared", "choi-trace", "grid-order",
        "generator-dim-0", "ragged-matrix", "string-entry", "three-part-entry",
        "adjoint-jump-not-hermitian", "adjoint-alpha-shape", "adjoint-overflow", "epsilon-zero",
        "map-point-nan", "grid-empty", "coefficient-complex-value", "coefficient-text-value",
        "coefficient-complex-scale", "coefficient-text-time", "coefficient-complex-table-value",
        "constant-text-value", "constant-reads-no-times", "tanh-reads-no-value-or-values",
        "tabulated-reads-no-scale", "scan-text-tolerance", "classify-text-tolerance",
        "is-positive-text-tolerance", "is-cp-none-tolerance", "werner-text", "resolution-text",
        "map-point-text", "map-point-list", "tabulated-times-int", "tabulated-values-none",
        "scan-int-tolerance-beyond-float", "werner-int-beyond-repr",
    ],
)
def test_library_errors_are_typed_value_errors(build, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as raised:
            build()
    assert type(raised.value) is error and str(raised.value).startswith(message)
    assert isinstance(raised.value, NmwitError) and isinstance(raised.value, ValueError)


@pytest.mark.parametrize("build, message", [
    (lambda: nmwit.trace_norm([[0.0, 1.0], [0.0, 0.0]]),
     "matrix is not Hermitian within 1e-09 (max deviation 1)"),
    (lambda: nmwit.trace_norm([[0.0, 1e308], [-1e308, 0.0]]),
     "matrix is not Hermitian within 1e-09 (max deviation inf)"),
    (lambda: nmwit.trace_norm(np.zeros((2, 3))), "expected square matrices, got shape (2, 3)"),
], ids=["trace-norm-not-hermitian", "trace-norm-deviation-overflows", "trace-norm-not-square"])
def test_input_that_is_not_hermitian_raises_non_hermitian_input(build, message):
    # The trace norm is taken of Hermitian matrices only; no SVD stands in for the rest.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianInput) as raised:
            build()
    assert type(raised.value) is NonHermitianInput and str(raised.value) == message


@pytest.mark.parametrize("d", [1, 2, np.int64(3)])
def test_max_entangled_is_the_unit_ket_sum_of_ii_for_every_dimension(d):
    v = nmwit.max_entangled(d)
    assert v.shape == (d * d,) and not v.flags.writeable
    assert np.array_equal(v, np.eye(d).ravel() / np.sqrt(d))


def test_malformed_terms_are_named_and_typed_errors_inside_pass_through():
    def term(coefficient, jump="sigma_z"):
        return {"dim": 2, "terms": [{"coefficient": coefficient, "jump": jump}]}

    with pytest.raises(MalformedDescription, match=r"^term 0: "):
        nmwit.generator_from_dict(term({"kind": "constant", "value": 1.0}, {"matrix": [[1, 0], [0]]}))
    with pytest.raises(MalformedDescription, match=r"^tabulated values must be finite$"):
        nmwit.generator_from_dict(term({"kind": "tabulated", "times": [0, 1], "values": [0, NAN]}))
    with pytest.raises(MalformedDescription, match=r"^generator dim must be an integer >= 1, got 0$"):
        nmwit.LindbladGenerator(dim=0, terms=())


def test_werner_threshold_ends_at_float_spacing():
    # A resolution below float spacing used to bisect forever.
    thr = nmwit.werner_threshold(HALF, resolution=1e-300)
    assert abs(thr - 1 / 3) < 1e-6
    assert abs(thr - nmwit.werner_threshold(HALF)) < 1e-6
    # In one batch, points reach float spacing after different numbers of
    # steps, and an undetected point never starts; each stops on its own.
    g1 = np.array([0.5, 0.5, 0.4, 0.3, 0.2])
    g2 = np.array([0.5, 0.3, 0.45, 0.6, 0.2])
    hi, found = _werner_thresholds(g1, g2, 1e-300, 1e-9, _choi_weights(g1, g2)[:, 0])
    assert found.tolist() == [True] * 4 + [False]
    for a, b, thr in zip(g1[:-1], g2[:-1], hi[:-1].tolist()):
        point = nmwit.MapFamilyPoint(float(a), float(b))
        assert thr == nmwit.werner_threshold(point, resolution=1e-300)
        assert abs(thr - werner_threshold_closed(a, b)) < 1e-6


def test_a_well_formed_non_square_matrix_is_not_hermitian():
    # Only input that is not a nonempty numeric matrix raises (see above).
    assert not nmwit.is_hermitian(np.ones((2, 3)))
    assert not nmwit.is_hermitian([[1.0, 2.0]])


@pytest.mark.parametrize("run", [nmwit.scan], ids=["scan"])
@pytest.mark.parametrize(
    "grid, error",
    [
        (["a"], DimensionMismatch),
        ([[1.0, 2.0]], DimensionMismatch),
        ([0.5, [1.0, 2.0]], DimensionMismatch),
        ([1 + 2j], DimensionMismatch),
        (np.array([0.5, 1 + 2j]), DimensionMismatch),
        (np.ones((2, 2)), DimensionMismatch),
        (5.0, DimensionMismatch),
        ([None], ParameterOutOfRange),
        ([0.5, None], ParameterOutOfRange),
        (np.array([]), EmptyGrid),
        (np.array([1.0, 1.0]), UnorderedGrid),
    ],
    ids=["string", "nested", "ragged", "complex", "complex-array", "2-d-array", "bare-float",
         "none", "none-after-instant", "empty-array", "repeated-instant"],
)
def test_malformed_time_grids_raise_typed_errors_without_warnings(run, grid, error):
    # A complex array used to lose its imaginary part with a ComplexWarning;
    # the others escaped as a ValueError or TypeError. None reads as NaN,
    # which the snapshot's finiteness check rejects.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            run(nmwit.eternal_depolarizer(), grid, 0.01)


# Every entry that takes a verdict's tolerance; each runs _check_points,
# choi.divisibility_grid or classify_by_witness, which check it.
_TOLERANCE_ENTRIES = {
    "is_positive": lambda tol: nmwit.is_positive(nmwit.MapFamilyPoint(5, 5), tolerance=tol),
    "is_cp": lambda tol: nmwit.is_cp(HALF, tolerance=tol),
    "werner_threshold": lambda tol: nmwit.werner_threshold(HALF, tolerance=tol),
    "detect_entanglement": lambda tol: nmwit.detect_entanglement(nmwit.werner(0.5).matrix, HALF, tol),
    "phase_scan": lambda tol: nmwit.phase_scan((0.0, 0.5), (0.0, 1.0), (2, 2), tolerance=tol),
    "classify": lambda tol: nmwit.classify(nmwit.choi_of(_SNAPSHOT), tol),
    "scan": lambda tol: nmwit.scan(nmwit.eternal_depolarizer(), [0.5, 1.0], 0.01, tol),
    "classify_by_witness": lambda tol: nmwit.classify_by_witness(
        nmwit.build_witness(_SNAPSHOT), nmwit.choi_of(_SNAPSHOT), tol),
}


@pytest.mark.parametrize("tolerance", [NAN, INF, -INF, -1.0, np.float64(-1e-300)])
@pytest.mark.parametrize("entry", list(_TOLERANCE_ENTRIES))
def test_a_tolerance_that_is_not_finite_and_nonnegative_raises(entry, tolerance):
    # A NaN or negative tolerance used to call the positive map at HALF not
    # positive (MapNotPositive) and a PSD Choi state non-Markovian, and an
    # infinite one to call the non-positive map at (5, 5) positive.
    with pytest.raises(ParameterOutOfRange,
                       match=rf"^tolerance must be finite and >= 0, got {float(tolerance)!r}$"):
        _TOLERANCE_ENTRIES[entry](tolerance)


@pytest.mark.parametrize("entry", list(_TOLERANCE_ENTRIES))
def test_a_zero_tolerance_is_accepted(entry):
    _TOLERANCE_ENTRIES[entry](0.0)


# Jump matrix entries that are not JSON numbers, nor [re, im] pairs of them: strings that
# complex() would parse, bools, None, and pairs holding either; and an integer beyond floats.
_BAD_ENTRIES = [
    ([["1", "0"], ["0", "-1+2j"]], "'1'"),
    ([[True, 0], [0, False]], "True"),
    ([[1, None], [0, 1]], "None"),
    ([[1, [0, "1"]], [0, 1]], "[0, '1']"),
    ([[1, [False, 1]], [0, 1]], "[False, 1]"),
    ([[1, 0], [0, {"re": 1}]], "{'re': 1}"),
]


def _jump_description(matrix):
    return {"dim": 2, "terms": [{"coefficient": {"kind": "constant", "value": 1.0},
                                 "jump": {"matrix": matrix}}]}


@pytest.mark.parametrize("matrix, entry", _BAD_ENTRIES, ids=[e for _, e in _BAD_ENTRIES])
def test_a_jump_entry_that_is_not_a_number_or_a_pair_of_numbers_is_malformed(matrix, entry):
    message = f"term 0: a jump matrix entry must be a number or an [re, im] pair of numbers, got {entry}"
    with pytest.raises(MalformedDescription) as raised:
        nmwit.generator_from_dict(_jump_description(matrix))
    assert str(raised.value) == message


def test_an_integer_entry_beyond_the_float_range_is_malformed():
    with pytest.raises(MalformedDescription, match=r"^term 0: int too large to convert to float$"):
        nmwit.generator_from_dict(_jump_description([[10**400, 0], [0, 1]]))


def test_numbers_and_pairs_of_numbers_build_the_jump():
    gen = nmwit.generator_from_dict(_jump_description([[1, [0.0, -2]], [[0, 2], -1.5]]))
    assert np.array_equal(gen.terms[0][1], [[1, -2j], [2j, -1.5]])


@pytest.mark.parametrize("matrix, entry", _BAD_ENTRIES, ids=[e for _, e in _BAD_ENTRIES])
def test_a_generator_file_with_a_non_numeric_jump_entry_exits_2(matrix, entry, tmp_path, capsys):
    path = tmp_path / "generator.json"
    path.write_text(json.dumps(_jump_description(matrix)))
    assert cli.main(["divisibility", "--scenario", "custom", "--generator", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: cannot load generator {path}: term 0: a jump "
                                       f"matrix entry must be a number or an [re, im] pair of "
                                       f"numbers, got {entry}\n")
