"""Public library functions on generated finite values and malformed descriptions.

Whatever the input, a call returns or raises an NmwitError, raises no warning
(numpy's included) and ends within the deadline. The strategies draw plain
values; generators, coefficients and map points are built inside the call,
where their own errors belong. Sizes stay small: at most 5 instants, 3 steps
per scan axis and 3 draws.
"""

import math
import warnings
from datetime import timedelta

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nmwit

# Finite values, the extreme ones included.
FLOATS = (0.0, 1.0, -1.0, 0.5, -0.5, 0.25, 2.0, 1e-300, 5e-324, 1e154, 1e308, -1e308)
number = st.one_of(st.sampled_from(FLOATS), st.floats(-5.0, 5.0))
positive = st.one_of(st.sampled_from((5e-324, 1e-300, 1e-6, 0.01, 1.0, 1e308)), st.floats(1e-3, 2.0))
# Description entries, with some of the wrong type, shape or finiteness.
_entry = st.one_of(number, st.sampled_from(([1.0, -1.0], [0.0, 1e308], [1, 2, 3], [1], "x", None,
                                            True, math.nan, math.inf)))


def arrays(*shape):
    """Complex arrays of finite entries, uniform up to a drawn scale, about 30% of them zero."""
    def build(seed, scale):
        rng = np.random.default_rng(seed)
        parts = rng.uniform(-1.0, 1.0, (2, *shape)) * (rng.random((2, *shape)) < 0.7) * scale
        return parts[0] + 1j * parts[1]

    return st.builds(build, st.integers(0, 2**32), st.sampled_from((1.0, 5.0, 1e-300, 1e154, 1e308)))


def matrices(n):
    return arrays(n, n)


# Matrix or vector arguments that are a string or ragged.
malformed = st.sampled_from(("x", [[1, 2], [3]]))


# Time grids that are not a 1-D sequence of real numbers, or hold None.
malformed_grids = st.sampled_from((["a"], [None], [0.5, None], [[1.0, 2.0]], [1 + 2j], np.array([0.5, 1 + 2j]),
                                   np.ones((2, 2)), 5.0))


def hermitian(n):
    return matrices(n).map(lambda a: a / 2 + a.conj().T / 2)


def states(n):
    """Hermitian n x n matrices, scaled to unit trace where the trace allows it."""
    return hermitian(n).map(lambda a: a / np.trace(a).real if abs(np.trace(a).real) > 1e-3 else a)


coefficients = st.one_of(
    st.tuples(st.just("constant"), number),
    st.tuples(st.just("eternal_tanh"), number),
    st.lists(number, min_size=2, max_size=4).flatmap(lambda times: st.tuples(
        st.just("tabulated"), st.just(times), st.lists(number, min_size=len(times),
                                                       max_size=len(times)))))


def generator(dim, terms):
    """LindbladGenerator of (("constant" | "eternal_tanh" | "tabulated", *args), jump) terms."""
    terms = tuple((getattr(nmwit, kind)(*args), jump) for (kind, *args), jump in terms)
    return nmwit.LindbladGenerator(dim=dim, terms=terms)


@st.composite
def generators(draw):
    dim = draw(st.sampled_from((1, 2, 2, 3)))
    jumps = matrices(dim) if draw(st.integers(0, 3)) else matrices(2)
    return dim, draw(st.lists(st.tuples(coefficients, jumps), max_size=3))


@st.composite
def descriptions(draw):
    coefficient = st.one_of(
        st.builds(lambda v: {"kind": "constant", "value": v}, _entry),
        st.builds(lambda s: {"kind": "eternal_tanh", "scale": s}, _entry),
        st.builds(lambda ts, vs: {"kind": "tabulated", "times": ts, "values": vs},
                  st.lists(_entry, max_size=3), st.lists(_entry, max_size=3)),
        st.sampled_from(({"kind": "callable"}, {"kind": "other"}, {})))
    jump = st.one_of(
        st.sampled_from(("sigma_x", "SIGMA_Z", "sigma_w", 5, None, {"matrix": 5})),
        st.lists(st.lists(_entry, min_size=2, max_size=2), min_size=2, max_size=2),
        st.lists(st.integers(0, 3).flatmap(lambda w: st.lists(_entry, min_size=w, max_size=w)),
                 max_size=3),
    ).map(lambda j: {"matrix": j} if isinstance(j, list) else j)
    terms = draw(st.lists(st.fixed_dictionaries({"coefficient": coefficient, "jump": jump}),
                          max_size=3))
    dim = draw(st.sampled_from((1, 2, 2, 3, 0, "2")))
    return draw(st.sampled_from(({"dim": dim, "terms": terms}, {"dim": dim}, [terms])))


# Map coefficients: mostly positive maps, so that thresholds are bisected.
gammas = st.one_of(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 1.0)), st.tuples(number, number))

# Each public function, called on the values its strategy draws.
CALLS = {
    "generator_from_dict": (nmwit.generator_from_dict, st.tuples(descriptions())),
    "LindbladGenerator": (generator, st.tuples(
        st.sampled_from((1, 2, 0, -1, 2.0)), st.lists(st.tuples(coefficients, matrices(2)),
                                                      max_size=3))),
    "small_time_map": (lambda g, t, eps: nmwit.small_time_map(generator(*g), t, eps),
                       st.tuples(generators(), number, number)),
    "scan": (lambda g, grid, eps, tol: nmwit.scan(generator(*g), grid, eps, tol),
             st.tuples(generators(), st.one_of(st.lists(number, max_size=5, unique=True).map(sorted),
                                               st.lists(number, max_size=5), malformed_grids),
                       positive, positive)),
    "choi_state": (nmwit.choi_state, st.tuples(st.one_of(states(4), matrices(4), states(3), malformed))),
    "eig_hermitian": (nmwit.eig_hermitian, st.tuples(st.one_of(
        hermitian(4), matrices(2), arrays(2, 3), arrays(3), malformed))),
    "projector": (nmwit.projector, st.tuples(st.one_of(arrays(4), arrays(1), malformed))),
    "is_hermitian": (nmwit.is_hermitian, st.tuples(st.one_of(
        hermitian(4), matrices(2), arrays(2, 3), arrays(3), arrays(0, 0), malformed))),
    "MapFamilyPoint": (nmwit.MapFamilyPoint, gammas),
    "werner": (nmwit.werner, st.tuples(st.one_of(number, st.floats(0.0, 1.0)))),
    "werner_threshold": (
        lambda g, tol: nmwit.werner_threshold(nmwit.MapFamilyPoint(*g), tolerance=tol),
        st.tuples(gammas, positive)),
    "detect_entanglement": (
        lambda state, g, tol: nmwit.detect_entanglement(state, nmwit.MapFamilyPoint(*g), tol),
        st.tuples(st.one_of(states(4), matrices(4), states(2)), gammas, positive)),
    "phase_scan": (
        lambda r1, r2, steps, tol: nmwit.phase_scan(r1, r2, steps, tolerance=tol),
        st.tuples(st.tuples(number, number), st.tuples(number, number),
                  st.tuples(st.integers(-1, 3), st.integers(-1, 3)), positive)),
    "build_witness": (lambda g, t, eps: nmwit.build_witness(nmwit.small_time_map(generator(*g), t, eps)),
                      st.tuples(generators(), number, number)),
    "evaluate": (
        lambda g, t, eps, choi: nmwit.evaluate(
            nmwit.build_witness(nmwit.small_time_map(generator(*g), t, eps)), nmwit.choi_state(choi)),
        st.tuples(generators(), number, number, st.one_of(states(4), states(1), states(9)))),
    "optimal_decomposition": (
        lambda matrix: nmwit.optimal_decomposition(nmwit.choi_state(matrix)),
        st.tuples(st.one_of(states(4), matrices(4), states(9)))),
    "extend_and_apply": (
        lambda g, t, eps, X: nmwit.extend_and_apply(nmwit.small_time_map(generator(*g), t, eps), X),
        st.tuples(generators(), number, number,
                  st.one_of(states(4), matrices(4), matrices(2), st.sampled_from(("x", None))))),
    "trace_norm": (nmwit.trace_norm, st.tuples(st.one_of(
        hermitian(4), matrices(2), arrays(2, 3), arrays(3), arrays(2, 2, 2),
        st.sampled_from(("x", None, [[1, 2], [3]], np.full((2, 2), math.nan)))))),
    "adjoint_identity_residual": (nmwit.adjoint_identity_residual, st.tuples(
        st.one_of(hermitian(2), matrices(2), matrices(3), malformed), st.one_of(arrays(4), malformed),
        st.one_of(states(4), malformed), number)),
    "adjoint_identity_max_residual": (nmwit.adjoint_identity_max_residual, st.tuples(
        st.integers(-1, 3), st.integers(-2, 2**32))),
}


@settings(max_examples=490, deadline=timedelta(seconds=3), derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_public_functions_return_or_raise_an_nmwit_error_without_warnings(data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="function")
    func, arguments = CALLS[name]
    with np.errstate(all="ignore"):  # the strategies' own arithmetic on extreme values
        args = data.draw(arguments, label="arguments")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            func(*args)
        except nmwit.NmwitError:
            pass
    assert not caught, (name, [str(w.message) for w in caught])
