import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import nmwit
from nmwit.errors import DimensionMismatch, ParameterOutOfRange
from nmwit.lindblad import _choi_input, _superoperators, choi_matrices, extend

from oracles import (
    BELL_PHI_PLUS,
    apply_generator,
    bell_choi,
    bloch_apply_pauli_generator,
    map_apply,
    rand_density,
    rand_hermitian,
    same_bits_as,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


# --- coefficient models ----------------------------------------------------

def test_constant_coefficient():
    c = nmwit.constant(2.5)
    assert c(0.0) == 2.5 and c(17.0) == 2.5


def test_eternal_tanh_matches_negative_tanh_exactly():
    c = nmwit.eternal_tanh()
    for t in (0.0, 0.25, 1.0, 3.7):
        assert c(t) == -math.tanh(t)
        assert c(t) == pytest.approx(-np.tanh(t), abs=1e-15)


def test_tabulated_interpolation_and_domain():
    c = nmwit.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    assert c(0.5) == pytest.approx(1.0)
    assert c(1.5) == pytest.approx(2.0)
    with pytest.raises(ParameterOutOfRange):
        c(2.5)
    with pytest.raises(ValueError):
        nmwit.tabulated([0.0, 0.0], [1.0, 2.0])  # times not increasing


# --- generator construction ------------------------------------------------

def test_generator_rejects_too_many_terms():
    terms = tuple((nmwit.constant(1.0), nmwit.SIGMA_Z) for _ in range(5))
    with pytest.raises(ValueError):
        nmwit.LindbladGenerator(dim=2, terms=terms)


def test_generator_rejects_wrong_jump_dimension():
    with pytest.raises(DimensionMismatch):
        nmwit.LindbladGenerator(dim=2, terms=((nmwit.constant(1.0), np.eye(3)),))


# The default phases but shrink: a failing example is reported as found, where
# shrinking it (through 40-digit mpmath evaluations, or through generator
# builds) would take minutes.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@st.composite
def jump_sets(draw):
    """(d, jumps): 1 to d^2 complex d x d jumps, signed zeros included, with d = 1 to 3."""
    d = draw(st.integers(1, 3))
    part = st.floats(-2.0, 2.0) | st.sampled_from((0.0, -0.0))
    entries = st.builds(complex, part, part)
    jump = st.lists(entries, min_size=d * d, max_size=d * d).map(
        lambda xs: np.array(xs).reshape(d, d))
    return d, draw(st.lists(jump, min_size=1, max_size=d * d))


def _exact_superoperator_error(S, L):
    """max |S - (L (x) conj(L) - (K (x) I + I (x) K^T)/2)|, K = L^dag L, evaluated at 40 digits."""
    d = len(L)
    with mpmath.workdps(40):
        M = [[mpmath.mpc(complex(z)) for z in row] for row in L]
        K = [[mpmath.fsum(mpmath.conj(M[k][i]) * M[k][j] for k in range(d)) for j in range(d)]
             for i in range(d)]
        worst = mpmath.mpf(0)
        for a, b, i, j in itertools.product(range(d), repeat=4):
            exact = M[a][i] * mpmath.conj(M[b][j]) - (
                (K[a][i] if b == j else 0) + (K[j][b] if a == i else 0)) / 2
            worst = max(worst, abs(mpmath.mpc(complex(S[a * d + b, i * d + j])) - exact))
        return float(worst)


@settings(max_examples=80, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(jump_sets())
def test_compiled_choi_images_bit_for_bit_and_their_superoperators_to_2_ulp(dim_jumps):
    # B_a is the term's Choi image E P E^dag - (K P + P K)/2 with E = I (x) L and
    # K = I (x) L^dag L, formed as np.kron and the matrix products form it, and kept
    # real when every image is exactly real. The superoperator S_a read off it by
    # the reshuffle is the Kronecker form of the term's Liouville superoperator to
    # 2 ulp of ||L_a||_F^2, the scale of its entries.
    d, jumps = dim_jumps
    gen = nmwit.LindbladGenerator(dim=d, terms=tuple((1.0, L) for L in jumps))
    eye, P = np.eye(d), _choi_input(d)
    assert gen.choi_images.shape == (len(jumps), d * d, d * d)
    assert not gen.choi_images.flags.writeable
    S = _superoperators(gen)
    assert S.shape == (len(jumps), d**4) and S.flags.c_contiguous
    for Sa, B, L in zip(S, gen.choi_images, jumps):
        E, IK = np.kron(eye, L), np.kron(eye, L.conj().T @ L)
        assert same_bits_as(B, E @ P @ E.conj().T - (IK @ P + P @ IK) / 2)
        scale = np.linalg.norm(L) ** 2
        assert _exact_superoperator_error(Sa.reshape(d * d, d * d), L) <= 2 * np.finfo(float).eps * scale


def test_superoperators_of_pauli_jumps_are_exact():
    gen, eye = nmwit.depolarizer(1.0, 1.0, 1.0), np.eye(2)
    for Sa, (_, L) in zip(_superoperators(gen), gen.terms):
        K = L.conj().T @ L
        exact = np.kron(L, L.conj()) - (np.kron(K, eye) + np.kron(eye, K.T)) / 2
        assert np.array_equal(Sa.reshape(4, 4), exact)


@st.composite
def qubit_coefficient_stacks(draw):
    """(generator, rows c): 0 to 4 qubit jumps and one row or many, signed zeros included."""
    part = st.floats(-2.0, 2.0) | st.sampled_from((0.0, -0.0))
    jump = st.lists(st.builds(complex, part, part), min_size=4, max_size=4).map(
        lambda xs: np.array(xs).reshape(2, 2))
    jumps = draw(st.lists(jump, max_size=4))
    rows = draw(st.just(1) | st.integers(2, 40))
    coefficient = st.floats(-1e3, 1e3) | st.sampled_from((0.0, -0.0))
    c = draw(st.lists(coefficient, min_size=rows * len(jumps), max_size=rows * len(jumps)))
    gen = nmwit.LindbladGenerator(dim=2, terms=tuple((1.0, L) for L in jumps))
    return gen, np.array(c, dtype=float).reshape(rows, len(jumps))


@settings(max_examples=150, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(qubit_coefficient_stacks(), st.sampled_from((1.0, 0.01)) | st.floats(1e-6, 10.0))
def test_choi_matrices_add_the_terms_in_term_order_bit_for_bit(gen_c, eps):
    # A loop that adds c[:, a] B_a into a zeroed stack, term by term, then
    # scales and shifts it: no terms (T = 0), one row and signed zeros included.
    gen, c = gen_c
    loop = np.zeros((len(c), 4, 4), dtype=complex)
    for a, B in enumerate(gen.choi_images):
        loop += c[:, a, None, None] * B
    loop *= eps
    loop += _choi_input(2)
    matrices = choi_matrices(gen, c, eps)
    assert matrices.shape == loop.shape and not matrices.flags.writeable
    assert same_bits_as(matrices, loop)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(jump_sets(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_choi_matrices_and_extensions_are_the_per_row_results(dim_jumps, k, seed):
    # The Choi matrices add the terms in term order, as a loop over the terms
    # does, and each row of a stacked extension has the bits of that row alone.
    d, jumps = dim_jumps
    gen = nmwit.LindbladGenerator(dim=d, terms=tuple((1.0, L) for L in jumps))
    rng = np.random.default_rng(seed)
    c, eps = rng.uniform(-1.0, 1.0, (k, len(jumps))), 0.01
    loop = np.zeros((k, d * d, d * d), dtype=complex)
    for a, B in enumerate(gen.choi_images):
        loop += c[:, a, None, None] * B
    loop *= eps
    loop += _choi_input(d)
    assert same_bits_as(choi_matrices(gen, c, eps), loop)
    X = np.stack([rand_hermitian(rng, d * d) for _ in range(k)])
    stacked, shared = extend(gen, c, eps, X), extend(gen, c, eps, X[0])
    for row in range(k):
        assert extend(gen, c[row], eps, X[row]).tobytes() == stacked[row].tobytes()
        assert extend(gen, c[row], eps, X[0]).tobytes() == shared[row].tobytes()
    # A (2, k) stack applies each row's map to both of its matrices, bit for bit.
    pair = extend(gen, c, eps, np.stack([X, X[::-1]]))
    assert pair[0].tobytes() == stacked.tobytes()
    assert pair[1].tobytes() == extend(gen, c, eps, X[::-1]).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(jump_sets(), st.integers(1, 6), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
def test_extension_of_the_choi_input_is_the_choi_matrix(dim_jumps, k, eps, seed):
    # C = (id (x) N)(P): extend, through the superoperators read off the Choi
    # images, and choi_matrices, which sums the images, agree to 2 ulp of the
    # scale 1 + eps * max_k sum_a |c_ka| ||L_a||_F^2 of their entries.
    d, jumps = dim_jumps
    jumps = [(L + L.conj().T) / 2 for L in jumps]
    gen = nmwit.LindbladGenerator(dim=d, terms=tuple((1.0, L) for L in jumps))
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, len(jumps)))
    scale = 1 + eps * (np.abs(c) @ [np.linalg.norm(L) ** 2 for L in jumps]).max()
    error = np.abs(extend(gen, c, eps, _choi_input(d)) - choi_matrices(gen, c, eps)).max()
    assert error <= 2 * np.finfo(float).eps * scale


def test_choi_input_is_one_read_only_array_per_dimension():
    for d in (1, 2, 3):
        P = _choi_input(d)
        assert P is _choi_input(d)
        assert not P.flags.writeable
        with pytest.raises(ValueError):
            P[0, 0] = 0.0


def test_generators_compare_and_hash_by_identity():
    a, b = nmwit.eternal_depolarizer(), nmwit.eternal_depolarizer()
    assert a == a and a != b and hash(a) == hash(a)
    m = nmwit.small_time_map(a, 1.0, 0.01)
    assert m != nmwit.small_time_map(b, 1.0, 0.01)
    fresh = nmwit.small_time_map(a, 1.0, 0.01)
    assert m == fresh and hash(m) == hash(fresh) and len({m, fresh}) == 1
    assert m != nmwit.small_time_map(a, 1.0, 0.02) and m != nmwit.small_time_map(a, 2.0, 0.01)


# --- the compiled dtype ------------------------------------------------------

_PAULIS = (np.eye(2), nmwit.SIGMA_X, nmwit.SIGMA_Y, nmwit.SIGMA_Z)
_COMPLEX_IMAGE_JUMP = np.array([[0.2, 0.3 - 0.6j], [0.3 + 0.6j, -0.1]])


@st.composite
def pauli_diagonal_generators(draw):
    """Qubit generators whose 0 to 4 jumps are real multiples of I and the Paulis."""
    scale = st.floats(-2.0, 2.0) | st.sampled_from((0.0, -0.0))
    jumps = draw(st.lists(st.builds(lambda k, r: r * _PAULIS[k], st.integers(0, 3), scale), max_size=4))
    return nmwit.LindbladGenerator(dim=2, terms=tuple((1.0, L) for L in jumps))


@settings(max_examples=80, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(pauli_diagonal_generators(), jump_sets())
def test_compiled_images_are_real_exactly_when_every_image_is(pauli_gen, dim_jumps):
    # Pauli-diagonal generators compile to float64; any other jump set compiles to
    # complex128 exactly when one of its images, formed in complex arithmetic, has
    # a nonzero imaginary part. Either way the superoperators have the bits of the
    # complex quotients of the reshuffled images (a real one as complex) by P[0,0].
    from nmwit.entanglement import _FAMILY
    named = (_FAMILY, nmwit.eternal_depolarizer(), nmwit.dephasing(), nmwit.depolarizer(0.3, -1.0, 2.0))
    for gen in (pauli_gen, *named):
        assert gen.choi_images.dtype == np.float64
    _, jumps = dim_jumps
    for jump_set in (jumps, [L.real for L in jumps], [_COMPLEX_IMAGE_JUMP]):
        d = len(jump_set[0])
        gen = nmwit.LindbladGenerator(dim=d, terms=tuple((1.0, L) for L in jump_set))
        eye, P = np.eye(d), _choi_input(d)
        imaginary = False
        for L in jump_set:
            E, IK = np.kron(eye, L), np.kron(eye, L.conj().T @ L)
            imaginary |= bool((E @ P @ E.conj().T - (IK @ P + P @ IK) / 2).imag.any())
        assert gen.choi_images.dtype == (np.complex128 if imaginary else np.float64)
        R = gen.choi_images.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).astype(complex)
        assert same_bits_as(_superoperators(gen), (R / complex(P[0, 0])).reshape(len(jump_set), -1))
    assert gen.choi_images.dtype == np.complex128  # the last set's image is not real


@settings(max_examples=60, deadline=None, derandomize=True, phases=_NO_SHRINK)
@given(pauli_diagonal_generators() | jump_sets().map(lambda dj: nmwit.LindbladGenerator(
    dim=dj[0], terms=tuple((1.0, L.real) for L in dj[1]))), st.integers(1, 500),
    st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
def test_real_stacks_extend_and_solve_as_their_complex_forms(gen, k, eps, seed):
    # The Werner walk extends and solves real stacks, detect_entanglement the
    # complex form of one matrix: a real stack's extension has the bits of the
    # real part of its complex form's extension, whose imaginary part is exactly
    # zero, and eigvalsh gives both the same bits, in a stack and one at a time.
    # On qubits, X holds Werner states (X-pattern images) among random symmetric matrices.
    from nmwit.entanglement import _werner_matrices
    from nmwit.kernel import eigvalsh
    n, T = gen.dim**2, len(gen.terms)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, (k, T))
    X = rng.normal(size=(2, k, n, n))
    X += X.swapaxes(-1, -2)
    if n == 4:
        werner = rng.random((2, k)) < 0.5
        X[werner] = _werner_matrices(rng.random(np.count_nonzero(werner)))
    images = extend(gen, c, eps, X)
    assert images.dtype == np.float64
    assert same_bits_as(images, extend(gen, c, eps, X.astype(complex)))
    for i in range(2):
        values = eigvalsh(images[i])
        assert values.tobytes() == eigvalsh(images[i].astype(complex)).tobytes()
        for j in rng.choice(k, min(k, 5), replace=False):
            assert values[j].tobytes() == eigvalsh(images[i, j].astype(complex)).tobytes()


# --- apply_generator ---------------------------------------------------------

def test_unital_fixed_point():
    gen = nmwit.dephasing(1.0)
    out = apply_generator(gen, np.eye(2) / 2, 0.0)
    assert np.abs(out).max() < 1e-15


def test_dephasing_on_plus_state():
    out = apply_generator(nmwit.dephasing(1.0), PLUS, 0.0)
    assert np.abs(out - np.array([[0, -1], [-1, 0]])).max() < 1e-15


def test_depolarizer_on_ground_state():
    gen = nmwit.depolarizer(1.0, 1.0, nmwit.eternal_tanh())
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    out = apply_generator(gen, ket0, 0.0)  # tanh(0) = 0
    expected = 2.0 * np.diag([-1.0, 1.0])
    assert np.abs(out - expected).max() < 1e-15
    assert np.abs(out - bloch_apply_pauli_generator((1.0, 1.0, 0.0), ket0)).max() < 1e-12


def test_pauli_generator_matches_bloch_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = tuple(rng.uniform(-1.5, 1.5, size=3))
        gen = nmwit.depolarizer(*g)
        rho = rand_density(rng, 2)
        out = apply_generator(gen, rho, 0.0)
        assert np.abs(out - bloch_apply_pauli_generator(g, rho)).max() < 1e-12


def test_generator_output_traceless_hermitian():
    rng = np.random.default_rng(22)
    gen = nmwit.LindbladGenerator(
        dim=2,
        terms=(
            (nmwit.constant(0.7), rand_hermitian(rng, 2)),
            (nmwit.constant(-0.3), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))),
        ),
    )
    for _ in range(10):
        rho = rand_density(rng, 2)
        out = apply_generator(gen, rho, 0.0)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_apply_generator_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_generator(nmwit.dephasing(1.0), np.eye(4), 0.0)


# --- small-time map ----------------------------------------------------------

def test_zero_generator_map_is_identity():
    gen = nmwit.depolarizer(0.0, 0.0, 0.0)
    m = nmwit.small_time_map(gen, 0.0, 0.37)
    rho = rand_density(np.random.default_rng(23), 2)
    assert np.abs(map_apply(m, rho) - rho).max() < 1e-15


def test_dephasing_small_time_map_on_plus_state():
    m = nmwit.small_time_map(nmwit.dephasing(-1.0), 0.0, 0.01)
    out = map_apply(m, PLUS)
    assert np.abs(out - np.array([[0.5, 0.51], [0.51, 0.5]])).max() < 1e-15


def test_small_time_map_preserves_trace():
    rng = np.random.default_rng(24)
    gen = nmwit.depolarizer(0.8, -0.4, 1.3)
    m = nmwit.small_time_map(gen, 0.5, 0.02)
    for _ in range(10):
        rho = rand_density(rng, 2)
        assert abs(np.trace(map_apply(m, rho)) - 1.0) < 1e-12


def test_epsilon_must_be_positive():
    with pytest.raises(ParameterOutOfRange, match=r"^epsilon must be > 0, got 0\.0$"):
        nmwit.small_time_map(nmwit.dephasing(1.0), 0.0, 0.0)
    with pytest.raises(ParameterOutOfRange, match=r"^epsilon must be > 0, got -0\.01$"):
        nmwit.small_time_map(nmwit.dephasing(1.0), 0.0, -0.01)


# --- extension to the doubled space -----------------------------------------

def test_extend_zero_generator_is_identity():
    m = nmwit.small_time_map(nmwit.depolarizer(0.0, 0.0, 0.0), 0.0, 0.01)
    X = rand_density(np.random.default_rng(25), 4)
    assert np.abs(nmwit.extend_and_apply(m, X) - X).max() < 1e-15


def test_extend_dephasing_on_maximally_entangled():
    m = nmwit.small_time_map(nmwit.dephasing(-1.0), 0.0, 0.01)
    out = nmwit.extend_and_apply(m, nmwit.projector(BELL_PHI_PLUS))
    assert np.abs(out - bell_choi((0.0, 0.0, -1.0), 0.01)).max() < 1e-14


def test_extend_preserves_trace_and_hermiticity():
    m = nmwit.small_time_map(nmwit.eternal_depolarizer(), 1.0, 0.01)
    out = nmwit.extend_and_apply(m, nmwit.projector(BELL_PHI_PLUS))
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_extend_is_linear():
    rng = np.random.default_rng(26)
    m = nmwit.small_time_map(nmwit.depolarizer(1.0, 0.5, -0.7), 0.0, 0.02)
    X, Y = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
    a, b = 0.3, -1.7
    lhs = nmwit.extend_and_apply(m, a * X + b * Y)
    rhs = a * nmwit.extend_and_apply(m, X) + b * nmwit.extend_and_apply(m, Y)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_scenario_generators_are_unital():
    for gen, t in ((nmwit.dephasing(-1.0), 0.0), (nmwit.eternal_depolarizer(), 0.8)):
        m = nmwit.small_time_map(gen, t, 0.01)
        assert np.abs(map_apply(m, np.eye(2) / 2) - np.eye(2) / 2).max() < 1e-12


def test_extend_dimension_mismatch():
    m = nmwit.small_time_map(nmwit.dephasing(1.0), 0.0, 0.01)
    with pytest.raises(DimensionMismatch):
        nmwit.extend_and_apply(m, np.eye(2))


# --- JSON description format -------------------------------------------------

def test_generator_from_dict_pauli_names_case_insensitive():
    spec = {
        "dim": 2,
        "terms": [
            {"coefficient": {"kind": "constant", "value": 1.0}, "jump": "SIGMA_X"},
            {"coefficient": {"kind": "eternal_tanh"}, "jump": "Sigma_Z"},
        ],
    }
    gen = nmwit.generator_from_dict(spec)
    assert np.abs(gen.terms[0][1] - nmwit.SIGMA_X).max() == 0
    assert np.abs(gen.terms[1][1] - nmwit.SIGMA_Z).max() == 0
    assert gen.terms[1][0](1.0) == -np.tanh(1.0)


def test_generator_from_dict_matrix_jump():
    spec = {
        "dim": 2,
        "terms": [
            {
                "coefficient": {"kind": "tabulated", "times": [0, 1], "values": [0.5, 1.5]},
                "jump": {"matrix": [[0, [0, -1]], [[0, 1], 0]]},
            }
        ],
    }
    gen = nmwit.generator_from_dict(spec)
    assert np.abs(gen.terms[0][1] - nmwit.SIGMA_Y).max() == 0
    assert gen.terms[0][0](0.5) == pytest.approx(1.0)


def test_generator_from_dict_rejects_unknowns():
    with pytest.raises(ValueError):
        nmwit.generator_from_dict({"dim": 2, "terms": [{"coefficient": {"kind": "constant", "value": 1}, "jump": "sigma_w"}]})
    with pytest.raises(ValueError):
        nmwit.generator_from_dict({"dim": 2, "terms": [{"coefficient": {"kind": "mystery"}, "jump": "sigma_z"}]})


def test_load_generator_roundtrip(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({
        "dim": 2,
        "terms": [{"coefficient": {"kind": "constant", "value": -1.0}, "jump": "sigma_z"}],
    }))
    gen = nmwit.load_generator(path)
    ref = nmwit.dephasing(-1.0)
    rho = rand_density(np.random.default_rng(27), 2)
    assert np.abs(
        apply_generator(gen, rho, 0.3) - apply_generator(ref, rho, 0.3)
    ).max() < 1e-15
