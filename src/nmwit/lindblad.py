"""Time-dependent Lindblad generators and first-order small-time maps.

A generator is a list of (coefficient function, jump operator) pairs acting as

    L_t(rho) = sum_a  c_a(t) * (L_a rho L_a^dag - (L_a^dag L_a rho + rho L_a^dag L_a) / 2)

and the snapshot map over a short step is kept in first-order form
N = id + epsilon * L_t, never exponentiated: the threshold formulas downstream
are exact for the first-order map and only approximate for exp(epsilon L).

A generator is compiled once, at construction, into one read-only stack: each
term's Choi image B_a = E P E^dag - (K P + P K)/2, formed by these matrix
products in complex arithmetic, with E = I_d (x) L_a, K = I_d (x) K_a,
K_a = L_a^dag L_a and P = |phi+><phi+|, one real read-only array per d. The
term's Liouville superoperator on a row-major vec(rho), S_a = L_a (x) conj(L_a)
- (K_a (x) I + I (x) K_a^T) / 2, is read off it by the reshuffle
S_a[(k,l),(i,j)] = B_a[(i,k),(j,l)] / P[0,0] (Havel, J. Math. Phys. 44, 534, 2003; Wood,
Biamonte & Cory, QIC 15, 759, 2015), once per generator, on first use. A grid
of instants is then one stack: coefficients() gives the rows c_a(t), the Choi
states are P + epsilon * sum_a c_a(t) B_a, and extend() applies id (x) N to a
stack as one contraction S(t) = sum_a c_a(t) S_a and one batched matmul on the
reshuffled stack, X[(i,a),(j,b)] -> X[(i,j),(a,b)]; single instants are the
one-row case. Each coefficient kind has one rule, CoefficientModel._fill.

The compiled stack is float64 when every image is exactly real, as for every
Pauli-diagonal generator (the eternal depolarizer, dephasing and
entanglement's map family), and holds the complex images' real parts bit for
bit; otherwise it is complex128. Only the compile decides real or complex:
what is built from the stack has its dtype, each the real part of its complex
counterpart bit for bit, so a real generator's stacks take half the bytes.

Each check runs once, where its input is made: the compile checks the jumps
and their images, a coefficient its parameters, small_time_map a map's t and
epsilon (real, finite, epsilon > 0), and choi.choi_of the Choi matrix it
builds. Generators and maps are immutable in value; a generator keeps its
superoperators, a map the Choi state and coefficient row choi.choi_of builds
for it (threads racing on a fresh one build the same read-only arrays twice).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import MalformedDescription, NmwitError, ParameterOutOfRange
from .kernel import (PAULI_BY_NAME, SIGMA_X, SIGMA_Y, SIGMA_Z, as_matrix, frozen, is_dim,
                     max_entangled, projector, real_scalar)

# Each coefficient kind, and the fields its rule reads.
_KINDS = {"constant": ("value",), "eternal_tanh": ("scale",), "tabulated": ("times", "values")}


@dataclass(frozen=True)
class CoefficientModel:
    """Scalar coefficient c(t) of one Lindblad term.

    kind selects the rule:
      constant      -> value
      eternal_tanh  -> scale * tanh(t)   (default scale -1, the eternally
                       negative coefficient of the benchmark depolarizer)
      tabulated     -> linear interpolation of (times, values); evaluation
                       outside the table domain raises ParameterOutOfRange

    Each field is stored as a float, or a tuple of floats, by kernel.real_scalar, so a complex,
    text or other non-number entry raises ParameterOutOfRange; a table that is not a sequence,
    and a field that the kind does not read and that is not its default, raise
    MalformedDescription.
    """

    kind: str
    value: float = 0.0
    scale: float = -1.0
    times: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MalformedDescription(f"unknown coefficient kind {self.kind!r}")
        object.__setattr__(self, "value", real_scalar(self.value, "coefficient value"))
        object.__setattr__(self, "scale", real_scalar(self.scale, "coefficient scale"))
        for name in ("times", "values"):
            if not np.iterable(table := getattr(self, name)):
                raise MalformedDescription(f"tabulated {name} must be a sequence, got {table!r}")
            object.__setattr__(self, name, tuple(real_scalar(x, f"tabulated {name[:-1]}") for x in table))
        unread = [name for name, default in _DEFAULTS.items()
                  if name not in _KINDS[self.kind] and getattr(self, name) != default]
        if unread:
            raise MalformedDescription(
                f"a coefficient of kind {self.kind!r} does not read {', '.join(unread)}")
        if not (math.isfinite(self.value) and math.isfinite(self.scale) and all(map(math.isfinite, self.times))):
            raise ParameterOutOfRange("coefficient value, scale and times must be finite")
        if self.kind == "tabulated":
            if len(self.times) != len(self.values) or len(self.times) < 2:
                raise MalformedDescription("tabulated coefficient needs >= 2 aligned (time, value) pairs")
            if any(b <= a for a, b in zip(self.times, self.times[1:])):
                raise MalformedDescription("tabulated times must be strictly increasing")
            if not all(math.isfinite(v) for v in self.values):
                raise MalformedDescription("tabulated values must be finite")

    def __call__(self, t: float) -> float:
        return float(self._fill([t], np.empty(1))[0])

    def _fill(self, times, out: np.ndarray) -> np.ndarray:
        """out (1-D) with c(t) at each instant of times written into it under the kind's rule.

        A tabulated coefficient raises ParameterOutOfRange at its first instant outside its table.
        """
        if self.kind == "constant":
            out.fill(self.value)
        elif self.kind == "eternal_tanh":
            out[:] = list(map(math.tanh, np.asarray(times, dtype=float).tolist()))
            out *= self.scale  # the same IEEE products as self.scale * math.tanh(t)
        else:
            t = np.asarray(times, dtype=float)
            outside = ~((self.times[0] <= t) & (t <= self.times[-1]))
            if outside.any():
                raise ParameterOutOfRange(f"t={t[np.argmax(outside)]:g} outside tabulated domain "
                                          f"[{self.times[0]:g}, {self.times[-1]:g}]")
            out[:] = np.interp(t, self.times, self.values)
        return out


_DEFAULTS = {f.name: f.default for f in fields(CoefficientModel) if f.name != "kind"}


def constant(value: float) -> CoefficientModel:
    return CoefficientModel(kind="constant", value=value)


def eternal_tanh(scale: float = -1.0) -> CoefficientModel:
    return CoefficientModel(kind="eternal_tanh", scale=scale)


def tabulated(times, values) -> CoefficientModel:
    return CoefficientModel(kind="tabulated", times=times, values=values)


def _as_coefficient(c) -> CoefficientModel:
    return c if isinstance(c, CoefficientModel) else constant(c)


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    """Diagonal-form generator on dim >= 1: at most dim^2 (coefficient, jump) terms; equal only to itself.

    Each jump is a numeric dim x dim matrix (DimensionMismatch otherwise).
    choi_images, one d^2 x d^2 Choi image B_a per term, is the one compiled stack
    (module docstring): float64 when every image is exactly real, else
    complex128; ParameterOutOfRange if any is not finite.
    """

    dim: int
    terms: tuple[tuple[CoefficientModel, np.ndarray], ...]
    label: str = "custom"
    choi_images: np.ndarray = field(init=False, repr=False, compare=False)
    # The terms' read-only S_a (_superoperators), compiled on first use and kept.
    superoperators = functools.cached_property(lambda self: _superoperators(self))

    def __post_init__(self) -> None:
        if not is_dim(self.dim):
            raise MalformedDescription(f"generator dim must be an integer >= 1, got {self.dim!r}")
        d, n, T = self.dim, self.dim**2, len(self.terms)
        if T > n:
            raise MalformedDescription(f"{T} terms exceed dim^2 = {n}")
        terms = tuple((_as_coefficient(coef), as_matrix(jump, (d, d))) for coef, jump in self.terms)
        L, K = LK = np.empty((2, T, d, d), dtype=complex)  # L_a and K_a = L_a^dag L_a of every term
        for a, (_, jump) in enumerate(terms):
            L[a] = jump
        eye, P = np.eye(d), _choi_input(d)  # promoted to complex in the products below
        with np.errstate(all="ignore"):  # overflow is reported below, as ParameterOutOfRange
            np.matmul(L.conj().swapaxes(1, 2), L, out=K)
            # E = I (x) L and I (x) K for every term, bit for bit the products np.kron forms.
            E, IK = EIK = (eye[:, None, :, None] * LK[..., None, :, None, :]).reshape(2, T, n, n)
            EP, sym = EIK @ P
            images = EP @ E.conj().swapaxes(1, 2)
            sym += P @ IK
            sym *= 0.5
            images -= sym  # B_a = E P E^dag - ((I (x) K) P + P (I (x) K))/2
        if not np.isfinite(images).all():
            raise ParameterOutOfRange("jump operators and their compiled images must be finite")
        if not np.count_nonzero(images.imag):  # exactly real, as every Pauli-diagonal generator's
            images = np.ascontiguousarray(images.real)
        images.setflags(write=False)
        object.__setattr__(self, "choi_images", images)
        LK.setflags(write=False)  # the jumps are kept as read-only views of L
        object.__setattr__(self, "terms", tuple((coef, LK[0, a]) for a, (coef, _) in enumerate(terms)))


def dephasing(coefficient=-1.0) -> LindbladGenerator:
    """Single sigma_z term with the given coefficient (default constant -1)."""
    return LindbladGenerator(dim=2, terms=((_as_coefficient(coefficient), SIGMA_Z),), label="dephasing")


def depolarizer(gx, gy, gz) -> LindbladGenerator:
    """Pauli-coefficient generator with terms on sigma_x, sigma_y, sigma_z."""
    terms = (
        (_as_coefficient(gx), SIGMA_X),
        (_as_coefficient(gy), SIGMA_Y),
        (_as_coefficient(gz), SIGMA_Z),
    )
    return LindbladGenerator(dim=2, terms=terms, label="depolarizer")


def eternal_depolarizer() -> LindbladGenerator:
    """The benchmark depolarizer: unit x/y coefficients, z coefficient -tanh(t).

    Its z coefficient is negative for every t > 0 while the full evolution
    stays completely positive, so snapshot indivisibility is present at all
    positive times.
    """
    gen = depolarizer(constant(1.0), constant(1.0), eternal_tanh())
    object.__setattr__(gen, "label", "eternal_depolarizer")
    return gen


@functools.cache
def _choi_input(d: int) -> np.ndarray:
    """P = |phi+><phi+| on the d^2-dimensional space, one real read-only array per d; numpy
    promotes it to P + 0i where it meets a complex stack."""
    return frozen(projector(max_entangled(d)).real, float)


def _reshuffle(X: np.ndarray, d: int) -> np.ndarray:
    """X[(i,a),(j,b)] -> X[(i,j),(a,b)] on the last two axes of a matrix or stack; its own inverse."""
    return X.reshape(*X.shape[:-2], d, d, d, d).swapaxes(-3, -2).reshape(X.shape)


def coefficients(gen: LindbladGenerator, times) -> np.ndarray:
    """c_a(t) of each term (columns) at each instant (rows), one term's column at a time.

    A tabulated column stops at its first instant outside its table;
    choi.grid_pass replays a failing grid to report the failure in grid order.
    """
    c = np.empty((len(times), len(gen.terms)))
    for (coef, _), column in zip(gen.terms, c.T):
        coef._fill(times, column)
    return c


def choi_matrices(gen: LindbladGenerator, c: np.ndarray, epsilon: float) -> np.ndarray:
    """Snapshot Choi matrices P + epsilon * sum_a c[:, a] B_a for coefficient rows c, read-only,
    of the images' dtype.

    The terms are summed in term order, as a loop over them adds them, with
    no (rows, terms, d^2, d^2) stack of products.
    """
    matrices = np.einsum("ka,aij->kij", c, gen.choi_images)
    matrices *= epsilon
    matrices += _choi_input(gen.dim)
    matrices.setflags(write=False)
    return matrices


def _superoperators(gen: LindbladGenerator) -> np.ndarray:
    """Each term's S_a[(k,l),(i,j)] = B_a[(i,k),(j,l)] / P[0,0] as a row of a contiguous (T, d^4)
    array of the images' dtype.

    numpy promotes the real p to p + 0i and divides a + bi by it as
    ((a + b*0) * (1/p), (b - a*0) * (1/p)), so a real image's entry a becomes
    (a + 0.0) * (1/p): the bits of the real part of the complex quotient of a + 0i.
    """
    T, d, B = len(gen.terms), gen.dim, gen.choi_images
    R = B.reshape(T, d, d, d, d).transpose(0, 2, 4, 1, 3)  # R[a,k,l,i,j] = B_a[(i,k),(j,l)]
    p = _choi_input(d)[0, 0]
    S = np.divide(R, p, order="C") if B.dtype.kind == "c" else np.multiply(R + 0.0, 1.0 / p, order="C")
    return frozen(S.reshape(T, d**4), S.dtype)


def extend(gen: LindbladGenerator, c: np.ndarray, epsilon: float, X: np.ndarray) -> np.ndarray:
    """X + epsilon * (id (x) L)(X) for coefficient rows c and one matrix or a stack X.

    Each row's S(t) = c(t) S, with S read off the Choi images, is its own
    vector-matrix product, so a row gives the same bits alone as in a stack.
    The stack's leading axes broadcast against the rows as in matmul: a
    (k, rows, n, n) stack applies each row's map to k matrices.
    """
    n = gen.dim**2
    S = (c[..., None, :] @ gen.superoperators).reshape(*c.shape[:-1], n, n)
    image = _reshuffle(_reshuffle(X, gen.dim) @ S.swapaxes(-1, -2), gen.dim)
    image *= epsilon
    image += X
    return image


def finite_image(gen: LindbladGenerator, c: np.ndarray, epsilon: float, X: np.ndarray) -> np.ndarray:
    """extend for coefficient rows c and a matrix or a stack X; ParameterOutOfRange unless the
    image is finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an image that is not finite is reported below
        image = extend(gen, c, epsilon, X)
    if not np.isfinite(image).all():
        raise ParameterOutOfRange("the operator and its image under id (x) N must be finite")
    return image


@dataclass(frozen=True)
class SmallTimeMap:
    """First-order snapshot map rho -> rho + epsilon * L_t(rho) at instant t."""

    generator: LindbladGenerator
    t: float
    epsilon: float
    # (ChoiState, coefficient row) of the map, set by the first choi.choi_of(map).
    _choi: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ParameterOutOfRange(f"epsilon must be > 0, got {float(self.epsilon)!r}")
        if not (math.isfinite(self.epsilon) and math.isfinite(self.t)):
            raise ParameterOutOfRange(
                f"t and epsilon must be finite, got t={float(self.t)!r}, epsilon={float(self.epsilon)!r}"
            )

    @property
    def dim(self) -> int:
        return self.generator.dim


def small_time_map(gen: LindbladGenerator, t: float, epsilon: float) -> SmallTimeMap:
    return SmallTimeMap(generator=gen, t=real_scalar(t, "t"), epsilon=real_scalar(epsilon, "epsilon"))


def extend_and_apply(m: SmallTimeMap, X: np.ndarray) -> np.ndarray:
    """(id (x) N)(X) for a bipartite operator X on the d^2-dimensional space.

    Identity acts on the first factor, the snapshot map on the second.
    Linear in X and Hermiticity-preserving. The one-instant case of extend.
    Raises DimensionMismatch unless X is a numeric d^2 x d^2 matrix, and
    ParameterOutOfRange unless X and its image are finite.
    """
    X = as_matrix(X, (m.dim**2, m.dim**2))
    return finite_image(m.generator, coefficients(m.generator, [m.t])[0], m.epsilon, X)


def _jump_from_desc(desc) -> np.ndarray:
    if isinstance(desc, str):
        try:
            return PAULI_BY_NAME[desc.lower()]
        except KeyError:
            raise MalformedDescription(
                f"unknown jump name {desc!r}; expected sigma_x/sigma_y/sigma_z") from None
    if isinstance(desc, dict) and "matrix" in desc:
        rows = []
        for row in desc["matrix"]:
            entries = []
            for entry in row:
                re, im = entry if isinstance(entry, (list, tuple)) else (entry, 0.0)
                if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
                    raise TypeError("a jump matrix entry must be a number or an [re, im] pair of "
                                    f"numbers, got {entry!r}")
                entries.append(complex(re, im))
            rows.append(entries)
        return np.array(rows, dtype=complex)
    raise MalformedDescription(f"jump must be a Pauli name or {{'matrix': ...}}, got {desc!r}")


def _coefficient_from_desc(desc: dict) -> CoefficientModel:
    kind = desc.get("kind")
    if kind == "constant":
        return constant(desc["value"])
    if kind == "eternal_tanh":
        return eternal_tanh(desc.get("scale", -1.0))
    if kind == "tabulated":
        return tabulated(desc["times"], desc["values"])
    raise MalformedDescription(f"unknown coefficient kind {kind!r} in generator description")


def generator_from_dict(desc: dict, label: str = "custom") -> LindbladGenerator:
    """Build a generator from the JSON description format.

    Format: {"dim": d, "terms": [{"coefficient": {...}, "jump": ...}, ...]}
    with jump a case-insensitive Pauli name or {"matrix": [[entry, ...], ...]}
    where each entry is a real number or an [re, im] pair of them; a bool or a
    string is not a number. A description that does not follow the format
    raises MalformedDescription.
    """
    if not isinstance(desc, dict):
        raise MalformedDescription("generator description must be a JSON object")
    terms = desc.get("terms")
    if not isinstance(terms, list):
        raise MalformedDescription(f"generator terms must be a list, got {terms!r}")
    parsed = []
    for k, term in enumerate(terms):
        if not (isinstance(term, dict) and isinstance(term.get("coefficient"), dict)):
            raise MalformedDescription(f"term {k} must be an object with a coefficient object")
        try:
            parsed.append((_coefficient_from_desc(term["coefficient"]), _jump_from_desc(term["jump"])))
        except KeyError as e:
            raise MalformedDescription(f"term {k} lacks the key {e}") from None
        except NmwitError:
            raise
        except (TypeError, ValueError, OverflowError) as e:  # wrong JSON type or shape, 10**400
            raise MalformedDescription(f"term {k}: {e}") from None
    return LindbladGenerator(dim=desc.get("dim"), terms=tuple(parsed), label=label)


def load_generator(path) -> LindbladGenerator:
    """Read a generator description file (JSON) from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    return generator_from_dict(desc, label=f"custom:{path}")
