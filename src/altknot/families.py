"""Named diagram families: generators by ribbon surgery, and closed forms.

Every family member is one shape: a necklace of crossings, some grown
into ribbons, an edge twisted and rings chained on.  All moves of one
member edit one ``surgery._Builder``; ``generate`` finishes it, deriving
the kind and running ``validate``'s checks on the builder's own lists
once.  The closed forms are combinations of the Chebyshev-type basis in
:mod:`altknot.polynomials`; ``verify_member`` checks a generator against
its formula by exact characteristic-polynomial equality.  Each family is
one ``Family`` record (spec prefix, parameters, shape, closed form), bound
to a module name such as ``CYCLIC_TORUS`` and listed in ``FAMILIES``; a
``FamilySpec`` holds its record, and everything that dispatches on a
family, the CLI included, reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable

from .diagram import IN, OUT, Diagram
from .limits import decimal_int, max_vertices
from .polynomials import IntPoly, X, _J, _read, charpoly, jpoly
from .spectra import adjacency
from .surgery import _Builder, compose_twist

class FamilyError(ValueError):
    """Unknown family or out-of-range parameters."""


@dataclass(frozen=True)
class FamilySpec:
    """A family record plus the integer parameters selecting one member."""

    family: Family
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        family = self.family
        if not isinstance(family, Family):
            raise FamilyError(f"unknown family {family!r}")
        prefix, values = family.prefix, tuple(self.params)
        for v in values:
            if type(v) is not int:  # bool and float included: never coerced
                raise FamilyError(
                    f"{prefix}: parameters must be integers, got {v!r}")
        object.__setattr__(self, "params", values)
        if len(values) != len(family.names):
            raise FamilyError(
                f"{prefix} takes parameters {family.names}, got {values}")
        for name, lo, v in zip(family.names, family.minima, values):
            if v < lo:
                raise FamilyError(
                    f"{prefix}: {name} out of range ({name} >= {lo}, got {v})")

    def __str__(self) -> str:
        return spec_string(self)


Shape = tuple[int, tuple[int, ...], int, int]  # (v, lengths, twist, rings)


@dataclass(frozen=True, eq=False)
class Family:
    """One named family: its CLI prefix, parameters, shape and closed form,
    `shape` and `formula` taking the member's parameters in the order of
    `names`.  The shape (v, lengths, twist, rings) is the v-crossing
    necklace, crossing i grown into a ribbon of lengths[i] crossings, edge
    0 twisted `twist` times and `rings` circles chained on.  Every formula
    takes a ring (x, J), X and jpoly by default, in which `closed_form`
    and `check_identities` evaluate it.

    The verify sweep runs every parameter from its minimum up to the sweep
    maximum; a `descending` family, symmetric in its ribbons, keeps only
    the non-increasing tuples.  Records compare by identity, and their
    repr leaves out the two functions, so a spec's repr is deterministic.
    """

    prefix: str
    names: tuple[str, ...]
    minima: tuple[int, ...]
    shape: Callable[..., Shape] = field(repr=False)
    formula: Callable[..., IntPoly] = field(repr=False)
    descending: bool = False

    def __reduce__(self) -> str:
        """A copy or pickle of a record is the module name bound to it, so
        a copied spec holds the same record; with no such name, TypeError."""
        for name, value in globals().items():
            if value is self:
                return name
        raise TypeError(f"family record {self.prefix!r} is bound to no name")

    def sweep(self, maximum: int) -> list[FamilySpec]:
        """Members with every parameter at most `maximum` and no more
        vertices than the cap, in lexicographic parameter order.  A member
        has at least as many vertices as each of its parameters, so no
        parameter range runs past the cap."""
        if type(maximum) is not int:
            raise FamilyError(
                f"sweep maximum must be an integer, got {maximum!r}")
        cap = max_vertices()
        top = min(maximum, cap)
        grid = product(*(range(lo, top + 1) for lo in self.minima))
        return [FamilySpec(self, p) for p in grid
                if (not self.descending or list(p) == sorted(p, reverse=True))
                and _size(*self.shape(*p)) <= cap]


def _size(v: int, lengths: tuple[int, ...], twist: int, rings: int) -> int:
    """Vertices of a shape: v, l - 1 more per ribbon of l crossings, one
    per twist and two per ring."""
    return v + sum(lengths) - len(lengths) + twist + 2 * rings


# ---------------------------------------------------------------------------
# Seeds, assembled unchecked straight into a builder
# ---------------------------------------------------------------------------

def _seed(rotation: list[tuple[int, int, int, int]]) -> _Builder:
    """A builder for the rings of dart ids `rotation`, one per vertex.
    Edge i has tail dart 2i and head dart 2i + 1, so a dart's ring places
    it and its id gives its twin and direction."""
    b = _Builder()
    b._add(*[(i ^ 1, IN if i & 1 else OUT) for i in range(4 * len(rotation))])
    b.rotation = rotation
    return b


def _cyclic_torus(v: int) -> _Builder:
    """Necklace of v crossings: antiparallel bigons in a cycle, two v-gon
    faces.  v = 1 is the one-vertex two-loop twist.  Edge i runs from
    crossing i to i + 1 and edge v + i back, both modulo v."""
    rings = []
    for i in range(v):
        p = (i - 1) % v
        rings.append((2 * i, 2 * (v + i) + 1, 2 * (v + p), 2 * p + 1))
    return _seed(rings)


def _twist_chain(v: int) -> _Builder:
    """A circle twisted v times: loops at both chain ends, v-1 bigons.
    Edge i runs from crossing i to i + 1 and edge v - 1 + i back; edges
    2v - 2 and 2v - 1 are the loops at crossings 0 and v - 1."""
    if v == 1:
        return _seed([(0, 1, 2, 3)])
    rings = [(4 * v - 4, 4 * v - 3, 0, 2 * v - 1)]
    rings += [(2 * i, 2 * (v + i) - 1, 2 * (v + i) - 4, 2 * i - 1)
              for i in range(1, v - 1)]
    rings.append((4 * v - 2, 4 * v - 1, 4 * v - 6, 2 * v - 3))
    return _seed(rings)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate(spec: FamilySpec) -> Diagram:
    """Build the diagram selected by `spec` through ribbon surgery.  The
    shape is read only when no parameter is above the cap: each is at most
    the vertex count, so no shape is longer than the cap."""
    cap, top = max_vertices(), max(spec.params)
    if top > cap:
        raise FamilyError(f"{spec} has at least {top} vertices, above the "
                          f"cap {cap} (raise ALTKNOT_MAX_V to allow it)")
    shape = spec.family.shape(*spec.params)
    if _size(*shape) > cap:
        raise FamilyError(
            f"{spec} has {_size(*shape)} vertices, above the cap {cap} "
            "(raise ALTKNOT_MAX_V to allow it)")
    return _build(*shape).finish("generator", FamilyError)


def _build(v: int, lengths: tuple[int, ...], twist: int,
           rings: int) -> _Builder:
    """The member of a shape, its moves made in a fixed order: the
    necklace, its ribbons, the twist of edge 0, then the rings."""
    if v == 1 and lengths:
        # a single ribbon closed on itself is the twisted circle
        b = _twist_chain(lengths[0])
    else:
        b = _cyclic_torus(v)
        for base, length in enumerate(lengths):
            b.ribbon(base, length)
    if twist:
        b.twist(b.tail(0), twist)
    for i in range(rings):
        # the first ring grips the knot; each later ring grips the
        # newest ring's own circle (its parallel pair is appended last)
        b.pierce(b.tail(0 if i == 0 else -1))
    return b


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

# The formulas take their ring as (x, J), X and jpoly by default: each is
# written once and also evaluated at an integer point and on l1 majorants.

def cyclic_poly(v: int, x=X, J=jpoly) -> IntPoly:
    """2[J_V - 1] - x*J_{V-1}: the cyclic torus family."""
    return 2 * (J(v) - 1) - x * J(v - 1)


def two_ribbon_poly(j: int, k: int, x=X, J=jpoly) -> IntPoly:
    return J(k) * J(j) - J(k - 2) * J(j - 2) - 2 * J(j - 1) - 2 * J(k - 1)


def three_ribbon_p_poly(k: int, l: int, m: int, x=X, J=jpoly) -> IntPoly:
    """Defined for m >= 0; m = 0 uses the convention J_{-1} = 0."""
    return ((J(k - 2) * J(l - 2) + J(k) * J(l) - 2) * J(m)
            - x * (J(k - 1) + J(l - 1) + J(k - 2) * J(l - 2) - 1) * J(m - 1)
            - 2 * J(k - 1) * J(l - 1))


def three_ribbon_g_poly(k: int, l: int, m: int, x=X, J=jpoly) -> IntPoly:
    """Symmetric in all three indices; m = 0 gives the composition of two
    cyclic diagrams (with J_{-1} = 0)."""
    jk, jl, jm = J(k), J(l), J(m)
    jk1, jl1, jm1 = J(k - 1), J(l - 1), J(m - 1)
    return (x * (jk1 * jl * jm + jk * jl1 * jm + jk * jl * jm1)
            - x * x * (jk * jl1 * jm1 + jk1 * jl * jm1 + jk1 * jl1 * jm)
            + (x ** 3 - 2) * jk1 * jl1 * jm1
            - x * (jk1 + jl1 + jm1))


def chained_cyclic_poly(k: int, n: int, x=X, J=jpoly) -> IntPoly:
    return x ** k * ((2 * J(k) - x * J(k - 1)) * (J(n) - 1)
                     + ((x * x - 2) * J(k - 1) - x * J(k)) * J(n - 1))


class _L1:
    """An upper bound on the l1 norm of a polynomial (see
    `check_identities`): a sum or a difference adds bounds, a product
    multiplies them, and a constant counts by its absolute value."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __add__(self, other: _L1 | int) -> _L1:
        return _L1(self.n + (other.n if type(other) is _L1 else abs(other)))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other: _L1 | int) -> _L1:
        return _L1(self.n * (other.n if type(other) is _L1 else abs(other)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> _L1:
        return _L1(self.n ** e)


# the l1 majorants of the J_k, kept between calls: the J recurrence read
# in the majorant ring bounds l1(J_k) by F_{k+1} (Fibonacci)
_jl1 = _J(_L1(1))


def closed_form(spec: FamilySpec) -> IntPoly:
    """The member's characteristic polynomial as an exact formula.

    The registry formula is evaluated once at x0 = 2^w and its value read
    by `polynomials._read`.  Evaluated in the majorant ring first, the
    formula bounds its own l1 norm, and so every |c_i|, by B (see
    `check_identities`); w = bitlen(B) + 1 puts B below 2^(w-1)."""
    formula, params = spec.family.formula, spec.params
    w = formula(*params, _L1(1), _jl1).n.bit_length() + 1
    x0 = 1 << w
    J = _J(x0)
    J(max(params))  # grown once: no formula reads J past its largest parameter
    return _read(formula(*params, x0, J), w)


# ---------------------------------------------------------------------------
# The registry: one record per family, in verify sweep order
# ---------------------------------------------------------------------------

CYCLIC_TORUS = Family("cyclic", ("V",), (1,), lambda v: (v, (), 0, 0),
                      cyclic_poly)
TWIST_CHAIN = Family("twistchain", ("V",), (1,), lambda v: (1, (v,), 0, 0),
                     lambda v, x=X, J=jpoly: (x - 2) * J(v - 1))
HOPF_TWIST = Family("hopftwist", ("V",), (2,), lambda v: (2, (), v - 2, 0),
                    lambda v, x=X, J=jpoly: (x - 2) * ((x + 2) * J(v - 2)
                                                     - x * J(v - 3)))
TREFOIL_TWIST = Family("trefoiltwist", ("V",), (3,),
                       lambda v: (3, (), v - 3, 0),
                       lambda v, x=X, J=jpoly: (
                           (x - 2) * (x + 1)
                           * ((x + 1) * J(v - 3) - x * J(v - 4))))
FOUR_KNOT_TWIST = Family("fourknottwist", ("V",), (4,),
                         lambda v: (3, (2,), v - 4, 0),
                         # the J_{V-4} and J_{V-5} factors inside (x - 2)
                         lambda v, x=X, J=jpoly: (x - 2) * (
                             x * (x * x + 2 * x + 2) * J(v - 4)
                             - (x ** 3 + 2 * x * x - 1) * J(v - 5)))
TWIST_KNOTS = Family("twistknot", ("V",), (3,),
                     lambda v: (v - 1, (2,), 0, 0),
                     lambda v, x=X, J=jpoly: ((x ** 3 - x - 2) * J(v - 3)
                                              - x * x * J(v - 4) - 2 * x))
TWO_RIBBON = Family("f", ("j", "k"), (1, 1), lambda j, k: (j + 1, (k,), 0, 0),
                    two_ribbon_poly, descending=True)
THREE_RIBBON_P = Family("p", ("k", "l", "m"), (1, 1, 1),
                        lambda k, l, m: (m + 2, (k, l), 0, 0),
                        three_ribbon_p_poly)
THREE_RIBBON_G = Family("g", ("k", "l", "m"), (1, 1, 1),
                        lambda k, l, m: (3, (k, l, m), 0, 0),
                        three_ribbon_g_poly, descending=True)
CLOSED_CHAIN = Family("chain", ("k",), (1,), lambda k: (k, (2,) * k, 0, 0),
                      lambda k, x=X, J=jpoly: cyclic_poly(k, x, J) * x ** k)
K_RIBBON_CYCLIC = Family("kribbon", ("k", "m"), (1, 1),
                         lambda k, m: (k, (m,) * k, 0, 0),
                         lambda k, m, x=X, J=jpoly: (cyclic_poly(k, x, J)
                                                     * J(m - 1) ** k))
# k = 0 degenerates to the bare cyclic knot (the formula then needs the
# convention J_{-1} = 0)
CHAINED_CYCLIC = Family("lchain", ("k", "n"), (0, 1),
                        lambda k, n: (n, (), 0, k), chained_cyclic_poly)

FAMILIES: tuple[Family, ...] = (
    CYCLIC_TORUS, TWIST_CHAIN, HOPF_TWIST, TREFOIL_TWIST, FOUR_KNOT_TWIST,
    TWIST_KNOTS, TWO_RIBBON, THREE_RIBBON_P, THREE_RIBBON_G, CLOSED_CHAIN,
    K_RIBBON_CYCLIC, CHAINED_CYCLIC)
_BY_PREFIX = {f.prefix: f for f in FAMILIES}


# ---------------------------------------------------------------------------
# Generator-vs-formula verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    spec: FamilySpec
    match: bool
    generated: IntPoly
    formula: IntPoly


def verify_member(spec: FamilySpec) -> VerifyResult:
    """Exact comparison of the generated diagram's characteristic polynomial
    with the family's closed form."""
    generated = charpoly(adjacency(generate(spec)))
    formula = closed_form(spec)
    return VerifyResult(spec, generated == formula, generated, formula)


# ---------------------------------------------------------------------------
# Cross-family identities, each decided by one exact evaluation per side
# ---------------------------------------------------------------------------

def _g_of(x, J) -> Callable[[int, int, int], object]:
    """three_ribbon_g_poly over the ring (x, J), each value made once."""
    return lru_cache(maxsize=None)(
        lambda k, l, m: three_ribbon_g_poly(k, l, m, x, J))


# the largest index `check_identities` runs to (see its docstring)
IDENTITY_MAX = 30

# name, number of indices (each runs over 1..max_index), and the pairs
# (L, R) whose equality is the identity, over a ring (x, J) with g the
# g-polynomial over the same ring
_Sides = Callable[..., list]
_IDENTITIES: tuple[tuple[str, int, _Sides], ...] = (
    ("odd_cyclic_square", 1, lambda x, J, g, k: [
        (cyclic_poly(2 * k + 1, x, J), (x - 2) * (J(k) + J(k - 1)) ** 2)]),
    ("even_cyclic_square", 1, lambda x, J, g, k: [
        (cyclic_poly(2 * k, x, J), (x * x - 4) * J(k - 1) ** 2)]),
    ("equal_indices_cube", 1, lambda x, J, g, k: [
        (g(k, k, k), (x - 2) * (1 + x) ** 2 * J(k - 1) ** 3)]),
    ("p_matches_g_at_one", 2, lambda x, J, g, k, l: [
        (three_ribbon_p_poly(k, l, 1, x, J), g(k, l, 1))]),
    ("two_ribbon_vs_cyclic", 1, lambda x, J, g, j: [
        (two_ribbon_poly(j, 1, x, J), cyclic_poly(j + 1, x, J))]),
    ("two_ribbon_symmetry", 2, lambda x, J, g, j, k: [
        (two_ribbon_poly(j, k, x, J), two_ribbon_poly(k, j, x, J))]),
    ("three_ribbon_g_symmetry", 3, lambda x, J, g, k, l, m: [
        (g(k, l, m), g(l, k, m)), (g(l, k, m), g(m, l, k)),
        (g(m, l, k), g(k, m, l))]),
    ("closed_chain_form", 1, lambda x, J, g, k: [
        (K_RIBBON_CYCLIC.formula(k, 2, x, J), CLOSED_CHAIN.formula(k, x, J))]),
    ("k_ribbon_form", 1, lambda x, J, g, k: [
        (K_RIBBON_CYCLIC.formula(k, 1, x, J), cyclic_poly(k, x, J))]),
)


def _verdict(instances: Iterable[bool]) -> bool | None:
    """all(instances), or None when there is no instance to check."""
    checked = False
    for ok in instances:
        if not ok:
            return False
        checked = True
    return True if checked else None


def _identity_holds(sides: _Sides, arity: int, max_index: int) -> bool | None:
    """The verdict of one identity on every index tuple in 1..max_index,
    each instance decided at the integer point x0 = 2^w that its majorant
    at the largest indices proves safe; None when there is no instance."""
    if max_index < 1:
        return None
    one = _L1(1)
    top = (max_index,) * arity
    bound = max(l.n + r.n for l, r in
                sides(one, _jl1, _g_of(one, _jl1), *top))
    x0 = 1 << bound.bit_length()
    J = _J(x0)
    g = _g_of(x0, J)
    return _verdict(
        all([l == r for l, r in sides(x0, J, g, *idx)])
        for idx in product(range(1, max_index + 1), repeat=arity))


def check_identities(max_index: int) -> dict[str, bool]:
    """Exact polynomial identities tying the families together.

    Every entry is checked for all indices up to min(max_index,
    IDENTITY_MAX), that is up to 30 at most, since the work grows about as
    the seventh power of the largest index; `composition_of_cyclic` runs
    to min(max_index, 5).  The mapping reports each named identity
    separately and leaves out an identity with no instance in that range,
    so nothing unchecked reads as a pass.

    Each instance L == R is decided by one integer comparison
    L(x0) == R(x0), the formulas evaluated over the ring of x0 and the
    table of J_k(x0).  Evaluation at x0 is a ring homomorphism, so L == R
    implies L(x0) == R(x0).  Conversely, D = L - R has D(x0) != 0 when
    D != 0 and every |d_i| < x0, by the reading lemma (a) at
    `polynomials._read`.

    The bound on |d_i| is proven, never read off a computed polynomial:
    |d_i| <= l1(D) <= l1(L) + l1(R), where l1 is the sum of the absolute
    values of the coefficients.  l1 is subadditive and submultiplicative,
    l1(x) = 1 and l1(c) = |c|, so evaluating the same formula bodies with
    x -> 1, every minus read as plus and every constant by its absolute
    value (the `_L1` type) bounds l1 of each side.  The J recurrence read
    that way is l1(J_{k+1}) <= l1(J_k) + l1(J_{k-1}) from l1(J_{-1}) = 0
    and l1(J_0) = 1, so `_jl1` bounds l1(J_k) by F_{k+1} (Fibonacci), and
    x0 = 2^w, with w the bit length of the largest sum of the two sides'
    bounds over the identity's pairs, exceeds every |d_i|.

    One majorant per identity, taken at its largest indices, bounds all
    of that identity's instances.  A majorant lives in the semiring of
    nonnegative integers under + and *, built from F_{k+1}, which is
    nondecreasing for k >= -1, at J indices that are nondecreasing in the
    identity's indices; sums and products of nondecreasing nonnegative
    terms are nondecreasing, and the only index-dependent powers are x^k
    and J_{m-1}^k, whose bases 1 and F_m (m >= 1) are at least 1.  So the
    majorant is nondecreasing in every index.

    `composition_of_cyclic` compares a computed characteristic polynomial,
    on which any bound would have to be read off the result, so it stays
    an `IntPoly` equality.  A `max_index` that is not an `int` (`bool`
    included) raises FamilyError.
    """
    if type(max_index) is not int:
        raise FamilyError(
            f"identity index must be an integer, got {max_index!r}")
    top = min(max_index, IDENTITY_MAX)
    report = {name: _identity_holds(sides, arity, top)
              for name, arity, sides in _IDENTITIES}
    comp_max = min(max_index, 5)
    report["composition_of_cyclic"] = _verdict(
        charpoly(adjacency(compose_twist(
            generate(FamilySpec(CYCLIC_TORUS, (k,))), 0,
            generate(FamilySpec(CYCLIC_TORUS, (l,))), 0, 0)))
        == three_ribbon_g_poly(k, l, 0)
        for k in range(2, comp_max + 1) for l in range(2, comp_max + 1))
    return {name: ok for name, ok in report.items() if ok is not None}


# ---------------------------------------------------------------------------
# CLI spec strings
# ---------------------------------------------------------------------------

def parse_spec_string(text: str) -> FamilySpec:
    """Parse strings like ``cyclic:V=5`` or ``p:k=3,l=2,m=2``."""
    head, sep, rest = text.strip().partition(":")
    if not sep or head not in _BY_PREFIX:
        known = ", ".join(sorted(_BY_PREFIX))
        raise FamilyError(
            f"cannot parse family spec {text!r}; expected one of: {known}, "
            "as in 'cyclic:V=5'")
    family = _BY_PREFIX[head]
    names = family.names
    given: dict[str, int] = {}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or key not in names:
            raise FamilyError(
                f"{head} takes parameters {names}, cannot parse {item!r}")
        if key in given:
            raise FamilyError(f"{head}: parameter {key} is given twice")
        try:
            given[key] = decimal_int(val)
        except ValueError as exc:
            raise FamilyError(f"parameter {key} must be an integer") from exc
    missing = [n for n in names if n not in given]
    if missing:
        raise FamilyError(f"{head} is missing parameters {missing}")
    return FamilySpec(family, tuple(given[n] for n in names))


def spec_string(spec: FamilySpec) -> str:
    """The spec in CLI syntax, as in ``p:k=3,l=2,m=2``."""
    family = spec.family
    inner = ",".join(f"{n}={v}" for n, v in zip(family.names, spec.params))
    return f"{family.prefix}:{inner}"
