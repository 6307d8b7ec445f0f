"""Named diagram families: generators by ribbon surgery, and closed forms.

Each family is produced operationally from a small seed diagram: cyclic
necklaces are built directly, twist families grow by extending the bigon
chain at a loop-carrying vertex, ribbon families grow cross ribbons out of
necklace vertices, and chained families thread rings around edges.  The
closed forms are combinations of the Chebyshev-type basis in
:mod:`altknot.polynomials`; ``verify_member`` checks a generator against
its formula by exact characteristic-polynomial equality.  The registry
``FAMILIES`` holds one ``Family`` record per family (tag, spec prefix,
parameters, size, generator, closed form); everything that dispatches on a
family, the CLI included, reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

from .diagram import (IN, OUT, Diagram, build_diagram, faces, validate,
                      with_kind, _rebuild)
from .limits import max_vertices
from .polynomials import IntPoly, X, jpoly
from .surgery import LANE_IN, LANE_OUT, _expand, lane_preserving_face

TWIST_CHAIN = "TWIST_CHAIN"
HOPF_TWIST = "HOPF_TWIST"
TREFOIL_TWIST = "TREFOIL_TWIST"
FOUR_KNOT_TWIST = "FOUR_KNOT_TWIST"
CYCLIC_TORUS = "CYCLIC_TORUS"
TWIST_KNOTS = "TWIST_KNOTS"
TWO_RIBBON = "TWO_RIBBON"
THREE_RIBBON_P = "THREE_RIBBON_P"
THREE_RIBBON_G = "THREE_RIBBON_G"
CLOSED_CHAIN = "CLOSED_CHAIN"
K_RIBBON_CYCLIC = "K_RIBBON_CYCLIC"
CHAINED_CYCLIC = "CHAINED_CYCLIC"


class FamilyError(ValueError):
    """Unknown family or out-of-range parameters."""


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus the integer parameters selecting one member."""

    family: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.family not in _BY_TAG:
            raise FamilyError(f"unknown family {self.family!r}")
        family = _BY_TAG[self.family]
        values = tuple(int(v) for v in self.params)
        object.__setattr__(self, "params", values)
        if len(values) != len(family.names):
            raise FamilyError(
                f"{self.family} takes parameters {family.names}, got {values}")
        for name, lo, v in zip(family.names, family.minima, values):
            if v < lo:
                raise FamilyError(
                    f"{self.family}: {name} out of range ({name} >= {lo}, got {v})")

    def __str__(self) -> str:
        return spec_string(self)


@dataclass(frozen=True)
class Family:
    """One named family: its tag, CLI prefix, parameters, size, generator
    and closed form.  `vertices`, `build` and `formula` take the member's
    parameters in the order of `names`.

    The verify sweep runs every parameter from its minimum up to the sweep
    maximum; a `descending` family, symmetric in its ribbons, keeps only
    the non-increasing tuples.
    """

    tag: str
    prefix: str
    names: tuple[str, ...]
    minima: tuple[int, ...]
    vertices: Callable[..., int]
    build: Callable[..., Diagram]
    formula: Callable[..., IntPoly]
    descending: bool = False

    def sweep(self, maximum: int) -> list[FamilySpec]:
        """Members with every parameter at most `maximum` and no more
        vertices than the cap, in lexicographic parameter order."""
        cap = max_vertices()
        grid = product(*(range(lo, maximum + 1) for lo in self.minima))
        specs = [FamilySpec(self.tag, p) for p in grid
                 if not self.descending or list(p) == sorted(p, reverse=True)]
        return [s for s in specs if vertex_count(s) <= cap]


def vertex_count(spec: FamilySpec) -> int:
    """Number of crossings of the member selected by `spec`."""
    return _BY_TAG[spec.family].vertices(*spec.params)


# ---------------------------------------------------------------------------
# Seed builders
# ---------------------------------------------------------------------------

def _cyclic_torus_diagram(v: int) -> Diagram:
    """Necklace of v crossings: antiparallel bigons in a cycle, two v-gon
    faces.  v = 1 is the one-vertex two-loop twist."""
    edges = [(i, (i + 1) % v) for i in range(v)]          # forward cycle
    edges += [((i + 1) % v, i) for i in range(v)]          # backward cycle
    rot = []
    for i in range(v):
        rot.append([(i, "T"), (v + i, "H"),
                    (v + (i - 1) % v, "T"), ((i - 1) % v, "H")])
    kind = "twist" if v == 1 else ("knot" if v % 2 else "link")
    return build_diagram(kind, v, edges, rot)


def _twist_chain_diagram(v: int) -> Diagram:
    """A circle twisted v times: loops at both chain ends, v-1 bigons."""
    if v == 1:
        return build_diagram("twist", 1, [(0, 0), (0, 0)],
                             [[(0, "T"), (0, "H"), (1, "T"), (1, "H")]])
    edges = [(i, i + 1) for i in range(v - 1)]
    edges += [(i + 1, i) for i in range(v - 1)]
    l0, l1 = len(edges), len(edges) + 1
    edges += [(0, 0), (v - 1, v - 1)]
    rot = [[(l0, "T"), (l0, "H"), (0, "T"), (v - 1, "H")]]
    for i in range(1, v - 1):
        rot.append([(i, "T"), (v - 1 + i, "H"),
                    (v - 1 + i - 1, "T"), (i - 1, "H")])
    rot.append([(l1, "T"), (l1, "H"), (2 * v - 3, "T"), (v - 2, "H")])
    return build_diagram("twist", v, edges, rot)


# ---------------------------------------------------------------------------
# Growth moves shared by the generators
# ---------------------------------------------------------------------------

def _finish(raw: Diagram) -> Diagram:
    """Derive the kind of a freshly assembled diagram and insist it is valid."""
    out = with_kind(raw)
    problems = validate(out)
    if problems:
        raise FamilyError("generator produced an invalid diagram: "
                          + "; ".join(problems))
    return out


def _curl(d: Diagram, edge_index: int) -> Diagram:
    """One-crossing kink in the middle of an edge (first twist of the edge)."""
    tail, head = d.edge_darts()[edge_index]
    z = d.vertex_count
    base = len(d.darts)
    in_d, out_d, loop_t, loop_h = base, base + 1, base + 2, base + 3
    fields = {dart.id: (dart.vertex, dart.twin, dart.direction)
              for dart in d.darts}
    fields[tail] = (fields[tail][0], in_d, OUT)
    fields[in_d] = (z, tail, IN)
    fields[out_d] = (z, head, OUT)
    fields[head] = (fields[head][0], out_d, IN)
    fields[loop_t] = (z, loop_h, OUT)
    fields[loop_h] = (z, loop_t, IN)
    rot = [d.rotation[i] for i in range(d.vertex_count)]
    rot.append((in_d, loop_t, loop_h, out_d))
    return _finish(_rebuild("twist", z + 1, fields, rot, check=False))


def _has_loop(d: Diagram, v: int) -> bool:
    return any(d.vertex_of(d.twin(x)) == v for x in d.rotation[v])


def _extend_twist(d: Diagram, loop_vertex: int) -> tuple[Diagram, int]:
    """Push the loop at `loop_vertex` one bigon further out.

    Expands along the lane that keeps the loop's one-edge face intact, so
    the twist ribbon grows by one; returns the new loop carrier.
    """
    face_list, _ = faces(d)
    loop_face = next(t for t in face_list
                     if len(t) == 1 and d.vertex_of(t[0]) == loop_vertex)
    out, new_v, _ = _expand(d, loop_vertex, lane_preserving_face(d, loop_face))
    carrier = new_v if _has_loop(out, new_v) else loop_vertex
    return out, carrier


def _cross_ribbon(d: Diagram, base_vertex: int, length: int) -> Diagram:
    """Grow a ribbon of `length` crossings out of a necklace vertex,
    orthogonally to the necklace's own chain."""
    cur = base_vertex
    for _ in range(length - 1):
        d, cur, _ = _expand(d, cur, LANE_IN)
    return d


def _pierce(d: Diagram, edge_index: int) -> Diagram:
    """Thread a fresh circle around one edge (the circle crosses it twice;
    its own two edges form a parallel pair)."""
    tail, head = d.edge_darts()[edge_index]
    z1, z2 = d.vertex_count, d.vertex_count + 1
    base = len(d.darts)
    a_in = base                        # head at z1, from the old tail side
    mid_t, mid_h = base + 1, base + 2  # z2 -> z1
    d_out = base + 3                   # tail at z2, toward the old head side
    r1t, r1h = base + 4, base + 5      # ring edge z1 -> z2
    r2t, r2h = base + 6, base + 7      # ring edge z1 -> z2
    fields = {dart.id: (dart.vertex, dart.twin, dart.direction)
              for dart in d.darts}
    fields[tail] = (fields[tail][0], a_in, OUT)
    fields[a_in] = (z1, tail, IN)
    fields[mid_t] = (z2, mid_h, OUT)
    fields[mid_h] = (z1, mid_t, IN)
    fields[d_out] = (z2, head, OUT)
    fields[head] = (fields[head][0], d_out, IN)
    fields[r1t] = (z1, r1h, OUT)
    fields[r1h] = (z2, r1t, IN)
    fields[r2t] = (z1, r2h, OUT)
    fields[r2h] = (z2, r2t, IN)
    rot = [d.rotation[i] for i in range(d.vertex_count)]
    rot.append((a_in, r1t, mid_h, r2t))
    rot.append((mid_t, r1h, d_out, r2h))
    return _finish(_rebuild("link", z2 + 1, fields, rot, check=False))


def _pierce_waist(d: Diagram, edge_a: int, edge_b: int) -> Diagram:
    """Thread a fresh circle around two edges together (4 new crossings)."""
    tail_a, head_a = d.edge_darts()[edge_a]
    tail_b, head_b = d.edge_darts()[edge_b]
    v = d.vertex_count
    a_l, a_r, b_l, b_r = v, v + 1, v + 2, v + 3
    base = len(d.darts)
    a1 = base                           # head at a_l on strand a
    ma_t, ma_h = base + 1, base + 2     # a_r -> a_l
    ao_t = base + 3                     # tail at a_r toward a's old head
    b1 = base + 4                       # head at b_r on strand b
    mb_t, mb_h = base + 5, base + 6     # b_l -> b_r
    bo_t = base + 7                     # tail at b_l toward b's old head
    r1t, r1h = base + 8, base + 9       # ring a_l -> b_l
    r2t, r2h = base + 10, base + 11     # ring b_r -> b_l
    r3t, r3h = base + 12, base + 13     # ring b_r -> a_r
    r4t, r4h = base + 14, base + 15     # ring a_l -> a_r
    f = {dart.id: (dart.vertex, dart.twin, dart.direction) for dart in d.darts}
    f[tail_a] = (f[tail_a][0], a1, OUT)
    f[a1] = (a_l, tail_a, IN)
    f[ma_t] = (a_r, ma_h, OUT)
    f[ma_h] = (a_l, ma_t, IN)
    f[ao_t] = (a_r, head_a, OUT)
    f[head_a] = (f[head_a][0], ao_t, IN)
    f[tail_b] = (f[tail_b][0], b1, OUT)
    f[b1] = (b_r, tail_b, IN)
    f[mb_t] = (b_l, mb_h, OUT)
    f[mb_h] = (b_r, mb_t, IN)
    f[bo_t] = (b_l, head_b, OUT)
    f[head_b] = (f[head_b][0], bo_t, IN)
    f[r1t] = (a_l, r1h, OUT)
    f[r1h] = (b_l, r1t, IN)
    f[r2t] = (b_r, r2h, OUT)
    f[r2h] = (b_l, r2t, IN)
    f[r3t] = (b_r, r3h, OUT)
    f[r3h] = (a_r, r3t, IN)
    f[r4t] = (a_l, r4h, OUT)
    f[r4h] = (a_r, r4t, IN)
    rot = [d.rotation[i] for i in range(d.vertex_count)]
    rot.append((a1, r1t, ma_h, r4t))
    rot.append((ma_t, r3h, ao_t, r4h))
    rot.append((bo_t, r2h, mb_t, r1h))
    rot.append((mb_h, r2t, b1, r3t))
    return _finish(_rebuild("link", v + 4, f, rot, check=False))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate(spec: FamilySpec) -> Diagram:
    """Build the diagram selected by `spec` through ribbon surgery."""
    total, cap = vertex_count(spec), max_vertices()
    if total > cap:
        raise FamilyError(
            f"{spec} has {total} vertices, above the cap {cap} "
            "(raise ALTKNOT_MAX_V to allow it)")
    return _BY_TAG[spec.family].build(*spec.params)


def _grow_twist(seed: Diagram, extra: int) -> Diagram:
    """Twist the first edge of `seed` `extra` times (curl, then lengthen)."""
    if extra == 0:
        return seed
    d = _curl(seed, 0)
    carrier = d.vertex_count - 1
    for _ in range(extra - 1):
        d, carrier = _extend_twist(d, carrier)
    return d


def _two_ribbon_diagram(j: int, k: int) -> Diagram:
    return _cross_ribbon(_cyclic_torus_diagram(j + 1), 0, k)


def _three_ribbon_p_diagram(k: int, l: int, m: int) -> Diagram:
    d = _cross_ribbon(_cyclic_torus_diagram(m + 2), 0, k)
    return _cross_ribbon(d, 1, l)


def _three_ribbon_g_diagram(k: int, l: int, m: int) -> Diagram:
    d = _cyclic_torus_diagram(3)
    for base, length in enumerate((k, l, m)):
        d = _cross_ribbon(d, base, length)
    return d


def _k_ribbon_cyclic_diagram(k: int, m: int) -> Diagram:
    if k == 1:
        # a single ribbon closed on itself is the twisted circle
        return _twist_chain_diagram(m)
    d = _cyclic_torus_diagram(k)
    for base in range(k):
        d = _cross_ribbon(d, base, m)
    return d


def _chained_cyclic_diagram(k: int, n: int) -> Diagram:
    d = _cyclic_torus_diagram(n)
    for i in range(k):
        # the first ring grips the knot; each later ring grips the
        # newest ring's own circle (its parallel pair is appended last)
        target = 0 if i == 0 else len(d.edge_darts()) - 1
        d = _pierce(d, target)
    return d


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def cyclic_poly(v: int) -> IntPoly:
    """2[J_V - 1] - x*J_{V-1}: the cyclic torus family."""
    return 2 * (jpoly(v) - 1) - X * jpoly(v - 1)


def two_ribbon_poly(j: int, k: int) -> IntPoly:
    return (jpoly(k) * jpoly(j) - jpoly(k - 2) * jpoly(j - 2)
            - 2 * jpoly(j - 1) - 2 * jpoly(k - 1))


def three_ribbon_p_poly(k: int, l: int, m: int) -> IntPoly:
    """Defined for m >= 0; m = 0 uses the convention J_{-1} = 0."""
    return ((jpoly(k - 2) * jpoly(l - 2) + jpoly(k) * jpoly(l) - 2) * jpoly(m)
            - X * (jpoly(k - 1) + jpoly(l - 1)
                   + jpoly(k - 2) * jpoly(l - 2) - 1) * jpoly(m - 1)
            - 2 * jpoly(k - 1) * jpoly(l - 1))


def three_ribbon_g_poly(k: int, l: int, m: int) -> IntPoly:
    """Symmetric in all three indices; m = 0 gives the composition of two
    cyclic diagrams (with J_{-1} = 0)."""
    jk, jl, jm = jpoly(k), jpoly(l), jpoly(m)
    jk1, jl1, jm1 = jpoly(k - 1), jpoly(l - 1), jpoly(m - 1)
    return (X * (jk1 * jl * jm + jk * jl1 * jm + jk * jl * jm1)
            - X * X * (jk * jl1 * jm1 + jk1 * jl * jm1 + jk1 * jl1 * jm)
            + (X ** 3 - 2) * jk1 * jl1 * jm1
            - X * (jk1 + jl1 + jm1))


def chained_cyclic_poly(k: int, n: int) -> IntPoly:
    return (X ** k * (2 * jpoly(k) - X * jpoly(k - 1)) * (jpoly(n) - 1)
            + X ** k * (-X * jpoly(k) + (X * X - 2) * jpoly(k - 1))
            * jpoly(n - 1))


_FOUR_KNOT_SEEDS = (IntPoly((0, -4, -2, 0, 1)),      # x^4 - 2x^2 - 4x
                    IntPoly((-2, 1, 0, -2, -1, 1)))  # x^5 - x^4 - 2x^3 + x - 2


def _four_knot_twist_poly(v: int) -> IntPoly:
    prev, cur = _FOUR_KNOT_SEEDS
    if v == 4:
        return prev
    for _ in range(v - 5):
        prev, cur = cur, X * cur - prev
    return cur


def closed_form(spec: FamilySpec) -> IntPoly:
    """The member's characteristic polynomial as an exact formula."""
    return _BY_TAG[spec.family].formula(*spec.params)


# ---------------------------------------------------------------------------
# The registry: one record per family, in verify sweep order
# ---------------------------------------------------------------------------

def _total(*params: int) -> int:
    return sum(params)


FAMILIES: tuple[Family, ...] = (
    Family(CYCLIC_TORUS, "cyclic", ("V",), (1,), _total,
           _cyclic_torus_diagram, cyclic_poly),
    Family(TWIST_CHAIN, "twistchain", ("V",), (1,), _total,
           _twist_chain_diagram, lambda v: (X - 2) * jpoly(v - 1)),
    Family(HOPF_TWIST, "hopftwist", ("V",), (2,), _total,
           lambda v: _grow_twist(_cyclic_torus_diagram(2), v - 2),
           lambda v: (X - 2) * ((X + 2) * jpoly(v - 2) - X * jpoly(v - 3))),
    Family(TREFOIL_TWIST, "trefoiltwist", ("V",), (3,), _total,
           lambda v: _grow_twist(_cyclic_torus_diagram(3), v - 3),
           lambda v: ((X - 2) * (X + 1)
                      * ((X + 1) * jpoly(v - 3) - X * jpoly(v - 4)))),
    Family(FOUR_KNOT_TWIST, "fourknottwist", ("V",), (4,), _total,
           lambda v: _grow_twist(_two_ribbon_diagram(2, 2), v - 4),
           _four_knot_twist_poly),
    Family(TWIST_KNOTS, "twistknot", ("V",), (3,), _total,
           lambda v: _two_ribbon_diagram(v - 2, 2),
           lambda v: ((X ** 3 - X - 2) * jpoly(v - 3)
                      - X * X * jpoly(v - 4) - 2 * X)),
    Family(TWO_RIBBON, "f", ("j", "k"), (1, 1), _total,
           _two_ribbon_diagram, two_ribbon_poly, descending=True),
    Family(THREE_RIBBON_P, "p", ("k", "l", "m"), (1, 1, 1), _total,
           _three_ribbon_p_diagram, three_ribbon_p_poly),
    Family(THREE_RIBBON_G, "g", ("k", "l", "m"), (1, 1, 1), _total,
           _three_ribbon_g_diagram, three_ribbon_g_poly, descending=True),
    Family(CLOSED_CHAIN, "chain", ("k",), (1,), lambda k: 2 * k,
           lambda k: _k_ribbon_cyclic_diagram(k, 2),
           lambda k: cyclic_poly(k) * X ** k),
    Family(K_RIBBON_CYCLIC, "kribbon", ("k", "m"), (1, 1), lambda k, m: k * m,
           _k_ribbon_cyclic_diagram,
           lambda k, m: cyclic_poly(k) * jpoly(m - 1) ** k),
    # k = 0 degenerates to the bare cyclic knot (the formula then needs the
    # convention J_{-1} = 0)
    Family(CHAINED_CYCLIC, "lchain", ("k", "n"), (0, 1),
           lambda k, n: 2 * k + n, _chained_cyclic_diagram,
           chained_cyclic_poly),
)

_BY_TAG = {f.tag: f for f in FAMILIES}
_BY_PREFIX = {f.prefix: f for f in FAMILIES}


# ---------------------------------------------------------------------------
# The polynomial-collision pair: a circle threaded around the waist of a
# twisted loop.  Two growth directions share one polynomial family.
# ---------------------------------------------------------------------------

WAIST_RING_GROWTHS = ("chain", "clasp")


def waist_ring_poly(v: int) -> IntPoly:
    """x^2 [(x^2 - 2) J_{V-4} - 2 J_{V-5} - 2], defined for V >= 5."""
    if v < 5:
        raise FamilyError("waist-ring family starts at V = 5")
    return X * X * ((X * X - 2) * jpoly(v - 4) - 2 * jpoly(v - 5) - 2)


def waist_ring_diagram(v: int, growth: str = "chain") -> Diagram:
    """The two-component link of a ring around a twisted loop's waist.

    Both growth directions extend a ribbon at the loop's crossing and give
    the same polynomials but different diagrams: "chain" keeps two
    components, "clasp" alternates between two and three.
    """
    if growth not in WAIST_RING_GROWTHS:
        raise FamilyError(f"growth must be one of {WAIST_RING_GROWTHS}")
    if v < 5:
        raise FamilyError("waist-ring family starts at V = 5")
    if v > max_vertices():
        raise FamilyError(f"V={v} above the cap {max_vertices()}")
    d = _pierce_waist(_twist_chain_diagram(1), 0, 1)
    lane = LANE_OUT if growth == "chain" else LANE_IN
    cur = 0
    for _ in range(v - 5):
        d, cur, _ = _expand(d, cur, lane)
    return d


# ---------------------------------------------------------------------------
# Generator-vs-formula verification and family recurrences
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
    from .polynomials import charpoly
    from .spectra import adjacency
    generated = charpoly(adjacency(generate(spec)))
    formula = closed_form(spec)
    return VerifyResult(spec, generated == formula, generated, formula)


@dataclass(frozen=True)
class RecurrenceCheck:
    homogeneous: bool
    source: IntPoly | None  # the residue divided by (x - 2), when present


def check_family_recurrence(p0: IntPoly, p1: IntPoly,
                            p2: IntPoly) -> RecurrenceCheck:
    """Classify a consecutive family triple by its three-term recurrence.

    Twists satisfy p2 - x*p1 + p0 = 0; knot and link families leave a
    residue (x - 2) * H with H constant along the family.
    """
    residue = p2 - X * p1 + p0
    if residue.is_zero():
        return RecurrenceCheck(True, None)
    from .polynomials import divide_out
    quotient, exact = divide_out(residue, X - 2)
    if not exact:
        raise FamilyError("not a family triple: the recurrence residue is "
                          "not divisible by (x - 2)")
    return RecurrenceCheck(False, quotient)


def _verdict(instances: Iterable[bool]) -> bool | None:
    """all(instances), or None when there is no instance to check."""
    checked = False
    for ok in instances:
        if not ok:
            return False
        checked = True
    return True if checked else None


def check_identities(max_index: int) -> dict[str, bool]:
    """Exact polynomial identities tying the families together.

    Every entry is checked for all indices up to `max_index`; the mapping
    reports each named identity separately and leaves out an identity
    with no instance in that range, so nothing unchecked reads as a pass.
    """
    from .polynomials import charpoly
    from .spectra import adjacency
    from .surgery import compose_twist

    def rng(lo: int = 1) -> range:
        return range(lo, max_index + 1)

    # every g-polynomial the checks below compare, each computed once
    g = {idx: three_ribbon_g_poly(*idx) for idx in product(rng(), repeat=3)}
    report: dict[str, bool | None] = {}
    report["odd_cyclic_square"] = _verdict(
        2 * (jpoly(2 * k + 1) - 1) - X * jpoly(2 * k)
        == (X - 2) * (jpoly(k) + jpoly(k - 1)) ** 2
        for k in rng())
    report["even_cyclic_square"] = _verdict(
        2 * (jpoly(2 * k) - 1) - X * jpoly(2 * k - 1)
        == (X * X - 4) * jpoly(k - 1) ** 2
        for k in rng())
    report["equal_indices_cube"] = _verdict(
        g[k, k, k]
        == (X - 2) * (1 + X) ** 2 * jpoly(k - 1) ** 3
        for k in rng())
    report["p_matches_g_at_one"] = _verdict(
        three_ribbon_p_poly(k, l, 1) == g[k, l, 1]
        for k in rng() for l in rng())
    report["two_ribbon_vs_cyclic"] = _verdict(
        two_ribbon_poly(j, 1) == cyclic_poly(j + 1) for j in rng())
    report["two_ribbon_symmetry"] = _verdict(
        two_ribbon_poly(j, k) == two_ribbon_poly(k, j)
        for j in rng() for k in rng())
    report["three_ribbon_g_symmetry"] = _verdict(
        g[k, l, m] == g[l, k, m] == g[m, l, k] == g[k, m, l]
        for k, l, m in g)
    report["closed_chain_form"] = _verdict(
        closed_form(FamilySpec(CLOSED_CHAIN, (k,)))
        == cyclic_poly(k) * X ** k
        and closed_form(FamilySpec(K_RIBBON_CYCLIC, (k, 2)))
        == cyclic_poly(k) * X ** k
        for k in rng())
    report["k_ribbon_form"] = _verdict(
        closed_form(FamilySpec(K_RIBBON_CYCLIC, (k, m)))
        == cyclic_poly(k) * jpoly(m - 1) ** k
        and closed_form(FamilySpec(K_RIBBON_CYCLIC, (k, 1))) == cyclic_poly(k)
        for k in rng() for m in rng())
    comp_max = min(max_index, 5)
    report["composition_of_cyclic"] = _verdict(
        charpoly(adjacency(compose_twist(
            generate(FamilySpec(CYCLIC_TORUS, (k,))), 0,
            generate(FamilySpec(CYCLIC_TORUS, (l,))), 0, 0)))
        == three_ribbon_g_poly(k, l, 0)
        for k in range(2, comp_max + 1) for l in range(2, comp_max + 1))
    return {name: ok for name, ok in report.items() if ok is not None}


# ---------------------------------------------------------------------------
# Catalog of the standard-table correspondences
# ---------------------------------------------------------------------------

#: entries are claims transcribed from the source tables, never re-derived.
FLAG_CLAIMED = "source_claimed"
FLAG_INCONSISTENT = "source_inconsistent"
FLAG_SEQUENCE = "from_family_sequence"


@dataclass(frozen=True)
class CatalogEntry:
    """A standard-table label (e.g. "4_1", "6_2^2") matched to a family
    member.  `flags` record provenance; nothing here is independently
    re-identified."""

    rolfsen_label: str
    family: FamilySpec
    flags: tuple[str, ...] = (FLAG_CLAIMED,)
    note: str = ""


def _entry(label: str, family: str, params: tuple[int, ...],
           flags: tuple[str, ...] = (FLAG_CLAIMED,), note: str = "") -> CatalogEntry:
    return CatalogEntry(label, FamilySpec(family, params), flags, note)


def catalog() -> list[CatalogEntry]:
    """All stated label-to-family correspondences, verbatim, flagged."""
    seq = (FLAG_CLAIMED, FLAG_SEQUENCE)
    dup = (FLAG_CLAIMED, FLAG_INCONSISTENT)
    entries = [
        # cyclic torus sequence: eight-twist, Hopf, trefoil, Solomon, ...
        _entry("3_1", CYCLIC_TORUS, (3,), seq),
        _entry("4_1^2", CYCLIC_TORUS, (4,), seq),
        _entry("5_1", CYCLIC_TORUS, (5,), seq),
        _entry("6_1^2", CYCLIC_TORUS, (6,), seq),
        _entry("7_1", CYCLIC_TORUS, (7,), seq),
        _entry("8_1^2", CYCLIC_TORUS, (8,), seq),
        # twist knots: twist of two vertices, trefoil, four-knot, then primes
        _entry("3_1", TWIST_KNOTS, (3,), seq),
        _entry("4_1", TWIST_KNOTS, (4,), seq),
        _entry("5_2", TWIST_KNOTS, (5,), seq),
        _entry("6_1", TWIST_KNOTS, (6,), seq),
        _entry("7_2", TWIST_KNOTS, (7,), seq),
        _entry("8_1", TWIST_KNOTS, (8,), seq),
        _entry("9_2", TWIST_KNOTS, (9,), seq),
        _entry("10_1", TWIST_KNOTS, (10,), seq),
        # two-ribbon table
        _entry("4_1", TWO_RIBBON, (2, 2)),
        _entry("5_2", TWO_RIBBON, (3, 2)),
        _entry("6_1", TWO_RIBBON, (4, 2)),
        _entry("7_2", TWO_RIBBON, (5, 2)),
        _entry("7_3", TWO_RIBBON, (4, 3)),
        _entry("8_1", TWO_RIBBON, (6, 2)),
        _entry("8_3", TWO_RIBBON, (4, 4)),
        _entry("9_2", TWO_RIBBON, (7, 2)),
        _entry("9_3", TWO_RIBBON, (6, 3)),
        _entry("9_4", TWO_RIBBON, (5, 4)),
        _entry("10_1", TWO_RIBBON, (8, 2)),
        _entry("6_2^2", TWO_RIBBON, (3, 3)),
        _entry("8_2^2", TWO_RIBBON, (5, 3)),
        # three-ribbon, adjacent-ribbon variant
        _entry("6_2", THREE_RIBBON_P, (3, 2, 1)),
        _entry("7_4", THREE_RIBBON_P, (3, 3, 1)),
        _entry("7_5", THREE_RIBBON_P, (3, 2, 2)),
        _entry("8_2", THREE_RIBBON_P, (5, 2, 1)),
        _entry("8_4", THREE_RIBBON_P, (4, 3, 1)),
        _entry("8_6", THREE_RIBBON_P, (3, 2, 3),
               note="printed with a dot: 8.6"),
        _entry("9_6", THREE_RIBBON_P, (5, 2, 2)),
        _entry("9_7", THREE_RIBBON_P, (3, 2, 4)),
        _entry("9_9", THREE_RIBBON_P, (4, 3, 2)),
        _entry("9_10", THREE_RIBBON_P, (3, 3, 3)),
        _entry("10_4", THREE_RIBBON_P, (6, 1, 3)),
        _entry("10_6", THREE_RIBBON_P, (5, 2, 3), dup,
               note="the same member is also listed as 10_20"),
        _entry("10_11", THREE_RIBBON_P, (4, 3, 3)),
        _entry("10_20", THREE_RIBBON_P, (5, 2, 3), dup,
               note="the same member is also listed as 10_6"),
        _entry("6_2^3", THREE_RIBBON_P, (2, 2, 2)),
        _entry("7_2^3", THREE_RIBBON_P, (2, 2, 3)),
        _entry("8_2^3", THREE_RIBBON_P, (4, 2, 2)),
        _entry("8_2^4", THREE_RIBBON_P, (3, 3, 2)),
        _entry("5_2^1", THREE_RIBBON_P, (2, 2, 1), dup,
               note="superscript as printed; a 1-component link label is "
                    "suspect"),
        # three-ribbon, triangular variant
        _entry("3_1", THREE_RIBBON_G, (1, 1, 1)),
        _entry("8_5", THREE_RIBBON_G, (3, 3, 2)),
        _entry("9_35", THREE_RIBBON_G, (3, 3, 3)),
        _entry("10_46", THREE_RIBBON_G, (5, 3, 2)),
        _entry("10_61", THREE_RIBBON_G, (4, 3, 3)),
        _entry("7_1^2", THREE_RIBBON_G, (4, 2, 1)),
        _entry("7_4^2", THREE_RIBBON_G, (3, 2, 2)),
        _entry("8_1^3", THREE_RIBBON_G, (4, 2, 2)),
        # trefoil twist sequence: first twist, then the table entries
        _entry("5_2", TREFOIL_TWIST, (5,), seq),
        _entry("6_2", TREFOIL_TWIST, (6,), seq),
        _entry("7_4", TREFOIL_TWIST, (7,), seq),
        _entry("8_4", TREFOIL_TWIST, (8,), seq),
        _entry("9_6", TREFOIL_TWIST, (9,), seq),
        _entry("10_4", TREFOIL_TWIST, (10,), seq),
    ]
    return entries


def lookup(label: str) -> list[CatalogEntry]:
    """All catalog entries carrying the given standard-table label."""
    return [e for e in catalog() if e.rolfsen_label == label]


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
        try:
            given[key] = int(val)
        except ValueError as exc:
            raise FamilyError(f"parameter {key} must be an integer") from exc
    missing = [n for n in names if n not in given]
    if missing:
        raise FamilyError(f"{head} is missing parameters {missing}")
    return FamilySpec(family.tag, tuple(given[n] for n in names))


def spec_string(spec: FamilySpec) -> str:
    """The spec in CLI syntax, as in ``p:k=3,l=2,m=2``."""
    family = _BY_TAG[spec.family]
    inner = ",".join(f"{n}={v}" for n, v in zip(family.names, spec.params))
    return f"{family.prefix}:{inner}"
