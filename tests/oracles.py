"""Code only the tests call.  Most of it is independent oracles the tests
check the library against: each states a fact of the paper or a law of the
code by a second method.  The rest states a claim of the paper, or makes
diagrams no family makes, for the tests alone: a member's vertex count read
from its shape, the two senses of the faces, the family recurrence,
crossing elimination and the waist-ring pair."""

from __future__ import annotations

import math
from dataclasses import dataclass

from altknot import diagram as dg
from altknot.diagram import IN, OUT, Diagram, DiagramError, _face_traces, _flat
from altknot.families import FamilyError, FamilySpec, _size, _twist_chain
from altknot.limits import max_vertices
from altknot.polynomials import ONE, ZERO, X, IntPoly, divide_out, jpoly
from altknot.surgery import (LANE_IN, LANE_OUT, SurgeryError, _Builder,
                             _check_lane)


def jpoly_explicit(k):
    """J_k by the closed binomial sum instead of the recurrence:
    J_k(x) = sum_{j=0}^{floor(k/2)} (-1)^j * C(k-j, j) * x^(k-2j)."""
    coeffs = [0] * (k + 1)
    for j in range(k // 2 + 1):
        coeffs[k - 2 * j] = (-1) ** j * math.comb(k - j, j)
    return IntPoly(tuple(coeffs))


def check_quadratic_identity(k):
    """True iff J_k^2 - x*J_k*J_{k-1} + J_{k-1}^2 == 1 exactly."""
    jk, jk1 = jpoly(k), jpoly(k - 1)
    return jk * jk - X * jk * jk1 + jk1 * jk1 == ONE


def invert_power_series(denominator, n_terms):
    """Coefficients of t^0..t^n_terms of 1/denominator over Z[x], for a
    list of coefficients of powers of t with constant term 1."""
    out = []
    for k in range(n_terms + 1):
        acc = ONE if k == 0 else ZERO
        for i in range(1, min(k, len(denominator) - 1) + 1):
            acc = acc - denominator[i] * out[k - i]
        out.append(acc)
    return out


def check_generating_function(k_max):
    """True iff 1/(1 - t*x + t^2) expands to J_0..J_{k_max} in t."""
    terms = invert_power_series([ONE, -X, ONE], k_max)
    return all(terms[k] == jpoly(k) for k in range(k_max + 1))


def charpoly_cofactor(matrix):
    """det(x*I - M) by cofactor expansion over Z[x]: exponential in the
    dimension."""
    rows = getattr(matrix, "rows", matrix)
    n = len(rows)

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = ZERO
        for j, entry in enumerate(mat[0]):
            if entry:
                minor = [row[:j] + row[j + 1:] for row in mat[1:]]
                term = entry * det(minor)
                total = total + term if j % 2 == 0 else total - term
        return total

    return det([[(X if i == j else ZERO) - rows[i][j] for j in range(n)]
                for i in range(n)])


def reference_charpoly(matrix):
    """The Faddeev-LeVerrier loop with a per-entry sparse product over
    mutable list rows, kept verbatim as a stateless reference."""
    rows = getattr(matrix, "rows", matrix)
    n = len(rows)
    m = [[int(v) for v in row] for row in rows]
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in m]

    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    aux = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_1 = I
    for k in range(1, n + 1):
        prod = [[sum(v * aux[j][col] for j, v in sparse[i]) for col in range(n)]
                for i in range(n)]
        trace = sum(prod[i][i] for i in range(n))
        q, r = divmod(trace, k)
        if r:
            raise ArithmeticError(
                f"Faddeev-LeVerrier division not exact: trace {trace} at k={k}")
        c = -q
        coeffs[n - k] = c
        if k < n:
            aux = prod
            for i in range(n):
                aux[i][i] += c
    return IntPoly(tuple(coeffs))


def reference_path_counts(m, k_max):
    """trace(M^k) for k = 1..k_max from a fresh dense power, no state."""
    n = m.n
    power, out = m.rows, []
    for _ in range(k_max):
        out.append(sum(power[i][i] for i in range(n)))
        power = tuple(tuple(sum(power[i][t] * m.rows[t][j] for t in range(n))
                            for j in range(n)) for i in range(n))
    return out


def all_ones_check(m):
    """True iff the all-ones vector is a left and right eigenvector with
    eigenvalue 2, i.e. all row and column sums equal 2."""
    if any(len(row) != m.n for row in m.rows):
        return False
    return all(s == 2 for lines in (m.rows, zip(*m.rows))
               for s in map(sum, lines))


def mirror(d):
    """The reflected diagram: every rotation ring reversed."""
    return dg.Diagram(d.kind, d.vertex_count, d.darts,
                      tuple(tuple(reversed(ring)) for ring in d.rotation))


def reference_canonical_code(d):
    """The brute-force canonical code: every root's whole BFS code built,
    then the minimum taken (as before the pruned version), on twin,
    successor and direction lists read once from the `Dart` fields and
    the rings."""
    n = len(d.darts)
    twin = [x.twin for x in d.darts]
    out = [x.direction == dg.OUT for x in d.darts]
    succ = [0] * n
    for a, b, c, e in d.rotation:
        succ[a], succ[b], succ[c], succ[e] = b, c, e, a
    best = None
    for root in range(n):
        label = [-1] * n
        label[root] = 0
        order = [root]
        for cur in order:
            t, s = twin[cur], succ[cur]
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
            if label[s] < 0:
                label[s] = len(order)
                order.append(s)
        code = tuple([(label[twin[x]], label[succ[x]], out[x])
                      for x in order])
        if best is None or code < best:
            best = code
    if best is None:
        raise dg.DiagramError("canonical code of a diagram with no darts")
    return best


def mat2_mul(a, b):
    """The product of two 2x2 matrices over Z[x], each a pair of rows."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def ribbon_piece(l):
    """A necklace crossing grown into a ribbon of l crossings, as
    (M, alpha, beta): N(l) = [[J_l, -1], [1, J_{l-2}]] with
    alpha = beta = J_{l-1}.  l = 1 is the plain crossing [[x, -1], [1, 0]]
    with alpha = beta = 1."""
    return ((jpoly(l), -ONE), (ONE, jpoly(l - 2))), jpoly(l - 1), jpoly(l - 1)


def lane_out_piece(l):
    """A necklace crossing grown into a ribbon of l crossings along
    `LANE_OUT`, as (M, alpha, beta): T^l with alpha = beta = 1, where
    T = [[x, -1], [1, 0]] is the plain crossing."""
    m = ((ONE, ZERO), (ZERO, ONE))
    for _ in range(l):
        m = mat2_mul(m, ((X, -ONE), (ONE, ZERO)))
    return m, ONE, ONE


def twist_piece(t):
    """Edge 0 twisted t >= 1 times, as (M, alpha, beta):
    E(t) = diag(K_t, K_{t-1}) with alpha = K_t and beta = K_{t-1}, where
    K_t = J_t - J_{t-1}."""
    k_t, k_t1 = (jpoly(s) - jpoly(s - 1) for s in (t, t - 1))
    return ((k_t, ZERO), (ZERO, k_t1)), k_t, k_t1


def bead_charpoly(shape, piece=ribbon_piece):
    """tr(prod M_i) - prod alpha_i - prod beta_i over the pieces of a
    family shape (v, lengths, twist, 0), taken in necklace order: crossing
    i is piece(l_i), with l_i = 1 past `lengths`, and the twist piece sits
    just after piece 0.

    The bead lemma states that this is the characteristic polynomial of
    the member's adjacency matrix.  It is tested, not proved: the tests
    compare it with `charpoly` of the generated diagram."""
    v, lengths, twist, rings = shape
    if rings:
        raise ValueError("the bead lemma has no piece for a chained ring")
    return necklace_charpoly(
        [piece(l) for l in lengths + (1,) * (v - len(lengths))], twist)


def necklace_charpoly(pieces, twist=0):
    """tr(prod M_i) - prod alpha_i - prod beta_i over the necklace's
    pieces (M, alpha, beta) in necklace order, with the twist piece of
    edge 0, when `twist` is not 0, just after piece 0."""
    if twist:
        pieces = [pieces[0], twist_piece(twist), *pieces[1:]]
    m, alpha, beta = pieces[0]
    for m_i, alpha_i, beta_i in pieces[1:]:
        m, alpha, beta = mat2_mul(m, m_i), alpha * alpha_i, beta * beta_i
    return m[0][0] + m[1][1] - alpha - beta


def vertex_count(spec: FamilySpec) -> int:
    """Number of crossings of the member selected by `spec`; FamilyError
    when one of its parameters alone is above the cap."""
    top, cap = max(spec.params), max_vertices()
    if top > cap:
        raise FamilyError(f"{spec} has at least {top} vertices, above the "
                          f"cap {cap}")
    return _size(*spec.family.shape(*spec.params))


CCW = "CCW"
CW = "CW"


def face_orientations(d: Diagram) -> dict[int, str]:
    """Rotation sense of every face: CCW when the boundary follows the edge
    orientations, CW when it opposes them.

    Each boundary must be coherently oriented; a mixed face means the input
    violates the alternating orientation rule.  Faces sharing an edge always
    come out with opposite senses, which is the two-coloring.  Read from
    `_flat`'s is-outgoing list and the face trace.
    """
    flat = _flat(d)
    out = flat[2]
    senses: dict[int, str] = {}
    for idx, trace in enumerate(_face_traces(d, flat)):
        dirs = set(map(out.__getitem__, trace))
        if len(dirs) != 1:
            raise DiagramError(
                f"orientation rule broken: face {idx} mixes edge directions")
        senses[idx] = CCW if True in dirs else CW
    return senses


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
    if not residue:
        return RecurrenceCheck(True, None)
    quotient, exact = divide_out(residue, X - 2)
    if not exact:
        raise FamilyError("not a family triple: the recurrence residue is "
                          "not divisible by (x - 2)")
    return RecurrenceCheck(False, quotient)


@dataclass(frozen=True)
class Unknot:
    """Result of eliminating the last crossing: a circle with no vertices.

    `circles` counts the vertexless closed curves the splice produced.
    """

    circles: int = 1

    def __str__(self) -> str:
        return f"<unknot: {self.circles} circle(s), no crossings>"


def eliminate_crossing(d: Diagram, vertex_id: int, direction: str) -> Diagram | Unknot:
    """Remove a vertex by splicing each incoming edge onto an outgoing edge.

    The lane picks between the two pairings: LANE_OUT joins every incoming
    dart to the outgoing dart that follows it in the rotation, LANE_IN to
    the one that precedes it.  Eliminating the last vertex yields an
    `Unknot` result rather than a diagram.
    """
    b = _Builder(d)
    _check_lane(direction)
    if type(vertex_id) is not int or not 0 <= vertex_id < len(b.rotation):
        raise SurgeryError(f"no vertex {vertex_id!r}")
    ring, twin = b.rotation[vertex_id], b.twin
    step = 1 if direction == LANE_OUT else -1

    def onward(head: int) -> int:
        """Where an arc entering at in dart `head` arrives next."""
        return twin[ring[(ring.index(head) + step) % 4]]

    def reach(head: int) -> None:
        """Strike off a loop head an arc has reached."""
        if head not in loops:
            raise SurgeryError(f"splice strays at dart {head}: inconsistent map")
        loops.remove(head)

    heads = [x for x in ring if b.direction[x] == IN]
    loops = [h for h in heads if twin[h] in ring]
    for h in [h for h in heads if h not in loops]:
        # an arc entering from outside runs on through the vertex's loops;
        # only darts away from the vertex are rewired
        tail, head = twin[h], onward(h)
        while head in ring:
            reach(head)
            head = onward(head)
        twin[tail], twin[head] = head, tail

    # the loop heads no outside arc reached close vertexless circles
    circles = 0
    while loops:
        h = cur = loops.pop()
        while onward(cur) != h:
            cur = onward(cur)
            reach(cur)
        circles += 1
    if len(b.rotation) == 1:
        return Unknot(circles=circles)
    if circles:
        raise SurgeryError(
            "splice closes a vertexless circle while other crossings remain; "
            "the result would be a split diagram")
    b.drop(set(ring), vertex_id)
    return b.finish("elimination")


def pierce_waist(b: _Builder, tail_a: int, tail_b: int) -> None:
    """Thread a fresh circle around the edges leaving `tail_a` and
    `tail_b` together, at new vertices a_l, a_r, b_l and b_r."""
    head_a, head_b = b.twin[tail_a], b.twin[tail_b]
    base = len(b.twin)
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
    b.twin[tail_a] = a1
    b.twin[head_a] = ao_t
    b.twin[tail_b] = b1
    b.twin[head_b] = bo_t
    b._add((tail_a, IN), (ma_h, OUT), (ma_t, IN), (head_a, OUT),
           (tail_b, IN), (mb_h, OUT), (mb_t, IN), (head_b, OUT),
           (r1h, OUT), (r1t, IN), (r2h, OUT), (r2t, IN),
           (r3h, OUT), (r3t, IN), (r4h, OUT), (r4t, IN))
    b.rotation.append((a1, r1t, ma_h, r4t))
    b.rotation.append((ma_t, r3h, ao_t, r4h))
    b.rotation.append((bo_t, r2h, mb_t, r1h))
    b.rotation.append((mb_h, r2t, b1, r3t))


# The polynomial-collision pair: a circle threaded around the waist of a
# twisted loop.  Two growth directions share one polynomial family.
WAIST_RING_GROWTHS = ("chain", "clasp")


def _check_waist_v(v: int) -> None:
    if type(v) is not int or v < 5:
        raise FamilyError(
            f"waist-ring family takes an integer V >= 5, got {v!r}")


def waist_ring_poly(v: int) -> IntPoly:
    """x^2 [(x^2 - 2) J_{V-4} - 2 J_{V-5} - 2], defined for V >= 5."""
    _check_waist_v(v)
    return X * X * ((X * X - 2) * jpoly(v - 4) - 2 * jpoly(v - 5) - 2)


def waist_ring_diagram(v: int, growth: str = "chain") -> Diagram:
    """The two-component link of a ring around a twisted loop's waist.

    Both growth directions extend a ribbon at the loop's crossing and give
    the same polynomials but different diagrams: "chain" keeps two
    components, "clasp" alternates between two and three.
    """
    if growth not in WAIST_RING_GROWTHS:
        raise FamilyError(f"growth must be one of {WAIST_RING_GROWTHS}")
    _check_waist_v(v)
    if v > max_vertices():
        raise FamilyError(f"V={v} above the cap {max_vertices()}")
    b = _twist_chain(1)
    pierce_waist(b, b.tail(0), b.tail(1))
    b.ribbon(0, v - 4, LANE_OUT if growth == "chain" else LANE_IN)
    return b.finish("generator", FamilyError)
