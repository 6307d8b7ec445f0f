"""Diagram rewriting: bigon contraction, ribbon expansion, crossing
elimination and composition twisting.

All operations are pure: inputs are never mutated.  Vertex and dart ids of
results are assigned deterministically (new vertices appended, removed ids
compacted order-preservingly), so expanding and then contracting the new
bigon reproduces the original map exactly, dart for dart.  Every operation,
and every family generator, edits one private builder of flat dart arrays
and turns it into a diagram once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (IN, OUT, Dart, Diagram, DiagramError, faces,
                      validate, _kind, _successors)

LANE_OUT = "lane_out"
LANE_IN = "lane_in"
LANES = (LANE_OUT, LANE_IN)


class SurgeryError(DiagramError):
    """Raised when a rewriting operation is not applicable."""


@dataclass(frozen=True)
class Unknot:
    """Result of eliminating the last crossing: a circle with no vertices.

    `circles` counts the vertexless closed curves the splice produced.
    """

    circles: int = 1

    def __str__(self) -> str:
        return f"<unknot: {self.circles} circle(s), no crossings>"


def _check_lane(lane: str) -> None:
    if lane not in LANES:
        raise SurgeryError(f"lane must be one of {LANES}, got {lane!r}")


def lane_preserving_face(d: Diagram, face_darts) -> str:
    """The expansion lane that keeps the given face's corners intact.

    Expanding a vertex splits the corners of the two faces whose boundary
    runs with the lane's darts: LANE_OUT grows the outgoing-coherent faces
    and keeps incoming-coherent corners, LANE_IN the other way around.
    """
    directions = {d.direction(dart) for dart in face_darts}
    if len(directions) != 1:
        raise SurgeryError("face is not coherently oriented")
    return LANE_OUT if directions == {IN} else LANE_IN


def lane_splitting_face(d: Diagram, face_darts) -> str:
    """The expansion lane that makes the given face one edge longer."""
    return LANE_IN if lane_preserving_face(d, face_darts) == LANE_OUT else LANE_OUT


# ---------------------------------------------------------------------------
# The builder: one diagram under construction, as mutable flat dart arrays
# ---------------------------------------------------------------------------

class _Builder:
    """Mutable `vertex`, `twin` and `direction` lists indexed by dart id,
    plus the rotation ring of every vertex.

    The growth moves append darts and vertices in a fixed order and touch
    only the darts they rewire, in time independent of the diagram's size;
    `build` then makes the `Dart` tuple and derives the kind once, and
    `finish` also validates once.  No move changes a dart's direction, and
    only `drop` renumbers darts.
    """

    def __init__(self, d: Diagram | None = None) -> None:
        """A builder holding d, or holding nothing yet."""
        # d's Dart objects whose id and direction are still those of the
        # builder's dart at their index; `build` reuses each one whose
        # vertex and twin are unchanged too
        self.darts = d.darts if d else ()
        self.vertex = [x.vertex for x in self.darts]
        self.twin = [x.twin for x in self.darts]
        self.direction = [x.direction for x in self.darts]
        self.rotation = list(d.rotation) if d else []

    def disjoint(self, d: Diagram) -> int:
        """Add a copy of d, its dart and vertex ids shifted past the
        existing ones; returns the dart shift."""
        shift_d, shift_v = len(self.twin), len(self.rotation)
        self.vertex += [x.vertex + shift_v for x in d.darts]
        self.twin += [x.twin + shift_d for x in d.darts]
        self.direction += [x.direction for x in d.darts]
        self.rotation += [tuple([x + shift_d for x in ring])
                          for ring in d.rotation]
        return shift_d

    def _add(self, *darts: tuple[int, int, str]) -> None:
        """Append darts given as (vertex, twin, direction), in id order."""
        vertices, twins, directions = zip(*darts)
        self.vertex += vertices
        self.twin += twins
        self.direction += directions

    def tail(self, edge_index: int) -> int:
        """Tail dart of an edge, edges numbered by tail dart id as in
        `Diagram.edge_darts`; a negative index counts from the last."""
        return [i for i, x in enumerate(self.direction) if x == OUT][edge_index]

    def expand(self, vertex: int, lane: str) -> tuple[int, tuple[int, int]]:
        """Replace `vertex` by itself and a new vertex joined through an
        antiparallel bigon along `lane`; returns the new vertex and the
        bigon's two face darts."""
        _check_lane(lane)
        if not 0 <= vertex < len(self.rotation):
            raise SurgeryError(f"no vertex {vertex}")
        ring = self.rotation[vertex]
        want = OUT if lane == LANE_OUT else IN
        # the lane's two arcs; the one holding ring[0] stays
        if self.direction[ring[0]] == want:
            stay, move = ring[0:2], ring[2:4]
        else:
            stay, move = (ring[3], ring[0]), ring[1:3]
        new_v, base = len(self.rotation), len(self.twin)
        # two new edges vertex -> new_v and new_v -> vertex
        t1, h1, t2, h2 = base, base + 1, base + 2, base + 3
        for dart in move:
            self.vertex[dart] = new_v
        self._add((vertex, h1, OUT), (new_v, t1, IN),
                  (new_v, h2, OUT), (vertex, t2, IN))
        if lane == LANE_OUT:
            # arcs run (out, in); appending (t, h) makes the new bigon the
            # incoming-coherent face {h2, h1}
            self.rotation[vertex] = (stay[0], stay[1], t1, h2)
            self.rotation.append((move[0], move[1], t2, h1))
            return new_v, (h1, h2)
        self.rotation[vertex] = (stay[0], stay[1], h2, t1)
        self.rotation.append((move[0], move[1], h1, t2))
        return new_v, (t1, t2)

    def ribbon(self, vertex: int, length: int, lane: str = LANE_IN) -> int:
        """Grow `vertex` into a ribbon of `length` crossings by expanding
        the newest vertex along `lane`; returns the last one."""
        for _ in range(length - 1):
            vertex, _ = self.expand(vertex, lane)
        return vertex

    def curl(self, tail: int) -> int:
        """One-crossing kink in the middle of the edge leaving `tail` (the
        first twist of the edge); returns the new vertex."""
        head = self.twin[tail]
        z, base = len(self.rotation), len(self.twin)
        in_d, out_d, loop_t, loop_h = base, base + 1, base + 2, base + 3
        self.twin[tail] = in_d
        self.twin[head] = out_d
        self._add((z, tail, IN), (z, head, OUT),
                  (z, loop_h, OUT), (z, loop_t, IN))
        self.rotation.append((in_d, loop_t, loop_h, out_d))
        return z

    def twist(self, tail: int, crossings: int) -> None:
        """Twist the edge leaving `tail` `crossings` times: curl it, then
        push the loop one bigon further out, each time along the lane that
        keeps the loop's one-edge face intact."""
        carrier = self.curl(tail)
        for _ in range(crossings - 1):
            new_v, _ = self.expand(carrier, self._loop_lane(carrier))
            if any(self.vertex[self.twin[x]] == new_v
                   for x in self.rotation[new_v]):
                carrier = new_v

    def _loop_lane(self, vertex: int) -> str:
        """lane_preserving_face of the one-edge face at a vertex carrying
        one loop, read from its ring: that face is the dart whose twin
        precedes it."""
        ring = self.rotation[vertex]
        for pos, dart in enumerate(ring):
            if self.twin[dart] == ring[pos - 1]:
                return LANE_OUT if self.direction[dart] == IN else LANE_IN
        raise SurgeryError(f"vertex {vertex} carries no loop")

    def pierce(self, tail: int) -> None:
        """Thread a fresh circle around the edge leaving `tail` (the circle
        crosses it twice; its own two edges form a parallel pair)."""
        head = self.twin[tail]
        z1, z2 = len(self.rotation), len(self.rotation) + 1
        base = len(self.twin)
        a_in = base                        # head at z1, from the old tail side
        mid_t, mid_h = base + 1, base + 2  # z2 -> z1
        d_out = base + 3                   # tail at z2, toward the old head side
        r1t, r1h = base + 4, base + 5      # ring edge z1 -> z2
        r2t, r2h = base + 6, base + 7      # ring edge z1 -> z2
        self.twin[tail] = a_in
        self.twin[head] = d_out
        self._add((z1, tail, IN), (z2, mid_h, OUT), (z1, mid_t, IN),
                  (z2, head, OUT), (z1, r1h, OUT), (z2, r1t, IN),
                  (z1, r2h, OUT), (z2, r2t, IN))
        self.rotation.append((a_in, r1t, mid_h, r2t))
        self.rotation.append((mid_t, r1h, d_out, r2h))

    def pierce_waist(self, tail_a: int, tail_b: int) -> None:
        """Thread a fresh circle around the edges leaving `tail_a` and
        `tail_b` together (4 new crossings)."""
        head_a, head_b = self.twin[tail_a], self.twin[tail_b]
        v = len(self.rotation)
        a_l, a_r, b_l, b_r = v, v + 1, v + 2, v + 3
        base = len(self.twin)
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
        self.twin[tail_a] = a1
        self.twin[head_a] = ao_t
        self.twin[tail_b] = b1
        self.twin[head_b] = bo_t
        self._add((a_l, tail_a, IN), (a_r, ma_h, OUT), (a_l, ma_t, IN),
                  (a_r, head_a, OUT), (b_r, tail_b, IN), (b_l, mb_h, OUT),
                  (b_r, mb_t, IN), (b_l, head_b, OUT), (a_l, r1h, OUT),
                  (b_l, r1t, IN), (b_r, r2h, OUT), (b_l, r2t, IN),
                  (b_r, r3h, OUT), (a_r, r3t, IN), (a_l, r4h, OUT),
                  (a_r, r4t, IN))
        self.rotation.append((a1, r1t, ma_h, r4t))
        self.rotation.append((ma_t, r3h, ao_t, r4h))
        self.rotation.append((bo_t, r2h, mb_t, r1h))
        self.rotation.append((mb_h, r2t, b1, r3t))

    def drop(self, darts: set[int], vertex: int) -> None:
        """Remove `darts` and `vertex`, compacting dart and vertex ids in
        order.  No kept dart may still sit at `vertex` or pair with a
        removed dart."""
        keep = [i for i in range(len(self.twin)) if i not in darts]
        new_id = [-1] * len(self.twin)
        for new, old in enumerate(keep):
            new_id[old] = new
        self.vertex = [self.vertex[i] - (self.vertex[i] > vertex) for i in keep]
        self.twin = [new_id[self.twin[i]] for i in keep]
        self.direction = [self.direction[i] for i in keep]
        del self.rotation[vertex]
        self.rotation = [tuple([new_id[x] for x in ring])
                         for ring in self.rotation]
        self.darts = self.darts[:min(darts)]  # the ids that did not move

    def build(self) -> Diagram:
        """The diagram, with the kind its structure dictates.  An unchanged
        dart is the input's `Dart` object, so only the darts a move adds or
        rewires are made anew."""
        n = len(self.twin)
        darts = [x if x.vertex == v and x.twin == t
                 else Dart(x.id, v, t, x.direction)
                 for x, v, t in zip(self.darts, self.vertex, self.twin)]
        k = len(darts)
        darts += map(Dart, range(k, n), self.vertex[k:], self.twin[k:],
                     self.direction[k:])
        kind = _kind(self.twin, _successors(self.rotation, n),
                     [r == OUT for r in self.direction], self.vertex)
        return Diagram(kind, len(self.rotation), tuple(darts),
                       tuple(self.rotation))

    def finish(self, what: str,
               error: type[Exception] = SurgeryError) -> Diagram:
        """`build`, validated once: raises `error` naming `what` when the
        diagram breaks an invariant."""
        out = self.build()
        problems = validate(out)
        if problems:
            raise error(f"{what} produced an invalid diagram: "
                        + "; ".join(problems))
        return out


# ---------------------------------------------------------------------------
# Ribbon expansion: vertex -> two vertices joined by an antiparallel bigon
# ---------------------------------------------------------------------------

def _expand(d: Diagram, vertex_id: int, lane: str) -> tuple[Diagram, int, tuple[int, int]]:
    """Expansion core; returns (diagram, new vertex id, new bigon's face darts)."""
    b = _Builder(d)
    new_v, bigon = b.expand(vertex_id, lane)
    return b.build(), new_v, bigon


def expand_vertex(d: Diagram, vertex_id: int, direction: str) -> Diagram:
    """Replace a vertex by two vertices joined through a new antiparallel
    bigon inserted along the chosen lane.

    Contracting the new face undoes the expansion: the same darts, twins
    and rotations come back (rotation tuples may restart elsewhere in
    their cycle).
    """
    out, _, _ = _expand(d, vertex_id, direction)
    return out


# ---------------------------------------------------------------------------
# Bigon contraction
# ---------------------------------------------------------------------------

def contract_bigon(d: Diagram, face_id: int) -> Diagram:
    """Destroy a two-edge face, merging its endpoint vertices into one.

    Orientations elsewhere are untouched.  Rejected when the face is not a
    bigon, or when its two edges close a circle on a single vertex (such a
    circle is a whole strand; contracting it would cut the strand off).
    """
    face_list, _ = faces(d)
    if not 0 <= face_id < len(face_list):
        raise SurgeryError(f"no face {face_id}")
    trace = face_list[face_id]
    if len(trace) != 2:
        raise SurgeryError(
            f"face {face_id} has {len(trace)} edges, contraction needs a bigon")
    p, q = trace
    v1, v2 = d.vertex_of(p), d.vertex_of(q)
    if v1 == v2:
        raise SurgeryError(
            "bigon closes a double-edge circle on one vertex; contracting "
            "it would disconnect that strand")

    keep, gone = min(v1, v2), max(v1, v2)
    removed = {p, q, d.twin(p), d.twin(q)}

    def remaining_arc(vertex: int) -> tuple[int, int]:
        ring = d.rotation[vertex]
        for i in range(4):
            if ring[i] in removed and ring[(i + 1) % 4] in removed:
                return ring[(i + 2) % 4], ring[(i + 3) % 4]
        raise SurgeryError("bigon darts are not adjacent in the rotation; "
                           "the diagram is not a valid alternating map")

    arc_keep = remaining_arc(keep)
    arc_gone = remaining_arc(gone)

    b = _Builder(d)
    for dart in arc_gone:
        b.vertex[dart] = keep
    b.rotation[keep] = arc_keep + arc_gone
    b.drop(removed, gone)
    return b.finish("contraction")


# ---------------------------------------------------------------------------
# Crossing elimination
# ---------------------------------------------------------------------------

def eliminate_crossing(d: Diagram, vertex_id: int, direction: str) -> Diagram | Unknot:
    """Remove a vertex by splicing each incoming edge onto an outgoing edge.

    The lane picks between the two pairings: LANE_OUT joins every incoming
    dart to the outgoing dart that follows it in the rotation, LANE_IN to
    the one that precedes it.  Eliminating the last vertex yields an
    `Unknot` result rather than a diagram.
    """
    _check_lane(direction)
    if not 0 <= vertex_id < d.vertex_count:
        raise SurgeryError(f"no vertex {vertex_id}")
    b = _Builder(d)
    ring, twin, vertex = b.rotation[vertex_id], b.twin, b.vertex
    step = 1 if direction == LANE_OUT else -1

    def onward(head: int) -> int:
        """Where an arc entering at in dart `head` arrives next."""
        return twin[ring[(ring.index(head) + step) % 4]]

    heads = [x for x in ring if b.direction[x] == IN]
    loops = [h for h in heads if vertex[twin[h]] == vertex_id]
    for h in [h for h in heads if h not in loops]:
        # an arc entering from outside runs on through the vertex's loops;
        # only darts away from the vertex are rewired
        tail, head = twin[h], onward(h)
        while vertex[head] == vertex_id:
            loops.remove(head)
            head = onward(head)
        twin[tail], twin[head] = head, tail

    # the loop heads no outside arc reached close vertexless circles
    circles = 0
    while loops:
        h = cur = loops.pop()
        while onward(cur) != h:
            cur = onward(cur)
            loops.remove(cur)
        circles += 1
    if d.vertex_count == 1:
        return Unknot(circles=circles)
    if circles:
        raise SurgeryError(
            "splice closes a vertexless circle while other crossings remain; "
            "the result would be a split diagram")
    b.drop(set(ring), vertex_id)
    return b.finish("elimination")


# ---------------------------------------------------------------------------
# Composition with twisting
# ---------------------------------------------------------------------------

def compose_twist(d1: Diagram, edge1: int, d2: Diagram, edge2: int,
                  twists: int = 0) -> Diagram:
    """Connected sum through one edge of each diagram, with half-twists.

    Both chosen edges are cut and the four loose ends rejoined through a
    band carrying `twists` crossings (a ribbon of twist vertices).  With no
    twists this is the plain composition; successive twist counts form a
    family obeying the homogeneous three-term recurrence.
    """
    if twists < 0:
        raise SurgeryError("twist count must be >= 0")
    e1 = d1.edge_darts()
    e2 = d2.edge_darts()
    if not 0 <= edge1 < len(e1):
        raise SurgeryError(f"diagram 1 has no edge {edge1}")
    if not 0 <= edge2 < len(e2):
        raise SurgeryError(f"diagram 2 has no edge {edge2}")
    t1_dart, h1_dart = e1[edge1]
    t2_dart, h2_dart = e2[edge2]

    m = _Builder(d1)
    shift = m.disjoint(d2)
    t2s, h2s = t2_dart + shift, h2_dart + shift
    if twists == 0:
        # cross join: tail of edge1 to head of edge2 and vice versa
        m.twin[t1_dart], m.twin[h2s] = h2s, t1_dart
        m.twin[t2s], m.twin[h1_dart] = h1_dart, t2s
    else:
        # one twist vertex z; both strands cross there, and the band's
        # ribbon grows from the newest twist vertex
        z, base = len(m.rotation), len(m.twin)
        a1, b1, a2, b2 = base, base + 1, base + 2, base + 3
        # a1: head of edge1's tail-side strand at z, b1: tail toward h1
        m.twin[t1_dart], m.twin[h1_dart] = a1, b1
        m.twin[t2s], m.twin[h2s] = a2, b2
        m._add((z, t1_dart, IN), (z, h1_dart, OUT),
               (z, t2s, IN), (z, h2s, OUT))
        m.rotation.append((a1, b1, a2, b2))
        m.ribbon(z, twists)
    return m.finish("composition")
