"""Diagram rewriting: bigon contraction, ribbon expansion and composition
twisting.

All operations are pure: inputs are never mutated.  Vertex and dart ids of
results are assigned deterministically (new vertices appended, removed ids
compacted order-preservingly), so expanding and then contracting the new
bigon reproduces the original map exactly, dart for dart.  Every operation,
and every family generator, edits one private builder of flat dart arrays
and turns it into a diagram once.
"""

from __future__ import annotations

from .diagram import (_DIRECTION, IN, OUT, Diagram, DiagramError,
                      _face_traces, _flat, _made)

LANE_OUT = "lane_out"
LANE_IN = "lane_in"
LANES = (LANE_OUT, LANE_IN)


class SurgeryError(DiagramError):
    """Raised when a rewriting operation is not applicable."""


def _check_lane(lane: str) -> None:
    if lane not in LANES:
        raise SurgeryError(f"lane must be one of {LANES}, got {lane!r}")


# ---------------------------------------------------------------------------
# The builder: one diagram under construction, as mutable flat dart arrays
# ---------------------------------------------------------------------------

class _Builder:
    """Mutable `twin` and `direction` lists indexed by dart id, plus the
    rotation ring of every vertex, the vertex of the darts it lists.

    The growth moves append darts and vertices in a fixed order and touch
    only the darts they rewire, in time independent of the diagram's size;
    `finish` then works out the vertices, derives the kind and checks the
    result, each once, and hands its lists to the diagram.  No move changes
    a dart's direction, and only `drop` renumbers darts.
    """

    def __init__(self, d: Diagram | None = None) -> None:
        """A builder holding d, or holding nothing yet.  Every operation
        reads its input only through `_flat`'s gate, and `flat` keeps the
        read-only lists it returned, which describe d, not the builder
        after a move: twin is copied, and rings become tuples."""
        if d is None:
            self.rotation, self.flat = [], None
            self.twin, self.direction = [], []
            return
        self.flat = _flat(d, SurgeryError)
        self.twin = self.flat[0][:]
        self.direction = list(map(_DIRECTION.__getitem__, self.flat[2]))
        self.rotation = [*map(tuple, d.rotation)]

    def disjoint(self, d: Diagram) -> int:
        """Add a copy of d, its dart ids shifted past the existing ones;
        returns the dart shift."""
        other, shift = _Builder(d), len(self.twin)
        self.rotation += [tuple([x + shift for x in ring])
                          for ring in other.rotation]
        self.twin += [x + shift for x in other.twin]
        self.direction += other.direction
        return shift

    def _add(self, *darts: tuple[int, str]) -> None:
        """Append darts given as (twin, direction), in id order."""
        twins, directions = zip(*darts)
        self.twin += twins
        self.direction += directions

    def tail(self, edge_index: int) -> int:
        """Tail dart of an edge, edges numbered in order of tail dart id;
        a negative index counts from the last."""
        return [i for i, x in enumerate(self.direction) if x == OUT][edge_index]

    def expand(self, vertex: int, lane: str) -> tuple[int, tuple[int, int]]:
        """Replace `vertex` by itself and a new vertex joined through an
        antiparallel bigon along `lane`; returns the new vertex and the
        bigon's two face darts."""
        _check_lane(lane)
        if type(vertex) is not int or not 0 <= vertex < len(self.rotation):
            raise SurgeryError(f"no vertex {vertex!r}")
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
        self._add((h1, OUT), (t1, IN), (h2, OUT), (t2, IN))
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
        self._add((tail, IN), (head, OUT), (loop_h, OUT), (loop_t, IN))
        self.rotation.append((in_d, loop_t, loop_h, out_d))
        return z

    def twist(self, tail: int, crossings: int) -> None:
        """Twist the edge leaving `tail` `crossings` times: curl it, then
        push the loop one bigon further out, each time along the lane that
        keeps the loop's one-edge face intact."""
        carrier = self.curl(tail)
        for _ in range(crossings - 1):
            new_v, _ = self.expand(carrier, self._loop_lane(carrier))
            ring = self.rotation[new_v]
            if any(self.twin[x] in ring for x in ring):
                carrier = new_v

    def _loop_lane(self, vertex: int) -> str:
        """The lane that keeps intact the one-edge face at a vertex
        carrying one loop, read from its ring: that face is the dart whose
        twin precedes it.  Expanding along a lane splits the corners of the
        faces whose boundary runs with the lane's darts, so LANE_OUT keeps
        an incoming-coherent face and LANE_IN an outgoing-coherent one."""
        ring = self.rotation[vertex]
        for pos, dart in enumerate(ring):
            if self.twin[dart] == ring[pos - 1]:
                return LANE_OUT if self.direction[dart] == IN else LANE_IN
        raise SurgeryError(f"vertex {vertex} carries no loop")

    def pierce(self, tail: int) -> None:
        """Thread a fresh circle around the edge leaving `tail`: it crosses
        the edge at new vertices z1 and z2, and its own two edges form a
        parallel pair."""
        head = self.twin[tail]
        base = len(self.twin)
        a_in = base                        # head at z1, from the old tail side
        mid_t, mid_h = base + 1, base + 2  # z2 -> z1
        d_out = base + 3                   # tail at z2, toward the old head side
        r1t, r1h = base + 4, base + 5      # ring edge z1 -> z2
        r2t, r2h = base + 6, base + 7      # ring edge z1 -> z2
        self.twin[tail] = a_in
        self.twin[head] = d_out
        self._add((tail, IN), (mid_h, OUT), (mid_t, IN), (head, OUT),
                  (r1h, OUT), (r1t, IN), (r2h, OUT), (r2t, IN))
        self.rotation.append((a_in, r1t, mid_h, r2t))
        self.rotation.append((mid_t, r1h, d_out, r2h))

    def drop(self, darts: set[int], vertex: int) -> None:
        """Remove `darts` and `vertex`, compacting dart and vertex ids in
        order.  No kept dart may still sit at `vertex` or pair with a
        removed dart."""
        keep = [i for i in range(len(self.twin)) if i not in darts]
        new_id = [-1] * len(self.twin)
        for new, old in enumerate(keep):
            new_id[old] = new
        self.twin = [new_id[self.twin[i]] for i in keep]
        self.direction = [self.direction[i] for i in keep]
        del self.rotation[vertex]
        self.rotation = [tuple([new_id[x] for x in ring])
                         for ring in self.rotation]

    def finish(self, what: str,
               error: type[Exception] = SurgeryError) -> Diagram:
        """`diagram._made` of the builder's lists, raising `error` naming
        `what`; the builder is spent: its lists are now the diagram's."""
        return _made(self.twin, self.direction, self.rotation, what, error)


# ---------------------------------------------------------------------------
# Ribbon expansion: vertex -> two vertices joined by an antiparallel bigon
# ---------------------------------------------------------------------------

def _expand(d: Diagram, vertex_id: int, lane: str) -> tuple[Diagram, int, tuple[int, int]]:
    """Expansion core; returns (diagram, new vertex id, new bigon's face darts).

    The result is checked once, like every surgery result.  The move
    leaves the other rings as they were, writes two alternating rings only
    from a ring that alternates, and keeps connectivity and V - E + F, so
    this refuses exactly the maps `validate` rejects that the builder
    takes in: a ring that does not alternate, a disconnected or a
    non-planar map."""
    b = _Builder(d)
    new_v, bigon = b.expand(vertex_id, lane)
    return b.finish("expansion"), new_v, bigon


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
    b = _Builder(d)
    ring_of = b.flat[3]
    face_list = _face_traces(d, b.flat)
    if type(face_id) is not int or not 0 <= face_id < len(face_list):
        raise SurgeryError(f"no face {face_id!r}")
    trace = face_list[face_id]
    if len(trace) != 2:
        raise SurgeryError(
            f"face {face_id} has {len(trace)} edges, contraction needs a bigon")
    p, q = trace
    v1, v2 = ring_of[p], ring_of[q]
    if v1 == v2:
        raise SurgeryError(
            "bigon closes a double-edge circle on one vertex; contracting "
            "it would disconnect that strand")

    keep, gone = min(v1, v2), max(v1, v2)
    removed = {p, q, b.twin[p], b.twin[q]}

    def remaining_arc(vertex: int) -> tuple[int, int]:
        ring = b.rotation[vertex]
        for i in range(4):
            if ring[i] in removed and ring[(i + 1) % 4] in removed:
                return ring[(i + 2) % 4], ring[(i + 3) % 4]
        raise SurgeryError("bigon darts are not adjacent in the rotation; "
                           "the diagram is not a valid alternating map")

    b.rotation[keep] = remaining_arc(keep) + remaining_arc(gone)
    b.drop(removed, gone)
    return b.finish("contraction")


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
    m = _Builder(d1)
    shift = m.disjoint(d2)
    if type(twists) is not int or twists < 0:
        raise SurgeryError(
            f"twist count must be an integer >= 0, got {twists!r}")
    # the twins pair out with in darts, so half of each diagram's darts
    # are edge tails, d1's first
    if type(edge1) is not int or not 0 <= edge1 < shift // 2:
        raise SurgeryError(f"diagram 1 has no edge {edge1!r}")
    if type(edge2) is not int or not 0 <= edge2 < (len(m.twin) - shift) // 2:
        raise SurgeryError(f"diagram 2 has no edge {edge2!r}")
    t1_dart, t2s = m.tail(edge1), m.tail(shift // 2 + edge2)
    h1_dart, h2s = m.twin[t1_dart], m.twin[t2s]
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
        m._add((t1_dart, IN), (h1_dart, OUT), (t2s, IN), (h2s, OUT))
        m.rotation.append((a1, b1, a2, b2))
        m.ribbon(z, twists)
    return m.finish("composition")
