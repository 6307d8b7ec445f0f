"""Alternating knot/link/twist diagrams as combinatorial maps.

A diagram is a connected 4-regular map on the sphere whose vertices are
crossings.  Each vertex carries four darts (half-edges) in cyclic embedding
order, alternating outgoing and incoming: the two outgoing darts form the
upper (unstable) lane of the crossing, the two incoming darts the lower
(stable) lane.  That orientation rule is exactly what makes the projected
curve alternating, and it two-colors the faces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from itertools import compress
from operator import eq, not_

OUT = "out"
IN = "in"

KINDS = ("knot", "link", "twist")
_EDGE = ((OUT, IN), (IN, OUT))  # the directions of an edge's two darts
_DIRECTION = (IN, OUT)  # a dart's direction, indexed by is-outgoing


class DiagramError(Exception):
    """Raised for operations on structurally unusable diagrams."""


class DiagramFormatError(DiagramError):
    """Raised when parsing a serialized diagram fails."""


@dataclass(frozen=True)
class Dart:
    """Half of an oriented edge, attached to `vertex`.

    `direction` is OUT when the edge points away from the vertex, IN when it
    points toward it.  `twin` is the dart id of the other half.
    """

    id: int
    vertex: int
    twin: int
    direction: str


class _Darts(Sequence):
    """The `Dart` records of a diagram the surgery builder made, read-only,
    over the `_flat` lists it carries.  The records, `tuple(map(Dart,
    range(n), vertex, twin, direction))`, are made once, when an item is
    first read, the view is iterated or compared, or its hash or repr is
    taken; `len` reads the lists.  The view equals that tuple and hashes
    like it, and a copy or pickle of it is that tuple."""

    __slots__ = ("_flat", "_records")

    def __init__(self, flat: tuple) -> None:
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_records", None)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError("the darts of a diagram are read-only")

    __delattr__ = __setattr__

    def _tuple(self) -> tuple[Dart, ...]:
        records = self._records
        if records is None:
            twin, _, out, vertex = self._flat
            records = tuple(map(Dart, range(len(twin)), vertex, twin,
                                map(_DIRECTION.__getitem__, out)))
            object.__setattr__(self, "_records", records)
        return records

    def __len__(self) -> int:
        return len(self._flat[0])

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self) -> Iterator[Dart]:
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        return self._tuple() == other

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __reduce__(self) -> tuple:
        return tuple, (self._tuple(),)


@dataclass(frozen=True)
class Diagram:
    """Immutable combinatorial map of a 2-in/2-out 4-regular sphere graph.

    `rotation[v]` lists the four darts at vertex v in cyclic embedding
    order; validity requires the directions to alternate around each
    vertex.  All operations treat diagrams as values and return new ones.
    """

    kind: str
    vertex_count: int
    darts: Sequence[Dart]
    rotation: tuple[tuple[int, int, int, int], ...]
    _checked = None  # `_flat`'s lists and face trace, set by `_carry` only

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges as (tail_vertex, head_vertex), one per edge,
        ordered by tail dart id; `_flat` reads each vertex from the rings."""
        twin, _, out, vertex = _flat(self)
        return [(vertex[i], vertex[t])
                for i, t in enumerate(twin) if out[i]]

    def loop_count(self) -> int:
        """Out darts whose twin is in their own ring (`_kind`'s loop test),
        read from `_flat`'s lists."""
        twin, _, out, vertex = _flat(self)
        return sum(map(eq, map(vertex.__getitem__, compress(twin, out)),
                       compress(vertex, out)))

    def __str__(self) -> str:
        return f"<{self.kind} diagram, V={self.vertex_count}>"


def _flat(d: Diagram, error: type[DiagramError] = DiagramError
          ) -> tuple[list[int], list[int], list[bool], list[int]]:
    """twin, rotation successor, is-outgoing and vertex (the index of the
    ring that lists it) of every dart, as lists indexed by dart id, which
    the readers and the surgery builder read, read-only: the lists d
    carries (`_carry`), which its read-only darts and tuples of ints cannot
    change under, else read from the rotation, the vertex count and each
    dart's id, twin and direction (`Dart.vertex` is only type-checked)
    behind the one gate: raises `error` with `_type_problem`'s text, and
    unless the ids are 0, 1, ... in order, the rings list every dart once,
    four per vertex, and the twins pair each out dart with one in dart (a
    direction is compared with OUT and IN, never hashed); alternation is
    left to the walks."""
    if checked := d._checked:
        return checked[0]
    problem = _type_problem(d)
    if problem:
        raise error(problem)
    darts = d.darts
    n = len(darts)
    succ, vertex = _rings(d.rotation, n)
    if [x.id for x in darts] != list(range(n)):
        raise error("dart ids must be 0, 1, ... in order")
    # n entries in n/4 rings reach all n darts only if each is listed once
    if -1 in vertex or not n == 4 * len(d.rotation) == 4 * d.vertex_count:
        raise error("the rotation rings do not list every dart "
                    "exactly once, four per vertex")
    twin = [x.twin for x in darts]
    if n and not 0 <= min(twin) <= max(twin) < n:
        raise error("a dart's twin is out of range")
    direction = [x.direction for x in darts]
    out = [x == OUT for x in direction]
    # an involution whose pairs differ in direction has no fixed point
    if (list(map(twin.__getitem__, twin)) != list(range(n))
            or direction.count(OUT) + direction.count(IN) != n
            or any(map(eq, map(out.__getitem__, twin), out))):
        raise error("the twins do not pair each out dart with "
                    "one in dart")
    return twin, succ, out, vertex


def _carry(d: Diagram, flat: tuple, faces: list) -> Diagram:
    """d, carrying the `_flat` lists and face trace of a check that found
    nothing: for `_made` and `from_json_dict`, which make d's rings tuples
    and its darts a view over `flat` (`_Darts`) or a tuple of records."""
    object.__setattr__(d, "_checked", (flat, faces))
    return d


def _type_problem(d: Diagram) -> str | None:
    """The type rule, `validate`'s text for the first field of d of the
    wrong type, or None: the vertex count, the darts (a sequence of `Dart`
    records), a dart's id, vertex or twin, the rotation (a sequence of
    sequences), a ring entry.  Every number must be an `int` (`bool` and
    `float` refused).  Set passes when all pass, the fastest form measured."""
    if type(d.vertex_count) is not int:
        return f"vertex count: V must be an integer, got {d.vertex_count!r}"
    darts = d.darts
    if not isinstance(darts, Sequence):
        return f"darts: must be a sequence of Dart records, got {darts!r}"
    if not set(map(type, darts)) <= {Dart}:
        for i, x in enumerate(darts):
            if not isinstance(x, Dart):
                return f"darts: entry {i} must be a Dart record, got {x!r}"
    if not ({type(x.id) for x in darts} | {type(x.vertex) for x in darts}
            | {type(x.twin) for x in darts}) <= {int}:
        for i, x in enumerate(darts):
            for name in ("id", "vertex", "twin"):
                v = getattr(x, name)
                if type(v) is not int:
                    return f"dart {i}: {name} must be an integer, got {v!r}"
    if not isinstance(d.rotation, Sequence):
        return f"rotation: must be a sequence of rings, got {d.rotation!r}"
    if not all(issubclass(t, Sequence) for t in set(map(type, d.rotation))):
        for v, ring in enumerate(d.rotation):
            if not isinstance(ring, Sequence):
                return (f"rotation: ring of vertex {v} must be a sequence "
                        f"of dart ids, got {ring!r}")
    if not {type(x) for ring in d.rotation for x in ring} <= {int}:
        for v, ring in enumerate(d.rotation):
            for x in ring:
                if type(x) is not int:
                    return (f"rotation: ring of vertex {v} must hold "
                            f"integers, got {x!r}")
    return None


def _rings(rotation: Sequence[Sequence[int]],
           n: int) -> tuple[list[int], list[int]]:
    """Rotation successor and ring index (the vertex) of each of n darts,
    read from the rotation alone; -1 for a dart in no ring.  Every caller
    passes rings of `int` dart ids, as `_type_problem` checks them."""
    succ, ring_of = [-1] * n, [-1] * n
    for v, ring in enumerate(rotation):
        if len(ring) == 4:
            a, b, c, e = ring
            if 0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= e < n:
                succ[a], succ[b], succ[c], succ[e] = b, c, e, a
                ring_of[a] = ring_of[b] = ring_of[c] = ring_of[e] = v
    return succ, ring_of


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(d: Diagram) -> list[str]:
    """All violated invariants as human-readable strings; empty means valid.

    Violations are data, not exceptions: arbitrary candidate structures are
    accepted and reported on.  A kind outside KINDS is listed first, and
    the map's own checks run on a list of their own, so it hides none.  A
    diagram that carries checked lists passed these checks when it was made.
    """
    return [] if d._checked else _check(d)[0]


def _check(d: Diagram) -> tuple[list[str], tuple | None]:
    """`validate`'s report on d's records, and the `_flat` lists and face
    trace it built if it is empty."""
    problems: list[str] = []
    if d.kind not in KINDS:
        problems.append(f"kind: {d.kind!r} is not one of {KINDS}")
    bad_field = _type_problem(d)
    if bad_field:
        problems.append(bad_field)
        return problems, None
    twin = [x.twin for x in d.darts]
    vertex = [x.vertex for x in d.darts]
    direction = [x.direction for x in d.darts]
    out = [x == OUT for x in direction]
    succ, ring_of = _rings(d.rotation, len(twin))
    found: list[str] = []
    faces = _map_problems(found, d.vertex_count, d.rotation, succ, ring_of,
                          [x.id for x in d.darts], vertex, twin, direction,
                          out)
    if faces and d.kind != (kind := _kind(twin, succ, out, vertex)):
        found.append(f"kind: the structure makes it a {kind}, "
                     f"but kind is {d.kind!r}")
    problems += found
    return problems, None if problems else ((twin, succ, out, vertex), faces)


def _map_problems(problems: list[str], vertex_count: int, rotation: Sequence,
                  succ: list[int], ring_of: list[int], ids: Sequence[int],
                  vertex: list[int], twin: list[int], direction: list[str],
                  out: list[bool]) -> list[tuple[int, ...]] | bool:
    """`validate`'s checks from the vertex count through Euler on lists by
    dart id, for it and `_made`: appends to `problems`, which must start
    empty (a problem in it stops them after the twin checks), and returns
    the Euler check's face trace when they ran to the end, else False.  A
    loop runs only where C-level passes fail, to write the texts.  Ring
    listing passes when `ring_of == vertex`: the 4V darts then fill at
    most V rings of four, so each is listed once (pigeonhole), and each
    ring alternates iff `out[succ[i]] != out[i]` for its darts."""
    n = len(twin)
    if vertex_count < 1:
        problems.append("vertex count: V must be >= 1")
        return False
    if n != 4 * vertex_count:
        problems.append(
            f"dart count: expected {4 * vertex_count} darts, found {n}")
        return False
    if (list(ids) != list(range(n)) or not 0 <= min(twin) <= max(twin) < n
            or not 0 <= min(vertex) <= max(vertex) < vertex_count):
        for i, (x, v, t) in enumerate(zip(ids, vertex, twin)):
            if x != i:
                problems.append(f"dart ids: dart at index {i} has id {x}")
            elif not 0 <= v < vertex_count:
                problems.append(f"dart {i}: vertex {v} out of range")
            elif not 0 <= t < n:
                problems.append(f"dart {i}: twin {t} out of range")
            else:
                continue
            return False

    if (list(map(twin.__getitem__, twin)) != list(range(n))
            or direction.count(OUT) + direction.count(IN) != n
            or any(map(eq, map(out.__getitem__, twin), out))):
        for i, t in enumerate(twin):
            if t == i:
                problems.append(f"twin involution: dart {i} is its own twin")
            elif twin[t] != i:
                problems.append(f"twin involution: twin({t}) != {i}")
            elif i < t and (direction[i], direction[t]) not in _EDGE:
                problems.append(f"twin directions: edge ({i},{t}) must "
                                "have one out and one in dart")
    if problems:
        return False

    # every direction is OUT or IN from here on, so `out` says it all
    if len(rotation) != vertex_count:
        problems.append("rotation: one ring per vertex required")
        return False
    if ring_of != vertex or any(map(eq, map(out.__getitem__, succ), out)):
        darts_at: list[list[int]] = [[] for _ in range(vertex_count)]
        for i, v in enumerate(vertex):
            darts_at[v].append(i)
        for v, ring in enumerate(rotation):
            if sorted(ring) != darts_at[v] or len(ring) != 4:
                problems.append(
                    f"rotation: ring of vertex {v} does not list its 4 darts")
                continue
            a, b, c, e = ring
            if out[a] == out[c] != out[b] == out[e]:
                continue  # alternates, so two out darts
            outs = out[a] + out[b] + out[c] + out[e]
            problems.append(
                f"in/out balance: vertex {v} has {outs} out darts, needs 2"
                if outs != 2 else f"rotation alternation: vertex {v} does "
                "not alternate out/in around the vertex")
        if problems:
            return False

    # every ring now holds exactly its vertex's darts, so the darts are
    # connected iff the vertices are
    seen = [False] * vertex_count
    seen[vertex[0]] = True
    stack = [vertex[0]]
    while stack:
        for dart in rotation[stack.pop()]:
            w = vertex[twin[dart]]
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        problems.append("connectivity: the map is not connected")
        return False

    face_list = _traces(twin, succ)
    if len(face_list) != vertex_count + 2:
        problems.append(
            f"euler: face tracing gives {len(face_list)} faces, a sphere "
            f"map with V={vertex_count} must have {vertex_count + 2}")
    return face_list


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceCensus:
    """Face-size census: counts[j] = number of faces bounded by j edges.

    The unbounded face (the sea) is always included.
    """

    counts: dict[int, int]
    largest: int


def _traces(twin: list[int], succ: list[int]) -> list[tuple[int, ...]]:
    """Faces in order of their smallest dart, each traced from it on flat
    arrays: a face steps from a dart to the rotation successor of its
    twin.  Every caller passes arrays checked as `_flat` checks them, so
    twin and succ are permutations and so is a step: the first seen dart
    a trace meets is its own start."""
    seen = [False] * len(twin)
    faces = []
    for start in range(len(twin)):
        if seen[start]:
            continue
        trace, cur = [], start
        while not seen[cur]:
            seen[cur] = True
            trace.append(cur)
            cur = succ[twin[cur]]
        faces.append(tuple(trace))
    return faces


def _face_traces(d: Diagram, flat: tuple | None = None
                 ) -> list[tuple[int, ...]]:
    """`_traces` of d, read-only: the trace d carries, else traced from
    `flat`, d's `_flat` lists if the caller holds them, or a fresh one."""
    if checked := d._checked:
        return checked[1]
    return _traces(*(flat or _flat(d))[:2])


def faces(d: Diagram) -> tuple[list[tuple[int, ...]], FaceCensus]:
    """All faces as cyclic dart sequences, plus the census.

    From a dart the boundary continues with the rotation successor of its
    twin; every dart lies on exactly one face.
    """
    face_list = _face_traces(d)[:]  # the caller's own list
    counts: dict[int, int] = {}
    for trace in face_list:
        counts[len(trace)] = counts.get(len(trace), 0) + 1
    return face_list, FaceCensus(counts, max(counts) if counts else 0)


def check_face_identity(census: FaceCensus) -> bool:
    """2*C_2 + C_3 == 8 + sum over j>=5 of (j-4)*C_j, for loop-free censuses.

    Censuses with one-edge faces are outside the identity's hypotheses and
    are rejected.
    """
    if census.counts.get(1, 0):
        raise ValueError("face identity needs a loop-free census (C_1 = 0)")
    lhs = 2 * census.counts.get(2, 0) + census.counts.get(3, 0)
    rhs = 8 + sum((j - 4) * c for j, c in census.counts.items() if j >= 5)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Strand components at map level (used to derive `kind`)
# ---------------------------------------------------------------------------

def component_count(d: Diagram) -> int:
    """Number of closed curves, by pairing each edge with the co-tail edge
    at its tail and the co-head edge at its head."""
    twin, succ, out, _ = _flat(d)
    return _strand_count(twin, succ, out)


def _strand_count(twin: list[int], succ: list[int], out: list[bool]) -> int:
    """component_count on flat arrays.  An edge is named by its tail dart;
    the dart opposite an edge end in its ring (two successor steps away)
    shares the lane, and the walk leaves through it, alternately at the
    tail and at the head.  On a consistent map a walk visits each (edge,
    end) pair at most once, so it closes within one step per dart; a walk
    that does not has met an inconsistent map and raises DiagramError."""
    count = 0
    seen = [False] * len(twin)
    for start in range(len(twin)):
        if not out[start] or seen[start]:
            continue
        count += 1
        cur, via_tail = start, True
        for _ in range(len(twin)):
            seen[cur] = True
            mate = succ[succ[cur if via_tail else twin[cur]]]
            cur = mate if out[mate] else twin[mate]
            via_tail = not via_tail
            if cur == start and via_tail:
                break
        else:
            raise DiagramError(
                f"the strand from dart {start} does not close: "
                "inconsistent map")
    return count


def _kind(twin: list[int], succ: list[int], out: list[bool],
          vertex: list[int]) -> str:
    """knot / link / twist as the structure dictates, on flat arrays: a
    map with a loop edge is a twist."""
    if any(map(eq, map(vertex.__getitem__, compress(twin, out)),
               compress(vertex, out))):
        return "twist"
    return "knot" if _strand_count(twin, succ, out) == 1 else "link"


# ---------------------------------------------------------------------------
# Canonical form / isomorphism
# ---------------------------------------------------------------------------

def _bfs_code(root: int, twin: list[int], succ: list[int], out: list[bool],
              order: list[int]) -> Iterator[tuple[int, int, bool]]:
    """Root's BFS relabeling code, one entry per dart as it is processed:
    (label of twin, label of rotation successor, is outgoing).  `order`
    receives the darts in label order as they are reached."""
    label = [-1] * len(twin)
    label[root] = 0
    order.append(root)
    for cur in order:
        t = twin[cur]
        if label[t] < 0:
            label[t] = len(order)
            order.append(t)
        s = succ[cur]
        if label[s] < 0:
            label[s] = len(order)
            order.append(s)
        yield label[t], label[s], out[cur]


def _least(least: list[int], x: int) -> int:
    """The least member of x's class in the union-find `least`, halving
    the path on the way."""
    while least[x] != x:
        least[x] = x = least[least[x]]
    return x


def canonical_code(d: Diagram) -> tuple:
    """Label-independent code: minimum over all root darts of the BFS
    relabeling code.  Two connected diagrams are isomorphic as oriented
    sphere maps iff their codes are equal.  Mirror images are distinct.

    Entry i of a root's code, (label of twin, label of rotation successor,
    is outgoing) for the i-th dart reached, is known as soon as that dart
    is processed, so each root's BFS runs only while its entries equal the
    best code's: it is dropped at its first greater entry and becomes the
    best at its first smaller one.  The best is kept suspended and
    extended by one entry only when a root's comparison reaches its end;
    it is finished once, after the last root.  No code is a proper prefix
    of another, even on a disconnected map: if a code's first m entries
    name only labels below m, its BFS closed after m darts.  So two
    different codes differ at an entry both have, and that entry decides
    tuple order.

    Extension never reads past the best's BFS.  Suppose a root's first i
    entries equal the best's and the best's BFS closed after i darts.
    Those i entries name only labels below i, so the root's BFS closed
    there too, and it has no entry i.

    Orbit pruning (McKay and Piperno, "Practical graph isomorphism, II",
    2014).  When a root's code equals the best's in full (so, as above,
    both BFSs closed after the same number of darts), the map sending
    order_b[i] to order_r[i], for every i, carries the twin, rotation
    successor and direction of each dart of the best root's component (the
    darts its BFS reached) to those of its image in the root's component,
    since the entries agree.  A BFS from any dart of the first component
    stays in it, so the map carries it to the BFS from the image, label
    for label: each pair has equal codes, with no assumption that the map
    is connected.  The pairs whose first dart is a root are joined in a
    union-find over run positions, each class led by its least position,
    and a root whose class holds a root earlier in the run is skipped.
    Skipping is safe for any run order.  Equality is transitive, so every
    root of a class has the code of each earlier one in it, and by
    induction over run positions a skipped root's code equals that of a
    root that was compared.  The minimum is taken over all candidates, so
    the order decides only how soon it is met.  Joining only root pairs
    loses no class of roots: the map keeps every code entry, and so first
    entries, so it sends roots to roots and non-roots to non-roots, and a
    chain of pairs from one root to another passes through roots alone.

    First-entry filter (pruning by a node invariant, in the same paper).
    A root r's BFS labels r 0 and then its twin 1, since a twin is never
    the dart itself, and its rotation successor 1 when that is the twin
    and 2 otherwise.  So r's first entry is (1, 1 + (succ[r] != twin[r]),
    out[r]), and the least ones are found in one pass over the flat
    arrays.  Every code has a first entry and tuples compare it first, so
    a root whose first entry exceeds the least one has a code greater than
    the minimum: it can neither hold the minimum nor tie with it.  So
    only the roots with the least first entry, the candidates, are run,
    and the least of their codes is the least over all darts.  In an
    alternating ring each out dart neighbours each in dart, so exactly one
    dart of a loop edge has its twin as its successor, and a map with
    loops runs at most one root per loop.  Any other runs its in darts,
    half of all.

    Run order.  A map without loops runs its roots by the size of the
    face through the twin, then of the face through the root, then by
    dart.  Small faces close early in a BFS and make its code small, so a
    least code is met early, and the roots after it lose within a few
    entries instead of tying with a poor interim best for long prefixes:
    on `twistknot:V=256` the roots draw about 3 entries per dart, against
    192 in dart order.
    """
    flat = _flat(d)
    twin, succ, out, _ = flat
    n = len(twin)
    if not n:
        raise DiagramError("canonical code of a diagram with no darts")
    # the roots of least first entry: the darts whose successor is their
    # twin, in darts first, and if there are none, the in darts, run by
    # the sizes of the faces through their twins and through themselves
    loops = list(compress(range(n), map(eq, succ, twin)))
    if loops:
        roots = [r for r in loops if not out[r]] or loops
    else:
        size = [0] * n
        for trace in _face_traces(d, flat):
            for x in trace:
                size[x] = len(trace)
        roots = sorted(compress(range(n), map(not_, out)),
                       key=lambda r: (size[twin[r]], size[r]))
    at = [-1] * n  # each root's run position
    for i, root in enumerate(roots):
        at[root] = i

    least = list(range(len(roots)))  # union-find over run positions
    best = best_order = best_code = None
    for pos, root in enumerate(roots):
        if _least(least, pos) != pos:
            continue  # its code equals an earlier root's
        order: list[int] = []
        entries = _bfs_code(root, twin, succ, out, order)
        if best is None:
            best, best_order, best_code = entries, order, []
            continue
        known = len(best_code)
        for i, entry in enumerate(entries):
            if i == known:  # extend the suspended best by one entry
                best_code.append(next(best))
                known += 1
            if entry != best_code[i]:
                if entry < best_code[i]:
                    best, best_order = entries, order
                    best_code = best_code[:i] + [entry]
                break
        else:  # a full tie: join the roots at each position
            for x, y in zip(best_order, order):
                if (x := at[x]) >= 0:
                    x, y = _least(least, x), _least(least, at[y])
                    if x != y:
                        least[max(x, y)] = min(x, y)
    best_code += best  # finish the best
    return tuple(best_code)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json_dict(d: Diagram) -> dict:
    return {
        "version": 1,
        "kind": d.kind,
        "vertex_count": d.vertex_count,
        "darts": [{"id": dart.id, "vertex": dart.vertex, "twin": dart.twin,
                   "dir": dart.direction} for dart in d.darts],
        "rotation": [list(ring) for ring in d.rotation],
    }


def to_json(d: Diagram, indent: int | None = None) -> str:
    return json.dumps(to_json_dict(d), indent=indent)


def _json_int(value, what: str) -> int:
    """`value` when it is a JSON integer; a float or a boolean is refused
    rather than truncated into another diagram."""
    if type(value) is not int:
        raise DiagramFormatError(f"{what} must be an integer, got {value!r}")
    return value


def from_json_dict(data: dict) -> Diagram:
    """The diagram of a `to_json_dict` document, checked once, here: a
    valid one carries what the check built, so `validate` returns [] on
    it, and an invalid one carries nothing and is checked again there."""
    try:
        if _json_int(data["version"], "version") != 1:
            raise DiagramFormatError(
                f"unsupported diagram version {data['version']!r}")
        darts = tuple(Dart(_json_int(item["id"], "dart id"),
                           _json_int(item["vertex"], "dart vertex"),
                           _json_int(item["twin"], "dart twin"),
                           str(item["dir"]))
                      for item in data["darts"])
        rotation = tuple(tuple(_json_int(x, "rotation entry") for x in ring)
                         for ring in data["rotation"])
        d = Diagram(str(data["kind"]),
                    _json_int(data["vertex_count"], "vertex_count"),
                    darts, rotation)
    except DiagramFormatError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        # a RecursionError: the repr or str of a too deeply nested value
        raise DiagramFormatError(f"malformed diagram document: {exc}") from exc
    if any(dart.direction not in (OUT, IN) for dart in d.darts):
        raise DiagramFormatError("dart dir must be 'out' or 'in'")
    checked = _check(d)[1]
    return _carry(d, *checked) if checked else d


def _made(twin: list[int], direction: list[str], rotation: list,
          what: str, error: type[Exception]) -> Diagram:
    """The diagram of the surgery builder's lists, its kind derived first
    (so the strand walk refuses an inconsistent map), then `validate`'s
    checks on them, raising `error` naming `what`.  It carries the lists
    and their face trace, and its darts are a view over them (`_Darts`)."""
    n = len(twin)
    succ, vertex = _rings(rotation, n)
    out = [r == OUT for r in direction]
    kind = _kind(twin, succ, out, vertex)
    problems: list[str] = []
    faces = _map_problems(problems, len(rotation), rotation, succ, vertex,
                          range(n), vertex, twin, direction, out)
    if problems:
        raise error(f"{what} produced an invalid diagram: "
                    + "; ".join(problems))
    flat = twin, succ, out, vertex
    d = Diagram(kind, len(rotation), _Darts(flat), tuple(rotation))
    return _carry(d, flat, faces)


def from_json(text: str) -> Diagram:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DiagramFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DiagramFormatError("diagram document must be a JSON object")
    return from_json_dict(data)


def to_dot(d: Diagram) -> str:
    """GraphViz digraph: one node per vertex, one arc per edge; the edges
    are read first, through `_flat`'s gate."""
    edges = d.edges()
    lines = ["digraph altknot {"]
    for v in range(d.vertex_count):
        lines.append(f"  {v};")
    for u, w in edges:
        lines.append(f"  {u} -> {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
