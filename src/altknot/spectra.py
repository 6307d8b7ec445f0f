"""Adjacency matrices of diagrams and their strand/permutation structure.

The matrix of a diagram has entry (j, k) equal to the number of edges
oriented from vertex j to vertex k; rows and columns always sum to 2.
Closed curves of the underlying link are recovered from the matrix alone by
the alternating row/column walk, which also splits the matrix into a sum of
two permutation matrices.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress

from .diagram import Diagram, _flat
from .limits import decimal_int
from .polynomials import _layers, _matrix_traces, _shape_problem

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdjMatrix:
    """Square nonnegative integer matrix with all row and column sums 2."""

    rows: Matrix
    _layers = None  # row layers, set only by `adjacency`

    def __post_init__(self) -> None:
        # tuple([...]) rather than tuple(genexpr): see altknot.polynomials
        object.__setattr__(self, "rows", tuple([tuple(row) for row in self.rows]))

    @property
    def n(self) -> int:
        return len(self.rows)

    def problems(self) -> list[str]:
        """Why this is not an adjacency matrix, or [].  A matrix with two
        row layers passes unscanned: `adjacency` read it through `_flat`'s
        gate, so each of its V vertices has four darts, 2V darts are out
        darts, and at most 2 in a row make every row sum 2 and every
        column, the in darts of a vertex, 4 less its row sum, 2 too."""
        if self._layers and len(self._layers) == 2:
            return []
        if problem := _shape_problem(self.rows):
            return [problem]
        out = ["negative entry"] if min(map(min, self.rows)) < 0 else []
        sums = map(sum, self.rows), map(sum, zip(*self.rows))
        for name, lines in zip(("row", "column"), sums):
            out += [f"{name} {i} sums to {s}, not 2"
                    for i, s in enumerate(lines) if s != 2]
        return out

    def to_text(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)

    def __str__(self) -> str:
        return self.to_text()


def parse_matrix(text: str) -> AdjMatrix:
    """Accepts rows of space-separated integers, or a JSON array of arrays
    of integers; anything else in JSON (a bare number, a float, a boolean)
    raises ValueError rather than being coerced, and so does a text token
    that `limits.decimal_int` refuses."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except RecursionError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        if not all(isinstance(row, list) and all(type(v) is int for v in row)
                   for row in data):
            raise ValueError("a JSON matrix must be a list of rows of integers")
        return AdjMatrix(tuple(tuple(row) for row in data))
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if line:
            try:
                rows.append(tuple([decimal_int(tok) for tok in line.split()]))
            except ValueError as exc:
                raise ValueError(f"matrix entry {exc}") from None
    return AdjMatrix(tuple(rows))


def adjacency(d: Diagram) -> AdjMatrix:
    """Count directed edges between vertex pairs; loops land on the diagonal.

    The matrix determines the directed multigraph of the diagram but not
    its sphere embedding.  Reads each out dart's vertex and its twin's, in
    dart order, from `diagram._flat`'s lists, so a map that fails its gate
    raises its DiagramError.  The same loop lists each vertex's out-heads,
    its row's support, which the matrix carries as its row layers.
    """
    twin, _, out, vertex = _flat(d)
    n = d.vertex_count
    rows = [[0] * n for _ in range(n)]
    heads = [[] for _ in range(n)]
    for i in compress(range(len(twin)), out):
        v, w = vertex[i], vertex[twin[i]]
        rows[v][w] += 1
        heads[v].append(w)
    m = object.__new__(AdjMatrix)
    object.__setattr__(m, "rows", tuple([tuple(row) for row in rows]))
    if n:  # n tuples of n ints: with layers, no reader scans the shape
        object.__setattr__(m, "_layers", _layers(heads, n))
    return m


# ---------------------------------------------------------------------------
# Strand tracing: the alternating row/column walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrandDecomposition:
    """Partition of the edge multiset into the closed curves of the link.

    `edges` lists the matrix's edges as (row, col) cells in row-major order
    (a 2-entry contributes two consecutive ids): edge e is (e // 2,
    columns[e]), its column as the walk laid it out.  Each component cycle
    alternates row moves and column moves; splitting a cycle at alternate
    positions gives its two permutation classes, `permutation_split`.  Both
    views are made from the stored fields when read (and shown by the repr).
    """

    columns: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple([(e >> 1, j) for e, j in enumerate(self.columns)])

    @property
    def permutation_split(self) -> tuple[tuple[tuple[int, ...],
                                               tuple[int, ...]], ...]:
        return tuple([(cycle[0::2], cycle[1::2]) for cycle in self.components])

    def __repr__(self) -> str:
        return (f"StrandDecomposition(edges={self.edges!r}, components="
                f"{self.components!r}, permutation_split="
                f"{self.permutation_split!r})")


def trace_strands(m: AdjMatrix) -> StrandDecomposition:
    """Walk the matrix row/column-alternately until each subgraph closes.

    Starting from the smallest untraversed edge, step to the other edge in
    the same row, then the other edge in the same column, and so on; the
    closed cycles are the link components.  A diagram is a knot exactly
    when there is one component.  Every row holds two edges, so row i
    owns edges 2i and 2i + 1, a row step is `e ^ 1`, and the smallest
    untraversed edge is 2i of the first row not yet walked.  Row i's edges
    in a matrix `adjacency` made are its heads in the two row layers, in
    ascending order.  Each call checks and walks its own matrix.
    """
    problems = m.problems()
    if problems:
        raise ValueError("not an adjacency matrix: " + "; ".join(problems))
    n = m.n
    if layers := m._layers:  # `problems` passed: two row layers, no padding
        heads, mates = layers
        cols = heads + mates
        cols[0::2], cols[1::2] = heads, mates
        for e in compress(range(0, 2 * n, 2), map(int.__gt__, heads, mates)):
            cols[e], cols[e + 1] = cols[e + 1], cols[e]
    else:
        cols = [j for row in m.rows for j in compress(range(n), row)
                for _ in range(row[j])]
    col_mate = [0] * (2 * n)
    first_in_col = [-1] * n
    for e, j in enumerate(cols):
        other = first_in_col[j]
        if other < 0:
            first_in_col[j] = e
        else:
            col_mate[e], col_mate[other] = other, e

    walked = [False] * n  # by row: a row step walks both of its edges
    components = []
    for i in range(n):
        if walked[i]:
            continue
        cycle = []
        start = cur = 2 * i
        while True:
            cycle += (cur, cur ^ 1)
            walked[cur >> 1] = True
            cur = col_mate[cur ^ 1]
            if cur == start:
                break
        components.append(tuple(cycle))
    return StrandDecomposition(tuple(cols), tuple(components))


def decompositions(dec: StrandDecomposition
                   ) -> tuple[int, Iterator[tuple[Matrix, Matrix]]]:
    """The count of the canonical splittings of `dec`'s matrix into two
    permutation matrices, and an iterator making them, in order, as drawn.

    Each row's two edges lie one in each class of its component, so a pair
    is a per-row choice between the two class rows.  Component 0 is pinned
    (its first class, with the smallest edge, goes to the first matrix);
    flipping a later component whose classes coincide (a 2-entry circle)
    repeats a pair, and flipping any other gives a new one.  So the count
    is 2^f, f the later components whose classes differ (one for a knot),
    pair k flips those at the set bits of k, and pair k - 1 becomes pair k
    by swapping the rows of the components at the bits that change.  The
    classes are checked before this returns.
    """
    column = dec.columns
    n = len(column) >> 1
    unit = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
    p1, p2 = [()] * n, [()] * n  # the rows of pair 0
    flipping = []  # rows of each later component whose two classes differ
    for c, cycle in enumerate(dec.components):
        first = cycle[0::2]
        cols = [column[e] for e in first]
        mates = [column[e ^ 1] for e in first]
        if len(set(cols)) < len(cols) or sorted(cols) != sorted(mates):
            raise ValueError(f"component {c}: a class is not a "
                             "permutation of its rows and columns")
        for e, j, k in zip(first, cols, mates):
            p1[e >> 1], p2[e >> 1] = unit[j], unit[k]
        if c and cols != mates:
            flipping.append([e >> 1 for e in first])

    def pairs():
        yield tuple(p1), tuple(p2)
        for k in range(1, 1 << len(flipping)):
            for strand in flipping[:(k & -k).bit_length()]:  # k - 1 -> k
                for i in strand:
                    p1[i], p2[i] = p2[i], p1[i]
            yield tuple(p1), tuple(p2)

    return 1 << len(flipping), pairs()


def permutation_decompositions(m: AdjMatrix) -> list[tuple[Matrix, Matrix]]:
    """All canonical splittings of the matrix into two permutation
    matrices: :func:`decompositions` of its own :func:`trace_strands`."""
    return list(decompositions(trace_strands(m))[1])


# ---------------------------------------------------------------------------
# Eigen-structure facts that stay in integer arithmetic
# ---------------------------------------------------------------------------

def closed_path_count(m: AdjMatrix, k: int) -> int:
    """Number of closed directed paths of length k = trace(M^k), exactly.

    The traces come from `altknot.polynomials._matrix_traces`, whose slot
    `charpoly` shares, so after `charpoly(m)` a sweep k = 1..V runs no
    kernel.  Another rows object, equal or not, or a k past the traces
    kept, gets max(k, V) traces afresh, so one call costs V products.

    An empty or non-square M, a non-int entry (bool and float too) or k
    not an int >= 1: ValueError; a matrix `adjacency` made is not scanned.
    """
    if type(k) is not int or k < 1:
        raise ValueError("path length must be an integer >= 1")
    return _matrix_traces(m, k)[k - 1]
