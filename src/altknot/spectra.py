"""Adjacency matrices of diagrams and their strand/permutation structure.

The matrix of a diagram has entry (j, k) equal to the number of edges
oriented from vertex j to vertex k; rows and columns always sum to 2.
Closed curves of the underlying link are recovered from the matrix alone by
the alternating row/column walk, which also splits the matrix into a sum of
two permutation matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress

from .diagram import OUT, Diagram
from .limits import decimal_int
from .polynomials import _layers, _plan, _power_traces, _shape_problem

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdjMatrix:
    """Square nonnegative integer matrix with all row and column sums 2."""

    rows: Matrix
    _layers = None  # (row layers, column layers), set only by `adjacency`

    def __post_init__(self) -> None:
        # tuple([...]) rather than tuple(genexpr): see altknot.polynomials
        object.__setattr__(self, "rows", tuple([tuple(row) for row in self.rows]))

    @property
    def n(self) -> int:
        return len(self.rows)

    def problems(self) -> list[str]:
        """Why this is not an adjacency matrix, or [].  A matrix with
        layers has no negative entry, and a row's or column's sum is the
        number of its support's entries that are not padding (n)."""
        if layers := self._layers:
            n, out = len(self.rows), []
            sums = [[len(side) - line.count(n) for line in zip(*side)]
                    for side in layers]
        else:
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
    its sphere embedding.  Reads the vertex count and each out dart's
    vertex and its twin's, in dart order: from the lists a checked diagram
    carries, else from the `Dart` records, unchecked, so defined on maps
    `validate` accepts.  The same loop lists each vertex's out-heads and
    in-tails, its row's and column's supports, which the matrix carries as
    layers.
    """
    n = d.vertex_count
    rows = [[0] * n for _ in range(n)]
    heads, tails = [[] for _ in range(n)], [[] for _ in range(n)]
    if checked := d._checked:
        twin, _, out, vertex = checked[0]
    else:
        darts = d.darts
        twin = [x.twin for x in darts]
        vertex = [x.vertex for x in darts]
        out = [x.direction == OUT for x in darts]
    for i in compress(range(len(twin)), out):
        v, w = vertex[i], vertex[twin[i]]
        rows[v][w] += 1  # a vertex in -n..-1 wraps, and so do the layers
        heads[v].append(w % n)
        tails[w].append(v % n)
    m = object.__new__(AdjMatrix)
    object.__setattr__(m, "rows", tuple([tuple(row) for row in rows]))
    if n:  # n tuples of n ints: with layers, no reader scans the shape
        layers = (_layers(heads, n), _layers(tails, n))
        object.__setattr__(m, "_layers", layers)
    return m


# ---------------------------------------------------------------------------
# Strand tracing: the alternating row/column walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrandDecomposition:
    """Partition of the edge multiset into the closed curves of the link.

    `edges` lists the matrix's edges as (row, col) cells in row-major order
    (a 2-entry contributes two consecutive ids).  Each component cycle
    alternates row moves and column moves; splitting a cycle at alternate
    positions gives its two permutation classes.
    """

    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    permutation_split: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def count(self) -> int:
        return len(self.components)


# The last matrix trace_strands walked (none at first) and its result:
# replaced whole, never mutated, like closed_path_count's slot.
_strands_slot: tuple = (None, None)


def trace_strands(m: AdjMatrix) -> StrandDecomposition:
    """Walk the matrix row/column-alternately until each subgraph closes.

    Starting from the smallest untraversed edge, step to the other edge in
    the same row, then the other edge in the same column, and so on; the
    closed cycles are the link components.  A diagram is a knot exactly
    when there is one component.  Every row holds two edges, so row i
    owns edges 2i and 2i + 1 and a row step is `e ^ 1`.  A matrix
    `adjacency` made is read from its layers, in O(V): its row and column
    sums, and row i's edges, its two heads in ascending column order.

    The result for the last matrix walked is kept, keyed on the identity
    of its rows, an immutable tuple the slot holds on to, so
    :func:`permutation_decompositions` right after this call neither checks
    nor walks it again.  A matrix equal by value is checked afresh (`True`
    or `1.0` entries are refused), and a refused one leaves the slot.
    """
    global _strands_slot
    rows = m.rows
    slot = _strands_slot
    if slot[0] is rows:
        return slot[1]
    problems = m.problems()
    if problems:
        raise ValueError("not an adjacency matrix: " + "; ".join(problems))
    if layers := m._layers:  # every row's support is its two heads
        edges = [(i, j) for i, heads in enumerate(zip(*layers[0]))
                 for j in sorted(heads)]
    else:
        edges = [(i, j) for i, row in enumerate(m.rows)
                 for j in compress(range(m.n), row) for _ in range(row[j])]
    col_mate = [0] * len(edges)
    first_in_col = [-1] * m.n
    for e, (_, j) in enumerate(edges):
        other = first_in_col[j]
        if other < 0:
            first_in_col[j] = e
        else:
            col_mate[e], col_mate[other] = other, e

    seen = [False] * len(edges)
    components = []
    splits = []
    for start in range(len(edges)):
        if seen[start]:
            continue
        cycle = []
        cur = start
        while True:
            cycle += (cur, cur ^ 1)
            seen[cur] = seen[cur ^ 1] = True
            cur = col_mate[cur ^ 1]
            if cur == start:
                break
        components.append(tuple(cycle))
        splits.append((tuple(cycle[0::2]), tuple(cycle[1::2])))
    dec = StrandDecomposition(tuple(edges), tuple(components), tuple(splits))
    _strands_slot = (rows, dec)
    return dec


def permutation_decompositions(m: AdjMatrix) -> list[tuple[Matrix, Matrix]]:
    """All canonical splittings of the matrix into two permutation matrices.

    Components flip independently; the pair count is canonicalized by
    sending the class holding the smallest edge of component 0 (its first
    class, where the walk starts) to the first matrix, and identical pairs
    (possible when a component's two classes coincide, e.g. a 2-entry
    circle) are deduplicated.  A knot therefore has exactly one
    decomposition.

    Every row and column of the matrix belongs to exactly one component, so
    a pair is a per-row choice between the two class rows of that row's
    component.  Each row step of the walk pairs a row's two edges, one in
    each class, so the two class columns of every row are read directly.
    Flipping a component whose classes coincide repeats a pair and flipping
    any other gives a new one, so only flips of the distinct components are
    enumerated, in the order of their first occurrence.  The strands come
    from :func:`trace_strands`, whose slot answers right after it.
    """
    dec = trace_strands(m)
    n = m.n
    zero = (0,) * n
    units = [zero[:j] + (1,) + zero[j + 1:] for j in range(n)]
    first_rows: list[tuple[int, ...]] = [()] * n
    second_rows: list[tuple[int, ...]] = [()] * n
    flip_bit = [0] * n  # of each row's component; component 0 is pinned
    free = 0  # flip bits of the components whose two classes differ
    for c, (first, second) in enumerate(dec.permutation_split):
        cols = [dec.edges[e][1] for e in first]
        mates = [dec.edges[e][1] for e in second]
        if len(set(cols)) < len(cols) or sorted(cols) != sorted(mates):
            raise ValueError(f"component {c}: a class is not a "
                             "permutation of its rows and columns")
        bit = 1 << (c - 1) if c else 0
        for e, j, k in zip(first, cols, mates):
            i = e >> 1
            first_rows[i], second_rows[i], flip_bit[i] = units[j], units[k], bit
        if cols != mates:
            free |= bit

    results: list[tuple[Matrix, Matrix]] = []
    mask = 0
    while True:
        flips = [mask & bit for bit in flip_bit]
        results.append((
            tuple(b if f else a for a, b, f in zip(first_rows, second_rows, flips)),
            tuple(a if f else b for a, b, f in zip(first_rows, second_rows, flips))))
        mask = (mask - free) & free  # next submask of `free`, 0 after the last
        if not mask:
            return results


# ---------------------------------------------------------------------------
# Eigen-structure facts that stay in integer arithmetic
# ---------------------------------------------------------------------------

# The last matrix swept by closed_path_count and the traces of its powers so
# far: replaced whole, never mutated, so threads never see it torn.
_paths_slot: tuple = (None, ())


def closed_path_count(m: AdjMatrix, k: int) -> int:
    """Number of closed directed paths of length k = trace(M^k), exactly.

    The traces are `altknot.polynomials._power_traces` of the columns of M,
    the rows of M^T, as `_plan` gives them: trace((M^T)^j) = trace(M^j).
    Those of the last matrix asked about are kept, so a sweep k = 1..V
    costs V products, not V(V + 1)/2.  The first call on a matrix computes
    K = max(k, V) traces at once, so a single call with a small k costs V
    products, not k; a call with k > K computes max(k, 2K) afresh.

    `charpoly` runs the same kernel on the rows of M.  An empty or
    non-square M, a non-int entry (bool and float too) or k not an int
    >= 1: ValueError; a matrix `adjacency` made is not scanned.
    """
    global _paths_slot
    if type(k) is not int or k < 1:
        raise ValueError("path length must be an integer >= 1")
    rows = m.rows
    key, traces = _paths_slot
    plan = None if key is rows else _plan(m, 1)  # checks a new object
    traces = traces if key is rows or key == rows else ()
    if k > len(traces):
        traces = _power_traces(max(k, len(rows), 2 * len(traces)),
                               *(plan or _plan(m, 1)))
    _paths_slot = (rows, traces)
    return traces[k - 1]
