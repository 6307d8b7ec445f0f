"""The standard-table catalog: label-to-member claims transcribed from the
source tables, and the determinant that checks them without a table.  Only
the tests read it."""

from __future__ import annotations

from dataclasses import dataclass

from altknot import diagram as dg
from altknot.diagram import Diagram
from altknot.families import (CYCLIC_TORUS, THREE_RIBBON_G, THREE_RIBBON_P,
                              TREFOIL_TWIST, TWIST_KNOTS, TWO_RIBBON, Family,
                              FamilySpec)
from oracles import CCW, CW, face_orientations


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


def _entry(label: str, family: Family, params: tuple[int, ...],
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


# ---------------------------------------------------------------------------
# The determinant, read from the diagram
# ---------------------------------------------------------------------------

def checkerboard_edges(d: Diagram, sense: str = CCW) -> list[tuple[int, int]]:
    """The checkerboard graph on the faces of one `sense`
    (`face_orientations`), one edge per crossing: each dart of a ring lies
    on the face of one corner, the senses alternate around the ring, and
    the edge joins the two corners of `sense`.  A loop is a nugatory
    crossing, two opposite corners on one face."""
    senses = face_orientations(d)
    face_list, _ = dg.faces(d)
    face_of = {x: i for i, trace in enumerate(face_list) for x in trace}
    edges = []
    for ring in d.rotation:
        a, b = (face_of[x] for x in ring if senses[face_of[x]] == sense)
        edges.append((a, b))
    return edges


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """det of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so every entry stays an
    integer."""
    m = [list(row) for row in matrix]
    n, sign, previous = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1] if n else 1


def determinant(d: Diagram, sense: str = CCW) -> int:
    """The determinant of the knot or link of an alternating diagram: the
    number of spanning trees of its checkerboard graph, which is any
    cofactor of the graph's Laplacian (loops left out)."""
    edges = checkerboard_edges(d, sense)
    faces = sorted({f for edge in edges for f in edge})
    index = {f: i for i, f in enumerate(faces)}
    laplacian = [[0] * len(faces) for _ in faces]
    for a, b in edges:
        if a != b:
            i, j = index[a], index[b]
            laplacian[i][i] += 1
            laplacian[j][j] += 1
            laplacian[i][j] -= 1
            laplacian[j][i] -= 1
    return bareiss_determinant([row[1:] for row in laplacian[1:]])


def nugatory_crossings(d: Diagram) -> int:
    """Crossings with two opposite corners on one face: loops of either
    checkerboard graph.  A diagram with none is reduced."""
    return sum(a == b for sense in (CCW, CW)
               for a, b in checkerboard_edges(d, sense))
