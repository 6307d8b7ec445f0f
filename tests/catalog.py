"""The standard-table catalog: label-to-member claims transcribed from the
source tables.  Only the tests read it."""

from __future__ import annotations

from dataclasses import dataclass

from altknot.families import (CYCLIC_TORUS, THREE_RIBBON_G, THREE_RIBBON_P,
                              TREFOIL_TWIST, TWIST_KNOTS, TWO_RIBBON,
                              FamilySpec)


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
