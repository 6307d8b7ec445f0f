import pytest

from altknot import diagram as dg
from altknot import families as fam
from altknot import spectra as sp
from altknot.polynomials import IntPoly, X, charpoly


def spec(family, *params):
    return fam.FamilySpec(family, tuple(params))


# ---------------------------------------------------------------------------
# FamilySpec plumbing
# ---------------------------------------------------------------------------

def test_param_validation():
    with pytest.raises(fam.FamilyError):
        spec(fam.CYCLIC_TORUS, 0)
    with pytest.raises(fam.FamilyError):
        spec(fam.HOPF_TWIST, 1)
    with pytest.raises(fam.FamilyError):
        spec(fam.TWO_RIBBON, 3)
    with pytest.raises(fam.FamilyError):
        fam.FamilySpec("NOT_A_FAMILY", (1,))


def test_vertex_counts(member_specs):
    for s in member_specs:
        assert fam.vertex_count(s) == fam.generate(s).vertex_count, str(s)


def test_vertex_cap(monkeypatch):
    monkeypatch.setenv("ALTKNOT_MAX_V", "10")
    with pytest.raises(fam.FamilyError, match="cap"):
        fam.generate(spec(fam.CYCLIC_TORUS, 11))
    assert fam.generate(spec(fam.CYCLIC_TORUS, 10)).vertex_count == 10


def test_spec_strings():
    s = fam.parse_spec_string("p:k=3,l=2,m=2")
    assert s == spec(fam.THREE_RIBBON_P, 3, 2, 2)
    assert fam.spec_string(s) == "p:k=3,l=2,m=2"
    assert fam.parse_spec_string("cyclic:V=5") == spec(fam.CYCLIC_TORUS, 5)
    for text in ("nonsense", "cyclic", "cyclic:V=x", "cyclic:W=3", "f:j=2"):
        with pytest.raises(fam.FamilyError):
            fam.parse_spec_string(text)


def test_spec_string_round_trip(member_specs):
    for s in member_specs:
        assert fam.parse_spec_string(fam.spec_string(s)) == s
        assert str(s) == fam.spec_string(s)


def test_registry_order_and_keys():
    assert [f.prefix for f in fam.FAMILIES] == [
        "cyclic", "twistchain", "hopftwist", "trefoiltwist", "fourknottwist",
        "twistknot", "f", "p", "g", "chain", "kribbon", "lchain"]
    tags = [f.tag for f in fam.FAMILIES]
    assert len(set(tags)) == len(tags) == 12
    assert fam.CHAINED_CYCLIC in tags and fam.TWIST_CHAIN in tags
    for f in fam.FAMILIES:
        assert len(f.names) == len(f.minima)
        lowest = fam.FamilySpec(f.tag, f.minima)
        assert fam.vertex_count(lowest) == fam.generate(lowest).vertex_count


def test_registry_sweeps(monkeypatch):
    by_prefix = {f.prefix: f for f in fam.FAMILIES}
    assert [s.params for s in by_prefix["f"].sweep(3)] == [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    assert len(by_prefix["g"].sweep(4)) == 20       # k >= l >= m
    assert len(by_prefix["p"].sweep(4)) == 64       # every (k, l, m)
    assert by_prefix["lchain"].sweep(2)[0].params == (0, 1)
    assert by_prefix["hopftwist"].sweep(1) == []
    monkeypatch.setenv("ALTKNOT_MAX_V", "6")
    assert [s.params for s in by_prefix["chain"].sweep(9)] == [(1,), (2,), (3,)]


def test_cap_error_uses_spec_syntax(monkeypatch):
    monkeypatch.setenv("ALTKNOT_MAX_V", "10")
    with pytest.raises(fam.FamilyError, match=r"^p:k=5,l=4,m=2 has 11 "):
        fam.generate(spec(fam.THREE_RIBBON_P, 5, 4, 2))


# ---------------------------------------------------------------------------
# Structure of the generated diagrams
# ---------------------------------------------------------------------------

def test_twist_chain_census():
    for v in range(1, 8):
        d = fam.generate(spec(fam.TWIST_CHAIN, v))
        _, census = dg.faces(d)
        expected = {1: 2, 2 * v: 1} if v == 1 else {1: 2, 2: v - 1, 2 * v: 1}
        assert census.counts == expected, v
        assert d.kind == "twist"


def test_cyclic_torus_census_and_kind():
    for v in range(2, 10):
        d = fam.generate(spec(fam.CYCLIC_TORUS, v))
        _, census = dg.faces(d)
        expected = {2: 4} if v == 2 else {2: v, v: 2}
        assert census.counts == expected, v
        assert d.kind == ("knot" if v % 2 else "link")


def test_two_ribbon_census():
    # two ribbons of j and k crossings: j-1 and k-1 inner bigons, a pair of
    # (j+1)-gons and a pair of (k+1)-gons
    d = fam.generate(spec(fam.TWO_RIBBON, 4, 3))
    _, census = dg.faces(d)
    assert census.counts == {2: 5, 4: 2, 5: 2}


def test_four_knot_census():
    _, census = dg.faces(fam.generate(spec(fam.TWO_RIBBON, 2, 2)))
    assert census.counts == {2: 2, 3: 4}


def test_three_ribbon_censuses():
    d = fam.generate(spec(fam.THREE_RIBBON_P, 3, 2, 2))
    _, census = dg.faces(d)
    # k+l+m-3 bigons, two (m+2)-gons, one (k+l)-gon, one (k+1), one (l+1)
    assert census.counts == {2: 4, 4: 3, 5: 1, 3: 1}
    d = fam.generate(spec(fam.THREE_RIBBON_G, 3, 2, 2))
    _, census = dg.faces(d)
    # (k-1)+(l-1)+(m-1) bigons, two triangles, (k+l)-, (l+m)-, (m+k)-gons
    assert census.counts == {2: 4, 3: 2, 5: 2, 4: 1}


def test_chained_cyclic_structure():
    d = fam.generate(spec(fam.CHAINED_CYCLIC, 2, 3))
    m = sp.adjacency(d)
    # the innermost ring of the chain keeps a parallel double edge
    assert max(v for row in m.rows for v in row) == 2
    assert sp.trace_strands(m).count == 3  # knot plus two rings


def test_closed_chain_strands():
    for k in range(1, 6):
        d = fam.generate(spec(fam.CLOSED_CHAIN, k))
        assert d.vertex_count == 2 * k
        count = sp.trace_strands(sp.adjacency(d)).count
        assert count == (k if k > 1 else 1), k


# ---------------------------------------------------------------------------
# Generator matches formula
# ---------------------------------------------------------------------------

def test_verify_member_everywhere(member_specs):
    for s in member_specs:
        res = fam.verify_member(s)
        assert res.match, f"{s}: {res.generated} != {res.formula}"


def test_known_closed_forms():
    assert fam.closed_form(spec(fam.CYCLIC_TORUS, 3)) == X ** 3 - 3 * X - 2
    assert fam.closed_form(spec(fam.CYCLIC_TORUS, 2)) == X ** 2 - 4
    assert (fam.closed_form(spec(fam.TWIST_KNOTS, 4))
            == X ** 4 - 2 * X ** 2 - 4 * X)
    assert fam.closed_form(spec(fam.TWIST_CHAIN, 1)) == X - 2
    assert (fam.closed_form(spec(fam.FOUR_KNOT_TWIST, 5))
            == IntPoly((-2, 1, 0, -2, -1, 1)))


def test_closed_forms_divisible_by_x_minus_2(member_specs):
    from altknot.polynomials import divide_out
    for s in member_specs:
        _, exact = divide_out(fam.closed_form(s), X - 2)
        assert exact, str(s)


def test_twist_knots_equal_two_ribbon():
    for v in range(3, 9):
        assert (fam.closed_form(spec(fam.TWIST_KNOTS, v))
                == fam.closed_form(spec(fam.TWO_RIBBON, v - 2, 2)))


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------

def family_polys(family, vs):
    return [fam.closed_form(spec(family, v)) for v in vs]


def test_twist_chain_recurrence_homogeneous():
    p = family_polys(fam.TWIST_CHAIN, (3, 4, 5))
    assert fam.check_family_recurrence(*p).homogeneous


def test_cyclic_recurrence_source_two():
    p = family_polys(fam.CYCLIC_TORUS, (3, 4, 5))
    check = fam.check_family_recurrence(*p)
    assert not check.homogeneous
    assert check.source == IntPoly((2,))


def test_twist_knot_recurrence_source_two_x():
    p = family_polys(fam.TWIST_KNOTS, (4, 5, 6))
    check = fam.check_family_recurrence(*p)
    assert check.source == 2 * X


def test_all_twist_families_homogeneous():
    for family, lo in ((fam.TWIST_CHAIN, 1), (fam.HOPF_TWIST, 2),
                       (fam.TREFOIL_TWIST, 3), (fam.FOUR_KNOT_TWIST, 4)):
        polys = family_polys(family, range(lo, lo + 5))
        for i in range(3):
            assert fam.check_family_recurrence(*polys[i:i + 3]).homogeneous, \
                family


def test_non_triple_rejected():
    with pytest.raises(fam.FamilyError, match="not a family triple"):
        fam.check_family_recurrence(IntPoly((1,)), IntPoly((1,)),
                                    IntPoly((0, 1)))


# ---------------------------------------------------------------------------
# Cross-family identities
# ---------------------------------------------------------------------------

def test_identities_all_pass():
    report = fam.check_identities(6)
    assert all(report.values()), report


def test_identities_without_instances_are_left_out():
    assert fam.check_identities(0) == {}
    # composition_of_cyclic starts at index 2
    assert "composition_of_cyclic" not in fam.check_identities(1)
    assert list(fam.check_identities(2)) == list(fam.check_identities(6))


def test_hopf_twist_triples():
    polys = family_polys(fam.HOPF_TWIST, (2, 3, 4))
    assert fam.check_family_recurrence(*polys).homogeneous


# ---------------------------------------------------------------------------
# Waist-ring pair: same polynomials, different diagrams
# ---------------------------------------------------------------------------

def test_waist_ring_values():
    assert fam.waist_ring_poly(5) == X ** 5 - 2 * X ** 3 - 4 * X ** 2
    with pytest.raises(fam.FamilyError):
        fam.waist_ring_poly(4)


def test_waist_ring_pair():
    for v in range(5, 10):
        a = fam.waist_ring_diagram(v, "chain")
        b = fam.waist_ring_diagram(v, "clasp")
        assert dg.validate(a) == [] and dg.validate(b) == []
        assert charpoly(sp.adjacency(a)) == fam.waist_ring_poly(v)
        assert charpoly(sp.adjacency(b)) == fam.waist_ring_poly(v)
        if v > 5:
            assert not dg.isomorphic(a, b), v


def test_waist_ring_component_counts():
    counts_a = [sp.trace_strands(sp.adjacency(
        fam.waist_ring_diagram(v, "chain"))).count for v in range(5, 9)]
    counts_b = [sp.trace_strands(sp.adjacency(
        fam.waist_ring_diagram(v, "clasp"))).count for v in range(5, 9)]
    assert counts_a == [2, 2, 2, 2]
    assert counts_b == [2, 3, 2, 3]


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def test_catalog_lookups():
    assert any(e.family == spec(fam.TWO_RIBBON, 2, 2)
               for e in fam.lookup("4_1"))
    assert any(e.family == spec(fam.TWO_RIBBON, 5, 4)
               for e in fam.lookup("9_4"))
    assert any(e.family == spec(fam.THREE_RIBBON_G, 3, 3, 2)
               for e in fam.lookup("8_5"))


def test_catalog_flags_inconsistent_duplicate():
    six, twenty = fam.lookup("10_6"), fam.lookup("10_20")
    assert six and twenty
    assert six[0].family == twenty[0].family
    assert fam.FLAG_INCONSISTENT in six[0].flags
    assert fam.FLAG_INCONSISTENT in twenty[0].flags


def test_catalog_members_verify():
    # every cataloged member's generator still matches its closed form
    for entry in fam.catalog():
        assert fam.verify_member(entry.family).match, entry.rolfsen_label


def test_same_label_different_polynomials_is_allowed():
    # one table label may appear in several families whose polynomials
    # disagree; the polynomial is only a semi-invariant
    entries = fam.lookup("5_2")
    polys = {str(fam.closed_form(e.family)) for e in entries}
    assert len(entries) >= 2
    assert len(polys) == 2


def test_generators_are_deterministic(member_specs):
    # no randomness anywhere: repeated generation is bit-identical
    for s in member_specs:
        assert fam.generate(s) == fam.generate(s), str(s)
