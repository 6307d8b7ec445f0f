import copy
import dataclasses
import hashlib
import pickle
import random
import time
from itertools import permutations, product

import pytest

from altknot import diagram as dg
from altknot import families as fam
from altknot import spectra as sp
from altknot import surgery as sg
from altknot.families import (CLOSED_CHAIN, CYCLIC_TORUS, K_RIBBON_CYCLIC,
                              FamilySpec, closed_form, cyclic_poly, generate,
                              three_ribbon_g_poly, three_ribbon_p_poly,
                              two_ribbon_poly)
from altknot.polynomials import IntPoly, X, _J, charpoly, jpoly
from altknot.spectra import adjacency
from altknot.surgery import compose_twist
from catalog import (FLAG_INCONSISTENT, bareiss_determinant, catalog,
                     determinant, nugatory_crossings)
from oracles import (CW, WAIST_RING_GROWTHS, bead_charpoly,
                     check_family_recurrence, lane_out_piece,
                     necklace_charpoly, ribbon_piece, vertex_count,
                     waist_ring_diagram, waist_ring_poly)


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


@pytest.mark.parametrize("param", [2.9, "3", True])
def test_param_must_be_int(param):
    # each of these was once coerced through int(): 2.9 gave cyclic:V=2,
    # "3" cyclic:V=3 and True cyclic:V=1
    with pytest.raises(fam.FamilyError, match="must be integers"):
        fam.FamilySpec(fam.CYCLIC_TORUS, (param,))
    with pytest.raises(fam.FamilyError, match="must be integers"):
        fam.FamilySpec(fam.TWO_RIBBON, (3, param))


def test_vertex_counts(member_specs):
    for s in member_specs:
        assert vertex_count(s) == fam.generate(s).vertex_count, str(s)


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
    # a spec holds its record, whose repr names no function address
    assert repr(spec(fam.CYCLIC_TORUS, 5)) == (
        "FamilySpec(family=Family(prefix='cyclic', names=('V',), "
        "minima=(1,), descending=False), params=(5,))")
    for text in ("nonsense", "cyclic", "cyclic:V=x", "cyclic:W=3", "f:j=2",
                 "cyclic:V=1_0", "cyclic:V=\u0663"):
        with pytest.raises(fam.FamilyError):
            fam.parse_spec_string(text)


def test_spec_string_rejects_repeated_parameter():
    for text in ("p:k=1,l=1,m=1,k=2", "cyclic:V=3,V=3", "f:j=2,j=2,k=1"):
        with pytest.raises(fam.FamilyError, match="given twice"):
            fam.parse_spec_string(text)


def test_spec_string_round_trip(member_specs):
    for s in member_specs:
        assert fam.parse_spec_string(fam.spec_string(s)) == s
        assert str(s) == fam.spec_string(s)
        # a copy or pickle holds the same record
        for copied in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert copied == s and copied.family is s.family, str(s)


def test_a_spec_of_an_unbound_record_refuses_to_copy():
    # a record no module name binds has no name to copy as: TypeError,
    # never a StopIteration that would end a map over specs early
    loose = dataclasses.replace(fam.CYCLIC_TORUS)
    specs = [fam.FamilySpec(fam.CYCLIC_TORUS, (3,)),
             fam.FamilySpec(loose, (3,)),
             fam.FamilySpec(fam.CYCLIC_TORUS, (4,))]
    for attempt in (lambda: copy.deepcopy(specs[1]),
                    lambda: pickle.dumps(specs[1]),
                    lambda: list(map(copy.deepcopy, specs))):
        with pytest.raises(TypeError, match="'cyclic' is bound to no"):
            attempt()


def test_registry_order_and_keys(monkeypatch):
    monkeypatch.setenv("ALTKNOT_MAX_V", "64")
    assert [f.prefix for f in fam.FAMILIES] == [
        "cyclic", "twistchain", "hopftwist", "trefoiltwist", "fourknottwist",
        "twistknot", "f", "p", "g", "chain", "kribbon", "lchain"]
    # the module names are the records, each listed once
    named = [getattr(fam, name) for name in dir(fam)
             if isinstance(getattr(fam, name), fam.Family)]
    assert sorted(map(id, named)) == sorted(map(id, fam.FAMILIES))
    assert len(set(map(id, fam.FAMILIES))) == 12
    for f in fam.FAMILIES:
        assert fam.parse_spec_string(
            fam.spec_string(FamilySpec(f, f.minima))).family is f
        assert len(f.names) == len(f.minima)
        for s in f.sweep(8):  # the minima included
            assert vertex_count(s) == fam.generate(s).vertex_count, str(s)


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


@pytest.mark.parametrize("family", fam.FAMILIES, ids=lambda f: f.prefix)
def test_sweep_ranges_stop_at_the_cap(family, monkeypatch):
    # every parameter is at most the vertex count, so a maximum past the
    # cap adds no member
    monkeypatch.setenv("ALTKNOT_MAX_V", "12")
    assert family.sweep(40) == family.sweep(12)


def test_cap_error_uses_spec_syntax(monkeypatch):
    monkeypatch.setenv("ALTKNOT_MAX_V", "10")
    with pytest.raises(fam.FamilyError, match=r"^p:k=5,l=4,m=2 has 11 "):
        fam.generate(spec(fam.THREE_RIBBON_P, 5, 4, 2))


@pytest.mark.parametrize("member", [(fam.K_RIBBON_CYCLIC, 10 ** 12, 1),
                                    (fam.CLOSED_CHAIN, 10 ** 11),
                                    (fam.CYCLIC_TORUS, 10 ** 12)])
def test_huge_parameters_are_a_cap_error(member, monkeypatch):
    # a shape is read only once every parameter is within the cap, so a
    # huge one is refused before any (m,) * k is made
    monkeypatch.setenv("ALTKNOT_MAX_V", "64")
    s = spec(*member)
    start = time.perf_counter()
    with pytest.raises(fam.FamilyError, match=rf"^{s} has .* the cap 64 "):
        fam.generate(s)
    with pytest.raises(fam.FamilyError, match="cap"):
        vertex_count(s)
    assert time.perf_counter() - start < 1


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


def _reads_its_formula(s):
    """closed_form(s), read from one integer, is the registry formula
    evaluated in the IntPoly ring."""
    return closed_form(s) == s.family.formula(*s.params)


@pytest.mark.parametrize("family", fam.FAMILIES, ids=lambda f: f.prefix)
def test_closed_form_reads_the_intpoly_formula_on_sweep(family):
    # the minima (lchain:k=0,n=1, and the rows reaching J_{-1}) included
    members = family.sweep(12)
    assert FamilySpec(family, family.minima) in members
    for s in members:
        assert _reads_its_formula(s), str(s)


@pytest.mark.parametrize("family", [f for f in fam.FAMILIES
                                    if len(f.names) == 1],
                         ids=lambda f: f.prefix)
def test_closed_form_reads_one_parameter_families_to_128(monkeypatch,
                                                         family):
    monkeypatch.setenv("ALTKNOT_MAX_V", "128")
    members = family.sweep(128)
    assert max(vertex_count(s) for s in members) >= 127
    for s in members:
        assert _reads_its_formula(s), str(s)


@pytest.mark.parametrize("c", [1, 2, 3, -4, 7, 2 ** 64 - 1])
def test_closed_form_reads_a_formula_at_its_majorant(monkeypatch, c):
    # a monomial c*x^v has its majorant |c| as its one coefficient, the
    # tightest a formula can be: one bit less headroom misreads it
    monkeypatch.setattr(fam, "TWIST_CHAIN", dataclasses.replace(
        fam.TWIST_CHAIN, formula=lambda v, x=X, J=jpoly: c * x ** v))
    for v in (1, 2, 9):
        assert closed_form(spec(fam.TWIST_CHAIN, v)) == c * X ** v, v


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
# The bead lemma: a ring-free member's polynomial as one 2x2 trace
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bead_members():
    """(spec, shape, generated polynomial) of every sweep(8) member whose
    shape has no rings, each shape read from the registry."""
    members = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ALTKNOT_MAX_V", "64")
        for family in fam.FAMILIES:
            for s in family.sweep(8):
                shape = family.shape(*s.params)
                if not shape[3]:
                    members.append(
                        (s, shape, charpoly(adjacency(generate(s)))))
    return members


def test_bead_lemma_holds_on_sweep(bead_members):
    # eleven families and lchain's k = 0, the bare necklace
    assert len(bead_members) == 788
    assert len({s.family for s, _, _ in bead_members}) == 12
    for s, shape, generated in bead_members:
        assert bead_charpoly(shape) == generated, str(s)


def test_bead_lemma_refuses_a_wrong_piece(bead_members):
    def wrong_piece(l):  # N(l) with its lower-right entry off by one
        ((a, b), (c, d)), alpha, beta = ribbon_piece(l)
        return ((a, b), (c, d + 1)), alpha, beta

    assert all(bead_charpoly(shape, wrong_piece) != generated
               for _, shape, generated in bead_members)


@pytest.fixture(scope="module")
def mixed_necklaces():
    """(lengths and lanes, twist, generated polynomial) of 300 seeded
    random necklaces: v <= 6 crossings, each grown to l <= 5 crossings
    along a random lane, and edge 0 twisted t <= 6 times."""
    rng = random.Random(17)
    members = []
    for _ in range(300):
        grown = [(rng.randint(1, 5), rng.choice(sg.LANES))
                 for _ in range(rng.randint(1, 6))]
        t = rng.randint(0, 6)
        b = fam._cyclic_torus(len(grown))
        for i, (l, lane) in enumerate(grown):
            b.ribbon(i, l, lane)
        if t:
            b.twist(b.tail(0), t)
        members.append(
            (grown, t, charpoly(adjacency(b.finish("necklace")))))
    return members


def mixed_charpoly(grown, t, out_piece=lane_out_piece):
    return necklace_charpoly(
        [out_piece(l) if lane == sg.LANE_OUT else ribbon_piece(l)
         for l, lane in grown], t)


def test_bead_lemma_holds_on_mixed_lanes_and_a_twisted_edge(
        mixed_necklaces):
    for grown, t, generated in mixed_necklaces:
        assert mixed_charpoly(grown, t) == generated, (grown, t)


def test_bead_lemma_refuses_a_wrong_lane_out_piece(mixed_necklaces):
    # T^(l+1) in place of T^l differs on every member with a LANE_OUT piece
    lane_out = [(grown, t, generated)
                for grown, t, generated in mixed_necklaces
                if any(lane == sg.LANE_OUT for _, lane in grown)]
    assert len(lane_out) == 243
    for grown, t, generated in lane_out:
        assert mixed_charpoly(
            grown, t, lambda l: lane_out_piece(l + 1)) != generated, (grown, t)


# ---------------------------------------------------------------------------
# Recurrences
# ---------------------------------------------------------------------------

def family_polys(family, vs):
    return [fam.closed_form(spec(family, v)) for v in vs]


def test_twist_chain_recurrence_homogeneous():
    p = family_polys(fam.TWIST_CHAIN, (3, 4, 5))
    assert check_family_recurrence(*p).homogeneous


def test_cyclic_recurrence_source_two():
    p = family_polys(fam.CYCLIC_TORUS, (3, 4, 5))
    check = check_family_recurrence(*p)
    assert not check.homogeneous
    assert check.source == IntPoly((2,))


def former_four_knot_twist_poly(v):
    """The four-knot twist closed form as a three-term recurrence from
    its first two members, kept verbatim as an independent check."""
    prev, cur = (IntPoly((0, -4, -2, 0, 1)),      # x^4 - 2x^2 - 4x
                 IntPoly((-2, 1, 0, -2, -1, 1)))  # x^5 - x^4 - 2x^3 + x - 2
    if v == 4:
        return prev
    for _ in range(v - 5):
        prev, cur = cur, X * cur - prev
    return cur


def test_four_knot_twist_form_matches_the_recurrence():
    for v in range(4, 129):
        assert (fam.closed_form(spec(fam.FOUR_KNOT_TWIST, v))
                == former_four_knot_twist_poly(v)), v


def test_twist_knot_recurrence_source_two_x():
    p = family_polys(fam.TWIST_KNOTS, (4, 5, 6))
    check = check_family_recurrence(*p)
    assert check.source == 2 * X


def test_all_twist_families_homogeneous():
    for family, lo in ((fam.TWIST_CHAIN, 1), (fam.HOPF_TWIST, 2),
                       (fam.TREFOIL_TWIST, 3), (fam.FOUR_KNOT_TWIST, 4)):
        polys = family_polys(family, range(lo, lo + 5))
        for i in range(3):
            assert check_family_recurrence(*polys[i:i + 3]).homogeneous, \
                family


def test_non_triple_rejected():
    with pytest.raises(fam.FamilyError, match="not a family triple"):
        check_family_recurrence(IntPoly((1,)), IntPoly((1,)),
                                IntPoly((0, 1)))


# ---------------------------------------------------------------------------
# Cross-family identities
# ---------------------------------------------------------------------------

def test_identities_all_pass():
    report = fam.check_identities(6)
    assert all(report.values()), report


def test_identities_stop_at_their_cap():
    # the --max 30 pin reads J_61: a lower cap checks less under it
    assert fam.IDENTITY_MAX == 30
    assert fam.check_identities(1000) == fam.check_identities(30)


def test_identities_without_instances_are_left_out():
    assert fam.check_identities(0) == {}
    # composition_of_cyclic starts at index 2
    assert "composition_of_cyclic" not in fam.check_identities(1)
    assert list(fam.check_identities(2)) == list(fam.check_identities(6))


def _verdict(instances):
    """all(instances), or None when there is no instance to check."""
    checked = False
    for ok in instances:
        if not ok:
            return False
        checked = True
    return True if checked else None


def intpoly_check_identities(max_index):
    """check_identities by IntPoly arithmetic on every instance, as it was
    before each identity was decided by one integer evaluation per side;
    kept verbatim as the oracle."""
    ks = range(1, max_index + 1)
    # every g-polynomial the checks below compare, each computed once
    g = {idx: three_ribbon_g_poly(*idx) for idx in product(ks, repeat=3)}
    report = {}
    report["odd_cyclic_square"] = _verdict(
        2 * (jpoly(2 * k + 1) - 1) - X * jpoly(2 * k)
        == (X - 2) * (jpoly(k) + jpoly(k - 1)) ** 2
        for k in ks)
    report["even_cyclic_square"] = _verdict(
        2 * (jpoly(2 * k) - 1) - X * jpoly(2 * k - 1)
        == (X * X - 4) * jpoly(k - 1) ** 2
        for k in ks)
    report["equal_indices_cube"] = _verdict(
        g[k, k, k]
        == (X - 2) * (1 + X) ** 2 * jpoly(k - 1) ** 3
        for k in ks)
    report["p_matches_g_at_one"] = _verdict(
        three_ribbon_p_poly(k, l, 1) == g[k, l, 1]
        for k in ks for l in ks)
    report["two_ribbon_vs_cyclic"] = _verdict(
        two_ribbon_poly(j, 1) == cyclic_poly(j + 1) for j in ks)
    report["two_ribbon_symmetry"] = _verdict(
        two_ribbon_poly(j, k) == two_ribbon_poly(k, j)
        for j in ks for k in ks)
    report["three_ribbon_g_symmetry"] = _verdict(
        g[k, l, m] == g[l, k, m] == g[m, l, k] == g[k, m, l]
        for k, l, m in g)
    report["closed_chain_form"] = _verdict(
        closed_form(FamilySpec(CLOSED_CHAIN, (k,)))
        == cyclic_poly(k) * X ** k
        and closed_form(FamilySpec(K_RIBBON_CYCLIC, (k, 2)))
        == cyclic_poly(k) * X ** k
        for k in ks)
    report["k_ribbon_form"] = _verdict(
        closed_form(FamilySpec(K_RIBBON_CYCLIC, (k, m)))
        == cyclic_poly(k) * jpoly(m - 1) ** k
        and closed_form(FamilySpec(K_RIBBON_CYCLIC, (k, 1))) == cyclic_poly(k)
        for k in ks for m in ks)
    comp_max = min(max_index, 5)
    report["composition_of_cyclic"] = _verdict(
        charpoly(adjacency(compose_twist(
            generate(FamilySpec(CYCLIC_TORUS, (k,))), 0,
            generate(FamilySpec(CYCLIC_TORUS, (l,))), 0, 0)))
        == three_ribbon_g_poly(k, l, 0)
        for k in range(2, comp_max + 1) for l in range(2, comp_max + 1))
    return {name: ok for name, ok in report.items() if ok is not None}


@pytest.mark.parametrize("m", range(13))
def test_identities_match_the_intpoly_oracle(m):
    assert (list(fam.check_identities(m).items())
            == list(intpoly_check_identities(m).items()))


@pytest.mark.parametrize("x0", [0, 1, 2, -3, 2 ** 7, 2 ** 64])
def test_integer_j_table_is_jpoly_at_the_point(x0):
    top = 25
    J = _J(x0)
    assert [J(k) for k in range(-1, top + 1)] == [
        jpoly(k)(x0) for k in range(-1, top + 1)]
    for k in (-2, -3, -top - 2):
        # never a wrap-around through a negative list index
        with pytest.raises(ValueError, match="index must be >= -1"):
            J(k)
        with pytest.raises(ValueError, match="index must be >= -1"):
            fam._jl1(k)


def l1(p):
    return sum(abs(c) for c in p.coeffs)


def test_majorants_bound_every_instance():
    # each side's majorant at an instance is at least the l1 norm of that
    # side's IntPoly, and the identity's majorant at its largest indices
    # is at least l1(L) + l1(R) >= l1(L - R) on every instance up to 8
    m = 8
    one = fam._L1(1)
    majorant_ring = (one, fam._jl1, fam._g_of(one, fam._jl1))
    poly_ring = (X, jpoly, fam._g_of(X, jpoly))
    for name, arity, sides in fam._IDENTITIES:
        top = max(lm.n + rm.n
                  for lm, rm in sides(*majorant_ring, *(m,) * arity))
        for idx in product(range(1, m + 1), repeat=arity):
            pairs = sides(*poly_ring, *idx)
            bounds = sides(*majorant_ring, *idx)
            for (lp, rp), (lm, rm) in zip(pairs, bounds):
                assert l1(lp) <= lm.n and l1(rp) <= rm.n, (name, idx)
                assert l1(lp - rp) <= l1(lp) + l1(rp) <= top, (name, idx)


def test_majorant_of_j_is_its_l1_norm():
    assert [fam._jl1(k).n for k in range(-1, 30)] == [
        l1(jpoly(k)) for k in range(-1, 30)]


def _off_by(delta):
    """An identity on cyclic_poly(k) whose right-hand side is off by
    delta(x, k) at every k."""
    return lambda x, J, g, k: [(cyclic_poly(k, x, J),
                                cyclic_poly(k, x, J) + delta(x, k))]


@pytest.mark.parametrize("m", [1, 2, 9])
def test_a_false_identity_reads_false(m):
    assert fam._identity_holds(_off_by(lambda x, k: 0), 1, m) is True
    # off by one in the constant term, or by x^k in the top coefficient
    # (cyclic_poly(k) is monic of degree k)
    assert fam._identity_holds(_off_by(lambda x, k: 1), 1, m) is False
    assert fam._identity_holds(_off_by(lambda x, k: x ** k), 1, m) is False
    # off only at the last instance
    assert fam._identity_holds(
        _off_by(lambda x, k: x ** k if k == m else 0), 1, m) is False
    assert fam._identity_holds(_off_by(lambda x, k: 1), 1, 0) is None


def test_a_difference_vanishing_at_a_power_of_two_reads_false():
    # x^k (x - 2^e) is zero at x0 = 2^e, so the point must lie above the
    # bound, which counts 2^e, for every e
    for e in range(1, 70):
        off = _off_by(lambda x, k: x ** (k + 1) - 2 ** e * x ** k)
        assert fam._identity_holds(off, 1, 3) is False, e


def test_every_identity_perturbed_reads_false():
    # the last pair of every identity, its right-hand side off by one or
    # by a power of x at or above its degree, on every instance
    for name, arity, sides in fam._IDENTITIES:
        for delta in (lambda x, idx: 1,
                      lambda x, idx: x ** (3 + sum(idx)),
                      lambda x, idx: 0 - x ** (sum(idx) + arity)):
            def off(x, J, g, *idx, sides=sides, delta=delta):
                *pairs, (l, r) = sides(x, J, g, *idx)
                return pairs + [(l, r + delta(x, idx))]
            assert fam._identity_holds(off, arity, 4) is False, name


def _formula_off_by_one(monkeypatch, name):
    """Make the formula of the record named `name` one more than it is, in
    every ring, for the rest of the test."""
    family = getattr(fam, name)
    monkeypatch.setattr(fam, name, dataclasses.replace(
        family, formula=lambda *args, f=family.formula: f(*args) + 1))


def _family_identities(max_index):
    return {name: fam._identity_holds(sides, arity, max_index)
            for name, arity, sides in fam._IDENTITIES
            if name in ("closed_chain_form", "k_ribbon_form")}


@pytest.mark.parametrize("m", [1, 6])
def test_family_identities_read_the_registry_formulas(monkeypatch, m):
    assert _family_identities(m) == {
        "closed_chain_form": True, "k_ribbon_form": True}
    _formula_off_by_one(monkeypatch, "CLOSED_CHAIN")
    assert _family_identities(m) == {
        "closed_chain_form": False, "k_ribbon_form": True}
    monkeypatch.undo()
    _formula_off_by_one(monkeypatch, "K_RIBBON_CYCLIC")
    assert _family_identities(m) == {
        "closed_chain_form": False, "k_ribbon_form": False}


def test_j_majorant_is_the_recurrence_in_the_l1_ring():
    J = _J(fam._L1(1))
    assert [J(k).n for k in range(-1, 31)] == [
        l1(jpoly(k)) for k in range(-1, 31)]
    for k in (-2, -5):
        with pytest.raises(ValueError, match="index must be >= -1"):
            J(k)


def test_hopf_twist_triples():
    polys = family_polys(fam.HOPF_TWIST, (2, 3, 4))
    assert check_family_recurrence(*polys).homogeneous


# ---------------------------------------------------------------------------
# Waist-ring pair: same polynomials, different diagrams
# ---------------------------------------------------------------------------

def test_waist_ring_values():
    assert waist_ring_poly(5) == X ** 5 - 2 * X ** 3 - 4 * X ** 2
    with pytest.raises(fam.FamilyError):
        waist_ring_poly(4)


@pytest.mark.parametrize("v", [6.0, True, "6", None])
def test_waist_ring_refuses_non_integers(v):
    with pytest.raises(fam.FamilyError, match="integer V >= 5"):
        waist_ring_poly(v)
    for growth in WAIST_RING_GROWTHS:
        with pytest.raises(fam.FamilyError, match="integer V >= 5"):
            waist_ring_diagram(v, growth)


@pytest.mark.parametrize("arg", [3.0, "3", True, None])
def test_identity_and_sweep_bounds_must_be_integers(arg):
    with pytest.raises(fam.FamilyError, match="must be an integer"):
        fam.check_identities(arg)
    for family in fam.FAMILIES:
        with pytest.raises(fam.FamilyError, match="must be an integer"):
            family.sweep(arg)


def test_waist_ring_pair():
    for v in range(5, 10):
        a = waist_ring_diagram(v, "chain")
        b = waist_ring_diagram(v, "clasp")
        assert dg.validate(a) == [] and dg.validate(b) == []
        assert charpoly(sp.adjacency(a)) == waist_ring_poly(v)
        assert charpoly(sp.adjacency(b)) == waist_ring_poly(v)
        if v > 5:
            assert dg.canonical_code(a) != dg.canonical_code(b), v


def test_waist_ring_component_counts():
    counts_a = [sp.trace_strands(sp.adjacency(
        waist_ring_diagram(v, "chain"))).count for v in range(5, 9)]
    counts_b = [sp.trace_strands(sp.adjacency(
        waist_ring_diagram(v, "clasp"))).count for v in range(5, 9)]
    assert counts_a == [2, 2, 2, 2]
    assert counts_b == [2, 3, 2, 3]


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def lookup(label):
    return [e for e in catalog() if e.rolfsen_label == label]


def test_catalog_lookups():
    assert any(e.family == spec(fam.TWO_RIBBON, 2, 2) for e in lookup("4_1"))
    assert any(e.family == spec(fam.TWO_RIBBON, 5, 4) for e in lookup("9_4"))
    assert any(e.family == spec(fam.THREE_RIBBON_G, 3, 3, 2)
               for e in lookup("8_5"))


def test_catalog_flags_inconsistent_duplicate():
    six, twenty = lookup("10_6"), lookup("10_20")
    assert six and twenty
    assert six[0].family == twenty[0].family
    assert FLAG_INCONSISTENT in six[0].flags
    assert FLAG_INCONSISTENT in twenty[0].flags


def test_catalog_members_verify():
    # every cataloged member's generator still matches its closed form
    for entry in catalog():
        assert fam.verify_member(entry.family).match, entry.rolfsen_label


# the labels whose superscript is not their member's component count:
# each member has two components, and only 5_2^1 is flagged in the source
SUPERSCRIPT_DISAGREES = {"6_2^3", "7_2^3", "8_2^3", "8_2^4", "5_2^1"}


@pytest.mark.parametrize(
    "entry", catalog(),
    ids=lambda e: f"{e.rolfsen_label}-{fam.spec_string(e.family)}")
def test_catalog_labels_count_crossings_and_components(entry):
    # a label n_i^c names n crossings and c components (1 when there is
    # no superscript); a reduced alternating diagram has the fewest
    # crossings, so n is the member's vertex count
    crossings, _, rest = entry.rolfsen_label.partition("_")
    components = rest.partition("^")[2] or "1"
    assert int(crossings) == vertex_count(entry.family)
    agrees = int(components) == dg.component_count(generate(entry.family))
    assert agrees == (entry.rolfsen_label not in SUPERSCRIPT_DISAGREES)


# the determinants of the five members whose superscript disagrees: each
# is even, so none is a knot, and 22 is not a multiple of 4, so the member
# read as 8_2^3 is not a three-component link
DISAGREEING_DETERMINANTS = {"6_2^3": 12, "7_2^3": 16, "8_2^3": 22,
                            "8_2^4": 24, "5_2^1": 8}


def test_catalog_labels_share_their_determinant():
    # the determinant is a link invariant, so the members one label names
    # share it; a member with a nugatory crossing is not reduced, its
    # label not derivable from it: each trefoil twist is a trefoil
    by_label = {}
    for entry in catalog():
        d = generate(entry.family)
        det = determinant(d)
        # the two checkerboard graphs are planar duals
        assert det == determinant(d, CW), entry.rolfsen_label
        # a knot has an odd determinant, and a link of c components one
        # divisible by 2^(c-1)
        components = dg.component_count(d)
        assert det % 2 == (components == 1), entry.rolfsen_label
        assert det % 2 ** (components - 1) == 0, entry.rolfsen_label
        if nugatory_crossings(d):
            assert entry.family.family is fam.TREFOIL_TWIST and det == 3
            continue
        by_label.setdefault(entry.rolfsen_label, set()).add(det)
    assert [label for label, dets in by_label.items() if len(dets) > 1] == []
    assert by_label["3_1"] == {3} and by_label["4_1"] == {5}
    assert {label: by_label[label] for label in DISAGREEING_DETERMINANTS} == {
        label: {det} for label, det in DISAGREEING_DETERMINANTS.items()}


def test_bareiss_determinant_is_the_leibniz_sum():
    rng = random.Random(11)
    for n in range(6):
        for _ in range(30):
            m = [[rng.randint(-2, 2) * rng.randint(0, 1) for _ in range(n)]
                 for _ in range(n)]
            leibniz = 0
            for perm in permutations(range(n)):
                inversions = sum(perm[i] > perm[j] for i in range(n)
                                 for j in range(i + 1, n))
                term = (-1) ** inversions
                for i in range(n):
                    term *= m[i][perm[i]]
                leibniz += term
            assert bareiss_determinant(m) == leibniz, m


def test_same_label_different_polynomials_is_allowed():
    # one table label may appear in several families whose polynomials
    # disagree; the polynomial is only a semi-invariant
    entries = lookup("5_2")
    polys = {str(fam.closed_form(e.family)) for e in entries}
    assert len(entries) >= 2
    assert len(polys) == 2


def test_generators_are_deterministic(member_specs):
    # no randomness anywhere: repeated generation is bit-identical
    for s in member_specs:
        assert fam.generate(s) == fam.generate(s), str(s)


# ---------------------------------------------------------------------------
# Golden generator output: every member dart for dart, and its kind
# ---------------------------------------------------------------------------

# Face ids, and with them contract_bigon(face_id), depend on dart order, so
# the generators must reproduce these maps exactly.  Each digest is the
# sha256 of one line per diagram: spec (sweeps only), kind and the sha256
# of to_json(d).
GOLDEN_SWEEP_8 = {
    "cyclic": "d19419daa06a8934266bdae191cb74ee5831cd19ae9badfeee5abf639a269036",
    "twistchain": "e662e0dcb6aaf597301807616347d726eab81a1b77ac1e69290b58942c9c21e1",
    "hopftwist": "c2e617f63765453970a8f2140ed76235a848acb646d90e5dcd8904ccfa864716",
    "trefoiltwist": "afb20fdad46e81745ea734a1db250a4623e134c337cbde10b532a200b0bdc9bd",
    "fourknottwist": "66bd161759d0b49eb6e26475b8d9a8529d93570f84923cc017dc3b0ddcdb68f9",
    "twistknot": "a484d2b81e7f4f507a4513124e539ae6c1b3187157968eb09cd55fdf512046c5",
    "f": "173c60619cf34cc3970cc831c8966700d99adf357105cbdef08365259e934f44",
    "p": "55b44282b1125c1d2022d96c6faa88e57b3371f7ffd25fb08a33c950efb40b21",
    "g": "10f2266c961e86ef5ad6441de70047a9872b356009c60ab329af1b877b2de2bf",
    "chain": "3db4efb5bb9cf21b8b965ebf35a6ca1b32cd283f8bea7b73063daf534673bd1e",
    "kribbon": "a7be804b3fd9a7795940d0a042ca4fcd9e91396ad0f760b1ac9f78c0a37ff2aa",
    "lchain": "dd936e39a803453f0a0b677627e05a4630af6d32b082f60684423fa935b0a179",
}
GOLDEN_WAIST_RING_5_9 = {
    "chain": "16ef749559f1171012f20b1e1b1d3c6061487f7212381d0c1f98fe1c973a4a2e",
    "clasp": "d0950991e6224a2f0c5b15b356d581e3f99dd6215125ecf3319f0a97d58a6a1a",
}
GOLDEN_COMPOSE_3_4 = (
    "06a5317e96e80f7c85be30ab23bafaa2d832c2fc9b3ab5595c4a7f0060fca374")


def golden_line(d):
    text = dg.to_json(d).encode()
    return f"{d.kind}\t{hashlib.sha256(text).hexdigest()}\n"


def golden_digest(lines):
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("family", fam.FAMILIES, ids=lambda f: f.prefix)
def test_generated_members_are_golden(family, monkeypatch):
    monkeypatch.setenv("ALTKNOT_MAX_V", "64")
    lines = [f"{s}\t" + golden_line(fam.generate(s)) for s in family.sweep(8)]
    assert golden_digest(lines) == GOLDEN_SWEEP_8[family.prefix]


def test_waist_rings_are_golden():
    for growth, expected in GOLDEN_WAIST_RING_5_9.items():
        lines = [golden_line(waist_ring_diagram(v, growth))
                 for v in range(5, 10)]
        assert golden_digest(lines) == expected, growth


def test_compose_twist_is_golden():
    a = fam.generate(spec(fam.CYCLIC_TORUS, 3))
    b = fam.generate(spec(fam.CYCLIC_TORUS, 4))
    lines = [golden_line(sg.compose_twist(a, 1, b, 2, t)) for t in range(4)]
    assert golden_digest(lines) == GOLDEN_COMPOSE_3_4


def test_generate_validates_each_member_once(monkeypatch):
    # growth moves edit one builder; only finishing derives the kind and
    # checks the map, once, on the builder's own lists, so the cost of a
    # member stays linear in its size
    calls, kinds = [], []
    real, real_kind = dg._map_problems, dg._kind

    def check(problems, v, rotation, succ, ring_of, ids, vertex, twin, *rest):
        calls.append((vertex[:], twin[:]))
        return real(problems, v, rotation, succ, ring_of, ids, vertex, twin,
                    *rest)

    monkeypatch.setattr(dg, "_map_problems", check)
    monkeypatch.setattr(dg, "_kind", lambda *a: kinds.append(a)
                        or real_kind(*a))

    def checked(d):
        return [([x.vertex for x in d.darts], [x.twin for x in d.darts])]

    for text in ("hopftwist:V=9", "p:k=3,l=4,m=2", "lchain:k=3,n=2",
                 "kribbon:k=3,m=3", "cyclic:V=4"):
        calls.clear()
        kinds.clear()
        d = fam.generate(fam.parse_spec_string(text))
        assert calls == checked(d) and len(kinds) == 1, text
    calls.clear()
    kinds.clear()
    d = waist_ring_diagram(8, "clasp")
    assert calls == checked(d) and len(kinds) == 1


def test_generator_failure_names_the_generator(monkeypatch):
    monkeypatch.setattr(dg, "_map_problems",
                        lambda problems, *a: problems.append("made up"))
    with pytest.raises(fam.FamilyError,
                       match="generator produced an invalid diagram: made up"):
        fam.generate(spec(fam.CYCLIC_TORUS, 3))
