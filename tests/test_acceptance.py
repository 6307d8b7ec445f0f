"""Acceptance suite.

Every check is exact integer arithmetic (tolerance zero).  Each criterion
prints one PASS line when it completes; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.
"""

import random

import pytest
from oracles import (WAIST_RING_GROWTHS, all_ones_check,
                     check_family_recurrence, check_generating_function,
                     check_quadratic_identity, jpoly_explicit,
                     waist_ring_diagram, waist_ring_poly)

from altknot import diagram as dg
from altknot import families as fam
from altknot import spectra as sp
from altknot import surgery as sg
from altknot.polynomials import (IntPoly, X, charpoly, coefficient_report,
                                 divide_out, jpoly, power_sums_from_charpoly)


def _spec(family, *params):
    return fam.FamilySpec(family, tuple(params))


def class_matrix(n, edges, members):
    """The n x n matrix counting the traced edges listed in `members`."""
    rows = [[0] * n for _ in range(n)]
    for e in members:
        i, j = edges[e]
        rows[i][j] += 1
    return tuple(tuple(row) for row in rows)


def _sweep_specs():
    """Every member exercised by criteria 2-4."""
    specs = []
    specs += [_spec(fam.TWIST_CHAIN, v) for v in range(1, 31)]
    specs += [_spec(fam.HOPF_TWIST, v) for v in range(2, 31)]
    specs += [_spec(fam.TREFOIL_TWIST, v) for v in range(3, 31)]
    specs += [_spec(fam.FOUR_KNOT_TWIST, v) for v in range(4, 31)]
    specs += [_spec(fam.CYCLIC_TORUS, v) for v in range(1, 31)]
    specs += [_spec(fam.TWIST_KNOTS, v) for v in range(3, 21)]
    specs += [_spec(fam.TWO_RIBBON, j, k)
              for j in range(1, 9) for k in range(1, j + 1)]
    specs += [_spec(fam.THREE_RIBBON_P, k, l, m)
              for k in range(1, 6) for l in range(1, 6) for m in range(1, 6)]
    specs += [_spec(fam.THREE_RIBBON_G, k, l, m)
              for k in range(1, 6) for l in range(1, 6) for m in range(1, 6)]
    specs += [_spec(fam.THREE_RIBBON_G, k, k, k) for k in range(6, 11)]
    specs += [_spec(fam.CLOSED_CHAIN, k) for k in range(1, 9)]
    specs += [_spec(fam.K_RIBBON_CYCLIC, k, m)
              for k in range(1, 9) for m in range(1, 9)]
    specs += [_spec(fam.CHAINED_CYCLIC, k, n)
              for k in range(0, 9) for n in range(1, 9)]
    return specs


@pytest.fixture(scope="module")
def corpus():
    """Generated diagram + matrix + polynomial for each swept member."""
    out = []
    for spec in _sweep_specs():
        d = fam.generate(spec)
        m = sp.adjacency(d)
        out.append((spec, d, m, charpoly(m)))
    for v in range(5, 13):
        for growth in WAIST_RING_GROWTHS:
            d = waist_ring_diagram(v, growth)
            m = sp.adjacency(d)
            out.append((f"waist_ring({growth},V={v})", d, m, charpoly(m)))
    return out


def test_criterion_1_chebyshev_base():
    known_first_eight = [IntPoly(c) for c in [
        (1,), (0, 1), (-1, 0, 1), (0, -2, 0, 1), (1, 0, -3, 0, 1),
        (0, 3, 0, -4, 0, 1), (-1, 0, 6, 0, -5, 0, 1),
        (0, -4, 0, 10, 0, -6, 0, 1)]]
    assert [jpoly(k) for k in range(8)] == known_first_eight
    assert all(jpoly(k) == jpoly_explicit(k) for k in range(-1, 51))
    assert all(check_quadratic_identity(k) for k in range(1, 51))
    assert check_generating_function(20)
    print("\n[criterion 1] PASS - Chebyshev base: first eight values, recurrence "
          "== explicit sum to k=50, quadratic identity to k=50, generating "
          "function to k=20")


def test_criterion_2_twist_families():
    for v in range(1, 31):
        assert (charpoly(sp.adjacency(fam.generate(_spec(fam.TWIST_CHAIN, v))))
                == (X - 2) * jpoly(v - 1)), v
    sweeps = ((fam.HOPF_TWIST, 2), (fam.TREFOIL_TWIST, 3),
              (fam.FOUR_KNOT_TWIST, 4), (fam.TWIST_CHAIN, 1))
    for family, lo in sweeps:
        polys = []
        for v in range(lo, 31):
            res = fam.verify_member(_spec(family, v))
            assert res.match, f"{family} V={v}"
            polys.append(res.formula)
        for i in range(len(polys) - 2):
            assert check_family_recurrence(*polys[i:i + 3]).homogeneous, \
                (family, i)
    print("[criterion 2] PASS - twist families match their closed forms for "
          "V<=30 and every consecutive triple is homogeneous")


def test_criterion_3_cyclic_torus():
    for v in range(1, 31):
        assert fam.verify_member(_spec(fam.CYCLIC_TORUS, v)).match, v
        count = sp.trace_strands(
            sp.adjacency(fam.generate(_spec(fam.CYCLIC_TORUS, v)))).count
        assert count == (1 if v % 2 else 2), v
    for k in range(1, 16):
        assert (2 * (jpoly(2 * k + 1) - 1) - X * jpoly(2 * k)
                == (X - 2) * (jpoly(k) + jpoly(k - 1)) ** 2), k
        assert (2 * (jpoly(2 * k) - 1) - X * jpoly(2 * k - 1)
                == (X * X - 4) * jpoly(k - 1) ** 2), k
    print("[criterion 3] PASS - cyclic torus generator matches for V<=30, "
          "odd/even square factorizations hold to k=15, strand parity checks")


def test_criterion_4_knot_families(corpus):
    by_family = {}
    for spec, d, m, p in corpus:
        if isinstance(spec, fam.FamilySpec):
            by_family.setdefault(spec.family, {})[spec.params] = p

    # twist knots match and recover the 2x source
    for v in range(3, 21):
        assert fam.verify_member(_spec(fam.TWIST_KNOTS, v)).match, v
    triple = [by_family[fam.TWIST_KNOTS][(v,)] for v in (4, 5, 6)]
    assert check_family_recurrence(*triple).source == 2 * X

    for j in range(1, 9):
        for k in range(1, j + 1):
            assert fam.verify_member(_spec(fam.TWO_RIBBON, j, k)).match, (j, k)
    assert (by_family[fam.TWO_RIBBON][(2, 2)]
            == X ** 4 - 2 * X ** 2 - 4 * X)

    for k in range(1, 6):
        for l in range(1, 6):
            for m_ in range(1, 6):
                assert fam.verify_member(
                    _spec(fam.THREE_RIBBON_P, k, l, m_)).match, (k, l, m_)
                assert fam.verify_member(
                    _spec(fam.THREE_RIBBON_G, k, l, m_)).match, (k, l, m_)

    for k in range(1, 7):
        for l in range(1, 7):
            assert (fam.three_ribbon_p_poly(k, l, 1)
                    == fam.three_ribbon_g_poly(k, l, 1)), (k, l)
    for k in range(1, 11):
        assert (fam.three_ribbon_g_poly(k, k, k)
                == (X - 2) * (1 + X) ** 2 * jpoly(k - 1) ** 3), k

    for v in range(5, 13):
        for growth in WAIST_RING_GROWTHS:
            d = waist_ring_diagram(v, growth)
            assert charpoly(sp.adjacency(d)) == waist_ring_poly(v), \
                (growth, v)
    for k in range(1, 9):
        assert fam.verify_member(_spec(fam.CLOSED_CHAIN, k)).match, k
        for m_ in range(1, 9):
            assert fam.verify_member(
                _spec(fam.K_RIBBON_CYCLIC, k, m_)).match, (k, m_)
    for k in range(0, 9):
        for n in range(1, 9):
            assert fam.verify_member(
                _spec(fam.CHAINED_CYCLIC, k, n)).match, (k, n)
    print("[criterion 4] PASS - twist knots (source 2x), two-ribbon grid, "
          "both three-ribbon grids, equal-index cubes, the waist-ring pair, "
          "closed chains, k-ribbon necklaces and ring chains all match")


def test_criterion_5_matrix_laws(corpus):
    for spec, d, m, p in corpus:
        assert not m.problems(), spec
        assert all_ones_check(m), spec
        _, exact = divide_out(p, X - 2)
        assert exact, spec
        assert p(2) == 0, spec
        loops = d.loop_count()
        _, census = dg.faces(d)
        report = coefficient_report(p, census, loops)
        assert report.all_pass(), spec
        if not loops:
            assert dg.check_face_identity(census), spec
        sums = power_sums_from_charpoly(p, d.vertex_count)
        for k in range(1, d.vertex_count + 1):
            assert sums[k - 1] == sp.closed_path_count(m, k), (spec, k)
    print(f"[criterion 5] PASS - matrix laws on {len(corpus)} generated "
          "diagrams: row/col sums, eigenvalue 2, (x-2) factor, coefficient "
          "rules, face identity, trace/Newton agreement to k=V")


def test_criterion_6_decompositions(corpus):
    for spec, d, m, p in corpus:
        dec = sp.trace_strands(m)
        pairs = sp.permutation_decompositions(m)
        for p1, p2 in pairs:
            n = m.n
            assert tuple(tuple(p1[i][j] + p2[i][j] for j in range(n))
                         for i in range(n)) == m.rows, spec
        if dec.count == 1:
            assert len(pairs) == 1, spec
        else:
            distinct = all(
                class_matrix(m.n, dec.edges, even)
                != class_matrix(m.n, dec.edges, odd)
                for even, odd in dec.permutation_split)
            if distinct:
                assert len(pairs) == 2 ** (dec.count - 1), spec
    print("[criterion 6] PASS - knots decompose uniquely, links with "
          "distinct classes give 2^(N-1) splittings, P1 + P2 always "
          "rebuilds the matrix")


def test_criterion_7_surgery():
    rng = random.Random(2024)
    pool = [s for s in _sweep_specs()
            if 2 <= fam.vertex_count(s) <= 16]
    checked = 0
    while checked < 100:
        spec = rng.choice(pool)
        d = fam.generate(spec)
        v = rng.randrange(d.vertex_count)
        lane = rng.choice(sg.LANES)
        grown, _, bigon = sg._expand(d, v, lane)
        assert dg.validate(grown) == [], (spec, v, lane)
        face_list, _ = dg.faces(grown)
        face_id = next(i for i, t in enumerate(face_list)
                       if set(t) == set(bigon))
        back = sg.contract_bigon(grown, face_id)
        assert dg.canonical_code(back) == dg.canonical_code(d), (spec, v, lane)
        checked += 1

    for base_spec in (_spec(fam.TWO_RIBBON, 3, 2),
                      _spec(fam.THREE_RIBBON_P, 2, 2, 1),
                      _spec(fam.CYCLIC_TORUS, 4)):
        d = fam.generate(base_spec)
        polys = [charpoly(sp.adjacency(d))]
        cur = 0
        for _ in range(3):
            d, cur, _ = sg._expand(d, cur, sg.LANE_IN)
            polys.append(charpoly(sp.adjacency(d)))
        first = check_family_recurrence(*polys[0:3])
        second = check_family_recurrence(*polys[1:4])
        assert first.homogeneous == second.homogeneous
        assert first.source == second.source, base_spec
    print("[criterion 7] PASS - expand/contract is the identity over 100 "
          "sampled (vertex, lane) choices; expansion chains keep a constant "
          "recurrence source")


def test_criterion_8_known_values():
    trefoil = charpoly(sp.adjacency(fam.generate(_spec(fam.CYCLIC_TORUS, 3))))
    assert trefoil == (X - 2) * (X + 1) ** 2
    hopf = charpoly(sp.adjacency(fam.generate(_spec(fam.CYCLIC_TORUS, 2))))
    assert hopf == X ** 2 - 4
    four = charpoly(sp.adjacency(fam.generate(_spec(fam.TWO_RIBBON, 2, 2))))
    assert four == X ** 4 - 2 * X ** 2 - 4 * X
    one = charpoly(sp.adjacency(fam.generate(_spec(fam.CYCLIC_TORUS, 1))))
    assert one == X - 2
    print("[criterion 8] PASS - known polynomials: trefoil, Hopf link, "
          "4-vertex knot, one-vertex twist")
