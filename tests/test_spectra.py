import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (WAIST_RING_GROWTHS, all_ones_check, charpoly_cofactor,
                     reference_charpoly, reference_path_counts,
                     waist_ring_diagram)
from test_acceptance import _sweep_specs  # the criteria 2-6 corpus
from test_acceptance import class_matrix
from test_surgery import SURGERY_SEEDS, surgery_step  # random surgery

from altknot import diagram as dg
from altknot import families as fam
from altknot import polynomials as pl
from altknot import spectra as sp
from altknot import surgery as sg
from altknot.polynomials import charpoly


def matrix_of(family, params):
    return sp.adjacency(fam.generate(fam.FamilySpec(family, params)))


# ---------------------------------------------------------------------------
# Adjacency
# ---------------------------------------------------------------------------

def test_known_matrices():
    assert matrix_of(fam.CYCLIC_TORUS, (3,)).rows == ((0, 1, 1), (1, 0, 1),
                                                      (1, 1, 0))
    assert matrix_of(fam.CYCLIC_TORUS, (2,)).rows == ((0, 2), (2, 0))
    assert matrix_of(fam.CYCLIC_TORUS, (1,)).rows == ((2,),)


def test_row_and_column_sums(member_diagrams):
    for spec, d in member_diagrams:
        m = sp.adjacency(d)
        assert not m.problems(), str(spec)
        assert sum(m.rows[i][i] for i in range(m.n)) == d.loop_count(), \
            str(spec)


def test_matrix_problems():
    assert sp.AdjMatrix(((1, 0), (0, 1))).problems()
    assert not sp.AdjMatrix(((0, 2), (2, 0))).problems()


# Malformed matrices with the exact `problems()` list and the
# `all_ones_check` verdict of each: message text and order are pinned.
MATRIX_VERDICTS = [
    ((), ["matrix is empty"], True),
    (((), ()), ["matrix is not square"], False),
    (((1, 1), (2,)), ["matrix is not square"], False),
    (((1, 1, 0), (1, 1, 0)), ["matrix is not square"], False),
    (((-1, 2), (2, 1)),
     ["negative entry", "row 0 sums to 1, not 2", "row 1 sums to 3, not 2",
      "column 0 sums to 1, not 2", "column 1 sums to 3, not 2"], False),
    (((-1, 3), (3, -1)), ["negative entry"], True),
    (((1, 0), (1, 2)),
     ["row 0 sums to 1, not 2", "row 1 sums to 3, not 2"], False),
    (((1, 1), (0, 2)),
     ["column 0 sums to 1, not 2", "column 1 sums to 3, not 2"], False),
    (((0, 0, 3), (2, 0, 0), (0, 1, 1)),
     ["row 0 sums to 3, not 2", "column 1 sums to 1, not 2",
      "column 2 sums to 4, not 2"], False),
    (((1, 0), (0, 1)),
     ["row 0 sums to 1, not 2", "row 1 sums to 1, not 2",
      "column 0 sums to 1, not 2", "column 1 sums to 1, not 2"], False),
    (((2,),), [], True),
    (((0, 2), (2, 0)), [], True),
]


@pytest.mark.parametrize("rows,problems,all_ones", MATRIX_VERDICTS)
def test_matrix_problems_and_sums_are_pinned(rows, problems, all_ones):
    m = sp.AdjMatrix(rows)
    assert m.problems() == problems
    assert all_ones_check(m) is all_ones


def test_empty_matrix_is_not_adjacency():
    assert sp.AdjMatrix(()).problems() == ["matrix is empty"]
    with pytest.raises(ValueError, match="matrix is empty"):
        sp.trace_strands(sp.AdjMatrix(()))


# ---------------------------------------------------------------------------
# Strand tracing
# ---------------------------------------------------------------------------

def test_strand_counts():
    assert sp.trace_strands(matrix_of(fam.CYCLIC_TORUS, (3,))).count == 1
    assert sp.trace_strands(matrix_of(fam.CYCLIC_TORUS, (4,))).count == 2
    assert sp.trace_strands(sp.AdjMatrix(((2,),))).count == 1


def test_cyclic_parity(member_specs):
    for v in range(1, 12):
        m = matrix_of(fam.CYCLIC_TORUS, (v,))
        assert sp.trace_strands(m).count == (1 if v % 2 else 2)


def test_every_edge_in_one_component(member_diagrams):
    for spec, d in member_diagrams:
        dec = sp.trace_strands(sp.adjacency(d))
        seen = sorted(e for cycle in dec.components for e in cycle)
        assert seen == list(range(2 * d.vertex_count)), str(spec)
        for cycle, (even, odd) in zip(dec.components, dec.permutation_split):
            assert sorted(even + odd) == sorted(cycle)


def test_alternating_walk_shares_rows_then_columns():
    dec = sp.trace_strands(matrix_of(fam.CYCLIC_TORUS, (5,)))
    for cycle in dec.components:
        n = len(cycle)
        for i in range(n):
            a, b = dec.edges[cycle[i]], dec.edges[cycle[(i + 1) % n]]
            if i % 2 == 0:
                assert a[0] == b[0]  # row move: same tail
            else:
                assert a[1] == b[1]  # column move: same head


def test_trace_strands_rejects_invalid():
    with pytest.raises(ValueError):
        sp.trace_strands(sp.AdjMatrix(((1, 0), (0, 1))))


@pytest.mark.parametrize("rows", [((True, 1), (1, 1)), ((2.0, 0), (0, 2)),
                                  ((0, 2), (2, 0.0)), ((2, False), (0, 2))],
                         ids=["true", "float", "float-zero", "false"])
def test_trace_strands_refuses_non_int_entries(rows):
    m = sp.AdjMatrix(rows)
    assert m.problems() == ["matrix entries must be integers"]
    with pytest.raises(ValueError, match="must be integers"):
        sp.trace_strands(m)


def test_strands_of_one_matrix_are_walked_once(monkeypatch):
    # each call checks its own matrix once, and `decompositions` of a
    # walk checks and walks nothing again
    m = matrix_of(fam.CYCLIC_TORUS, (6,))
    checks = []
    problems = sp.AdjMatrix.problems
    monkeypatch.setattr(sp.AdjMatrix, "problems",
                        lambda self: checks.append(self) or problems(self))
    dec = sp.trace_strands(m)
    assert checks == [m]
    count, pairs = sp.decompositions(dec)
    assert (count, list(pairs)) == (2, sp.permutation_decompositions(m))
    assert checks == [m, m]


def test_interleaved_strand_walks_equal_fresh_ones():
    a = matrix_of(fam.CYCLIC_TORUS, (6,))
    b = matrix_of(fam.CLOSED_CHAIN, (3,))
    for m in (a, b, a, b, a):
        fresh = sp.AdjMatrix(m.rows)  # equal rows, a different object
        assert fresh.rows is not m.rows
        assert sp.trace_strands(m) == sp.trace_strands(fresh)
        assert (sp.permutation_decompositions(m)
                == sp.permutation_decompositions(fresh))


def test_strand_slot_threads_on_different_matrices():
    specs = [(fam.CYCLIC_TORUS, (8,)), (fam.TWO_RIBBON, (4, 3)),
             (fam.CLOSED_CHAIN, (4,)), (fam.TWIST_KNOTS, (8,))]
    matrices = [matrix_of(family, params) for family, params in specs]
    refs = [(sp.trace_strands(sp.AdjMatrix(m.rows)),
             sp.permutation_decompositions(sp.AdjMatrix(m.rows)))
            for m in matrices]
    errors = []

    def walk(m, ref):
        for _ in range(200):
            if (sp.trace_strands(m), sp.permutation_decompositions(m)) != ref:
                errors.append(m.n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=walk, args=pair)
                   for pair in zip(matrices, refs)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


@pytest.mark.parametrize("value", [True, 1.0])
def test_strand_slot_does_not_pass_an_equal_matrix_of_other_types(value):
    m = matrix_of(fam.CYCLIC_TORUS, (3,))
    sp.trace_strands(m)
    j = m.rows[0].index(1)
    rows = ((*m.rows[0][:j], value, *m.rows[0][j + 1:]),) + m.rows[1:]
    assert rows == m.rows
    for call in (sp.trace_strands, sp.permutation_decompositions):
        with pytest.raises(ValueError, match="must be integers"):
            call(sp.AdjMatrix(rows))


def test_refused_matrix_leaves_the_next_walk_equal():
    m = matrix_of(fam.CYCLIC_TORUS, (4,))
    dec, pairs = sp.trace_strands(m), sp.permutation_decompositions(m)
    for bad in (((1, 0), (0, 1)), ((2.0, 0), (0, 2)), ()):
        for call in (sp.trace_strands, sp.permutation_decompositions):
            with pytest.raises(ValueError, match="not an adjacency matrix"):
                call(sp.AdjMatrix(bad))
            assert sp.trace_strands(m) == dec
            assert sp.permutation_decompositions(m) == pairs


FIRST_CALLS_ON_THE_EMPTY_MATRIX = """
from altknot import spectra as sp
for call in (lambda: sp.closed_path_count(sp.AdjMatrix(()), 1),
             lambda: sp.trace_strands(sp.parse_matrix("[]"))):
    try:
        print(call())
    except ValueError as exc:
        print(exc)
"""


def test_empty_matrix_is_refused_before_any_slot_is_filled():
    # a fresh process, so neither slot holds a matrix yet; the empty
    # tuple, being shared, must not stand for "no matrix"
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c",
                          FIRST_CALLS_ON_THE_EMPTY_MATRIX],
                         capture_output=True, text=True, env=env,
                         timeout=60)
    assert (out.returncode, out.stdout) == (
        0, "matrix is empty\nnot an adjacency matrix: matrix is empty\n")


def random_adjacency(rng, n):
    """P + Q for random permutations: 2-entries where they agree, loops at
    their fixed points.  Half the time Q is swapped into agreeing with P
    on a random stretch of rows."""
    p, q = rng.sample(range(n), n), rng.sample(range(n), n)
    if rng.random() < 0.5:
        lo = rng.randrange(n)
        for i in range(lo, rng.randrange(lo, n + 1)):
            j = q.index(p[i])
            q[i], q[j] = q[j], q[i]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][p[i]] += 1
        rows[i][q[i]] += 1
    return sp.AdjMatrix(rows)


def test_strand_edges_match_the_dense_reading():
    rng = random.Random(20261019)
    twos = loops = 0
    for _ in range(300):
        m = random_adjacency(rng, rng.randint(1, 10))
        dense = tuple((i, j) for i, row in enumerate(m.rows)
                      for j, v in enumerate(row) for _ in range(v))
        assert sp.trace_strands(m).edges == dense, m.to_text()
        twos += any(2 in row for row in m.rows)
        loops += any(m.rows[i][i] for i in range(m.n))
    assert twos >= 50 and loops >= 50


def test_strand_edges_are_a_view_of_the_walks_columns(monkeypatch):
    # `edges` pairs each edge's row, e // 2, with its column from the walk,
    # and is the dense reading, on layered and on parsed matrices
    monkeypatch.setenv("ALTKNOT_MAX_V", "64")
    matrices = [sp.adjacency(fam.generate(s))
                for f in fam.FAMILIES for s in f.sweep(8)]
    parsed = sp.parse_matrix(" 0 1 +1 0\n2 0 0 0\n\n0 0 0 2\n0 1 1 0 \n")
    assert len(matrices) == 852 and not parsed._layers
    for m in (*matrices, parsed):
        dec = sp.trace_strands(m)
        dense = tuple((i, j) for i, row in enumerate(m.rows)
                      for j, v in enumerate(row) for _ in range(v))
        assert dec.edges == tuple(
            (e // 2, j) for e, j in enumerate(dec.columns)) == dense


def test_decompositions_read_the_columns_not_the_edges(monkeypatch):
    matrices = [sp.parse_matrix("0 1 1 0\n2 0 0 0\n0 0 0 2\n0 1 1 0"),
                *(sp.adjacency(fam.generate(fam.parse_spec_string(s)))
                  for s in ("cyclic:V=4", "kribbon:k=4,m=3", "chain:k=5"))]
    decs = [sp.trace_strands(m) for m in matrices]
    want = [list(sp.decompositions(dec)[1]) for dec in decs]

    def refuse(dec):
        raise AssertionError("decompositions read `edges`")

    # a class property shadows an instance field too, so this refuses
    # every read of `edges`, however the decomposition stores it
    monkeypatch.setattr(sp.StrandDecomposition, "edges", property(refuse),
                        raising=False)
    for dec, pairs in zip(decs, want):
        count, made = sp.decompositions(dec)
        assert count == len(pairs) and list(made) == pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_strand_count_invariant_under_relabeling(v, rng):
    m = matrix_of(fam.CYCLIC_TORUS, (v,))
    perm = list(range(v))
    rng.shuffle(perm)
    rows = tuple(tuple(m.rows[perm[i]][perm[j]] for j in range(v))
                 for i in range(v))
    assert (sp.trace_strands(sp.AdjMatrix(rows)).count
            == sp.trace_strands(m).count)


# The edge numbering, the walk's starting edges and the order of every
# cycle are all part of the output, so the tracer must reproduce these
# exactly.  Each digest is the sha256 of one line per `sweep(8)` member:
# spec and the sha256 of repr(trace_strands(adjacency(d))).
GOLDEN_STRANDS_8 = {
    "cyclic": "64855ef10cec92706d82a8d0cc45c12595ee1070e09230350bd5e646e3218f69",
    "twistchain": "07fbe9bc2adc101f4f58f9aa37bb0eb48cf1a06631215b5d91b297412baf859b",
    "hopftwist": "c7d5df9d99f479dbaaba57a92a21ce56d865fbdca9c3d46baca1f4f5ea2f0cab",
    "trefoiltwist": "b68aaaa1a1abb88f024cad12aefe2a7100b092b3644e904011ca5a08c7094773",
    "fourknottwist": "698ebb50322a592189be7a7e199d312210b7acc335b4562ef20b2133ad849a77",
    "twistknot": "85e1ca00fbd4736824045e56bb5fcd0adb9de446875bd4b269e6c9f0b739afd0",
    "f": "497c612e1d51b92cdc26166870fed7335d8f28ce4e0a69e3120702b289d470bb",
    "p": "cae5e31d3d6957fd3e77415e696648cbd1aa3aae30be48ec0736fc478cc320d6",
    "g": "be6b7918b5c61534168ed3641bd78d901341c699e937140c38be763dbf9a120e",
    "chain": "d9ed762417a6e9b4012024c187de0a57ff5a34c8c435ae5b2ef9fbd025c0bf25",
    "kribbon": "6c42560ad970776ba4eaf35b896b8b167478df8faba54d3d416d6cfc5a192124",
    "lchain": "4710b2d60c788eb85bc55b62fd49d800140ae69840bcb30775a4021f8b5e2c46",
}


@pytest.mark.parametrize("family", fam.FAMILIES, ids=lambda f: f.prefix)
def test_traced_strands_are_golden(family, monkeypatch):
    monkeypatch.setenv("ALTKNOT_MAX_V", "64")
    lines = []
    for s in family.sweep(8):
        dec = sp.trace_strands(sp.adjacency(fam.generate(s)))
        lines.append(f"{s}\t{hashlib.sha256(repr(dec).encode()).hexdigest()}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_STRANDS_8[family.prefix]


# ---------------------------------------------------------------------------
# Permutation decompositions
# ---------------------------------------------------------------------------

def test_trefoil_unique_decomposition():
    pairs = sp.permutation_decompositions(matrix_of(fam.CYCLIC_TORUS, (3,)))
    assert len(pairs) == 1
    p1, p2 = pairs[0]
    cyc = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    inv = tuple(tuple(row) for row in zip(*cyc))
    assert (p1, p2) in ((cyc, inv), (inv, cyc))


def test_hopf_identical_classes_deduplicate():
    pairs = sp.permutation_decompositions(sp.AdjMatrix(((0, 2), (2, 0))))
    assert len(pairs) == 1
    p1, p2 = pairs[0]
    assert p1 == p2 == ((0, 1), (1, 0))


def test_two_component_link_has_two_decompositions():
    pairs = sp.permutation_decompositions(matrix_of(fam.CYCLIC_TORUS, (4,)))
    assert len(pairs) == 2


def test_decomposition_counts(member_diagrams):
    for spec, d in member_diagrams:
        m = sp.adjacency(d)
        dec = sp.trace_strands(m)
        pairs = sp.permutation_decompositions(m)
        n = m.n
        for p1, p2 in pairs:
            total = tuple(tuple(p1[i][j] + p2[i][j] for j in range(n))
                          for i in range(n))
            assert total == m.rows, str(spec)
        if dec.count == 1:
            assert len(pairs) == 1, str(spec)
        else:
            classes_distinct = all(
                class_matrix(n, dec.edges, even)
                != class_matrix(n, dec.edges, odd)
                for even, odd in dec.permutation_split)
            if classes_distinct:
                assert len(pairs) == 2 ** (dec.count - 1), str(spec)
            else:
                assert len(pairs) <= 2 ** (dec.count - 1), str(spec)


# ---------------------------------------------------------------------------
# Eigen facts
# ---------------------------------------------------------------------------

def test_all_ones_check():
    assert all_ones_check(matrix_of(fam.CYCLIC_TORUS, (3,)))
    assert all_ones_check(sp.AdjMatrix(((0, 2), (2, 0))))
    assert not all_ones_check(sp.AdjMatrix(((1, 0), (0, 1))))


def test_closed_path_counts():
    trefoil = matrix_of(fam.CYCLIC_TORUS, (3,))
    assert sp.closed_path_count(trefoil, 3) == 6
    assert sp.closed_path_count(trefoil, 1) == 0
    assert sp.closed_path_count(sp.AdjMatrix(((2,),)), 5) == 32
    with pytest.raises(ValueError):
        sp.closed_path_count(trefoil, 0)


def test_two_paths_count_bigons(member_diagrams):
    from altknot.diagram import faces
    for spec, d in member_diagrams:
        if d.loop_count():
            continue
        _, census = faces(d)
        m = sp.adjacency(d)
        assert sp.closed_path_count(m, 2) == 2 * census.counts.get(2, 0), \
            str(spec)


WIDTH_EDGE_SCALARS = (1, 2, 3, 2 ** 5 - 1, 2 ** 5, 2 ** 5 + 1, 2 ** 17,
                      2 ** 17 + 1)


@pytest.mark.parametrize("n", range(1, 10))
def test_power_traces_at_the_width_edge(n):
    # every entry c: each row sum, the lemma's c, is n*|c|, and the trace
    # of every power is (n*c)^k; on the diagonal every slot holds
    # |c|^k, the largest entry the width allows, so the n diagonal digits
    # read at once sum to n times that.  Both branches: no negative entry
    # (unbiased digits) and a negative entry (biased ones).  Up to c = 33,
    # the nonnegative ones also as layers that repeat each column c times,
    # as `adjacency` records them, where the kernel takes c from the count
    for c in WIDTH_EDGE_SCALARS:
        for sign in (1, -1):
            full = [[sign * c] * n for _ in range(n)]
            one_negative = [[c] * n for _ in range(n)]
            one_negative[n - 1][0] = -c
            diagonal = [[sign * c * (i == j) for j in range(n)]
                        for i in range(n)]
            repeat = sign == 1 and c <= 33
            cases = [(full, repeat and [[*range(n)] * c] * n),
                     (one_negative, None),
                     (diagonal, repeat and [[i] * c for i in range(n)])]
            for rows, supports in cases:
                ref = reference_path_counts(sp.AdjMatrix(rows), 2 * n)
                for capacity in (1, n, 2 * n):
                    assert (pl._power_traces(capacity, *pl._plan(rows))
                            == ref[:capacity]), (rows, capacity)
                    if supports:
                        layers = pl._layers(supports, n)
                        assert (pl._power_traces(capacity, layers)
                                == ref[:capacity]), (supports, capacity)


@pytest.mark.parametrize("source", ["cyclic:V=1", "twistchain:V=1",
                                    "[[2]]", "[[1]]", "[[0]]", "[[-3]]"])
def test_power_kernel_on_one_by_one_matrices(source):
    # each layer's getter also gathers the padding slot n, so at n = 1 it
    # gathers two items, never a bare one: both members' two layers, and
    # one layer with padding in the parsed ones (2 through an `extra`, 0
    # with no support, -3 with the bias)
    if source.startswith("["):
        m = sp.parse_matrix(source)
        assert not m._layers
    else:
        m = sp.adjacency(fam.generate(fam.parse_spec_string(source)))
        assert m._layers and m.rows == ((2,),)
    assert charpoly(m) == charpoly_cofactor(m)
    ref = reference_path_counts(m, 5)
    assert [sp.closed_path_count(m, k) for k in range(1, 6)] == ref
    assert rows_path_traces(m, 5) == ref


def test_closed_path_count_interleaved_matrices():
    a = matrix_of(fam.CYCLIC_TORUS, (7,))
    b = matrix_of(fam.K_RIBBON_CYCLIC, (3, 2))
    ref_a, ref_b = reference_path_counts(a, 7), reference_path_counts(b, 7)
    for k in range(1, 8):
        assert sp.closed_path_count(a, k) == ref_a[k - 1], k
        assert sp.closed_path_count(b, k) == ref_b[k - 1], k


def test_closed_path_count_descending_repeated_and_beyond_v():
    m = matrix_of(fam.THREE_RIBBON_G, (2, 2, 1))
    ref = reference_path_counts(m, 3 * m.n)
    for k in range(m.n, 0, -1):  # descending: the first call builds M^V
        assert sp.closed_path_count(m, k) == ref[k - 1], k
    for k in (4, 4, 1, 1, 2 * m.n, 2 * m.n, m.n + 1, 3 * m.n):
        assert sp.closed_path_count(m, k) == ref[k - 1], k
    # an equal matrix built separately shares the stored sweep
    again = sp.AdjMatrix(tuple(list(row) for row in m.rows))
    assert sp.closed_path_count(again, 3 * m.n - 1) == ref[3 * m.n - 2]


def test_closed_path_count_reuses_the_kernel():
    """A sweep k = 1..V, a repeat, k past V and an equal matrix built from
    rows give trace(M^k), and the power sums of `charpoly` are the same
    counts."""
    m = sp.adjacency(fam.generate(fam.parse_spec_string("twistknot:V=24")))
    v = m.n
    ref = reference_path_counts(m, 2 * v)
    assert [sp.closed_path_count(m, k) for k in range(1, v + 1)] == ref[:v]
    assert sp.closed_path_count(m, v + 1) == ref[v]
    assert sp.closed_path_count(m, v + 1) == ref[v]
    again = sp.AdjMatrix([list(row) for row in m.rows])
    assert sp.closed_path_count(again, 2 * v) == ref[2 * v - 1]
    assert [sp.closed_path_count(again, k) for k in range(v, 0, -1)] == ref[
        v - 1::-1]
    for matrix in (m, again):
        assert pl.power_sums_from_charpoly(charpoly(matrix), 2 * v) == ref


def watch_kernel(monkeypatch, runs, entry=1):
    """Append `entry` to `runs` at each `_power_traces` run from now on, in
    every module that holds the kernel by name."""
    kernel = pl._power_traces
    for module in (pl, sp):
        if getattr(module, "_power_traces", None) is kernel:
            monkeypatch.setattr(module, "_power_traces", lambda *args: (
                runs.append(entry) or kernel(*args)))
    return runs


def test_charpoly_and_a_path_sweep_run_the_kernel_once(monkeypatch):
    # every `sweep(8)` member, each matrix built afresh; the counts are
    # checked against dense powers where V <= 16 (529 of the 726 distinct
    # matrices) and against a kernel run on the raw rows, which bypasses
    # the slot, above
    runs = watch_kernel(monkeypatch, [])
    seen, members = set(), 0
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        m = sp.adjacency(fam.generate(s))
        runs.clear()
        charpoly(m)
        counts = [sp.closed_path_count(m, k) for k in range(1, m.n + 1)]
        assert len(runs) == 1, str(s)
        members += 1
        if m.rows not in seen:
            seen.add(m.rows)
            assert counts == (reference_path_counts(m, m.n) if m.n <= 16
                              else rows_path_traces(m, m.n)), str(s)
    assert (members, len(seen)) == (852, 726)


def test_charpoly_and_path_counts_interleave_exactly(monkeypatch):
    # A, B, A across the two functions, on matrices of different sizes:
    # each switch of matrix runs the kernel again, each return to the
    # matrix just read does not
    a = matrix_of(fam.CYCLIC_TORUS, (7,))
    b = matrix_of(fam.K_RIBBON_CYCLIC, (3, 2))
    assert a.n != b.n
    refs = {m.n: (charpoly_cofactor(m), reference_path_counts(m, m.n))
            for m in (a, b)}
    runs = watch_kernel(monkeypatch, [])
    for first, second in ((a, b), (b, a)):
        for m, other in ((first, second), (second, first), (first, second)):
            runs.clear()
            assert charpoly(m) == refs[m.n][0]
            assert [sp.closed_path_count(m, k)
                    for k in range(1, m.n + 1)] == refs[m.n][1]
            assert len(runs) == 1
            for k in (1, m.n):
                assert sp.closed_path_count(m, k) == refs[m.n][1][k - 1]
                assert charpoly(other) == refs[other.n][0]
                assert charpoly(m) == refs[m.n][0]


def test_a_raw_matrix_mutated_between_calls_gives_its_new_polynomial():
    rows = [[0, 2], [2, 0]]
    assert charpoly(rows) == pl.IntPoly((-4, 0, 1))
    rows[0][0], rows[0][1] = 1, 1
    rows[1][0], rows[1][1] = 1, 1
    assert charpoly(rows) == pl.IntPoly((0, -2, 1))
    rows[1][0] = 0
    assert charpoly(rows) == pl.IntPoly((1, -2, 1))
    assert charpoly(rows) == charpoly_cofactor(rows)


# ---------------------------------------------------------------------------
# The kernel on `adjacency`'s layers against the rows path and dense powers
# ---------------------------------------------------------------------------

def rows_path_traces(m, capacity):
    return pl._power_traces(capacity, *pl._plan(m.rows))


def assert_layers_agree(m, dense=True):
    """For capacities 1, V and 3V, the traces from the row layers
    `adjacency` recorded equal those of the rows path, and with `dense`
    those of dense powers too."""
    ref = reference_path_counts(m, 3 * m.n) if dense else None
    for capacity in (1, m.n, 3 * m.n):
        want = rows_path_traces(m, capacity)
        assert ref is None or want == ref[:capacity], m.rows
        assert pl._power_traces(capacity, m._layers) == want, m.rows


def test_adjacency_layers_agree_with_the_rows_path_on_sweep():
    # 726 distinct matrices, V = 1..64; dense powers up to 3V are checked
    # where V <= 10, which is 181 of them
    seen = set()
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        m = sp.adjacency(fam.generate(s))
        if m.rows not in seen:
            seen.add(m.rows)
            assert_layers_agree(m, dense=m.n <= 10)
    assert len(seen) == 726


@pytest.mark.parametrize("text, rows", [
    ("cyclic:V=1", ((2,),)),
    ("cyclic:V=2", ((0, 2), (2, 0))),
    ("hopftwist:V=5", None),
    ("hopftwist:V=9", None),
])
def test_adjacency_layers_of_two_entries_and_loops(text, rows):
    m = sp.adjacency(fam.generate(fam.parse_spec_string(text)))
    assert rows is None or m.rows == rows
    assert any(2 in row for row in m.rows) or any(
        m.rows[i][i] for i in range(m.n))
    assert_layers_agree(m)


def test_adjacency_layers_on_random_surgery():
    rng = random.Random(26)
    for _ in range(40):
        d = rng.choice(SURGERY_SEEDS)
        for _ in range(6):
            step = (rng.choice(("expand", "compose", "contract", "eliminate")),
                    rng.randrange(1 << 16), rng.randrange(1 << 16),
                    rng.randrange(3), rng.choice(sg.LANES))
            try:
                d = surgery_step(d, *step) or d
            except sg.SurgeryError:
                continue  # a move that does not apply here
        assert_layers_agree(sp.adjacency(d))


@pytest.mark.parametrize("field, value", [
    ("vertex_count", "3"), ("vertex_count", None), ("vertex_count", 2.0),
    ("vertex_count", -2), ("darts", None)])
def test_adjacency_and_dot_refuse_what_faces_refuses(field, value):
    # one read path, through `_flat`'s gate: its DiagramError, not TypeError
    bad = dataclasses.replace(fam.generate(fam.parse_spec_string(
        "cyclic:V=3")), **{field: value})
    with pytest.raises(dg.DiagramError) as caught:
        dg.faces(bad)
    for reader in (sp.adjacency, dg.to_dot):
        with pytest.raises(dg.DiagramError) as refused:
            reader(bad)
        assert str(refused.value) == str(caught.value)


def test_adjacency_of_an_unchecked_copy_on_sweep():
    # a copy carries nothing and is read through the gate: the same
    # matrix and layers as the carried lists give
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        d = fam.generate(s)
        m, cold = sp.adjacency(d), sp.adjacency(dataclasses.replace(d))
        assert (cold.rows, cold._layers) == (m.rows, m._layers), str(s)


def test_adjacency_layers_of_a_vertex_with_three_out_darts():
    # flipping one edge of the trefoil leaves its head vertex with three
    # out darts and its tail vertex with one: rows sum to 3 and 1, and the
    # row layers are padded
    d = fam.generate(fam.parse_spec_string("cyclic:V=3"))
    tail = d.darts[0]
    assert tail.direction == "out"
    flipped = {tail.id: "in", tail.twin: "out"}
    darts = tuple(dataclasses.replace(x, direction=flipped.get(x.id,
                                                               x.direction))
                  for x in d.darts)
    m = sp.adjacency(dataclasses.replace(d, darts=darts))
    assert sorted(map(sum, m.rows)) == [1, 2, 3]
    assert len(m._layers) == 3
    assert_layers_agree(m)
    assert charpoly(m) == charpoly(sp.AdjMatrix(m.rows))


def test_adjacency_reads_a_vertex_from_the_rings_not_the_dart():
    # dart 0's or dart 1's vertex field -1: adjacency reads each vertex
    # from the rings, as `_flat` gives it, so the matrix is the trefoil's
    d = fam.generate(fam.parse_spec_string("cyclic:V=3"))
    for i in (0, 1):  # an out dart and an in dart
        darts = list(d.darts)
        darts[i] = dataclasses.replace(darts[i], vertex=-1)
        m = sp.adjacency(dataclasses.replace(d, darts=tuple(darts)))
        assert m.rows == sp.adjacency(d).rows
        assert_layers_agree(m)
        assert charpoly(m) == charpoly(sp.AdjMatrix(m.rows))


def assert_strands_from_layers_as_from_rows(m):
    """`problems()` and `trace_strands` read from m's layers give what
    they give on an unlayered copy, which is scanned: the same texts, and
    the same decomposition or ValueError message."""
    plain = sp.AdjMatrix(m.rows)
    assert m._layers and not plain._layers
    assert m.problems() == plain.problems()
    results = []
    for matrix in (m, plain):
        try:
            results.append(sp.trace_strands(matrix))
        except ValueError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    return results[0]


def test_strands_from_layers_on_sweep_and_random_surgery():
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        dec = assert_strands_from_layers_as_from_rows(
            sp.adjacency(fam.generate(s)))
        assert isinstance(dec, sp.StrandDecomposition), str(s)
    rng = random.Random(27)
    for _ in range(40):
        d = rng.choice(SURGERY_SEEDS)
        for _ in range(6):
            step = (rng.choice(("expand", "compose", "contract", "eliminate")),
                    rng.randrange(1 << 16), rng.randrange(1 << 16),
                    rng.randrange(3), rng.choice(sg.LANES))
            try:
                d = surgery_step(d, *step) or d
            except sg.SurgeryError:
                continue
            assert_strands_from_layers_as_from_rows(sp.adjacency(d))


def test_strands_from_layers_of_broken_maps_as_from_rows():
    # the three-out-darts trefoil and dart 0 or 1 with vertex field -1
    # (read from the rings): refused with the same texts, or walked the
    # same, as the scanned rows
    d = fam.generate(fam.parse_spec_string("cyclic:V=3"))
    flipped = {0: "in", d.darts[0].twin: "out"}
    broken = [tuple(dataclasses.replace(x, direction=flipped.get(
        x.id, x.direction)) for x in d.darts)]
    for i in (0, 1):
        darts = list(d.darts)
        darts[i] = dataclasses.replace(darts[i], vertex=-1)
        broken.append(tuple(darts))
    found = [assert_strands_from_layers_as_from_rows(
        sp.adjacency(dataclasses.replace(d, darts=darts)))
        for darts in broken]
    assert found[0].startswith("not an adjacency matrix: row ")


def test_a_layer_with_one_head_swapped_is_caught():
    # the cross-check above must see a wrong layer: row 0's first head j
    # swaps with row j's, which then heads to itself, a loop the
    # loop-free map does not have
    m = sp.adjacency(fam.generate(fam.parse_spec_string("p:k=3,l=4,m=2")))
    ref = reference_path_counts(m, m.n)
    assert ref[0] == 0
    bad = [layer[:] for layer in m._layers]
    j = bad[0][0]
    bad[0][0], bad[0][j] = bad[0][j], bad[0][0]
    assert pl._power_traces(m.n, bad) != ref
    assert pl._power_traces(m.n, m._layers) == ref


def test_closed_path_count_threads_on_different_matrices():
    specs = [(fam.CYCLIC_TORUS, (9,)), (fam.TWO_RIBBON, (4, 3)),
             (fam.CLOSED_CHAIN, (4,)), (fam.TWIST_KNOTS, (8,))]
    matrices = [matrix_of(family, params) for family, params in specs]
    refs = [(reference_charpoly(m), reference_path_counts(m, m.n + 2))
            for m in matrices]
    errors = []

    def sweep(m, ref):
        poly, counts = ref
        for i in range(30):
            if i % 2 and charpoly(m) != poly:
                errors.append((m.n, 0))
            for k in range(1, m.n + 3):
                if sp.closed_path_count(m, k) != counts[k - 1]:
                    errors.append((m.n, k))
                if k == m.n and charpoly(m) != poly:
                    errors.append((m.n, 0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=sweep, args=pair)
                   for pair in zip(matrices, refs)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


def test_path_counts_and_strands_of_large_members_are_golden(monkeypatch):
    """sha256 of repr([closed_path_count(m, k) for k = 1..2V]) and of
    repr(trace_strands(m)), each fed member by member in this order."""
    monkeypatch.setenv("ALTKNOT_MAX_V", "64")
    paths, strands = hashlib.sha256(), hashlib.sha256()
    for text in ("twistknot:V=32", "lchain:k=6,n=20", "kribbon:k=8,m=8",
                 "cyclic:V=64", "hopftwist:V=24"):
        m = sp.adjacency(fam.generate(fam.parse_spec_string(text)))
        counts = [sp.closed_path_count(m, k) for k in range(1, 2 * m.n + 1)]
        paths.update(repr(counts).encode())
        strands.update(repr(sp.trace_strands(m)).encode())
    assert paths.hexdigest() == ("fd2f79f0e1387b991ef001191ce0a3d1"
                                 "90252149702a78a34edf962c334478db")
    assert strands.hexdigest() == ("173d7fd3682901a045701253668a8add"
                                   "981ee25012652be20fd054b4ef5a5b75")


def test_closed_path_count_refuses_non_int_input():
    trefoil = matrix_of(fam.CYCLIC_TORUS, (3,))
    assert sp.closed_path_count(trefoil, 3) == 6
    for k in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match="integer >= 1"):
            sp.closed_path_count(trefoil, k)
    # equal to the swept matrix entry by entry, so only a type check sees it
    for bad in (1.0, True):
        rows = [list(row) for row in trefoil.rows]
        rows[0][1] = bad
        with pytest.raises(ValueError, match="must be integers"):
            sp.closed_path_count(sp.AdjMatrix(rows), 3)
    for rows, message in [((), "empty"), (((1, 1), (2,)), "not square"),
                          (((0, 1, 1), (1, 0, 1)), "not square")]:
        with pytest.raises(ValueError, match=message):
            sp.closed_path_count(sp.AdjMatrix(rows), 1)


def random_integer_matrix(rng, n):
    """Entries in -3..3, with a zeroed row and a zeroed column now and then."""
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.3:
        rows[rng.randrange(n)] = [0] * n
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return sp.AdjMatrix(rows)


def test_closed_path_count_matches_dense_powers_on_random_matrices():
    rng = random.Random(5)
    for _ in range(60):
        matrices = [random_integer_matrix(rng, rng.randint(1, 8))
                    for _ in range(2)]
        queries = [(index, k) for index, m in enumerate(matrices)
                   for k in range(1, 3 * m.n + 1)]
        queries += rng.sample(queries, len(queries) // 2)  # repeats
        rng.shuffle(queries)  # interleaved, capacity restarts on the way
        refs = [reference_path_counts(m, 3 * m.n) for m in matrices]
        for index, k in queries:
            assert (sp.closed_path_count(matrices[index], k)
                    == refs[index][k - 1]), (matrices[index].rows, k)


def test_charpoly_and_closed_path_counts_agree_on_the_transpose():
    """Row packing of M^T is column packing of M, so `charpoly` and
    `closed_path_count` must give the same answers on M and M^T although
    their slot widths differ: one dense row of 3s makes ||M||_inf = 3n
    while ||M||_1 <= n + 2."""
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 8)
        rows = [[rng.choice((-3, 3)) for _ in range(n)]]
        rows += [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n - 1)]
        rng.shuffle(rows)
        m = sp.AdjMatrix(rows)
        t = sp.AdjMatrix(list(zip(*rows)))
        assert max(sum(map(abs, r)) for r in m.rows) > max(
            sum(map(abs, r)) for r in t.rows), rows
        assert charpoly(m) == charpoly(t), rows
        for k in range(1, 2 * n + 1):
            assert (sp.closed_path_count(m, k)
                    == sp.closed_path_count(t, k)), (rows, k)


def reference_decompositions(m):
    """The brute-force enumeration: every flip mask, dense sums, and a set
    that drops repeated pairs."""
    dec = sp.trace_strands(m)
    n = m.n
    class_pairs = []
    for class_a, class_b in dec.permutation_split:
        first = class_a if min(class_a) < min(class_b) else class_b
        second = class_b if first is class_a else class_a
        class_pairs.append((class_matrix(n, dec.edges, first),
                            class_matrix(n, dec.edges, second)))
    results, seen = [], set()
    for mask in range(2 ** max(len(class_pairs) - 1, 0)):
        p1 = [[0] * n for _ in range(n)]
        p2 = [[0] * n for _ in range(n)]
        for c, (first, second) in enumerate(class_pairs):
            flip = c > 0 and (mask >> (c - 1)) & 1
            a, b = (second, first) if flip else (first, second)
            for i in range(n):
                for j in range(n):
                    p1[i][j] += a[i][j]
                    p2[i][j] += b[i][j]
        pair = (tuple(tuple(r) for r in p1), tuple(tuple(r) for r in p2))
        if pair not in seen:
            seen.add(pair)
            results.append(pair)
    return results


def brute_force_corpus():
    """The criteria 2-6 members, the waist rings and the Hopf matrix."""
    matrices = [sp.adjacency(fam.generate(spec)) for spec in _sweep_specs()]
    matrices += [sp.adjacency(waist_ring_diagram(v, growth))
                 for v in range(5, 13) for growth in WAIST_RING_GROWTHS]
    matrices.append(sp.AdjMatrix(((0, 2), (2, 0))))
    return matrices


def test_decompositions_match_brute_force():
    strands = set()
    for m in brute_force_corpus():
        assert sp.permutation_decompositions(m) == reference_decompositions(m), \
            m.to_text()
        strands.add(sp.trace_strands(m).count)
    assert max(strands) >= 8  # kribbon and lchain members


def test_streamed_decompositions_are_the_list(monkeypatch):
    """On the brute-force corpus and every `sweep(8)` matrix, the count
    `decompositions` gives is the length of `permutation_decompositions`,
    and the pairs it streams are that list, in order."""
    monkeypatch.setenv("ALTKNOT_MAX_V", "64")
    sweep = [s for f in fam.FAMILIES for s in f.sweep(8)]
    # two strands, one a 2-entry circle whose classes coincide: one pair
    hopf24 = fam.parse_spec_string("hopftwist:V=24")
    assert hopf24 in _sweep_specs()
    dec = sp.trace_strands(sp.adjacency(fam.generate(hopf24)))
    assert (dec.count, sp.decompositions(dec)[0]) == (2, 1)
    counts = set()
    for m in brute_force_corpus() + [sp.adjacency(fam.generate(s))
                                     for s in sweep]:
        pairs = sp.permutation_decompositions(m)
        count, stream = sp.decompositions(sp.trace_strands(m))
        assert (count, list(stream)) == (len(pairs), pairs), m.to_text()
        counts.add(count)
    assert max(counts) >= 128


def block_diagonal(*blocks):
    n = sum(b.n for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        for row in b.rows:
            rows.append((0,) * offset + row + (0,) * (n - offset - b.n))
        offset += b.n
    return sp.AdjMatrix(tuple(rows))


def test_decompositions_skip_coincident_strands_in_order():
    # 2-entry circles first, between and after strands with distinct classes
    hopf = sp.AdjMatrix(((0, 2), (2, 0)))
    link = matrix_of(fam.CYCLIC_TORUS, (4,))
    m = block_diagonal(hopf, link, hopf, matrix_of(fam.CYCLIC_TORUS, (3,)),
                       hopf)
    pairs = sp.permutation_decompositions(m)
    assert len(pairs) == 8  # three strands with distinct classes flip
    assert pairs == reference_decompositions(m)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_matrix_text():
    m = sp.parse_matrix("0 1 1\n1 0 1\n1 1 0\n")
    assert m.rows == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_parse_matrix_json():
    m = sp.parse_matrix("[[0, 2], [2, 0]]")
    assert m.rows == ((0, 2), (2, 0))


def test_deeply_nested_json_matrix_is_a_value_error():
    # json.loads raises RecursionError on nesting past the recursion limit
    with pytest.raises(ValueError, match="not valid JSON"):
        sp.parse_matrix("[" * 100_000)


@pytest.mark.parametrize("token", ["0_2", "\u0662", "\uff12", "2.0",
                                   "+-2", "0x2", "2e0"])
def test_matrix_text_tokens_are_ascii_decimal_integers(token):
    # int() reads the first three as 2, so such a file once gave x^2 - 4
    with pytest.raises(ValueError, match="is not a decimal integer"):
        sp.parse_matrix(f"0 {token}\n{token} 0")


def test_matrix_text_tokens_may_be_signed():
    assert sp.parse_matrix("+0 +2\n2 -0").rows == ((0, 2), (2, 0))


def test_adjacency_matrices_skip_the_shape_scan(monkeypatch):
    # `adjacency` builds a nonempty square int matrix; every other one,
    # equal by value, parsed from its text or replaced, is scanned once,
    # before the kernel first runs on it, and not again by `charpoly` or
    # `closed_path_count` while it holds the trace slot; `problems` and
    # `trace_strands` scan it on every call
    events = []
    scan = pl._shape_problem
    monkeypatch.setattr(pl, "_shape_problem",
                        lambda rows: events.append(rows) or scan(rows))
    monkeypatch.setattr(sp, "_shape_problem", pl._shape_problem)
    watch_kernel(monkeypatch, events, "kernel")
    m = sp.adjacency(fam.generate(fam.parse_spec_string("p:k=3,l=4,m=2")))
    traces = (charpoly, lambda x: sp.closed_path_count(x, 2))
    scans = (sp.AdjMatrix.problems, sp.trace_strands)
    for call in traces + scans:
        call(m)
    assert events == ["kernel"]
    for order in (traces, traces[::-1]):
        for other in (sp.AdjMatrix(m.rows), sp.parse_matrix(m.to_text()),
                      dataclasses.replace(m)):
            assert other == m
            events.clear()
            for call in order:
                call(other)
            assert events == [other.rows, "kernel"], order
            for call in scans:
                events.clear()
                call(other)
                assert events == [other.rows], call
            events.clear()
            for call in order:
                call(other)
            assert events == [], order


@pytest.mark.parametrize("rows,problem", [
    ([[0, True], [1, 0]], "matrix entries must be integers"),
    ([[0, 2.0], [2, 0]], "matrix entries must be integers"),
    ([[0, 2], [2]], "matrix is not square"),
])
def test_only_adjacency_matrices_skip_the_shape_scan(rows, problem):
    m = sp.adjacency(fam.generate(fam.parse_spec_string("cyclic:V=2")))
    for bad in (sp.AdjMatrix(rows), dataclasses.replace(m, rows=rows)):
        assert bad.problems() == [problem]
        for call in (charpoly, lambda x: sp.closed_path_count(x, 1),
                     sp.trace_strands):
            with pytest.raises(ValueError, match=f"{problem}$"):
                call(bad)
    with pytest.raises(ValueError, match=problem):
        charpoly(rows)


def test_matrix_text_round_trip():
    m = matrix_of(fam.CYCLIC_TORUS, (5,))
    assert sp.parse_matrix(m.to_text()) == m
