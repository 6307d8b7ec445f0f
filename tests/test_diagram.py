import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (CCW, CW, face_orientations, mirror,
                     reference_canonical_code)

from altknot import diagram as dg
from altknot import families as fam
from altknot import spectra as sp


def trefoil():
    return fam.generate(fam.FamilySpec(fam.CYCLIC_TORUS, (3,)))


def hopf():
    return fam.generate(fam.FamilySpec(fam.CYCLIC_TORUS, (2,)))


def one_vertex_twist():
    return fam.generate(fam.FamilySpec(fam.CYCLIC_TORUS, (1,)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_trefoil_is_valid():
    assert dg.validate(trefoil()) == []


def test_generators_all_valid(member_diagrams):
    for spec, d in member_diagrams:
        assert dg.validate(d) == [], str(spec)


def test_in_out_balance_violation_reported():
    d = trefoil()
    # flip one dart's direction: vertex gains a third outgoing dart
    broken = list(d.darts)
    victim = next(x for x in broken if x.direction == dg.IN)
    broken[victim.id] = dg.Dart(victim.id, victim.vertex, victim.twin, dg.OUT)
    bad = dg.Diagram(d.kind, d.vertex_count, tuple(broken), d.rotation)
    report = dg.validate(bad)
    assert any("in/out balance" in p or "twin directions" in p for p in report)


def test_disconnected_union_reported():
    h = hopf()
    n = h.vertex_count
    darts = list(h.darts)
    for dart in h.darts:
        darts.append(dg.Dart(dart.id + len(h.darts), dart.vertex + n,
                             dart.twin + len(h.darts), dart.direction))
    rotation = list(h.rotation)
    rotation += [tuple(x + len(h.darts) for x in ring) for ring in h.rotation]
    bad = dg.Diagram("link", 2 * n, tuple(darts), tuple(rotation))
    assert any("connectivity" in p for p in dg.validate(bad))


def test_broken_twin_reported():
    d = trefoil()
    darts = list(d.darts)
    darts[0] = dg.Dart(0, darts[0].vertex, 0, darts[0].direction)
    bad = dg.Diagram(d.kind, d.vertex_count, tuple(darts), d.rotation)
    assert any("twin involution" in p for p in dg.validate(bad))


def test_kind_mismatch_reported():
    d = one_vertex_twist()
    bad = dg.Diagram("knot", d.vertex_count, d.darts, d.rotation)
    assert any("kind" in p for p in dg.validate(bad))


def test_vertexless_rejected():
    bad = dg.Diagram("knot", 0, (), ())
    assert any("V must be >= 1" in p for p in dg.validate(bad))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

def test_trefoil_faces():
    _, census = dg.faces(trefoil())
    assert census.counts == {2: 3, 3: 2}
    assert census.largest == 3
    assert sum(census.counts.values()) == 5


def test_hopf_faces():
    _, census = dg.faces(hopf())
    assert census.counts == {2: 4}


def test_one_vertex_twist_faces():
    face_list, census = dg.faces(one_vertex_twist())
    assert census.counts == {1: 2, 2: 1}
    assert sum(j * c for j, c in census.counts.items()) == 4
    assert len(face_list) == 3


def test_every_dart_in_exactly_one_face(member_diagrams):
    for spec, d in member_diagrams:
        face_list, census = dg.faces(d)
        seen = [x for trace in face_list for x in trace]
        assert sorted(seen) == list(range(len(d.darts))), str(spec)
        assert sum(census.counts.values()) == d.vertex_count + 2, str(spec)
        assert (sum(j * c for j, c in census.counts.items())
                == 4 * d.vertex_count), str(spec)


def test_face_identity():
    assert dg.check_face_identity(dg.FaceCensus({2: 3, 3: 2}, 3))
    assert dg.check_face_identity(dg.FaceCensus({2: 4}, 2))
    assert not dg.check_face_identity(dg.FaceCensus({2: 1, 3: 1}, 3))
    with pytest.raises(ValueError):
        dg.check_face_identity(dg.FaceCensus({1: 2, 2: 1}, 2))


def test_face_identity_on_loop_free_members(member_diagrams):
    for spec, d in member_diagrams:
        _, census = dg.faces(d)
        if not census.counts.get(1, 0):
            assert dg.check_face_identity(census), str(spec)


# ---------------------------------------------------------------------------
# Orientations / two-coloring
# ---------------------------------------------------------------------------

def test_trefoil_orientations_two_colored():
    d = trefoil()
    colors = face_orientations(d)
    assert len(colors) == 5
    assert set(colors.values()) == {CW, CCW}


def test_adjacent_faces_get_opposite_colors(member_diagrams):
    for spec, d in member_diagrams:
        colors = face_orientations(d)
        owner = {x: i for i, t in enumerate(dg.faces(d)[0]) for x in t}
        for dart in d.darts:
            assert colors[owner[dart.id]] != colors[owner[dart.twin]], str(spec)


def test_incoherent_face_raises():
    d = trefoil()
    darts = list(d.darts)
    a = darts[0]
    b = darts[a.twin]
    darts[a.id] = dg.Dart(a.id, a.vertex, a.twin, dg.IN)
    darts[b.id] = dg.Dart(b.id, b.vertex, b.twin, dg.OUT)
    bad = dg.Diagram(d.kind, d.vertex_count, tuple(darts), d.rotation)
    with pytest.raises(dg.DiagramError, match="orientation rule broken"):
        face_orientations(bad)


# ---------------------------------------------------------------------------
# Components and kind
# ---------------------------------------------------------------------------

def test_component_count_matches_matrix_walk(member_diagrams):
    for spec, d in member_diagrams:
        assert (dg.component_count(d)
                == sp.trace_strands(sp.adjacency(d)).count), str(spec)


def test_derive_kind(member_diagrams):
    # a cold check compares the stated kind with the structure's
    for spec, d in member_diagrams:
        assert dg.validate(dataclasses.replace(d)) == [], str(spec)


def test_loops_and_edges_read_each_vertex_from_the_rings():
    # dart 0's vertex set to its twin's: the rings still say edge 0 joins
    # two vertices, and loop_count once read a loop from the Dart field
    d = trefoil()
    darts = list(d.darts)
    darts[0] = dataclasses.replace(darts[0], vertex=darts[1].vertex)
    bad = dataclasses.replace(d, darts=tuple(darts))
    assert bad.loop_count() == d.loop_count() == 0
    assert dg.component_count(bad) == 1  # no loop and one strand: a knot
    assert bad.edges() == d.edges()
    assert dg.to_dot(bad) == dg.to_dot(d)
    assert sp.adjacency(bad) == sp.adjacency(d)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_relabeled_diagram_is_isomorphic():
    d = trefoil()
    # rotate vertex labels: 0->1->2->0, dart ids shuffled accordingly
    perm = {0: 1, 1: 2, 2: 0}
    order = sorted(range(len(d.darts)),
                   key=lambda i: (perm[d.darts[i].vertex], i))
    new_id = {old: new for new, old in enumerate(order)}
    darts = [None] * len(d.darts)
    for old in order:
        dart = d.darts[old]
        darts[new_id[old]] = dg.Dart(new_id[old], perm[dart.vertex],
                                     new_id[dart.twin], dart.direction)
    rotation = [None] * d.vertex_count
    for v in range(d.vertex_count):
        rotation[perm[v]] = tuple(new_id[x] for x in d.rotation[v])
    other = dg.Diagram(d.kind, d.vertex_count, tuple(darts), tuple(rotation))
    assert dg.validate(other) == []
    assert dg.canonical_code(d) == dg.canonical_code(other)
    assert other != d  # labels differ, only the map structure agrees


def test_mirror_seeds_are_distinct():
    # the one-vertex twist comes in two mirror embeddings; they share all
    # invariants but canonical codes keep them apart
    a = fam.generate(fam.FamilySpec(fam.CYCLIC_TORUS, (1,)))
    b = fam.generate(fam.FamilySpec(fam.TWIST_CHAIN, (1,)))
    assert sp.adjacency(a) == sp.adjacency(b)
    assert dg.faces(a)[1] == dg.faces(b)[1]
    assert dg.canonical_code(a) != dg.canonical_code(b)


def test_different_members_have_different_codes():
    a = fam.generate(fam.FamilySpec(fam.CYCLIC_TORUS, (4,)))
    b = fam.generate(fam.FamilySpec(fam.TWO_RIBBON, (2, 2)))
    assert dg.canonical_code(a) != dg.canonical_code(b)


def relabel(d, rng):
    """The same oriented map with vertex and dart ids permuted and every
    ring started at a random dart."""
    n = len(d.darts)
    new_dart = rng.sample(range(n), n)
    new_vertex = rng.sample(range(d.vertex_count), d.vertex_count)
    darts = [None] * n
    for dart in d.darts:
        darts[new_dart[dart.id]] = dg.Dart(
            new_dart[dart.id], new_vertex[dart.vertex], new_dart[dart.twin],
            dart.direction)
    rotation = [None] * d.vertex_count
    for v, ring in enumerate(d.rotation):
        shift = rng.randrange(4)
        rotation[new_vertex[v]] = tuple(new_dart[x]
                                        for x in ring[shift:] + ring[:shift])
    return dg.Diagram(d.kind, d.vertex_count, tuple(darts), tuple(rotation))


def disjoint_union(*parts):
    """One map holding each part as a separate component, in order."""
    darts, rotation, vertices = [], [], 0
    for part in parts:
        off = len(darts)
        darts += [dg.Dart(x.id + off, x.vertex + vertices, x.twin + off,
                          x.direction) for x in part.darts]
        rotation += [tuple(x + off for x in ring) for ring in part.rotation]
        vertices += part.vertex_count
    return dg.Diagram("link", vertices, tuple(darts), tuple(rotation))


def spec_diagram(text):
    return fam.generate(fam.parse_spec_string(text))


def disconnected_maps():
    """Unions of equal and of different-sized components, in both orders,
    so the least code lies in the first, a middle or the last component."""
    three, two, one = trefoil(), hopf(), one_vertex_twist()
    return {
        "trefoil+trefoil": disjoint_union(three, three),
        "trefoil+mirror": disjoint_union(three, mirror(three)),
        "trefoil+hopf": disjoint_union(three, two),
        "hopf+trefoil": disjoint_union(two, three),
        "trefoil+loop+hopf": disjoint_union(three, one, two),
        "twistknot+loop+hopftwist": disjoint_union(
            spec_diagram("twistknot:V=5"), one,
            spec_diagram("hopftwist:V=3")),
    }


def test_canonical_code_matches_reference_on_sweep():
    rng = random.Random(20061)
    count = 0
    for family in fam.FAMILIES:
        for spec in family.sweep(8):
            d = fam.generate(spec)
            for x in (d, mirror(d)):
                expected = reference_canonical_code(x)
                assert dg.canonical_code(x) == expected, str(spec)
                assert dg.canonical_code(relabel(x, rng)) == expected, str(spec)
                count += 1
    assert count == 2 * 852


LOOPS_AND_UNIONS = {
    **{text: spec_diagram(text) for text in (
        "cyclic:V=1", "twistchain:V=1", "hopftwist:V=2", "hopftwist:V=7")},
    **disconnected_maps(),
}


@pytest.mark.parametrize("name", LOOPS_AND_UNIONS)
def test_canonical_code_matches_reference_on_loops_and_unions(name):
    d = LOOPS_AND_UNIONS[name]
    rng = random.Random(name)
    expected = reference_canonical_code(d)
    assert dg.canonical_code(d) == expected
    for _ in range(5):
        assert dg.canonical_code(relabel(d, rng)) == expected


RELABEL_CORPUS = [spec_diagram(text) for text in (
    "cyclic:V=1", "cyclic:V=6", "hopftwist:V=4", "twistknot:V=6",
    "f:j=3,k=2", "g:k=2,l=2,m=1", "chain:k=3", "lchain:k=1,n=2")]
RELABEL_CORPUS += disconnected_maps().values()


@settings(max_examples=80, deadline=None)
@given(index=st.integers(0, len(RELABEL_CORPUS) - 1),
       rng=st.randoms(use_true_random=False))
def test_canonical_code_stable_under_relabeling(index, rng):
    d = RELABEL_CORPUS[index]
    assert dg.canonical_code(relabel(d, rng)) == dg.canonical_code(d)


def test_canonical_code_of_dartless_map_raises():
    with pytest.raises(dg.DiagramError, match="no darts"):
        dg.canonical_code(dg.Diagram("knot", 0, (), ()))


# sha256 of repr(canonical_code(member)), for members too large for the
# brute-force reference; pinned before the orbit-pruned rewrite
CANONICAL_CODE_DIGESTS = {
    "cyclic:V=256":
        "11dc7d9e50897ab9814dcc3596b7b4f765a0b897c1bb8200eac6e1dc1b3b6c55",
    "twistknot:V=256":
        "2db65814d8d3e1e65b1bc991218201b48809aac1cd42f49b8885bbee93d6da17",
    "chain:k=32":
        "e0ef72b27ac4a2de31367031c743980089644840d42b642a74db6d58c4326575",
    "kribbon:k=8,m=8":
        "03172bee214e540f6f941c61bab4b7b3ffb4fa15b0fd814a8183cd440c123aa6",
    "g:k=40,l=30,m=20":
        "b21ae2748c5843be2a4eff516b1b92d58a37aecdf86fd1836385a6d3b1b6f48b",
    "lchain:k=0,n=64":
        "ebf1d7ff750be57c4ee2bcbac60f0216e0b100f58b91ce488f10eccb635d8283",
}


@pytest.mark.parametrize("text", CANONICAL_CODE_DIGESTS)
def test_canonical_code_golden_digests(text, monkeypatch):
    monkeypatch.setenv("ALTKNOT_MAX_V", "256")
    code = dg.canonical_code(spec_diagram(text))
    digest = hashlib.sha256(repr(code).encode()).hexdigest()
    assert digest == CANONICAL_CODE_DIGESTS[text]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_round_trip(member_diagrams):
    for spec, d in member_diagrams:
        again = dg.from_json(dg.to_json(d))
        assert again == d, str(spec)


def test_json_document_shape():
    doc = dg.to_json_dict(trefoil())
    assert doc["version"] == 1
    assert doc["kind"] == "knot"
    assert doc["vertex_count"] == 3
    assert len(doc["darts"]) == 12
    assert all(set(item) == {"id", "vertex", "twin", "dir"}
               for item in doc["darts"])
    assert all(len(ring) == 4 for ring in doc["rotation"])


@pytest.mark.parametrize("mangle", [
    lambda doc: doc.update(version=2),
    lambda doc: doc.pop("darts"),
    lambda doc: doc["darts"][0].update(dir="sideways"),
])
def test_malformed_documents_rejected(mangle):
    doc = dg.to_json_dict(trefoil())
    mangle(doc)
    with pytest.raises(dg.DiagramFormatError):
        dg.from_json_dict(doc)


def test_from_json_rejects_garbage():
    with pytest.raises(dg.DiagramFormatError):
        dg.from_json("not json at all {")
    with pytest.raises(dg.DiagramFormatError):
        dg.from_json(json.dumps([1, 2, 3]))


def deeply_nested(depth=100_000):
    """A list nested `depth` deep, built without recursion."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000])
def test_deeply_nested_json_is_a_format_error(text):
    # json.loads raises RecursionError on nesting past the recursion limit
    with pytest.raises(dg.DiagramFormatError, match="not valid JSON"):
        dg.from_json(text)


def test_deeply_nested_value_in_a_document_is_a_format_error():
    # parsed, but too deep for the repr that names the bad value
    doc = dg.to_json_dict(trefoil())
    doc["version"] = deeply_nested()
    with pytest.raises(dg.DiagramFormatError, match="malformed"):
        dg.from_json_dict(doc)


def test_dot_export():
    dot = dg.to_dot(trefoil())
    assert dot.startswith("digraph")
    assert dot.count("->") == 6
    loopy = dg.to_dot(one_vertex_twist())
    assert loopy.count("0 -> 0;") == 2


def test_mirror_involution_and_invariants(member_diagrams):
    for spec, d in member_diagrams:
        m = mirror(d)
        assert dg.validate(m) == [], str(spec)
        assert mirror(m) == d, str(spec)
        assert sp.adjacency(m) == sp.adjacency(d), str(spec)
        assert dg.faces(m)[1] == dg.faces(d)[1], str(spec)


def test_mirror_connects_the_two_one_vertex_twists():
    a = fam.generate(fam.FamilySpec(fam.CYCLIC_TORUS, (1,)))
    b = fam.generate(fam.FamilySpec(fam.TWIST_CHAIN, (1,)))
    assert dg.canonical_code(mirror(a)) == dg.canonical_code(b)


SYMMETRIC_MEMBERS = ("cyclic:V=24", "chain:k=8", "kribbon:k=4,m=4",
                     "lchain:k=0,n=16", "p:k=1,l=1,m=14")


@pytest.mark.parametrize("text", SYMMETRIC_MEMBERS)
def test_canonical_code_matches_reference_on_symmetric_members(text):
    # members past sweep(8) whose many automorphisms tie many roots
    rng = random.Random(text)
    d = spec_diagram(text)
    for x in (d, mirror(d)):
        expected = reference_canonical_code(x)
        assert dg.canonical_code(x) == expected
        for _ in range(3):
            assert dg.canonical_code(relabel(x, rng)) == expected


def first_entry_roots(d):
    """The darts whose first code entry is least: the roots that
    canonical_code runs (before orbit pruning)."""
    twin, succ, out, _ = dg._flat(d)
    first = [(1, 1 + (s != t), o) for s, t, o in zip(succ, twin, out)]
    return [r for r, entry in enumerate(first) if entry == min(first)]


SINGLE_ROOT_MEMBERS = ("hopftwist:V=9", "trefoiltwist:V=7",
                       "fourknottwist:V=8")


@pytest.mark.parametrize("text", SINGLE_ROOT_MEMBERS)
def test_canonical_code_matches_reference_from_one_root(text):
    # one loop, whose twin is its successor at one dart: the first-entry
    # filter keeps that dart alone, in the map, its mirror and relabelings
    rng = random.Random(text)
    d = spec_diagram(text)
    for x in (d, mirror(d)):
        expected = reference_canonical_code(x)
        for y in (x, *(relabel(x, rng) for _ in range(3))):
            assert len(first_entry_roots(y)) == 1
            assert dg.canonical_code(y) == expected


@pytest.mark.parametrize("text", ["hopftwist:V=24", "twistknot:V=24",
                                  "twistknot:V=64", "lchain:k=1,n=62"])
def test_canonical_code_runs_only_roots_of_least_first_entry(text,
                                                             monkeypatch):
    # one root of 96 on a map with one loop, the in darts on a loopless
    # map, fewer where orbit pruning skips some; run in face-size order,
    # the roots draw at most 4 entries per dart in all (48 and 64 per dart
    # on the last two in dart-id order)
    d = spec_diagram(text)
    n = len(d.darts)
    roots = first_entry_roots(d)
    assert len(roots) == (1 if d.kind == "twist" else n // 2)
    run, drawn = [], [0]
    bfs_code = dg._bfs_code

    def counted_bfs_code(root, *rest):
        run.append(root)
        for entry in bfs_code(root, *rest):
            drawn[0] += 1
            yield entry

    monkeypatch.setattr(dg, "_bfs_code", counted_bfs_code)
    assert dg.canonical_code(d) == reference_canonical_code(d)
    assert run and set(run) <= set(roots)
    assert drawn[0] <= 4 * n


def three_component_maps():
    """Unions of three isomorphic components, and of two with the mirror
    of the third placed first, between or last, so that full ties join
    darts across components."""
    three, six = trefoil(), spec_diagram("cyclic:V=6")
    flip = mirror(six)
    return {
        "trefoil x3": disjoint_union(three, three, three),
        "mirror+cyclic6 x2": disjoint_union(flip, six, six),
        "cyclic6+mirror+cyclic6": disjoint_union(six, flip, six),
        "cyclic6 x2+mirror": disjoint_union(six, six, flip),
        "trefoil+mirror x2": disjoint_union(
            three, mirror(three), mirror(three)),
    }


@pytest.mark.parametrize("name", three_component_maps())
def test_canonical_code_matches_reference_on_three_components(name):
    d = three_component_maps()[name]
    rng = random.Random(name)
    expected = reference_canonical_code(d)
    assert dg.canonical_code(d) == expected
    for _ in range(3):
        assert dg.canonical_code(relabel(d, rng)) == expected
