import copy
import dataclasses
import hashlib
import pickle
import random
import re
import signal
import sys
import threading
from collections.abc import MutableSequence, Sequence
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (CCW, CW, Unknot, charpoly_cofactor,
                     check_family_recurrence, eliminate_crossing,
                     face_orientations, mirror, reference_canonical_code,
                     waist_ring_diagram)
from test_diagram import relabel  # the same map, renumbered

from altknot import diagram as dg
from altknot import families as fam
from altknot import spectra as sp
from altknot import surgery as sg
from altknot.polynomials import X, charpoly


def member(family, *params):
    return fam.generate(fam.FamilySpec(family, tuple(params)))


def poly_of(d):
    return charpoly(sp.adjacency(d))


def bigon_faces(d):
    face_list, _ = dg.faces(d)
    return [i for i, t in enumerate(face_list) if len(t) == 2]


def face_id_of_darts(d, darts):
    face_list, _ = dg.faces(d)
    return next(i for i, t in enumerate(face_list) if set(t) == set(darts))


# ---------------------------------------------------------------------------
# contract_bigon
# ---------------------------------------------------------------------------

def test_contract_twist_chain_end():
    d = member(fam.TWIST_CHAIN, 3)
    face_list, _ = dg.faces(d)
    two_sided = [i for i in bigon_faces(d)
                 if len({d.darts[x].vertex for x in face_list[i]}) == 2]
    shrunk = sg.contract_bigon(d, two_sided[0])
    assert (dg.canonical_code(shrunk)
            == dg.canonical_code(member(fam.TWIST_CHAIN, 2)))


def test_contract_cyclic_torus_to_trefoil():
    d = member(fam.CYCLIC_TORUS, 4)
    shrunk = sg.contract_bigon(d, bigon_faces(d)[0])
    assert dg.validate(shrunk) == []
    assert poly_of(shrunk) == X ** 3 - 3 * X - 2


def test_contract_rejects_non_bigon():
    d = member(fam.CYCLIC_TORUS, 3)
    face_list, _ = dg.faces(d)
    triangle = next(i for i, t in enumerate(face_list) if len(t) == 3)
    with pytest.raises(sg.SurgeryError, match="needs a bigon"):
        sg.contract_bigon(d, triangle)


def test_contract_rejects_one_vertex_circle():
    d = member(fam.CYCLIC_TORUS, 1)
    with pytest.raises(sg.SurgeryError, match="circle"):
        sg.contract_bigon(d, bigon_faces(d)[0])


# ---------------------------------------------------------------------------
# expand_vertex
# ---------------------------------------------------------------------------

def test_expand_trefoil_along_upper_lane_extends_the_necklace():
    d = member(fam.CYCLIC_TORUS, 3)
    for v in range(3):
        grown = sg.expand_vertex(d, v, sg.LANE_OUT)
        assert dg.validate(grown) == []
        assert poly_of(grown) == fam.cyclic_poly(4)


def test_expand_lanes_bifurcate():
    d = member(fam.TWO_RIBBON, 2, 2)  # the 4-vertex knot
    a = sg.expand_vertex(d, 0, sg.LANE_OUT)
    b = sg.expand_vertex(d, 0, sg.LANE_IN)
    assert dg.validate(a) == [] and dg.validate(b) == []
    assert poly_of(a) != poly_of(b)


def same_map(a, b):
    """Identical darts; rotations may be written from different cyclic
    starting points."""
    if a.darts != b.darts or a.vertex_count != b.vertex_count:
        return False
    for ra, rb in zip(a.rotation, b.rotation):
        if not any(tuple(ra[(i + s) % 4] for i in range(4)) == tuple(rb)
                   for s in range(4)):
            return False
    return True


def test_expand_then_contract_is_identity():
    d = member(fam.THREE_RIBBON_G, 2, 1, 1)
    for v in range(d.vertex_count):
        for lane in sg.LANES:
            grown, _, bigon = sg._expand(d, v, lane)
            back = sg.contract_bigon(grown, face_id_of_darts(grown, bigon))
            assert same_map(back, d), (v, lane)
            assert dg.canonical_code(back) == dg.canonical_code(d), (v, lane)


def test_expand_contract_across_families(member_diagrams):
    rng = random.Random(7)
    cases = [(spec, d) for spec, d in member_diagrams if d.vertex_count >= 2]
    for spec, d in rng.sample(cases, 10):
        v = rng.randrange(d.vertex_count)
        lane = rng.choice(sg.LANES)
        grown, _, bigon = sg._expand(d, v, lane)
        assert dg.validate(grown) == [], str(spec)
        back = sg.contract_bigon(grown, face_id_of_darts(grown, bigon))
        assert dg.canonical_code(back) == dg.canonical_code(d), str(spec)


def test_expansion_chain_has_constant_source():
    d = member(fam.TWO_RIBBON, 3, 2)
    polys = [poly_of(d)]
    cur = 0
    for _ in range(3):
        d, cur, _ = sg._expand(d, cur, sg.LANE_IN)
        polys.append(poly_of(d))
    first = check_family_recurrence(*polys[0:3])
    second = check_family_recurrence(*polys[1:4])
    assert not first.homogeneous
    assert first.source == second.source


def test_expand_rejects_bad_input():
    d = member(fam.CYCLIC_TORUS, 3)
    with pytest.raises(sg.SurgeryError):
        sg.expand_vertex(d, 99, sg.LANE_OUT)
    with pytest.raises(sg.SurgeryError):
        sg.expand_vertex(d, 0, "diagonal")


# ---------------------------------------------------------------------------
# eliminate_crossing
# ---------------------------------------------------------------------------

def test_eliminate_trefoil_both_lanes():
    d = member(fam.CYCLIC_TORUS, 3)
    upper = eliminate_crossing(d, 2, sg.LANE_OUT)
    lower = eliminate_crossing(d, 2, sg.LANE_IN)
    # one smoothing leaves the Hopf link, the other the doubly twisted circle
    assert poly_of(upper) == X ** 2 - 4
    assert poly_of(lower) == (X - 2) * X
    for r in (upper, lower):
        _, exact = __import__("altknot.polynomials", fromlist=["divide_out"]) \
            .divide_out(poly_of(r), X - 2)
        assert exact


def test_eliminate_hopf_gives_one_vertex_twist():
    r = eliminate_crossing(member(fam.CYCLIC_TORUS, 2), 0, sg.LANE_OUT)
    assert sp.adjacency(r).rows == ((2,),)
    assert r.kind == "twist"


def test_eliminate_last_vertex_yields_unknot():
    for lane in sg.LANES:
        r = eliminate_crossing(member(fam.CYCLIC_TORUS, 1), 0, lane)
        assert isinstance(r, Unknot)
        assert r.circles >= 1


def test_eliminate_results_validate(member_diagrams):
    for spec, d in member_diagrams:
        if d.vertex_count < 2:
            continue
        for v in {0, d.vertex_count // 2, d.vertex_count - 1}:
            for lane in sg.LANES:
                try:
                    r = eliminate_crossing(d, v, lane)
                except sg.SurgeryError:
                    continue  # split results are refused, which is fine
                assert isinstance(r, dg.Diagram)
                assert dg.validate(r) == [], str(spec)
                assert r.vertex_count == d.vertex_count - 1


def test_ribbon_unwinds_back_to_seed():
    # contracting a family member's bigons one by one walks back down the
    # family member by member; the last vertex then eliminates to the circle
    for family, v in ((fam.TWIST_CHAIN, 5), (fam.CYCLIC_TORUS, 5)):
        d = member(family, v)
        while d.vertex_count > 1:
            face_list, _ = dg.faces(d)
            candidates = [i for i, t in enumerate(face_list)
                          if len(t) == 2
                          and len({d.darts[x].vertex for x in t}) == 2]
            d = sg.contract_bigon(d, candidates[0])
            assert dg.validate(d) == []
            previous = member(family, d.vertex_count)
            assert dg.canonical_code(d) in (
                dg.canonical_code(previous),
                dg.canonical_code(mirror(previous))), \
                (family, d.vertex_count)
        assert isinstance(eliminate_crossing(d, 0, sg.LANE_IN), Unknot)


# Every outcome of eliminate_crossing, pinned: one line per (diagram,
# vertex, lane) holding the result's kind and the sha256 of its JSON, the
# `Unknot` text, or the exception's type and message.  Each digest is the
# sha256 of those lines over every `sweep(5)` member of a family, or over
# the waist rings V = 5..9 of one growth.
GOLDEN_ELIMINATE_5 = {
    "cyclic": "5ed32c51a2b5d3a4c90b529fa8d32bb28815063e5532aa2d0bc9faaf1ba0840d",
    "twistchain": "c0a71c7db68a2965b41829d283551db6edfb7a8aff62909d5bfac15446630f0d",
    "hopftwist": "fffe3dd06075ad46a080e173122b906f6a0313df8c692062ca5e369f901e81ce",
    "trefoiltwist": "d1df4b5c0134ba233961b4ac5cf102655a0b454bb8405d0c57fc558975fbc618",
    "fourknottwist": "582bf0ec49f481966bee02562ed6a4e9cd893d2fce486f38d94242d6f6dfb07f",
    "twistknot": "b8f568e8b3a9f3b24f8665ce41058370800cc6f03b9946e0006680916e7e58bb",
    "f": "6042167ac53d2b28c40b62cfc5619ff07ea2a87a74dd2238e5ddaf5b45143a86",
    "p": "709e01c294729c0682eb620a8c1c572305da825ef65a42fb8909cc8f6ef2a588",
    "g": "f425d9cb77618acdb108f2444f946658c6f03e2e4b2f9e1e7089edd27f77f496",
    "chain": "c757e05e4c188d1cd00220031cdd9d87fb15b6b0b3e6604e368e903930577a91",
    "kribbon": "2d3f7ef87c65b09afe33d82ff78d96d53a2d61eb21b42e0de9fa597132c6a3ba",
    "lchain": "538722799704843cdf1b88fd5cbdb249363a7456eb6c3fe5bad2971e988cbf96",
}
GOLDEN_ELIMINATE_WAIST_RING_5_9 = {
    "chain": "36ef3a3c9ccce1ae81e549f0c87459aa5dce418c8b6f08c89be7182cac797413",
    "clasp": "ebb88094e05b52fef3c1c5b32362ce91fd1e52c359c142ade7da0accd74b8ff7",
}


def elimination_lines(label, d):
    lines = []
    for v in range(d.vertex_count):
        for lane in sg.LANES:
            try:
                r = eliminate_crossing(d, v, lane)
            except Exception as exc:
                out = f"{type(exc).__name__}: {exc}"
            else:
                out = (str(r) if isinstance(r, Unknot) else
                       f"{r.kind}\t"
                       + hashlib.sha256(dg.to_json(r).encode()).hexdigest())
            lines.append(f"{label}\t{v}\t{lane}\t{out}\n")
    return lines


@pytest.mark.parametrize("family", fam.FAMILIES, ids=lambda f: f.prefix)
def test_eliminate_outcomes_are_golden(family):
    lines = []
    for s in family.sweep(5):
        lines += elimination_lines(s, fam.generate(s))
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_ELIMINATE_5[family.prefix]


def test_eliminate_waist_ring_outcomes_are_golden():
    for growth, expected in GOLDEN_ELIMINATE_WAIST_RING_5_9.items():
        lines = []
        for v in range(5, 10):
            lines += elimination_lines(v, waist_ring_diagram(v, growth))
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == expected, growth


def test_eliminate_rejects_bad_arguments():
    d = member(fam.CYCLIC_TORUS, 3)
    for v in (-1, 3):
        with pytest.raises(sg.SurgeryError, match=f"^no vertex {v}$"):
            eliminate_crossing(d, v, sg.LANE_OUT)
    with pytest.raises(sg.SurgeryError, match="^lane must be one of"):
        eliminate_crossing(d, 0, "sideways")


def _walk_hung(signum, frame):
    raise TimeoutError("a strand walk on an inconsistent map did not stop")


def test_inconsistent_map_raises_instead_of_hanging():
    # one ring of a member shuffled (seeded): the unvalidated map is
    # inconsistent, and the strand walk that derives the kind never returns
    # to its start; an alarm turns a hang into a failure
    d = member(fam.K_RIBBON_CYCLIC, 4, 4)
    ring = list(d.rotation[4])
    random.Random(12).shuffle(ring)
    bad = dataclasses.replace(
        d, rotation=d.rotation[:4] + (tuple(ring),) + d.rotation[5:])
    previous = signal.signal(signal.SIGALRM, _walk_hung)
    signal.alarm(5)
    try:
        with pytest.raises(dg.DiagramError, match="does not close"):
            dg.component_count(bad)
        with pytest.raises(dg.DiagramError, match="does not close"):
            eliminate_crossing(bad, 4, sg.LANE_OUT)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# compose_twist
# ---------------------------------------------------------------------------

def test_composition_of_cyclic_diagrams():
    a = member(fam.CYCLIC_TORUS, 3)
    c = sg.compose_twist(a, 0, a, 0, 0)
    assert dg.validate(c) == []
    assert poly_of(c) == fam.three_ribbon_g_poly(3, 3, 0)


def test_composition_strand_count_adds():
    a = member(fam.CYCLIC_TORUS, 4)
    b = member(fam.CYCLIC_TORUS, 3)
    c = sg.compose_twist(a, 2, b, 1, 0)
    assert (sp.trace_strands(sp.adjacency(c)).count
            == sp.trace_strands(sp.adjacency(a)).count
            + sp.trace_strands(sp.adjacency(b)).count - 1)


def test_composition_twist_family_is_homogeneous():
    a = member(fam.CYCLIC_TORUS, 3)
    b = member(fam.CYCLIC_TORUS, 4)
    polys = [poly_of(sg.compose_twist(a, 1, b, 2, t)) for t in range(4)]
    assert check_family_recurrence(*polys[0:3]).homogeneous
    assert check_family_recurrence(*polys[1:4]).homogeneous


def test_compose_validates_arguments():
    a = member(fam.CYCLIC_TORUS, 3)
    with pytest.raises(sg.SurgeryError):
        sg.compose_twist(a, 42, a, 0, 0)
    with pytest.raises(sg.SurgeryError):
        sg.compose_twist(a, 0, a, 0, -1)


def test_the_lane_rule_picks_growth_direction():
    d = member(fam.CYCLIC_TORUS, 4)
    face_list, _ = dg.faces(d)
    bigon = next(i for i, t in enumerate(face_list)
                 if len(t) == 2 and 0 in {d.darts[x].vertex for x in t})
    # the lane that keeps a face runs against it: LANE_IN keeps an
    # outgoing-coherent (CCW) face, LANE_OUT an incoming-coherent one
    ccw = face_orientations(d)[bigon] == CCW
    keep, split = (sg.LANE_IN, sg.LANE_OUT) if ccw else sg.LANES
    # preserving the necklace bigon lengthens the necklace; splitting it
    # starts the orthogonal ribbon
    assert poly_of(sg.expand_vertex(d, 0, keep)) == fam.cyclic_poly(5)
    assert poly_of(sg.expand_vertex(d, 0, split)) == fam.two_ribbon_poly(3, 2)


# ---------------------------------------------------------------------------
# Malformed maps: surgery raises DiagramError subclasses, nothing else
# ---------------------------------------------------------------------------

def test_eliminate_on_a_non_alternating_ring_raises_surgery_error():
    # the one-vertex twist with its two in darts side by side: the splice
    # walk leaves the vertex's loop heads
    bad = dataclasses.replace(member(fam.CYCLIC_TORUS, 1),
                              rotation=((1, 3, 0, 2),))
    for lane in sg.LANES:
        with pytest.raises(sg.SurgeryError, match="inconsistent map"):
            eliminate_crossing(bad, 0, lane)


@pytest.mark.parametrize("ring", [(0, 1, 2, 99), (-1, 5, 6, 7), (4, 5, 6)])
def test_rings_that_do_not_list_every_dart_are_refused(ring):
    d = member(fam.CYCLIC_TORUS, 3)
    bad = dataclasses.replace(d, rotation=d.rotation[:2] + (ring,))
    refused = pytest.raises(sg.SurgeryError, match="rotation rings")
    for v in range(3):
        for lane in sg.LANES:
            with refused:
                sg.expand_vertex(bad, v, lane)
            with refused:
                eliminate_crossing(bad, v, lane)
    for twists in (0, 1):
        with refused:
            sg.compose_twist(bad, 0, d, 0, twists)
        with refused:
            sg.compose_twist(d, 0, bad, 0, twists)
    for face in range(5):
        with pytest.raises(dg.DiagramError):
            sg.contract_bigon(bad, face)


@pytest.mark.parametrize("count", [2, 4])
def test_vertex_count_must_match_the_rings(count):
    bad = dataclasses.replace(member(fam.CYCLIC_TORUS, 3), vertex_count=count)
    for v in range(count):
        with pytest.raises(sg.SurgeryError, match="rotation rings"):
            eliminate_crossing(bad, v, sg.LANE_OUT)


def test_builder_reads_each_darts_vertex_from_its_ring():
    # a Dart.vertex that disagrees with the rings changes nothing: the
    # rings say where every dart sits
    rng = random.Random(5)
    for s in [s for f in fam.FAMILIES for s in f.sweep(4)]:
        d = fam.generate(s)
        if d.vertex_count < 2:
            continue
        darts = list(d.darts)
        k = rng.randrange(len(darts))
        wrong = (darts[k].vertex + 1) % d.vertex_count
        darts[k] = dataclasses.replace(darts[k], vertex=wrong)
        bad = dataclasses.replace(d, darts=tuple(darts))
        v, lane = rng.randrange(d.vertex_count), rng.choice(sg.LANES)
        assert sg.expand_vertex(bad, v, lane) == sg.expand_vertex(d, v, lane)
        assert (elimination_lines(s, bad) == elimination_lines(s, d)), str(s)
        assert sg.compose_twist(bad, 0, d, 1, 1) == sg.compose_twist(d, 0, d, 1, 1)
        for face in range(d.vertex_count + 2):
            assert contraction(bad, face) == contraction(d, face), str(s)


@pytest.mark.parametrize("twin", [99, 0, 2])
def test_twins_that_are_not_an_out_in_involution_are_refused(twin):
    # dart 0's twin out of range, dart 0 paired with itself, or paired with
    # a dart whose own twin is elsewhere: the builder refuses the map before
    # any operation reads it
    d = member(fam.CYCLIC_TORUS, 3)
    darts = list(d.darts)
    darts[0] = dataclasses.replace(darts[0], twin=twin)
    bad = dataclasses.replace(d, darts=tuple(darts))
    refused = pytest.raises(sg.SurgeryError, match="twin")
    for lane in sg.LANES:
        with refused:
            sg.expand_vertex(bad, 0, lane)
        with refused:
            eliminate_crossing(bad, 0, lane)
    with refused:
        sg.contract_bigon(bad, 0)
    for twists in (0, 1):
        with refused:
            sg.compose_twist(bad, 0, d, 0, twists)
        with refused:
            sg.compose_twist(d, 0, bad, 0, twists)


def _each_operation_refuses(bad, good, refused):
    """All four operations on `bad`, both compose_twist positions, under
    the context manager `refused`."""
    for lane in sg.LANES:
        with refused:
            sg.expand_vertex(bad, 0, lane)
        with refused:
            eliminate_crossing(bad, 0, lane)
    with refused:
        sg.contract_bigon(bad, 0)
    for twists in (0, 1):
        with refused:
            sg.compose_twist(bad, 0, good, 0, twists)
        with refused:
            sg.compose_twist(good, 0, bad, 0, twists)


@pytest.mark.parametrize("value", ["1", 1.0, None, True])
@pytest.mark.parametrize("field", ["id", "vertex", "twin"])
def test_dart_fields_that_are_not_integers_are_refused(field, value):
    # dart 1 of cyclic:V=3 has id 1 and twin 0, so 1.0 and True equal the
    # id it should have and None and "1" cannot be compared with an int:
    # validate reports the field, and every operation raises SurgeryError
    d = member(fam.CYCLIC_TORUS, 3)
    darts = list(d.darts)
    darts[1] = dataclasses.replace(darts[1], **{field: value})
    bad = dataclasses.replace(d, darts=tuple(darts))
    problem = f"dart 1: {field} must be an integer, got {value!r}"
    assert dg.validate(bad) == [problem]
    refused = pytest.raises(sg.SurgeryError, match=f"^{re.escape(problem)}$")
    _each_operation_refuses(bad, d, refused)


@pytest.mark.parametrize("count", ["3", 3.0, True])
def test_vertex_counts_that_are_not_integers_are_refused(count):
    # 3.0 equals the true count and True passes V >= 1: validate reports
    # the type, and every operation raises SurgeryError before reading it
    d = member(fam.CYCLIC_TORUS, 3)
    bad = dataclasses.replace(d, vertex_count=count)
    problem = f"vertex count: V must be an integer, got {count!r}"
    assert dg.validate(bad) == [problem]
    refused = pytest.raises(sg.SurgeryError, match=f"^{re.escape(problem)}$")
    _each_operation_refuses(bad, d, refused)


@pytest.mark.parametrize("entry", ["0", 0.0, True, None])
def test_ring_entries_that_are_not_integers_are_refused(entry):
    # dart 0 leads the ring of vertex 0; 0.0 hashes like 0, so a set of
    # the entries cannot tell it apart
    d = member(fam.CYCLIC_TORUS, 3)
    ring = (entry,) + d.rotation[0][1:]
    bad = dataclasses.replace(d, rotation=(ring,) + d.rotation[1:])
    problem = f"rotation: ring of vertex 0 must hold integers, got {entry!r}"
    assert dg.validate(bad) == [problem]
    refused = pytest.raises(sg.SurgeryError, match=f"^{re.escape(problem)}$")
    _each_operation_refuses(bad, d, refused)


@pytest.mark.parametrize("rotate, problem", [
    (lambda rings: None, "rotation: must be a sequence of rings, got None"),
    (lambda rings: 3, "rotation: must be a sequence of rings, got 3"),
    (lambda rings: (5,) + rings[1:],
     "rotation: ring of vertex 0 must be a sequence of dart ids, got 5"),
    (lambda rings: rings[:2] + (None,),
     "rotation: ring of vertex 2 must be a sequence of dart ids, got None"),
], ids=["none", "int", "ring-int", "ring-none"])
def test_rotations_that_are_not_sequences_of_rings_are_refused(rotate,
                                                               problem):
    # validate reports it, and every operation and every reader of the
    # rings raises with the same text
    d = member(fam.CYCLIC_TORUS, 3)
    bad = dataclasses.replace(d, rotation=rotate(d.rotation))
    assert dg.validate(bad) == [problem]
    refused = pytest.raises(sg.SurgeryError, match=f"^{re.escape(problem)}$")
    _each_operation_refuses(bad, d, refused)
    for reader in (dg.canonical_code, dg.faces, face_orientations,
                   dg.component_count):
        with pytest.raises(dg.DiagramError, match=f"^{re.escape(problem)}$"):
            reader(bad)


@pytest.mark.parametrize("entry", ["0", 0.0, True])
def test_readers_refuse_ring_entries_that_are_not_integers(entry):
    # each entry stands where the dart id int(entry) stood; True indexes
    # like that 1 and passes every count and pairing test, so only the
    # type tells it apart
    d = member(fam.CYCLIC_TORUS, 3)
    dart = int(entry)
    v = d.darts[dart].vertex
    ring = tuple(entry if x == dart else x for x in d.rotation[v])
    bad = dataclasses.replace(
        d, rotation=d.rotation[:v] + (ring,) + d.rotation[v + 1:])
    problem = f"rotation: ring of vertex {v} must hold integers, got {entry!r}"
    assert dg.validate(bad) == [problem]
    for reader in (dg.canonical_code, dg.faces, dg.component_count):
        with pytest.raises(dg.DiagramError, match=f"^{re.escape(problem)}$"):
            reader(bad)


def _darts_none(d):
    return dataclasses.replace(d, darts=None)


def _dart_int(d):
    return dataclasses.replace(d, darts=d.darts[:1] + (5,) + d.darts[2:])


@pytest.mark.parametrize("fault, problem", [
    (_darts_none, "darts: must be a sequence of Dart records, got None"),
    (_dart_int, "darts: entry 1 must be a Dart record, got 5"),
], ids=["darts-none", "dart-int"])
def test_darts_that_are_not_dart_records_are_refused(fault, problem):
    # once leaked TypeError or AttributeError from validate, every
    # operation and canonical_code
    d = member(fam.CYCLIC_TORUS, 3)
    bad = fault(d)
    assert dg.validate(bad) == [problem]
    refused = pytest.raises(sg.SurgeryError, match=f"^{re.escape(problem)}$")
    _each_operation_refuses(bad, d, refused)
    for reader in READERS + (lambda d: d.edges(), dg.to_dot):
        with pytest.raises(dg.DiagramError, match=f"^{re.escape(problem)}$"):
            reader(bad)


def test_a_direction_that_cannot_be_hashed_is_refused():
    # a list is compared with OUT and IN, not looked up in a set
    d = member(fam.CYCLIC_TORUS, 3)
    darts = (dataclasses.replace(d.darts[0], direction=[dg.OUT]),) + d.darts[1:]
    bad = dataclasses.replace(d, darts=darts)
    assert dg.validate(bad)
    problem = "the twins do not pair each out dart with one in dart"
    refused = pytest.raises(sg.SurgeryError, match=f"^{re.escape(problem)}$")
    _each_operation_refuses(bad, d, refused)
    for reader in READERS + (lambda d: d.edges(), dg.to_dot):
        with pytest.raises(dg.DiagramError, match=f"^{re.escape(problem)}$"):
            reader(bad)


@pytest.mark.parametrize("arg", [0.0, 1.0, True, "0", None])
def test_call_arguments_that_are_not_integers_are_refused(arg):
    d = member(fam.CYCLIC_TORUS, 3)
    for lane in sg.LANES:
        with pytest.raises(sg.SurgeryError, match="^no vertex "):
            sg.expand_vertex(d, arg, lane)
        with pytest.raises(sg.SurgeryError, match="^no vertex "):
            eliminate_crossing(d, arg, lane)
    with pytest.raises(sg.SurgeryError, match="^no face "):
        sg.contract_bigon(d, arg)
    with pytest.raises(sg.SurgeryError, match="^diagram 1 has no edge "):
        sg.compose_twist(d, arg, d, 0, 0)
    with pytest.raises(sg.SurgeryError, match="^diagram 2 has no edge "):
        sg.compose_twist(d, 0, d, arg, 0)
    for twists in (arg, 1.5, "1"):
        with pytest.raises(sg.SurgeryError, match="^twist count must be an"):
            sg.compose_twist(d, 0, d, 0, twists)


def test_dart_ids_out_of_order_are_refused():
    d = member(fam.CYCLIC_TORUS, 3)
    darts = list(d.darts)
    darts[0] = dataclasses.replace(darts[0], id=7)
    bad = dataclasses.replace(d, darts=tuple(darts))
    _each_operation_refuses(
        bad, d, pytest.raises(sg.SurgeryError, match="^dart ids must be"))


def corrupt(d, rng):
    """d with one random fault: a twin in -2..n+2, a direction set to out,
    in or neither, a ring entry in -2..n+2, one ring shuffled, or two
    entries swapped across two rings."""
    n, v = len(d.darts), d.vertex_count
    darts, rotation = list(d.darts), [list(ring) for ring in d.rotation]
    fault = rng.randrange(5)
    k = rng.randrange(n)
    if fault == 0:
        darts[k] = dataclasses.replace(darts[k], twin=rng.randint(-2, n + 2))
    elif fault == 1:
        darts[k] = dataclasses.replace(
            darts[k], direction=rng.choice((dg.OUT, dg.IN, "sideways")))
    elif fault == 2:
        rotation[rng.randrange(v)][rng.randrange(4)] = rng.randint(-2, n + 2)
    elif fault == 3:
        rng.shuffle(rotation[rng.randrange(v)])
    else:
        a, b = rng.randrange(v), rng.randrange(v)
        i, j = rng.randrange(4), rng.randrange(4)
        rotation[a][i], rotation[b][j] = rotation[b][j], rotation[a][i]
    return dataclasses.replace(d, darts=tuple(darts),
                               rotation=tuple(map(tuple, rotation)))


def reference_validate(d):
    """`dg.validate` with one interpreted loop per check: the oracle for
    every C-level pass of `dg._map_problems`.  A kind outside KINDS is
    listed first and hides none of the map's own problems."""
    head = ([f"kind: {d.kind!r} is not one of {dg.KINDS}"]
            if d.kind not in dg.KINDS else [])
    return head + reference_map_problems(d)


def reference_map_problems(d):
    """`reference_validate` past the kind name: the type rule, then one
    loop per check from the vertex count through the kind comparison."""
    problems = []
    bad_field = dg._type_problem(d)
    if bad_field:
        problems.append(bad_field)
        return problems
    if d.vertex_count < 1:
        problems.append("vertex count: V must be >= 1")
        return problems
    n_darts = 4 * d.vertex_count
    if len(d.darts) != n_darts:
        problems.append(
            f"dart count: expected {n_darts} darts, found {len(d.darts)}")
        return problems
    for i, dart in enumerate(d.darts):
        if dart.id != i:
            problems.append(f"dart ids: dart at index {i} has id {dart.id}")
            return problems
        if not 0 <= dart.vertex < d.vertex_count:
            problems.append(f"dart {i}: vertex {dart.vertex} out of range")
            return problems
        if not 0 <= dart.twin < n_darts:
            problems.append(f"dart {i}: twin {dart.twin} out of range")
            return problems

    darts = d.darts
    twin = [x.twin for x in darts]
    succ = dg._rings(d.rotation, n_darts)[0]
    out = [x.direction == dg.OUT for x in darts]
    vertex = [x.vertex for x in darts]
    for i, t in enumerate(twin):
        if t == i:
            problems.append(f"twin involution: dart {i} is its own twin")
        elif twin[t] != i:
            problems.append(f"twin involution: twin({t}) != {i}")
        elif (i < t and (darts[i].direction, darts[t].direction)
              not in dg._EDGE):
            problems.append(
                f"twin directions: edge ({i},{t}) must have "
                "one out and one in dart")
    if problems:
        return problems

    # every direction is OUT or IN from here on, so `out` says it all
    if len(d.rotation) != d.vertex_count:
        problems.append("rotation: one ring per vertex required")
        return problems
    darts_at = [[] for _ in range(d.vertex_count)]
    for i, v in enumerate(vertex):
        darts_at[v].append(i)
    for v, ring in enumerate(d.rotation):
        if sorted(ring) != darts_at[v] or len(ring) != 4:
            problems.append(
                f"rotation: ring of vertex {v} does not list its 4 darts")
            continue
        a, b, c, e = ring
        if out[a] == out[c] != out[b] == out[e]:
            continue  # alternates, so two out darts
        outs = out[a] + out[b] + out[c] + out[e]
        if outs != 2:
            problems.append(
                f"in/out balance: vertex {v} has {outs} out darts, needs 2")
        else:
            problems.append(
                f"rotation alternation: vertex {v} does not alternate "
                "out/in around the vertex")
    if problems:
        return problems

    # every ring now holds exactly its vertex's darts, so the darts are
    # connected iff the vertices are
    seen = [False] * d.vertex_count
    seen[vertex[0]] = True
    stack = [vertex[0]]
    while stack:
        for dart in d.rotation[stack.pop()]:
            w = vertex[twin[dart]]
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        problems.append("connectivity: the map is not connected")
        return problems

    face_count = len(dg._traces(twin, succ))
    if face_count != d.vertex_count + 2:
        problems.append(
            f"euler: face tracing gives {face_count} faces, a sphere "
            f"map with V={d.vertex_count} must have {d.vertex_count + 2}")

    kind = dg._kind(twin, succ, out, vertex)
    if d.kind != kind:
        problems.append(
            f"kind: the structure makes it a {kind}, but kind is {d.kind!r}")
    return problems



def test_validate_matches_reference_validate():
    # every sweep(8) member, then seeded single and double faults of
    # sweep(4) members, a third of them with a kind named at random (a
    # kind outside KINDS is listed first and hides no later problem)
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        d = fam.generate(s)
        assert dg.validate(d) == reference_validate(d) == [], s
    rng = random.Random(23)
    seeds = [fam.generate(s) for f in fam.FAMILIES for s in f.sweep(4)]
    for i in range(3000):
        bad = corrupt(rng.choice(seeds), rng)
        if i % 2:
            bad = corrupt(bad, rng)
        if i % 3 == 0:
            bad = dataclasses.replace(bad, kind=rng.choice(
                ("knot", "link", "twist", "banana")))
        assert dg.validate(bad) == reference_validate(bad), i


def _call_hung(signum, frame):
    raise TimeoutError("a surgery operation on a corrupted map did not stop")


def test_corrupted_maps_raise_only_diagram_errors():
    # a fixed budget of seeded single faults on sweep(4) members, each fed
    # to all four operations: a call returns or raises a DiagramError
    # subclass, and an alarm turns a hang into a failure
    rng = random.Random(11)
    seeds = [fam.generate(s) for f in fam.FAMILIES for s in f.sweep(4)]
    previous = signal.signal(signal.SIGALRM, _call_hung)
    try:
        for _ in range(1500):
            d = rng.choice(seeds)
            bad, good = corrupt(d, rng), rng.choice(seeds)
            v, lane = rng.randrange(d.vertex_count), rng.choice(sg.LANES)
            e1, e2 = rng.randrange(2 * v + 2), rng.randrange(8)
            twists = rng.randrange(3)
            for call in (
                    lambda: sg.expand_vertex(bad, v, lane),
                    lambda: sg.contract_bigon(bad, rng.randrange(v + 2)),
                    lambda: eliminate_crossing(bad, v, lane),
                    lambda: sg.compose_twist(bad, e1, good, e2, twists),
                    lambda: sg.compose_twist(good, e2, bad, e1, twists)):
                signal.alarm(5)
                try:
                    call()
                except dg.DiagramError:
                    pass
                finally:
                    signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)


READERS = (dg.canonical_code, dg.faces, face_orientations,
           dg.component_count)


def test_corrupted_maps_make_readers_raise_only_diagram_errors():
    # seeded single faults on sweep(4) members, each fed to every reader of
    # the flat arrays; an alarm turns a hang into a failure
    rng = random.Random(13)
    seeds = [fam.generate(s) for f in fam.FAMILIES for s in f.sweep(4)]
    previous = signal.signal(signal.SIGALRM, _call_hung)
    try:
        for _ in range(1500):
            bad = corrupt(rng.choice(seeds), rng)
            for reader in READERS:
                signal.alarm(5)
                try:
                    reader(bad)
                except dg.DiagramError:
                    pass
                finally:
                    signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _cut_ring(d):
    return dataclasses.replace(d, rotation=(d.rotation[0][:3],)
                               + d.rotation[1:])


def _far_twin(d):
    return dataclasses.replace(
        d, darts=(dataclasses.replace(d.darts[0], twin=99),) + d.darts[1:])


@pytest.mark.parametrize("fault, problem", [
    (_cut_ring, "the rotation rings do not list every dart exactly once"),
    (_far_twin, "a dart's twin is out of range"),
], ids=["ring-cut", "twin-99"])
def test_readers_refuse_maps_validate_rejects(fault, problem):
    # validate reports both maps, and every reader refuses them with the
    # text the surgery builder gives
    d = member(fam.CYCLIC_TORUS, 3)
    bad = fault(d)
    assert dg.validate(bad)
    for call in (lambda: dg.canonical_code(bad), lambda: dg.faces(bad),
                 lambda: dg.component_count(bad)):
        with pytest.raises(dg.DiagramError, match=f"^{re.escape(problem)}"):
            call()


def test_a_kind_outside_kinds_hides_no_map_problem():
    # the kind name once stopped validate after the twin checks, so the
    # cut ring went unreported
    bad = dataclasses.replace(_cut_ring(member(fam.CYCLIC_TORUS, 3)),
                              kind="banana")
    assert dg.validate(bad) == reference_validate(bad) == [
        f"kind: 'banana' is not one of {dg.KINDS}",
        "rotation: ring of vertex 0 does not list its 4 darts"]


@pytest.mark.parametrize("value", ["1", 1.0, None])
@pytest.mark.parametrize("field", ["id", "twin"])
def test_readers_refuse_dart_fields_that_are_not_integers(field, value):
    # dart 1 of cyclic:V=3 has id 1 and twin 0
    d = member(fam.CYCLIC_TORUS, 3)
    darts = list(d.darts)
    darts[1] = dataclasses.replace(darts[1], **{field: value})
    bad = dataclasses.replace(d, darts=tuple(darts))
    for reader in READERS:
        with pytest.raises(dg.DiagramError):
            reader(bad)


@pytest.mark.parametrize("count", [3.0, True, "3"])
def test_readers_refuse_vertex_counts_that_are_not_integers(count):
    # 3.0 equals the true count, so a reader that compared it by value
    # coded the map and called it isomorphic to the sound one
    d = member(fam.CYCLIC_TORUS, 3)
    bad = dataclasses.replace(d, vertex_count=count)
    problem = f"vertex count: V must be an integer, got {count!r}"
    assert dg.validate(bad) == [problem]
    for reader in READERS:
        with pytest.raises(dg.DiagramError, match=f"^{re.escape(problem)}$"):
            reader(bad)


@pytest.mark.parametrize("value", [True, 1.0])
def test_readers_refuse_a_twin_equal_to_an_int(value):
    # dart 0 of cyclic:V=3 has twin 1: True and 1.0 pass every range and
    # pairing test, so only the type tells, as validate reports
    d = member(fam.CYCLIC_TORUS, 3)
    darts = (dataclasses.replace(d.darts[0], twin=value),) + d.darts[1:]
    bad = dataclasses.replace(d, darts=darts)
    problem = f"dart 0: twin must be an integer, got {value!r}"
    assert dg.validate(bad) == [problem]
    for reader in READERS:
        with pytest.raises(dg.DiagramError, match=f"^{re.escape(problem)}$"):
            reader(bad)


def outcome(call):
    """A call's result as one line: the result's kind and the sha256 of its
    JSON, the `Unknot` text, or the exception's type and message."""
    try:
        r = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(r, Unknot):
        return str(r)
    return f"{r.kind}\t" + hashlib.sha256(dg.to_json(r).encode()).hexdigest()


# validate's report and every surgery outcome on 1500 seeded corruptions
# of `sweep(4)` members: the sha256 of one line per map and call
GOLDEN_CORRUPTED_4 = (
    "f73a69033e0994b2c8e1131ec8a097c4d4f807b5c4639506a527638a041734c2")


def test_corrupted_map_reports_and_refusals_are_golden():
    rng = random.Random(17)
    seeds = [fam.generate(s) for f in fam.FAMILIES for s in f.sweep(4)]
    lines = []
    for i in range(1500):
        d = rng.choice(seeds)
        bad, good = corrupt(d, rng), rng.choice(seeds)
        v, lane = rng.randrange(d.vertex_count), rng.choice(sg.LANES)
        face, twists = rng.randrange(v + 2), rng.randrange(3)
        e1, e2 = rng.randrange(2 * v + 2), rng.randrange(8)
        lines.append(f"{i}\tvalidate\t{dg.validate(bad)}\n")
        for name, call in (
                ("expand", lambda: sg.expand_vertex(bad, v, lane)),
                ("contract", lambda: sg.contract_bigon(bad, face)),
                ("eliminate", lambda: eliminate_crossing(bad, v, lane)),
                ("compose", lambda: sg.compose_twist(bad, e1, good, e2,
                                                     twists)),
                ("compose", lambda: sg.compose_twist(good, e2, bad, e1,
                                                     twists))):
            lines.append(f"{i}\t{name}\t{outcome(call)}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_CORRUPTED_4


def test_expand_vertex_returns_only_valid_diagrams():
    # seeded single faults on sweep(4) members: the builder takes in maps
    # whose rings do not alternate or that are not planar, and expansion
    # must refuse them instead of growing them
    rng = random.Random(3)
    seeds = [fam.generate(s) for f in fam.FAMILIES for s in f.sweep(4)]
    outcomes = {"raised": 0, "valid": 0}
    for _ in range(3000):
        d = rng.choice(seeds)
        bad = corrupt(d, rng)
        v, lane = rng.randrange(d.vertex_count), rng.choice(sg.LANES)
        try:
            out = sg.expand_vertex(bad, v, lane)
        except dg.DiagramError:
            outcomes["raised"] += 1
            continue
        assert dg.validate(out) == [], (bad, v, lane)
        outcomes["valid"] += 1
    assert min(outcomes.values()) > 0, outcomes


def contraction(d, face):
    """contract_bigon's result, or the message of its SurgeryError."""
    try:
        return sg.contract_bigon(d, face)
    except sg.SurgeryError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# Random surgery keeps every invariant
# ---------------------------------------------------------------------------

SURGERY_SEEDS = [fam.generate(s) for f in fam.FAMILIES for s in f.sweep(4)]
SURGERY_MAX_V = 24
SURGERY_STEP = st.tuples(
    st.sampled_from(("expand", "compose", "contract", "eliminate")),
    st.integers(0, 1 << 16), st.integers(0, 1 << 16), st.integers(0, 2),
    st.sampled_from(sg.LANES))


def surgery_step(d, op, i, j, twists, lane):
    """One step of a random surgery sequence; None when it does not apply
    (too many vertices, or an eliminated last crossing)."""
    v = d.vertex_count
    if op == "expand":
        return sg.expand_vertex(d, i % v, lane) if v < SURGERY_MAX_V else None
    if op == "compose":
        other = SURGERY_SEEDS[j % len(SURGERY_SEEDS)]
        if v + other.vertex_count + twists > SURGERY_MAX_V:
            return None
        return sg.compose_twist(d, i % (2 * v), other,
                                j % (2 * other.vertex_count), twists)
    if op == "contract":
        return sg.contract_bigon(d, i % (v + 2))
    out = eliminate_crossing(d, i % v, lane)
    return None if isinstance(out, Unknot) else out


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, len(SURGERY_SEEDS) - 1),
       steps=st.lists(SURGERY_STEP, max_size=8),
       rng=st.randoms(use_true_random=False))
def test_random_surgery_keeps_invariants(start, steps, rng):
    d = SURGERY_SEEDS[start]
    for step in steps:
        try:
            out = surgery_step(d, *step)
        except sg.SurgeryError:
            continue
        if out is None:
            continue
        d = out
        assert dg.validate(d) == [], step
        assert dg.component_count(d) == sp.trace_strands(sp.adjacency(d)).count
        assert dg.from_json(dg.to_json(d)) == d
        assert dg.canonical_code(relabel(d, rng)) == dg.canonical_code(d)
        # the two senses: a dart and its twin lie on faces of opposite
        # sense, and each sense's faces hold one dart of every edge
        senses, (face_list, _) = face_orientations(d), dg.faces(d)
        owner = {x: i for i, t in enumerate(face_list) for x in t}
        assert all(senses[owner[x.id]] != senses[owner[x.twin]]
                   for x in d.darts), step
        for sense in (CCW, CW):
            assert sum(len(t) for i, t in enumerate(face_list)
                       if senses[i] == sense) == 2 * d.vertex_count, step
    # composite and non-reduced maps, which no family makes, against the
    # brute-force code
    assert dg.canonical_code(d) == reference_canonical_code(d)


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, len(SURGERY_SEEDS) - 1),
       steps=st.lists(SURGERY_STEP, max_size=8))
def test_random_surgery_keeps_the_polynomial_laws(start, steps):
    # the packed-row charpoly against cofactor expansion (V <= 8), and the
    # polynomial of the mirror image, on every diagram of a random surgery
    d = SURGERY_SEEDS[start]
    visited = [d]
    for step in steps:
        try:
            out = surgery_step(d, *step)
        except sg.SurgeryError:
            continue
        if out is not None:
            d = out
            visited.append(d)
    for d in visited:
        m = sp.adjacency(d)
        p = charpoly(m)
        if d.vertex_count <= 8:
            assert p == charpoly_cofactor(m), d
        mirrored = mirror(d)
        assert dg.validate(mirrored) == [], d
        assert charpoly(sp.adjacency(mirrored)) == p, d


# ---------------------------------------------------------------------------
# What a built value carries: the lists and face trace its check made
# ---------------------------------------------------------------------------

MUTATORS = ("__setitem__", "__delitem__", "__iadd__", "append", "extend",
            "insert", "pop", "remove", "clear", "sort", "reverse")


def cold_records(d):
    """The records of d's carried lists, made afresh."""
    twin, _, out, vertex = d._checked[0]
    return tuple(map(dg.Dart, range(len(twin)), vertex, twin,
                     ["out" if o else "in" for o in out]))


def assert_carries_what_a_cold_check_gives(d):
    """d cannot change under what it carries (its rings are tuples, and
    its darts a view with no mutators whose records are those of the
    carried lists), and `_flat` and the face trace give on d, and on d
    read back from its JSON, what they give on an equal copy, which is
    checked afresh."""
    assert list(d.darts) == list(cold_records(d))
    assert not any(hasattr(d.darts, name) for name in MUTATORS)
    assert type(d.rotation) is tuple
    assert {type(ring) for ring in d.rotation} == {tuple}
    copy = dataclasses.replace(d)
    cold = dg._flat(copy), dg._face_traces(copy)
    for value in (d, dg.from_json(dg.to_json(d))):
        assert (dg._flat(value), dg._face_traces(value)) == cold


def test_a_built_value_carries_what_a_cold_check_gives_on_sweep():
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        assert_carries_what_a_cold_check_gives(fam.generate(s))


@pytest.mark.parametrize("text", ["twistknot:V=8", "p:k=3,l=4,m=2",
                                  "lchain:k=3,n=2"])
def test_a_built_value_carries_what_a_cold_check_gives_on_round_trips(text):
    d = fam.generate(fam.parse_spec_string(text))
    code = dg.canonical_code(d)
    for v in range(d.vertex_count):
        for lane in sg.LANES:
            grown, _, bigon = sg._expand(d, v, lane)
            assert_carries_what_a_cold_check_gives(grown)
            back = sg.contract_bigon(grown, face_id_of_darts(grown, bigon))
            assert_carries_what_a_cold_check_gives(back)
            assert dg.canonical_code(back) == code, (v, lane)


# ---------------------------------------------------------------------------
# A built value's darts: a read-only view that makes its records when read
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def count_dart_records(monkeypatch):
    """A list whose one entry counts the `Dart` records made from now on."""
    made, init = [0], dg.Dart.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(dg.Dart, "__init__", counted)
    return made


def test_a_benchmark_pass_makes_no_dart_records(monkeypatch):
    # generate, adjacency, faces, loop_count, validate, the surgery round
    # trip and the CLI's identities run read the lists a built value
    # carries: set-up and one pass of each workload make no record
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import workloads
    made = count_dart_records(monkeypatch)
    for name in ("sweep", "laws"):
        workload = workloads.WORKLOADS[name](1)
        for item in workload.next_pass():
            workload.run(item, harness.NullTracer())
    assert made == [0]
    d = fam.generate(fam.parse_spec_string("p:k=3,l=4,m=2"))
    assert len(d.darts) == 36 and made == [0]
    # every reader of the module reads the lists d carries
    face_orientations(d), dg.faces(d), dg.canonical_code(d)
    dg.component_count(d), d.loop_count(), dg.to_dot(d)
    assert made == [0]
    assert d.darts[5].id == 5 and made == [36]  # all at once, on first read
    list(d.darts)
    assert made == [36]


def assert_reads_as_a_plain_tuple(make):
    """A value `make` builds, and a `dataclasses.replace` copy of it,
    compare, hash, print and serialise as a copy whose darts are a plain
    tuple, each key taken first on a fresh value."""
    for key in (None, hash, repr, dg.to_json):
        d = make()
        plain = dataclasses.replace(d, darts=cold_records(d))
        for value in (d, dataclasses.replace(d)):
            if key is None:
                assert value == plain and plain == value
                assert not value != plain and value.darts == plain.darts
            else:
                assert key(value) == key(plain)


def test_built_darts_read_as_a_plain_tuple_on_sweep():
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        assert_reads_as_a_plain_tuple(lambda: fam.generate(s))


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, len(SURGERY_SEEDS) - 1),
       steps=st.lists(SURGERY_STEP, min_size=1, max_size=8))
def test_built_darts_read_as_a_plain_tuple_on_random_surgery(start, steps):
    def make():
        d = SURGERY_SEEDS[start]
        for step in steps:
            try:
                d = surgery_step(d, *step) or d
            except sg.SurgeryError:
                continue
        return d
    assert_reads_as_a_plain_tuple(make)


def test_built_darts_are_read_only():
    d = fam.generate(fam.parse_spec_string("kribbon:k=4,m=3"))
    darts = d.darts
    assert isinstance(darts, Sequence)
    assert not isinstance(darts, MutableSequence)
    assert not any(hasattr(darts, name) for name in MUTATORS)
    with pytest.raises(TypeError):
        darts[0] = darts[1]
    with pytest.raises(TypeError):
        del darts[0]
    for name in ("_twin", "_records", "count", "other"):
        with pytest.raises(AttributeError):
            setattr(darts, name, [])
        with pytest.raises(AttributeError):
            delattr(darts, name)
    assert darts == cold_records(d) and darts[-1] == cold_records(d)[-1]
    assert darts[1:3] == cold_records(d)[1:3]
    # a deep copy or pickle of the view is its tuple of records
    assert copy.copy(d).darts is darts
    for copied in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert copied == d and type(copied.darts) is tuple
        assert dg.validate(copied) == [] and dg.to_json(copied) == dg.to_json(d)


def assert_reads_unchanged(d, before):
    """d's `_flat` lists and face trace are still `before`, and still
    those of an equal copy."""
    after = [x[:] for x in dg._flat(d)], dg._face_traces(d)[:]
    assert after == before
    copy = dataclasses.replace(d)
    assert (list(dg._flat(copy)), dg._face_traces(copy)) == before


def test_an_unfinished_or_refused_build_leaves_the_carried_lists_alone():
    # a build reads its input's carried lists; no move, finished or not,
    # may write them
    d = member(fam.CYCLIC_TORUS, 4)
    before = [x[:] for x in dg._flat(d)], dg._face_traces(d)[:]
    b = sg._Builder(d)
    b.expand(0, sg.LANE_IN)  # never finished
    b.curl(b.tail(0))
    assert_reads_unchanged(d, before)
    b = sg._Builder(d)
    b.disjoint(d)
    with pytest.raises(sg.SurgeryError, match="connectivity"):
        b.finish("union")
    assert_reads_unchanged(d, before)
    # rings given as lists come out as tuples
    lists = dataclasses.replace(d, rotation=[list(r) for r in d.rotation])
    assert_carries_what_a_cold_check_gives(
        sg.expand_vertex(lists, 0, sg.LANE_IN))


@pytest.mark.parametrize("fault, problem", [
    (_cut_ring, "the rotation rings do not list every dart exactly once"),
    (_far_twin, "a dart's twin is out of range"),
], ids=["ring-cut", "twin-99"])
def test_a_corrupted_copy_of_a_built_value_is_refused(fault, problem):
    # the copy shares the darts or the rings of a built diagram, which
    # carries its checked lists; neither the copy nor its JSON read back,
    # which its check refused, carries anything
    d = member(fam.CYCLIC_TORUS, 3)
    assert dg.validate(d) == []
    for bad in (fault(d), dg.from_json(dg.to_json(fault(d)))):
        assert dg.validate(bad)
        for reader in (dg.faces, dg.canonical_code):
            with pytest.raises(dg.DiagramError,
                               match=f"^{re.escape(problem)}"):
                reader(bad)


def test_readers_of_builder_outputs_skip_the_gate(monkeypatch):
    # the type rule runs first in every cold `_flat`, so its calls count
    # the gates run
    calls = []
    type_problem = dg._type_problem
    monkeypatch.setattr(dg, "_type_problem",
                        lambda d: calls.append(d) or type_problem(d))
    d = fam.generate(fam.parse_spec_string("p:k=3,l=4,m=2"))
    dg.faces(d)
    dg.canonical_code(d)
    d.edges()
    assert calls == []
    grown, _, bigon = sg._expand(d, 0, sg.LANE_IN)
    face = face_id_of_darts(grown, bigon)
    sg.contract_bigon(grown, face)
    assert calls == []
    copy = dataclasses.replace(d)
    dg.faces(copy)
    assert calls == [copy]


def test_contraction_reads_the_rings_once_per_map(monkeypatch):
    # `_flat` reads the input's rings and `_made` the result's; the face
    # trace takes its lists from the builder's `_flat` call
    calls = []
    rings = dg._rings

    def counted(rotation, n):
        calls.append(n)
        return rings(rotation, n)

    monkeypatch.setattr(dg, "_rings", counted)
    d = fam.generate(fam.parse_spec_string("p:k=3,l=4,m=2"))
    grown, _, bigon = sg._expand(d, 0, sg.LANE_IN)
    cold = dataclasses.replace(grown)  # carries nothing
    calls.clear()
    back = sg.contract_bigon(cold, face_id_of_darts(grown, bigon))
    assert calls == [len(grown.darts), len(back.darts)]


def test_built_values_read_their_own_lists_across_threads():
    # each thread builds its own members while the others build theirs,
    # and reads every one back after all are built: a value's reads are
    # its own, whatever was built since
    texts = ["cyclic:V=8", "p:k=3,l=4,m=2", "lchain:k=3,n=2", "twistknot:V=8"]
    specs = [fam.parse_spec_string(t) for t in texts]
    refs = []
    for spec in specs:
        d = dataclasses.replace(fam.generate(spec))
        refs.append((dg.faces(d), dg.canonical_code(d), d.edges()))
    errors = []

    def build(spec, ref):
        built = []
        for _ in range(100):
            d = fam.generate(spec)
            built.append((d, sg.expand_vertex(d, 0, sg.LANE_IN)))
        for d, grown in built:
            if (dg.faces(d), dg.canonical_code(d), d.edges()) != ref:
                errors.append(str(spec))
            copy = dataclasses.replace(grown)
            if (dg._flat(grown) != dg._flat(copy)
                    or dg.faces(grown) != dg.faces(copy)
                    or dg.validate(copy) != []):
                errors.append(str(spec))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=pair)
                   for pair in zip(specs, refs)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []


# ---------------------------------------------------------------------------
# Every reader on a carried value equals the same reader on a cold copy
# ---------------------------------------------------------------------------

def result_or_error(call, *args):
    """call(*args), or the type and text of the DiagramError it raises."""
    try:
        return call(*args)
    except dg.DiagramError as exc:
        return type(exc), str(exc)


def assert_reads_equal_a_cold_copy(d, face=None):
    """Every reader and then `contract_bigon` (at `face`, else at d's
    first bigon, else at face 0) give on d, which carries what its
    constructor checked, what they give on an equal copy, which carries
    nothing and is checked afresh.  Returns the contraction's result on
    the copy."""
    copy = dataclasses.replace(d)
    for reader in (dg.validate, dg.Diagram.edges, *READERS):
        hot, cold = result_or_error(reader, d), result_or_error(reader, copy)
        assert hot == cold, reader
    if face is None:
        sizes = [len(t) for t in dg.faces(copy)[0]]
        face = sizes.index(2) if 2 in sizes else 0
    hot = result_or_error(sg.contract_bigon, d, face)
    cold = result_or_error(sg.contract_bigon, copy, face)
    assert hot == cold
    return cold


def test_readers_of_a_built_value_equal_cold_reads_on_sweep():
    count = 0
    for s in (s for f in fam.FAMILIES for s in f.sweep(8)):
        assert_reads_equal_a_cold_copy(fam.generate(s))
        count += 1
    assert count == 852


@pytest.mark.parametrize("text", ["twistknot:V=8", "p:k=3,l=4,m=2",
                                  "lchain:k=3,n=2"])
def test_readers_of_a_built_value_equal_cold_reads_on_round_trips(text):
    d = fam.generate(fam.parse_spec_string(text))
    code = dg.canonical_code(dataclasses.replace(d))
    for v in range(d.vertex_count):
        for lane in sg.LANES:
            grown, _, bigon = sg._expand(d, v, lane)
            back = assert_reads_equal_a_cold_copy(
                grown, face_id_of_darts(grown, bigon))
            assert back.vertex_count == d.vertex_count, (v, lane)
            assert dg.canonical_code(back) == code, (v, lane)
            assert_reads_equal_a_cold_copy(back)
            assert_reads_equal_a_cold_copy(dg.from_json(dg.to_json(back)))


def test_a_round_trip_traces_faces_twice(monkeypatch):
    # once in each `finish`, for its Euler check; `validate`, `faces` and
    # the contraction read the trace the diagram carries
    calls = []
    traces = dg._traces
    monkeypatch.setattr(dg, "_traces",
                        lambda twin, succ: calls.append(len(twin))
                        or traces(twin, succ))
    for text in ("twistknot:V=8", "p:k=3,l=4,m=2", "lchain:k=3,n=2"):
        d = fam.generate(fam.parse_spec_string(text))
        for v in range(d.vertex_count):
            for lane in sg.LANES:
                calls.clear()
                grown = sg.expand_vertex(d, v, lane)
                assert dg.validate(grown) == []
                face_list, _ = dg.faces(grown)
                bigon = next(i for i, t in enumerate(face_list)
                             if len(t) == 2 and min(t) >= len(d.darts))
                back = sg.contract_bigon(grown, bigon)
                assert calls == [len(grown.darts), len(back.darts)]


def test_validate_answers_from_the_carried_check(monkeypatch):
    d = fam.generate(fam.parse_spec_string("p:k=3,l=4,m=2"))
    calls = []
    type_problem, map_problems = dg._type_problem, dg._map_problems
    monkeypatch.setattr(dg, "_type_problem",
                        lambda d: calls.append("type") or type_problem(d))
    monkeypatch.setattr(dg, "_map_problems",
                        lambda *a: calls.append("map") or map_problems(*a))
    assert dg.validate(d) == [] and calls == []
    assert dg.validate(dataclasses.replace(d)) == []
    assert calls == ["type", "map"]


def test_an_equal_copy_is_checked_afresh():
    # Dart(True, ...) == Dart(1, ...), so the copy equals a built diagram
    # by value; only what a constructor checked may be carried
    d = member(fam.CYCLIC_TORUS, 3)
    darts = list(d.darts)
    darts[1] = dataclasses.replace(darts[1], id=True)
    copy = dataclasses.replace(d, darts=tuple(darts))
    assert copy == d and dg.validate(d) == []
    problem = "dart 1: id must be an integer, got True"
    assert dg.validate(copy) == [problem]
    for reader in (dg.faces, face_orientations, dg.canonical_code,
                   lambda x: sg.contract_bigon(x, 0)):
        with pytest.raises(dg.DiagramError, match=f"^{problem}$"):
            reader(copy)


def test_a_build_refused_at_euler_leaves_the_carried_lists_alone():
    # the refused build rewired the twins of its input's lists; the input
    # still reads as a cold copy of it does
    d = member(fam.CYCLIC_TORUS, 4)
    before = [x[:] for x in dg._flat(d)], dg._face_traces(d)[:]
    b = sg._Builder(d)
    a, c = b.tail(0), b.tail(5)  # cross two heads: a map on the torus
    head_a, head_c = b.twin[a], b.twin[c]
    b.twin[a], b.twin[head_c], b.twin[c], b.twin[head_a] = head_c, a, head_a, c
    with pytest.raises(sg.SurgeryError, match="euler: face tracing gives 4"):
        b.finish("crossing")
    assert_reads_unchanged(d, before)
    assert_reads_equal_a_cold_copy(d)
