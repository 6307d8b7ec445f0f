"""The benchmark's workloads.

Each workload turns a seed into inputs during set-up, then hands out passes:
lists of items, each item one member processed start to finish.  Every
call into altknot that a per-layer metric covers goes through
``tracer.call("<module>.<function>", ...)``; the rest of an item (the
correctness checks and their bookkeeping) is the harness's own time.

The member universes and the digests of their correct outputs live in
``expected/<workload>.json``, written by ``record.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from altknot import cli
from altknot import diagram as dg
from altknot import families as fam
from altknot import polynomials as poly
from altknot import spectra as sp
from altknot import surgery as sg

from harness import digest

EXPECTED = Path(__file__).resolve().parent / "expected"

#: the one item of `sweep` that goes through the command-line front end
CLI_ARGV = ["verify", "--family", "identities", "--max", "8"]
CLI_KEY = "cli " + " ".join(CLI_ARGV)

_X_MINUS_2 = poly.X - 2


class CheckFailed(Exception):
    """An output disagreed with its closed form, a law or its digest."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text())


def nonzeros(m: sp.AdjMatrix) -> int:
    return sum(1 for row in m.rows for v in row if v)


def check_digest(expected: dict[str, str], key: str, text: str) -> None:
    """The gate against the recorded outputs: `text` must hash to the
    digest recorded for `key`."""
    _require(digest(text) == expected.get(key),
             f"{key}: output digest differs from the recorded one")


def _charpoly(t, m: sp.AdjMatrix) -> poly.IntPoly:
    p = t.call("polynomials.charpoly", poly.charpoly, m)
    if t.on:
        t.add("polynomials.charpoly.madds", nonzeros(m) * m.n * m.n)
        t.peak("polynomials.charpoly.coeff_bits_max",
               max(abs(c) for c in p.coeffs).bit_length())
    return p


def verify_member(t, key: str, spec: fam.FamilySpec,
                  expected: dict[str, str]) -> None:
    """generate -> adjacency -> charpoly -> closed_form -> compare, plus the
    eigenvalue-2 and coefficient-rule checks and the digest gate."""
    d = t.call("families.generate", fam.generate, spec)
    m = t.call("spectra.adjacency", sp.adjacency, d)
    p = _charpoly(t, m)
    formula = t.call("families.closed_form", fam.closed_form, spec)
    _, census = t.call("diagram.faces", dg.faces, d)
    _require(p == formula, f"{key}: generated {p} != closed form {formula}")
    _require(p(2) == 0, f"{key}: p(2) != 0")
    _require(poly.divide_out(p, _X_MINUS_2)[1], f"{key}: (x - 2) does not divide")
    _require(poly.coefficient_report(p, census, d.loop_count()).all_pass(),
             f"{key}: coefficient rules fail")
    check_digest(expected, key, str(p))


def check_laws(t, key: str, d: dg.Diagram, m: sp.AdjMatrix, vertex: int,
               lane: str, expected: dict[str, str]) -> None:
    """The laws item: coefficient rules, power sums against closed-path
    counts, strands and decompositions, canonical code, and the surgery
    round trip at (vertex, lane)."""
    n = d.vertex_count
    p = _charpoly(t, m)
    check_digest(expected, key, str(p))

    # 1. faces and the coefficient rules
    _, census = t.call("diagram.faces", dg.faces, d)
    _require(poly.coefficient_report(p, census, d.loop_count()).all_pass(),
             f"{key}: coefficient rules fail")

    # 2. Newton power sums against closed-path counts trace(M^k)
    sums = t.call("polynomials.power_sums_from_charpoly",
                  poly.power_sums_from_charpoly, p, n)
    for k in range(1, n + 1):
        count = t.call("spectra.closed_path_count", sp.closed_path_count, m, k)
        _require(count == sums[k - 1], f"{key}: trace(M^{k}) != power sum")
    if t.on:
        t.add("spectra.closed_path_count.sparse_products",
              nonzeros(m) * n * n * (n - 1) // 2)

    # 3. strands and permutation decompositions, P1 + P2 = M
    strands = t.call("spectra.trace_strands", sp.trace_strands, m)
    pairs = t.call("spectra.permutation_decompositions",
                   sp.permutation_decompositions, m)
    masks = 2 ** (strands.count - 1)
    _require(1 <= len(pairs) <= masks and (strands.count > 1 or len(pairs) == 1),
             f"{key}: {len(pairs)} decompositions for {strands.count} strands")
    for p1, p2 in pairs:
        _require(tuple(tuple(a + b for a, b in zip(r1, r2))
                       for r1, r2 in zip(p1, p2)) == m.rows,
                 f"{key}: P1 + P2 != M")
    if t.on:
        t.add("spectra.permutation_decompositions.pairs", len(pairs))
        t.add("spectra.permutation_decompositions.masks", masks)

    # 4. canonical code
    code = t.call("diagram.canonical_code", dg.canonical_code, d)

    # 5. expand -> validate -> contract the new bigon -> isomorphic again
    grown = t.call("surgery.expand_vertex", sg.expand_vertex, d, vertex, lane)
    problems = t.call("diagram.validate", dg.validate, grown)
    _require(not problems, f"{key}: expansion at {vertex}/{lane} invalid")
    faces, _ = t.call("diagram.faces", dg.faces, grown)
    # expansion appends the bigon's darts after the existing ones
    bigon = next((i for i, face in enumerate(faces)
                  if len(face) == 2 and min(face) >= len(d.darts)), None)
    _require(bigon is not None, f"{key}: no new bigon after expanding {vertex}")
    back = t.call("surgery.contract_bigon", sg.contract_bigon, grown, bigon)
    _require(back.vertex_count == n
             and t.call("diagram.canonical_code", dg.canonical_code, back) == code,
             f"{key}: round trip at {vertex}/{lane} is not isomorphic")


class Sweep:
    """The `verify --max 8` member set plus one `verify --family identities`
    run through `cli.main`; each pass is the whole set in seeded order."""

    def __init__(self, seed: int) -> None:
        data = load_expected("sweep")
        self.expected = data["digests"]
        self.items = [(key, fam.parse_spec_string(key)) for key in data["members"]]
        self.items.append((CLI_KEY, None))
        self.rng = random.Random(seed)

    def next_pass(self) -> list:
        order = list(self.items)
        self.rng.shuffle(order)
        return order

    def run(self, item, t) -> None:
        key, spec = item
        if spec is not None:
            verify_member(t, key, spec, self.expected)
            return
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = t.call("cli.main", cli.main, list(CLI_ARGV))
        _require(code == 0, f"{key}: exit code {code}")
        check_digest(self.expected, key, out.getvalue())


class Laws:
    """Structural laws on medium members.  A slot fixes V and the strand
    count, so every pass does about the same work.  Set-up builds the
    diagram and matrix of every candidate; each pass picks one candidate
    per slot and visits the slots in seeded order, with a seeded vertex and
    lane for the surgery."""

    def __init__(self, seed: int) -> None:
        data = load_expected("laws")
        self.expected = data["digests"]
        built = {}
        for key in sorted({key for slot in data["slots"] for key in slot}):
            d = fam.generate(fam.parse_spec_string(key))
            built[key] = (key, d, sp.adjacency(d))
        self.slots = [[built[key] for key in slot] for slot in data["slots"]]
        self.rng = random.Random(seed)

    def next_pass(self) -> list:
        picks = [self.rng.choice(slot) for slot in self.slots]
        self.rng.shuffle(picks)
        return [(member, self.rng.randrange(member[1].vertex_count),
                 self.rng.choice(sg.LANES)) for member in picks]

    def run(self, item, t) -> None:
        (key, d, m), vertex, lane = item
        check_laws(t, key, d, m, vertex, lane, self.expected)


WORKLOADS = {"sweep": Sweep, "laws": Laws}
