"""Write expected/*.json: each workload's member universe and the digests of
its correct outputs.

Run from the repository root, at a commit whose test suite passes:

    python3 perfbench/record.py

Every member recorded for `sweep` must match its closed form; every
`laws` candidate must pass the laws item and the surgery round trip at every
vertex and lane, so that no seed can pick an input on which an operation
fails.  The harness then checks each run's outputs against these digests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from collections import defaultdict
from pathlib import Path

from run import MAX_V

HERE = Path(__file__).resolve().parent
os.environ["ALTKNOT_MAX_V"] = str(MAX_V)
sys.path.insert(0, str(HERE.parent / "src"))

from altknot import cli  # noqa: E402
from altknot import diagram as dg  # noqa: E402
from altknot import families as fam  # noqa: E402
from altknot import polynomials as poly  # noqa: E402
from altknot import spectra as sp  # noqa: E402
from altknot import surgery as sg  # noqa: E402

from harness import NullTracer, digest  # noqa: E402
import workloads  # noqa: E402

SINGLE_V = ("cyclic", "twistchain", "hopftwist", "trefoiltwist",
            "fourknottwist", "twistknot")

#: (V, strand count) of each `laws` slot.  The 26 slots are ranked by cost
#: so that each reported percentile sits inside a cluster of similar items
#: rather than between two: ten cheaper slots, then the six V = 24 slots
#: (ranks 11-16, centred on the median, 13.5), then ten dearer ones, of
#: which the four 8-strand links at V = 32 are the slowest (ranks 23-26,
#: around the 90th percentile, 23.4).
LAWS_SLOTS = [(16, 1), (16, 1), (16, 2), (16, 2), (16, 4), (16, 8),
              (20, 1), (20, 1), (20, 2), (20, 5),
              (24, 1), (24, 1), (24, 2), (24, 2), (24, 3), (24, 6),
              (20, 10), (28, 1), (28, 2), (28, 3), (32, 1), (32, 2),
              (32, 8), (32, 8), (32, 8), (32, 8)]
PER_FAMILY = 2

_CSV_ROW = re.compile(r'^([^,]+),(.+),(\d+),(true|false),"([^"]*)","([^"]*)"$')


def _capture(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def record_sweep() -> dict:
    code, text = _capture(["verify", "--max", "8", "--report", "csv"])
    if code != 0:
        raise SystemExit("verify --max 8 reports mismatches; nothing recorded")
    members, digests = [], {}
    for line in text.splitlines()[1:]:
        if line.startswith("identities,"):
            continue
        _, key, _, _, generated, _ = _CSV_ROW.match(line).groups()
        members.append(key)
        digests[key] = digest(generated)
    code, text = _capture(list(workloads.CLI_ARGV))
    if code != 0:
        raise SystemExit("verify --family identities fails; nothing recorded")
    digests[workloads.CLI_KEY] = digest(text)
    return {"members": members, "digests": digests}


def members_at(v: int) -> list[str]:
    """Every member of every family with v crossings."""
    out = [f"{prefix}:V={v}" for prefix in SINGLE_V]
    out += [f"f:j={j},k={v - j}" for j in range(1, v)]
    out += [f"p:k={k},l={l},m={v - k - l}"
            for k in range(1, v) for l in range(1, v - k)]
    out += [f"g:k={k},l={l},m={v - k - l}" for k in range(1, v)
            for l in range(1, v - k) if k >= l >= v - k - l]
    if v % 2 == 0:
        out.append(f"chain:k={v // 2}")
    out += [f"kribbon:k={k},m={v // k}" for k in range(1, v + 1) if v % k == 0]
    out += [f"lchain:k={k},n={v - 2 * k}" for k in range(0, (v + 1) // 2)]
    return out


def _candidates(members: list[str]) -> list[str]:
    """Up to PER_FAMILY members of each family, evenly spaced in its list."""
    by_family: dict[str, list[str]] = defaultdict(list)
    for key in members:
        by_family[key.split(":")[0]].append(key)
    out = []
    for family in sorted(by_family):
        keys = by_family[family]
        step = max(1, len(keys) // PER_FAMILY)
        out += keys[::step][:PER_FAMILY]
    return out


def _check_laws_member(key: str) -> str:
    """Run the laws item at every vertex and lane; return the digest."""
    d = fam.generate(fam.parse_spec_string(key))
    m = sp.adjacency(d)
    p = poly.charpoly(m)
    expected = {key: digest(str(p))}
    workloads.check_laws(NullTracer(), key, d, m, 0, sg.LANE_OUT, expected)
    base = len(d.darts)
    code = dg.canonical_code(d)
    for vertex in range(d.vertex_count):
        for lane in sg.LANES:
            grown = sg.expand_vertex(d, vertex, lane)
            faces, _ = dg.faces(grown)
            bigon = next(i for i, face in enumerate(faces)
                         if len(face) == 2 and min(face) >= base)
            if dg.validate(grown) or dg.canonical_code(
                    sg.contract_bigon(grown, bigon)) != code:
                raise SystemExit(f"{key}: round trip fails at {vertex}/{lane}")
    return expected[key]


def record_laws() -> dict:
    classes: dict[tuple[int, int], list[str]] = defaultdict(list)
    for v in sorted({v for v, _ in LAWS_SLOTS}):
        for key in members_at(v):
            strands = dg.component_count(fam.generate(fam.parse_spec_string(key)))
            classes[(v, strands)].append(key)
    slots = [_candidates(classes[slot]) for slot in LAWS_SLOTS]
    digests = {}
    for slot, keys in zip(LAWS_SLOTS, slots):
        if not keys:
            raise SystemExit(f"no member with V, strands = {slot}")
        for key in keys:
            if key not in digests:
                digests[key] = _check_laws_member(key)
                print(f"  laws {key} ok", file=sys.stderr)
    return {"slots": slots, "digests": digests}


def main() -> None:
    for name, build in (("sweep", record_sweep), ("laws", record_laws)):
        data = build()
        path = workloads.EXPECTED / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}: "
              f"{len(data['digests'])} digests", file=sys.stderr)


if __name__ == "__main__":
    main()
