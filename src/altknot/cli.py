"""Command-line front end.

Subcommands: ``gen`` writes a family member as JSON or DOT, ``charpoly``
prints a characteristic polynomial, ``verify`` sweeps generators against
their closed forms, ``census`` reports faces and coefficient rules,
``components`` counts strands and ``decompose`` prints the permutation
splittings, each as it is made.  Exit codes: 0 success / all pass, 1
verification failure (or output cut short by a closed pipe), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import diagram as dg
from . import families as fam
from . import polynomials as poly
from . import spectra as sp
from .limits import decimal_int

_USAGE_ERROR = 2
_VERIFY_FAILURE = 1
_OUTPUT_CUT = 1  # stdout closed early; what Python itself exits with on EPIPE


class InputError(Exception):
    pass


def _load_source(text: str,
                 matrix: bool = False) -> dg.Diagram | sp.AdjMatrix:
    """Family spec string or path to a diagram JSON document; with
    `matrix`, also a path to a matrix file (text or JSON rows).

    A file is classified once: a document starting with `{` is a diagram,
    and with `matrix` any other is a matrix, so a parse error is always
    that of the file's own kind.  A diagram is validated before use, so a
    malformed one is an input error rather than a crash further down the
    pipeline.  A matrix must be an adjacency matrix (square, nonempty,
    nonnegative, every row and column summing to 2) like the ones diagrams
    give.  An empty or blank source names neither, and is refused.
    """
    if not text.strip():
        raise InputError(f"source {text!r} is empty: give a family spec "
                         "or a file")
    try:
        return fam.generate(fam.parse_spec_string(text))
    except fam.FamilyError as spec_err:
        if ":" in text and not os.path.exists(text):
            raise InputError(str(spec_err)) from spec_err
    path = Path(text)
    if not path.exists():
        raise InputError(f"{text!r} is neither a family spec nor a file")
    try:
        doc = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{text}: {exc}") from exc
    failure = "not a diagram or matrix: " if matrix else ""
    if matrix and not doc.lstrip().startswith("{"):
        try:
            m = sp.parse_matrix(doc)
        except (ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"{text}: {failure}{exc}") from exc
        problems = m.problems()
        if problems:
            raise InputError(f"{text}: not an adjacency matrix: "
                             + "; ".join(problems))
        return m
    try:
        d = dg.from_json(doc)
    except dg.DiagramFormatError as exc:
        raise InputError(f"{text}: {failure}{exc}") from exc
    problems = dg.validate(d)  # [] without a second check when d is valid
    if problems:
        raise InputError(f"{text}: invalid diagram: " + "; ".join(problems))
    return d


def _load_matrix_source(text: str) -> sp.AdjMatrix:
    source = _load_source(text, matrix=True)
    return source if isinstance(source, sp.AdjMatrix) else sp.adjacency(source)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    d = fam.generate(fam.parse_spec_string(args.spec))
    text = dg.to_json(d, indent=2) + "\n" if args.format == "json" else dg.to_dot(d)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def cmd_charpoly(args: argparse.Namespace) -> int:
    m = _load_matrix_source(args.source)
    print(poly.charpoly(m))
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    d = _load_source(args.source)
    _, census = dg.faces(d)
    loops = d.loop_count()
    parts = [" ".join(f"C_{j}={c}" for j, c in sorted(census.counts.items()))]
    parts.append(f"loops={loops}")
    if census.counts.get(1, 0):
        parts.append("face_identity: skipped (loops present)")
    else:
        parts.append("face_identity: "
                     + ("pass" if dg.check_face_identity(census) else "fail"))
    report = poly.coefficient_report(poly.charpoly(sp.adjacency(d)),
                                     census, loops)
    parts.append("coeffs: " + ("pass" if report.all_pass() else "fail"))
    print("; ".join(parts))
    return 0 if report.all_pass() else _VERIFY_FAILURE


def cmd_components(args: argparse.Namespace) -> int:
    m = _load_matrix_source(args.source)
    print(sp.trace_strands(m).count)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    m = _load_matrix_source(args.source)
    dec = sp.trace_strands(m)
    count, pairs = sp.decompositions(dec)
    print(f"strands: {dec.count}")
    print(f"canonical decompositions: {count}")
    text: dict[tuple[int, ...], str] = {}  # every row is one of V unit rows
    for idx, pair in enumerate(pairs):
        p1, p2 = ["\n".join([text.get(row) or text.setdefault(
            row, " ".join(map(str, row))) for row in p]) for p in pair]
        print(f"decomposition {idx}:\nP1:\n{p1}\nP2:\n{p2}")
    return 0


# ---------------------------------------------------------------------------
# verify sweeps
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    rows: list[tuple[str, str, str, bool, str, str]] = []
    for family in fam.FAMILIES:
        if args.family not in ("all", family.prefix):
            continue
        for spec in family.sweep(args.max):
            res = fam.verify_member(spec)
            rows.append((family.prefix, fam.spec_string(spec),
                         str(res.generated.degree), res.match,
                         str(res.generated), str(res.formula)))
    if args.family in ("all", "identities"):
        for key, ok in fam.check_identities(args.max).items():
            rows.append(("identities", key, "", ok, "", ""))

    all_ok = all(r[3] for r in rows)
    if args.report == "csv":
        print("family,params,V,match,generated_poly,formula_poly")
        for name, params, v, ok, gen, formula in rows:
            print(f'{name},{params},{v},{str(ok).lower()},"{gen}","{formula}"')
    else:
        for name, params, v, ok, gen, formula in rows:
            status = "ok" if ok else "MISMATCH"
            tail = f"  {gen}" if gen else ""
            print(f"{status:9s} {name:14s} {params:22s} V={v:3s}{tail}")
        print(f"{len(rows)} rows, "
              + ("all match" if all_ok else "MISMATCHES PRESENT"))
    return 0 if all_ok else _VERIFY_FAILURE


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altknot",
        description="Alternating knot/link/twist diagrams, their exact "
                    "characteristic polynomials, and family verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family member")
    p_gen.add_argument("spec", help="family spec, e.g. cyclic:V=5")
    p_gen.add_argument("--out", help="output path (default: stdout)")
    p_gen.add_argument("--format", choices=("json", "dot"), default="json")
    p_gen.set_defaults(func=cmd_gen)

    p_charpoly = sub.add_parser("charpoly",
                                help="characteristic polynomial of a spec, "
                                     "diagram JSON, or matrix file")
    p_charpoly.add_argument("source")
    p_charpoly.set_defaults(func=cmd_charpoly)

    p_verify = sub.add_parser("verify",
                              help="sweep generators against closed forms")
    p_verify.add_argument("--family", default="all",
                          choices=("all", "identities",
                                   *(f.prefix for f in fam.FAMILIES)))
    p_verify.add_argument("--max", type=decimal_int, default=8,
                          help="largest index swept (default 8); the "
                               f"identities stop at {fam.IDENTITY_MAX}")
    p_verify.add_argument("--report", choices=("csv", "text"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_census = sub.add_parser("census",
                              help="face census, face identity, coefficient "
                                   "rules")
    p_census.add_argument("source")
    p_census.set_defaults(func=cmd_census)

    p_comp = sub.add_parser("components", help="number of closed strands")
    p_comp.add_argument("source")
    p_comp.set_defaults(func=cmd_components)

    p_dec = sub.add_parser("decompose",
                           help="permutation-matrix decompositions")
    p_dec.add_argument("source")
    p_dec.set_defaults(func=cmd_decompose)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (fam.FamilyError, InputError, dg.DiagramError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`).  Send what is still
        # buffered to devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _OUTPUT_CUT
    return code


if __name__ == "__main__":
    sys.exit(main())
