import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from altknot import diagram as dg
from altknot import families as fam
from altknot import spectra as sp
from altknot.cli import main
from altknot.limits import decimal_int, max_vertices
from altknot.polynomials import charpoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """The environment of a fresh CLI process: this checkout's src/ first
    on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "cyclic:V=3", "--format", "dot")
    assert code == 0
    assert out.count("->") == 6
    assert out.count(";") >= 9  # 3 nodes + 6 arcs


def test_gen_json(capsys, tmp_path):
    path = tmp_path / "four.json"
    code, _, _ = run(capsys, "gen", "f:j=2,k=2", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["vertex_count"] == 4
    assert doc["version"] == 1


def test_gen_unwritable_out_is_input_error(capsys, tmp_path):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "gen", "cyclic:V=3", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output:") and str(target) in err


def test_gen_out_of_range(capsys):
    code, _, err = run(capsys, "gen", "cyclic:V=0")
    assert code == 2
    assert "V out of range" in err


def test_gen_out_of_range_names_the_family_as_typed(capsys):
    code, out, err = run(capsys, "gen", "p:k=0,l=1,m=1")
    assert (code, out) == (2, "")
    assert err == "error: p: k out of range (k >= 1, got 0)\n"


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source,expected", [
    ("cyclic:V=3", "x^3 - 3*x - 2"),
    ("twistchain:V=1", "x - 2"),
    ("twistknot:V=4", "x^4 - 2*x^2 - 4*x"),
])
def test_charpoly_specs(capsys, source, expected):
    code, out, _ = run(capsys, "charpoly", source)
    assert code == 0
    assert out.strip() == expected


def test_charpoly_round_trip_through_file(capsys, tmp_path):
    path = tmp_path / "d.json"
    assert run(capsys, "gen", "g:k=2,l=2,m=1", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "charpoly", str(path))
    assert code == 0
    d = fam.generate(fam.parse_spec_string("g:k=2,l=2,m=1"))
    assert out.strip() == str(charpoly(sp.adjacency(d)))


def test_charpoly_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0 1 1\n1 0 1\n1 1 0\n")
    code, out, _ = run(capsys, "charpoly", str(path))
    assert code == 0 and out.strip() == "x^3 - 3*x - 2"
    jpath = tmp_path / "m.json"
    jpath.write_text("[[0,2],[2,0]]")
    code, out, _ = run(capsys, "charpoly", str(jpath))
    assert code == 0 and out.strip() == "x^2 - 4"


def test_charpoly_missing_input(capsys):
    # int() reads 1_0 as 10 and the Arabic-Indic digit three as 3, so
    # these specs once built V = 10 and V = 3
    for source in ("no_such_file.json", "cyclic:V=1_0", "cyclic:V=\u0663"):
        code, _, err = run(capsys, "charpoly", source)
        assert code == 2 and "error:" in err, source


@pytest.mark.parametrize("command",
                         ["charpoly", "census", "components", "decompose"])
@pytest.mark.parametrize("source", ["", "  "])
def test_empty_source_is_input_error_saying_so(capsys, command, source):
    # an empty path once read the current directory
    code, out, err = run(capsys, command, source)
    assert code == 2 and out == ""
    assert err == (f"error: source {source!r} is empty: give a family "
                   "spec or a file\n")


@pytest.mark.parametrize("command", ["charpoly", "census"])
def test_undecodable_file_is_input_error_naming_it(capsys, tmp_path, command):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe[[0]]")
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: ") and "utf-8" in err


@pytest.mark.parametrize("command", ["charpoly", "components", "decompose"])
@pytest.mark.parametrize("doc", [
    "[1, 2]",              # rows that are not lists
    "[[0,2],[2,0.9]]",     # a float, once truncated to another matrix
    "[[0,2],[2,true]]",    # a boolean, once read as 1
])
def test_json_matrix_entries_must_be_integers(capsys, tmp_path, command, doc):
    path = tmp_path / "m.json"
    path.write_text(doc)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "rows of integers" in err


@pytest.mark.parametrize("command", ["charpoly", "components", "decompose"])
@pytest.mark.parametrize("doc,problem", [
    ("[[0,2],[2,5]]", "row 1 sums to 7"),  # square integers, not 2-in/2-out
    ("[]", "matrix is empty"),
    ("", "matrix is empty"),                  # an empty text matrix
])
def test_matrix_file_must_be_adjacency(capsys, tmp_path, command, doc,
                                       problem):
    path = tmp_path / "m.txt"
    path.write_text(doc)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not an adjacency matrix" in err
    assert problem in err


@pytest.mark.parametrize("doc", ["0 0_2\n0_2 0", "0 \u0662\n\u0662 0"])
def test_matrix_text_must_be_ascii_decimal(capsys, tmp_path, doc):
    # int() reads 0_2 and the Arabic-Indic digit two as 2, so such a file
    # once printed x^2 - 4 and exited 0
    path = tmp_path / "m.txt"
    path.write_text(doc, encoding="utf-8")
    code, out, err = run(capsys, "charpoly", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "is not a decimal integer" in err


@pytest.mark.parametrize("command", ["census", "charpoly"])
@pytest.mark.parametrize("spec", ["p:k=3,l=4,m=2", "kribbon:k=4,m=3",
                                  "lchain:k=3,n=4"])
def test_a_spec_and_its_json_give_the_same_output(capsys, tmp_path, command,
                                                  spec):
    # the spec's diagram carries the face trace and verdict of the
    # builder's check; its JSON is checked by from_json from the records
    path = tmp_path / "d.json"
    assert main(["gen", spec, "--out", str(path)]) == 0
    hot = run(capsys, command, spec)
    assert hot[0] == 0 and hot[1]
    assert run(capsys, command, str(path)) == hot


@pytest.mark.parametrize("spec, checks", [
    ("kribbon:k=4,m=3", {"type": 0, "trace": 1}),
    ("KRIBBON_JSON", {"type": 1, "trace": 1}),
])
def test_a_diagram_is_checked_once_per_census(capsys, tmp_path, monkeypatch,
                                               spec, checks):
    # a spec's member is checked by the builder's `finish`, whose Euler
    # check traces the faces; a JSON diagram by `from_json`, which applies
    # the type rule too; `validate` and `faces` read what either carries
    if spec == "KRIBBON_JSON":
        spec = str(tmp_path / "d.json")
        assert main(["gen", "kribbon:k=4,m=3", "--out", spec]) == 0
    calls = {"type": 0, "trace": 0}
    type_problem, traces = dg._type_problem, dg._traces

    def counted_type(d):
        calls["type"] += 1
        return type_problem(d)

    def counted_trace(twin, succ):
        calls["trace"] += 1
        return traces(twin, succ)

    monkeypatch.setattr(dg, "_type_problem", counted_type)
    monkeypatch.setattr(dg, "_traces", counted_trace)
    assert run(capsys, "census", spec)[0] == 0
    assert calls == checks


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_cyclic_csv(capsys):
    code, out, _ = run(capsys, "verify", "--family", "cyclic",
                       "--max", "20", "--report", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,params,V,match,generated_poly,formula_poly"
    assert len(lines) == 21
    assert all(",true," in line for line in lines[1:])


def test_verify_empty_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--family", "cyclic", "--max", "0")
    assert code == 0
    assert "0 rows" in out
    for maximum in ("1_0", "\u0663"):  # once swept to 10 and to 3
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--family", "cyclic", "--max", maximum)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("maximum", ["0", "-3"])
def test_verify_checks_nothing_below_one(capsys, maximum):
    # every identity's index range is empty there, so none may read "ok"
    for family in ("all", "identities", *(f.prefix for f in fam.FAMILIES)):
        code, out, _ = run(capsys, "verify", "--family", family,
                           "--max", maximum)
        assert code == 0
        assert out == "0 rows, all match\n", family


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "--family", "identities",
                       "--max", "6")
    assert code == 0
    assert "all match" in out


def test_verify_identities_past_their_cap_prints_the_caps_bytes(capsys):
    capped = run(capsys, "verify", "--family", "identities", "--max", "30")
    assert capped[0] == 0
    assert run(capsys, "verify", "--family", "identities",
               "--max", "1000") == capped


def test_verify_two_ribbon(capsys):
    code, out, _ = run(capsys, "verify", "--family", "f", "--max", "5")
    assert code == 0


def test_verify_all_csv_golden(capsys):
    # pins the whole sweep: family order, member order, spec strings, the V
    # column, both polynomials and the identity rows (268 lines)
    code, out, _ = run(capsys, "verify", "--max", "5", "--report", "csv")
    assert code == 0
    assert len(out.splitlines()) == 268
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4b00271bbb709ddd8aba91564cf7161c6d635eee57bfa4edc0e8327aad2cfcf")


@pytest.mark.parametrize("value", ["0", "-5", "abc", "1_0", "\u0663"])
def test_bad_vertex_cap_is_input_error(capsys, monkeypatch, value):
    monkeypatch.setenv("ALTKNOT_MAX_V", value)
    with pytest.raises(ValueError, match="ALTKNOT_MAX_V"):
        max_vertices()
    for argv in (["verify", "--family", "cyclic", "--max", "3"],
                 ["charpoly", "cyclic:V=3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ALTKNOT_MAX_V") and repr(value) in err


@pytest.mark.parametrize("text,value", [
    ("0", 0), ("64", 64), ("007", 7), ("+7", 7), ("-3", -3), ("-0", 0),
    (" 12\n", 12), ("\t+5 ", 5), ("123456789012345678901234567890",
                                   123456789012345678901234567890),
    ("", None), (" ", None), ("+", None), ("-", None), ("1_0", None),
    ("\u0663", None), ("\u00b2", None), ("\uff12", None), ("+-2", None),
    ("--2", None), ("2.0", None), ("0x2", None), ("2e0", None),
    ("1 0", None), ("+ 1", None), ("2-", None), (5, None), (b"5", None),
    (None, None),
])
def test_decimal_int_accepts_signed_ascii_digits_only(text, value):
    # an optional sign and ASCII digits, inside whitespace: int() would
    # read 1_0, the Arabic-Indic three and the fullwidth two, and
    # str.isdigit() accepts the superscript two
    if value is None:
        with pytest.raises(ValueError, match="is not a decimal integer"):
            decimal_int(text)
    else:
        assert decimal_int(text) == value


# ---------------------------------------------------------------------------
# census / components / decompose
# ---------------------------------------------------------------------------

def test_census_trefoil(capsys):
    code, out, _ = run(capsys, "census", "cyclic:V=3")
    assert code == 0
    assert "C_2=3" in out and "C_3=2" in out
    assert "face_identity: pass" in out and "coeffs: pass" in out


def test_census_four_knot(capsys):
    code, out, _ = run(capsys, "census", "f:j=2,k=2")
    assert code == 0
    assert "C_2=2" in out and "C_3=4" in out


def test_census_twist_skips_identity(capsys):
    code, out, _ = run(capsys, "census", "twistchain:V=2")
    assert code == 0
    assert "loops=2" in out and "skipped" in out


def test_components(capsys):
    code, out, _ = run(capsys, "components", "cyclic:V=4")
    assert code == 0 and out.strip() == "2"


def test_decompose_trefoil(capsys):
    code, out, _ = run(capsys, "decompose", "cyclic:V=3")
    assert code == 0
    assert "strands: 1" in out
    assert "canonical decompositions: 1" in out
    assert "0 1 0" in out  # the cyclic permutation appears


def test_decompose_multi_component(capsys):
    code, out, _ = run(capsys, "decompose", "chain:k=2")
    assert code == 0
    assert "canonical decompositions: 2" in out


# sha256 of the whole `decompose` output: the strand count, the pair count
# and every pair in enumeration order
@pytest.mark.parametrize("source,digest", [
    ("chain:k=8",
     "3255edaff5396c1b6ff8a72c2d84d4943c24d4e4b0f83a73a9a7ac5e83b64043"),
    ("lchain:k=3,n=4",
     "e32c7fb24d1a912ce5ded65eb84e2bddb9609a92802366efd4a7d9203fe55c49"),
    ("cyclic:V=2",
     "487b912ce7741d3f66ce3dc6ff27f03a9ebecad664c4886eafce72ed0a68f1bd"),
    ("hopftwist:V=6",
     "5faaa887759c093439229e401d5a44385ed63903165a3f3808ada5b7cb3f5b8e"),
])
def test_decompose_output_is_golden(capsys, source, digest):
    code, out, _ = run(capsys, "decompose", source)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def decompose_text(m):
    """`decompose`'s output rendered from `permutation_decompositions`."""
    pairs = sp.permutation_decompositions(m)
    lines = [f"strands: {sp.trace_strands(m).count}",
             f"canonical decompositions: {len(pairs)}"]
    for idx, (p1, p2) in enumerate(pairs):
        lines += [f"decomposition {idx}:", "P1:", sp.AdjMatrix(p1).to_text(),
                  "P2:", sp.AdjMatrix(p2).to_text()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", [
    "hopftwist:V=24",  # two strands, one a 2-entry circle: one pair
    "cyclic:V=3", "chain:k=7", "lchain:k=3,n=4", "kribbon:k=4,m=3",
    "p:k=3,l=4,m=2", "g:k=2,l=3,m=2", "0 2\n2 0\n",
    "1 1 0 0\n1 0 1 0\n0 1 0 1\n0 0 1 1\n"])
def test_decompose_prints_the_count_and_pairs_of_the_list(capsys, tmp_path,
                                                          source):
    if ":" in source:
        m = sp.adjacency(fam.generate(fam.parse_spec_string(source)))
    else:
        m = sp.parse_matrix(source)
        (tmp_path / "rows.txt").write_text(source)
        source = str(tmp_path / "rows.txt")
    code, out, err = run(capsys, "decompose", source)
    assert (code, err) == (0, "")
    assert out == decompose_text(m)


def test_decompose_walks_its_matrix_once(capsys, monkeypatch):
    walks = []
    walk = sp.trace_strands
    monkeypatch.setattr(sp, "trace_strands",
                        lambda m: walks.append(m) or walk(m))
    code, out, _ = run(capsys, "decompose", "chain:k=5")
    assert code == 0 and "canonical decompositions: 16\n" in out
    assert len(walks) == 1


@pytest.mark.parametrize("command", ["charpoly", "components", "decompose",
                                     "census"])
def test_invalid_diagram_is_input_error(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    assert run(capsys, "gen", "cyclic:V=3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["darts"][0]["vertex"] = 7  # parses, but names a vertex that is not there
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert "invalid diagram" in err and "vertex 7 out of range" in err


@pytest.mark.parametrize("cut", [False, True])
def test_a_json_diagram_is_checked_once(capsys, tmp_path, monkeypatch, cut):
    # a valid document is checked once, as it is read, and carries that
    # check, so the CLI's `validate` costs nothing; only an invalid one is
    # checked again, on the error path, for the message
    path = tmp_path / "member.json"
    assert run(capsys, "gen", "kribbon:k=4,m=3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    if cut:
        doc["rotation"][0] = doc["rotation"][0][:3]
        path.write_text(json.dumps(doc))
    problems = dg.validate(dg.from_json(json.dumps(doc)))
    assert bool(problems) == cut
    calls = {}
    for name in ("_type_problem", "_map_problems"):
        def counted(*args, _wrapped=getattr(dg, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _wrapped(*args)
        monkeypatch.setattr(dg, name, counted)
    code, out, err = run(capsys, "census", str(path))
    checks = 2 if cut else 1
    assert calls == {"_type_problem": checks, "_map_problems": checks}
    if cut:
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: invalid diagram: "
                       + "; ".join(problems) + "\n")
    else:
        assert (code, err) == (0, "") and out


@pytest.mark.parametrize("command", ["charpoly", "census"])
@pytest.mark.parametrize("edit,message", [
    # 1e400 parses as an infinite float, once an OverflowError traceback
    pytest.param(lambda doc: doc["darts"][1].update(id=1e400),
                 "dart id must be an integer", id="id-1e400"),
    # floats and booleans were once truncated into another diagram
    pytest.param(lambda doc: doc["darts"][1].update(vertex=1.9),
                 "dart vertex must be an integer", id="vertex-1.9"),
    pytest.param(lambda doc: doc["darts"][1].update(twin=True),
                 "dart twin must be an integer", id="twin-true"),
    pytest.param(lambda doc: doc["rotation"][0].__setitem__(0, 0.5),
                 "rotation entry must be an integer", id="rotation-0.5"),
    pytest.param(lambda doc: doc.update(vertex_count=3.0),
                 "vertex_count must be an integer", id="vertex_count-3.0"),
    pytest.param(lambda doc: doc.update(version=True),
                 "version must be an integer", id="version-true"),
])
def test_diagram_json_numbers_must_be_integers(capsys, tmp_path, command,
                                               edit, message):
    path = tmp_path / "d.json"
    assert run(capsys, "gen", "cyclic:V=3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    # charpoly goes on to try the file as a matrix, and reports both failed
    expected = message if command == "census" else "not a diagram or matrix"
    assert err.startswith("error:") and expected in err


@pytest.mark.parametrize("command", ["charpoly", "components", "decompose"])
@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda doc: doc["darts"][1].update(vertex=1.9),
                 "dart vertex must be an integer, got 1.9", id="vertex-1.9"),
    pytest.param(lambda doc: doc["rotation"][0].__setitem__(0, 0.5),
                 "rotation entry must be an integer, got 0.5",
                 id="rotation-0.5"),
    pytest.param(lambda doc: doc.pop("kind"),
                 "malformed diagram document: 'kind'", id="no-kind"),
])
def test_matrix_commands_report_the_diagram_error(capsys, tmp_path, command,
                                                  edit, message):
    # a document starting with "{" is a diagram, never a text matrix
    path = tmp_path / "d.json"
    assert run(capsys, "gen", "cyclic:V=3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(" \n" + json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: not a diagram or matrix: {message}\n"


DEEP_JSON = "[" * 100_000  # json.loads raises RecursionError on it


@pytest.mark.parametrize("command", ["charpoly", "census", "components",
                                     "decompose"])
@pytest.mark.parametrize("doc", [DEEP_JSON, '{"a": ' * 100_000],
                         ids=["array", "object"])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, command, doc):
    path = tmp_path / "deep.json"
    path.write_text(doc)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Fuzz: any input file exits 0, 1 or 2, with nothing but error lines
# ---------------------------------------------------------------------------

def gen_output(spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", spec]) == 0
    return out.getvalue()


FUZZ_GEN = [gen_output(spec) for spec in ("cyclic:V=3", "hopftwist:V=3",
                                           "twistknot:V=4", "p:k=1,l=1,m=2")]
FUZZ_MATRICES = [sp.adjacency(dg.from_json(doc)) for doc in FUZZ_GEN]
FUZZ_BASES = (FUZZ_GEN + [m.to_text() + "\n" for m in FUZZ_MATRICES]
              + [json.dumps(m.rows) for m in FUZZ_MATRICES])
FUZZ_EDIT = st.tuples(
    # mostly integer edits: they keep the text parseable, so the file
    # reaches validation and the commands rather than the JSON parser
    st.sampled_from(("number", "number", "number", "insert", "delete",
                     "replace")),
    st.integers(0, 1 << 16), st.integers(-3, 99),
    st.text(alphabet='{}[]:,"-.0123456789eE truefalsnoutin\n', max_size=6))


def mutate(text, edits):
    """text with each edit applied in turn: a chunk inserted, 1-8
    characters deleted or replaced, or an integer literal set to a
    value."""
    for op, at, value, chunk in edits:
        at %= len(text) + 1
        cut = at + abs(value) % 8 + 1
        if op == "insert":
            text = text[:at] + chunk + text[at:]
        elif op == "delete":
            text = text[:at] + text[cut:]
        elif op == "replace":
            text = text[:at] + chunk + text[cut:]
        else:
            numbers = list(re.finditer(r"-?\d+", text))
            if numbers:
                m = numbers[at % len(numbers)]
                text = text[:m.start()] + str(value) + text[m.end():]
    return text


FUZZ_TEXTS = st.sampled_from(FUZZ_BASES).flatmap(
    lambda base: st.lists(FUZZ_EDIT, max_size=4).map(
        lambda edits: mutate(base, edits)))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(("charpoly", "census", "components",
                                "decompose")),
       text=FUZZ_TEXTS)
@example(command="census", text=DEEP_JSON)
@example(command="charpoly", text=DEEP_JSON)
def test_mutated_inputs_exit_cleanly(fuzz_path, command, text):
    fuzz_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(fuzz_path)])
    assert code in (0, 1, 2)
    assert all(line.startswith("error: ")
               for line in err.getvalue().splitlines())


def test_repeated_spec_parameter_is_input_error(capsys):
    code, out, err = run(capsys, "gen", "p:k=1,l=1,m=1,k=2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "parameter k is given twice" in err


def limit_address_space():
    # 1 GiB: a decompose that held its 2^31 pairs would fail at once
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_closed_stdout_exits_quietly():
    # more output than a pipe buffer holds, so the reader closes it
    # mid-write; chain:k=32 has 2^31 pairs, which only a decompose that
    # prints each pair as it is made reaches
    env = cli_env()
    for source, head, timeout in [
            ("kribbon:k=8,m=4", [b"strands: 8\n"], 60),
            ("chain:k=32", [b"strands: 32\n",
                            b"canonical decompositions: 2147483648\n"], 30)]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "altknot.cli", "decompose", source],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            preexec_fn=limit_address_space)
        try:
            assert [proc.stdout.readline() for _ in head] == head, source
            proc.stdout.close()
            _, err = proc.communicate(timeout=timeout)
            assert (proc.returncode, err) == (1, b""), source
        finally:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Every accepted input does bounded work
# ---------------------------------------------------------------------------

# For each subcommand, the costliest input it accepts at the default vertex
# cap (64), with its wall time in a fresh process, the median of three runs
# on one Intel Xeon core with Python 3.11.  Each must finish within ten
# times that, and never less than 5 s.  Two more inputs are accepted at the
# cap but take too long for Tier-1, one run each on the same machine:
# `verify --max 64` (63 s, 33 MB of output) and `verify --family p --max
# 64` (53 s, 26 MB).
BUDGETS = [
    (["gen", "kribbon:k=8,m=8"], 0.07),
    (["charpoly", "kribbon:k=8,m=8"], 0.07),
    (["charpoly", "twistknot:V=64"], 0.08),
    (["census", "kribbon:k=8,m=8"], 0.07),
    (["components", "kribbon:k=8,m=8"], 0.07),
    (["decompose", "kribbon:k=8,m=8"], 0.08),
    (["verify", "--max", "12", "--report", "csv"], 0.74),
    (["verify", "--family", "identities", "--max", "1000"], 0.78),
]


@pytest.mark.parametrize("argv, measured", BUDGETS,
                         ids=[shlex.join(argv) for argv, _ in BUDGETS])
def test_costliest_accepted_inputs_run_within_their_budget(argv, measured):
    env = cli_env()
    env.pop("ALTKNOT_MAX_V", None)
    budget = max(5.0, 10 * measured)
    try:
        proc = subprocess.run([sys.executable, "-m", "altknot.cli", *argv],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, env=env, timeout=budget)
    except subprocess.TimeoutExpired:
        pytest.fail(f"altknot {shlex.join(argv)} ran past its {budget} s")
    assert (proc.returncode, proc.stderr) == (0, b""), argv


# ---------------------------------------------------------------------------
# README's CLI block runs as written
# ---------------------------------------------------------------------------

def readme_cli_lines():
    """The command lines of README's `## CLI` block, each as (argv,
    comment), argv split by the shell's rules."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```\n")[1]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("  #")
        lines.append((shlex.split(command), comment.strip()))
    return lines


# the commented outputs of README's CLI block, by command
README_OUTPUTS = {"charpoly cyclic:V=3": "x^3 - 3*x - 2",
                  "components cyclic:V=4": "2"}


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    checked = set()
    for argv, comment in readme_cli_lines():
        assert argv[0] == "altknot", argv
        if "|" in argv:
            continue  # the pipeline runs in its own test
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        command = " ".join(argv[1:])
        if command in README_OUTPUTS:
            expected = README_OUTPUTS[command]
            assert comment.startswith(expected), comment
            assert out == expected + "\n", argv
            checked.add(command)
    assert checked == set(README_OUTPUTS)


def test_readme_cli_pipeline_runs():
    [argv] = [argv for argv, _ in readme_cli_lines() if "|" in argv]
    assert argv == ["altknot", "decompose", "chain:k=32", "|", "head", "-n",
                    "3"]
    env = cli_env()
    altknot = shlex.join([sys.executable, "-m", "altknot.cli"])
    proc = subprocess.run(
        ["sh", "-c", f"{altknot} {shlex.join(argv[1:3])} | "
                     f"{shlex.join(argv[4:])}"],
        capture_output=True, env=env, timeout=60,
        preexec_fn=limit_address_space)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines() == [
        b"strands: 32", b"canonical decompositions: 2147483648",
        b"decomposition 0:"]
