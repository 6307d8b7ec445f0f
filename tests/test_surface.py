"""Every public name of the package has a caller in the package or in
`perfbench/`, and the private names that cross a module boundary are
the listed ones.

A public function, class or method of a public class that nothing but the
tests calls does not belong in `src/`: it moves to the tests
(`tests/oracles.py`) or goes.  The list of private names a module imports
from another only shrinks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "altknot"


def public_definitions():
    """(name, file, node) of every public top-level function and class of
    the package, and of every public method of a public class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield item.name, path, item


def references():
    """(name, file, line) of every name and attribute used in the package
    and in `perfbench/`."""
    files = [*sorted(PACKAGE.glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield node.id, path, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, node.lineno


def uncalled():
    """The public names used nowhere outside their own definitions."""
    refs = list(references())
    for name, path, node in public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        if not any(r == name and not (p == path and line in own)
                   for r, p, line in refs):
            yield name


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(uncalled()) == []


# (importing module, module imported from): the private names it imports
PRIVATE_IMPORTS = {
    ("surgery", "diagram"): {"_DIRECTION", "_face_traces", "_flat", "_made"},
    ("spectra", "diagram"): {"_flat"},
    ("spectra", "polynomials"): {"_layers", "_plan", "_power_traces",
                                 "_shape_problem"},
    ("families", "surgery"): {"_Builder"},
    ("families", "polynomials"): {"_J", "_read"},
}


def private_imports():
    """{(module, other module): private names} over the package: the
    names of `from .other import _name` and the attributes `alias._name`
    of `from . import other as alias`."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if not node.module:
                        aliases[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.setdefault((path.stem, node.module),
                                         set()).add(alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and node.attr.startswith("_")):
                found.setdefault((path.stem, aliases[node.value.id]),
                                 set()).add(node.attr)
    return found


def test_private_names_cross_modules_only_as_listed():
    assert private_imports() == PRIVATE_IMPORTS


def test_only_diagram_makes_and_reads_what_a_diagram_carries():
    # `Diagram._checked` is set by `_carry` and read behind `_flat` and
    # `_face_traces`: no other module names either
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "diagram.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant):  # getattr(d, "_checked")
                name = node.value
            else:
                continue
            assert name not in ("_checked", "_carry"), (path.name,
                                                        node.lineno)
