"""Every public name of the package has a caller in the package or in
`perfbench/`, and the private names that cross a module boundary are
the listed ones.

A public function, class or method of a public class that nothing but the
tests calls does not belong in `src/`: it moves to the tests
(`tests/oracles.py`) or goes.  A top-level name is called only where a
use resolves to its module: read by name there, imported by name from it,
or read as an attribute of an alias bound to it (`fam.generate`); a
`Diagram` field of the same name does not count.  A method is called by any
attribute of its name.  The list of private names a module imports from
another only shrinks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "altknot"


def public_definitions():
    """(name, module, file, node) of every public top-level function and
    class of the package, and of every public method of a public class,
    whose module is None."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield node.name, path.stem, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield item.name, None, path, item


def module_aliases(tree):
    """{local name: package module} of every `from . import m [as a]`,
    `from altknot import m [as a]` and `import altknot.m as a` in a file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and not node.module)
                or (node.level == 0 and node.module == "altknot")):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "altknot" and module and alias.asname:
                    aliases[alias.asname] = module
    return aliases


def imported_module(node):
    """The package module a `from ... import` reads, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("altknot."):
        return node.module.partition(".")[2]
    return None


def references():
    """(module, name, file, line) of every use of a module-level name the
    package or `perfbench/` makes: a name read in its own module, a name
    imported from a package module, or an attribute of an alias bound to
    one; module is None for any other attribute, which only a method's
    name can match."""
    files = [*sorted(PACKAGE.glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    for path in files:
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent == PACKAGE else None
        aliases = module_aliases(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and own
                    and isinstance(node.ctx, ast.Load)):
                yield own, node.id, path, node.lineno
            elif isinstance(node, ast.ImportFrom) and imported_module(node):
                for alias in node.names:
                    yield (imported_module(node), alias.name, path,
                           node.lineno)
            elif isinstance(node, ast.Attribute):
                value = node.value
                module = (aliases.get(value.id)
                          if isinstance(value, ast.Name) else None)
                yield module, node.attr, path, node.lineno


def uncalled():
    """The public names used nowhere outside their own definitions: a
    top-level name counts only the uses that resolve to its module, a
    method any attribute of its name."""
    refs = list(references())
    for name, module, path, node in public_definitions():
        own = range(node.lineno, node.end_lineno + 1)
        if not any(r == name and (module is None or m == module)
                   and not (p == path and line in own)
                   for m, r, p, line in refs):
            yield name


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(uncalled()) == []


# (importing module, module imported from): the private names it imports
PRIVATE_IMPORTS = {
    ("surgery", "diagram"): {"_DIRECTION", "_face_traces", "_flat", "_made"},
    ("spectra", "diagram"): {"_flat"},
    ("spectra", "polynomials"): {"_layers", "_matrix_traces",
                                 "_shape_problem"},
    ("families", "surgery"): {"_Builder"},
    ("families", "polynomials"): {"_J", "_read"},
}


def private_imports():
    """{(module, other module): private names} over the package: the
    names of `from .other import _name` and the attributes `alias._name`
    of `from . import other as alias`."""
    found = {}
    for module, name, path, _ in references():
        if (path.parent == PACKAGE and module not in (None, path.stem)
                and name.startswith("_")):
            found.setdefault((path.stem, module), set()).add(name)
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
