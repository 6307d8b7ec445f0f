"""A standing list of mutations of `src/altknot`, each with the tests that
must fail on it: a check that no longer sees what it was written to see
shows here as a surviving mutant.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py

For each entry the script copies `src/` to a temporary directory, replaces
the entry's snippet in its file there, and runs the entry's tests with
pytest on that copy (`-x`: a mutant dies at its first failing test).  It
exits 1 when a mutant survives (every test passes) or when a snippet does
not occur exactly once in its file at this commit, so a change that moves
mutated code updates this list with it.  pytest does not collect this file:
its name does not start with `test_`.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/altknot
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest paths or node ids, from the root


MUTANTS = (
    Mutant("read-width", "polynomials.py",
           "h, mask = 1 << (w - 1), (1 << w) - 1",
           "h, mask = 1 << (w - 2), (1 << w) - 1",
           ("tests/test_polynomials.py", "tests/test_families.py")),
    Mutant("closed-form-reads-one-bit-short", "families.py",
           "return _read(formula(*params, x0, J), w)",
           "return _read(formula(*params, x0, J), w - 1)",
           ("tests/test_families.py",)),
    Mutant("closed-form-headroom", "families.py",
           "w = formula(*params, _L1(1), _jl1).n.bit_length() + 1",
           "w = formula(*params, _L1(1), _jl1).n.bit_length()",
           ("tests/test_families.py",)),
    Mutant("J-index-guard", "polynomials.py",
           "if k < -1:\n"
           "            raise ValueError(",
           "if False:\n"
           "            raise ValueError(",
           ("tests/test_polynomials.py", "tests/test_families.py")),
    Mutant("kernel-default-c", "polynomials.py",
           "b = capacity * ((c or len(layers)) - 1).bit_length()",
           "b = capacity * ((c or 2) - 1).bit_length()",
           ("tests/test_spectra.py",)),
    Mutant("kernel-drops-layers-past-the-second", "polynomials.py",
           "        for gather in rest:\n"
           "            prod = list(map(add, prod, gather(power)))\n",
           "",
           ("tests/test_spectra.py",)),
    # the same wrong traces reach `charpoly` and `closed_path_count`, so
    # Newton's inverse of the one agrees with the other; the checks that
    # see it share no code with the kernel: dense powers and the (x - 2)
    # factor in criterion 5, the cofactor and Faddeev-LeVerrier oracles
    Mutant("kernel-starts-from-twice-the-identity", "polynomials.py",
           "power = [*map((1).__lshift__, shifts), 0]",
           "power = [*map((2).__lshift__, shifts), 0]",
           ("tests/test_acceptance.py::test_criterion_5_matrix_laws",
            "tests/test_polynomials.py")),
    Mutant("trace-slot-always-reuses", "polynomials.py",
           "if key is not rows or k > len(traces):",
           "if k > len(traces):",
           ("tests/test_spectra.py::"
            "test_charpoly_and_path_counts_interleave_exactly",)),
    Mutant("trace-slot-keeps-raw-sequences", "polynomials.py",
           "if rows is not matrix:",
           "if True:",
           ("tests/test_spectra.py::"
            "test_a_raw_matrix_mutated_between_calls_gives_its_new_polynomial",)),
    Mutant("problems-passes-any-layered-matrix", "spectra.py",
           "if self._layers and len(self._layers) == 2:",
           "if self._layers:",
           ("tests/test_spectra.py::"
            "test_strands_from_layers_of_broken_maps_as_from_rows",)),
    Mutant("flat-skips-unlisted-darts", "diagram.py",
           "if -1 in vertex or not n == 4 * len(d.rotation)",
           "if not n == 4 * len(d.rotation)",
           ("tests/test_surgery.py::"
            "test_rings_that_do_not_list_every_dart_are_refused",)),
    Mutant("json-takes-any-number", "diagram.py",
           "    if type(value) is not int:",
           "    if type(value) not in (int, float, bool):",
           ("tests/test_diagram.py", "tests/test_cli.py")),
    Mutant("matrix-takes-any-number", "polynomials.py",
           "if not set(map(type, chain.from_iterable(rows))) <= {int}:",
           "if not set(map(type, chain.from_iterable(rows))) <= {int, float}:",
           ("tests/test_polynomials.py", "tests/test_spectra.py")),
    Mutant("canonical-code-keeps-the-greater", "diagram.py",
           "if entry < best_code[i]:",
           "if entry > best_code[i]:",
           ("tests/test_diagram.py",)),
)


def apply(src: Path, mutant: Mutant) -> str:
    """Write the mutant into the copy `src`; a text saying why it cannot
    be applied, or ''."""
    path = src / "altknot" / mutant.file
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        return f"snippet occurs {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return ""


def run(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'SURVIVED' or why the mutant could not be run."""
    src = scratch / mutant.name / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if problem := apply(src, mutant):
        return problem
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(scratch / mutant.name / "hyp"))
    found = subprocess.run(
        [sys.executable, "-c", "import altknot; print(altknot.__file__)"],
        env=env, capture_output=True, text=True).stdout.strip()
    if not found.startswith(str(src)):
        return f"altknot imports from {found or 'nowhere'}, not the copy"
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if tests.returncode == 1:
        return "killed"
    if tests.returncode == 0:
        return "SURVIVED"
    return f"pytest exited {tests.returncode}:\n{tests.stdout[-2000:]}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="altknot-mutants-") as scratch:
        for mutant in MUTANTS:
            start = time.perf_counter()
            verdict = run(mutant, Path(scratch))
            print(f"{mutant.name}: {verdict} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            failed += verdict != "killed"
    print(f"{failed} of {len(MUTANTS)} not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
