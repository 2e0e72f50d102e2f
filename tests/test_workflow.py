"""What the CI workflow checks, the suite checks: the rows that need an
interpreter of their own, and a guard that keeps the workflow from growing
checks of its own again.

Each row runs ``python`` as a subprocess with ``src`` on its import path.
``-W error -X dev`` makes any warning fail the row, a ``ResourceWarning``
included, as ``filterwarnings = ["error"]`` in ``pyproject.toml`` does for
the tests that run in process.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _python(*args):
    """Run ``python *args`` from the repository root with ``src`` first on
    the import path; return the completed process, its output as text."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_public_names_import_with_warnings_as_errors():
    # a fresh interpreter imports every module of the package, so a warning
    # raised at import fails here, whichever test imports it first in the suite
    done = _python("-W", "error", "-X", "dev", "-c", "from abhk import *")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_the_cli_imports_no_heavy_standard_modules():
    # -S: no site, so no .pth file of the installation loads a module first;
    # the library builds its records with collections.namedtuple and plain
    # classes, and a dataclass would pull in dataclasses and inspect at start-up
    done = _python("-S", "-c", "import sys, abhk.cli; print(*sorted(sys.modules))")
    assert done.returncode == 0, done.stderr
    assert {"dataclasses", "inspect", "typing"} & set(done.stdout.split()) == set()


def test_examples_run_with_warnings_as_errors():
    done = _python("-W", "error", "-X", "dev", "-m", "abhk.cli", "examples")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith(" corpus entries pass\n")


# each pin of operation counts in a process of its own: a count must not
# depend on process-wide caches that an earlier test warmed
COUNT_PINS = [("tests/test_hopfstruct.py", "cold_build", 4),
              ("tests/test_ambicore.py", "warm_products", 3),
              ("tests/test_ambicore.py", "operand_batches", 1)]


@pytest.mark.parametrize("path, selection, tests", COUNT_PINS,
                         ids=[row[1] for row in COUNT_PINS])
def test_count_pins_pass_in_a_process_of_their_own(path, selection, tests):
    # no cache plugin: the inner run leaves the outer run's record of failures alone
    done = _python("-m", "pytest", "-q", "-p", "no:cacheprovider", path, "-k", selection)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(rf"^{tests} passed, \d+ deselected in ", done.stdout, re.MULTILINE), \
        done.stdout


# what a workflow step must not run itself, outside its comments: each is a
# check that belongs in the suite, where every run of the suite sees it fail
OWN_CHECKS = [
    (r"abhk\.cli|^\s*(run:\s*)?abhk\s", "a CLI command"),
    (r"\bsha256sum\b", "an output pin"),
    (r"\bpytest\b.*\s-k\b", "a selection of the suite"),
]


def test_the_workflow_runs_no_check_of_its_own():
    text = WORKFLOW.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
    found = [(what, line.strip()) for line in lines
             for pattern, what in OWN_CHECKS if re.search(pattern, line)]
    assert found == []


# the oldest Python that pyproject.toml declares, which the CI matrix runs first
MIN_PYTHON = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', (
    ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups()))


@pytest.mark.parametrize("path", sorted(p.relative_to(ROOT).as_posix() for top in
                                        ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py")))
def test_every_file_parses_as_the_oldest_declared_python(path):
    ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=path, feature_version=MIN_PYTHON)
