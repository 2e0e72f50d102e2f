"""Import hygiene: every module-level import of a library module is used,
and every library name the benchmark harness reaches exists.

A deletion can leave an import behind (an exception class, a helper, a
record type); the module still loads, so nothing else notices. That check
parses each module with ``ast`` and never imports it.

A deletion or rename can also drop a name that ``bench/tracer.py`` wraps
or ``bench/workloads.py`` calls. The library's own tests never reach
those files, so two tests read them and look each name up.

The other way round, a library function or method that only tests call
is dead weight: two tests require every module-level definition and every
method to be used by the library, wrapped or called by the benchmark, or
exported, and the package to import exactly what it exports.

The tests hold one reference per fast path, all in ``tests/oracles.py``:
the last three tests keep the other test modules from defining one of
their own, and every definition there reached from a test and named after
the library function it stands for.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from collections import defaultdict
from pathlib import Path

import pytest

import abhk

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abhk"
BENCH = ROOT / "bench"


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in the module namespace."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []


def _bench_tracer():
    """``bench/tracer.py`` loaded under a private name (it imports only the
    standard library)."""
    spec = importlib.util.spec_from_file_location("_abhk_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_names_an_attribute_the_tracer_can_wrap():
    # Tracer.install looks each attribute up in its owner's own __dict__
    tracer = _bench_tracer()
    missing = []
    for module_name, path in (entry for entries in tracer.LAYERS.values() for entry in entries):
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(f"abhk.{module_name}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}.{path}")
    from abhk.scalar import Scalar

    missing += [f"Scalar.{name}" for name in tracer.SCALAR_METHODS if name not in vars(Scalar)]
    assert missing == []


def test_every_library_name_the_workloads_call_exists():
    text = (BENCH / "workloads.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\blib\.(\w+)\.(\w+)", text)))
    assert ("hopfstruct", "HopfDataError") in names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"abhk.{module}"), name)]
    assert missing == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
# methods that the standard library calls: argparse.ArgumentParser calls
# _parse_optional for each argument string, and _CommandParser overrides it
_OVERRIDES = {"cli._CommandParser._parse_optional"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.AST) -> set:
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _code_words(path: Path) -> set:
    """The names and attributes in ``path``, and the words of its string
    constants (the tracer names what it wraps in strings), but not the
    words of a comment or docstring."""
    tree = _tree(path)
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return _names(tree).union(*(
        re.findall(r"\w+", node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings))


def test_every_module_level_definition_is_used_outside_tests():
    # a reference is any Name or attribute with the definition's name, in
    # src/ outside the definition's own body, so a same-named attribute of
    # another object also counts: the check errs towards passing. A method
    # of a module-level class is used when an attribute outside its own body
    # names it; a dunder is called by Python itself
    owners = defaultdict(set)  # name -> {(module, enclosing top-level definition)}
    attributes = defaultdict(int)  # attribute name -> its occurrences in src/
    definitions, methods = [], []  # methods: (dotted name, occurrences in its own body)
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            owner = (path.stem, top.name if isinstance(top, _DEFINITIONS) else None)
            if owner[1] is not None:
                definitions.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    owners[node.id].add(owner)
                elif isinstance(node, ast.Attribute):
                    owners[node.attr].add(owner)
                    attributes[node.attr] += 1
            if isinstance(top, ast.ClassDef):
                methods += [(f"{path.stem}.{top.name}.{node.name}",
                             sum(isinstance(sub, ast.Attribute) and sub.attr == node.name
                                 for sub in ast.walk(node)))
                            for node in top.body if isinstance(node, _METHODS)]
    bench_words = _code_words(BENCH / "tracer.py") | _code_words(BENCH / "workloads.py")
    exempt = bench_words | set(abhk.__all__)
    unused = [f"{module}.{name}" for module, name in definitions
              if name not in exempt and not owners[name] - {(module, name)}]
    for dotted, own in methods:
        name = dotted.rpartition(".")[2]
        if (not (name.startswith("__") and name.endswith("__")) and dotted not in _OVERRIDES
                and name not in bench_words and attributes[name] == own):
            unused.append(dotted)
    assert unused == []


def test_the_package_imports_exactly_what_it_exports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    assert sorted(imported) == sorted(abhk.__all__)


# -- the one reference per fast path: tests/oracles.py ------------------------------

TESTS = ROOT / "tests"
ORACLES = TESTS / "oracles.py"
# a test module that defines a function so named holds a second reference
# for a path that tests/oracles.py references already
_REFERENCE_NAME = re.compile(r"_(parent|loop|reference|combine)_")


def test_no_test_module_defines_a_reference_of_its_own():
    found = [f"{path.name}::{node.name}" for path in sorted(TESTS.glob("*.py")) if path != ORACLES
             for node in ast.walk(_tree(path))
             if isinstance(node, _METHODS) and _REFERENCE_NAME.match(node.name)]
    assert found == []


def test_every_oracle_is_reached_from_a_test():
    # reached: named in a test module, or in the body of a reached definition
    oracles = {node.name: node for node in _tree(ORACLES).body if isinstance(node, _DEFINITIONS)}
    reached = set(oracles) & set().union(*map(_names, map(_tree, TESTS.glob("test_*.py"))))
    todo = list(reached)
    while todo:
        found = _names(oracles[todo.pop()]) & set(oracles) - reached
        reached |= found
        todo += found
    assert sorted(set(oracles) - reached) == []


def test_every_reference_names_the_library_function_it_stands_for():
    # the docstring of each public function is one line and opens with the
    # ``name`` of a definition of src/ (a dotted name by its last part)
    defined = {node.name for path in SRC.glob("*.py") for node in ast.walk(_tree(path))
               if isinstance(node, _DEFINITIONS)}
    unnamed = []
    for node in _tree(ORACLES).body:
        if isinstance(node, _METHODS) and not node.name.startswith("_"):
            doc = ast.get_docstring(node) or ""
            named = re.match(r"``([\w.]+)``", doc)
            if "\n" in doc or named is None or named.group(1).rpartition(".")[2] not in defined:
                unnamed.append(node.name)
    assert unnamed == []
