"""Import hygiene: every module-level import of a library module is used,
and every library name the benchmark harness reaches exists.

A deletion can leave an import behind (an exception class, a helper, a
record type); the module still loads, so nothing else notices. That check
parses each module with ``ast`` and never imports it.

A deletion or rename can also drop a name that ``bench/tracer.py`` wraps
or ``bench/workloads.py`` calls. The library's own tests never reach
those files, so two tests read them and look each name up.

The other way round, a library function that only tests call is dead
weight: the last two tests require every module-level definition to be
used by the library, wrapped or called by the benchmark, or exported, and
the package to import exactly what it exports.
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


def test_every_module_level_definition_is_used_outside_tests():
    # a reference is any Name or attribute with the definition's name, in
    # src/ outside the definition's own body, so a same-named attribute of
    # another object also counts: the check errs towards passing
    owners = defaultdict(set)  # name -> {(module, enclosing top-level definition)}
    definitions = []
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
    bench_words = set()
    for name in ("tracer.py", "workloads.py"):
        bench_words.update(re.findall(r"\w+", (BENCH / name).read_text(encoding="utf-8")))
    exempt = bench_words | set(abhk.__all__)
    unused = [f"{module}.{name}" for module, name in definitions
              if name not in exempt and not owners[name] - {(module, name)}]
    assert unused == []


def test_the_package_imports_exactly_what_it_exports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    assert sorted(imported) == sorted(abhk.__all__)
