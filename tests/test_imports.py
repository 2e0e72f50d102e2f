"""Import hygiene: every module-level import of a library module is used,
and every library name the benchmark harness reaches exists.

A deletion can leave an import behind (an exception class, a helper, a
dataclass); the module still loads, so nothing else notices. That check
parses each module with ``ast`` and never imports it.

A deletion or rename can also drop a name that ``bench/tracer.py`` wraps
or ``bench/workloads.py`` calls. The library's own tests never reach
those files, so the last two tests read them and look each name up.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import pytest

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
