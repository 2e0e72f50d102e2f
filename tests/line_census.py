"""A line census of the library: the function-body statements of
``src/abhk`` that a pytest run never executes.

Load it as a plugin, with ``tests`` on the import path, over the whole
suite:

    PYTHONPATH=src:tests python -m pytest -q -p line_census

It needs nothing beyond the standard library. The plugin installs an
import hook before the suite imports ``abhk``: each library module is
compiled from its source with a probe in front of every function-body
statement, a store into one shared ``bytearray`` under the statement's
index. Line numbers are kept, and nothing is written to ``__pycache__``.
A probe costs one store per statement run, where a ``sys.settrace`` line
tracer cost a Python call per line and per frame and took the suite from
about 1 minute to 4.

When the session ends, the plugin lists each statement that never ran and
is not in ``ALLOWED``, and fails the run if there is one. An ``ALLOWED``
entry that names no never-run statement is reported, so that the list can
shrink, but does not fail the run. Only in-process code is seen: commands
that tests run as subprocesses are not.

A statement counts as run when control reaches it; a compound statement
(``if``, ``for``, ``while``, ``with``) counts when its header is reached.
``try`` holds no code of its own, and docstrings, ``global`` and
``nonlocal`` compile to none, so they carry no probe.
"""

from __future__ import annotations

import ast
import importlib.abc
import importlib.machinery
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "abhk"
HITS_NAME = "_line_census_hits"

_GUARD = "InternalError guard: the checked identity is a theorem, kept as a correctness check"

# (module, function, first line of the statement, why it stays unrun)
ALLOWED = [
    # abstract stubs of the family interface: every family overrides them
    *[("basehopf", f"BaseAlgebra.{name}", "raise NotImplementedError",
       "abstract stub: every base family overrides it")
      for name in ("key", "one_monomial", "generator", "generator_info", "monomial_factors",
                   "monomial_sort_key", "invert_monomial", "delta_monomial",
                   "counit_monomial", "antipode_monomial",
                   "coradical_degree_monomial", "check_scalar_map", "check_endo_map",
                   "grouplike_generators")],
    ("scalar", "Field.from_fraction", "raise NotImplementedError",
     "abstract stub: every field overrides it"),
    ("uqsl2", "UqSl2Base.monomial_factors", "raise NotImplementedError(",
     "refusal stub: the family overrides every map that would factor its monomials"),
    # guards on results the mathematics fixes
    ("coradical", "sparse_support", 'raise InternalError(f"alpha_{p} vanished in the non-root case")',
     _GUARD),
    ("coradical", "sparse_support", 'raise InternalError(f"alpha_{p} vanished at a primitive root")',
     _GUARD),
    ("hopfstruct", "relabel", 'raise InternalError("hat xi disagrees with chi(y+)")', _GUARD),
    ("hopfstruct", "relabel", 'raise InternalError(f"sigma-hat mismatch on {name}")', _GUARD),
    ("hopfstruct", "relabel",
     'raise InternalError("hat variables do not satisfy the skew relation")', _GUARD),
    ("hopfstruct", "relabel", "raise HopfDataError(",
     "guard: data passing the general-form conditions passes the hat-form ones (the change "
     "of variables of the paper); kept as a correctness check"),
    ("hopfstruct", "relabel", 'failures.append("<l+-, r+-> is not abelian")',
     "condition of the theorem that no family fails today, since every family's grouplikes "
     "commute; kept as a refusal of input data"),
    ("hopfstruct", "classify_trichotomy",
     'raise InternalError("(xi^2 - 1) h != chi(h) (z - 1) on checked data")', _GUARD),
    ("hopfstruct", "classify_trichotomy",
     'raise InternalError("trichotomy produced an empty case set")', _GUARD),
    ("properties", "EigenDecomposition.verify",
     'raise InternalError(f"eigencomponent {i} is not an eigenvector")', _GUARD),
    ("properties", "EigenDecomposition.verify",
     'raise InternalError("eigencomponents do not sum to h")', _GUARD),
    ("properties", "eigendecompose_h",
     'raise InternalError("field lacks a primitive root it must contain")', _GUARD),
    ("properties", "eigendecompose_h",
     'raise InternalError("eigenvalue of h-monomial is not an n-th root of unity")', _GUARD),
    ("properties", "derive_descriptor",
     'raise InternalError("no exact injective dimension over a base not AS-Gorenstein")',
     "guard: every family is AS-Gorenstein, so the Hopf sharpening gives the exact value"),
    # the parser builds only the node classes the formatter and evaluator take
    ("exprparse", "_format_node", 'raise TypeError(f"not an AST node: {node!r}")',
     "guard: the parser makes no other node"),
    ("exprparse", "_eval", 'raise TypeError(f"not an AST node: {node!r}")',
     "guard: the parser makes no other node"),
]


def _body(node):
    """A function body split into its docstring (a list of at most one
    statement) and the statements after it."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        return body[:1], body[1:]
    return [], body


class Census:
    """The statements of the instrumented modules, as (module, function,
    line), the function named by its ``__qualname__``, and which of them
    ran: ``hits[i]`` is set by the probe of statement i."""

    def __init__(self):
        self.statements: list = []
        self.hits = bytearray()
        self.sources: dict = {}

    def instrument(self, tree: ast.Module, module: str) -> ast.Module:
        """``tree`` with a probe in front of each function-body statement."""

        def probe(node):
            index = len(self.statements)
            self.statements.append((module, qual_stack[-1], node.lineno))
            store = ast.parse(f"{HITS_NAME}[{index}] = 1").body[0]
            for sub in ast.walk(store):
                ast.copy_location(sub, node)
                sub.end_lineno, sub.end_col_offset = node.lineno, node.col_offset
            return store

        def visit(body, in_function):
            out = []
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    is_def = not isinstance(node, ast.ClassDef)
                    qual = qual_stack[-1]
                    qual_stack.append(f"{qual}.<locals>.{node.name}" if in_function
                                      else f"{qual}.{node.name}" if qual else node.name)
                    if is_def:
                        doc, rest = _body(node)
                        node.body = doc + visit(rest, True)
                    else:
                        node.body = visit(node.body, False)
                    qual_stack.pop()
                    out.append(node)
                    continue
                for name in ("body", "orelse", "finalbody"):
                    if getattr(node, name, None):
                        setattr(node, name, visit(getattr(node, name), in_function))
                for handler in getattr(node, "handlers", []):
                    handler.body = visit(handler.body, in_function)
                if in_function and not isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
                    out.append(probe(node))
                out.append(node)
            return out

        qual_stack = [""]
        tree.body = visit(tree.body, False)
        self.hits.extend(bytes(len(self.statements) - len(self.hits)))
        return ast.fix_missing_locations(tree)

    def never_run(self):
        """(module, line, function, text) of each statement that never ran."""
        return sorted((module, line, qual, self.sources[module][line - 1].strip())
                      for (module, qual, line), hit in zip(self.statements, self.hits) if not hit)


class _Loader(importlib.machinery.SourceFileLoader):
    """Compiles a library module with its probes; reads and writes no
    bytecode cache, so that no probe outlives the run."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        source = self.get_data(path).decode("utf-8")
        module = Path(path).stem
        _CENSUS.sources[module] = source.splitlines()
        tree = _CENSUS.instrument(ast.parse(source, filename=path), module)
        return compile(tree, path, "exec", dont_inherit=True)

    def exec_module(self, module):
        module.__dict__[HITS_NAME] = _CENSUS.hits
        super().exec_module(module)


class _Finder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name != "abhk" and not name.startswith("abhk."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.origin and Path(spec.origin).resolve().parent == SRC:
            spec.loader = _Loader(name, spec.origin)
        return spec


_CENSUS = Census()

# installed on import: ``-p line_census`` loads the plugin before any
# conftest imports abhk
if any(name == "abhk" or name.startswith("abhk.") for name in sys.modules):
    raise ImportError("line_census must load before abhk is imported")
sys.meta_path.insert(0, _Finder())


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    allowed = {entry[:3] for entry in ALLOWED}
    missed = _CENSUS.never_run()
    missed += [(path.stem, 0, "", "module never imported") for path in sorted(SRC.glob("*.py"))
               if path.stem not in _CENSUS.sources]
    seen = {(module, qual, text) for module, _, qual, text in missed}
    _CENSUS.report = [
        f"never run: src/abhk/{module}.py:{line} {qual}: {text}"
        for module, line, qual, text in missed if (module, qual, text) not in allowed
    ]
    _CENSUS.stale = [f"allowed but not a never-run statement: {entry[:3]}"
                     for entry in ALLOWED if entry[:3] not in seen]
    if _CENSUS.report and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line census")
    for line in _CENSUS.report + _CENSUS.stale:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(_CENSUS.report)} never-run statements outside the "
                                f"allow-list ({len(ALLOWED)} allowed, "
                                f"{len(_CENSUS.statements)} statements)")
