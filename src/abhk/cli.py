"""Command-line front end.

Exit codes: 0 success, 1 semantic failure (a check or expectation fails),
2 input error (unreadable file, parse or schema error, bad expression),
3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import exprparse, properties
from .ambicore import AmbiskewAlgebra
from .coradical import CoradicalContext, corad_breakdown, corad_degree
from .errors import (
    AbhkError,
    HopfDataError,
    InternalError,
    NotInvertibleError,
    UnsupportedBaseError,
)
from .exprparse import (
    EvalContext,
    ParseError,
    ResolvedSpec,
    SpecError,
    eval_expr,
    format_element,
    format_scalar,
    format_tensor,
    parse_expr,
    parse_spec,
    resolve_spec,
)
from .hopfstruct import (
    CheckReport,
    DataCheckFailed,
    GeneralPresentation,
    HopfAmbiskewAlgebra,
    check_main_theorem,
    relabel,
    verify_checked,
)
from .scalar import Field

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Output:
    def __init__(self, machine: bool):
        self.machine = machine

    def emit(self, key: str, value: str) -> None:
        if self.machine:
            print(f"{key}\t{value}")
        else:
            print(f"{key}: {value}" if key else value)

    def report(self, report: CheckReport) -> None:
        if self.machine:
            self.emit("overall", "pass" if report.overall else "fail")
            for cond in report.conditions:
                value = "pass" if cond.ok else "fail"
                if cond.witness:
                    value += f" ({cond.witness})"
                self.emit(cond.name, value)
            if report.classification is not None:
                self.emit("classification", ",".join(sorted(report.classification)))
        else:
            for line in report.lines():
                print(line)


def _load(path: str, field_override: Field | None) -> ResolvedSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not UTF-8 at byte {exc.start}") from None
    return resolve_spec(parse_spec(text), field_override)


def _field_arg(text: str) -> Field:
    """``--field kind[:order]``, e.g. ``cyclotomic:8``."""
    kind, _, order = text.partition(":")
    try:
        return exprparse.make_field(kind, int(order) if order else None)
    except (ValueError, SpecError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def _nmax_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    if value > exprparse.MAX_NMAX:
        raise argparse.ArgumentTypeError(f"{text!r} exceeds the limit {exprparse.MAX_NMAX}")
    return value


def _checked_algebra(spec: ResolvedSpec) -> tuple[HopfAmbiskewAlgebra, CheckReport]:
    """Route through the change of variables when needed, then check the
    data and verify the axioms. Failed data raises HopfDataError:
    DataCheckFailed with the report, or relabel's refusal of a general
    presentation."""
    if spec.general is not None:
        _, report = relabel(spec.general)
    else:
        report = check_main_theorem(spec.base, spec.data)
    return verify_checked(report)


def _raw_algebra(spec: ResolvedSpec) -> AmbiskewAlgebra:
    """The extension as a plain algebra, without requiring the Hopf check."""
    if spec.general is not None:
        return spec.general.algebra
    data = spec.data
    return AmbiskewAlgebra(spec.base, data.sigma, data.h, data.xi)


def _context(spec: ResolvedSpec, algebra: AmbiskewAlgebra) -> EvalContext:
    return EvalContext(spec.field, spec.base, algebra)


def _eval_arg(text: str, ctx: EvalContext):
    """Evaluate a command-line expression; anything wrong with it is an
    input error, not a semantic failure."""
    try:
        return eval_expr(parse_expr(text), ctx)
    except NotInvertibleError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands


def cmd_check(args, out: _Output) -> int:
    def action(spec, hopf, report, ctx):
        out.report(report)
        return EXIT_OK

    return _hopf_command(args, out, action)


def cmd_mul(args, out: _Output) -> int:
    spec = _load(args.spec, args.field)
    algebra = _raw_algebra(spec)
    ctx = _context(spec, algebra)
    result = _eval_arg(args.expr, ctx)
    out.emit("result", format_element(result))
    return EXIT_OK


def _hopf_command(args, out: _Output, action) -> int:
    """Check the spec, printing the report and failing if the data fails;
    otherwise run ``action(spec, hopf, report, ctx)``."""
    spec = _load(args.spec, args.field)
    try:
        hopf, report = _checked_algebra(spec)
    except DataCheckFailed as exc:
        out.report(exc.report)
        return EXIT_FAIL
    return action(spec, hopf, report, _context(spec, hopf.algebra))


def cmd_coprod(args, out: _Output) -> int:
    def action(spec, hopf, report, ctx):
        elem = _eval_arg(args.expr, ctx)
        out.emit("result", format_tensor(hopf.delta(elem)))
        return EXIT_OK

    return _hopf_command(args, out, action)


def cmd_antipode(args, out: _Output) -> int:
    def action(spec, hopf, report, ctx):
        elem = _eval_arg(args.expr, ctx)
        out.emit("result", format_element(hopf.antipode(elem)))
        out.emit("antipode-form", hopf.antipode_form)
        return EXIT_OK

    return _hopf_command(args, out, action)


def cmd_corad(args, out: _Output) -> int:
    def action(spec, hopf, report, ctx):
        elem = _eval_arg(args.expr, ctx)
        if elem.is_zero():  # an expression the user wrote: an input error
            raise ParseError("coradical degree of zero is undefined")
        corad_ctx = CoradicalContext.for_algebra(hopf)
        out.emit("degree", str(corad_degree(elem, corad_ctx)))
        for m, n, base_deg, total in corad_breakdown(elem, corad_ctx):
            out.emit("term", f"X+^{m} X-^{n}  base-degree {base_deg}  degree {total}")
        return EXIT_OK

    return _hopf_command(args, out, action)


def cmd_classify(args, out: _Output) -> int:
    def action(spec, hopf, report, ctx):
        cases = ", ".join(sorted(report.classification))
        out.emit("classification", "{" + cases + "}")
        return EXIT_OK

    return _hopf_command(args, out, action)


def cmd_props(args, out: _Output) -> int:
    spec = _load(args.spec, args.field)
    hopf = None
    try:
        hopf, _ = _checked_algebra(spec)
        algebra = hopf.algebra
    except HopfDataError:
        algebra = _raw_algebra(spec)
    n_max = args.nmax if args.nmax is not None else spec.options.get(
        "nmax", properties.DEFAULT_N_MAX)
    report = properties.full_report(algebra, hopf, n_max)
    for line in report.lines():
        key, _, value = line.partition(": ")
        out.emit(key, value)
    return EXIT_OK


def cmd_relabel(args, out: _Output) -> int:
    spec = _load(args.spec, args.field)
    gp = spec.general
    if gp is None:
        # hat-form data is its own general presentation with r+- = 1
        one = spec.base.one()
        gp = GeneralPresentation(_raw_algebra(spec), spec.data.y_plus, spec.data.y_minus,
                                 one, one)
    data, _ = relabel(gp)
    out.emit("xi", format_scalar(data.xi)[0])
    out.emit("h", format_element(data.h))
    out.emit("y_plus", format_element(data.y_plus))
    out.emit("y_minus", format_element(data.y_minus))
    out.emit("z", format_element(data.z))
    for name in sorted(data.chi.values):
        out.emit(f"chi[{name}]", format_scalar(data.chi.values[name])[0])
    return EXIT_OK


# ---------------------------------------------------------------------------
# the corpus runner


class EntryResult:
    __slots__ = ("name", "ok", "details")

    def __init__(self, name: str, ok: bool, details: list[str]):
        self.name, self.ok, self.details = name, ok, details


def corpus_dir() -> Path:
    override = os.environ.get("ABHK_CORPUS_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus"


def _expect_text(block, key, default=None):
    if block is None:
        return default
    return block.entries.get(key, default)


def run_corpus_entry(path: Path) -> EntryResult:
    details: list[str] = []
    ok = True

    def note(label: str, good: bool, extra: str = ""):
        nonlocal ok
        ok = ok and good
        status = "ok" if good else "MISMATCH"
        details.append(f"{label}: {status}" + (f" ({extra})" if extra else ""))

    def error(label: str, message: str):
        nonlocal ok
        ok = False
        details.append(f"{label}: ERROR ({message})")

    def value(label: str, text: str):
        """The value of an expect expression, or None once the error that
        stops it is noted against the entry; the other entries still run."""
        try:
            return eval_expr(parse_expr(text), ctx)
        except InternalError:
            raise
        except AbhkError as exc:
            error(label, str(exc))
            return None

    try:
        spec = _load(str(path), None)
    except AbhkError as exc:
        return EntryResult(path.stem, False, [f"load: ERROR ({exc})"])

    expect = spec.expect
    want_fail = _expect_text(expect, "check", "pass") == "fail"

    try:
        hopf, report = _checked_algebra(spec)
        failure = ""
    except HopfDataError as exc:
        hopf, failure = None, str(exc)

    if want_fail:
        note("check", hopf is None, "expected failure")
        witness = _expect_text(expect, "witness")
        if witness:
            note("witness", witness in failure, witness)
        return EntryResult(path.stem, ok, details)

    note("check", hopf is not None)
    if hopf is None:
        return EntryResult(path.stem, ok, details)

    classification = _expect_text(expect, "classification")
    if classification:
        want = frozenset(part.strip() for part in classification.split(","))
        note("classification", report.classification == want,
             ",".join(sorted(report.classification)))

    gk_want = _expect_text(expect, "gk_dim")
    if gk_want is not None:
        gk, _ = properties.gk_report(hopf.algebra, hopf_verified=True)
        note("gk_dim", gk == int(gk_want), str(gk))

    gl_want = _expect_text(expect, "gl_dim")
    if gl_want is not None:
        gl, _ = properties.dim_bounds(hopf.algebra, hopf_verified=True)
        note("gl_dim", gl.exact and gl.upper == int(gl_want), gl.describe())

    pi_want = _expect_text(expect, "pi")
    if pi_want is not None:
        try:
            entry = properties.pi_check(hopf.algebra)
            if pi_want == "none":
                note("pi", entry.satisfies_pi is False, entry.describe())
            elif pi_want == "unsupported":
                note("pi", False, "expected unsupported, criterion ran")
            else:
                note("pi", entry.satisfies_pi is True and entry.pi_degree == int(pi_want),
                     entry.describe())
        except UnsupportedBaseError as exc:
            note("pi", pi_want == "unsupported", str(exc))

    ctx = _context(spec, hopf.algebra)
    if expect is not None and "identities" in expect.blocks:
        for lhs, rhs in expect.blocks["identities"].entries.items():
            label = f"identity[{lhs}]"
            left = value(label, lhs)
            right = None if left is None else value(label, rhs)
            if right is not None:
                note(label, left == right, format_element(left))
    if expect is not None and "corad" in expect.blocks:
        corad_ctx = CoradicalContext.for_algebra(hopf)
        for expr_text, want in expect.blocks["corad"].entries.items():
            label = f"corad[{expr_text}]"
            elem = value(label, expr_text)
            if elem is None:
                continue
            if elem.is_zero():  # as ``abhk corad`` refuses it
                error(label, "coradical degree of zero is undefined")
                continue
            degree = corad_degree(elem, corad_ctx)
            note(label, degree == int(want), str(degree))

    return EntryResult(path.stem, ok, details)


def cmd_examples(args, out: _Output) -> int:
    # each corpus entry declares its own field and options
    for flag, value in (("--field", args.field), ("--nmax", args.nmax)):
        if value is not None:
            print(f"error: {flag} does not apply to examples", file=sys.stderr)
            return EXIT_INPUT
    directory = corpus_dir()
    paths = sorted(directory.glob("*.abhk"))
    if not paths:
        print(f"no corpus entries found in {directory}", file=sys.stderr)
        return EXIT_INPUT
    results = [run_corpus_entry(path) for path in paths]
    width = max(len(r.name) for r in results)
    failures = 0
    for result in results:
        status = "pass" if result.ok else "FAIL"
        if out.machine:
            out.emit(result.name, status)
        else:
            print(f"{result.name:<{width}}  {status}")
        if args.verbose or not result.ok:
            for line in result.details:
                print(f"    {line}")
        failures += 0 if result.ok else 1
    summary = f"{len(results) - failures}/{len(results)} corpus entries pass"
    if out.machine:
        out.emit("summary", summary)
    else:
        print(summary)
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser. With ``dash_positional`` every argument that
    starts with ``-`` but is none of the parser's own options (``-h``,
    ``--help``) is a positional, so ``abhk mul SPEC -t`` reads the
    expression ``-t``; ``--`` still ends the options."""

    def __init__(self, *args, dash_positional=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.dash_positional = dash_positional

    def _parse_optional(self, arg_string):
        if (self.dash_positional and arg_string != "--"
                and arg_string not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abhk",
        description="Construct and verify ambiskew Hopf algebra extensions.",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text",
                        help="output format (machine = key<TAB>value lines)")
    parser.add_argument("--field", type=_field_arg, default=None,
                        help="override the spec's field, e.g. 'cyclotomic:8'")
    parser.add_argument("--nmax", type=_nmax_arg, default=None,
                        help="iteration bound for automorphism-order searches")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add(name, fn, *arguments, help=None):
        p = sub.add_parser(name, help=help, dash_positional=expr_arg in arguments)
        for arg in arguments:
            p.add_argument(*arg[0], **arg[1])
        p.set_defaults(fn=fn)
        return p

    spec_arg = (("spec",), {"help": "path to a .abhk spec file"})
    expr_arg = (("expr",), {"help": "element expression"})
    add("check", cmd_check, spec_arg, help="verify the construction data and Hopf axioms")
    add("mul", cmd_mul, spec_arg, expr_arg, help="normal form of an expression")
    add("coprod", cmd_coprod, spec_arg, expr_arg, help="coproduct of an expression")
    add("antipode", cmd_antipode, spec_arg, expr_arg, help="antipode of an expression")
    add("corad", cmd_corad, spec_arg, expr_arg, help="coradical degree of an expression")
    add("classify", cmd_classify, spec_arg, help="trichotomy classification")
    add("props", cmd_props, spec_arg, help="ring-theoretic property report")
    add("relabel", cmd_relabel, spec_arg, help="change of variables to hat form")
    examples = add("examples", cmd_examples, help="run the regression corpus")
    examples.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = _Output(machine=args.format == "machine")
    try:
        return args.fn(args, out)
    except (ParseError, SpecError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AbhkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
