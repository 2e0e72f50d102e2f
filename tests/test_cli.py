"""Command-line behaviors: exit codes, determinism, output formats."""

from __future__ import annotations

import re

import pytest

from abhk.cli import _build_parser, corpus_dir, main
from abhk.errors import HopfDataError
from abhk.exprparse import parse_spec, resolve_spec
from abhk.hopfstruct import relabel

CORPUS = corpus_dir()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "usl2.abhk"))
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "check", str(CORPUS / "bad-xi.abhk"))
    assert code == 1
    assert "xi mismatch" in out


def test_failed_grouplike_condition_prints_the_element(capsys, tmp_path):
    # the witness of a failed *-grouplike condition is the element itself,
    # formatted as the CLI prints elements
    text = (CORPUS / "usl2.abhk").read_text()
    spec = tmp_path / "y-plus-2.abhk"
    spec.write_text(text.replace("y_plus: 1", "y_plus: 2", 1))
    code, out, err = run(capsys, "check", str(spec))
    assert code == 1
    assert err == ""
    assert "  y-plus-grouplike: FAIL  [2]\n" in out
    assert "  y-minus-grouplike: pass\n" in out


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(CORPUS / "missing.abhk"))
    assert code == 2
    bad = tmp_path / "bad.abhk"
    bad.write_text(
        "field {\n  kind: imaginary\n}\nbase {\n  family: laurent\n}\n"
        "extension {\n  chi {\n    t: 1\n  }\n  y_plus: 1\n  y_minus: 1\n  h: 0\n}\n"
    )
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "field.kind" in err
    # zeta literal is invalid in a rational field
    code, _, err = run(capsys, "--field", "rational",
                       "mul", str(CORPUS / "uqsl2-case3.abhk"), "K")
    assert code == 2


def test_mul_prints_normal_form(capsys):
    code, out, _ = run(capsys, "mul", str(CORPUS / "usl2.abhk"), "X-*X+")
    assert code == 0
    assert out.strip() == "result: X+*X- - t"


def test_bad_expression_is_input_error(capsys):
    code, _, err = run(capsys, "mul", str(CORPUS / "usl2.abhk"), "t^-1")
    assert code == 2
    assert "not invertible" in err
    code, _, err = run(capsys, "mul", str(CORPUS / "usl2.abhk"), "t +")
    assert code == 2


def test_corad_output(capsys):
    code, out, _ = run(capsys, "corad", str(CORPUS / "uqsl2.abhk"), "E*F")
    assert code == 0
    assert "degree: 2" in out


def test_classify_braces(capsys):
    code, out, _ = run(capsys, "classify", str(CORPUS / "heisenberg.abhk"))
    assert code == 0
    assert out.strip() == "classification: {i, ii}"


def test_coprod_and_antipode(capsys):
    code, out, _ = run(capsys, "coprod", str(CORPUS / "usl2.abhk"), "X+")
    assert code == 0
    assert "(x)" in out
    code, out, _ = run(capsys, "antipode", str(CORPUS / "usl2.abhk"), "X+")
    assert code == 0
    assert "result: -X+" in out
    assert "antipode-form: -y^-1*X" in out


def test_props_machine_format(capsys):
    code, out, _ = run(capsys, "--format", "machine", "props",
                       str(CORPUS / "laurent-asym.abhk"))
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["gk_dim"].startswith("3")
    assert lines["pi"].startswith("yes, degree 8")


def test_relabel_general_form(capsys):
    code, out, _ = run(capsys, "relabel", str(CORPUS / "uqsl2-general.abhk"))
    assert code == 0
    assert "y_minus: t" in out
    assert "xi: q^-2" in out


def test_relabel_identity_on_hat_form(capsys):
    code, out, _ = run(capsys, "relabel", str(CORPUS / "usl2.abhk"))
    assert code == 0
    assert "h: t" in out
    assert "xi: 1" in out


def test_examples_summary(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "corpus entries pass" in out


def test_outputs_are_deterministic(capsys):
    argvs = [
        ("check", str(CORPUS / "uqsl2-case3.abhk")),
        ("props", str(CORPUS / "uqsl2-variant.abhk")),
        ("coprod", str(CORPUS / "uqsl2.abhk"), "E*F"),
        ("--format", "machine", "examples"),
    ]
    for argv in argvs:
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, argv


def test_reused_parser_keeps_no_state_between_calls(capsys):
    usl2 = str(CORPUS / "usl2.abhk")
    run(capsys, "--format", "machine", "--field", "cyclotomic:4", "check", usl2)
    reused = run(capsys, "check", usl2)
    _build_parser.cache_clear()
    assert run(capsys, "check", usl2) == reused


def test_field_override_allows_reinterpretation(capsys):
    # a rational spec can run over a cyclotomic field
    code, out, _ = run(capsys, "--field", "cyclotomic:4", "check",
                       str(CORPUS / "usl2.abhk"))
    assert code == 0


def test_corpus_dir_env_override(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    code, _, err = run(capsys, "examples")
    assert code == 2
    assert "no corpus entries" in err


def test_general_form_check_runs_the_data_check_once(monkeypatch, capsys):
    # relabel checks the hat-form data it derives and hands back that report
    import abhk.cli as cli_module
    from abhk import hopfstruct

    calls = []
    real = hopfstruct.check_main_theorem

    def counted(base, data):
        calls.append(data)
        return real(base, data)

    monkeypatch.setattr(hopfstruct, "check_main_theorem", counted)
    monkeypatch.setattr(cli_module, "check_main_theorem", counted)
    code, out, _ = run(capsys, "check", str(CORPUS / "uqsl2-general.abhk"))
    assert code == 0 and out.startswith("main-theorem data check")
    assert len(calls) == 1


def test_internal_error_exits_3(monkeypatch, capsys):
    import abhk.cli as cli_module
    from abhk.errors import InternalError

    def explode(spec):
        raise InternalError("synthetic breach")

    monkeypatch.setattr(cli_module, "_checked_algebra", explode)
    code, _, err = run(capsys, "check", str(CORPUS / "usl2.abhk"))
    assert code == 3
    assert "internal error" in err


def test_axiom_breach_names_the_failing_condition(monkeypatch, capsys):
    from abhk import hopfstruct

    def broken(hopf):
        report = hopfstruct.CheckReport("Hopf axiom verification (verified on generators)")
        report.record("coassociativity[X+]", False)
        return report

    monkeypatch.setattr(hopfstruct, "verify_hopf_axioms", broken)
    code, _, err = run(capsys, "check", str(CORPUS / "usl2.abhk"))
    assert code == 3
    assert "coassociativity[X+]" in err
    assert "Traceback" not in err


def test_axiom_breach_prints_its_witness(monkeypatch, capsys):
    from abhk.hopfstruct import HopfAmbiskewAlgebra

    right = HopfAmbiskewAlgebra.antipode_leg

    def wrong(hopf, leg):
        # S(X+) = +y^-1 X+: for usl2 (y = 1) m(S (x) id)Delta(X+) = 2 X+
        s = right(hopf, leg)
        return s.scale(hopf.algebra.field.from_int(-1)) if leg[1] else s

    monkeypatch.setattr(HopfAmbiskewAlgebra, "antipode_leg", wrong)
    code, out, err = run(capsys, "check", str(CORPUS / "usl2.abhk"))
    assert code == 3
    assert out == ""
    assert err == ("internal error: constructed algebra failed axiom verification: "
                   "antipode-left[X+] [lhs - rhs = 2*X+], "
                   "antipode-right[X+] [lhs - rhs = 2*X+]\n")
    assert "Traceback" not in err


def test_nested_power_at_the_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "mul", str(CORPUS / "uqsl2-variant.abhk"), "((q+1)^16)^16")
    assert code == 0
    assert out.startswith("result: ")


USAGE_ERROR = "abhk: error: argument "

# each malformed command line and the last line it prints on stderr
MALFORMED_INPUT = [
    (("--field", "cyclotomic:x", "check", "usl2.abhk"),
     USAGE_ERROR + "--field: 'cyclotomic:x': invalid literal for int() with base 10: 'x'"),
    (("--field", "cyclotomic:0", "check", "usl2.abhk"),
     USAGE_ERROR + "--field: 'cyclotomic:0': cyclotomic order must be >= 1"),
    (("--field", "rational:3", "check", "usl2.abhk"),
     USAGE_ERROR + "--field: 'rational:3': field.order only applies to cyclotomic fields"),
    (("--field", "rational-function:2", "check", "usl2.abhk"),
     USAGE_ERROR + "--field: 'rational-function:2': field.order only applies to cyclotomic fields"),
    (("--nmax", "-5", "props", "usl2.abhk"), USAGE_ERROR + "--nmax: '-5' is not a positive integer"),
    (("--nmax", "0", "props", "usl2.abhk"), USAGE_ERROR + "--nmax: '0' is not a positive integer"),
    (("--nmax", "x", "props", "usl2.abhk"), USAGE_ERROR + "--nmax: 'x' is not an integer"),
    (("--field", "cyclotomic", "check", "usl2.abhk"),
     USAGE_ERROR + "--field: 'cyclotomic': cyclotomic field needs an order"),
    (("--field", "foo", "check", "usl2.abhk"),
     USAGE_ERROR + "--field: 'foo': unknown field kind 'foo'"),
    (("mul", "uqsl2-variant.abhk", "(q-q)^-1"), "error: inverse of zero"),
    (("mul", "usl2.abhk", "(1-1)^-1"), "error: inverse of zero"),
    (("--field", "cyclotomic:8", "mul", "usl2.abhk", "(zeta-zeta)^-1"), "error: inverse of zero"),
    (("--field", "rational", "examples"), "error: --field does not apply to examples"),
    (("--nmax", "5", "examples"), "error: --nmax does not apply to examples"),
    (("mul", "uqsl2-variant.abhk", "(q+1)^3000"),
     "error: exponent 3000 exceeds the limit 256 at line 1, column 7"),
    (("mul", "uqsl2-variant.abhk", "((q+1)^256)^256"),
     "error: nested exponents multiply to 65536, which exceeds the limit 256 "
     "at line 1, column 13"),
    (("mul", "uqsl2-variant.abhk", "((q+1)^17)^16"),
     "error: nested exponents multiply to 272, which exceeds the limit 256 at line 1, column 12"),
    (("mul", "usl2.abhk", "(X+ + 1)^-1"), "error: element with X factors is not invertible"),
    (("mul", "usl2.abhk", "(2*t)^-1"), "error: monomial is not a unit in this family"),
    (("--field", "cyclotomic:100000", "check", "usl2.abhk"),
     USAGE_ERROR + "--field: 'cyclotomic:100000': cyclotomic order 100000 exceeds the limit 512"),
    # letters and digits are ASCII: any other character is refused where it stands
    (("mul", "usl2.abhk", "\u00b2"), "error: unexpected character '\u00b2' at line 1, column 1"),
    (("mul", "usl2.abhk", "t^\u00b2"), "error: unexpected character '\u00b2' at line 1, column 3"),
    (("mul", "usl2.abhk", "\u0663"), "error: unexpected character '\u0663' at line 1, column 1"),
    (("mul", "usl2.abhk", "t\u00e9"), "error: unexpected character '\u00e9' at line 1, column 2"),
    (("mul", "usl2.abhk", "(" * 65 + "t" + ")" * 65),
     "error: parentheses nested deeper than 64 at line 1, column 65"),
    (("check", "not-utf8.abhk"), "error: {tmp}/not-utf8.abhk: not UTF-8 at byte 0"),
]

# spec files the rows above name, written to tmp_path first
MALFORMED_FILES = {"not-utf8.abhk": b"\xff\xfefield {\n"}


@pytest.mark.parametrize("argv, message", MALFORMED_INPUT,
                         ids=[" ".join(argv) for argv, _ in MALFORMED_INPUT])
def test_malformed_input_is_input_error(capsys, tmp_path, argv, message):
    paths = []
    for word in argv:
        if word in MALFORMED_FILES:
            (tmp_path / word).write_bytes(MALFORMED_FILES[word])
            word = str(tmp_path / word)
        elif word.endswith(".abhk"):
            word = str(CORPUS / word)
        paths.append(word)
    argv, message = paths, message.replace("{tmp}", str(tmp_path))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad option values this way
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    # argparse prints its usage first; every other refusal is one line
    lines = err.splitlines()
    assert lines[-1] == message
    assert message.startswith(USAGE_ERROR) or len(lines) == 1


@pytest.mark.parametrize("expr, where", [
    ("t  +  %", "line 1, column 7"),
    ("t\n + %", "line 2, column 4"),
    ("t +\n\n   1/2 * %", "line 3, column 10"),
], ids=["spaces", "newline", "blank-line"])
def test_error_column_counts_every_character_since_the_line_start(capsys, expr, where):
    code, _, err = run(capsys, "mul", str(CORPUS / "usl2.abhk"), expr)
    assert (code, err) == (2, f"error: unexpected character '%' at {where}\n")


def test_nesting_limit_is_inclusive(capsys):
    text = "(" * 64 + "t" + ")" * 64
    assert run(capsys, "mul", str(CORPUS / "usl2.abhk"), text) == \
        run(capsys, "mul", str(CORPUS / "usl2.abhk"), "t")


# an expression may start with "-": only -h, --help and -- keep their meaning
DASH_EXPRESSIONS = [
    (("mul", "usl2.abhk", "-t"), "result: -t\n"),
    (("coprod", "usl2.abhk", "-t"), "result: -1 (x) t  +  -t (x) 1\n"),
    (("antipode", "usl2.abhk", "-t"), "result: t\nantipode-form: -y^-1*X\n"),
    (("corad", "usl2.abhk", "-t"), "degree: 1\nterm: X+^0 X-^0  base-degree 1  degree 1\n"),
    (("mul", "uqsl2.abhk", "-E*F"), "result: -E*F\n"),
    (("mul", "usl2.abhk", "--", "-t"), "result: -t\n"),
    (("mul", "usl2.abhk", "--", "t"), "result: t\n"),
]


@pytest.mark.parametrize("argv, out", DASH_EXPRESSIONS,
                         ids=[" ".join(argv) for argv, _ in DASH_EXPRESSIONS])
def test_an_expression_may_start_with_a_minus(capsys, argv, out):
    argv = [str(CORPUS / word) if word.endswith(".abhk") else word for word in argv]
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("command", ["mul", "coprod", "antipode", "corad"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_still_wins_over_an_expression(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, str(CORPUS / "usl2.abhk"), flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: abhk {command} [-h] spec expr\n")


def test_examples_report_a_spec_that_is_not_utf8(monkeypatch, capsys, tmp_path):
    (tmp_path / "bad-xi.abhk").write_text((CORPUS / "bad-xi.abhk").read_text())
    (tmp_path / "not-utf8.abhk").write_bytes(MALFORMED_FILES["not-utf8.abhk"])
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    assert run(capsys, "examples") == (1, "\n".join([
        "bad-xi    pass", "not-utf8  FAIL",
        f"    load: ERROR ({tmp_path}/not-utf8.abhk: not UTF-8 at byte 0)",
        "1/2 corpus entries pass", ""]), "")


@pytest.mark.parametrize("spec, expr, same_as", [
    ("laurent-asym.abhk", "(2*t)^-1", "1/2*t^-1"),
    ("usl2.abhk", "(t + 1)^2", "t^2 + 2*t + 1"),
], ids=lambda word: word)
def test_power_of_a_compound_base(capsys, spec, expr, same_as):
    code, out, _ = run(capsys, "mul", str(CORPUS / spec), expr)
    assert code == 0
    assert (code, out) == run(capsys, "mul", str(CORPUS / spec), same_as)[:2]


# -- spec files that fail their schema: one row per refusal ------------------------

HAT_SPEC = """field {
  kind: rational
}
base {
  family: polynomial
}
extension {
  chi {
    t: 1
  }
  y_plus: 1
  y_minus: 1
  h: t
}
"""

GROUP_SPEC = """field {
  kind: rational
}
base {
  family: group
  rank: 1
  torsion: 2
}
extension {
  chi {
    g1: 1
    g2: 1
  }
  y_plus: g1
  y_minus: g1
  h: g1^2 - 1
}
"""

GENERAL_SPEC = (CORPUS / "uqsl2-general.abhk").read_text()


def _spec_file(tmp_path, text):
    path = tmp_path / "spec.abhk"
    path.write_text(text)
    return str(path)


def _refused(capsys, *argv):
    """Run the CLI; return its exit code and stderr, which must carry no
    traceback."""
    code, _, err = run(capsys, *argv)
    assert "Traceback" not in err
    return code, err


def test_valid_variants_of_the_refusal_specs_pass(capsys, tmp_path):
    for text in (HAT_SPEC, GROUP_SPEC, GENERAL_SPEC):
        code, _ = _refused(capsys, "check", _spec_file(tmp_path, text))
        assert code == 0


def _swap(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


SPEC_REFUSALS = [
    # _parse_blocks
    ("unmatched-brace", HAT_SPEC + "}\n", "unmatched closing brace at line 15"),
    ("bad-block-name", _swap(HAT_SPEC, "base {", "ba-se {"), "bad block name 'ba-se'"),
    ("duplicate-block", HAT_SPEC + "base {\n}\n", "duplicate block 'base'"),
    ("not-key-value", _swap(HAT_SPEC, "family: polynomial", "family polynomial"),
     "expected 'key: value'"),
    ("duplicate-key", _swap(HAT_SPEC, "kind: rational", "kind: rational\n  kind: rational"),
     "duplicate key 'kind' in field"),
    ("unclosed-block", HAT_SPEC[:-2], "unclosed block 'extension'"),
    # the document
    ("top-level-key", "version: 1\n" + HAT_SPEC, "document: unexpected top-level key"),
    ("unknown-block", HAT_SPEC + "mystery {\n}\n", "document: unknown block 'mystery'"),
    ("missing-block", _swap(HAT_SPEC, "base {\n  family: polynomial\n}\n", ""),
     "document: block 'base' required"),
    # field
    ("field-nested", _swap(HAT_SPEC, "kind: rational", "kind: rational\n  inner {\n  }"),
     "field: nested blocks not allowed"),
    ("field-kind-missing", _swap(HAT_SPEC, "  kind: rational\n", ""), "field.kind required"),
    ("field-kind-unknown", _swap(HAT_SPEC, "kind: rational", "kind: imaginary"),
     "field.kind: unknown value"),
    ("field-extra-key", _swap(HAT_SPEC, "kind: rational", "kind: rational\n  size: 3"),
     "field: unknown key 'size'"),
    ("field-order-missing", _swap(HAT_SPEC, "kind: rational", "kind: cyclotomic"),
     "field.order required"),
    ("field-order-not-int", _swap(HAT_SPEC, "kind: rational", "kind: cyclotomic\n  order: x"),
     "field.order: expected an integer, found 'x'"),
    ("field-order-zero", _swap(HAT_SPEC, "kind: rational", "kind: cyclotomic\n  order: 0"),
     "field.order: expected an integer >= 1"),
    ("field-order-too-large",
     _swap(HAT_SPEC, "kind: rational", "kind: cyclotomic\n  order: 100000"),
     "cyclotomic order 100000 exceeds the limit"),
    ("field-order-not-cyclotomic", _swap(HAT_SPEC, "kind: rational", "kind: rational\n  order: 5"),
     "field.order only applies to cyclotomic fields"),
    # base
    ("base-nested", _swap(HAT_SPEC, "family: polynomial", "family: polynomial\n  inner {\n  }"),
     "base: nested blocks not allowed"),
    ("base-family-missing", _swap(HAT_SPEC, "  family: polynomial\n", ""), "base.family required"),
    ("base-family-unknown", _swap(HAT_SPEC, "family: polynomial", "family: matrix"),
     "base.family: unknown value"),
    ("base-extra-key", _swap(HAT_SPEC, "family: polynomial", "family: polynomial\n  rank: 2"),
     "base: unknown key 'rank'"),
    ("base-q-missing", _swap(HAT_SPEC, "family: polynomial", "family: uqsl2"),
     "base.q required for the uqsl2 family"),
    ("base-rank-not-int", _swap(GROUP_SPEC, "rank: 1", "rank: one"),
     "base.rank: expected an integer, found 'one'"),
    ("base-rank-negative", _swap(GROUP_SPEC, "rank: 1", "rank: -1"),
     "base.rank: expected an integer >= 0"),
    ("base-torsion-zero", _swap(GROUP_SPEC, "torsion: 2", "torsion: 2,0"),
     "base.torsion: expected an integer >= 1"),
    ("base-torsion-negative", _swap(GROUP_SPEC, "torsion: 2", "torsion: -3"),
     "base.torsion: expected an integer >= 1"),
    # extension, hat form
    ("extension-y-missing", _swap(HAT_SPEC, "  y_minus: 1\n", ""), "extension.y_minus required"),
    ("extension-chi-missing", _swap(HAT_SPEC, "  chi {\n    t: 1\n  }\n", ""),
     "extension.chi block required"),
    ("extension-extra-key", _swap(HAT_SPEC, "  h: t\n", "  h: t\n  z: 1\n"),
     "extension: unknown key 'z'"),
    ("extension-extra-block", _swap(HAT_SPEC, "  h: t\n", "  h: t\n  psi {\n  }\n"),
     "extension: unknown block 'psi'"),
    # extension, general form
    ("general-with-hat-key", _swap(GENERAL_SPEC, "extension {", "extension {\n  y_plus: t"),
     "extension: hat-form keys not allowed with general_form"),
    ("general-key-missing", _swap(GENERAL_SPEC, "    xi: 1\n", ""),
     "extension.general_form.xi required"),
    ("general-extra-key", _swap(GENERAL_SPEC, "    xi: 1\n", "    xi: 1\n    z: 1\n"),
     "extension.general_form: unknown key 'z'"),
    ("general-sigma-missing",
     _swap(GENERAL_SPEC, "    sigma_inverse {\n      t: q^2*t\n    }\n", ""),
     "extension.general_form.sigma_inverse block required"),
    ("general-extra-block", _swap(GENERAL_SPEC, "    xi: 1\n", "    xi: 1\n    tau {\n    }\n"),
     "extension.general_form: unknown block 'tau'"),
    # options and expect
    ("options-unknown", HAT_SPEC + "options {\n  depth: 3\n}\n",
     "options: only 'nmax' is supported"),
    ("options-nmax-zero", HAT_SPEC + "options {\n  nmax: 0\n}\n",
     "options.nmax: expected an integer >= 1"),
    ("expect-unknown-key", HAT_SPEC + "expect {\n  verdict: pass\n}\n",
     "expect: unknown key 'verdict'"),
    ("expect-unknown-block", HAT_SPEC + "expect {\n  extras {\n  }\n}\n",
     "expect: unknown block 'extras'"),
    # the blocks whose keys are free still take no nested block
    ("chi-nested", _swap(HAT_SPEC, "    t: 1\n", "    t: 1\n    inner {\n      u: 5\n    }\n"),
     "extension.chi: nested blocks not allowed"),
    ("sigma-nested",
     _swap(GENERAL_SPEC, "      t: q^-2*t\n", "      t: q^-2*t\n      inner {\n      }\n"),
     "extension.general_form.sigma: nested blocks not allowed"),
    ("sigma-inverse-nested",
     _swap(GENERAL_SPEC, "      t: q^2*t\n", "      t: q^2*t\n      inner {\n      }\n"),
     "extension.general_form.sigma_inverse: nested blocks not allowed"),
    ("identities-nested", HAT_SPEC + "expect {\n  identities {\n    deeper {\n    }\n  }\n}\n",
     "expect.identities: nested blocks not allowed"),
    ("corad-nested", HAT_SPEC + "expect {\n  corad {\n    deeper {\n    }\n  }\n}\n",
     "expect.corad: nested blocks not allowed"),
]


@pytest.mark.parametrize("text, message", [row[1:] for row in SPEC_REFUSALS],
                         ids=[row[0] for row in SPEC_REFUSALS])
def test_spec_schema_refusal_is_input_error(capsys, tmp_path, text, message):
    code, err = _refused(capsys, "check", _spec_file(tmp_path, text))
    assert code == 2
    assert f"error: {message}" in err


@pytest.mark.parametrize("command", ["check", "props", "relabel"])
@pytest.mark.parametrize("old, new, path", [
    ("rank: 1", "rank: -1", "base.rank"),
    ("torsion: 2", "torsion: 0", "base.torsion"),
])
def test_bad_group_parameters_are_input_errors(capsys, tmp_path, command, old, new, path):
    code, err = _refused(capsys, command, _spec_file(tmp_path, _swap(GROUP_SPEC, old, new)))
    assert code == 2
    assert f"error: {path}: " in err


# -- relabel refusals: one row per reachable failed condition ------------------------

SIGMA_INVOLUTION = ("      t: q^-2*t\n    }\n    sigma_inverse {\n      t: q^2*t\n",
                    "      t: t^-1\n    }\n    sigma_inverse {\n      t: t^-1\n")


@pytest.mark.parametrize("old, new, condition", [
    ("l_plus: t", "l_plus: 2*t", "l+ is not grouplike"),
    (*SIGMA_INVOLUTION, "sigma(l+) != chi(l+) l+"),
    (*SIGMA_INVOLUTION, "sigma != ad_l(l+) tau^r_chi on t"),
    (*SIGMA_INVOLUTION, "sigma != ad_l(r+) tau^l_chi on t"),
    ("xi: 1", "xi: 2", "xi != chi(l-r+) = chi(l+r-)"),
    ("xi: 1", "xi: 2", "sigma(l-) (x) r+ != xi l- (x) sigma^-1(r+)"),
    ("xi: 1", "xi: 2", "l+ (x) sigma(r-) != xi sigma^-1(l+) (x) r-"),
    ("h: (t - t^-1)*(q - q^-1)^-1", "h: t", "Delta(h) != h(x)r+r- + l+l-(x)h"),
], ids=lambda word: word.split("\n")[0].strip())
def test_relabel_refusal_names_the_condition(capsys, tmp_path, old, new, condition):
    # the commutativity condition cannot fail here: every base family's
    # grouplikes commute
    text = _swap(GENERAL_SPEC, old, new)
    with pytest.raises(HopfDataError, match=re.escape(condition)):
        relabel(resolve_spec(parse_spec(text)).general)
    code, err = _refused(capsys, "relabel", _spec_file(tmp_path, text))
    assert code == 1
    assert err.startswith("error: ") and condition in err


# -- a general presentation that relabel refuses is a failed data check ------------

GENERAL_BAD_XI = _swap(GENERAL_SPEC, "xi: 1", "xi: 2")


@pytest.mark.parametrize("expect_check, code, lines", [
    ("check: fail\n  witness: xi != chi(l-r+) = chi(l+r-)", 0,
     ["general-bad-xi  pass", "2/2 corpus entries pass"]),
    ("check: pass", 1,
     ["general-bad-xi  FAIL", "    check: MISMATCH", "1/2 corpus entries pass"]),
], ids=["expect-fail", "expect-pass"])
def test_examples_run_a_refused_general_entry(monkeypatch, capsys, tmp_path,
                                              expect_check, code, lines):
    (tmp_path / "bad-xi.abhk").write_text((CORPUS / "bad-xi.abhk").read_text())
    (tmp_path / "general-bad-xi.abhk").write_text(
        _swap(GENERAL_BAD_XI, "check: pass", expect_check))
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    assert run(capsys, "examples") == (code, "\n".join(["bad-xi          pass", *lines, ""]), "")


def test_props_reports_the_raw_algebra_of_a_refused_general_spec(capsys, tmp_path):
    code, out, err = run(capsys, "props", _spec_file(tmp_path, GENERAL_BAD_XI))
    assert (code, err) == (0, "")
    assert "gk_dim: 3 (sigma locally finite on generators)" in out.splitlines()
    assert "pi: no (sigma has infinite order: eigenvalue on t has infinite order)" in out


# -- props states each note once -----------------------------------------------------

Z2_SHEAR_SPEC = """field {
  kind: rational
}
base {
  family: group
  rank: 2
}
extension {
  general_form {
    sigma {
      g1: g1*g2
      g2: g2
    }
    sigma_inverse {
      g1: g1*g2^-1
      g2: g2
    }
    xi: 1
    h: 0
    l_plus: 1
    l_minus: 1
    r_plus: 1
    r_minus: 1
  }
}
"""


@pytest.mark.parametrize("fmt, line", [
    ("text", "gk_dim: unknown (sigma local finiteness undecided)"),
    ("machine", "gk_dim\tunknown (sigma local finiteness undecided)"),
])
def test_props_states_an_undecided_gk_note_once(capsys, tmp_path, fmt, line):
    # sigma: g1 -> g1 g2 has infinite orbits on Z^2, so relabel refuses
    # the form and props reports the raw algebra, whose local finiteness
    # the orbit bound cannot decide
    code, out, err = run(capsys, "--format", fmt, "props", _spec_file(tmp_path, Z2_SHEAR_SPEC))
    assert (code, err) == (0, "")
    assert [row for row in out.splitlines() if row.startswith("gk_dim")] == [line]


# -- a sigma that is not an automorphism of the base is a failed data check ------------

GROUP_GENERAL_SPEC = """field {
  kind: rational
}
base {
  family: group
  rank: 1
  torsion: 2
}
extension {
  general_form {
    sigma {
      g1: g1
      g2: g2
    }
    sigma_inverse {
      g1: g1
      g2: g2
    }
    xi: 1
    h: 0
    l_plus: 1
    l_minus: 1
    r_plus: 1
    r_minus: 1
  }
}
"""

UQSL2_GENERAL_SPEC = """field {
  kind: rational-function
}
base {
  family: uqsl2
  q: q
}
extension {
  general_form {
    sigma {
      E: E
      F: F
      K: K
    }
    sigma_inverse {
      E: E
      F: F
      K: K
    }
    xi: 1
    h: 0
    l_plus: 1
    l_minus: 1
    r_plus: 1
    r_minus: 1
  }
}
"""


@pytest.mark.parametrize("text, message", [
    (_swap(GROUP_GENERAL_SPEC, "g1: g1", "g1: g1 + 1"), "image of g1 must be a unit"),
    (_swap(GROUP_GENERAL_SPEC, "g2: g2", "g2: g1"), "image of g2 must have order dividing 2"),
    (_swap(UQSL2_GENERAL_SPEC, "F: F", "F: E"), "images break K F = q^-2 F K"),
], ids=["group-unit", "group-torsion", "uqsl2-kf"])
@pytest.mark.parametrize("command", ["check", "props"])
def test_a_sigma_that_breaks_the_base_is_refused(capsys, tmp_path, text, message, command):
    assert _refused(capsys, command, _spec_file(tmp_path, text)) == (1, f"error: {message}\n")


def test_props_states_that_xi_has_infinite_order(capsys, tmp_path):
    # sigma = id and xi = 2 on the Laurent base: relabel refuses the form
    # (xi != chi(l-r+)), and props reports the raw algebra
    text = _swap(_swap(_swap(GENERAL_SPEC, "t: q^-2*t", "t: t"), "t: q^2*t", "t: t"),
                 "xi: 1", "xi: 2")
    code, out, err = run(capsys, "props", _spec_file(tmp_path, text))
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == ["pi: no (xi has infinite order)", "pi_sigma_order: 1",
                                     "pi_xi_order: infinite"]


# -- the corpus runner on expectations its entries do not meet ----------------------

def test_examples_report_the_pi_expectations_they_miss(monkeypatch, capsys, tmp_path):
    usl2 = (CORPUS / "usl2.abhk").read_text()
    pi_line = "  pi: none                       # sigma is a translation, infinite order\n"
    (tmp_path / "pi-unknown.abhk").write_text(_swap(usl2, pi_line, "  pi: unknown\n"))
    (tmp_path / "pi-unsupported.abhk").write_text(_swap(usl2, pi_line, "  pi: unsupported\n"))
    (tmp_path / "no-expect.abhk").write_text(usl2[:usl2.index("expect {")])
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    code, out, err = run(capsys, "examples")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "no-expect       pass"
    assert "    pi: MISMATCH (no (sigma has infinite order: translation has infinite order "\
           "in characteristic 0))" in lines
    assert "    pi: MISMATCH (expected unsupported, criterion ran)" in lines
    assert lines[-1] == "1/3 corpus entries pass"
