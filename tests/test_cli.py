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
    (("--nmax", "-5", "props", "usl2.abhk"), USAGE_ERROR + "--nmax: '-5' is not a positive integer"),
    (("--nmax", "0", "props", "usl2.abhk"), USAGE_ERROR + "--nmax: '0' is not a positive integer"),
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
]


@pytest.mark.parametrize("argv, message", MALFORMED_INPUT,
                         ids=[" ".join(argv) for argv, _ in MALFORMED_INPUT])
def test_malformed_input_is_input_error(capsys, argv, message):
    argv = [str(CORPUS / word) if word.endswith(".abhk") else word for word in argv]
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
    # the two commutativity conditions cannot fail here: every base family's
    # grouplikes commute
    text = _swap(GENERAL_SPEC, old, new)
    with pytest.raises(HopfDataError, match=re.escape(condition)):
        relabel(resolve_spec(parse_spec(text)).general)
    code, err = _refused(capsys, "relabel", _spec_file(tmp_path, text))
    assert code == 1
    assert err.startswith("error: ") and condition in err
