"""Command-line behaviors: exit codes, determinism, output formats."""

from __future__ import annotations

import pytest

from abhk.cli import _build_parser, corpus_dir, main

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


def test_nested_power_at_the_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "mul", str(CORPUS / "uqsl2-variant.abhk"), "((q+1)^16)^16")
    assert code == 0
    assert out.startswith("result: ")


@pytest.mark.parametrize("argv", [
    ("--field", "cyclotomic:x", "check", "usl2.abhk"),
    ("--field", "cyclotomic:0", "check", "usl2.abhk"),
    ("--nmax", "-5", "props", "usl2.abhk"),
    ("--nmax", "0", "props", "usl2.abhk"),
    ("mul", "uqsl2-variant.abhk", "(q-q)^-1"),
    ("mul", "usl2.abhk", "(1-1)^-1"),
    ("--field", "cyclotomic:8", "mul", "usl2.abhk", "(zeta-zeta)^-1"),
    ("--field", "rational", "examples"),
    ("--nmax", "5", "examples"),
    ("mul", "uqsl2-variant.abhk", "(q+1)^3000"),
    ("mul", "uqsl2-variant.abhk", "((q+1)^256)^256"),
    ("mul", "uqsl2-variant.abhk", "((q+1)^17)^16"),
], ids=" ".join)
def test_malformed_input_is_input_error(capsys, argv):
    argv = [str(CORPUS / word) if word.endswith(".abhk") else word for word in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad option values this way
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err
