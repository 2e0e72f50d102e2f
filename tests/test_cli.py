"""Command-line behaviors: exit codes, determinism, output formats."""

from __future__ import annotations

import hashlib
import re
from math import comb

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
    # the witness of a failed *-grouplike condition is what it compared:
    # Delta(y) - y (x) y, formatted as the CLI prints tensors, and counit(y).
    # With y+ = 2, z = y+ y- = 2 fails too
    text = (CORPUS / "usl2.abhk").read_text()
    spec = tmp_path / "y-plus-2.abhk"
    spec.write_text(text.replace("y_plus: 1", "y_plus: 2", 1))
    code, out, err = run(capsys, "check", str(spec))
    assert code == 1
    assert err == ""
    assert "  y-plus-grouplike: FAIL  [Delta(y+) - y+ (x) y+ = -2 (x) 1; counit(y+) = 2]\n" in out
    assert "  z-grouplike: FAIL  [Delta(z) - z (x) z = -2 (x) 1; counit(z) = 2]\n" in out
    assert "  y-minus-grouplike: pass\n" in out


SKEW_PRIMITIVE_H2 = {  # usl2.abhk with h = t^2: Delta(t^2) has the cross term 2 t (x) t
    "text": """main-theorem data check (verified on generators): fail
  character-valid: pass  [validated at construction]
  z-grouplike: pass
  z-central: pass
  h-central: pass
  h-skew-primitive: FAIL  [Delta(h) - (h (x) 1 + z (x) h) = 2*t (x) t]
  y-plus-grouplike: pass
  y-plus-in-center-of-grouplikes: pass
  y-minus-grouplike: pass
  y-minus-in-center-of-grouplikes: pass
  z-factorization: pass
  xi-match: pass
  winding-condition: pass
""",
    "machine": """overall\tfail
character-valid\tpass (validated at construction)
z-grouplike\tpass
z-central\tpass
h-central\tpass
h-skew-primitive\tfail (Delta(h) - (h (x) 1 + z (x) h) = 2*t (x) t)
y-plus-grouplike\tpass
y-plus-in-center-of-grouplikes\tpass
y-minus-grouplike\tpass
y-minus-in-center-of-grouplikes\tpass
z-factorization\tpass
xi-match\tpass
winding-condition\tpass
""",
}


@pytest.mark.parametrize("fmt", sorted(SKEW_PRIMITIVE_H2))
def test_failed_skew_primitive_condition_prints_delta_h_minus_the_sum(capsys, tmp_path, fmt):
    # a spec broken in h-skew-primitive alone: the witness is the difference
    # of the two sides, cut to WITNESS_TERMS terms
    text = (CORPUS / "usl2.abhk").read_text()
    assert "  h: t\n" in text
    spec = tmp_path / "h-t2.abhk"
    spec.write_text(text.replace("  h: t\n", "  h: t^2\n", 1))
    code, out, err = run(capsys, "--format", fmt, "check", str(spec))
    assert (code, err) == (1, "")
    assert out == SKEW_PRIMITIVE_H2[fmt]


def test_failed_winding_condition_prints_lhs_minus_rhs(capsys, tmp_path):
    # y+- = K on uqsl2-case3: tau^l_chi(E) = -E, but ad_l(K) tau^r_chi(E) =
    # K E K^-1 = zeta^2 E, so the witness names E and the difference
    text = (CORPUS / "uqsl2-case3.abhk").read_text()
    for old, new in (("y_plus: K^2", "y_plus: K"), ("y_minus: K^2", "y_minus: K"),
                     ("h: 1 - K^4", "h: 0")):
        text = text.replace(old, new, 1)
    spec = tmp_path / "y-k.abhk"
    spec.write_text(text)
    witness = "tau^l_chi != ad_l(y+) tau^r_chi on E: lhs - rhs = -(1 + zeta^2)*E"
    code, out, err = run(capsys, "check", str(spec))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "  z-central: FAIL  [z E - E z = -2*E*K^2]", f"  winding-condition: FAIL  [{witness}]"]
    code, out, err = run(capsys, "--format", "machine", "check", str(spec))
    assert (code, err) == (1, "")
    assert f"winding-condition\tfail ({witness})\n" in out


def test_failed_central_conditions_print_the_first_commutator(capsys, tmp_path):
    # y+ = 1, y- = K, h = E on uqsl2-case3 with chi(K) = 1: only z = K and h
    # fail to be central. Each witness names the first generator g, in E, F, K
    # order, with y g - g y != 0: E commutes with h = E, so h's witness is F
    text = (CORPUS / "uqsl2-case3.abhk").read_text()
    for old, new in (("    K: -1", "    K: 1"), ("y_plus: K^2", "y_plus: 1"),
                     ("y_minus: K^2", "y_minus: K"), ("h: 1 - K^4", "h: E")):
        assert old in text
        text = text.replace(old, new, 1)
    spec = tmp_path / "h-e.abhk"
    spec.write_text(text)
    z_witness = "z E - E z = -(1 - zeta^2)*E*K"
    h_witness = "h F - F h = -(1/2*zeta + 1/2*zeta^3)*K + (1/2*zeta + 1/2*zeta^3)*K^-1"
    code, out, err = run(capsys, "check", str(spec))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        f"  z-central: FAIL  [{z_witness}]", f"  h-central: FAIL  [{h_witness}]"]
    code, out, err = run(capsys, "--format", "machine", "check", str(spec))
    assert (code, err) == (1, "")
    assert f"z-central\tfail ({z_witness})\nh-central\tfail ({h_witness})\n" in out


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


def _xplus(k):
    return "1" if k == 0 else "X+" if k == 1 else f"X+^{k}"


def test_a_power_past_the_recursion_limit_has_a_coproduct_and_an_antipode(capsys):
    """X+^1024 on usl2, whose sigma (t -> t + 1) is not diagonal: sigma^p is
    built in a loop, so no power of it overruns the recursion limit. X+ is
    primitive there, so Delta(X+^1024) is the binomial sum, and S(X+^1024) =
    (-X+)^1024 = X+^1024."""
    expr = "X+^256*X+^256*X+^256*X+^256"
    code, out, err = run(capsys, "antipode", str(CORPUS / "usl2.abhk"), expr)
    assert (code, out, err) == (0, "result: X+^1024\nantipode-form: -y^-1*X\n", "")
    code, out, err = run(capsys, "coprod", str(CORPUS / "usl2.abhk"), expr)
    terms = [("" if comb(1024, k) == 1 else f"{comb(1024, k)}*") + f"{_xplus(k)} (x) "
             f"{_xplus(1024 - k)}" for k in range(1025)]
    assert (code, err) == (0, "")
    assert out == "result: " + "  +  ".join(terms) + "\n"


LONG_WORD = "X-^256*X-^256*X-^256*X-^256*X+"
LONG_WORDS = [
    ("mul", "usl2", LONG_WORD,
     "result: 523776*X-^1023 + X+*X-^1024 - 1024*t*X-^1023\n"),
    ("mul", "usl2", "X- * (X+^256*X+^256*X+^256*X+^256)",
     "result: -523776*X+^1023 + X+^1024*X- - 1024*t*X+^1023\n"),
    ("antipode", "usl2", LONG_WORD, "result: -X+*X-^1024\nantipode-form: -y^-1*X\n"),
    ("antipode", "laurent-asym", LONG_WORD,
     "result: -t^-1027*X+*X-^1024\nantipode-form: -y^-1*X\n"),
]


@pytest.mark.parametrize("command, spec, expr, want", LONG_WORDS,
                         ids=[f"{row[0]}-{row[1]}-{i}" for i, row in enumerate(LONG_WORDS)])
def test_words_past_the_recursion_limit_reduce(capsys, command, spec, expr, want):
    """X-^1024 X+ and X- X+^1024: the word cache builds X-^n X+ and X-^n X+^p
    in loops, so neither n nor p overruns the recursion limit. On usl2
    X-^n X+ = X+ X-^n - (n t - n(n-1)/2) X-^(n-1) and
    X- X+^p = X+^p X- - (p t + p(p-1)/2) X+^(p-1)."""
    assert run(capsys, command, str(CORPUS / f"{spec}.abhk"), expr) == (0, want, "")


# large outputs pinned by the sha256 of their stdout, each with what it runs
SHA256_PINS = [
    # the U_q(sl2) power over Q(q) runs every Q(q) product path (single terms,
    # one single-term factor, general) and the sums over a single-term
    # denominator and over denominators with a common factor. It prints Q(q)
    # coefficients with powers of q on either side, so a change to the Q(q)
    # data layout or to its printing that alters one byte fails here, not only
    # in the goldens
    ("mul", "uqsl2", "(E + F + K + X+ + X-)^6",
     "8d07685454dc04bacec3e4e7cf8a585168fda350963c003b48d5af35b0f68c9b"),
    # the monoid loop of products in a Laurent base and the Q(q) sum of
    # single terms
    ("mul", "uqsl2-variant", "(t + X+ + X-)^8",
     "0cd6457a1bc41290d1499ab1eebb8ff2e37af053512408ad09db53707d33e99c"),
    # coprod and antipode run the raw-data tensor product and leg surgery,
    # which mul never reaches, over Q(q) and Q(zeta_8); the uqsl2 rows print
    # Q(q) coefficients with powers of q on either side
    ("coprod", "uqsl2", "(X+ + X-)^4",
     "8a9f5d7448ec5972a3f4262c7aa713fe2d5ea34c510819823de998db324b30cf"),
    ("antipode", "uqsl2", "(X+ + X-)^4",
     "b5b9d420be3224487ccebf9eb4505ea4e49883074ebe3e35b925d5cc7b13e169"),
    ("coprod", "uqsl2-case3", "(X+ + X-)^4",
     "efcba96f302684f0462b8e135cf57c8c144ea67c32ca4999a500c7e2edee7440"),
    ("antipode", "uqsl2-case3", "(X+ + X-)^4",
     "4e740d05265ecb65b99f3562dcd65de0f23a91534819c2721ff0e680fa53edc7"),
    # the large product fills the Q(zeta_8) product memo past its limit, so
    # the clear path runs (11 clears)
    ("mul", "uqsl2-case3", "(E + F + K + X+ + X-)^12",
     "f3c549066be864d14384d98f7084fa5bf7e9bca1870e26d87de993afdc2d03ab"),
    # the word cache of products in A with a sigma that is not diagonal
    # (t -> t + 1)
    ("mul", "usl2", "(X+ + X-)^24",
     "3a438fe24b6cb9cc0964a5b56e2af3b9a12b4e8599ed4a7452052b92d7116ff0"),
]


@pytest.mark.parametrize("command, spec, expr, digest", SHA256_PINS,
                         ids=[f"{row[0]}-{row[1]}-{i}" for i, row in enumerate(SHA256_PINS)])
def test_large_outputs_match_their_sha256(capsys, command, spec, expr, digest):
    code, out, err = run(capsys, command, str(CORPUS / f"{spec}.abhk"), expr)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


_BAD_XI_DETAILS = ["    check: ok (expected failure)", "    witness: ok (xi mismatch)"]
_USL2_DETAILS = [
    "    check: ok",
    "    classification: ok (ii)",
    "    gk_dim: ok (3)",
    "    gl_dim: ok (3 (exact: Hopf sharpening))",
    "    pi: ok (no (sigma has infinite order: translation has infinite order in"
    " characteristic 0))",
    "    identity[X-*X+]: ok (X+*X- - t)",
    "    identity[X+*t]: ok (X+ + t*X+)",
    "    identity[X-*t]: ok (-X- + t*X-)",
    "    corad[1]: ok (0)",
    "    corad[X+]: ok (1)",
    "    corad[t*X+]: ok (2)",
    "    corad[X+*X-]: ok (2)",
]


@pytest.mark.parametrize("fmt, bad_xi, usl2, summary", [
    ("text", "bad-xi  pass", "usl2    pass", "2/2 corpus entries pass"),
    ("machine", "bad-xi\tpass", "usl2\tpass", "summary\t2/2 corpus entries pass"),
], ids=["text", "machine"])
def test_verbose_examples_time_each_entry_on_stderr(monkeypatch, capsys, tmp_path,
                                                    fmt, bad_xi, usl2, summary):
    # stdout is the entries' checks, as without --verbose but for the
    # indented detail lines; the wall times go to stderr only
    for name in ("bad-xi", "usl2"):
        (tmp_path / f"{name}.abhk").write_text(
            (CORPUS / f"{name}.abhk").read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    code, out, err = run(capsys, "--format", fmt, "examples", "--verbose")
    assert (code, out) == (0, "\n".join(
        [bad_xi, *_BAD_XI_DETAILS, usl2, *_USL2_DETAILS, summary, ""]))
    lines = err.splitlines()
    assert len(lines) == 2 and err.endswith("\n")
    for name, line in zip(("bad-xi", "usl2"), lines):
        assert re.fullmatch(rf"{name} +\d+\.\d ms", line), line
    quiet = [line for line in out.splitlines(keepends=True) if not line.startswith("    ")]
    assert run(capsys, "--format", fmt, "examples") == (0, "".join(quiet), "")


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


def test_cyclotomic_order_at_the_limit_is_accepted(capsys):
    # usl2 inverts nothing, so the row stays quick at any accepted order
    code, out, _ = run(capsys, "--field", "cyclotomic:126", "check", str(CORPUS / "usl2.abhk"))
    assert code == 0
    assert out.startswith("main-theorem data check (verified on generators): pass")


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
    (("--nmax", "4097", "props", "usl2.abhk"),
     USAGE_ERROR + "--nmax: '4097' exceeds the limit 4096"),
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
     USAGE_ERROR + "--field: 'cyclotomic:100000': cyclotomic order 100000 exceeds the limit 126"),
    # the cap keeps the inverses of uqsl2-case3 under a second; the prime 127 is
    # the first order past it, and would take longer
    (("--field", "cyclotomic:127", "check", "uqsl2-case3.abhk"),
     USAGE_ERROR + "--field: 'cyclotomic:127': cyclotomic order 127 exceeds the limit 126"),
    # letters and digits are ASCII: any other character is refused where it stands
    (("mul", "usl2.abhk", "\u00b2"), "error: unexpected character '\u00b2' at line 1, column 1"),
    (("mul", "usl2.abhk", "t^\u00b2"), "error: unexpected character '\u00b2' at line 1, column 3"),
    (("mul", "usl2.abhk", "\u0663"), "error: unexpected character '\u0663' at line 1, column 1"),
    (("mul", "usl2.abhk", "t\u00e9"), "error: unexpected character '\u00e9' at line 1, column 2"),
    (("mul", "usl2.abhk", "(" * 65 + "t" + ")" * 65),
     "error: parentheses nested deeper than 64 at line 1, column 65"),
    (("check", "not-utf8.abhk"), "error: {tmp}/not-utf8.abhk: not UTF-8 at byte 0"),
    # an expression equal to zero has no coradical degree, in either format
    (("corad", "usl2.abhk", "0"), "error: coradical degree of zero is undefined"),
    (("corad", "usl2.abhk", "X+ - X+"), "error: coradical degree of zero is undefined"),
    (("--format", "machine", "corad", "usl2.abhk", "X+ - X+"),
     "error: coradical degree of zero is undefined"),
    (("corad", "uqsl2.abhk", "(q-q)*E"), "error: coradical degree of zero is undefined"),
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
    ("field-order-past-the-limit",
     _swap(HAT_SPEC, "kind: rational", "kind: cyclotomic\n  order: 127"),
     "cyclotomic order 127 exceeds the limit 126"),
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
    # the whole line: the value and the limit
    ("options-nmax-past-the-limit", HAT_SPEC + "options {\n  nmax: 4097\n}\n",
     "options.nmax: 4097 exceeds the limit 4096\n"),
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


# sigma: t -> 2*t + 1 fails the Hopf check, so props reports on the raw
# algebra; its images 2^n t + 2^n - 1 grow at each step, so the order of sigma
# is decided from the linear coefficient 2, not by iterating images
AFFINE_SIGMA_SPEC = """field {
  kind: rational
}
base {
  family: polynomial
}
extension {
  general_form {
    sigma {
      t: 2*t + 1
    }
    sigma_inverse {
      t: (t - 1)*2^-1
    }
    xi: 1
    h: t
    l_plus: 1
    l_minus: 1
    r_plus: 1
    r_minus: 1
  }
}
"""


@pytest.mark.parametrize("argv, options", [(("--nmax", "4096"), ""),
                                           ((), "options {\n  nmax: 4096\n}\n")],
                         ids=["flag", "spec"])
def test_nmax_at_the_limit_is_accepted(capsys, tmp_path, argv, options):
    spec = _spec_file(tmp_path, AFFINE_SIGMA_SPEC + options)
    code, out, err = run(capsys, *argv, "props", spec)
    assert (code, err) == (0, "")
    assert AFFINE_INFINITE_PI in out.splitlines()


AFFINE_INFINITE_PI = ("pi: no (sigma has infinite order: "
                      "affine map t -> a*t + b with a of infinite order)")


# t -> a*t + b has the order of a: infinite for a = 2; 2 for a = -1, decided
# even at nmax 1, where a search by iterated images would stop and print
# "pi: unknown (sigma order > 1)"; the PI criterion then finds sigma not
# diagonal. pi_sigma_order prints "infinite" for any order pi_check did not report.
@pytest.mark.parametrize("nmax, image, inverse, pi", [
    ("4096", "2*t + 1", "(t - 1)*2^-1", AFFINE_INFINITE_PI),
    ("1", "-t + 1", "-t + 1", "pi: unknown (eigendecomposition unsupported: sigma not diagonal)"),
], ids=["infinite", "order-2"])
def test_props_decides_the_order_of_an_affine_sigma(capsys, tmp_path, nmax, image, inverse, pi):
    text = _swap(_swap(AFFINE_SIGMA_SPEC, "t: 2*t + 1", f"t: {image}"),
                 "t: (t - 1)*2^-1", f"t: {inverse}")
    code, out, err = run(capsys, "--nmax", nmax, "props", _spec_file(tmp_path, text))
    assert (code, err) == (0, "")
    assert out == "\n".join([
        "noetherian: true", "domain: true", "prime: true (base prime)",
        "semiprime_goldie: true", "gk_dim: 3 (sigma locally finite on generators)",
        "gl_dim: [2, 3]", "inj_dim: [2, 3]", "as_gorenstein: unknown", "as_regular: unknown",
        "auslander_gorenstein: true", "auslander_regular: true", pi,
        "pi_sigma_order: infinite", "pi_xi_order: infinite", ""])


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
    (_swap(GENERAL_SPEC, "t: q^-2*t", "t: t + 1"), "image of t must be a unit"),
], ids=["group-unit", "group-torsion", "uqsl2-kf", "laurent-unit"])
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
    (tmp_path / "pi-unsupported.abhk").write_text(_swap(usl2, pi_line, "  pi: unsupported\n"))
    (tmp_path / "no-expect.abhk").write_text(usl2[:usl2.index("expect {")])
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    code, out, err = run(capsys, "examples")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "no-expect       pass"
    assert "    pi: MISMATCH (expected unsupported, criterion ran)" in lines
    assert lines[-1] == "1/2 corpus entries pass"


# An expect expression that does not evaluate fails its own entry, on a line
# of its own; the runner reports every other entry and exits 1, with no
# traceback. Each row inserts one expression into a copy of usl2.abhk named
# broken.abhk, run beside an untouched usl2.abhk.
USL2_DETAILS = [
    "check: ok", "classification: ok (ii)", "gk_dim: ok (3)",
    "gl_dim: ok (3 (exact: Hopf sharpening))",
    "pi: ok (no (sigma has infinite order: translation has infinite order in characteristic 0))",
    "identity[X-*X+]: ok (X+*X- - t)", "identity[X+*t]: ok (X+ + t*X+)",
    "identity[X-*t]: ok (-X- + t*X-)",
    "corad[1]: ok (0)", "corad[X+]: ok (1)", "corad[t*X+]: ok (2)", "corad[X+*X-]: ok (2)",
]
UNEVALUATED_EXPECT = [
    ("corad-zero", "    X+*X-: 2\n", "    X+ - X+: 0\n", "corad[X+*X-]: ok (2)",
     "corad[X+ - X+]: ERROR (coradical degree of zero is undefined)"),
    ("identity-not-invertible", "    X-*t: t*X- - X-\n", "    X+^-1: 1\n",
     "identity[X-*t]: ok (-X- + t*X-)", "identity[X+^-1]: ERROR (X+ is not invertible)"),
    ("identity-right-side", "    X-*t: t*X- - X-\n", "    t: t^-1\n",
     "identity[X-*t]: ok (-X- + t*X-)",
     "identity[t]: ERROR (t is not invertible in the polynomial family)"),
    ("corad-unparsed", "    X+*X-: 2\n", "    X+ +: 1\n", "corad[X+*X-]: ok (2)",
     "corad[X+ +]: ERROR (expected a value, found end of input at line 1, column 5)"),
]


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("after, line, detail_after, detail",
                         [row[1:] for row in UNEVALUATED_EXPECT],
                         ids=[row[0] for row in UNEVALUATED_EXPECT])
def test_examples_report_an_expect_expression_that_does_not_evaluate(
        monkeypatch, capsys, tmp_path, fmt, after, line, detail_after, detail):
    usl2 = (CORPUS / "usl2.abhk").read_text()
    (tmp_path / "usl2.abhk").write_text(usl2)
    (tmp_path / "broken.abhk").write_text(_swap(usl2, after, after + line))
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    details = list(USL2_DETAILS)
    details.insert(details.index(detail_after) + 1, detail)
    if fmt == "text":
        head, tail, summary = "broken  FAIL", "usl2    pass", "1/2 corpus entries pass"
    else:
        head, tail, summary = "broken\tFAIL", "usl2\tpass", "summary\t1/2 corpus entries pass"
    assert run(capsys, "--format", fmt, "examples") == (1, "\n".join([
        head, *(f"    {d}" for d in details), tail, summary, ""]), "")


def test_examples_do_not_report_an_internal_breach_as_an_entry_error(monkeypatch, capsys):
    """An engine breach while an expect expression evaluates is not the
    entry's own error: the run stops with exit 3, as every command does."""
    import abhk.cli as cli_module
    from abhk.errors import InternalError

    def explode(node, ctx):
        raise InternalError("synthetic breach")

    monkeypatch.setattr(cli_module, "eval_expr", explode)
    assert run(capsys, "examples") == (3, "", "internal error: synthetic breach\n")


# an expect value the runner cannot compare with is refused when the spec is
# read: `pi: unknown` too, which no verified extension can meet (its sigma is
# a winding, whose order is always decided)
MALFORMED_EXPECT = [
    ("gk-dim", "gk_dim: 3", "gk_dim: x", "expect.gk_dim: expected an integer, found 'x'"),
    ("gl-dim", "gl_dim: 3", "gl_dim: -1", "expect.gl_dim: expected an integer >= 0, found '-1'"),
    ("pi-text", "pi: none", "pi: abc",
     "expect.pi: expected none, unsupported or an integer >= 1, found 'abc'"),
    ("pi-unknown", "pi: none", "pi: unknown",
     "expect.pi: expected none, unsupported or an integer >= 1, found 'unknown'"),
    ("pi-zero", "pi: none", "pi: 0",
     "expect.pi: expected none, unsupported or an integer >= 1, found '0'"),
    ("corad", "X+: 1", "X+: one", "expect.corad[X+]: expected an integer, found 'one'"),
    ("check", "check: pass", "check: maybe", "expect.check: unknown value 'maybe'"),
]


@pytest.mark.parametrize("old, new, message", [row[1:] for row in MALFORMED_EXPECT],
                         ids=[row[0] for row in MALFORMED_EXPECT])
def test_a_malformed_expect_value_is_refused(monkeypatch, capsys, tmp_path, old, new, message):
    path = tmp_path / "usl2.abhk"
    path.write_text(_swap((CORPUS / "usl2.abhk").read_text(), old, new))
    assert run(capsys, "check", str(path)) == (2, "", f"error: {message}\n")
    monkeypatch.setenv("ABHK_CORPUS_DIR", str(tmp_path))
    assert run(capsys, "examples") == (1, "\n".join([
        "usl2  FAIL", f"    load: ERROR ({message})", "0/1 corpus entries pass", ""]), "")
