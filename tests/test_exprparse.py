"""Expression grammar, printing round-trips, and spec-document parsing."""

from __future__ import annotations

import random

import pytest

from abhk.ambicore import Tensor
from abhk.basehopf import Character, LaurentBase, PolynomialBase
from abhk.errors import NotInvertibleError
from abhk.exprparse import (
    MAX_EXPONENT,
    EvalContext,
    Mul,
    Name,
    Neg,
    Num,
    ParseError,
    Pow,
    SpecError,
    Sum,
    eval_base_expr,
    eval_expr,
    eval_scalar_expr,
    format_ast,
    format_element,
    format_scalar,
    format_tensor,
    parse_expr,
    parse_spec,
    resolve_spec,
)
from abhk.hopfstruct import ExtensionData, construct_hopf
from abhk.scalar import CyclotomicField, RationalField, RationalFunctionField

from conftest import CORPUS_BUILDERS, random_element

QQ = RationalField()
FQ = RationalFunctionField()


@pytest.fixture(scope="module")
def usl2_ctx():
    hopf = CORPUS_BUILDERS["usl2"]()
    return EvalContext(QQ, hopf.algebra.base, hopf.algebra), hopf


def test_eval_commutator_is_t(usl2_ctx):
    ctx, hopf = usl2_ctx
    result = eval_expr(parse_expr("X+*X- - X-*X+"), ctx)
    assert result == hopf.algebra.embed(hopf.base.generator("t"))


def test_eval_rejects_uninvertible_power(usl2_ctx):
    ctx, _ = usl2_ctx
    with pytest.raises(NotInvertibleError, match="not invertible"):
        eval_expr(parse_expr("t^-1"), ctx)
    with pytest.raises(NotInvertibleError):
        eval_expr(parse_expr("X+^-2"), ctx)


def test_eval_scalar_literals():
    laurent = LaurentBase(FQ)
    chi = Character(laurent, {"t": FQ.q()})
    t = laurent.generator("t")
    data = ExtensionData(laurent, chi, t, t, laurent.zero())
    hopf, _ = construct_hopf(laurent, data)
    ctx = EvalContext(FQ, laurent, hopf.algebra)
    elem = eval_expr(parse_expr("(1/2)*t^2 + q*t"), ctx)
    assert len(elem.base_part().coeffs) == 2
    assert elem.base_part().coeff(2) == FQ.from_fraction("1/2")
    assert elem.base_part().coeff(1) == FQ.q()


def test_eval_zeta_literAccording():
    c8 = CyclotomicField(8)
    assert eval_scalar_expr(parse_expr("zeta^3 - zeta^3"), c8).is_zero()
    assert eval_scalar_expr(parse_expr("zeta^8"), c8).is_one()
    with pytest.raises(ParseError):
        eval_scalar_expr(parse_expr("zeta"), QQ)
    with pytest.raises(ParseError):
        eval_scalar_expr(parse_expr("q"), c8)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_expr("t + * 2")
    assert "line 1" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("t^x")
    with pytest.raises(ParseError):
        parse_expr("(t")
    with pytest.raises(ParseError):
        parse_expr("1/0")
    with pytest.raises(ParseError):
        parse_expr("t $ 2")


def test_x_identifier_lexing():
    ast = parse_expr("X++X-")
    assert ast == Sum(((1, Name("X+")), (1, Name("X-"))))
    ast = parse_expr("X+^2*X-")
    assert ast == Mul((Pow(Name("X+"), 2), Name("X-")))


def random_ast(rng: random.Random, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        if rng.random() < 0.5:
            from fractions import Fraction
            return Num(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
        return Name(rng.choice(["t", "X+", "X-", "q", "zeta", "alpha_1"]))
    if roll < 0.45:
        return Neg(random_ast(rng, depth + 1))
    if roll < 0.6:
        return Pow(random_ast(rng, depth + 1), rng.randint(-3, 3))
    if roll < 0.8:
        return Mul(tuple(random_ast(rng, depth + 1)
                         for _ in range(rng.randint(2, 3))))
    return Sum(tuple((rng.choice([1, -1]), random_ast(rng, depth + 1))
                     for _ in range(rng.randint(2, 3))))


def test_ast_print_parse_round_trip_500():
    rng = random.Random(2718)
    for _ in range(500):
        ast = random_ast(rng)
        first = parse_expr(format_ast(ast))
        second = parse_expr(format_ast(first))
        assert first == second


@pytest.mark.parametrize("name", list(CORPUS_BUILDERS))
def test_element_print_reparse(corpus, name):
    hopf = corpus[name]
    alg = hopf.algebra
    ctx = EvalContext(alg.field, alg.base, alg)
    rng = random.Random(5)
    for _ in range(40):
        elem = random_element(rng, hopf, max_terms=3)
        text = format_element(elem)
        assert eval_expr(parse_expr(text), ctx) == elem, text
    # a tensor prints one term per key, its legs joined by (x)
    for _ in range(5):
        delta = hopf.delta(random_element(rng, hopf, max_degree=2))
        text = format_tensor(delta)
        back = Tensor(alg, 2, {})
        for term in text.split("  +  "):
            legs = [eval_expr(parse_expr(leg), ctx) for leg in term.split(" (x) ")]
            back = back + Tensor.of(*legs)
        assert back == delta, text


def test_scalar_formatting():
    assert format_scalar(QQ.from_fraction("3/4"))[0] == "3/4"
    assert format_scalar(QQ.from_int(-2))[0] == "-2"
    c8 = CyclotomicField(8)
    text, atomic = format_scalar(c8.one() + c8.zeta(2))
    assert text == "1 + zeta^2" and not atomic
    q = FQ.q()
    assert format_scalar(q**-2)[0] == "q^-2"
    assert format_scalar((q + 1) / (q - 1))[0] == "(1 + q)*(-1 + q)^-1"
    assert format_scalar(q / 2)[0] == "1/2*q"


# -- spec documents --------------------------------------------------------------


GOOD_SPEC = """
field {
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


def test_parse_and_resolve_good_spec():
    doc = parse_spec(GOOD_SPEC)
    resolved = resolve_spec(doc)
    assert resolved.base.family == "polynomial"
    report_data = resolved.data
    assert report_data.h == resolved.base.generator("t")
    assert report_data.xi.is_one()


def test_missing_y_minus_is_path_addressed():
    bad = GOOD_SPEC.replace("  y_minus: 1\n", "")
    with pytest.raises(SpecError, match="extension.y_minus required"):
        parse_spec(bad)


def test_unknown_keys_rejected():
    bad = GOOD_SPEC.replace("base {", "base {\n  rank: 2")
    with pytest.raises(SpecError, match="unknown key"):
        parse_spec(bad)
    bad2 = GOOD_SPEC + "\nmystery {\n}\n"
    with pytest.raises(SpecError, match="unknown block"):
        parse_spec(bad2)
    bad3 = GOOD_SPEC.replace("kind: rational", "kind: rational\n  order: 5")
    with pytest.raises(SpecError, match="order only applies"):
        parse_spec(bad3)


def test_cyclotomic_field_requires_order():
    bad = GOOD_SPEC.replace("kind: rational", "kind: cyclotomic")
    with pytest.raises(SpecError, match="field.order required"):
        parse_spec(bad)


def test_out_of_range_integers_rejected():
    bad = GOOD_SPEC.replace("kind: rational", "kind: cyclotomic\n  order: 0")
    with pytest.raises(SpecError, match="field.order: expected an integer >= 1"):
        parse_spec(bad)
    bad2 = GOOD_SPEC + "options {\n  nmax: -5\n}\n"
    with pytest.raises(SpecError, match="options.nmax: expected an integer >= 1"):
        parse_spec(bad2)


def test_exponent_limit():
    assert parse_expr(f"t^{MAX_EXPONENT}") == Pow(Name("t"), MAX_EXPONENT)
    assert parse_expr(f"t^-{MAX_EXPONENT}") == Pow(Name("t"), -MAX_EXPONENT)
    for text in (f"t^{MAX_EXPONENT + 1}", f"(t+1)^-{MAX_EXPONENT + 1}", "t^3000"):
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_expr(text)
    # the same parser reads every expression in a spec file
    bad = GOOD_SPEC.replace("h: t", f"h: t^{MAX_EXPONENT + 1}")
    with pytest.raises(ParseError, match="exceeds the limit"):
        resolve_spec(parse_spec(bad))


def test_nested_exponent_limit():
    # exponents multiply along every chain of nested powers
    for text in ("((t+1)^16)^16", "((t+1)^16)^-16", "(-(t^2*t)^16 + 1)^8", "((t+1)^0)^256"):
        parse_expr(text)
    for text in ("((t+1)^17)^16", "((t+1)^256)^256", "(t*(t+1)^16)^17", "(((t^2)^2)^2)^33"):
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_expr(text)


def test_general_form_excludes_hat_keys():
    text = """
field {
  kind: rational-function
}
base {
  family: laurent
}
extension {
  general_form {
    sigma {
      t: q^-2*t
    }
    sigma_inverse {
      t: q^2*t
    }
    xi: 1
    h: (t - t^-1)*(q - q^-1)^-1
    l_plus: t
    l_minus: 1
    r_plus: 1
    r_minus: t^-1
  }
}
"""
    doc = parse_spec(text)
    resolved = resolve_spec(doc)
    assert resolved.general is not None
    assert resolved.data is None
    bad = text.replace("extension {", "extension {\n  y_plus: t")
    with pytest.raises(SpecError, match="hat-form keys not allowed"):
        parse_spec(bad)


def test_general_form_missing_piece():
    text = """
field {
  kind: rational
}
base {
  family: laurent
}
extension {
  general_form {
    sigma {
      t: t
    }
    xi: 1
    h: 0
    l_plus: t
    l_minus: 1
    r_plus: 1
    r_minus: t^-1
  }
}
"""
    with pytest.raises(SpecError, match="sigma_inverse block required"):
        parse_spec(text)


def test_corpus_files_parse_and_resolve():
    from abhk.cli import corpus_dir

    for path in sorted(corpus_dir().glob("*.abhk")):
        doc = parse_spec(path.read_text())
        resolved = resolve_spec(doc)
        assert resolved.base is not None, path.name


def test_eval_base_expr_inverts_a_compound_unit():
    base = LaurentBase(QQ)
    half = QQ.from_fraction("1/2")
    assert eval_base_expr(parse_expr("(2*t)^-1"), QQ, base) == base.generator("t", -1).scale(half)
    assert eval_base_expr(parse_expr("(2*t^-1)^-2"), QQ, base) == base.generator("t", 2).scale(
        half * half)
    with pytest.raises(NotInvertibleError):
        eval_base_expr(parse_expr("(t + 1)^-1"), QQ, base)


def test_eval_base_expr_rejects_x(usl2_ctx):
    base = PolynomialBase(QQ)
    with pytest.raises(ParseError):
        eval_base_expr(parse_expr("X+*t"), QQ, base)
    assert eval_base_expr(parse_expr("t^2 - 1"), QQ, base) == (
        base.generator("t", 2) - base.one()
    )
