"""Refusals of the library API and the operator protocol.

The CLI builds every object over one base and one field, so it never
reaches these checks: each row calls the library directly with the
mismatched or out-of-range argument and pins the exception and its
message. Operators given an operand they do not know return
``NotImplemented``, so Python raises ``TypeError``.
"""

from __future__ import annotations

import re

import pytest

from abhk import (
    AmbiskewAlgebra,
    BaseAutomorphism,
    Character,
    CyclotomicField,
    ExtensionData,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    RationalField,
    Tensor,
    UqSl2Base,
    check_main_theorem,
    construct_hopf,
)
from abhk.ambicore import reduce_word
from abhk.basehopf import BaseTensor
from abhk.errors import (
    AlgebraMismatchError,
    AutomorphismError,
    FieldMismatchError,
    HopfDataError,
)
from abhk.exprparse import EvalContext, eval_expr, parse_expr
from abhk.scalar import cyclotomic_poly
from conftest import build_usl2

QQ = RationalField()
C4 = CyclotomicField(4)
R = PolynomialBase(QQ)
S = PolynomialBase(C4)  # the same family over another field
L = LaurentBase(QQ)


def _identity(base):
    return BaseAutomorphism(base, base.generators, base.generators)


def _translation():
    t = R.generator("t")
    return BaseAutomorphism(R, {"t": t + R.one()}, {"t": t - R.one()})


def _laurent_hopf(order):
    """A Hopf extension of k[t, t^-1] over Q(zeta_order), chi(t) = zeta."""
    field = CyclotomicField(order)
    base = LaurentBase(field)
    t = base.generator("t")
    data = ExtensionData(base, Character(base, {"t": field.zeta()}), t, t, base.zero())
    return construct_hopf(base, data)[0]


H3, H6 = _laurent_hopf(3), _laurent_hopf(6)   # Q(zeta_3), Q(zeta_6): one data layout
A = AmbiskewAlgebra(R, _translation(), R.generator("t"), QQ.one())   # U(sl2)
B = AmbiskewAlgebra(S, _identity(S), S.zero(), C4.one())
U = UqSl2Base(QQ, QQ.from_int(2))


REFUSALS = [
    ("sigma-foreign", lambda: AmbiskewAlgebra(R, _identity(S), R.zero(), QQ.one()),
     AlgebraMismatchError, "sigma is not an automorphism of the base"),
    ("h-foreign", lambda: AmbiskewAlgebra(R, _identity(R), S.zero(), QQ.one()),
     AlgebraMismatchError, "h does not live in the base"),
    ("xi-foreign", lambda: AmbiskewAlgebra(R, _identity(R), R.zero(), C4.one()),
     AlgebraMismatchError, "xi does not live in the coefficient field"),
    ("h-not-central", lambda: AmbiskewAlgebra(U, _identity(U), U.generator("E"), QQ.one()),
     HopfDataError, "h must be central in the base"),
    ("embed-foreign", lambda: A.embed(S.one()),
     AlgebraMismatchError, "element does not live in the base"),
    ("monomial-foreign", lambda: A.monomial(S.one(), 1, 0),
     AlgebraMismatchError, "element does not live in the base"),
    ("scalar-foreign", lambda: R.generator("t").scale(C4.one()),
     FieldMismatchError, "cannot mix rational and cyclotomic(4) scalars"),
    ("expand-leg-foreign", lambda: H3.delta(H3.algebra.xplus()).expand_leg(0, H6.delta_leg),
     AlgebraMismatchError, "Tensor operands belong to different algebras"),
    ("map-leg-foreign", lambda: H3.delta(H3.algebra.xplus()).map_leg(1, H6.antipode_leg),
     AlgebraMismatchError, "Tensor operands belong to different algebras"),
    ("negative-power", lambda: A.xplus() ** -1,
     ValueError, "negative powers are not defined in A"),
    ("tensor-foreign", lambda: Tensor.of(A.one(), B.one()),
     AlgebraMismatchError, "tensor factors from different algebras"),
    ("unknown-strategy", lambda: reduce_word(A, ["X-", "X+"], "widest"),
     ValueError, "unknown strategy 'widest'"),
    ("character-foreign", lambda: Character(R, {"t": QQ.one()})(S.one()),
     AlgebraMismatchError, "character applied to foreign element"),
    ("automorphism-unassigned", lambda: BaseAutomorphism(R, {}, {}),
     AutomorphismError, "automorphism must assign every generator"),
    ("apply-foreign", lambda: _translation().apply(S.one()),
     AlgebraMismatchError, "automorphism applied to foreign element"),
    ("one-variable-generator", lambda: L.generator("u"), KeyError, "u"),
    ("group-rank", lambda: GroupBase(QQ, rank=-1),
     ValueError, "group base needs rank >= 0 and torsion orders >= 1"),
    ("group-generator", lambda: GroupBase(QQ, rank=1).generator("g2"), KeyError, "g2"),
    ("eval-without-algebra", lambda: eval_expr(parse_expr("t"), EvalContext(QQ, R)),
     ValueError, "eval_expr needs an ambiskew algebra in context"),
    ("extension-data-foreign",
     lambda: ExtensionData(R, Character(R, {"t": QQ.one()}), S.one(), R.one(), R.zero()),
     AlgebraMismatchError, "extension data must live over one base"),
    ("delta-foreign", lambda: build_usl2().delta(B.one()),
     AlgebraMismatchError, "element from a different algebra"),
    ("check-foreign-base",
     lambda: check_main_theorem(S, ExtensionData(R, Character(R, {"t": QQ.one()}),
                                                 R.one(), R.one(), R.zero())),
     AlgebraMismatchError, "data does not live over the given base"),
    ("uqsl2-q-foreign", lambda: UqSl2Base(QQ, C4.zeta()),
     HopfDataError, "q must live in the session field"),
    ("cyclotomic-index", lambda: cyclotomic_poly(0),
     ValueError, "cyclotomic index must be positive"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_library_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


UNKNOWN_OPERANDS = [
    ("scalar-sub", lambda: QQ.one() - None),
    ("scalar-mul", lambda: QQ.one() * None),
    ("scalar-truediv", lambda: QQ.one() / None),
    ("scalar-pow", lambda: QQ.one() ** 0.5),
    ("base-rmul", lambda: None * R.one()),
    ("base-tensor-mul", lambda: BaseTensor.of(R.one(), R.one()) * BaseTensor.of(R.one(), R.one())),
]


@pytest.mark.parametrize("call", [row[1] for row in UNKNOWN_OPERANDS],
                         ids=[row[0] for row in UNKNOWN_OPERANDS])
def test_an_unknown_operand_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_equality_with_a_stranger_is_false():
    assert A != "A"
    assert Tensor.of(A.one()) != "A"
    assert R.one() != S.one()   # same class, another field


def test_products_by_a_number_scale():
    two = QQ.from_int(2)
    x = A.xplus() + A.embed(R.generator("t"))
    assert x * 2 == x.scale(two)
    tensor = Tensor.of(x, A.xminus())
    assert tensor * 2 == tensor.scale(two)
    base_tensor = BaseTensor.of(R.generator("t"), R.one())
    assert base_tensor * 2 == base_tensor.scale(two)


def test_random_reduction_defaults_to_a_fixed_seed():
    word = ["X-", "X+", R.generator("t"), "X-", "X+"]
    assert reduce_word(A, word, "random") == reduce_word(A, word, "leftmost")


def test_reprs_name_the_value():
    assert repr(QQ.from_int(2)) == "Scalar(2 over rational)"
    assert repr(R.generator("t")) == "BaseElement({1: Scalar(1 over rational)})"
    assert repr(A.xplus()) == "AmbiElement({(1, 0): BaseElement({0: Scalar(1 over rational)})})"


def test_fields_without_the_asked_root_of_unity():
    assert QQ.root_of_unity(3) is None
    assert C4.root_of_unity(3) is None
    assert C4.root_of_unity(0) is None
    assert C4.root_of_unity(4) ** 4 == C4.one()
