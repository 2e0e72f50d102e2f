"""Base-family structure maps, Hopf axioms on generators, characters,
windings, adjoints, and coradical degrees."""

from __future__ import annotations

import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abhk.basehopf import (
    BaseElement,
    BaseTensor,
    Character,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    adjoint_left,
    base_antipode,
    base_coradical_degree,
    base_counit,
    base_delta,
    invert_element,
    is_central,
    is_grouplike,
    is_skew_primitive,
    make_base,
    scalar_multiple_of,
    winding_automorphism_left,
    winding_left,
    winding_right,
)
from abhk.cli import corpus_dir
from abhk.errors import (
    AlgebraMismatchError,
    AutomorphismError,
    CharacterError,
    NotInvertibleError,
)
from abhk.exprparse import parse_spec, resolve_spec
from abhk.scalar import CyclotomicField, RationalField, RationalFunctionField
from abhk.uqsl2 import UqSl2Base

from conftest import assert_no_zero, random_base_element

QQ = RationalField()


def all_families():
    return [
        ("polynomial", PolynomialBase(QQ)),
        ("laurent", LaurentBase(QQ)),
        ("group", GroupBase(CyclotomicField(3), rank=1, torsion=(3,))),
        ("uqsl2", UqSl2Base(RationalFunctionField(), RationalFunctionField().q())),
    ]


# -- independent triple-tensor helpers (only delta_monomial is reused) --------


def _delta3(a: BaseElement, left_first: bool) -> dict:
    out: dict = {}
    for (m1, m2), c in base_delta(a).coeffs.items():
        inner = a.algebra.delta_monomial(m1 if left_first else m2)
        for (u, v), d in inner.items():
            key = (u, v, m2) if left_first else (m1, u, v)
            out[key] = out.get(key, a.algebra.field.zero()) + c * d
    return {k: v for k, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("name,base", all_families())
def test_bialgebra_axioms_on_generators(name, base):
    one = base.one()
    for gen in base.generator_elements():
        assert _delta3(gen, True) == _delta3(gen, False)  # coassociativity
        d = base_delta(gen)
        assert d.contract_left(_counit_char(base)) == gen
        assert d.contract_right(_counit_char(base)) == gen
        # antipode convolution identities
        acc = base.zero()
        for (m1, m2), c in d.coeffs.items():
            acc = acc + base_antipode(BaseElement(base, {m1: c})) * BaseElement(
                base, {m2: base.field.one()})
        assert acc == one.scale(base_counit(gen))
        acc = base.zero()
        for (m1, m2), c in d.coeffs.items():
            acc = acc + BaseElement(base, {m1: c}) * base_antipode(
                BaseElement(base, {m2: base.field.one()}))
        assert acc == one.scale(base_counit(gen))


def _counit_char(base) -> Character:
    values = {info.name: base_counit(base.generator(info.name))
              for info in base.generator_info()}
    return Character(base, values)


@pytest.mark.parametrize("name,base", all_families())
def test_delta_is_an_algebra_map_on_random_pairs(name, base):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(200):
        a = random_base_element(rng, base, max_support=3)
        b = random_base_element(rng, base, max_support=3)
        assert base_delta(a * b) == base_delta(a) * base_delta(b)


def test_base_mul_examples():
    laurent = LaurentBase(QQ)
    t = laurent.generator("t")
    assert t**2 * t**-3 == laurent.generator("t", -1)

    poly = PolynomialBase(QQ)
    tp = poly.generator("t")
    assert (poly.one() + tp) * (poly.one() - tp) == poly.one() - tp**2

    field = RationalFunctionField()
    uq = UqSl2Base(field, field.q())
    e, f, k = uq.generator("E"), uq.generator("F"), uq.generator("K")
    q = field.q()
    assert e * f - f * e == (k - invert_element(k)).scale((q - q**-1).inverse())


def test_base_delta_examples():
    poly = PolynomialBase(QQ)
    t = poly.generator("t")
    two = QQ.from_int(2)
    expected = (BaseTensor.of(t**2, poly.one()) + BaseTensor.of(t, t).scale(two)
                + BaseTensor.of(poly.one(), t**2))
    assert base_delta(t**2) == expected

    laurent = LaurentBase(QQ)
    for n in (-3, 0, 5):
        tn = laurent.generator("t", n)
        assert base_delta(tn) == BaseTensor.of(tn, tn)

    field = RationalFunctionField()
    uq = UqSl2Base(field, field.q())
    e, k = uq.generator("E"), uq.generator("K")
    assert base_delta(e) == BaseTensor.of(e, uq.one()) + BaseTensor.of(k, e)


def test_counit_and_antipode_examples():
    poly = PolynomialBase(QQ)
    t = poly.generator("t")
    assert base_counit(t**3).is_zero()
    assert base_counit(poly.one() + t) == QQ.one()
    assert base_antipode(t**3) == -(t**3)

    laurent = LaurentBase(QQ)
    assert base_antipode(laurent.generator("t", 4)) == laurent.generator("t", -4)


def test_grouplike_central_skew_primitive():
    laurent = LaurentBase(QQ)
    t = laurent.generator("t")
    assert is_grouplike(t**3)
    assert not is_grouplike(t + t**2)
    assert not is_grouplike(laurent.zero())

    poly = PolynomialBase(QQ)
    tp = poly.generator("t")
    assert is_skew_primitive(tp, poly.one(), poly.one())
    with pytest.raises(CharacterError):
        is_skew_primitive(tp, tp, poly.one())  # t is not grouplike in k[t]

    c8 = CyclotomicField(8)
    uq = UqSl2Base(c8, c8.zeta())
    k = uq.generator("K")
    assert is_central(k**4)
    assert not is_central(k**2)
    # E is (1, K)-primitive
    assert base_delta(uq.generator("E")) == (
        BaseTensor.of(uq.generator("E"), uq.one()) + BaseTensor.of(k, uq.generator("E"))
    )


def test_character_validity():
    laurent = LaurentBase(QQ)
    with pytest.raises(CharacterError):
        Character(laurent, {"t": QQ.zero()})

    group = GroupBase(CyclotomicField(3), rank=1, torsion=(3,))
    field = group.field
    Character(group, {"g1": field.from_int(2), "g2": field.zeta()})
    with pytest.raises(CharacterError):
        Character(group, {"g1": field.one(), "g2": field.from_int(2)})

    ff = RationalFunctionField()
    uq = UqSl2Base(ff, ff.q())
    with pytest.raises(CharacterError):
        Character(uq, {"E": ff.one(), "F": ff.zero(), "K": ff.one()})
    with pytest.raises(CharacterError):
        Character(uq, {"E": ff.zero(), "F": ff.zero(), "K": ff.from_int(2)})
    Character(uq, {"E": ff.zero(), "F": ff.zero(), "K": ff.from_int(-1)})
    with pytest.raises(CharacterError):
        Character(uq, {"E": ff.zero(), "K": ff.one()})  # F missing


def test_winding_examples():
    poly = PolynomialBase(QQ)
    t = poly.generator("t")
    lam = QQ.from_int(5)
    chi = Character(poly, {"t": lam})
    assert winding_left(chi, t) == t + poly.from_scalar(lam)
    assert winding_right(chi, t) == t + poly.from_scalar(lam)

    ff = RationalFunctionField()
    uq = UqSl2Base(ff, ff.q())
    chi2 = Character(uq, {"K": ff.from_int(-1), "E": ff.zero(), "F": ff.zero()})
    e, f = uq.generator("E"), uq.generator("F")
    assert winding_left(chi2, e) == -e
    assert winding_right(chi2, e) == e
    assert winding_left(chi2, f) == f
    assert winding_right(chi2, f) == -f

    # any grouplike g maps to chi(g) g
    laurent = LaurentBase(QQ)
    chi3 = Character(laurent, {"t": QQ.from_int(7)})
    g = laurent.generator("t", 2)
    assert winding_left(chi3, g) == g.scale(QQ.from_int(49))


@pytest.mark.parametrize("name,base", all_families())
def test_winding_automorphism_inverts(name, base):
    field = base.field
    if name == "polynomial":
        chi = Character(base, {"t": field.from_int(3)})
    elif name == "laurent":
        chi = Character(base, {"t": field.from_int(2)})
    elif name == "group":
        chi = Character(base, {"g1": field.from_int(5), "g2": field.zeta()})
    else:
        chi = Character(base, {"K": field.from_int(-1), "E": field.zero(),
                               "F": field.zero()})
    sigma = winding_automorphism_left(chi)
    for gen in base.generator_elements():
        assert sigma.apply(sigma.apply(gen, 1), -1) == gen
        assert sigma.apply(sigma.apply(gen, -1), 1) == gen


def test_adjoint_is_conjugation_for_grouplikes():
    ff = RationalFunctionField()
    uq = UqSl2Base(ff, ff.q())
    k, e = uq.generator("K"), uq.generator("E")
    assert adjoint_left(k, e) == k * e * invert_element(k)
    assert adjoint_left(k, e) == e.scale(ff.q() ** 2)


def test_automorphism_rejects_bad_images():
    laurent = LaurentBase(QQ)
    t = laurent.generator("t")
    with pytest.raises(AutomorphismError):
        # not invertible: image is a sum
        from abhk.basehopf import BaseAutomorphism
        BaseAutomorphism(laurent, {"t": t + laurent.one()}, {"t": t})
    group = GroupBase(CyclotomicField(3), rank=0, torsion=(3,))
    g = group.generator("g1")
    from abhk.basehopf import BaseAutomorphism
    with pytest.raises(AutomorphismError):
        BaseAutomorphism(group, {"g1": g**2}, {"g1": g})  # wrong inverse


# -- coradical degrees ---------------------------------------------------------


def _poly_degree_by_wedge(elem) -> int:
    """Independent oracle for k[t]: iterate the wedge definition directly.

    R_0 = k, and c is in R_{n+1} iff every support term of Delta(c) lies in
    span{t^i (x) t^j : i <= n} + span{t^i (x) 1}. Both candidate spaces are
    spanned by basis tensors, so support inspection is exact.
    """
    degree = 0
    while True:
        if all(m <= degree for m in elem.support()):
            # candidate: verify via the wedge condition at each level below
            break
        degree += 1
        if degree > 50:
            raise AssertionError("wedge oracle runaway")
    # confirm minimality: elem in R_degree but not R_{degree-1}
    def in_level(e, n):
        if n < 0:
            return e.is_zero()
        if n == 0:
            return all(m == 0 for m in e.support())
        return all(
            (m1 <= n - 1) or (m2 == 0)
            for (m1, m2) in base_delta(e).coeffs
        )

    assert in_level(elem, degree)
    if degree:
        assert not in_level(elem, degree - 1)
    return degree


def test_coradical_degree_examples():
    laurent = LaurentBase(QQ)
    assert base_coradical_degree(laurent.generator("t", 5)) == 0

    poly = PolynomialBase(QQ)
    t = poly.generator("t")
    elem = t**2 + t.scale(QQ.from_int(3))
    assert base_coradical_degree(elem) == 2
    assert _poly_degree_by_wedge(elem) == 2
    for n in range(5):
        assert base_coradical_degree(t**n if n else poly.one()) == n
        assert _poly_degree_by_wedge(t**n if n else poly.one()) == n

    ff = RationalFunctionField()
    uq = UqSl2Base(ff, ff.q())
    ef = uq.generator("E") * uq.generator("F")
    assert base_coradical_degree(ef) == 2  # hat(1) + hat(1)

    with pytest.raises(ValueError):
        base_coradical_degree(poly.zero())


def test_descriptor_metadata():
    poly = PolynomialBase(QQ)
    assert (poly.descriptor.gk_dim, poly.descriptor.gl_dim) == (1, 1)
    group = GroupBase(QQ, rank=2)
    assert group.descriptor.gk_dim == 2
    assert group.descriptor.domain
    torsion = GroupBase(CyclotomicField(4), rank=1, torsion=(2,))
    assert not torsion.descriptor.domain
    assert torsion.descriptor.semiprime_goldie
    ff = RationalFunctionField()
    uq = UqSl2Base(ff, ff.q())
    assert uq.descriptor.gk_dim == 3
    assert uq.descriptor.gl_dim == 3
    assert not uq.descriptor.commutative
    assert not uq.descriptor.cocommutative
    assert uq.descriptor.pointed


def test_group_base_monomials_reduce_torsion():
    group = GroupBase(CyclotomicField(3), rank=1, torsion=(3,))
    g2 = group.generator("g2")
    assert g2**3 == group.one()
    assert g2**-1 == g2**2
    mixed = group.generator("g1", -2) * g2**5
    assert list(mixed.support()) == [(-2, 2)]


def test_make_base_registry():
    assert make_base("polynomial", QQ).family == "polynomial"
    assert make_base("group", QQ, rank=1, torsion=(2,)).ngens == 2
    with pytest.raises(KeyError):
        make_base("nope", QQ)


def test_element_misuse_errors():
    poly = PolynomialBase(QQ)
    laurent = LaurentBase(QQ)
    with pytest.raises(AlgebraMismatchError):
        poly.generator("t") + laurent.generator("t")
    with pytest.raises(NotInvertibleError):
        invert_element(poly.generator("t"))
    with pytest.raises(NotInvertibleError):
        poly.generator("t", -1)
    assert scalar_multiple_of(poly.generator("t", 2).scale(QQ.from_int(3)),
                              poly.generator("t", 2)) == QQ.from_int(3)
    assert scalar_multiple_of(poly.generator("t"), poly.one()) is None


def test_sigma_eigenvalue_cache_matches_uncached(corpus):
    """The diagonal branch of BaseAutomorphism.apply caches one scalar per
    (monomial, power); it must agree with the uncached eigenvalue power."""
    rng = random.Random(20260318)
    diagonal = {name: hopf.algebra.sigma for name, hopf in corpus.items()
                if hopf.algebra.sigma.diagonal is not None}
    assert {"uqsl2-variant", "uqsl2-case3", "uqsl2-counit-root"} <= set(diagonal)
    for name, sigma in diagonal.items():
        base = sigma.algebra
        for _ in range(8):
            a = random_base_element(rng, base, max_support=3)
            for power in range(-3, 4):
                want = base.element({
                    mono: c * base.monomial_eigenvalue(sigma.diagonal, mono) ** power
                    for mono, c in a.coeffs.items()
                })
                assert sigma.apply(a, power) == want, (name, power)
                if power:
                    assert all((mono, power) in sigma._cache for mono in a.coeffs)
                assert sigma.apply(a, power) == want, (name, power)


# -- the sparse-container contract -----------------------------------------------


@functools.cache
def _contract_families():
    # Z/2 has zero divisors, (1 + g)(1 - g) = 0, so products cancel there
    return all_families() + [("group-torsion", GroupBase(QQ, rank=0, torsion=(2,)))]


def _counit_character(base):
    return Character(base, {info.name: base_counit(base.generator(info.name))
                            for info in base.generator_info()})


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_base_containers_never_store_zero(seed):
    rng = random.Random(seed)
    for name, base in _contract_families():
        zero, two = base.field.zero(), base.field.from_int(-2)
        a, b, c = (random_base_element(rng, base) for _ in range(3))
        for x in (a + b, a - b, a * b, (a + b) - b, a.scale(zero), a.scale(two)):
            assert_no_zero(x)
        assert (a - a).coeffs == {}, name
        ta, tb = BaseTensor.of(a, b), BaseTensor.of(b, c)
        for x in (ta + tb, ta - tb, ta * tb, (ta + tb) - tb, ta.scale(zero), ta.scale(two)):
            assert_no_zero(x)
        assert (ta - ta).coeffs == {}, name
        chi = _counit_character(base)
        for x in (base_delta(a), (ta - tb).contract_left(chi), (ta - tb).contract_right(chi)):
            assert_no_zero(x)


def test_base_containers_reject_foreign_operands():
    a, b = PolynomialBase(QQ).generator("t"), LaurentBase(QQ).generator("t")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(AlgebraMismatchError):
            op(a, b)
        with pytest.raises(AlgebraMismatchError):
            op(BaseTensor.of(a, a), BaseTensor.of(b, b))


@pytest.mark.parametrize("path", sorted(corpus_dir().glob("*.abhk")), ids=lambda p: p.stem)
def test_shared_one_is_never_mutated(path):
    """``one()`` is one cached element per algebra; no operation on it may
    change the dict it holds."""
    base = resolve_spec(parse_spec(path.read_text(encoding="utf-8"))).base
    one = base.one()
    assert one is base.one()
    coeffs, before = one.coeffs, dict(one.coeffs)
    assert before == {base.one_monomial(): base.field.one()}
    two = base.field.from_int(2)
    assert base.generator_elements()
    for g in base.generator_elements():
        results = [one + g, g + one, one - g, g - one, one + one, one - one, -one,
                   one * g, g * one, one * one, one.scale(two), one.scale(base.field.zero()),
                   2 * one, one ** 3, one ** 0, one ** -1, g ** 0,
                   BaseTensor.of(one, g), BaseTensor.of(g, one), BaseTensor.of(one, one),
                   base_delta(one), base_delta(one + g)]
        assert results[7] == results[8] == g
        assert results[-2] == BaseTensor.of(one, one)
        assert one.coeffs is coeffs and coeffs == before, path.stem
    assert base.one() is one
