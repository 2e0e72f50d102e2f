"""The quantum-sl2 base family: presentation, Hopf maps, display basis."""

from __future__ import annotations

import random

import pytest

from abhk import uqsl2
from abhk.basehopf import (
    BaseElement,
    BaseTensor,
    base_antipode,
    base_coradical_degree,
    base_counit,
    base_delta,
    invert_element,
    is_central,
    is_grouplike,
)
from abhk.errors import AutomorphismError, CharacterError, HopfDataError, NotInvertibleError
from abhk.hopfstruct import verify_hopf_axioms
from abhk.scalar import CyclotomicField, RationalFunctionField
from abhk.uqsl2 import UqSl2Base

from oracles import (
    CallCounter,
    inverting_check_endo_map,
    inverting_check_scalar_map,
    inverting_display_term,
    inverting_evaluate,
    reference_from_inner,
    reference_inner_monomial,
)


@pytest.fixture(scope="module")
def uq():
    field = RationalFunctionField()
    return UqSl2Base(field, field.q())


def test_presentation_relations(uq):
    q = uq.q
    e, f, k = uq.generator("E"), uq.generator("F"), uq.generator("K")
    assert k * e == (e * k).scale(q**2)
    assert k * f == (f * k).scale(q**-2)
    assert e * f - f * e == (k - invert_element(k)).scale((q - q**-1).inverse())


def test_hopf_maps_standard_forms(uq):
    e, f, k = uq.generator("E"), uq.generator("F"), uq.generator("K")
    k_inv = invert_element(k)
    assert base_delta(k) == BaseTensor.of(k, k)
    assert base_delta(e) == BaseTensor.of(e, uq.one()) + BaseTensor.of(k, e)
    assert base_delta(f) == BaseTensor.of(f, k_inv) + BaseTensor.of(uq.one(), f)
    assert base_counit(k).is_one()
    assert base_counit(e).is_zero() and base_counit(f).is_zero()
    assert base_antipode(e) == -(k_inv * e)
    assert base_antipode(f) == -(f * k)
    assert base_antipode(k) == k_inv


def test_grouplikes_and_centre(uq):
    assert is_grouplike(uq.generator("K", -2))
    assert not is_grouplike(uq.generator("E"))
    # generically no power of K but K^0 is central
    assert is_central(uq.one())
    assert not is_central(uq.generator("K", 2))

    c8 = CyclotomicField(8)
    at8 = UqSl2Base(c8, c8.zeta())
    assert is_central(at8.generator("K", 4))
    assert not is_central(at8.generator("K", 2))
    c3 = CyclotomicField(3)
    at3 = UqSl2Base(c3, c3.zeta())
    assert is_central(at3.generator("K", 3))
    assert not is_central(at3.generator("K", 1))


def test_pbw_basis_and_products(uq):
    e, f = uq.generator("E"), uq.generator("F")
    ef = e * f
    assert set(ef.support()) <= {(j, m, n) for j in range(-2, 3)
                                 for m in range(2) for n in range(2)}
    # F E differs from E F by the Cartan term only
    fe = f * e
    k, k_inv = uq.generator("K"), invert_element(uq.generator("K"))
    assert ef - fe == (k - k_inv).scale((uq.q - uq.q**-1).inverse())


def test_coradical_degree_uses_internal_filtration(uq):
    e, f, k = uq.generator("E"), uq.generator("F"), uq.generator("K")
    assert base_coradical_degree(k**5) == 0
    assert base_coradical_degree(e) == 1
    assert base_coradical_degree(e * f) == 2
    assert base_coradical_degree(e**2 * f) == 3


def test_display_round_trip(uq):
    from abhk.exprparse import EvalContext, eval_expr, format_element, parse_expr

    e, f, k = uq.generator("E"), uq.generator("F"), uq.generator("K")
    samples = [
        e * f,
        f * e,
        k ** -3,
        (e**2 * f).scale(uq.q) + k,
        f**2,
    ]
    from abhk.hopfstruct import construct_hopf, ExtensionData
    from abhk.basehopf import Character
    field = uq.field
    chi = Character(uq, {"E": field.zero(), "F": field.zero(), "K": field.one()})
    hopf, _ = construct_hopf(uq, ExtensionData(uq, chi, uq.one(), uq.one(), uq.zero()))
    ctx = EvalContext(field, uq, hopf.algebra)
    for elem in samples:
        text = format_element(elem)
        back = eval_expr(parse_expr(text), ctx)
        assert back == hopf.algebra.embed(elem), text


def test_display_of_f_is_clean(uq):
    (mono, c), = uq.generator("F").terms()
    assert uq.display_term(mono, c) == (uq.field.one(), [("F", 1)])
    (mono, c), = (uq.generator("F") ** 2).terms()
    assert uq.display_term(mono, c) == (uq.field.one(), [("F", 2)])


def test_parameter_validation():
    field = RationalFunctionField()
    with pytest.raises(HopfDataError):
        UqSl2Base(field, field.zero())
    with pytest.raises(HopfDataError):
        UqSl2Base(field, field.one())
    with pytest.raises(HopfDataError):
        UqSl2Base(field, field.from_int(-1))
    c4 = CyclotomicField(4)
    UqSl2Base(c4, c4.zeta())  # q = i is allowed


def test_generator_errors(uq):
    with pytest.raises(NotInvertibleError):
        uq.generator("E", -1)
    with pytest.raises(KeyError):
        uq.generator("L")
    assert uq.generator("K", -2) == invert_element(uq.generator("K")) ** 2


# -- the monomial maps against the inner extension ------------------------------
#
# The reference converts between uqsl2 monomials and inner elements by hand,
# as the family did before its maps became the inner leg maps, and works on a
# second instance so that it shares no cache with the family under test.


def _uqsl2_field_and_q(name):
    if name == "uqsl2":
        field = RationalFunctionField()
        return field, field.q()
    field = CyclotomicField({"uqsl2-case3": 8, "uqsl2-counit-root": 3}[name])
    return field, field.zeta()


@pytest.mark.parametrize("name", ["uqsl2", "uqsl2-case3", "uqsl2-counit-root"])
def test_monomial_maps_match_inner_extension(name):
    field, q = _uqsl2_field_and_q(name)
    uq, ref = UqSl2Base(field, q), UqSl2Base(field, q)
    monos = [(j, m, n) for j in (-1, 0, 1) for m in range(3) for n in range(3)]
    inner = {mono: reference_inner_monomial(ref, mono) for mono in monos}
    returned = []
    for a in monos:
        for b in monos:
            got = uq.mul_monomials(a, b)
            assert got == reference_from_inner(ref, inner[a] * inner[b]), (a, b)
            returned.append(got)
    for mono in monos:
        got = uq.delta_monomial(mono)
        assert got == ref.hopf.delta(inner[mono]).coeffs, mono
        returned.append(got)
        got = uq.antipode_monomial(mono)
        assert got == reference_from_inner(ref, ref.hopf.antipode(inner[mono])), mono
        returned.append(got)
    snapshots = [dict(d) for d in returned]

    gens = [uq.generator(g) for g in ("E", "F", "K")] + [invert_element(uq.generator("K"))]
    for x in gens:
        for y in gens:
            product = x * y * x
            base_delta(product)
            base_antipode(product)
    assert verify_hopf_axioms(uq.hopf).overall  # the inner maps behind the shared caches
    assert returned == snapshots


# -- the cached q^-1 and q - q^-1 against the formulas that invert q each time --


def _verdict(check, *args):
    try:
        check(*args)
    except (AutomorphismError, CharacterError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", ["uqsl2", "uqsl2-case3", "uqsl2-counit-root"])
def test_cached_q_constants_match_inverting_formulas(name):
    field, q = _uqsl2_field_and_q(name)
    uq = UqSl2Base(field, q)
    assert uq.q_inv == q**-1 and uq.q_diff == q - q**-1
    monos = [(j, m, n) for j in (-1, 0, 1) for m in range(3) for n in range(3)]
    pool = [field.zero(), field.one(), field.from_int(-1), q, q**-1, field.from_int(2)]
    verdicts = set()
    for k in pool:
        for e in pool:
            for f in pool:
                values = {"K": k, "E": e, "F": f}
                got = _verdict(uq.check_scalar_map, values)
                assert got == _verdict(inverting_check_scalar_map, uq, values), values
                verdicts.add(got)
                if k.is_zero():
                    continue
                for mono in monos:
                    assert uq.evaluate(values, mono, field.one()) == \
                        inverting_evaluate(uq, values, mono), (values, mono)
    assert len(verdicts) == 4  # every relation both holds and fails somewhere

    e, f, k = uq.generator("E"), uq.generator("F"), uq.generator("K")
    k_inv, two = invert_element(k), field.from_int(2)
    image_sets = [
        {"E": e, "F": f, "K": k},
        {"E": e.scale(two), "F": f.scale(two.inverse()), "K": k},
        {"E": f, "F": e, "K": k_inv},
        {"E": e * k, "F": k_inv * f, "K": k},
        {"E": e + k, "F": f, "K": k_inv},
        {"E": e, "F": f.scale(q), "K": k},
        {"E": e, "F": f, "K": k + uq.one()},
    ]
    verdicts = set()
    for images in image_sets:
        got = _verdict(uq.check_endo_map, images)
        assert got == _verdict(inverting_check_endo_map, uq, images), images
        verdicts.add(got)
        for mono in monos:
            if mono[0] < 0 and len(images["K"].coeffs) != 1:
                continue
            assert uq.evaluate(images, mono, uq.one()) == \
                inverting_evaluate(uq, images, mono), (images, mono)
    assert len(verdicts) == 4

    for j in range(-2, 3):
        for m in range(4):
            for n in range(4):
                for c in (field.one(), q, field.from_int(-3)):
                    assert uq.display_term((j, m, n), c) == \
                        inverting_display_term(uq, (j, m, n), c), (j, m, n, c)


# -- the scalar route of check_endo_map against the element route -----------------


@pytest.mark.parametrize("name", ["uqsl2", "uqsl2-case3", "uqsl2-counit-root"])
def test_one_term_images_match_the_element_route(monkeypatch, name):
    """Images a K, b E, c F are checked on their coefficients with no product
    in R, and the verdict, a pass or the ``AutomorphismError`` text, is the
    element route's (``inverting_check_endo_map``) on every drawn triple:
    b c = a and a^2 = 1 each hold and fail, in all four combinations, over
    Q(q), Q(zeta_8) and Q(zeta_3). Images with two terms, or a zero image,
    take the element route, which first inverts the image of K."""
    field, q = _uqsl2_field_and_q(name)
    uq = UqSl2Base(field, q)
    e, f, k = uq.generator("E"), uq.generator("F"), uq.generator("K")
    pool = [field.one(), field.from_int(-1), field.from_int(2), q, q**-1, -q, q * q + 1]
    rng = random.Random(name)
    triples = [(a, b, a * b.inverse()) for a in pool for b in pool]
    triples += [tuple(rng.choice(pool) for _ in range(3)) for _ in range(60)]
    counts = CallCounter(monkeypatch, "products", "inversions")
    counts.patch(BaseElement, "__mul__", "products")
    counts.patch(uqsl2, "invert_element", "inversions")
    combos = set()
    for a, b, c in triples:
        images = {"K": k.scale(a), "E": e.scale(b), "F": f.scale(c)}
        counts.update(products=0, inversions=0)
        got = _verdict(uq.check_endo_map, images)
        assert counts == {"products": 0, "inversions": 0}, (a, b, c)
        assert got == _verdict(inverting_check_endo_map, uq, images), (a, b, c)
        assert (got is None) == (b * c == a and a * a == field.one()), (a, b, c)
        combos.add((b * c == a, a * a == field.one()))
    assert len(combos) == 4

    other_images = [{"E": e + k, "F": f, "K": k}, {"E": e, "F": f, "K": k.scale(q) + uq.one()},
                 {"E": e, "F": f.scale(q) + e, "K": k}, {"E": e, "F": uq.zero(), "K": k}]
    for images in other_images:
        counts["inversions"] = 0
        got = _verdict(uq.check_endo_map, images)
        assert counts["inversions"] == 1, images
        assert got == _verdict(inverting_check_endo_map, uq, images), images
