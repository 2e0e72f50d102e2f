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
    BaseAutomorphism,
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
    for gen in base.generators.values():
        assert _delta3(gen, True) == _delta3(gen, False)  # coassociativity
        d = base_delta(gen)
        assert winding_left(_counit_char(base), gen) == gen
        assert winding_right(_counit_char(base), gen) == gen
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
    assert base_delta(tp) == BaseTensor.of(tp, poly.one()) + BaseTensor.of(poly.one(), tp)

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
    for gen in base.generators.values():
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
    two, three = QQ.from_int(2), QQ.from_int(3)
    with pytest.raises(AutomorphismError, match="inverse images do not invert on t"):
        # both maps diagonal: refused by the scalar check, 2 * 3 != 1^2
        BaseAutomorphism(laurent, {"t": t.scale(two)}, {"t": t.scale(three)})
    poly = PolynomialBase(QQ)
    s = poly.generator("t")
    with pytest.raises(AutomorphismError, match="inverse images do not invert on t"):
        # diagonal images, non-diagonal inverse images: refused through the
        # image path, sigma(t/2 + 1) = t + 1
        BaseAutomorphism(poly, {"t": s.scale(two)}, {"t": s.scale(two.inverse()) + poly.one()})


# -- the scalar inverse check against the image path -------------------------


def _inverts_by_images(algebra, images, inverse_images) -> bool:
    """The image-path inverse checks: both composites of a bare automorphism
    whose ``diagonal`` is unset, so ``apply`` maps each monomial through the
    generator images, must fix every generator."""
    sigma = object.__new__(BaseAutomorphism)
    sigma.algebra = algebra
    sigma.images, sigma.inverse_images = dict(images), dict(inverse_images)
    sigma._cache, sigma._image_cache, sigma.diagonal = {}, {}, None
    return all(sigma.apply(sigma.apply(gen, -1), 1) == gen
               and sigma.apply(sigma.apply(gen, 1), -1) == gen
               for gen in algebra.generators.values())


def _is_scalar_map(algebra, images) -> bool:
    """Whether every generator is one term that ``images`` sends to a
    multiple of itself."""
    return all(len(g.coeffs) == 1 and images[info.name].coeffs.keys() == g.coeffs.keys()
               for info in algebra.generator_info() for g in [algebra.generator(info.name)])


def _random_character(rng, base):
    field = base.field
    if base.family == "uqsl2":  # E, F -> 0 and K -> +-1 are its only characters
        return Character(base, {"E": field.zero(), "F": field.zero(),
                                "K": field.from_int(rng.choice((1, -1)))})
    values = {}
    for i, info in enumerate(base.generator_info()):
        if base.family == "group" and i >= base.rank:  # a torsion generator of order m
            m = base.torsion[i - base.rank]
            values[info.name] = field.root_of_unity(m) ** rng.randrange(m)
        else:
            values[info.name] = field.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Character(base, values)


def _corpus_sigmas(corpus):
    """Every sigma of a corpus algebra or spec, with the inner sigma of each
    U_q(sl2) base."""
    sigmas = []
    for hopf in corpus.values():
        sigmas.append(hopf.algebra.sigma)
        if hopf.base.family == "uqsl2":
            sigmas.append(hopf.base.inner.sigma)
    for path in sorted(corpus_dir().glob("*.abhk")):
        spec = resolve_spec(parse_spec(path.read_text(encoding="utf-8")))
        source = spec.general.algebra if spec.general is not None else spec.data
        sigmas.append(source.sigma)
    return sigmas


def test_scalar_inverse_check_matches_image_path(monkeypatch, corpus):
    """The verdict of BaseAutomorphism's inverse checks equals that of the
    image path, on every corpus sigma and on windings of random characters
    of each corpus base, each paired with its true inverse images, with its
    own images, and with rescaled inverse images; where both maps are
    diagonal, construction makes no ``apply`` call."""
    rng = random.Random(20261018)
    cases = [(s.algebra, s.images, s.inverse_images) for s in _corpus_sigmas(corpus)]
    for hopf in corpus.values():
        for _ in range(3):
            chi = _random_character(rng, hopf.base)
            s = winding_automorphism_left(chi)
            cases.append((s.algebra, s.images, s.inverse_images))
    applied = []
    right = BaseAutomorphism.apply
    monkeypatch.setattr(BaseAutomorphism, "apply",
                        lambda self, *args: applied.append(1) or right(self, *args))
    verdicts = set()
    for algebra, images, inverse_images in cases:
        c = algebra.field.from_int(rng.choice((-1, 2, 3)))
        rescaled = {name: img.scale(c) for name, img in inverse_images.items()}
        for inverse in (inverse_images, images, rescaled):
            try:
                algebra.check_endo_map(inverse)
            except AutomorphismError:
                continue
            applied.clear()
            try:
                BaseAutomorphism(algebra, images, inverse)
                built = True
            except AutomorphismError:
                built = False
            scalar = _is_scalar_map(algebra, images) and _is_scalar_map(algebra, inverse)
            assert not (scalar and applied), algebra.family
            assert built == _inverts_by_images(algebra, images, inverse), algebra.family
            verdicts.add((scalar, built))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


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
    assert not uq.descriptor.affine_commutative_domain


def test_group_base_monomials_reduce_torsion():
    group = GroupBase(CyclotomicField(3), rank=1, torsion=(3,))
    g2 = group.generator("g2")
    assert g2**3 == group.one()
    assert g2**-1 == g2**2
    mixed = group.generator("g1", -2) * g2**5
    assert list(mixed.support()) == [(-2, 2)]


def test_element_misuse_errors():
    poly = PolynomialBase(QQ)
    laurent = LaurentBase(QQ)
    with pytest.raises(AlgebraMismatchError):
        poly.generator("t") + laurent.generator("t")
    with pytest.raises(NotInvertibleError):
        invert_element(poly.generator("t"))
    with pytest.raises(NotInvertibleError):
        poly.generator("t", -1)


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
        for x in (base_delta(a), winding_left(chi, a - b), winding_right(chi, a - b)):
            assert_no_zero(x)
        # products whose inner sums cancel, e.g. (t + 1)(t - 1) - t t = -1, and
        # every builder that stores its dict without the constructor's filter
        one, sigma = base.one(), _negate_non_units(base)
        assert sigma.diagonal is not None, name
        for g in base.generators.values():
            cancel = (g + one) * (g - one) - g * g
            for x in (cancel, (g - one) * (g + one), (a - b) * (g + one), base_delta(cancel),
                      base_antipode(cancel), base_antipode(a - b), sigma.apply(a - b, 1),
                      sigma.apply(cancel, -2), BaseTensor.of(cancel, a - b),
                      winding_left(chi, g - one), winding_right(chi, g - one)):
                assert_no_zero(x)


@functools.cache
def _negate_non_units(base):
    """The involution negating every non-invertible generator: a diagonal
    automorphism of each family here (t -> -t, or E, F -> -E, -F)."""
    images = {info.name: base.generator(info.name).scale(base.field.from_int(
        1 if info.invertible else -1)) for info in base.generator_info()}
    return BaseAutomorphism(base, images, images)


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
    assert base.generators
    for g in base.generators.values():
        results = [one + g, g + one, one - g, g - one, one + one, one - one, -one,
                   one * g, g * one, one * one, one.scale(two), one.scale(base.field.zero()),
                   2 * one, one ** 3, one ** 0, one ** -1, g ** 0,
                   BaseTensor.of(one, g), BaseTensor.of(g, one), BaseTensor.of(one, one),
                   base_delta(one), base_delta(one + g)]
        assert results[7] == results[8] == g
        assert results[-2] == BaseTensor.of(one, one)
        assert one.coeffs is coeffs and coeffs == before, path.stem
    assert base.one() is one


# -- the generator table and the assignment evaluator ------------------------------


def test_generator_table_follows_generator_info():
    """``generators`` lists ``generator(name)`` in ``generator_info()``
    order, on the three plain families and on every corpus base, and is
    built once."""
    bases = [base for name, base in all_families() if name != "uqsl2"]
    bases += [resolve_spec(parse_spec(path.read_text(encoding="utf-8"))).base
              for path in sorted(corpus_dir().glob("*.abhk"))]
    for base in bases:
        table = base.generators
        assert list(table) == [info.name for info in base.generator_info()], base.family
        for name, g in table.items():
            assert g == base.generator(name), (base.family, name)
        assert base.generators is table


def _reference_char_value(base, values, mono):
    """The loop characters ran before ``evaluate``: invert explicitly,
    then raise to a positive power."""
    acc = base.field.one()
    for name, exp in base.monomial_factors(mono):
        v = values[name]
        if exp < 0:
            v = v.inverse()
            exp = -exp
        acc = acc * v**exp
    return acc


def _reference_map_monomial(base, images, mono):
    """The loop automorphism images ran before ``evaluate``."""
    acc = base.one()
    for name, exp in base.monomial_factors(mono):
        img = images[name]
        if exp < 0:
            img = invert_element(img)
            exp = -exp
        acc = acc * img**exp
    return acc


@functools.cache
def _evaluator_families():
    return (PolynomialBase(QQ), LaurentBase(QQ),
            GroupBase(CyclotomicField(3), rank=2, torsion=(3,)))


_NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_matches_the_inverting_loops(data):
    """Nonzero scalar values, unit images of the invertible generators and
    monomials with negative exponents: ``evaluate`` on scalars and on
    elements equals the loops it replaced."""
    base = data.draw(st.sampled_from(_evaluator_families()))
    field, infos = base.field, base.generator_info()
    units = [info.name for info in infos if info.invertible]
    values, images, mono = {}, {}, base.one()
    for info in infos:
        values[info.name] = field.from_fraction(data.draw(_NONZERO))
        c = field.from_fraction(data.draw(_NONZERO))
        if info.invertible:
            unit = base.generator(data.draw(st.sampled_from(units)), data.draw(st.integers(-2, 2)))
            images[info.name] = unit.scale(c)
        else:
            images[info.name] = base.one().scale(c) + base.generator(info.name, 2)
        low = -3 if info.invertible else 0
        mono = mono * base.generator(info.name, data.draw(st.integers(low, 3)))
    (mono,) = mono.support()
    assert base.evaluate(values, mono, field.one()) == _reference_char_value(base, values, mono)
    assert base.evaluate(images, mono, base.one()) == \
        _reference_map_monomial(base, images, mono)


def test_zero_on_a_unit_generator_is_refused_by_character():
    """The refusal comes from Character itself, before any family check."""
    group = GroupBase(CyclotomicField(3), rank=1, torsion=(3,))
    cases = [(LaurentBase(QQ), {"t": QQ.zero()}, "t"),
             (group, {"g1": group.field.zero(), "g2": group.field.zeta()}, "g1")]
    for base, values, name in cases:
        with pytest.raises(CharacterError) as refusal:
            Character(base, values)
        assert str(refusal.value) == f"character must be nonzero on unit generator {name}"
