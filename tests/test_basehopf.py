"""Base-family structure maps, Hopf axioms on generators, characters,
windings, adjoints, and coradical degrees."""

from __future__ import annotations

import functools
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abhk import basehopf
from abhk.ambicore import AmbiElement, Tensor
from abhk.basehopf import (
    BaseAutomorphism,
    BaseElement,
    BaseTensor,
    Character,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    adjoint_left,
    adjoint_right,
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
from abhk.scalar import CyclotomicField, RationalField, RationalFunctionField, Scalar
from abhk.uqsl2 import UqSl2Base

from conftest import (
    assert_no_zero,
    build_uqsl2_root,
    build_usl2,
    random_base_element,
    scalars,
)
from oracles import loop_adjoint, loop_sigma_apply, reference_evaluate

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
    field = a.algebra.field
    out: dict = {}
    for (m1, m2), c in scalars(base_delta(a)).items():
        inner = a.algebra.delta_monomial(m1 if left_first else m2)
        for (u, v), d in inner.items():
            key = (u, v, m2) if left_first else (m1, u, v)
            out[key] = out.get(key, field.zero()) + c * Scalar(field, d)
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
        for (m1, m2), c in scalars(d).items():
            acc = acc + base_antipode(BaseElement(base, {m1: c})) * BaseElement(
                base, {m2: base.field.one()})
        assert acc == one.scale(base_counit(gen))
        acc = base.zero()
        for (m1, m2), c in scalars(d).items():
            acc = acc + BaseElement(base, {m1: c}) * base_antipode(
                BaseElement(base, {m2: base.field.one()}))
        assert acc == one.scale(base_counit(gen))


def _counit_char(base) -> Character:
    values = {info.name: base_counit(base.generator(info.name))
              for info in base.generator_info()}
    return Character(base, values)


def _tensor_mul(x: BaseTensor, y: BaseTensor) -> BaseTensor:
    """The product in R (x) R, term by term:
    (c a1 (x) a2)(d b1 (x) b2) = c d a1 b1 (x) a2 b2."""
    alg = x.algebra
    one = alg.field.one()
    out = BaseTensor(alg, {})
    for (a1, a2), c in scalars(x).items():
        for (b1, b2), d in scalars(y).items():
            left = BaseElement(alg, {a1: one}) * BaseElement(alg, {b1: one})
            right = BaseElement(alg, {a2: one}) * BaseElement(alg, {b2: one})
            out = out + BaseTensor.of(left, right).scale(c * d)
    return out


@pytest.mark.parametrize("name,base", all_families())
def test_delta_is_an_algebra_map_on_random_pairs(name, base):
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(200):
        a = random_base_element(rng, base, max_support=3)
        b = random_base_element(rng, base, max_support=3)
        assert base_delta(a * b) == _tensor_mul(base_delta(a), base_delta(b))


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


@pytest.mark.parametrize("name,base", all_families())
def test_adjoints_match_the_separate_loops(name, base):
    """Both adjoint actions equal the loops they replaced, in value and in
    term order, on random elements y and a."""
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(20):
        y = random_base_element(rng, base, max_support=3)
        a = random_base_element(rng, base, max_support=3)
        for fn, left_side in ((adjoint_left, True), (adjoint_right, False)):
            got, want = fn(y, a), loop_adjoint(y, a, left_side)
            assert got == want, (name, fn.__name__)
            assert list(got.coeffs.items()) == list(want.coeffs.items()), (name, fn.__name__)


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
    sigma._cache, sigma._image_cache, sigma._image_scalars, sigma.diagonal = {}, {}, 0, None
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
    (monomial, power), in the table of its power; it must agree with the
    uncached eigenvalue power. A negative power also leaves the inverse
    eigenvalue of each monomial in the table of power -1."""
    rng = random.Random(20260318)
    diagonal = {name: hopf.algebra.sigma for name, hopf in corpus.items()
                if hopf.algebra.sigma.diagonal is not None}
    assert {"uqsl2-variant", "uqsl2-case3", "uqsl2-counit-root"} <= set(diagonal)
    for name, sigma in diagonal.items():
        base = sigma.algebra
        for _ in range(8):
            a = random_base_element(rng, base, max_support=3)
            for power in range(-3, 4):
                want = BaseElement(base, {
                    mono: c * base.monomial_eigenvalue(sigma.diagonal, mono) ** power
                    for mono, c in scalars(a).items()
                })
                assert sigma.apply(a, power) == want, (name, power)
                if power:
                    assert all(mono in sigma._cache[power] for mono in a.coeffs)
                if power < 0:
                    assert all(mono in sigma._cache[-1] for mono in a.coeffs)
                assert sigma.apply(a, power) == want, (name, power)


def _sigma_cases(rng, base):
    """Single terms c*mono (the unit, each generator, each monomial of two
    random elements, each with a random coefficient) and the random
    elements themselves."""
    randoms = [random_base_element(rng, base, max_support=3) for _ in range(2)]
    monos = [base.one_monomial()] + [m for g in base.generators.values() for m in g.coeffs]
    monos += [m for a in randoms for m in a.coeffs]
    units = [base.field.from_int(k) for k in (1, -1, 2, 3)]
    return [BaseElement(base, {m: rng.choice(units)}) for m in monos], randoms


def _assert_parent_powers(sigma, powers, terms, elements, steps, label):
    """sigma^p equals the parent's recursion in value on every element and,
    on every single term, in dict order too. On a sum the order can differ
    where a partial sum cancels: usl2's sigma^-2(1 + t) is t - 1, whose
    key t comes first in the parent's steps (1 cancels against sigma^-1(t) =
    t - 1) and last in the sum of the cached sigma^-2(1) = 1 and
    sigma^-2(t) = t - 2."""
    for p in powers:
        for a in terms:
            got, want = sigma.apply(a, p), loop_sigma_apply(sigma, a, p, steps)
            assert list(got.coeffs.items()) == list(want.coeffs.items()), (label, p, a)
        for a in elements:
            assert sigma.apply(a, p) == loop_sigma_apply(sigma, a, p, steps), (label, p, a)


def test_sigma_powers_match_the_parent_recursion(corpus):
    """sigma^p for p in -40..40, drawn in a shuffled order, on every corpus
    sigma built afresh (so its caches start empty), against the parent's
    recursion. The recursion's steps are valid on a diagonal sigma too,
    where they reach every eigenvalue through the images."""
    rng = random.Random(20261020)
    for source in _corpus_sigmas(corpus):
        sigma = BaseAutomorphism(source.algebra, source.images, source.inverse_images)
        terms, elements = _sigma_cases(rng, sigma.algebra)
        powers = list(range(-40, 41))
        rng.shuffle(powers)
        _assert_parent_powers(sigma, powers, terms, elements, {}, sigma.algebra.key())


def test_a_sum_may_order_its_keys_unlike_the_parent():
    """The case named in ``_assert_parent_powers``: equal values, keys in
    another order."""
    base = PolynomialBase(QQ)
    t, one = base.generator("t"), base.one()
    sigma = BaseAutomorphism(base, {"t": t + one}, {"t": t - one})
    got, want = sigma.apply(one + t, -2), loop_sigma_apply(sigma, one + t, -2, {})
    assert got == want == t - one
    assert list(got.coeffs) == [0, 1] and list(want.coeffs) == [1, 0]


def test_sigma_powers_pass_the_recursion_limit(usl2):
    """On usl2, sigma(t) = t + 1, so sigma^p(t^2 - 3t) = (t + p)^2 - 3(t + p)
    for p past the recursion limit, either sign."""
    base = usl2.algebra.sigma.algebra
    t, one = base.generator("t"), base.one()
    limit = sys.getrecursionlimit() + 10
    for p in (limit, -limit):
        sigma = BaseAutomorphism(base, usl2.algebra.sigma.images,
                                 usl2.algebra.sigma.inverse_images)
        shifted = t + one.scale(QQ.from_int(p))
        assert sigma.apply(t * t - t.scale(QQ.from_int(3)), p) == (
            shifted * shifted - shifted.scale(QQ.from_int(3)))


def test_a_full_image_cache_clears_and_powers_stay_exact(monkeypatch, corpus):
    """With a limit of 8 scalars, the per-power image cache of a sigma that
    is not diagonal clears again and again, keeps its count of held
    scalars, and every power still equals the parent's recursion."""
    monkeypatch.setattr(basehopf, "_IMAGE_CACHE_LIMIT", 8)
    rng = random.Random(20261021)
    for name in ("usl2", "solvable"):
        source = corpus[name].algebra.sigma
        assert source.diagonal is None, name
        sigma = BaseAutomorphism(source.algebra, source.images, source.inverse_images)
        terms, elements = _sigma_cases(rng, sigma.algebra)
        steps, sizes = {}, []
        for p in (*range(1, 13), *range(-1, -13, -1)):
            _assert_parent_powers(sigma, [p], terms, elements, steps, name)
            assert sigma._image_scalars == sum(
                len(img.coeffs) for img in sigma._image_cache.values()), (name, p)
            sizes.append(len(sigma._image_cache))
        assert any(later < earlier for earlier, later in zip(sizes, sizes[1:])), (name, sizes)


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
        for x in (ta + tb, ta - tb, (ta + tb) - tb, ta.scale(zero), ta.scale(two)):
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
    for op in (operator.add, operator.sub):
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
    assert before == {base.one_monomial(): base.field.one().data}
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
    for table, one in ((values, field.one()), (images, base.one())):
        assert base.evaluate(table, mono, one) == reference_evaluate(base, table, mono, one)


def test_zero_on_a_unit_generator_is_refused_by_character():
    """The refusal comes from Character itself, before any family check."""
    group = GroupBase(CyclotomicField(3), rank=1, torsion=(3,))
    cases = [(LaurentBase(QQ), {"t": QQ.zero()}, "t"),
             (group, {"g1": group.field.zero(), "g2": group.field.zeta()}, "g1")]
    for base, values, name in cases:
        with pytest.raises(CharacterError) as refusal:
            Character(base, values)
        assert str(refusal.value) == f"character must be nonzero on unit generator {name}"


# -- the constructors that store their dict without the zero filter ---------------


def _generator_rows():
    """(base, name, power, monomial) for each generator power that its family
    builds straight from one monomial with coefficient 1, the monomial
    written out here by hand."""
    group = GroupBase(CyclotomicField(3), rank=1, torsion=(3,))
    rows = []
    for base in (PolynomialBase(QQ), LaurentBase(RationalFunctionField())):
        first = 0 if base.family == "polynomial" else -3
        rows += [(base, "t", p, p) for p in range(first, 4)]
    rows += [(group, "g1", p, (p, 0)) for p in range(-3, 4)]
    rows += [(group, "g2", p, (0, p % 3)) for p in range(-4, 5)]
    for field in (CyclotomicField(8), RationalFunctionField()):
        base = UqSl2Base(field, field.q() if field.kind == "rational-function" else field.zeta())
        rows += [(base, "K", p, (p, 0, 0)) for p in range(-2, 3)]
        rows += [(base, "E", p, (0, p, 0)) for p in range(4)]
    return rows


def test_generators_equal_the_public_constructor():
    rows = _generator_rows()
    for base, name, power, mono in rows:
        g = base.generator(name, power)
        want = BaseElement(base, {mono: base.field.one()})
        assert g == want and list(g.coeffs.items()) == list(want.coeffs.items()), (name, power)
        assert g.__class__ is BaseElement and g.algebra is base
    uqsl2 = rows[-1][0]
    for base, name, power, error in [(PolynomialBase(QQ), "t", -1, NotInvertibleError),
                                     (PolynomialBase(QQ), "s", 1, KeyError),
                                     (LaurentBase(QQ), "g1", -1, KeyError),
                                     (GroupBase(QQ, rank=2), "g3", 1, KeyError),
                                     (GroupBase(QQ, rank=2), "t", -1, KeyError),
                                     (uqsl2, "E", -1, NotInvertibleError),
                                     (uqsl2, "H", 1, KeyError)]:
        with pytest.raises(error):
            base.generator(name, power)


def _sums_with_zero(usl2):
    """(x, zero, a zero of a foreign algebra) for each container kind:
    elements and tensors of R, elements and 2-leg tensors of A."""
    alg, base = usl2.algebra, usl2.algebra.base
    far = build_uqsl2_root().algebra  # over a Laurent base, so foreign to usl2
    r = random_base_element(random.Random(20261021), base)
    x = alg.monomial(r, 1, 2) + alg.xplus()
    assert r.coeffs and x.coeffs
    return [(r, base.zero(), far.base.zero()),
            (BaseTensor.of(r, r), BaseTensor.of(r, base.zero()),
             BaseTensor.of(far.base.one(), far.base.zero())),
            (x, alg.zero(), far.zero()),
            (usl2.delta(x), Tensor.of(x, alg.zero()), Tensor.of(far.one(), far.zero()))]


def test_a_sum_with_zero_is_the_other_operand(usl2):
    for x, zero, foreign in _sums_with_zero(usl2):
        assert not zero.coeffs and not foreign.coeffs
        assert x + zero is x and zero + x is x and x - zero is x
        assert (zero + zero).coeffs == {}
        for left, right in ((x, foreign), (foreign, x)):
            with pytest.raises(AlgebraMismatchError):
                left + right
    alg = usl2.algebra
    three, two_zero = Tensor.of(alg.xplus(), alg.one(), alg.xminus()), usl2.delta(alg.zero())
    assert not two_zero.coeffs and three.legs == 3
    for left, right in ((three, two_zero), (two_zero, three)):
        with pytest.raises(AlgebraMismatchError):
            left + right


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_monomial_equals_the_public_constructor(seed):
    rng = random.Random(seed)
    for hopf in (build_usl2(), build_uqsl2_root()):
        alg, base = hopf.algebra, hopf.algebra.base
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        r = random_base_element(rng, base)
        for coeff in (r, r - r, base.one()):
            x = alg.monomial(coeff, m, n)
            want = AmbiElement(alg, {(m, n): coeff})
            assert x == want and list(x.coeffs.items()) == list(want.coeffs.items())
            assert x.__class__ is AmbiElement and x.algebra is alg
            assert alg.embed(coeff) == AmbiElement(alg, {(0, 0): coeff})
        foreign = LaurentBase(QQ).one() if base.family != "laurent" else PolynomialBase(QQ).one()
        for build in (lambda: alg.monomial(foreign, m, n), lambda: alg.embed(foreign)):
            with pytest.raises(AlgebraMismatchError):
                build()
