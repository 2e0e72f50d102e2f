"""Normal-form engine: rewriting, associativity, confluence against the
free-word oracle, and the tensor machinery."""

from __future__ import annotations

import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abhk import ambicore
from abhk.ambicore import AmbiElement, AmbiskewAlgebra, Tensor, _flatten, reduce_word
from abhk.basehopf import (
    BaseElement,
    Character,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    Sparse,
    combine,
    winding_automorphism_left,
)
from abhk.cli import _checked_algebra, corpus_dir
from abhk.errors import (
    AlgebraMismatchError,
    FieldMismatchError,
    HopfDataError,
    UnsupportedBaseError,
)
from abhk.exprparse import parse_spec, resolve_spec
from abhk.hopfstruct import HopfAmbiskewAlgebra
from abhk.scalar import CyclotomicField, RationalField, RationalFunctionField, Scalar
from abhk.uqsl2 import UqSl2Base

from conftest import (
    CORPUS_BUILDERS,
    assert_no_zero,
    combine_scalars,
    random_base_element,
    random_element,
    raw,
    scalars,
)

QQ = RationalField()


def usl2_algebra():
    base = PolynomialBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    sigma = winding_automorphism_left(chi)
    return AmbiskewAlgebra(base, sigma, base.generator("t"), QQ.one())


def test_skew_relation_rearranged():
    A = usl2_algebra()
    t = A.base.generator("t")
    xm_xp = A.xminus() * A.xplus()
    # X-X+ = xi^-1 X+X- - xi^-1 h with xi = 1, h = t
    assert xm_xp == A.xplus() * A.xminus() - A.embed(t)


def test_commutation_through_sigma():
    A = usl2_algebra()
    t = A.base.generator("t")
    # X+ t = (t + 1) X+ and X- t = (t - 1) X-
    assert A.xplus() * A.embed(t) == A.monomial(t + A.base.one(), 1, 0)
    assert A.xminus() * A.embed(t) == A.monomial(t - A.base.one(), 0, 1)


def test_sigma_apply_powers():
    A = usl2_algebra()
    t = A.base.generator("t")
    assert A.sigma.apply(t, -1) == t - A.base.one()
    assert A.sigma.apply(t, 0) == t
    assert A.sigma.apply(t, 3) == t + A.base.one().scale(QQ.from_int(3))


def test_embed_is_multiplicative():
    A = usl2_algebra()
    t = A.base.generator("t")
    a, b = t + A.base.one(), t**2
    assert A.embed(a * b) == A.embed(a) * A.embed(b)
    # Eq-style instance: X+ h = sigma(h) X+
    h = A.h
    assert A.xplus() * A.embed(h) == A.embed(A.sigma.apply(h, 1)) * A.xplus()


def test_h_centrality_respected_by_engine():
    for name, build in CORPUS_BUILDERS.items():
        A = build().algebra
        h = A.embed(A.h)
        for x, sign in ((A.xplus(), -1), (A.xminus(), +1)):
            lhs = h * x
            rhs = x * A.embed(A.sigma.apply(A.h, sign))
            assert lhs == rhs, name


def test_skew_relation_conservation_everywhere():
    for name, build in CORPUS_BUILDERS.items():
        A = build().algebra
        lhs = A.xplus() * A.xminus() - (A.xminus() * A.xplus()).scale(A.xi)
        assert lhs == A.embed(A.h), name


def test_xpxm_square_against_oracle():
    A = usl2_algebra()
    word = ["X+", "X-", "X+", "X-"]
    via_engine = (A.xplus() * A.xminus()) ** 2
    via_oracle = reduce_word(A, word)
    assert via_engine == via_oracle
    assert not via_engine.is_zero()


def test_reduce_word_strategies_agree():
    rng = random.Random(99)
    A = usl2_algebra()
    t = A.base.generator("t")
    letters = ["X+", "X-", t, t + A.base.one()]
    for _ in range(40):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 5))]
        left = reduce_word(A, word, "leftmost")
        right = reduce_word(A, word, "rightmost")
        rand = reduce_word(A, word, "random", rng=random.Random(7))
        assert left == right == rand
        # and both agree with the engine product of the letters
        prod = A.one()
        for letter in word:
            prod = prod * (A.embed(letter) if not isinstance(letter, str)
                           else (A.xplus() if letter == "X+" else A.xminus()))
        assert prod == left


def test_associativity_spot_check():
    rng = random.Random(4)
    for name in ("usl2", "uqsl2-root", "uqsl2-case3"):
        hopf = CORPUS_BUILDERS[name]()
        for _ in range(30):
            a = random_element(rng, hopf)
            b = random_element(rng, hopf)
            c = random_element(rng, hopf)
            assert (a * b) * c == a * (b * c), name


def test_tensor_examples():
    A = usl2_algebra()
    t = A.base.generator("t")
    xp = A.xplus()
    one = A.one()
    r = A.embed(t)
    assert Tensor.of(xp, one) * Tensor.of(one, xp) == Tensor.of(xp, xp)
    assert Tensor.of(one, r) * Tensor.of(xp, one) == Tensor.of(xp, r)
    # tensorand products pick up the rewriting: (1 (x) X+)(1 (x) t)
    assert Tensor.of(one, xp) * Tensor.of(one, r) == Tensor.of(one, xp * r)


def test_tensor_with_grouplike_normalizes_left():
    hopf = CORPUS_BUILDERS["quantum-affine"]()
    A = hopf.algebra
    y = A.embed(hopf.data.y_plus)
    xp = A.xplus()
    lhs = Tensor.of(y, xp) * Tensor.of(xp, A.one())
    assert lhs == Tensor.of(y * xp, xp)


def _one_leg_to_element(tensor: Tensor) -> AmbiElement:
    """A 1-leg tensor read back as an element of A, leg by leg."""
    assert tensor.legs == 1
    A = tensor.algebra
    acc = A.zero()
    for ((mono, m, n),), c in scalars(tensor).items():
        acc = acc + A.monomial(BaseElement(A.base, {mono: c}), m, n)
    return acc


def test_tensor_leg_surgery_roundtrip():
    A = usl2_algebra()
    t = A.base.generator("t")
    elem = A.monomial(t, 1, 1) + A.xplus()
    single = Tensor.of(elem)
    assert _one_leg_to_element(single) == elem
    tensor = Tensor.of(elem, A.one())
    merged = tensor.merge_legs(0)
    assert _one_leg_to_element(merged) == elem


def test_algebra_mismatch_guard():
    A = usl2_algebra()
    base = LaurentBase(QQ)
    chi = Character(base, {"t": QQ.from_int(2)})
    B = AmbiskewAlgebra(base, winding_automorphism_left(chi), base.zero(), QQ.one())
    with pytest.raises(AlgebraMismatchError):
        A.xplus() + B.xplus()


def test_constructor_validation():
    base = PolynomialBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    sigma = winding_automorphism_left(chi)
    with pytest.raises(HopfDataError):
        AmbiskewAlgebra(base, sigma, base.generator("t"), QQ.zero())
    # h = 0 (degenerate q-commutation) is allowed
    field = RationalFunctionField()
    lbase = LaurentBase(field)
    lchi = Character(lbase, {"t": field.q()})
    A = AmbiskewAlgebra(lbase, winding_automorphism_left(lchi), lbase.zero(), field.q())
    assert (A.xminus() * A.xplus()) == (A.xplus() * A.xminus()).scale(field.q(-1))


def test_free_module_normal_forms_unique():
    # reducing the same random word along different strategies yields the
    # same coefficients on the PBW basis, i.e. normal forms are unique
    rng = random.Random(1234)
    hopf = CORPUS_BUILDERS["laurent-asym"]()
    A = hopf.algebra
    for _ in range(25):
        word = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.4:
                word.append("X+")
            elif roll < 0.8:
                word.append("X-")
            else:
                word.append(random_base_element(rng, A.base))
        assert reduce_word(A, word, "leftmost") == reduce_word(A, word, "rightmost")


# -- the sparse-container contract -----------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_extension_containers_never_store_zero(corpus, seed):
    rng = random.Random(seed)
    for name in ("usl2", "laurent-asym", "uqsl2-case3"):
        hopf = corpus[name]
        field = hopf.algebra.field
        zero, two = field.zero(), field.from_int(-2)
        a, b, c = (random_element(rng, hopf, max_degree=2) for _ in range(3))
        for x in (a + b, a - b, a * b, (a + b) - b, a.scale(zero), a.scale(two)):
            assert_no_zero(x)
        assert (a - a).coeffs == {}, name
        ta, tb = Tensor.of(a, b), Tensor.of(b, c)
        for x in (ta + tb, ta - tb, ta * tb, (ta + tb) - tb, ta.scale(zero), ta.scale(two)):
            assert_no_zero(x)
        assert (ta - ta).coeffs == {}, name
        d = hopf.delta(a)
        for x in (d.expand_leg(0, hopf.delta_leg), d.map_leg(1, hopf.antipode_leg),
                  d.contract_leg(0, hopf.counit_leg), d.merge_legs(0),
                  d.map_leg(0, hopf.antipode_leg).merge_legs(0)):
            assert_no_zero(x)
        # products whose inner sums cancel, and the builders that skip the
        # constructor's filter: Tensor.of, delta, antipode and leg products
        A = hopf.algebra
        xp, one = A.xplus(), A.one()
        for g in A.base.generators.values():
            r = A.embed(g)
            cancel = (r + one) * (r - one) - r * r
            for x in (cancel, (xp + r) * (xp - r) - xp * xp, (a - b) * (r - one),
                      A.xminus() * cancel * xp, Tensor.of(cancel, a - b),
                      hopf.delta(cancel), hopf.delta(a - b), hopf.antipode(cancel),
                      hopf.antipode(a - b)):
                assert_no_zero(x)
        fresh = AmbiskewAlgebra(A.base, A.sigma, A.h, A.xi)
        for leg1 in _flatten(a - b):
            for leg2 in _flatten(c):
                assert all(not field._is_zero(v) for v in fresh.leg_product(leg1, leg2).values())


# -- the direct leg product against the element round trip ---------------------


def _round_trip_leg_product(A: AmbiskewAlgebra, leg1, leg2) -> dict:
    """A leg-product miss as computed before the direct formula: both legs
    as elements of A, multiplied by the engine and flattened."""
    def element(leg):
        mono, m, n = leg
        return AmbiElement(A, {(m, n): BaseElement(A.base, {mono: A.field.one()})})
    return _flatten(element(leg1) * element(leg2))


def _generator_monomials(base) -> set:
    monos = {base.one_monomial()}
    for info in base.generator_info():
        monos.update(base.generator(info.name).coeffs)
        if info.invertible:
            monos.update(base.generator(info.name, -1).coeffs)
    return monos


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS))
def test_direct_leg_product_matches_round_trip(corpus, name):
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    monos = sorted(_generator_monomials(A.base), key=A.base.monomial_sort_key)
    legs = [(mono, m, n) for mono in monos for m in range(3) for n in range(3)]
    for leg1 in legs:
        for leg2 in legs:
            assert (leg1, leg2) not in A._leg_cache
            got = A.leg_product(leg1, leg2)
            want = _round_trip_leg_product(A, leg1, leg2)
            assert list(got.items()) == list(want.items()), (name, leg1, leg2)
            parent = _parent_leg_product(A, leg1, leg2)
            assert list(got.items()) == list(parent.items()), (name, leg1, leg2)


# -- the two-leg tensor kernel against the k-leg loop ----------------------------


def _mul_legwise(left, right):
    """The product for any leg count, leg by leg through partial terms,
    kept as the reference for the 2-leg kernel of ``Tensor.__mul__``."""
    field = left.algebra.field
    out: dict = {}
    for key1, c1 in scalars(left).items():
        for key2, c2 in scalars(right).items():
            partial = [((), c1 * c2)]
            for leg1, leg2 in zip(key1, key2):
                flat = left.algebra.leg_product(leg1, leg2)
                partial = [
                    (key + (leg,), c * Scalar(field, d))
                    for key, c in partial
                    for leg, d in flat.items()
                ]
            combine_scalars(partial, out)
    return left._new(raw(out))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_two_leg_kernel_matches_legwise_loop(corpus, seed):
    """``Tensor.__mul__`` on 2-leg tensors equals the k-leg loop
    ``_mul_legwise``, in values and in term order, on every corpus algebra."""
    rng = random.Random(seed)
    for name, hopf in corpus.items():
        def random_tensor():
            a, b, c = (random_element(rng, hopf, max_degree=2) for _ in range(3))
            return Tensor.of(a, b) - Tensor.of(b, a) + hopf.delta(c)
        x, y = random_tensor(), random_tensor()
        for left, right in ((x, y), (y, x), (x, x)):
            got, want = left * right, _mul_legwise(left, right)
            assert got == want, name
            assert list(got.coeffs) == list(want.coeffs), name


# -- the inline leg-surgery loops against the combine bodies they replaced ---------


class _Cancels(dict):
    """An output dict for ``combine`` that counts the keys re-inserted after
    their running sum cancelled: such a key moves to the end of the dict."""

    def __init__(self):
        super().__init__()
        self.dropped, self.reinserted = set(), 0

    def pop(self, key, default=None):
        if key in self:
            self.dropped.add(key)
        return super().pop(key, default)

    def __setitem__(self, key, value):
        if key in self.dropped and key not in self:
            self.reinserted += 1
        super().__setitem__(key, value)


def _combined(t, terms, legs):
    out = _Cancels()
    combine(t.algebra.field, terms, out)
    return t._new(dict(out), legs), out.reinserted


def _product(field):
    one, mul, _, _ = field._kernel
    return lambda c, d: c if d == one else d if c == one else mul(c, d)


def _combine_expand_leg(t, i, fn):
    mul = _product(t.algebra.field)
    return _combined(t, ((key[:i] + ekey + key[i + 1:], mul(c, d)) for key, c in t.coeffs.items()
                         for ekey, d in fn(key[i]).coeffs.items()), t.legs + 1)


def _combine_map_leg(t, i, fn):
    mul = _product(t.algebra.field)
    return _combined(t, ((key[:i] + (leg,) + key[i + 1:], mul(c, d))
                         for key, c in t.coeffs.items()
                         for leg, d in _flatten(fn(key[i])).items()), t.legs)


def _combine_contract_leg(t, i, fn):
    field = t.algebra.field
    mul = _product(field)
    return _combined(t, ((key[:i] + key[i + 1:], mul(c, d)) for key, c in t.coeffs.items()
                         if not field._is_zero(d := fn(key[i]).data)), t.legs - 1)


def _combine_merge_legs(t, i):
    mul = _product(t.algebra.field)
    return _combined(t, ((key[:i] + (leg,) + key[i + 2:], mul(c, d))
                         for key, c in t.coeffs.items()
                         for leg, d in t.algebra.leg_product(key[i], key[i + 1]).items()),
                     t.legs - 1)


def _combine_delta(hopf, a):
    mul = _product(hopf.algebra.field)
    return _combined(Tensor(hopf.algebra, 2, {}), (
        (key, mul(c, d)) for leg, c in _flatten(a).items()
        for key, d in hopf.delta_leg(leg).coeffs.items()), 2)


@pytest.mark.parametrize("name", ["usl2", "laurent-asym", "uqsl2-case3", "uqsl2-variant"])
def test_inline_leg_surgery_matches_the_combine_loops(corpus, name):
    """``expand_leg``, ``map_leg``, ``contract_leg``, ``merge_legs`` and
    ``HopfAmbiskewAlgebra.delta`` sum inline; each equals the ``combine``
    body it replaced, in value and in dict order, over Q, Q(zeta_8) and
    Q(q). The leg maps send every leg to one fixed image times a scalar of
    +-1 or 2 (0 too for the counit), so that the sums cancel and re-insert
    keys; the Hopf maps run too. Every surgery sees a key cancel and come
    back."""
    hopf = corpus[name]
    alg = hopf.algebra
    field = alg.field
    rng = random.Random(20261020)
    returned = dict.fromkeys(("expand", "map", "contract", "merge", "delta"), 0)

    def check(kind, got, want):
        want, n = want
        assert got == want and got.legs == want.legs, (name, kind)
        assert list(got.coeffs.items()) == list(want.coeffs.items()), (name, kind)
        returned[kind] += n

    def scaled(image, choices=(1, -1, 2)):
        """A leg map: image times a scalar drawn once per leg; the scalar
        alone when image is None."""
        table: dict = {}

        def fn(leg):
            if leg not in table:
                c = field.from_int(rng.choice(choices))
                table[leg] = c if image is None else image.scale(c)
            return table[leg]
        return fn

    def element():
        return random_element(rng, hopf, max_terms=3, max_degree=1, base_support=2)

    for _ in range(12):
        x = element()
        t = (Tensor.of(element(), element()) - Tensor.of(element(), element()).scale(
            field.from_int(2)) + hopf.delta(x))
        three = Tensor.of(element(), element(), element()) + Tensor.of(x, x, alg.one())
        for i in (0, 1):
            for fn in (hopf.delta_leg, scaled(hopf.delta(element()))):
                check("expand", t.expand_leg(i, fn), _combine_expand_leg(t, i, fn))
            for fn in (hopf.antipode_leg, scaled(element())):
                check("map", t.map_leg(i, fn), _combine_map_leg(t, i, fn))
            for fn in (hopf.counit_leg, scaled(None, (0, 1, -1, 2))):
                check("contract", t.contract_leg(i, fn), _combine_contract_leg(t, i, fn))
            for u, j in ((t, 0), (hopf.delta(x).map_leg(i, hopf.antipode_leg), 0), (three, i)):
                check("merge", u.merge_legs(j), _combine_merge_legs(u, j))
        check("contract", three.contract_leg(2, hopf.counit_leg),
              _combine_contract_leg(three, 2, hopf.counit_leg))
        check("delta", hopf.delta(x), _combine_delta(hopf, x))
        # leg coproducts I, -J, J and J, J the first term of I: that key
        # cancels, comes back after the other keys of I, and doubles
        y = alg.one() + alg.xplus() + alg.xminus() + alg.xplus() * alg.xminus()
        big = hopf.delta(alg.xplus() * alg.xminus())
        first = big._new(dict([next(iter(big.coeffs.items()))]))
        images = dict(zip(_flatten(y), (big, -first, first, first)))
        fake = object.__new__(HopfAmbiskewAlgebra)
        fake.algebra, fake.delta_leg = alg, images.__getitem__
        check("delta", HopfAmbiskewAlgebra.delta(fake, y), _combine_delta(fake, y))
    assert all(returned.values()), (name, returned)


def test_tensor_products_other_than_two_legs_are_refused(corpus):
    A = corpus["usl2"].algebra
    x = A.xplus() + A.one()
    for legs in (1, 3):
        t = Tensor.of(*[x] * legs)
        with pytest.raises(UnsupportedBaseError, match=f"tensors with {legs} legs"):
            t * t


def test_extension_containers_reject_foreign_operands(corpus):
    A, B = corpus["usl2"].algebra, corpus["heisenberg"].algebra
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(AlgebraMismatchError):
            op(A.xplus(), B.xplus())
        with pytest.raises(AlgebraMismatchError):
            op(Tensor.of(A.xplus()), Tensor.of(B.xplus()))
        with pytest.raises(AlgebraMismatchError):
            op(Tensor.of(A.xplus()), Tensor.of(A.xplus(), A.one()))
    assert Tensor(A, 1, {}) != Tensor(A, 2, {})
    assert Tensor(A, 2, {}) == Tensor(A, 2, {})


# -- unit short-cuts against the kernel loops they skip ---------------------------


def _loop_base_mul(a: BaseElement, b: BaseElement, words=None) -> BaseElement:
    """``BaseElement.__mul__`` as the kernel loop on ``Scalar`` arithmetic,
    with no unit short-cut of the container; ``words`` gives the product of
    two monomials as a mapping (by default the base's ``mul_monomials``)."""
    field = a.algebra.field
    words = words or a.algebra.mul_monomials
    out: dict = {}
    for m1, c1 in scalars(a).items():
        for m2, c2 in scalars(b).items():
            c = c1 * c2
            for m, extra in words(m1, m2).items():
                v = c * Scalar(field, extra)
                s = out.get(m)
                if s is None:
                    out[m] = v
                elif (v := s + v).is_zero():
                    del out[m]
                else:
                    out[m] = v
    return BaseElement._of(a.algebra, raw(out))


def _stated_words(base):
    """The monomial product of a commutative family as this test states it,
    with no use of ``monomial_product``: exponents of t add, and group
    exponents add coordinate by coordinate, the torsion ones mod their order."""
    one = base.field._one.data
    if base.family != "group":
        return lambda a, b: {a + b: one}

    def words(a, b):
        exps = [x + y for x, y in zip(a, b)]
        for i, order in enumerate(base.torsion):
            exps[base.rank + i] %= order
        return {tuple(exps): one}
    return words


_MONOID_FIELDS = (QQ, RationalFunctionField(), CyclotomicField(8), CyclotomicField(3))


def _monoid_bases(field):
    return [PolynomialBase(field), LaurentBase(field), GroupBase(field, 2),
            GroupBase(field, 1, (3,)), GroupBase(field, 0, (2, 4))]


@st.composite
def monoid_products(draw):
    """A commutative base over Q, Q(q), Q(zeta_8) or Q(zeta_3), and two
    elements of it. Monomials come from a small box and coefficients from
    +-1, +-2, +-q and +-zeta, so products often land on one monomial and
    their sums often cancel; half the draws add m - m' to b, two terms of
    opposite sign whose products with a meet whenever m and m' are moved
    onto one monomial by a's support."""
    field = draw(st.sampled_from(_MONOID_FIELDS))
    base = draw(st.sampled_from(_monoid_bases(field)))
    units = [field.from_int(k) for k in (1, -1, 2, -2)]
    if field.kind == "rational-function":
        units += [field.q(), -field.q(), field.q(-1)]
    elif field.kind == "cyclotomic":
        units += [field.zeta(), -field.zeta(), field.zeta(-1)]
    if base.family == "polynomial":
        monos = st.integers(0, 3)
    elif base.family == "laurent":
        monos = st.integers(-2, 2)
    else:
        monos = st.tuples(*[st.integers(-2, 2)] * base.ngens).map(
            lambda e: e[:base.rank] + tuple(x % m for x, m in zip(e[base.rank:], base.torsion)))
    terms = st.lists(st.tuples(monos, st.sampled_from(units)), min_size=1, max_size=4)

    def element(pairs):
        out = base.zero()
        for mono, c in pairs:
            out = out + BaseElement(base, {mono: c})
        return out
    a, b = element(draw(terms)), element(draw(terms))
    if draw(st.booleans()):
        m, m2 = draw(monos), draw(monos)
        b = b + element([(m, units[0]), (m2, units[1])])
    return base, a, b


@settings(max_examples=300, deadline=None)
@given(monoid_products())
def test_monoid_loop_matches_the_general_loop(case):
    """``BaseElement.__mul__`` on a family with a ``monomial_product`` (the
    monoid loop) equals the general kernel loop on the family's product as
    stated here, in value and dict order, with cancelling sums drawn; the
    default ``mul_monomials`` agrees with it."""
    base, a, b = case
    words = _stated_words(base)
    for x, y in ((a, b), (b, a), (a, a), (a - b, a + b)):
        got, want = x * y, _loop_base_mul(x, y, words)
        assert list(got.coeffs.items()) == list(want.coeffs.items()), (base.key(), x, y)
        for m1 in x.coeffs:
            for m2 in y.coeffs:
                assert base.mul_monomials(m1, m2) == words(m1, m2)


def test_monoid_loop_cancels_to_the_general_loop():
    """(g + 1)(g - 1) = g^2 - 1 and (g + g^2)(g - 1) = g^3 - g cancel inside
    the monoid loop exactly as in the general loop, on the last generator g
    of every commutative family."""
    for field in _MONOID_FIELDS:
        for base in _monoid_bases(field):
            g, one = base.generator(base.generator_info()[-1].name), base.one()
            pairs = [(g + one, g - one), (g + g * g, g - one)]
            for x, y in pairs:
                got, want = x * y, _loop_base_mul(x, y, _stated_words(base))
                assert list(got.coeffs.items()) == list(want.coeffs.items()), base.key()


def _parent_rx(A: AmbiskewAlgebra, u: int, v: int) -> dict:
    """The normal form of X+^u X-^v X+ by the recursion of the former
    ``AmbiskewAlgebra._rx``, uncached: the form of X+^u X-^(v-1) X+ times
    X- on the left, the relation applied once at the front."""
    if v == 0:
        return {(u + 1, 0): A.base.one()}
    xi_inv = A.xi_inv.data
    out = {(a, b + 1): c._scale(xi_inv) for (a, b), c in _parent_rx(A, u, v - 1).items()}
    corr = A.sigma.apply(A.h, u - v + 1)._scale(A.field._neg(xi_inv))
    combine(A.base, (((u, v - 1), corr),), out)
    return out


def _parent_nf(A: AmbiskewAlgebra, n: int, p: int) -> dict:
    """The normal form of X-^n X+^p by the recursion of the former
    ``AmbiskewAlgebra._nf``, uncached: the form of X-^n X+^(p-1) times X+,
    each of its terms rewritten by ``_parent_rx``."""
    if n == 0 or p == 0:
        return {(p, n): A.base.one()}
    return combine(A.base, ((ab, c * extra) for (u, v), c in _parent_nf(A, n, p - 1).items()
                            for ab, extra in _parent_rx(A, u, v).items()))


def _parent_mul_monomials(A: AmbiskewAlgebra, m: int, n: int, p: int, q: int) -> dict:
    """The normal form of X+^m X-^n X+^p X-^q as the uncached loop of the
    former ``AmbiskewAlgebra.mul_monomials``: sigma^m applied to every
    coefficient of ``_parent_nf(n, p)``, on every call."""
    out: dict = {}
    for (u, v), c in _parent_nf(A, n, p).items():
        out[(m + u, v + q)] = A.sigma.apply(c, m)
    return out


def _loop_ambi_mul(a: AmbiElement, b: AmbiElement) -> AmbiElement:
    """``AmbiElement.__mul__`` as the rewriting loop, every word from the
    uncached ``_parent_mul_monomials`` and every base product through
    ``_loop_base_mul``: no cache, no skip and no unit short-cut."""
    alg = a.algebra
    out: dict = {}
    for (m, n), x in a.coeffs.items():
        for (p, q), y in b.coeffs.items():
            coeff = _loop_base_mul(x, alg.sigma.apply(y, m - n))
            for uv, c in _parent_mul_monomials(alg, m, n, p, q).items():
                term = _loop_base_mul(coeff, c)
                s = out.get(uv)
                merged = term if s is None else s + term
                if merged.is_zero():
                    out.pop(uv, None)
                else:
                    out[uv] = merged
    return AmbiElement._of(alg, out)


def _assert_same(got, want, context):
    assert got == want, context
    assert list(got.coeffs.items()) == list(want.coeffs.items()), context


def _check_unit_products(one, others, loop, context):
    """one * x and x * one return x itself and match the loop, and one * one
    returns one and matches the loop."""
    for x in others:
        for got, want in ((one * x, loop(one, x)), (x * one, loop(x, one))):
            assert got is x or x == one, context  # a unit x may come back as one
            _assert_same(got, want, context)
    got = one * one
    assert got is one, context
    _assert_same(got, loop(one, one), context)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_unit_short_cuts_match_the_loops(corpus, seed):
    """A unit factor in R or in A returns the other operand itself, equal in
    values and term order to the kernel loop it skips; an operand that only
    looks like the unit goes through the loop and matches it."""
    rng = random.Random(seed)
    for name, hopf in corpus.items():
        A = hopf.algebra
        base, field = A.base, A.field
        two = field.from_int(2)
        for one in (base.one(), BaseElement(base, {base.one_monomial(): field.one()})):
            xs = [random_base_element(rng, base, max_support=3) for _ in range(3)]
            _check_unit_products(one, xs, _loop_base_mul, (name, "R"))
            for near in (one.scale(two), list(base.generators.values())[0]):
                for x in xs + [one]:
                    _assert_same(near * x, _loop_base_mul(near, x), (name, "R near"))
                    _assert_same(x * near, _loop_base_mul(x, near), (name, "R near"))
        for one in (A.one(), A.embed(BaseElement(base, {base.one_monomial(): field.one()}))):
            xs = [random_element(rng, hopf, max_terms=3, max_degree=2) for _ in range(3)]
            _check_unit_products(one, xs, _loop_ambi_mul, (name, "A"))
            for near in (one.scale(two), A.xplus(), A.xminus(), A.embed(A.h + base.one())):
                for x in xs + [one]:
                    _assert_same(near * x, _loop_ambi_mul(near, x), (name, "A near"))
                    _assert_same(x * near, _loop_ambi_mul(x, near), (name, "A near"))


def test_powers_match_the_loop_from_one(corpus):
    """x**n, n - 1 products from x, equals the loop of n products from the
    unit, in values and term order, in A and in R, for n <= 4."""
    rng = random.Random(20261018)
    for name, hopf in corpus.items():
        A = hopf.algebra
        cases = [(random_element(rng, hopf, max_terms=2, max_degree=2), _loop_ambi_mul, A.one())
                 for _ in range(2)]
        cases += [(random_base_element(rng, A.base, max_support=2), _loop_base_mul, A.base.one())
                  for _ in range(2)]
        cases += [(A.xplus() + A.xminus(), _loop_ambi_mul, A.one())]
        for x, loop, one in cases:
            acc = one
            for n in range(5):
                got = x**n
                _assert_same(got, acc, (name, n))
                if n == 1:
                    assert got is x, name
                acc = loop(acc, x)


def _parent_leg_product(A: AmbiskewAlgebra, leg1, leg2) -> dict:
    """A leg-product miss by the formula with no unit short-cut: the
    coefficient is always r1 sigma^(m1-n1)(r2), formed by the loop."""
    (r1, m1, n1), (r2, m2, n2) = leg1, leg2
    base, sigma, one = A.base, A.sigma, A.field.one().data
    coeff = _loop_base_mul(BaseElement._of(base, {r1: one}),
                           sigma.apply(BaseElement._of(base, {r2: one}), m1 - n1))
    if not n1 or not m2:
        return {(mono, m1 + m2, n1 + n2): d for mono, d in coeff.coeffs.items()}
    out = {}
    for (u, v), c in _parent_nf(A, n1, m2).items():
        for mono, d in _loop_base_mul(coeff, sigma.apply(c, m1)).coeffs.items():
            out[(mono, m1 + u, v + n2)] = d
    return out


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS))
def test_unit_monomial_leg_products_match_the_formula(corpus, name):
    """Cold leg products with the one monomial on either side, or both,
    match the formula that multiplies r1 by sigma^(m1-n1)(r2)."""
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    one_mono = A.base.one_monomial()
    monos = sorted(_generator_monomials(A.base), key=A.base.monomial_sort_key)
    legs = [(mono, m, n) for mono in monos for m in range(3) for n in range(3)]
    pairs = [(leg1, leg2) for leg1 in legs for leg2 in legs
             if one_mono in (leg1[0], leg2[0])]
    assert any(leg1[0] != leg2[0] for leg1, leg2 in pairs)
    for leg1, leg2 in pairs:
        assert (leg1, leg2) not in A._leg_cache
        got = A.leg_product(leg1, leg2)
        want = _parent_leg_product(A, leg1, leg2)
        assert list(got.items()) == list(want.items()), (name, leg1, leg2)


# -- the word cache and the identity skips against the parent's loops ----------------


def _layout(x) -> list:
    """A container's coefficients in dict order, down to the scalars inside
    base coefficients; a plain dict is read as a container's coeffs. Equal
    layouts mean equal values in the same order at every level."""
    coeffs = x if isinstance(x, dict) else x.coeffs
    return [(k, _layout(v) if isinstance(v, Sparse) else v) for k, v in coeffs.items()]


def _scalars_held(A: AmbiskewAlgebra) -> int:
    return sum(len(c.coeffs) for word in A._word_cache.values() for c in word.values())


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS))
def test_cached_words_match_the_uncached_loop(corpus, name):
    """Every word X+^m X-^n X+^p X-^q with m, n, p, q <= 4, read from the
    cached word X+^m X-^n X+^p with X- raised by q as the product kernels
    read it, in a shuffled order on an algebra with empty caches, equals
    the parent's uncached loop in value and in order. A coefficient equal
    to 1 is the shared ``base._one`` and no other is; the cache holds one
    word per (m, n, p), and a second call returns the cached word itself."""
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    one = A.base._one
    keys = list(itertools.product(range(5), repeat=4))
    random.Random(name).shuffle(keys)
    for key in keys:
        got = {(u, v + key[3]): c for (u, v), c in A._word(*key[:3]).items()}
        assert _layout(got) == _layout(_parent_mul_monomials(A, *key)), (name, key)
        assert all((c is one) == (c == one) for c in got.values()), (name, key)
        assert A._word(*key[:3]) is A._word_cache[key[:3]], (name, key)
    assert set(A._word_cache) == set(itertools.product(range(5), repeat=3))
    assert A._cached_scalars == _scalars_held(A)


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS))
def test_words_with_one_last_x_plus_match_the_parent_recursion(corpus, name):
    """The loop that builds X+^u X-^n X+ equals the parent's recursion over
    n in value and in order, down to base coefficients, for n up to 300
    (the reference recurses once per X-, inside the default limit)."""
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    for n in (1, 2, 3, 7, 31, 128, 300):
        for u in (0, 1, 3):
            assert _layout(A._word(u, n, 1)) == _layout(_parent_rx(A, u, n)), (name, u, n)


@pytest.mark.parametrize("k", [1024, 2048])
def test_long_words_on_usl2_match_their_closed_forms(k):
    """On usl2 (h = t, sigma(t) = t + 1, xi = 1), past the recursion limit:
    X-^k X+ = X+ X-^k - (k t - k(k-1)/2) X-^(k-1) and
    X- X+^k = X+^k X- - (k t + k(k-1)/2) X+^(k-1). The loop over p stores
    every word X- X+^p it passes."""
    A = usl2_algebra()
    t, one = A.base.generator("t"), A.base.one()
    half = QQ.from_int(k * (k - 1) // 2)
    kt = t.scale(QQ.from_int(k))
    assert A.xminus(k) * A.xplus() == (
        A.monomial(one, 1, k) - A.monomial(kt - one.scale(half), 0, k - 1))
    assert A.xminus() * A.xplus(k) == (
        A.monomial(one, k, 1) - A.monomial(kt + one.scale(half), k - 1, 0))
    assert all((0, 1, p) in A._word_cache for p in range(1, k + 1))


@pytest.mark.parametrize("name", ["usl2", "uqsl2-variant", "uqsl2-case3"])
def test_a_full_word_cache_clears_and_products_stay_exact(corpus, name, monkeypatch):
    """With a limit of 8 scalars, the word cache clears again and again
    while powers of X+ + X- + h are formed, keeps its count of held
    scalars, and every power equals the uncached loop in value and order."""
    monkeypatch.setattr(ambicore, "_WORD_CACHE_LIMIT", 8)
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    x = A.xplus() + A.xminus() + A.embed(A.h)
    got = want = x
    sizes = []
    for _ in range(4):
        got, want = got * x, _loop_ambi_mul(want, x)
        _assert_same(got, want, name)
        assert A._cached_scalars == _scalars_held(A), name
        sizes.append(len(A._word_cache))
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:])), (name, sizes)


def _loop_tensor_mul(left: Tensor, right: Tensor) -> Tensor:
    """The two-leg ``Tensor.__mul__`` kernel with every scalar product
    taken, its leg products from ``_parent_leg_product`` (the formula with
    uncached words and no unit short-cut), memoized for this call only."""
    A = left.algebra
    legs: dict = {}

    def leg_product(a, b):
        if (a, b) not in legs:
            legs[(a, b)] = _parent_leg_product(A, a, b)
        return legs[(a, b)]

    field = A.field
    out: dict = {}
    for (a1, a2), c1 in scalars(left).items():
        for (b1, b2), c2 in scalars(right).items():
            c = c1 * c2
            right_legs = leg_product(a2, b2).items()
            combine_scalars((((leg1, leg2), c * Scalar(field, d1) * Scalar(field, d2))
                             for leg1, d1 in leg_product(a1, b1).items()
                             for leg2, d2 in right_legs), out)
    return Tensor._of(A, raw(out), 2)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_products_match_the_parent_loops(corpus, seed):
    """Products in R, A and A (x) A equal the parent's loops, which take
    every product, apply sigma^0 and rebuild every word, in value and in
    dict order at every level, on every corpus algebra."""
    rng = random.Random(seed)
    for name, hopf in corpus.items():
        A = hopf.algebra
        base = A.base
        rs = [random_base_element(rng, base, max_support=3) for _ in range(2)]
        for x, y in itertools.product(rs + [base.one()], repeat=2):
            assert _layout(x * y) == _layout(_loop_base_mul(x, y)), (name, "R")
        xs = [random_element(rng, hopf, max_terms=3, max_degree=3, base_support=2)
              for _ in range(2)]
        xs.append(A.xplus() * A.xminus() + A.embed(rs[0]))
        for x, y in itertools.product(xs, repeat=2):
            assert _layout(x * y) == _layout(_loop_ambi_mul(x, y)), (name, "A")
        ys = [random_element(rng, hopf, max_terms=2, max_degree=2) for _ in range(2)]
        ts = [hopf.delta(ys[0]), Tensor.of(ys[1], A.xminus()) - hopf.delta(A.xplus() + ys[1])]
        for s, t in itertools.product(ts, repeat=2):
            assert _layout(s * t) == _layout(_loop_tensor_mul(s, t)), (name, "A (x) A")


# -- raw-data containers against the parent's Scalar-arithmetic loops --------------


def _loop_delta(hopf, a: AmbiElement) -> Tensor:
    """``delta`` as the parent's sum of c * d over the leg coproducts, on
    Scalars."""
    field = hopf.algebra.field
    out = combine_scalars((key, Scalar(field, c) * d)
                          for leg, c in _flatten(a).items()
                          for key, d in scalars(hopf.delta_leg(leg)).items())
    return Tensor._of(hopf.algebra, raw(out), 2)


def _loop_antipode(hopf, a: AmbiElement) -> AmbiElement:
    """``antipode`` as the parent's sum of c * S(leg), on Scalars inside
    each base coefficient."""
    A, field = hopf.algebra, hopf.algebra.field
    out: dict = {}
    for leg, c in _flatten(a).items():
        for mn, r in hopf.antipode_leg(leg).coeffs.items():
            term = {mono: s * Scalar(field, c) for mono, s in scalars(r).items()}
            s = out.get(mn)
            merged = term if s is None else combine_scalars(term.items(), dict(s))
            if merged:
                out[mn] = merged
            else:
                out.pop(mn, None)
    return AmbiElement._of(A, {mn: BaseElement._of(A.base, raw(d)) for mn, d in out.items()})


def _loop_counit(hopf, a: AmbiElement) -> Scalar:
    base, field = hopf.base, hopf.algebra.field
    acc = field.zero()
    for mono, c in scalars(a.base_part()).items():
        acc = acc + c * Scalar(field, base.counit_monomial(mono))
    return acc


def _loop_sum(x, y):
    """x + y as the parent's ``combine`` on Scalars, down to the base
    coefficients of an element of A."""
    if not isinstance(x, AmbiElement):
        return x._new(raw(combine_scalars(scalars(y).items(), scalars(x))))
    out = dict(x.coeffs)
    for mn, r in y.coeffs.items():
        s = out.get(mn)
        merged = r if s is None else _loop_sum(s, r)
        if merged.coeffs:
            out[mn] = merged
        else:
            out.pop(mn, None)
    return x._new(out)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_raw_containers_match_the_scalar_loops(corpus, seed):
    """Over Q (usl2), Q(zeta_8) (uqsl2-case3), Q(q) (quantum-affine) and
    Q(zeta_3) (uqsl2-counit-root): products in R, A and A (x) A, delta,
    antipode, counit and sums, cancelling ones among them, equal the
    parent's loops on Scalar arithmetic in value and dict order at every
    level. A scalar over Q(zeta_6), whose data has the layout of
    Q(zeta_3), is refused by a Q(zeta_3) container, the field's one too."""
    rng = random.Random(seed)
    for name in ("usl2", "uqsl2-case3", "quantum-affine", "uqsl2-counit-root"):
        hopf = corpus[name]
        A, base = hopf.algebra, hopf.algebra.base
        rs = [random_base_element(rng, base, max_support=3) for _ in range(2)]
        for x, y in itertools.product(rs + [base.one()], repeat=2):
            assert _layout(x * y) == _layout(_loop_base_mul(x, y)), (name, "R")
            for s, t in ((x, y), (x, -x), (x - y, y)):
                assert _layout(s + t) == _layout(_loop_sum(s, t)), (name, "R sum")
        xs = [random_element(rng, hopf, max_terms=3, max_degree=2, base_support=2)
              for _ in range(2)] + [A.embed(rs[0]) + A.xplus()]
        for x, y in itertools.product(xs, repeat=2):
            assert _layout(x * y) == _layout(_loop_ambi_mul(x, y)), (name, "A")
            for s, t in ((x, y), (x, -x), (x - y, y), (x * y, -(y * x))):
                assert _layout(s + t) == _layout(_loop_sum(s, t)), (name, "A sum")
        for x in xs:
            assert _layout(hopf.delta(x)) == _layout(_loop_delta(hopf, x)), (name, "delta")
            assert _layout(hopf.antipode(x)) == _layout(_loop_antipode(hopf, x)), name
            counit = hopf.counit(x)
            assert counit == _loop_counit(hopf, x) and counit.field is A.field, name
        ts = [hopf.delta(xs[0]), Tensor.of(xs[1], A.xminus()) - hopf.delta(xs[2])]
        for s, t in itertools.product(ts, repeat=2):
            assert _layout(s * t) == _layout(_loop_tensor_mul(s, t)), (name, "A (x) A")
            assert _layout(s + t) == _layout(_loop_sum(s, t)), (name, "A (x) A sum")
        assert _layout(ts[0] - ts[0]) == [], name
        if name == "uqsl2-counit-root":
            twin = CyclotomicField(6)
            assert twin.one().data == A.field.one().data
            for c in (twin.one(), twin.zeta()):
                for refused in (lambda: xs[0].scale(c), lambda: rs[0].scale(c),
                                lambda: ts[0].scale(c), lambda: base.from_scalar(c),
                                lambda: Tensor(A, 1, {((base.one_monomial(), 0, 0),): c})):
                    with pytest.raises(FieldMismatchError):
                        refused()


def test_warm_products_in_a_build_no_scalar(monkeypatch):
    """50 seeded products in A over Q(zeta_8), repeated on warm caches,
    build no ``Scalar`` and call the field's ``_mul`` a pinned number of
    times, memo hits included; the parent's containers of Scalars built
    512 of them for the same 498 calls."""
    counts = {"scalar": 0, "mul": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # patched before the build: a field binds its kernels once (Field._kernel)
    monkeypatch.setattr(Scalar, "__init__", counting("scalar", Scalar.__init__))
    monkeypatch.setattr(CyclotomicField, "_mul", counting("mul", CyclotomicField._mul))
    hopf = CORPUS_BUILDERS["uqsl2-case3"]()  # no cache shared with another test
    rng = random.Random(20261019)
    pairs = [tuple(random_element(rng, hopf, max_terms=2, max_degree=2, base_support=2)
                   for _ in range(2)) for _ in range(50)]
    want = [a * b for a, b in pairs]
    counts.update(scalar=0, mul=0)
    assert [a * b for a, b in pairs] == want
    assert counts == {"scalar": 0, "mul": 498}


def test_warm_products_on_a_monoid_base_build_no_structure_dict(monkeypatch):
    """50 seeded products in A on uqsl2-variant (a Laurent base over Q(q)),
    cold and then on warm caches, make no ``mul_monomials`` call: every
    product in R runs the monoid loop (the general loop made 388 and 376
    ``mul_monomials`` calls). Cold, they call ``_mul`` of Q(q) 426 times,
    where rewriting each term of a word by an uncached X+^u X-^v X+ took
    434; warm, 387 times, as the general loop did."""
    counts = {"words": 0, "mul": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # patched before the build: a field binds its kernels once (Field._kernel)
    monkeypatch.setattr(LaurentBase, "mul_monomials", counting("words", LaurentBase.mul_monomials))
    monkeypatch.setattr(RationalFunctionField, "_mul",
                        counting("mul", RationalFunctionField._mul))
    hopf = CORPUS_BUILDERS["uqsl2-variant"]()  # no cache shared with another test
    rng = random.Random(20261020)
    pairs = [tuple(random_element(rng, hopf, max_terms=2, max_degree=2, base_support=2)
                   for _ in range(2)) for _ in range(50)]
    counts.update(words=0, mul=0)
    want = [a * b for a, b in pairs]
    assert counts == {"words": 0, "mul": 426}
    counts.update(words=0, mul=0)
    assert [a * b for a, b in pairs] == want
    assert counts == {"words": 0, "mul": 387}


def test_operand_batches_make_no_fraction_and_no_filter_pass(monkeypatch):
    """200 seeded operands each on uqsl2-case3 (Q(zeta_8)) and uqsl2 (Q(q)),
    built from generators, integer scalars, ``monomial`` and sums, make no
    ``from_fraction`` call and no pass of the public constructor's zero
    filter. Routing each int through ``Fraction``, each generator through
    the filter and each sum with zero through a copy, the parent made 3,168
    ``from_fraction`` calls and 2,547 filter passes for the same batch."""
    counts = {"from_fraction": 0, "filter": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    hopfs = [CORPUS_BUILDERS["uqsl2-case3"]()]
    hopfs.append(_checked_algebra(resolve_spec(parse_spec(
        (corpus_dir() / "uqsl2.abhk").read_text(encoding="utf-8"))))[0])
    assert [h.algebra.field.kind for h in hopfs] == ["cyclotomic", "rational-function"]
    for field_class in (RationalField, CyclotomicField, RationalFunctionField):
        monkeypatch.setattr(field_class, "from_fraction",
                            counting("from_fraction", field_class.from_fraction))
    monkeypatch.setattr(Sparse, "__init__", counting("filter", Sparse.__init__))
    rng = random.Random(20261022)
    batch = [random_element(rng, hopf, max_terms=3, max_degree=2, base_support=2)
             for hopf in hopfs for _ in range(200)]
    assert counts == {"from_fraction": 0, "filter": 0}
    assert all(x.coeffs for x in batch)


# -- warm products read their caches inline -------------------------------------

_UQSL2_FIELDS = (CyclotomicField(8), CyclotomicField(3), RationalFunctionField())


@st.composite
def uqsl2_products(draw):
    """U_q(sl2) at q = zeta over Q(zeta_8) or Q(zeta_3), or at q over Q(q),
    and two elements of it. Monomials are the inner legs t^j X+^m X-^n from
    a small box, and coefficients come from +-1, +-2 and +-q, so products
    often land on one monomial and their sums often cancel; half the draws
    add m - m' to b, two terms of opposite sign."""
    field = draw(st.sampled_from(_UQSL2_FIELDS))
    q = field.q() if field.kind == "rational-function" else field.zeta()
    base = UqSl2Base(field, q)
    units = [field.from_int(k) for k in (1, -1, 2, -2)] + [q, -q]
    monos = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))
    terms = st.lists(st.tuples(monos, st.sampled_from(units)), min_size=1, max_size=3)

    def element(pairs):
        out = base.zero()
        for mono, c in pairs:
            out = out + BaseElement(base, {mono: c})
        return out
    a, b = element(draw(terms)), element(draw(terms))
    if draw(st.booleans()):
        b = b + element([(draw(monos), units[0]), (draw(monos), units[1])])
    return base, a, b


@settings(max_examples=40, deadline=None)
@given(uqsl2_products())
def test_warm_and_cold_uqsl2_products_match_the_general_loop(case):
    """On U_q(sl2) the general loop of ``BaseElement.__mul__`` reads the
    inner ``_leg_cache`` (the same dict) and calls ``mul_monomials`` only on
    a miss. A cold product (the cache cleared, every pair a miss) and the
    same product warm (every pair a hit) equal the loop through
    ``mul_monomials`` on every pair, in value and dict order, with
    cancelling sums drawn."""
    base, a, b = case
    assert base._mul_cache is base.inner._leg_cache
    for x, y in ((a, b), (b, a), (a, a), (a - b, a + b)):
        base._mul_cache.clear()
        cold = x * y
        if base.one().coeffs not in (x.coeffs, y.coeffs):  # no unit short-cut
            assert all((m1, m2) in base._mul_cache for m1 in x.coeffs for m2 in y.coeffs)
        warm = x * y
        want = _loop_base_mul(x, y)
        assert _layout(cold) == _layout(want), (base.key(), x, y)
        assert _layout(warm) == _layout(want), (base.key(), x, y)


def _parent_ambi_mul(a: AmbiElement, b: AmbiElement) -> AmbiElement:
    """``AmbiElement.__mul__`` as the parent wrote it: every word through
    ``_word``, and a term added to the running coefficient s of its key as
    ``s + term``, a key whose sum is zero popped."""
    alg = a.algebra
    one, apply, words = alg.base._one, alg.sigma.apply, alg._word
    out: dict = {}
    for (m, n), x in a.coeffs.items():
        for (p, q), y in b.coeffs.items():
            r = apply(y, m - n) if m != n else y
            coeff = r if x is one else x if r is one else x * r
            for (u, v), c in words(m, n, p).items():
                term = coeff if c is one else coeff * c
                uv = (u, v + q)
                s = out.get(uv)
                merged = term if s is None else s + term
                if merged.is_zero():
                    out.pop(uv, None)
                else:
                    out[uv] = merged
    return AmbiElement._of(alg, out)


def test_a_cancelled_key_of_a_product_in_a_is_inserted_again_last(usl2):
    """On usl2 (X- X+ = X+ X- - t), (X- - 1 + X+)(X+ + X+ X- + X-) adds +1,
    -1 and +1 to the key X+ X- in turn: the key is dropped when its sum is
    zero and inserted again last, in the parent's accumulation and in the
    inline one. On Z x Z/2, (1 + g) X+ times (1 + g) is zero: a term that
    vanishes in R stores nothing: sigma(g) = -g there, for g of order 2."""
    A, base = usl2.algebra, usl2.algebra.base
    one, t = base.one(), base.generator("t")
    x = AmbiElement._of(A, {(0, 1): one, (0, 0): -one, (1, 0): one})
    y = AmbiElement._of(A, {(1, 0): one, (1, 1): one, (0, 1): one})
    got, want = x * y, _parent_ambi_mul(x, y)
    assert _layout(got) == _layout(want)
    assert list(got.coeffs) == [(0, 0), (1, 2), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (1, 1)]
    assert got.coeffs[(1, 1)] == one and got.coeffs[(0, 1)] == -(t + one)
    group = CORPUS_BUILDERS["group-z-z2"]().algebra
    g, gone = group.base.generator("g2"), group.base.one()
    x = group.monomial(gone + g, 1, 0)
    y = AmbiElement._of(group, {(0, 0): gone + g, (0, 1): gone})
    got, want = x * y, _parent_ambi_mul(x, y)
    assert _layout(got) == _layout(want)
    assert list(got.coeffs) == [(1, 1)]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inline_word_reads_and_sums_match_the_parent_accumulation(corpus, seed):
    """Products in A, cold on a fresh word cache and then warm, equal the
    parent's ``s + term`` accumulation in value and dict order on every
    corpus algebra, with sums that cancel inside a base coefficient and
    whole keys that cancel and come back."""
    rng = random.Random(seed)
    for name, hopf in corpus.items():
        A = hopf.algebra
        xs = [random_element(rng, hopf, max_terms=3, max_degree=2, base_support=2)
              for _ in range(2)]
        xs += [xs[0] - xs[1], xs[0] + A.xminus() * A.xplus() - A.xplus() * A.xminus()]
        cases = list(itertools.product(xs, repeat=2))
        A._word_cache.clear()
        A._cached_scalars = 0
        for x, y in cases + cases:  # cold, then warm
            assert _layout(x * y) == _layout(_parent_ambi_mul(x, y)), (name, x, y)


def test_warm_products_on_uqsl2_read_cached_structure_constants(monkeypatch):
    """50 seeded products in A on uqsl2-case3, cold and then again on warm
    caches: the products in R read the structure constants of U_q(sl2)
    from the inner ``_leg_cache``, so the cold pass calls
    ``UqSl2Base.mul_monomials`` once per pair of monomials it has not met
    (175 of them) and the warm pass not at all; with a call for every pair
    the two passes made 403 and 399 calls."""
    counts = {"words": 0}

    def counting(fn):
        def wrapper(*args):
            counts["words"] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(UqSl2Base, "mul_monomials", counting(UqSl2Base.mul_monomials))
    hopf = CORPUS_BUILDERS["uqsl2-case3"]()  # no cache shared with another test
    rng = random.Random(20261021)
    pairs = [tuple(random_element(rng, hopf, max_terms=2, max_degree=2, base_support=2)
                   for _ in range(2)) for _ in range(50)]
    counts.update(words=0)
    want = [a * b for a, b in pairs]
    assert counts == {"words": 175}
    counts.update(words=0)
    assert [a * b for a, b in pairs] == want
    assert counts == {"words": 0}
