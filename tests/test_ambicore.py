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
    random_base_element,
    random_element,
    scalars,
)
from oracles import (
    CallCounter,
    combine_contract_leg,
    combine_delta,
    combine_expand_leg,
    combine_map_leg,
    combine_merge_legs,
    loop_ambi_mul,
    loop_antipode,
    loop_base_mul,
    loop_counit,
    loop_sum,
    loop_tensor_mul,
    loop_word,
    reference_leg_product,
    stated_words,
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


def test_reduced_words_pass_no_zero_filter(monkeypatch):
    """120 seeded free words on usl2, laurent-asym, uqsl2-case3 and
    group-z-z2 reduce to nonzero normal forms whose terminal words are
    built by ``monomial``: no pass of the public constructor's zero filter.
    Building each through ``AmbiElement(...)`` made 137 passes."""
    rng = random.Random(20261023)
    cases = []
    for name in ("usl2", "laurent-asym", "uqsl2-case3", "group-z-z2"):
        A = CORPUS_BUILDERS[name]().algebra
        letters = ["X+", "X-"] + [random_base_element(rng, A.base) for _ in range(3)]
        cases += [(A, [rng.choice(letters) for _ in range(rng.randint(1, 5))])
                  for _ in range(30)]
    counts = CallCounter(monkeypatch, "filter")
    counts.patch(Sparse, "__init__", "filter")
    reduced = [reduce_word(A, word) for A, word in cases]
    assert counts == {"filter": 0}
    assert all(x.coeffs for x in reduced)


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


# -- the direct leg product against the element product ---------------------------


def _cold_leg_products(corpus, name, keep) -> list:
    """The pairs of legs r X+^m X-^n, r 1 or a generator or its inverse and
    m, n < 3, that ``keep(one monomial, leg1, leg2)`` selects: each product
    on an algebra with empty caches is a miss and equals the reference in
    value and order."""
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    base, monos = A.base, {A.base.one_monomial()}
    for info in base.generator_info():
        monos.update(base.generator(info.name).coeffs)
        if info.invertible:
            monos.update(base.generator(info.name, -1).coeffs)
    legs = [(mono, m, n) for mono in sorted(monos, key=base.monomial_sort_key)
            for m in range(3) for n in range(3)]
    pairs = [(leg1, leg2) for leg1 in legs for leg2 in legs
             if keep(base.one_monomial(), leg1, leg2)]
    for leg1, leg2 in pairs:
        assert (leg1, leg2) not in A._leg_cache
        got, want = A.leg_product(leg1, leg2), reference_leg_product(A, leg1, leg2)
        assert list(got.items()) == list(want.items()), (name, leg1, leg2)
    return pairs


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS))
def test_direct_leg_product_matches_round_trip(corpus, name):
    _cold_leg_products(corpus, name, lambda one, leg1, leg2: True)


# -- the two-leg tensor kernel against the k-leg loop ----------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_two_leg_kernel_matches_legwise_loop(corpus, seed):
    """``Tensor.__mul__`` on 2-leg tensors equals the loop over every pair of
    terms, in values and in term order, on every corpus algebra."""
    rng = random.Random(seed)
    for name, hopf in corpus.items():
        def random_tensor():
            a, b, c = (random_element(rng, hopf, max_degree=2) for _ in range(3))
            return Tensor.of(a, b) - Tensor.of(b, a) + hopf.delta(c)
        x, y = random_tensor(), random_tensor()
        for left, right in ((x, y), (y, x), (x, x)):
            got, want = left * right, loop_tensor_mul(left, right)
            assert got == want, name
            assert list(got.coeffs) == list(want.coeffs), name


# -- the inline leg-surgery loops against the combine bodies they replaced ---------


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
                check("expand", t.expand_leg(i, fn), combine_expand_leg(t, i, fn))
            for fn in (hopf.antipode_leg, scaled(element())):
                check("map", t.map_leg(i, fn), combine_map_leg(t, i, fn))
            for fn in (hopf.counit_leg, scaled(None, (0, 1, -1, 2))):
                check("contract", t.contract_leg(i, fn), combine_contract_leg(t, i, fn))
            for u, j in ((t, 0), (hopf.delta(x).map_leg(i, hopf.antipode_leg), 0), (three, i)):
                check("merge", u.merge_legs(j), combine_merge_legs(u, j))
        check("contract", three.contract_leg(2, hopf.counit_leg),
              combine_contract_leg(three, 2, hopf.counit_leg))
        check("delta", hopf.delta(x), combine_delta(hopf, x))
        # leg coproducts I, -J, J and J, J the first term of I: that key
        # cancels, comes back after the other keys of I, and doubles
        y = alg.one() + alg.xplus() + alg.xminus() + alg.xplus() * alg.xminus()
        big = hopf.delta(alg.xplus() * alg.xminus())
        first = big._new(dict([next(iter(big.coeffs.items()))]))
        images = dict(zip(_flatten(y), (big, -first, first, first)))
        fake = object.__new__(HopfAmbiskewAlgebra)
        fake.algebra, fake.delta_leg = alg, images.__getitem__
        check("delta", HopfAmbiskewAlgebra.delta(fake, y), combine_delta(fake, y))
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
    words = stated_words(base)
    for x, y in ((a, b), (b, a), (a, a), (a - b, a + b)):
        got, want = x * y, loop_base_mul(x, y, words)
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
                got, want = x * y, loop_base_mul(x, y, stated_words(base))
                assert list(got.coeffs.items()) == list(want.coeffs.items()), base.key()


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
            _check_unit_products(one, xs, loop_base_mul, (name, "R"))
            for near in (one.scale(two), list(base.generators.values())[0]):
                for x in xs + [one]:
                    _assert_same(near * x, loop_base_mul(near, x), (name, "R near"))
                    _assert_same(x * near, loop_base_mul(x, near), (name, "R near"))
        for one in (A.one(), A.embed(BaseElement(base, {base.one_monomial(): field.one()}))):
            xs = [random_element(rng, hopf, max_terms=3, max_degree=2) for _ in range(3)]
            _check_unit_products(one, xs, loop_ambi_mul, (name, "A"))
            for near in (one.scale(two), A.xplus(), A.xminus(), A.embed(A.h + base.one())):
                for x in xs + [one]:
                    _assert_same(near * x, loop_ambi_mul(near, x), (name, "A near"))
                    _assert_same(x * near, loop_ambi_mul(x, near), (name, "A near"))


def test_powers_match_the_loop_from_one(corpus):
    """x**n, n - 1 products from x, equals the loop of n products from the
    unit, in values and term order, in A and in R, for n <= 4."""
    rng = random.Random(20261018)
    for name, hopf in corpus.items():
        A = hopf.algebra
        cases = [(random_element(rng, hopf, max_terms=2, max_degree=2), loop_ambi_mul, A.one())
                 for _ in range(2)]
        cases += [(random_base_element(rng, A.base, max_support=2), loop_base_mul, A.base.one())
                  for _ in range(2)]
        cases += [(A.xplus() + A.xminus(), loop_ambi_mul, A.one())]
        for x, loop, one in cases:
            acc = one
            for n in range(5):
                got = x**n
                _assert_same(got, acc, (name, n))
                if n == 1:
                    assert got is x, name
                acc = loop(acc, x)


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS))
def test_unit_monomial_leg_products_match_the_formula(corpus, name):
    """Cold leg products with the one monomial on either side, or both,
    where the product r1 sigma^(m1-n1)(r2) is skipped, match the reference
    before any other leg product has filled the caches."""
    pairs = _cold_leg_products(corpus, name, lambda one, leg1, leg2: one in (leg1[0], leg2[0]))
    assert any(leg1[0] != leg2[0] for leg1, leg2 in pairs)


# -- the word cache and the identity skips against the uncached loops ----------------


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
    the uncached loop in value and in order. A coefficient equal
    to 1 is the shared ``base._one`` and no other is; the cache holds one
    word per (m, n, p), and a second call returns the cached word itself."""
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    one = A.base._one
    keys = list(itertools.product(range(5), repeat=4))
    random.Random(name).shuffle(keys)
    for key in keys:
        got = {(u, v + key[3]): c for (u, v), c in A._word(*key[:3]).items()}
        assert _layout(got) == _layout(loop_word(A, *key)), (name, key)
        assert all((c is one) == (c == one) for c in got.values()), (name, key)
        assert A._word(*key[:3]) is A._word_cache[key[:3]], (name, key)
    assert set(A._word_cache) == set(itertools.product(range(5), repeat=3))
    assert A._cached_scalars == _scalars_held(A)


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS))
def test_words_with_one_last_x_plus_match_the_parent_recursion(corpus, name):
    """The loop that builds X+^u X-^n X+ equals the uncached recursion over
    n in value and in order, down to base coefficients, for n up to 300
    (the reference recurses once per X-, inside the default limit)."""
    built = corpus[name].algebra
    A = AmbiskewAlgebra(built.base, built.sigma, built.h, built.xi)  # empty caches
    for n in (1, 2, 3, 7, 31, 128, 300):
        for u in (0, 1, 3):
            assert _layout(A._word(u, n, 1)) == _layout(loop_word(A, u, n, 1, 0)), (name, u, n)


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
        got, want = got * x, loop_ambi_mul(want, x)
        _assert_same(got, want, name)
        assert A._cached_scalars == _scalars_held(A), name
        sizes.append(len(A._word_cache))
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:])), (name, sizes)


# -- raw-data containers against the loops on Scalars -------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_raw_containers_match_the_scalar_loops(corpus, seed):
    """On every corpus algebra: products in R, A and A (x) A, delta,
    antipode, counit and sums, cancelling ones among them, equal the
    references, which take every product, apply sigma^0 and rebuild every
    word on Scalar arithmetic, in value and dict order at every level. A
    scalar over Q(zeta_6), whose data has the layout of Q(zeta_3), is
    refused by a Q(zeta_3) container, the field's one too."""
    rng = random.Random(seed)
    for name, hopf in corpus.items():
        A, base = hopf.algebra, hopf.algebra.base
        rs = [random_base_element(rng, base, max_support=3) for _ in range(2)]
        for x, y in itertools.product(rs + [base.one()], repeat=2):
            assert _layout(x * y) == _layout(loop_base_mul(x, y)), (name, "R")
            for s, t in ((x, y), (x, -x), (x - y, y)):
                assert _layout(s + t) == _layout(loop_sum(s, t)), (name, "R sum")
        xs = [random_element(rng, hopf, max_terms=3, max_degree=3, base_support=2)
              for _ in range(2)]
        xs += [A.embed(rs[0]) + A.xplus(), A.xplus() * A.xminus() + A.embed(rs[0])]
        for x, y in itertools.product(xs, repeat=2):
            assert _layout(x * y) == _layout(loop_ambi_mul(x, y)), (name, "A")
            for s, t in ((x, y), (x, -x), (x - y, y), (x * y, -(y * x))):
                assert _layout(s + t) == _layout(loop_sum(s, t)), (name, "A sum")
        for x in xs:
            assert _layout(hopf.delta(x)) == _layout(combine_delta(hopf, x)[0]), (name, "delta")
            assert _layout(hopf.antipode(x)) == _layout(loop_antipode(hopf, x)), name
            counit = hopf.counit(x)
            assert counit == loop_counit(hopf, x) and counit.field is A.field, name
        ys = [random_element(rng, hopf, max_terms=3, max_degree=2, base_support=2)
              for _ in range(2)]
        ts = [hopf.delta(ys[0]), Tensor.of(ys[1], A.xminus()) - hopf.delta(xs[2])]
        for s, t in itertools.product(ts, repeat=2):
            assert _layout(s * t) == _layout(loop_tensor_mul(s, t)), (name, "A (x) A")
            assert _layout(s + t) == _layout(loop_sum(s, t)), (name, "A (x) A sum")
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
    counts = CallCounter(monkeypatch, "scalar", "mul")
    # patched before the build: a field binds its kernels once (Field._kernel)
    counts.patch(Scalar, "__init__", "scalar")
    counts.patch(CyclotomicField, "_mul", "mul")
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
    counts = CallCounter(monkeypatch, "words", "mul")
    # patched before the build: a field binds its kernels once (Field._kernel)
    counts.patch(LaurentBase, "mul_monomials", "words")
    counts.patch(RationalFunctionField, "_mul", "mul")
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
    counts = CallCounter(monkeypatch, "from_fraction", "filter")
    hopfs = [CORPUS_BUILDERS["uqsl2-case3"]()]
    hopfs.append(_checked_algebra(resolve_spec(parse_spec(
        (corpus_dir() / "uqsl2.abhk").read_text(encoding="utf-8"))))[0])
    assert [h.algebra.field.kind for h in hopfs] == ["cyclotomic", "rational-function"]
    for field_class in (RationalField, CyclotomicField, RationalFunctionField):
        counts.patch(field_class, "from_fraction", "from_fraction")
    counts.patch(Sparse, "__init__", "filter")
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
        want = loop_base_mul(x, y)
        assert _layout(cold) == _layout(want), (base.key(), x, y)
        assert _layout(warm) == _layout(want), (base.key(), x, y)


def test_a_cancelled_key_of_a_product_in_a_is_inserted_again_last(usl2):
    """On usl2 (X- X+ = X+ X- - t), (X- - 1 + X+)(X+ + X+ X- + X-) adds +1,
    -1 and +1 to the key X+ X- in turn: the key is dropped when its sum is
    zero and inserted again last, in the uncached loop and in the inline
    accumulation. On Z x Z/2, (1 + g) X+ times (1 + g) is zero: a term that
    vanishes in R stores nothing: sigma(g) = -g there, for g of order 2."""
    A, base = usl2.algebra, usl2.algebra.base
    one, t = base.one(), base.generator("t")
    x = AmbiElement._of(A, {(0, 1): one, (0, 0): -one, (1, 0): one})
    y = AmbiElement._of(A, {(1, 0): one, (1, 1): one, (0, 1): one})
    got, want = x * y, loop_ambi_mul(x, y)
    assert _layout(got) == _layout(want)
    assert list(got.coeffs) == [(0, 0), (1, 2), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (1, 1)]
    assert got.coeffs[(1, 1)] == one and got.coeffs[(0, 1)] == -(t + one)
    group = CORPUS_BUILDERS["group-z-z2"]().algebra
    g, gone = group.base.generator("g2"), group.base.one()
    x = group.monomial(gone + g, 1, 0)
    y = AmbiElement._of(group, {(0, 0): gone + g, (0, 1): gone})
    got, want = x * y, loop_ambi_mul(x, y)
    assert _layout(got) == _layout(want)
    assert list(got.coeffs) == [(1, 1)]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inline_word_reads_and_sums_match_the_parent_accumulation(corpus, seed):
    """Products in A, cold on a fresh word cache and then warm, equal the
    uncached loop's ``s + term`` accumulation in value and dict order on every
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
            assert _layout(x * y) == _layout(loop_ambi_mul(x, y)), (name, x, y)


def test_warm_products_on_uqsl2_read_cached_structure_constants(monkeypatch):
    """50 seeded products in A on uqsl2-case3, cold and then again on warm
    caches: the products in R read the structure constants of U_q(sl2)
    from the inner ``_leg_cache``, so the cold pass calls
    ``UqSl2Base.mul_monomials`` once per pair of monomials it has not met
    (175 of them) and the warm pass not at all; with a call for every pair
    the two passes made 403 and 399 calls."""
    counts = CallCounter(monkeypatch, "words")
    counts.patch(UqSl2Base, "mul_monomials", "words")
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
