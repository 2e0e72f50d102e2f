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
    LaurentBase,
    PolynomialBase,
    Sparse,
    combine,
    winding_automorphism_left,
)
from abhk.errors import AlgebraMismatchError, HopfDataError, UnsupportedBaseError
from abhk.scalar import RationalField, RationalFunctionField

from conftest import CORPUS_BUILDERS, assert_no_zero, random_base_element, random_element

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
    for ((mono, m, n),), c in tensor.coeffs.items():
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
                assert all(not v.is_zero() for v in fresh.leg_product(leg1, leg2).values())


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
    out: dict = {}
    for key1, c1 in left.coeffs.items():
        for key2, c2 in right.coeffs.items():
            partial = [((), c1 * c2)]
            for leg1, leg2 in zip(key1, key2):
                flat = left.algebra.leg_product(leg1, leg2)
                partial = [
                    (key + (leg,), c * d)
                    for key, c in partial
                    for leg, d in flat.items()
                ]
            combine(partial, out)
    return left._new(out)


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


def _loop_base_mul(a: BaseElement, b: BaseElement) -> BaseElement:
    """``BaseElement.__mul__`` as the kernel loop, with no unit short-cut."""
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            c = c1 * c2
            for m, extra in a.algebra.mul_monomials(m1, m2).items():
                v = c * extra
                s = out.get(m)
                if s is None:
                    out[m] = v
                elif (v := s + v).is_zero():
                    del out[m]
                else:
                    out[m] = v
    return BaseElement._of(a.algebra, out)


def _parent_mul_monomials(A: AmbiskewAlgebra, m: int, n: int, p: int, q: int) -> dict:
    """The normal form of X+^m X-^n X+^p X-^q as the uncached loop of the
    former ``AmbiskewAlgebra.mul_monomials``: sigma^m applied to every
    coefficient of _nf(n, p), on every call."""
    out: dict = {}
    for (u, v), c in A._nf(n, p).items():
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
    base, sigma, one = A.base, A.sigma, A.field.one()
    coeff = _loop_base_mul(BaseElement._of(base, {r1: one}),
                           sigma.apply(BaseElement._of(base, {r2: one}), m1 - n1))
    if not n1 or not m2:
        return {(mono, m1 + m2, n1 + n2): d for mono, d in coeff.coeffs.items()}
    out = {}
    for (u, v), c in A._nf(n1, m2).items():
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
    assert A._word_scalars == _scalars_held(A)


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
        assert A._word_scalars == _scalars_held(A), name
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

    out: dict = {}
    for (a1, a2), c1 in left.coeffs.items():
        for (b1, b2), c2 in right.coeffs.items():
            c = c1 * c2
            right_legs = leg_product(a2, b2).items()
            combine((((leg1, leg2), c * d1 * d2)
                     for leg1, d1 in leg_product(a1, b1).items()
                     for leg2, d2 in right_legs), out)
    return Tensor._of(A, out, 2)


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
