"""Field arithmetic, multiplicative orders, Gaussian binomials, and the
d-adic hat combinatorics."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abhk import scalar
from abhk.errors import FieldMismatchError, NotInvertibleError
from abhk.exprparse import format_scalar
from abhk.scalar import (
    CyclotomicField,
    HatProfile,
    RationalField,
    RationalFunctionField,
    Scalar,
    _content_free,
    _coprime,
    _trim,
    cyclotomic_fold_table,
    cyclotomic_poly,
    eval_int_poly,
    format_order,
    gaussian_binomial_poly,
    hat,
    mul_order,
    poly_add,
    poly_mul,
    poly_neg,
    prec,
    q_binomial,
)

from oracles import (
    fraction_cyclotomic_poly,
    loop_power,
    poly_divmod,
    qfunc_make,
    reference_cyclotomic_mul,
    reference_format_qfunc,
    reference_gcd,
    reference_make,
    reference_mul_order,
    reference_qfunc_add,
    reference_qfunc_inv,
    reference_qfunc_mul,
    reference_qfunc_neg,
    schoolbook_mul,
)

QQ = RationalField()
C8 = CyclotomicField(8)
FQ = RationalFunctionField()


def _afresh(field):
    """A field equal to ``field`` but not the same object, built by its
    constructor."""
    return CyclotomicField(field.order) if field.kind == "cyclotomic" else field.__class__()


def random_scalar(rng, field, nonzero=False):
    while True:
        if field.kind == "rational":
            x = field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        elif field.kind == "cyclotomic":
            x = field.zero()
            for k in range(field.degree):
                x = x + field.zeta(k) * Fraction(rng.randint(-3, 3))
        else:
            x = field.zero()
            for k in range(3):
                x = x + field.q(k) * Fraction(rng.randint(-3, 3))
            if rng.random() < 0.4:
                x = x * field.q(-1)
        if not (nonzero and x.is_zero()):
            return x


@pytest.mark.parametrize("field", [QQ, C8, FQ], ids=lambda f: f.kind)
def test_field_axioms_random(field):
    rng = random.Random(20240817)
    one = field.one()
    for _ in range(1000):
        a, b, c = (random_scalar(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inverse() == one


def test_scalar_variant_mixing_is_an_error():
    with pytest.raises(FieldMismatchError):
        QQ.one() + C8.one()
    with pytest.raises(FieldMismatchError):
        FQ.q() * C8.zeta()
    c5 = CyclotomicField(5)
    for x, y in ((C8.zeta(), c5.zeta()), (QQ.from_int(2), FQ.q()), (FQ.q(), QQ.from_int(2))):
        for op in (lambda a, b: a + b, lambda a, b: a * b,
                   lambda a, b: a - b, lambda a, b: a / b):
            with pytest.raises(FieldMismatchError):
                op(x, y)


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # product over divisors reassembles x^n - 1
    for n in (6, 10, 12):
        product = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul(product, cyclotomic_poly(d))
        assert product == (-1,) + (0,) * (n - 1) + (1,)


def test_poly_mul_by_a_single_term_matches_the_schoolbook_product():
    """A single-term side c q^k, k up to 40, times dense, sparse and
    single-term sides equals the schoolbook product in both argument
    orders, whichever side the outer loop runs over."""
    rng = random.Random(20261020)
    for k in range(41):
        for c in (1, -3, Fraction(2, 5)):
            term = (0,) * k + (c,)
            others = [(7,), (0, 0, -1), (1, 2, 3), term,
                      tuple(rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(12)) + (5,),
                      tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 9))) + (1,)]
            for other in others:
                want = schoolbook_mul(term, other)
                assert poly_mul(term, other) == want, (k, c, other)
                assert poly_mul(other, term) == want, (k, c, other)


@pytest.mark.parametrize("orders", [range(1, 129), (210, 360, 420, 512)],
                         ids=["1-128", "large"])
def test_cyclotomic_poly_matches_the_fraction_division(orders):
    for n in orders:
        got = cyclotomic_poly(n)
        assert got == fraction_cyclotomic_poly(n), n
        assert all(type(c) is int for c in got)


def test_cyclotomic_poly_refuses_a_remainder(monkeypatch):
    # Phi_4 = x^2 + 1 does not divide x^6 - 1: handed in for Phi_3, whose
    # place it takes among the divisors of 6, it must leave the guard to fire
    real = scalar.cyclotomic_poly.__wrapped__

    def wrong(n):
        return (1, 0, 1) if n == 3 else real(n)

    monkeypatch.setattr(scalar, "cyclotomic_poly", wrong)
    with pytest.raises(ArithmeticError, match="remainder"):
        real(6)


def test_cyclotomic_inverse_and_power_basis():
    z = C8.zeta()
    assert z**8 == C8.one()
    x = C8.one() + z + z**3
    assert x * x.inverse() == C8.one()
    assert len(C8.coefficients(x.data)) == C8.degree


# -- the Q(zeta_N) kernel against the Fraction-divmod reference --------------
#
# Tests speak of an element through two forms: its ``coefficients``, the
# ``degree`` exact rationals (``int`` when integral, else ``Fraction``), and
# its data, ``degree`` ints over one positive denominator with no common
# factor. ``_pack`` turns the first into the second independently of the
# kernel.

CYCLOTOMIC_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)


def _pack(values):
    """The canonical data of the exact rational entries ``values``."""
    values = [Fraction(c) for c in values]
    den = math.lcm(*(c.denominator for c in values))
    return tuple(int(c * den) for c in values) + (den,)


def _assert_canonical(field, data):
    assert len(data) == field.degree + 1
    assert all(type(c) is int for c in data)
    assert data[-1] > 0
    assert math.gcd(*data) == 1
    for c in field.coefficients(data):
        assert type(c) in (int, Fraction)
        assert (type(c) is int) == (Fraction(c).denominator == 1)


entries = st.one_of(st.integers(-9, 9), st.sampled_from([0, 0, 1, -1]),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6))


def _canonical(values):
    return tuple(c.numerator if c.denominator == 1 else c for c in map(Fraction, values))


@st.composite
def cyclotomic_pairs(draw):
    """A field and two of its elements in canonical form, with a mix of
    zero, int and Fraction entries."""
    field = CyclotomicField(draw(st.sampled_from(CYCLOTOMIC_ORDERS)))
    vectors = st.lists(entries, min_size=field.degree, max_size=field.degree).map(_canonical)
    return field, draw(vectors), draw(vectors)


@settings(max_examples=400, deadline=None)
@given(cyclotomic_pairs(), entries)
def test_cyclotomic_kernel_matches_reference(case, r):
    """Every kernel operation gives the reference's value in canonical data:
    products by the Fraction remainder, sums and negatives entry by entry,
    and the inverse as the element whose reference product with a is one."""
    field, a, b = case
    pa, pb = _pack(a), _pack(b)
    zero = (0,) * field.degree
    total = tuple(Fraction(x) + Fraction(y) for x, y in zip(a, b))
    cases = [
        (field._mul(pa, pb), reference_cyclotomic_mul(field, a, b)),
        (field._add(pa, pb), total),
        (field._neg(pa), tuple(-Fraction(c) for c in a)),
        (field._add(pa, field._neg(pa)), zero),
        (field._mul(field._add(pa, pb), pa), reference_cyclotomic_mul(field, total, a)),
        (field.from_fraction(r).data, (Fraction(r),) + zero[1:]),
    ]
    if any(a):
        inverse = field._inv(pa)
        assert (reference_cyclotomic_mul(field, a, field.coefficients(inverse))
                == field.coefficients(field.one().data))
        _assert_canonical(field, inverse)
    for got, want in cases:
        assert field.coefficients(got) == want
        _assert_canonical(field, got)
    assert field._is_zero(pa) == (not any(a))
    if not any(a):
        with pytest.raises(NotInvertibleError):
            field._inv(pa)


# -- the per-field product and inverse memos -----------------------------------


# Q(zeta_3), Q(zeta_4) and Q(zeta_6) share the degree-2 data layout, and
# Q(zeta_5), Q(zeta_8) and Q(zeta_12) the degree-4 one, so one pool of data
# tuples per degree feeds every field of that degree.
MEMO_ORDERS = (3, 4, 5, 6, 8, 12)
MEMO_TWINS = {3: (3, 6), 6: (6, 3)}
MEMO_LIMIT = 4


def _assert_memos_hold_kernel_results(field):
    assert len(field._products) <= MEMO_LIMIT
    assert len(field._inverses) <= MEMO_LIMIT
    for (a, b), product in field._products.items():
        assert product == field._mul_kernel(a, b)
    for a, inverse in field._inverses.items():
        assert inverse == field._inv_kernel(a)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cyclotomic_memo_matches_parent_kernels(monkeypatch, data):
    """a*b, b*a and a^-1 through the memos equal the data of the kernels
    they cache, over fields that share data tuples, with the limit lowered
    so that misses clear the memos."""
    monkeypatch.setattr(scalar, "_CYCLOTOMIC_MEMO_LIMIT", MEMO_LIMIT)
    fields = {n: CyclotomicField(n) for n in MEMO_ORDERS}
    pools = {
        deg: data.draw(st.lists(st.lists(entries, min_size=deg, max_size=deg)
                                .map(_canonical).map(_pack), min_size=5, max_size=5))
        for deg in (2, 4)
    }
    steps = data.draw(st.lists(st.tuples(st.sampled_from(MEMO_ORDERS), st.integers(0, 4),
                                         st.integers(0, 4)), min_size=1, max_size=30))
    for order, i, j in steps:
        # the twin runs right after on the same tuples: a memo shared across
        # fields would hand it the other field's product
        for n in MEMO_TWINS.get(order, (order,)):
            field = fields[n]
            a, b = pools[field.degree][i], pools[field.degree][j]
            assert field._mul(a, b) == field._mul_kernel(a, b)
            assert field._mul(b, a) == field._mul_kernel(b, a)
            if field._is_zero(a):
                with pytest.raises(NotInvertibleError):
                    field._inv(a)
            else:
                assert field._inv(a) == field._inv_kernel(a)
            assert len(field._products) <= MEMO_LIMIT
            assert len(field._inverses) <= MEMO_LIMIT
    for field in fields.values():
        _assert_memos_hold_kernel_results(field)


def test_cyclotomic_memo_is_cleared_at_its_limit(monkeypatch):
    monkeypatch.setattr(scalar, "_CYCLOTOMIC_MEMO_LIMIT", MEMO_LIMIT)
    field = CyclotomicField(8)
    powers = [field.zeta(k).data for k in range(7)]
    for i in range(7):
        assert field._inv(powers[i]) == field.zeta(-i).data
        for j in range(i, 7):
            # b*a reads the entry of a*b: the key puts the smaller tuple first
            assert field._mul(powers[i], powers[j]) == field.zeta(i + j).data
            assert field._mul(powers[j], powers[i]) == field.zeta(i + j).data
            assert len(field._products) <= MEMO_LIMIT
            assert len(field._inverses) <= MEMO_LIMIT
    _assert_memos_hold_kernel_results(field)
    # a miss that finds the memo full clears it before storing: after 28
    # distinct products a memo of 4 holds the last 27 % 4 + 1, after 7
    # distinct inverses the last 6 % 4 + 1
    assert len(field._products) == 4
    assert len(field._inverses) == 3


def test_cyclotomic_inverse_by_norm_at_a_large_order():
    # N(2 + zeta_97) = Phi_97(-2), since Phi_97 has even degree 96
    field = CyclotomicField(97)
    x = field.zeta() + 2
    inverse = x.inverse()
    assert inverse.data[-1] == (2**97 + 1) // 3
    assert (x * inverse).is_one()
    _assert_canonical(field, inverse.data)


@pytest.mark.parametrize("order", [3, 4, 5, 8, 12, 126])
def test_single_term_cyclotomic_inverse_matches_the_norm_route(order):
    # c zeta^i / d for every i < phi(N): the inverse read off the fold table
    # equals the Galois-norm inverse, the route every other element takes
    field = CyclotomicField(order)
    one = field.one().data
    for i in range(field.degree):
        for c in (1, -1, 2, -2, 3, -3):
            for d in (1, 2):
                a = field._normal([c if k == i else 0 for k in range(field.degree)] + [d])
                assert a.count(0) == len(a) - 2
                inverse = field._inv_kernel(a)
                assert inverse == field._norm_inverse(a)
                assert field._mul_kernel(a, inverse) == one
                _assert_canonical(field, inverse)


def test_cyclotomic_fold_table_against_divmod():
    for n in range(1, 41):
        phi = cyclotomic_poly(n)
        deg = len(phi) - 1
        table = cyclotomic_fold_table(n)
        assert len(table) == max(n, 2 * deg - 1)
        for k, row in enumerate(table):
            _, rem = poly_divmod((0,) * k + (1,), phi)
            assert row == tuple(rem) + (0,) * (deg - len(rem))
            assert all(type(c) is int for c in row)
    for n in CYCLOTOMIC_ORDERS:
        field = CyclotomicField(n)
        for k in range(-2 * n, 2 * n + 1):
            _, rem = poly_divmod((0,) * (k % n) + (1,), field.modulus)
            zeta = field.zeta(k).data
            assert field.coefficients(zeta) == tuple(rem) + (0,) * (field.degree - len(rem))
            _assert_canonical(field, zeta)
            assert zeta[-1] == 1


def test_cyclotomic_data_is_int_when_integral():
    z = C8.zeta()
    assert C8.coefficients(C8.one().data) == (1, 0, 0, 0)
    assert C8.one().data == (1, 0, 0, 0, 1)
    assert C8.zero().data == (0, 0, 0, 0, 1)
    assert all(type(c) is int for c in C8.coefficients((z**5 + 3 * z).data))
    assert (z**5 + 3 * z).data == (0, 2, 0, 0, 1)
    half = C8.from_fraction(Fraction(1, 2))
    assert C8.coefficients(half.data) == (Fraction(1, 2), 0, 0, 0)
    assert half.data == (1, 0, 0, 0, 2)
    for x in (half + half, half * 2, half - half, half * half.inverse()):
        assert all(type(c) is int for c in C8.coefficients(x.data))
        assert x.data[-1] == 1
        _assert_canonical(C8, x.data)
    # equal values reached through different denominators share data and hash
    three = C8.from_int(3)
    for x in (C8.from_fraction(Fraction(3, 4)) * 4, half + C8.from_fraction(Fraction(5, 2)),
              (z * Fraction(1, 6)) * (z**7 * 18)):
        assert x.data == three.data == (3, 0, 0, 0, 1)
        assert hash(x) == hash(three)


def _sympy_cyclotomic(sympy, x, n, data):
    phi = sympy.cyclotomic_poly(n, x, polys=True)
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in map(Fraction, reversed(data))], x, domain="QQ").rem(phi)


@settings(max_examples=80, deadline=None)
@given(cyclotomic_pairs())
def test_cyclotomic_arithmetic_against_sympy(case):
    import sympy
    x = sympy.Symbol("x")
    field, a, b = case
    n = field.order
    a, b = Scalar(field, _pack(a)), Scalar(field, _pack(b))

    def expr(y):
        return _sympy_cyclotomic(sympy, x, n, field.coefficients(y.data))

    ea, eb = expr(a), expr(b)
    phi = sympy.cyclotomic_poly(n, x, polys=True)
    assert expr(a * b) == (ea * eb).rem(phi)
    assert expr(a + b) == (ea + eb).rem(phi)
    if a:
        assert expr(a.inverse()) == ea.invert(phi)


def test_cyclotomic_poly_against_sympy():
    import sympy
    x = sympy.Symbol("x")
    for n in range(1, 41):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(int(c) for c in want)


def test_rational_function_normalization():
    q = FQ.q()
    assert (q**2 - 1) / (q - 1) == q + 1
    x = (q**2 - 1) / (2 * q + 2)
    assert x.data == (0, (-1, 1), (2,))  # (q-1)/2, reduced and content-split
    assert (q / 2 + 1).data == (0, (2, 1), (2,))
    assert (q**3 / (2 * q + 4)).data == (3, (1,), (4, 2))
    assert (q**-2 - q**-1).data == (-2, (1, -1), (1,))
    assert FQ.q(-3) * FQ.q(3) == FQ.one()
    assert FQ.zero().data == (0, (), (1,)) and FQ.one().data == (0, (1,), (1,))


def test_qfunc_powers_of_q_have_one_coefficient_sides():
    """q^k keeps its power apart: the sides of q**256 and q**-256 stay one
    coefficient long."""
    assert (FQ.q() ** 256).data == FQ.q(256).data == (256, (1,), (1,))
    assert (FQ.q() ** -256).data == FQ.q(-256).data == (-256, (1,), (1,))
    assert (FQ.q(-256) * 3 * FQ.q(256)).data == (0, (3,), (1,))


# -- the (v, num, den) layout against the parent's (num, den) data -----------
#
# The references below keep the parent's layout, (num, den) with the power of
# q inside one side: zero is ((), (1,)) and q^-2 is ((1,), (0, 0, 1)). The
# kernels are compared with them through one adapter pair.


def _qfunc_new(data):
    """``(num, den)`` data in the library's ``(v, num, den)`` layout: the
    low zeros of each side move into the valuation v."""
    num, den = data
    if not num:
        return (0, (), (1,))
    low_num = next(k for k, c in enumerate(num) if c)
    low_den = next(k for k, c in enumerate(den) if c)
    return (low_num - low_den, num[low_num:], den[low_den:])


def _qfunc_old(data):
    """``(v, num, den)`` data in the parent's ``(num, den)`` layout: q^v
    joins the numerator for v > 0 and the denominator for v < 0."""
    v, num, den = data
    if v >= 0:
        return ((0,) * v + num, den)
    return (num, (0,) * -v + den)


def _assert_qfunc_canonical(data):
    """``data`` is canonical ``(v, num, den)`` data: int entries, q divides
    neither side, the sides are coprime with content 1 and ``den`` leads
    positive, and zero is ``(0, (), (1,))``."""
    v, num, den = data
    assert type(v) is int and type(num) is tuple and type(den) is tuple
    assert all(type(c) is int for c in num + den)
    if not num:
        assert data == (0, (), (1,))
        return
    assert num[0] and num[-1] and den[0] and den[-1] > 0
    assert math.gcd(*num, *den) == 1
    assert len(reference_gcd(num, den)) == 1


def _qfunc_kernel(name, *operands):
    """``FQ``'s kernel ``name`` on ``(num, den)`` operands: its result is
    checked canonical and returned as ``(num, den)``."""
    out = getattr(FQ, name)(*map(_qfunc_new, operands))
    _assert_qfunc_canonical(out)
    return _qfunc_old(out)


def test_qfunc_layout_adapter_round_trips():
    for data, want in [(((), (1,)), (0, (), (1,))), (((1,), (1,)), (0, (1,), (1,))),
                       (((0, 0, 3), (1, 1)), (2, (3,), (1, 1))),
                       (((1, 1), (0, 0, 0, 2)), (-3, (1, 1), (2,)))]:
        assert _qfunc_new(data) == want and _qfunc_old(want) == data == FQ.quotient(want)


# -- the Q(q) reducer against the Fraction-Euclid reference ------------------


int_polys = st.lists(st.integers(-12, 12), max_size=6).map(_trim)
nonzero_polys = int_polys.filter(bool)
single_terms = st.builds(lambda k, c: (0,) * k + (c,), st.integers(0, 4),
                         st.integers(-9, 9).filter(bool))


@st.composite
def quotients(draw):
    """(num, den) of one of the shapes the reducer and the kernels branch on
    (a single-term denominator, single terms on both sides, general, a
    planted common factor, zero), times a planted common factor c*q^k that
    the reducer must cancel."""
    shape = draw(st.sampled_from(["monomial", "term", "general", "planted", "zero"]))
    num = () if shape == "zero" else draw(single_terms if shape == "term" else int_polys)
    if shape in ("monomial", "term"):
        den = draw(single_terms)
    else:
        den = draw(nonzero_polys)
    if shape == "planted":
        factor = draw(nonzero_polys)
        num, den = poly_mul(num, factor), poly_mul(den, factor)
    common = (0,) * draw(st.integers(0, 3)) + (draw(st.integers(-6, 6).filter(bool)),)
    return poly_mul(num, common), poly_mul(den, common)


two_term_polys = nonzero_polys.filter(lambda p: len(p) - p.count(0) >= 2)


@st.composite
def quotient_pairs(draw):
    """Two canonical operands reduced from ``quotients()``, often linked so
    that every path of the kernels is drawn:

    * ``same-den``: ``b`` is given ``a``'s denominator;
    * ``cancel``: ``b`` is bn - a over it (bn read as a polynomial), whose
      sum with ``a`` cancels down to bn;
    * ``negate``: ``b`` is -a, a sum that cancels to zero (canonical
      operands with different denominators never sum to zero);
    * ``inverse``: ``b`` is +-1/a, whose cross pairs with ``a`` are equal
      up to sign;
    * ``cross``: a planted factor joins ``a``'s numerator and ``b``'s
      denominator, a cross pair that needs a gcd;
    * ``monomial``: ``b`` is c*q^k/d, its power of q in the numerator for
      k > 0 and in the denominator for k < 0, a single-term factor of the
      product and a single-term denominator of the sum;
    * ``shared-factor``: a planted factor of two or more terms joins both
      denominators, so gcd(ad, bd) != 1 in the sum;
    * ``shared-q``: both denominators gain a power of q, the only factor
      they may then share;
    * ``sum-to``: ``b`` is c - a for a drawn c, so the sum cancels the
      least common denominator down to c's: gcd(t, g) != 1 in Henrici's
      addition;
    * ``single-terms``: ``a`` and ``b`` are c*q^e/d and c'*q^e'/d' with e
      and e' in -4..4, at equal exponents, at different ones, or with
      b = -a: the sum of four single-term sides."""
    (an, ad), (bn, bd) = draw(quotients()), draw(quotients())
    link = draw(st.sampled_from(["none", "same-den", "cancel", "negate", "inverse", "cross",
                                 "monomial", "shared-factor", "shared-q", "sum-to",
                                 "single-terms"]))
    if link == "single-terms":
        exps = st.integers(-4, 4)
        e, c, d = draw(exps), draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))
        kind = draw(st.sampled_from(["equal", "different", "cancel"]))
        if kind == "cancel":
            e2, c2, d2 = e, -c, d
        else:
            e2 = e if kind == "equal" else draw(exps.filter(lambda k: k != e))
            c2, d2 = draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))
        return tuple(qfunc_make((0,) * max(k, 0) + (num,), (0,) * max(-k, 0) + (den,))
                     for k, num, den in ((e, c, d), (e2, c2, d2)))
    if link == "cross":
        factor = draw(nonzero_polys)
        an, bd = poly_mul(an, factor), poly_mul(bd, factor)
    elif link == "shared-factor":
        factor = draw(two_term_polys)
        ad, bd = poly_mul(ad, factor), poly_mul(bd, factor)
    elif link == "shared-q":
        ad = (0,) * draw(st.integers(1, 3)) + ad
        bd = (0,) * draw(st.integers(1, 3)) + bd
    elif link == "monomial":
        shift = draw(st.integers(-4, 4))
        c, d = draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))
        bn, bd = (0,) * max(shift, 0) + (c,), (0,) * max(-shift, 0) + (d,)
        # low zeros for the shift to cancel against: in a's denominator for
        # q^k, k > 0, in its numerator for q^-k
        low = (0,) * draw(st.integers(0, 3))
        an, ad = (an, low + ad) if shift > 0 else (low + an, ad)
    elif link == "sum-to":
        an, ad = draw(nonzero_polys), draw(two_term_polys)
    a = qfunc_make(an, ad)
    if link == "same-den":
        bd = a[1]
    elif link == "cancel":
        bn, bd = poly_add(poly_mul(bn, a[1]), poly_neg(a[0])), a[1]
    elif link == "negate":
        bn, bd = poly_neg(a[0]), a[1]
    elif link == "inverse" and a[0]:
        bn, bd = poly_mul(a[1], draw(st.sampled_from([(1,), (-1,)]))), a[0]
    elif link == "sum-to":
        bn, bd = poly_add(poly_mul(bn, a[1]), poly_neg(poly_mul(a[0], bd))), poly_mul(bd, a[1])
    return a, qfunc_make(bn, bd)


@settings(max_examples=1500, deadline=None)
@given(quotients())
def test_qfunc_reducer_matches_reference(pair):
    num, den = pair
    got = qfunc_make(num, den)
    assert got == reference_make(num, den)
    rnum, rden = got
    assert all(type(c) is int for c in rnum + rden)
    assert rden and rden[-1] > 0
    assert math.gcd(*rnum, *rden) == 1
    assert len(reference_gcd(rnum, rden)) == 1 or not rnum
    assert poly_mul(rnum, den) == poly_mul(num, rden)


def test_qfunc_reducer_examples():
    assert qfunc_make((0, 0, -2), (0, -4)) == ((0, 1), (2,))
    assert qfunc_make((), (0, -3)) == ((), (1,))
    assert qfunc_make((0, -1, 0, 1), (0, 1, 1)) == ((-1, 1), (1,))  # (q^3-q)/(q^2+q)
    assert qfunc_make((6, 6), (-4, 0, 4)) == ((3,), (-2, 2))
    assert qfunc_make((1, 1), (0, 0, 3)) == ((1, 1), (0, 0, 3))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(quotient_pairs())
def test_qfunc_kernels_match_reference(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        assert _qfunc_kernel("_add", x, y) == reference_qfunc_add(x, y)
        assert _qfunc_kernel("_mul", x, y) == reference_qfunc_mul(x, y)
        assert _qfunc_kernel("_neg", x) == reference_qfunc_neg(x)
        if x[0]:
            assert _qfunc_kernel("_inv", x) == reference_qfunc_inv(x)


@pytest.mark.parametrize("op, a, b, want", [
    # in the (num, den) layout of the references, read through the adapter.
    # A single-term factor: its power of q is the valuation, added apart
    ("mul", ((0, 0, 1), (1,)), ((1, 1), (0, 2, 1)), ((0, 1, 1), (2, 1))),
    ("mul", ((1,), (0, 0, 1)), ((0, 1, 1), (1, 2)), ((1, 1), (0, 1, 2))),
    # ... and the integer content: 2/3 * (3q + 3)/(2q + 1)
    ("mul", ((2,), (3,)), ((3, 3), (1, 2)), ((2, 2), (1, 2))),
    ("mul", ((-1,), (1,)), ((1, 1), (0, 2, 1)), ((-1, -1), (0, 2, 1))),
    # a single-term denominator: 1/q + 1/(q^2 + q) = (q + 2)/(q^2 + q)
    ("add", ((1,), (0, 1)), ((1,), (0, 1, 1)), ((2, 1), (0, 1, 1))),
    # denominators sharing only q: 1/(q(q+1)) + 1/(q^2(q+2))
    ("add", ((1,), (0, 1, 1)), ((1,), (0, 0, 2, 1)), ((1, 3, 1), (0, 0, 2, 3, 1))),
    # g = q - 1 and gcd(t, g) = q - 1:
    # 1/((q-1)(q+1)) - 3/(2(q-1)(q+2)) = -1/(2(q+1)(q+2))
    ("add", ((1,), (-1, 0, 1)), ((-3,), (-4, 2, 2)), ((-1,), (4, 6, 2))),
    # coprime multi-term denominators: 1/(q+1) + 1/(q+2)
    ("add", ((1,), (1, 1)), ((1,), (2, 1)), ((3, 2), (2, 3, 1))),
    # four single-term sides at one exponent: q/2 + q/3 = 5q/6, and
    # 3/(2q) - 3/(2q) = 0
    ("add", ((0, 1), (2,)), ((0, 1), (3,)), ((0, 5), (6,))),
    ("add", ((3,), (0, 2)), ((-3,), (0, 2)), ((), (1,))),
    # ... at two exponents: 1/q + q/2 = (q^2 + 2)/(2q), and the content of
    # 2q^2/3 + 4/3 = (2q^2 + 4)/3
    ("add", ((1,), (0, 1)), ((0, 1), (2,)), ((2, 0, 1), (0, 2))),
    ("add", ((0, 0, 2), (3,)), ((4,), (3,)), ((4, 0, 2), (3,))),
    # equal valuations whose constant terms cancel, so the sum gains a power
    # of q: (q + 1)/(q + 2) - 1/(q + 2) = q/(q + 2), 1/(q + 1) - 1/(2q + 1)
    # = q/((q + 1)(2q + 1)), and through g = q + 1:
    # 2/((q+1)(q+2)) - 3/((q+1)(q+3)) = -q/((q+1)(q+2)(q+3))
    ("add", ((1, 1), (2, 1)), ((-1,), (2, 1)), ((0, 1), (2, 1))),
    ("add", ((1,), (1, 1)), ((-1,), (1, 2)), ((0, 1), (1, 3, 2))),
    ("add", ((2,), (2, 3, 1)), ((-3,), (3, 4, 1)), ((0, -1), (6, 11, 6, 1))),
])
def test_qfunc_kernel_paths(op, a, b, want):
    assert _qfunc_kernel(f"_{op}", a, b) == _qfunc_kernel(f"_{op}", b, a) == want


constants = st.integers(-9, 9).filter(bool)
multi_term_sides = st.builds(lambda c, rest: (c,) + rest, constants,
                             st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(_trim)
                             ).filter(lambda p: len(p) > 1)


@st.composite
def qfunc_values(draw):
    """Canonical ``(v, num, den)`` data with v in -6..6 and each side one of
    the shapes ``format_scalar`` branches on: +-1, another constant, or
    two or more terms."""
    v = draw(st.integers(-6, 6))
    num = draw(st.one_of(st.sampled_from([(1,), (-1,)]), constants.map(lambda c: (c,)),
                         multi_term_sides))
    den = draw(st.one_of(st.just((1,)), st.integers(2, 9).map(lambda d: (d,)),
                         multi_term_sides))
    return _content_free(v, *_coprime(num, den))


def _assert_prints_as_parent(data):
    x = Scalar(FQ, data)
    assert format_scalar(x) == reference_format_qfunc(_qfunc_old(data)), data


@settings(max_examples=600, deadline=None)
@given(qfunc_values())
def test_qfunc_printing_matches_parent(data):
    _assert_prints_as_parent(data)


@pytest.mark.parametrize("data, text", [
    ((0, (), (1,)), "0"),
    ((-3, (1,), (1,)), "q^-3"),
    ((-2, (-1,), (1,)), "-q^-2"),
    ((-1, (3,), (1,)), "3*q^-1"),
    ((-1, (1,), (2,)), "1*(2*q)^-1"),
    ((-1, (-1, 1), (1,)), "(-1 + q)*q^-1"),
    ((2, (1, 1), (3,)), "1/3*q^2 + 1/3*q^3"),
    ((1, (1,), (1, 1)), "q*(1 + q)^-1"),
])
def test_qfunc_printing_shapes(data, text):
    """Shapes the cli goldens pin: q^-k alone and signed, a power of q
    under a constant denominator, and the ``1*(2*q)^-1`` of a valuation
    below a constant other than 1."""
    _assert_qfunc_canonical(data)
    assert format_scalar(Scalar(FQ, data))[0] == text
    _assert_prints_as_parent(data)


def _sympy_canonical(sympy, q, expr):
    """Canonical (num, den) tuples of a rational function reduced by sympy."""
    num, den = sympy.cancel(expr).as_numer_denom()
    polys = [sympy.Poly(part, q, domain="QQ").all_coeffs()[::-1] for part in (num, den)]
    if not any(polys[0]):
        return ((), (1,))
    scale = math.lcm(*(int(c.q) for c in polys[0] + polys[1]))
    ints = [[int(c * scale) for c in part] for part in polys]
    g = math.gcd(*ints[0], *ints[1]) * (1 if ints[1][-1] > 0 else -1)
    return tuple(tuple(c // g for c in part) for part in ints)


@settings(max_examples=150, deadline=None)
@given(quotient_pairs())
def test_qfunc_arithmetic_against_sympy(pair):
    import sympy
    q = sympy.Symbol("q")

    def expr(coeffs):
        return sum((c * q**k for k, c in enumerate(coeffs)), sympy.Integer(0))

    a, b = (Scalar(FQ, _qfunc_new(data)) for data in pair)
    ea, eb = (expr(num) / expr(den) for num, den in pair)
    for got, want in ((a + b, ea + eb), (a * b, ea * eb), (-a, -ea)):
        _assert_qfunc_canonical(got.data)
        assert _qfunc_old(got.data) == _sympy_canonical(sympy, q, want)
    if not a.is_zero():
        _assert_qfunc_canonical(a.inverse().data)
        assert _qfunc_old(a.inverse().data) == _sympy_canonical(sympy, q, 1 / ea)


def test_qfunc_inverse_of_zero_is_not_invertible():
    with pytest.raises(NotInvertibleError):
        FQ.zero().inverse()


# -- multiplicative order ----------------------------------------------------


def test_mul_order_identity():
    assert mul_order(QQ.one()) == 1
    assert mul_order(QQ.from_int(-1)) == 2
    assert mul_order(QQ.from_int(2)) is None


def test_mul_order_cyclotomic_oracle():
    # order of zeta_8^k is 8/gcd(k, 8): iterate-powers result must agree
    for k in range(1, 8):
        assert mul_order(C8.zeta(k)) == 8 // math.gcd(k, 8)
    assert mul_order(C8.zeta(3)) == 8
    assert mul_order(C8.from_int(-1)) == 2
    # a non-root of unity is settled within the 2N bound
    assert mul_order(C8.one() + C8.zeta()) is None


def test_mul_order_formal_parameter():
    assert mul_order(FQ.q()) is None
    assert mul_order(FQ.from_int(-1)) == 2
    assert mul_order((FQ.q() + 1) / (FQ.q() + 1)) == 1


def _order_probes():
    rng = random.Random(7102)
    yield from (QQ.one(), QQ.from_int(-1), FQ.one(), FQ.from_int(-1))
    for _ in range(60):
        yield random_scalar(rng, QQ, nonzero=True)
        yield random_scalar(rng, FQ, nonzero=True)
    for k in range(-4, 5):
        if k:
            yield FQ.q(k)
            yield -FQ.q(k)
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15):
        field = CyclotomicField(n)
        yield from (field.one(), field.from_int(-1), field.from_int(2))
        for k in range(-n, 2 * n + 1):
            yield field.zeta(k)
            yield -field.zeta(k)
        for _ in range(5):
            yield random_scalar(rng, field, nonzero=True)


def test_mul_order_matches_the_per_kind_reference():
    seen = set()
    for x in _order_probes():
        assert mul_order(x) == reference_mul_order(x), x
        seen.add(mul_order(x))
    # the probes reach infinite order and every finite order of a root of
    # unity in those fields: n and 2n for odd n, n for even n
    assert seen == {None, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 30}


def test_mul_order_zero_rejected():
    with pytest.raises(ValueError):
        mul_order(QQ.zero())
    assert format_order(None) == "infinite"
    assert format_order(6) == "6"


# -- Gaussian binomials -------------------------------------------------------


def test_q_binomial_basic():
    q = FQ.q()
    assert q_binomial(2, 1, q) == 1 + q
    assert q_binomial(4, 2, q) == 1 + q + 2 * q**2 + q**3 + q**4


def _binomial_by_factorials(n, i):
    """Independent oracle: divide the factorial polynomials exactly."""
    num = (1,)
    for k in range(1, n + 1):
        num = poly_mul(num, (1,) * k)
    den = (1,)
    for k in range(1, i + 1):
        den = poly_mul(den, (1,) * k)
    for k in range(1, n - i + 1):
        den = poly_mul(den, (1,) * k)
    quo, rem = poly_divmod(num, den)
    assert not rem
    return tuple(int(c) for c in quo)


@pytest.mark.parametrize("n,i", [(4, 2), (5, 2), (6, 3), (7, 4)])
def test_q_binomial_against_factorial_oracle(n, i):
    assert gaussian_binomial_poly(n, i) == _binomial_by_factorials(n, i)


def test_q_binomial_nonnegative_coefficients():
    for n in range(13):
        for i in range(n + 1):
            assert all(c >= 0 for c in gaussian_binomial_poly(n, i))


def test_pascal_recurrences_as_polynomial_identities():
    for n in range(1, 13):
        for i in range(n + 1):
            target = gaussian_binomial_poly(n, i)
            left = gaussian_binomial_poly(n - 1, i - 1) if i >= 1 else ()
            right = (
                poly_mul((0,) * i + (1,), gaussian_binomial_poly(n - 1, i))
                if i <= n - 1 else ()
            )
            assert poly_add(left, right) == target
            # the mirrored recurrence with the q^(n-i) weight
            left2 = gaussian_binomial_poly(n - 1, i) if i <= n - 1 else ()
            right2 = (
                poly_mul((0,) * (n - i) + (1,), gaussian_binomial_poly(n - 1, i - 1))
                if i >= 1 else ()
            )
            assert poly_add(left2, right2) == target


def test_root_of_unity_vanishing():
    for n in range(2, 9):
        field = CyclotomicField(n)
        zeta = field.zeta()
        for i in range(1, n):
            assert q_binomial(n, i, zeta).is_zero()
        assert q_binomial(n, 0, zeta).is_one()
        assert q_binomial(n, n, zeta).is_one()


def test_q_binomial_at_roots_of_unity_against_sympy():
    """Gaussian binomials at q = zeta_N^k, against sympy's product formula
    reduced mod Phi_N."""
    import sympy
    x = sympy.Symbol("x")
    for n in range(9):
        for i in range(n + 1):
            num = sympy.prod([1 - x ** (n - j) for j in range(i)])
            den = sympy.prod([1 - x ** (j + 1) for j in range(i)])
            quo, rem = sympy.div(sympy.Poly(num, x, domain="QQ"), sympy.Poly(den, x, domain="QQ"))
            assert rem.is_zero
            for order in (3, 4, 5, 8, 12):
                field = CyclotomicField(order)
                phi = sympy.cyclotomic_poly(order, x, polys=True)
                for k in range(order):
                    got = q_binomial(n, i, field.zeta() ** k)
                    want = quo.compose(sympy.Poly(x**k, x, domain="QQ")).rem(phi)
                    assert _sympy_cyclotomic(sympy, x, order, field.coefficients(got.data)) == want


def test_q_binomial_index_errors():
    with pytest.raises(ValueError):
        q_binomial(3, 4, FQ.q())
    with pytest.raises(ValueError):
        gaussian_binomial_poly(2, -1)


def test_eval_int_poly():
    x = QQ.from_int(3)
    assert eval_int_poly((1, 0, 2), x) == QQ.from_int(19)


# -- hat arithmetic -----------------------------------------------------------


def test_hat_examples():
    assert hat(5, None) == HatProfile(5, None, 5, 0, 5)
    assert hat(7, 3) == HatProfile(7, 3, 2, 1, 3)
    assert hat(0, 4) == HatProfile(0, 4, 0, 0, 0)
    assert hat(0, None).hat == 0
    assert hat(6, 1) == HatProfile(6, 1, 6, 0, 6)


def test_prec_examples():
    assert prec(4, 7, 3)
    assert not prec(2, 7, 3)
    for p in range(10):
        for m in range(10):
            assert prec(p, m, None) == (p <= m)
            assert prec(p, m, 1) == (p <= m)


def test_hat_rejects_negative():
    with pytest.raises(ValueError):
        hat(-1, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=30))
def test_hat_subtraction(d, m, p):
    if prec(p, m, d):
        assert hat(m - p, d).hat == hat(m, d).hat - hat(p, d).hat


def test_hat_subtraction_exhaustive():
    for d in range(1, 7):
        for m in range(31):
            for p in range(m + 1):
                if prec(p, m, d):
                    assert hat(m - p, d).hat == hat(m, d).hat - hat(p, d).hat


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_axioms_hypothesis(a, b, c):
    x, y, z = QQ.from_fraction(a), QQ.from_fraction(b), QQ.from_fraction(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert (x * x.inverse()).is_one()


def test_scalar_power_and_hash():
    z = C8.zeta()
    assert z**-3 == z**5
    assert hash(C8.zeta(2)) == hash(C8.zeta() ** 2)
    assert bool(QQ.zero()) is False
    assert QQ.from_int(7) == 7


# ---------------------------------------------------------------------------
# the Q kernel (int when integral, else Fraction) against plain Fraction


rationals = st.one_of(st.integers(-30, 30), st.sampled_from([0, 1, -1]),
                      st.fractions(min_value=-8, max_value=8, max_denominator=9))


def _assert_rational(x, value):
    """``x`` holds ``value`` in canonical form and prints like the
    all-``Fraction`` scalar did."""
    value = Fraction(value)
    assert x.field is QQ
    assert x.data == value
    assert (type(x.data) is int) == (value.denominator == 1)
    assert type(x.data) in (int, Fraction)
    assert format_scalar(x) == format_scalar(Scalar(QQ, value))


@settings(max_examples=600, deadline=None)
@given(rationals, rationals)
def test_rational_kernel_matches_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    x, y = QQ.from_fraction(a), QQ.from_fraction(b)
    _assert_rational(x, fa)
    _assert_rational(QQ.from_fraction(fa), fa)
    if fa.denominator == 1:
        _assert_rational(QQ.from_int(fa.numerator), fa)
    _assert_rational(x + y, fa + fb)
    _assert_rational(x - y, fa - fb)
    _assert_rational(-x, -fa)
    _assert_rational(x * y, fa * fb)
    _assert_rational(x + b, fa + fb)
    _assert_rational(a * y, fa * fb)
    if fb:
        _assert_rational(x / y, fa / fb)
        _assert_rational(y.inverse(), 1 / fb)
        _assert_rational(a / y, fa / fb)
    else:
        with pytest.raises(NotInvertibleError):
            y.inverse()


@pytest.mark.parametrize("field", [QQ, C8, FQ], ids=lambda f: f.kind)
def test_shared_constants(field):
    assert field.one() is field.one()
    assert field.zero() is field.zero()
    assert field.one() == field.from_int(1)
    assert field.zero() == field.from_int(0)
    with pytest.raises(AttributeError):
        field.one().data = field.zero().data
    with pytest.raises(AttributeError):
        field.zero().field = QQ
    # the cached constants leave the field's own equality and hash alone
    fresh = _afresh(field)
    assert fresh == field
    assert hash(fresh) == hash(field)


FROM_INT_FIELDS = [QQ, CyclotomicField(1), CyclotomicField(3), C8, FQ]


def _assert_from_int_matches_from_fraction(field, n):
    want = field.from_fraction(Fraction(n)).data
    got = field.from_int(n)
    assert (got.field, got.data) == (field, want)
    assert got == n and hash(got) == hash(field.from_fraction(Fraction(n)))


@pytest.mark.parametrize("field", FROM_INT_FIELDS, ids=lambda f: f.describe())
@pytest.mark.parametrize("n", [0, 1, -1, 2**70, -2**70, True, False, Fraction(3, 2),
                               Fraction(-4, 2)], ids=repr)
def test_from_int_matches_from_fraction(field, n):
    # an int takes the direct route, anything else goes through from_fraction;
    # both give the same canonical data, with int entries
    _assert_from_int_matches_from_fraction(field, n)
    data = field.from_int(n).data
    if field.kind == "rational":
        assert type(data) is (int if Fraction(n).denominator == 1 else Fraction)
    else:
        flat = data if field.kind == "cyclotomic" else (data[0], *data[1], *data[2])
        assert all(type(c) is int for c in flat)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FROM_INT_FIELDS), st.integers())
def test_from_int_matches_from_fraction_on_drawn_ints(field, n):
    _assert_from_int_matches_from_fraction(field, n)


@pytest.mark.parametrize("build", [lambda: RationalField("cyclotomic"),
                                   lambda: RationalField(kind="cyclotomic"),
                                   lambda: CyclotomicField(8, "rational"),
                                   lambda: RationalFunctionField(kind="rational")],
                         ids=["rational", "rational-keyword", "cyclotomic", "rational-function"])
def test_a_field_kind_is_not_a_constructor_argument(build):
    # kind names the class; a RationalField of kind "cyclotomic" would lack
    # the coefficients and order that the readers of kind expect
    with pytest.raises(TypeError):
        build()


def test_fields_compare_and_hash_by_class_and_data():
    assert CyclotomicField(3) != CyclotomicField(6)
    assert CyclotomicField(8) == C8 and hash(CyclotomicField(8)) == hash(C8)
    assert RationalField() == RationalField() and hash(RationalField()) == hash(QQ)
    assert RationalField() != RationalFunctionField()
    assert (QQ.kind, C8.kind, FQ.kind) == ("rational", "cyclotomic", "rational-function")


def test_a_field_is_immutable():
    with pytest.raises(AttributeError):
        C8.order = 3
    with pytest.raises(AttributeError):
        QQ.order = 3
    assert C8.order == 8 and C8 == CyclotomicField(8) and not hasattr(QQ, "order")


def test_equal_field_instances_still_mix():
    other = CyclotomicField(8)
    assert other is not C8
    x, y = C8.zeta() + C8.from_fraction(Fraction(1, 3)), other.zeta(3) * 2
    same = C8.zeta(3) * 2
    assert x + y == x + same
    assert x * y == x * same
    assert x - y == x - same
    assert x / y == x / same
    assert y * x == same * x


@pytest.mark.parametrize("field", [QQ, C8, FQ], ids=lambda f: f.kind)
def test_int_and_fraction_operands(field):
    x = field.from_fraction(Fraction(3, 4))
    if field.kind == "cyclotomic":
        x = x + field.zeta()
    elif field.kind == "rational-function":
        x = x + field.q()
    two, half = field.from_int(2), field.from_fraction(Fraction(1, 2))
    assert 2 * x == x * 2 == two * x
    assert x + 1 == 1 + x == x + field.one()
    assert x - Fraction(1, 2) == x - half
    assert Fraction(1, 2) - x == half - x
    assert 1 / x == x.inverse()
    assert x / 2 == x * half
    with pytest.raises(TypeError):
        x + "1"


# ---------------------------------------------------------------------------
# the unit short-cut of ``Scalar.__mul__`` against the field kernel


def _units(field, b):
    """Scalars equal to 1 but not the shared ``field.one()``, and the plain
    int 1; ``b`` is a nonzero element of ``field``."""
    if field.kind == "cyclotomic":
        # zeta_1 is 1 itself, and 1 ** 1 returns the shared one
        root = field.zeta() ** field.order if field.order > 1 else field.zeta()
    elif field.kind == "rational-function":
        root = field.q() * field.q() ** -1
    else:
        root = field.from_int(-1) ** 2
    units = [field.from_int(1), b * b.inverse(), root]
    for u in units:
        assert u is not field.one() and u.data == field.one().data
    return units + [1]


def _assert_unit_short_cut(a):
    """``a * u`` returns ``a`` itself, and ``u * a`` its value, for every unit
    ``u`` of ``_units``; both agree with the kernel and stay over ``a.field``."""
    field = a.field
    for u in _units(field, a if a else field.from_int(3)):
        data = u.data if isinstance(u, Scalar) else field.one().data
        want = Scalar(field, field._mul(a.data, data))
        for product in (a * u, u * a):
            assert product == want
            assert product.field is field
        assert (a * u) is a


@settings(max_examples=200, deadline=None)
@given(cyclotomic_pairs())
def test_unit_short_cut_cyclotomic(case):
    field, a, b = case
    _assert_unit_short_cut(Scalar(field, _pack(a)))
    _assert_unit_short_cut(Scalar(field, _pack(b)))


@settings(max_examples=300, deadline=None)
@given(quotients())
def test_unit_short_cut_qfunc(pair):
    _assert_unit_short_cut(Scalar(FQ, _qfunc_new(qfunc_make(*pair))))


@pytest.mark.parametrize("field", [QQ, C8, FQ], ids=lambda f: f.kind)
def test_unit_short_cut_random(field):
    rng = random.Random(20261018)
    other = _afresh(field)
    for _ in range(40):
        a = random_scalar(rng, field)
        _assert_unit_short_cut(a)
        # an equal but distinct field takes the lifting path: the product is
        # over the left factor's field, whichever factor is the unit
        u = other.one()
        want = Scalar(field, field._mul(a.data, u.data))
        assert a * u == want and (a * u).field is field
        assert u * a == want and (u * a).field is other


# ---------------------------------------------------------------------------
# powers from the base and the same-field equality path


@pytest.mark.parametrize("field", [QQ, C8, FQ], ids=lambda f: f.kind)
def test_powers_start_from_the_base(monkeypatch, field):
    """x**k equals the loop from one in data and field, takes |k| - 1
    products, none of them by the unit, and returns x itself for k = 1."""
    rng = random.Random(20261019)
    mul = Scalar.__mul__
    calls = []

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    for _ in range(20):
        x = random_scalar(rng, field, nonzero=True)
        for k in range(-4, 5):
            want = loop_power(x, k)
            monkeypatch.setattr(Scalar, "__mul__", counted)
            calls.clear()
            got = x**k
            monkeypatch.setattr(Scalar, "__mul__", mul)
            assert got == want and got.data == want.data and got.field is field, k
            assert len(calls) == max(abs(k) - 1, 0), k
            assert all(c is not field.one() for c in calls), k
        assert x**1 is x
        assert x**0 is field.one()
    assert field.zero() ** 3 == field.zero()


@pytest.mark.parametrize("field", [QQ, C8, FQ], ids=lambda f: f.kind)
def test_equality_over_one_field_object_matches_the_general_path(field):
    """``==`` with a Scalar over the same field object agrees with the
    comparison over an equal but distinct field instance, and with the
    ``int``/``Fraction`` path."""
    rng = random.Random(20261019)
    other = _afresh(field)
    xs = [random_scalar(rng, field) for _ in range(30)] + [field.one(), field.zero()]
    for x in xs:
        for y in xs:
            same = x == y
            assert same == (Scalar(other, y.data) == x) == (x.data == y.data)
        for n in (0, 1, 2, Fraction(1, 2)):
            assert (x == n) == (x.data == field.from_fraction(n).data)
        assert x != "x"
