"""The references of the test suite, one per fast path of the library:
the general path that the fast path short-cuts, or an independent route to
the same value, never an earlier copy of the fast path. The one-line
docstring of each reference opens with the library function it stands
for. Loops "on Scalars" read raw coefficients as ``Scalar`` objects, so
they share no kernel short-cut with the containers they check.
``CallCounter`` counts calls for the pinned operation counts.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from abhk.ambicore import AmbiElement, Tensor, _flatten
from abhk.basehopf import (
    BaseElement,
    base_antipode,
    base_delta,
    combine,
    invert_element,
    is_grouplike,
)
from abhk.coradical import _grouplike_power
from abhk.errors import AutomorphismError, CharacterError, NotInvertibleError
from abhk.exprparse import Mul, Name, Neg, Num, ParseError, Pow, Sum, _poly_text
from abhk.scalar import (
    CyclotomicField,
    RationalFunctionField,
    Scalar,
    _content_free,
    _coprime,
    _trim,
    poly_add,
    poly_mul,
    poly_neg,
    q_binomial,
)

from conftest import scalars


class CallCounter(dict):
    """Calls of the functions that ``patch`` wraps, tallied per key."""

    def __init__(self, monkeypatch, *keys):
        super().__init__(dict.fromkeys(keys, 0))
        self._monkeypatch = monkeypatch

    def patch(self, owner, attr, key):
        fn = getattr(owner, attr)

        def wrapper(*args):
            self[key] += 1
            return fn(*args)
        self._monkeypatch.setattr(owner, attr, wrapper)


def _raw(mapping: dict) -> dict:
    """Scalar values as the raw data a container holds, in dict order."""
    return {k: c.data for k, c in mapping.items()}


def _combine_scalars(terms, out: dict | None = None) -> dict:
    """The library's ``combine`` on Scalar values: a key whose sum is zero
    is dropped and comes back last."""
    if out is None:
        out = {}
    for key, c in terms:
        s = out.get(key)
        if s is not None:
            c = s + c
        if c.is_zero():
            out.pop(key, None)
        else:
            out[key] = c
    return out


# -- polynomials and scalars ------------------------------------------------------


def poly_divmod(a, b):
    """``cyclotomic_fold_table``: division with remainder in Q[x] on ``Fraction``s."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = Fraction(b[-1])
    while len(rem) >= len(b):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        factor = rem[-1] / lead
        shift = len(rem) - len(b)
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * Fraction(c)
        rem.pop()
    return _trim(quo), _trim(rem)


def _poly_primitive(a):
    """Primitive integer part of a Fraction/int polynomial, leading coeff > 0."""
    if not a:
        return ()
    lcm_den = 1
    for c in a:
        lcm_den = lcm_den * Fraction(c).denominator // math.gcd(lcm_den, Fraction(c).denominator)
    ints = [int(Fraction(c) * lcm_den) for c in a]
    g = math.gcd(*(abs(c) for c in ints))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


@functools.lru_cache(maxsize=None)
def fraction_cyclotomic_poly(n):
    """``cyclotomic_poly``: x^n - 1 divided by each Phi_d, d | n, in Q[x]."""
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            quo, rem = poly_divmod(poly, fraction_cyclotomic_poly(d))
            assert not rem
            poly = _poly_primitive(quo)
    return tuple(int(c) for c in poly)


def schoolbook_mul(a, b):
    """``poly_mul``: every coefficient pair, zeros included, then trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _trim(out)


def reference_cyclotomic_mul(field, a, b):
    """``CyclotomicField._mul``: ``poly_mul``, then the remainder by ``poly_divmod``."""
    coeffs = _trim([Fraction(c) for c in poly_mul(a, b)])
    if len(coeffs) > field.degree:
        _, coeffs = poly_divmod(coeffs, field.modulus)
    out = list(coeffs) + [Fraction(0)] * (field.degree - len(coeffs))
    return tuple(out[: field.degree])


def reference_gcd(a, b):
    """``_coprime``'s gcd: Euclid over Fraction, primitive, leading coeff > 0."""
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return _poly_primitive(a) if a else ()


def reference_make(num, den):
    """``_coprime`` and ``_content_free``: the (num, den) form by Euclid over Fraction."""
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ((), (1,))
    lcm = 1
    for c in list(num) + list(den):
        d = Fraction(c).denominator
        lcm = lcm * d // math.gcd(lcm, d)
    num = [int(Fraction(c) * lcm) for c in num]
    den = [int(Fraction(c) * lcm) for c in den]
    g = math.gcd(*num, *den)
    num = [c // g for c in num]
    den = [c // g for c in den]
    gp = reference_gcd(_trim(num), _trim(den))
    if len(gp) > 1:
        num = [int(c) for c in poly_divmod(num, gp)[0]]
        den = [int(c) for c in poly_divmod(den, gp)[0]]
        g = math.gcd(*num, *den)
        num = [c // g for c in num]
        den = [c // g for c in den]
    if den[-1] < 0:
        num = [-c for c in num]
        den = [-c for c in den]
    return (_trim(num), _trim(den))


def qfunc_make(num, den):
    """``RationalFunctionField`` kernels: a whole quotient, reduced by the library's reducer."""
    num, den = _trim(num), _trim(den)
    if not num:
        return ((), (1,))
    low = 0  # the power of q both sides share, stripped first
    while not (num[low] or den[low]):
        low += 1
    return _content_free(0, *_coprime(num[low:], den[low:]))[1:]


def reference_qfunc_add(a, b):
    """``RationalFunctionField._add``: the cross sum over the product of the sides."""
    return qfunc_make(poly_add(poly_mul(a[0], b[1]), poly_mul(b[0], a[1])), poly_mul(a[1], b[1]))


def reference_qfunc_mul(a, b):
    """``RationalFunctionField._mul``: both sides multiplied, then reduced whole."""
    return qfunc_make(poly_mul(a[0], b[0]), poly_mul(a[1], b[1]))


def reference_qfunc_inv(a):
    """``RationalFunctionField._inv``: the sides swapped, then reduced whole."""
    return qfunc_make(a[1], a[0])


def reference_qfunc_neg(a):
    """``RationalFunctionField._neg``: the numerator negated, then reduced whole."""
    return qfunc_make(poly_neg(a[0]), a[1])


def reference_format_qfunc(data):
    """``format_scalar`` over Q(q): (text, atomic) read off (num, den) data."""
    num, den = data
    if den == (1,):
        text, multi = _poly_text(num, "q")
        return text, not multi
    if len(den) == 1:
        text, multi = _poly_text([Fraction(c, den[0]) for c in num], "q")
        return text, not multi
    num_text, num_multi = _poly_text(num, "q")
    if num_multi:
        num_text = f"({num_text})"
    if len([c for c in den if c]) == 1 and den[-1] == 1:
        power = f"q^-{len(den) - 1}"
        if num_text == "1":
            return power, True
        if num_text == "-1":
            return f"-{power}", False
        return f"{num_text}*{power}", False
    den_text, _ = _poly_text(den, "q")
    return f"{num_text}*({den_text})^-1", False


def reference_mul_order(x):
    """``mul_order``: +-1 off Q(zeta_N), else the least n <= 2N with x^n = 1."""
    field = x.field
    if field.kind != "cyclotomic":
        return 1 if x.is_one() else 2 if (-x).is_one() else None
    power = x
    for n in range(1, 2 * field.order + 1):
        if power.is_one():
            return n
        power = power * x
    return None


def loop_power(x, k):
    """``Scalar.__pow__``: |k| products starting from the shared one."""
    base = x if k >= 0 else x.inverse()
    result = x.field.one()
    for _ in range(abs(k)):
        result = result * base
    return result


# -- the base algebra R -----------------------------------------------------------


def loop_base_mul(a: BaseElement, b: BaseElement, words=None) -> BaseElement:
    """``BaseElement.__mul__``: every pair of terms on Scalars, multiplied by ``words``."""
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
    return BaseElement._of(a.algebra, _raw(out))


def stated_words(base):
    """``monomial_product``: exponents add, the torsion ones mod their order."""
    one = base.field._one.data
    if base.family != "group":
        return lambda a, b: {a + b: one}

    def words(a, b):
        exps = [x + y for x, y in zip(a, b)]
        for i, order in enumerate(base.torsion):
            exps[base.rank + i] %= order
        return {tuple(exps): one}
    return words


def reference_evaluate(base, values, mono, one):
    """``BaseAlgebra.evaluate``: a factor inverted if its exponent is negative, then raised."""
    acc = one
    for name, exp in base.monomial_factors(mono):
        v = values[name]
        if exp < 0:
            v = v.inverse() if isinstance(v, Scalar) else invert_element(v)
            exp = -exp
        acc = acc * v**exp
    return acc


def loop_adjoint(y: BaseElement, a: BaseElement, left_side: bool) -> BaseElement:
    """``adjoint_left`` (y_1 a S(y_2)) and ``adjoint_right`` (S(y_1) a y_2), term by term."""
    alg = y.algebra
    acc = alg.zero()
    one = alg.field._one.data
    for (m1, m2), c in base_delta(y).coeffs.items():
        left = BaseElement._of(alg, {m1: c})
        right = BaseElement._of(alg, {m2: one})
        if left_side:
            right = base_antipode(right)
        else:
            left = base_antipode(left)
        acc = acc + left * a * right
    return acc


def loop_sigma_apply(sigma, a, power, steps):
    """``BaseAutomorphism.apply``: |power| steps through the images, by recursion."""
    # one step maps each monomial through the generator images, memoized in
    # ``steps`` under (mono, +-1)
    if power == 0 or a.is_zero():
        return a
    alg = a.algebra
    images = sigma.images if power > 0 else sigma.inverse_images
    out = alg.zero()
    for mono, c in a.coeffs.items():
        key = (mono, 1 if power > 0 else -1)
        if key not in steps:
            steps[key] = alg.evaluate(images, mono, alg.one())
        out = out + steps[key]._scale(c)
    if abs(power) > 1:
        return loop_sigma_apply(sigma, out, power - 1 if power > 0 else power + 1, steps)
    return out


# -- the rewriting engine and the tensor product -------------------------------------


def _rx(A, u: int, v: int) -> dict:
    """X+^u X-^v X+: the form of X+^u X-^(v-1) X+ times X- on the left, the
    relation applied once at the front."""
    if v == 0:
        return {(u + 1, 0): A.base.one()}
    xi_inv = A.xi_inv.data
    out = {(a, b + 1): c._scale(xi_inv) for (a, b), c in _rx(A, u, v - 1).items()}
    corr = A.sigma.apply(A.h, u - v + 1)._scale(A.field._neg(xi_inv))
    combine(A.base, (((u, v - 1), corr),), out)
    return out


def loop_word(A, m: int, n: int, p: int, q: int) -> dict:
    """``AmbiskewAlgebra._word``: X+^m X-^n X+^p X-^q by uncached recursion on p and n."""
    if n == 0 or p == 0:
        form = {(p, n): A.base.one()}
    else:
        form = combine(A.base, ((ab, c * extra)
                                for (u, v), c in loop_word(A, 0, n, p - 1, 0).items()
                                for ab, extra in _rx(A, u, v).items()))
    return {(m + u, v + q): A.sigma.apply(c, m) for (u, v), c in form.items()}


def loop_ambi_mul(a: AmbiElement, b: AmbiElement) -> AmbiElement:
    """``AmbiElement.__mul__``: words by ``loop_word``, base products by ``loop_base_mul``."""
    alg = a.algebra
    out: dict = {}
    for (m, n), x in a.coeffs.items():
        for (p, q), y in b.coeffs.items():
            coeff = loop_base_mul(x, alg.sigma.apply(y, m - n))
            for uv, c in loop_word(alg, m, n, p, q).items():
                term = loop_base_mul(coeff, c)
                s = out.get(uv)
                merged = term if s is None else s + term
                if merged.is_zero():
                    out.pop(uv, None)
                else:
                    out[uv] = merged
    return AmbiElement._of(alg, out)


def reference_leg_product(A, leg1, leg2) -> dict:
    """``AmbiskewAlgebra.leg_product``: the legs as elements of A, by ``loop_ambi_mul``."""
    def element(leg):
        mono, m, n = leg
        return AmbiElement._of(A, {(m, n): BaseElement._of(A.base, {mono: A.field.one().data})})
    return _flatten(loop_ambi_mul(element(leg1), element(leg2)))


def loop_tensor_mul(left: Tensor, right: Tensor) -> Tensor:
    """``Tensor.__mul__``: every pair of terms on Scalars, leg by leg through ``leg_product``."""
    field = left.algebra.field
    out: dict = {}
    for key1, c1 in scalars(left).items():
        for key2, c2 in scalars(right).items():
            partial = [((), c1 * c2)]
            for leg1, leg2 in zip(key1, key2):
                flat = left.algebra.leg_product(leg1, leg2)
                partial = [(key + (leg,), c * Scalar(field, d))
                           for key, c in partial for leg, d in flat.items()]
            _combine_scalars(partial, out)
    return left._new(_raw(out))


def loop_sum(x, y):
    """``Sparse.__add__``: ``combine`` on Scalars, down to the base coefficients in A."""
    if not isinstance(x, AmbiElement):
        return x._new(_raw(_combine_scalars(scalars(y).items(), scalars(x))))
    out = dict(x.coeffs)
    for mn, r in y.coeffs.items():
        s = out.get(mn)
        merged = r if s is None else loop_sum(s, r)
        if merged.coeffs:
            out[mn] = merged
        else:
            out.pop(mn, None)
    return x._new(out)


# -- leg surgery and the Hopf maps, summed by ``combine`` ----------------------------


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
    """The tensor ``combine`` sums ``terms`` into, and its count of re-inserted keys."""
    out = _Cancels()
    combine(t.algebra.field, terms, out)
    return t._new(dict(out), legs), out.reinserted


def _product(field):
    one, mul, _, _ = field._kernel
    return lambda c, d: c if d == one else d if c == one else mul(c, d)


def combine_expand_leg(t, i, fn):
    """``Tensor.expand_leg`` by ``combine``, and the count of re-inserted keys."""
    mul = _product(t.algebra.field)
    return _combined(t, ((key[:i] + ekey + key[i + 1:], mul(c, d)) for key, c in t.coeffs.items()
                         for ekey, d in fn(key[i]).coeffs.items()), t.legs + 1)


def combine_map_leg(t, i, fn):
    """``Tensor.map_leg`` by ``combine``, and the count of re-inserted keys."""
    mul = _product(t.algebra.field)
    return _combined(t, ((key[:i] + (leg,) + key[i + 1:], mul(c, d))
                         for key, c in t.coeffs.items()
                         for leg, d in _flatten(fn(key[i])).items()), t.legs)


def combine_contract_leg(t, i, fn):
    """``Tensor.contract_leg`` by ``combine``, and the count of re-inserted keys."""
    field = t.algebra.field
    mul = _product(field)
    return _combined(t, ((key[:i] + key[i + 1:], mul(c, d)) for key, c in t.coeffs.items()
                         if not field._is_zero(d := fn(key[i]).data)), t.legs - 1)


def combine_merge_legs(t, i):
    """``Tensor.merge_legs`` by ``combine``, and the count of re-inserted keys."""
    mul = _product(t.algebra.field)
    return _combined(t, ((key[:i] + (leg,) + key[i + 2:], mul(c, d))
                         for key, c in t.coeffs.items()
                         for leg, d in t.algebra.leg_product(key[i], key[i + 1]).items()),
                     t.legs - 1)


def combine_delta(hopf, a):
    """``HopfAmbiskewAlgebra.delta`` by ``combine``, and the count of re-inserted keys."""
    mul = _product(hopf.algebra.field)
    return _combined(Tensor(hopf.algebra, 2, {}), (
        (key, mul(c, d)) for leg, c in _flatten(a).items()
        for key, d in hopf.delta_leg(leg).coeffs.items()), 2)


def loop_antipode(hopf, a: AmbiElement) -> AmbiElement:
    """``HopfAmbiskewAlgebra.antipode``: c * antipode_leg(leg) summed on Scalars."""
    A, field = hopf.algebra, hopf.algebra.field
    out: dict = {}
    for leg, c in _flatten(a).items():
        for mn, r in hopf.antipode_leg(leg).coeffs.items():
            term = {mono: s * Scalar(field, c) for mono, s in scalars(r).items()}
            s = out.get(mn)
            merged = term if s is None else _combine_scalars(term.items(), dict(s))
            if merged:
                out[mn] = merged
            else:
                out.pop(mn, None)
    return AmbiElement._of(A, {mn: BaseElement._of(A.base, _raw(d)) for mn, d in out.items()})


def loop_counit(hopf, a: AmbiElement) -> Scalar:
    """``HopfAmbiskewAlgebra.counit``: the base part's monomials, on Scalars."""
    base, field = hopf.base, hopf.algebra.field
    acc = field.zero()
    for mono, c in scalars(a.base_part()).items():
        acc = acc + c * Scalar(field, base.counit_monomial(mono))
    return acc


def reference_delta(hopf, a):
    """``HopfAmbiskewAlgebra.delta_leg``: Delta(r) Delta(X+)^m Delta(X-)^n, block by block."""
    # Delta(X+-) = X+- (x) 1 + y+- (x) X+- is built here from the data; a
    # zero power is the unit tensor, a power k >= 1 is k - 1 products from
    # Delta(X+-), each on the right
    alg = hopf.algebra
    one = alg.one()
    steps = {
        sign: Tensor.of(x, one) + Tensor.of(alg.embed(y), x)
        for sign, x, y in ((+1, alg.xplus(), hopf.data.y_plus),
                           (-1, alg.xminus(), hopf.data.y_minus))
    }

    def power(sign, k):
        acc = steps[sign] if k else Tensor.of(one, one)
        for _ in range(k - 1):
            acc = acc * steps[sign]
        return acc

    out = Tensor(alg, 2, {})
    for (m, n), r in a.coeffs.items():
        spread = Tensor(alg, 2, {
            ((m1, 0, 0), (m2, 0, 0)): c for (m1, m2), c in scalars(base_delta(r)).items()
        })
        out = out + spread * power(+1, m) * power(-1, n)
    return out


def reference_antipode(hopf, a):
    """``HopfAmbiskewAlgebra.antipode_leg``: S(X-)^n S(X+)^m S(r), block by block."""
    # S(X+-) = -y+-^-1 X+- is built here from the data
    alg = hopf.algebra
    minus_one = alg.field.from_int(-1)
    s_xp = alg.monomial(invert_element(hopf.data.y_plus).scale(minus_one), 1, 0)
    s_xm = alg.monomial(invert_element(hopf.data.y_minus).scale(minus_one), 0, 1)
    out = alg.zero()
    for (m, n), r in a.coeffs.items():
        out = out + s_xm**n * s_xp**m * alg.embed(base_antipode(r))
    return out


def per_pair_mixed_closed(hopf, m, n) -> Tensor:
    """``delta_mixed_closed``: the binomials and the y+- powers recomputed once per (j, k)."""
    alg = hopf.algebra
    xi = hopf.data.xi
    xi_inv = xi.inverse()
    one_mono = alg.base.one_monomial()
    out: dict = {}
    for j in range(m + 1):
        bj = q_binomial(m, j, xi)
        yp_mono, yp_scalar = _grouplike_power(hopf.data.y_plus, m - j)
        for k in range(n + 1):
            bk = q_binomial(n, k, xi_inv)
            ym_mono, ym_scalar = _grouplike_power(hopf.data.y_minus, n - k)
            cross = xi ** (j * (n - k))
            products = alg.base.mul_monomials(yp_mono, ym_mono)
            (mono, extra), = products.items()
            out[((mono, j, k), (one_mono, m - j, n - k))] = (
                bj * bk * cross * yp_scalar * ym_scalar * Scalar(alg.field, extra))
    return Tensor(alg, 2, out)


# -- the coradical filtration from its definition -------------------------------------
#
# Every family here is pointed, so the coradical C_0 is spanned by the
# grouplikes, and C_t is the kernel of pi^(x)(t+1) . Delta^(t), with pi the
# projection A -> A/C_0 and Delta^(t) the t-fold coproduct (Sweedler, Hopf
# Algebras, 1969, ch. IX; Montgomery, Hopf Algebras and Their Actions on Rings,
# 1993, 5.2). The grouplikes of A are basis legs r X+^0 X-^0 with r a grouplike
# base monomial, so pi kills exactly those legs and keeps the others linearly
# independent: a lies in C_t iff every key of Delta^(t)(a) has a grouplike leg.
# The oracle shares only ``delta_leg`` with ``corad_degree``, and decides
# grouplike legs with ``is_grouplike``, not with a degree function.

POINTED_FAMILIES = ("polynomial", "laurent", "group", "uqsl2")


def corad_degree_by_definition(hopf, a):
    """``corad_degree``: the least t < 16 with a in C_t, by the iterated coproduct."""
    base = hopf.algebra.base
    if base.family not in POINTED_FAMILIES:
        raise ValueError(f"the {base.family} family is not known to be pointed")
    one = base.field.one()

    @functools.cache
    def grouplike(leg):
        mono, m, n = leg
        # eps(r X+^m X-^n) = 0 when m + n > 0, so only base legs can be grouplike
        return m == n == 0 and is_grouplike(BaseElement(base, {mono: one}))

    tensor = Tensor.of(a)
    for t in range(16):
        if all(any(grouplike(leg) for leg in key) for key in tensor.coeffs):
            return t
        tensor = tensor.expand_leg(0, hopf.delta_leg)
    raise AssertionError("no C_t with t < 16 holds the element")


# -- U_q(sl2) through its inner extension, and with q inverted on every call -----------


def reference_from_inner(uq, a: AmbiElement) -> dict:
    """``UqSl2Base`` monomial maps: an element of the inner extension, read in uqsl2."""
    out: dict = {}
    for (m, n), r in a.coeffs.items():
        for j, c in scalars(r).items():
            out[(j, m, n)] = c
    return BaseElement(uq, out).coeffs


def reference_inner_monomial(uq, mono) -> AmbiElement:
    """``UqSl2Base`` monomials in the inner extension: t^j X+^m X-^n."""
    j, m, n = mono
    return AmbiElement(uq.inner, {
        (m, n): BaseElement(uq.inner.base, {j: uq.field.one()})
    })


def inverting_evaluate(uq, values, mono):
    """``UqSl2Base.evaluate``: K^j E^m ((q - q^-1) F K)^n, with q inverted on every call."""
    j, m, n = mono
    k, e, fk = values["K"], values["E"], values["F"] * values["K"]
    diff = uq.q - uq.q**-1
    x_minus = diff * fk if isinstance(fk, Scalar) else fk.scale(diff)
    return k**j * e**m * x_minus**n


def inverting_check_scalar_map(uq, values):
    """``UqSl2Base.check_scalar_map``, with q inverted on every call."""
    q, one = uq.q, uq.field.one()
    k, e, f = values["K"], values["E"], values["F"]
    if not (k * e * (one - q**2)).is_zero():
        raise CharacterError("assignment breaks K E = q^2 E K")
    if not (k * f * (one - q**-2)).is_zero():
        raise CharacterError("assignment breaks K F = q^-2 F K")
    if k * k != one:
        raise CharacterError("assignment breaks E F - F E = (K - K^-1)/(q - q^-1)")


def inverting_check_endo_map(uq, images):
    """``UqSl2Base.check_endo_map``, with q inverted on every call."""
    q = uq.q
    k, e, f = images["K"], images["E"], images["F"]
    try:
        k_inv = invert_element(k)
    except NotInvertibleError as exc:
        raise AutomorphismError("image of K must be a unit") from exc
    if k * e != (e * k).scale(q**2):
        raise AutomorphismError("images break K E = q^2 E K")
    if k * f != (f * k).scale(q**-2):
        raise AutomorphismError("images break K F = q^-2 F K")
    if e * f - f * e != (k - k_inv).scale((q - q**-1).inverse()):
        raise AutomorphismError("images break E F - F E = (K - K^-1)/(q - q^-1)")


def inverting_display_term(uq, mono, c):
    """``UqSl2Base.display_term``, with q inverted on every call."""
    j, m, n = mono
    q = uq.q
    coeff = c * (q - q**-1) ** n * q ** (2 * j * (m - n) - n * (n - 1))
    return coeff, [(name, exp) for name, exp in (("E", m), ("F", n), ("K", j + n)) if exp]


# -- expressions ------------------------------------------------------------------------
#
# The tokenizer scans with one hand-written loop per token kind and
# str.isdigit, str.isalpha and str.isalnum, which also accept non-ASCII
# characters; on ASCII text the table of ``_tokenize`` must agree with it.

ReferenceToken = namedtuple("ReferenceToken", "kind text line column value", defaults=(None,))


def reference_tokenize(src: str) -> list[ReferenceToken]:
    """``exprparse._tokenize``: one character loop per token kind."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            num = int(src[i:j])
            if j < n and src[j] == "/" and j + 1 < n and src[j + 1].isdigit():
                j += 1
                k = j
                while k < n and src[k].isdigit():
                    k += 1
                den = int(src[j:k])
                if den == 0:
                    raise ParseError("zero denominator in literal", line, start_col)
                tokens.append(ReferenceToken("NUMBER", src[i:k], line, start_col,
                                             Fraction(num, den)))
                col += k - i
                i = k
            else:
                tokens.append(ReferenceToken("NUMBER", src[i:j], line, start_col, Fraction(num)))
                col += j - i
                i = j
            continue
        if ch.isalpha() or ch == "_":
            if ch == "X" and i + 1 < n and src[i + 1] in "+-":
                tokens.append(ReferenceToken("IDENT", src[i:i + 2], line, start_col))
                i += 2
                col += 2
                continue
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(ReferenceToken("IDENT", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(ReferenceToken("OP", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(ReferenceToken("END", "", line, col))
    return tokens


# The evaluator of two kinds: numbers, q and zeta evaluate to bare scalars,
# joined with ring elements in ``_join`` and ``_to_element``.


def reference_eval(node, ctx):
    """``eval_expr`` and its scalar and base forms: scalars kept apart from elements."""
    return _to_element(_eval(node, ctx), ctx)


def _lookup(ctx, ident, power=1):
    """q and zeta are bare scalars; every other name resolves as in ``EvalContext.lookup``."""
    if ident == "q" and isinstance(ctx.field, RationalFunctionField):
        return ctx.field.q(power)
    if ident == "zeta" and isinstance(ctx.field, CyclotomicField):
        return ctx.field.zeta(power)
    return ctx.lookup(ident, power)


def _to_element(value, ctx):
    if isinstance(value, Scalar):
        if ctx.algebra is not None:
            return ctx.algebra.one().scale(value)
        if ctx.base is not None:
            return ctx.base.from_scalar(value)
    return value


def _eval(node, ctx):
    if isinstance(node, Num):
        return ctx.field.from_fraction(node.value)
    if isinstance(node, Name):
        return _lookup(ctx, node.ident)
    if isinstance(node, Neg):
        value = _eval(node.operand, ctx)
        return -value if isinstance(value, Scalar) else value.scale(ctx.field.from_int(-1))
    if isinstance(node, Pow):
        if isinstance(node.base, Name):
            return _lookup(ctx, node.base.ident, node.exponent)
        value = _eval(node.base, ctx)
        if isinstance(value, Scalar):
            return value**node.exponent
        if node.exponent >= 0:
            return value**node.exponent
        return _invert(value) ** (-node.exponent)
    if isinstance(node, Mul):
        acc = _eval(node.factors[0], ctx)
        for factor in node.factors[1:]:
            acc = _join(acc, _eval(factor, ctx), ctx, "*")
        return acc
    if isinstance(node, Sum):
        acc = None
        for sign, term in node.terms:
            value = _eval(term, ctx)
            if sign < 0:
                value = -value if isinstance(value, Scalar) else value.scale(ctx.field.from_int(-1))
            acc = value if acc is None else _join(acc, value, ctx, "+")
        return acc
    raise TypeError(f"not an AST node: {node!r}")


def _join(a, b, ctx, op):
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        return a + b if op == "+" else a * b
    a2, b2 = a, b
    if isinstance(a, Scalar):
        if op == "*":
            return b.scale(a)
        a2 = _to_element(a, ctx)
    if isinstance(b, Scalar):
        if op == "*":
            return a.scale(b)
        b2 = _to_element(b, ctx)
    return a2 + b2 if op == "+" else a2 * b2


def _invert(value):
    """The inverse of an element; a zero element is refused as "inverse of
    zero", the message of a zero scalar."""
    if value.is_zero():
        raise NotInvertibleError("inverse of zero")
    if isinstance(value, BaseElement):
        return invert_element(value)
    if isinstance(value, AmbiElement):
        if not value.is_base():
            raise NotInvertibleError("element with X factors is not invertible")
        return value.algebra.embed(invert_element(value.base_part()))
    raise NotInvertibleError(f"cannot invert {value!r}")
