"""Exact coefficient fields and the combinatorics built on them.

Three field variants are supported, all with exact arithmetic and no
floating point anywhere:

* rationals, stored as a plain ``int`` when integral and as a
  ``Fraction`` otherwise;
* cyclotomic fields Q(zeta_N), stored as one integer coefficient vector
  in the power basis of Q[x]/(Phi_N(x)) over one positive denominator,
  with inverses taken through the Galois norm;
* rational functions in one transcendental symbol ``q`` over Q, stored as
  a power of q times a reduced quotient of integer-coefficient
  polynomials that q divides neither of.

The module also provides multiplicative-order queries, Gaussian binomial
coefficients (computed through the Pascal recurrence as integer
polynomials, never by dividing evaluated factorials), and the d-adic
"hat" arithmetic used by the coradical filtration.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import FieldMismatchError, NotInvertibleError

# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficients ascending, trailing zeros trimmed)


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    if b.count(0) > a.count(0):  # the outer loop skips zeros: run it over the sparser side
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c == 0:
            continue
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _trim(out)


def _int_primitive(a):
    """``a`` divided by the gcd of its integer coefficients (sign kept)."""
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _int_pseudo_rem(a, b):
    """The remainder of ``a`` by ``b``, integer polynomials, times a nonzero
    integer: each step scales by the leading coefficients divided by their
    gcd, so everything stays in Z."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    while len(rem) >= nb:
        top = rem[-1]
        if top:
            g = math.gcd(top, lead)
            scale, factor = lead // g, top // g
            shift = len(rem) - nb
            if scale != 1:
                rem = [scale * c for c in rem]
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
        rem.pop()
    return _trim(rem)


def _int_gcd(a, b):
    """Primitive gcd (up to sign) of two nonzero integer polynomials, by the
    primitive pseudo-remainder sequence over Z (Knuth, TAOCP vol. 2,
    4.6.1); ``(1,)`` when they are coprime."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _int_primitive(a), _int_primitive(b)
    while len(b) > 1:
        rem = _int_pseudo_rem(a, b)
        if not rem:
            return b
        a, b = b, _int_primitive(rem)
    return (1,)


def _int_exact_div(a, b):
    """The quotient ``a / b`` of integer polynomials, where ``b`` is
    primitive and divides ``a`` over Q, hence (Gauss) over Z."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    quo = [0] * (len(a) - nb + 1)
    for shift in range(len(quo) - 1, -1, -1):
        c = rem[shift + nb - 1] // lead
        if c:
            quo[shift] = c
            for i, d in enumerate(b):
                rem[shift + i] -= c * d
    return quo


def _coprime(num, den):
    """``num`` and ``den``, nonzero trimmed integer polynomials with
    nonzero constant terms, divided by their gcd in Q[q]. A constant is
    coprime to the other side, and two sides equal up to sign (the
    x * x^-1 of most cancellations) reduce to +-1, so only two different
    sides of two or more terms run the pseudo-remainder gcd."""
    if len(num) > 1 and len(den) > 1:
        if num == den:
            return (1,), (1,)
        if num == poly_neg(den):
            return (-1,), (1,)
        g = _int_gcd(num, den)
        if len(g) > 1:
            num, den = _int_exact_div(num, g), _int_exact_div(den, g)
    return num, den


def _strip_q(v, num):
    """``(v + k, num / q^k)`` for the power q^k dividing ``num``, a
    nonzero trimmed integer polynomial."""
    low = 0
    while not num[low]:
        low += 1
    return v + low, num[low:]


def _scale(v, c, d, num, den):
    """The canonical data of q^v * c*num / (d*den), for canonical sides
    ``num``/``den`` and c/d in lowest terms with d > 0: a common factor of
    the two sides other than an integer would divide ``num`` and ``den``,
    which are coprime, so only the integer content is left (none when
    c = +-1 and d = 1)."""
    if d == 1:
        if c == 1:
            return (v, num, den)
        if c == -1:
            return (v, poly_neg(num), den)
    else:
        den = [d * x for x in den]
    return _content_free(v, [c * x for x in num], den)


def _content_free(v, num, den):
    """The data ``(v, num, den)`` of q^v * num/den, for ``num`` and ``den``
    coprime in Q[q], divided by the integer content of both sides together
    and signed so that ``den`` leads positive."""
    content = math.gcd(*num, *den)
    if den[-1] < 0:
        content = -content
    if content != 1:
        return (v, tuple(c // content for c in num), tuple(c // content for c in den))
    return (v, tuple(num), tuple(den))


def eval_int_poly(coeffs, x: "Scalar") -> "Scalar":
    """Evaluate an integer polynomial at a scalar by Horner's rule."""
    acc = x.field.from_int(0)
    for c in reversed(coeffs):
        acc = acc * x + x.field.from_int(c)
    return acc


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int):
    """The n-th cyclotomic polynomial: x^n - 1 divided in turn by Phi_d for
    every proper divisor d of n. Each Phi_d is monic, so the quotient is
    taken exactly in Z by ``_int_exact_div``; a product that does not give
    back the dividend raises ``ArithmeticError``."""
    if n <= 0:
        raise ValueError("cyclotomic index must be positive")
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_poly(d)
            quo = tuple(_int_exact_div(poly, phi))
            if poly_mul(quo, phi) != poly:
                raise ArithmeticError("cyclotomic division left a remainder")
            poly = quo
    return poly


@lru_cache(maxsize=None)
def cyclotomic_fold_table(n: int):
    """Rows x^k mod Phi_n for k = 0 .. max(n, 2*deg - 1) - 1, deg = deg Phi_n.

    Each row is a tuple of ``deg`` ints: Phi_n is monic with integer
    coefficients, so every remainder stays integral. The range covers the
    schoolbook product of two reduced vectors (degree <= 2*deg - 2) and
    every power zeta**k with 0 <= k < n.
    """
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    row = (1,) + (0,) * (deg - 1)
    rows = [row]
    for _ in range(max(n, 2 * deg - 1) - 1):
        top = row[-1]   # x * row = top * x^deg + (shifted rest); x^deg = -(phi - x^deg)
        row = (0,) + row[:-1]
        if top:
            row = tuple(c - top * p for c, p in zip(row, phi))
        rows.append(row)
    return tuple(rows)


def _exact_value(c):
    """The canonical form of a rational ``int`` or ``Fraction``: an integral
    value is a plain ``int``, anything else stays a ``Fraction``."""
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# fields


class Field:
    """Common interface of the three coefficient fields. ``kind`` is a class
    constant. A field is immutable: two fields are equal, and hash alike,
    when their classes and their data ``_key`` are."""

    kind: str
    _key = ()

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def from_int(self, n) -> "Scalar":
        """The scalar n. An ``int`` takes the direct route, its canonical data
        from ``_int_data`` with no ``Fraction``; anything else (a ``bool``, a
        ``Fraction``) goes through ``from_fraction``. Q has one route for both."""
        if n.__class__ is int:
            return Scalar(self, self._int_data(n))
        return self.from_fraction(n)

    def from_fraction(self, value) -> "Scalar":
        raise NotImplementedError

    # One shared zero and one per field instance; ``Scalar`` is immutable.
    # ``cached_property`` writes the instance ``__dict__`` directly, past
    # ``__setattr__``, and ``_key`` never reads what it caches.
    @cached_property
    def _zero(self) -> "Scalar":
        return self.from_int(0)

    @cached_property
    def _one(self) -> "Scalar":
        return self.from_int(1)

    @cached_property
    def _kernel(self) -> tuple:
        """(data of one, ``_mul``, ``_add``, ``_is_zero``): what a container
        loop calls on raw data, bound once per field instance."""
        return self._one.data, self._mul, self._add, self._is_zero

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def root_of_unity(self, n: int) -> "Scalar | None":
        """A primitive n-th root of unity in this field, or None."""
        if n == 1:
            return self.one()
        if n == 2:
            return self.from_int(-1)
        return None

    def describe(self) -> str:
        return self.kind

    def _unwrap(self, c: "Scalar"):
        """The data of ``c``, a scalar over this field: a container checks
        the field here, as its raw data does not carry one."""
        if c.field is not self and c.field != self:
            raise FieldMismatchError(
                f"cannot mix {self.describe()} and {c.field.describe()} scalars")
        return c.data


class RationalField(Field):
    """Q. An element is stored as a plain ``int`` when it is integral and
    as a ``Fraction`` (denominator > 1) otherwise; ``_exact_value`` restores
    this form after every operation. Equal elements therefore have equal
    data, and the data compares and hashes like the equal ``Fraction``. A
    product or sum of integral elements never leaves ``int``.
    """

    kind = "rational"

    def from_fraction(self, value):
        if value.__class__ is not int:
            value = _exact_value(Fraction(value))
        return Scalar(self, value)

    from_int = from_fraction

    def _add(self, a, b):
        return _exact_value(a + b)

    def _mul(self, a, b):
        return _exact_value(a * b)

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if not a:
            raise NotInvertibleError("inverse of zero")
        return _exact_value(Fraction(a.denominator, a.numerator))

    def _is_zero(self, a):
        return not a


# Entries each per-field memo of ``CyclotomicField`` may hold before a miss
# clears it. The engine-cyclotomic benchmark's product memos settle at 1,600 to
# 2,000 entries per field; a limit below such a working set clears it over and
# over. ``abhk mul uqsl2-case3.abhk "(E + F + K + X+ + X-)^12"`` (Q(zeta_8))
# grows an unbounded memo to 36,021 entries and the process from 24 to 33 MB of
# peak RSS; with this limit it stays at 25 MB.
_CYCLOTOMIC_MEMO_LIMIT = 4096


class CyclotomicField(Field):
    """Q(zeta_N) in the power basis of Q[x]/(Phi_N(x)).

    An element is stored as one flat tuple of ``degree + 1`` ints,
    ``(c_0, ..., c_{d-1}, den)`` with d = ``degree``, for the value
    (c_0 + c_1 zeta + ... + c_{d-1} zeta^(d-1)) / den: the layout of
    FLINT's ``fmpq_poly``. The canonical form has ``den > 0`` and
    ``gcd(c_0, ..., den) == 1``, so an integral element has ``den == 1``,
    zero is ``(0, ..., 0, 1)`` and equal elements have equal data.
    ``_normal`` restores it, dividing by the gcd only when ``den != 1``.
    ``coefficients`` gives the exact rational entries; nothing outside
    this class reads the layout.

    ``_mul_kernel`` takes the schoolbook product of the two integer
    vectors, skipping zero entries, and folds each coefficient of degree
    ``degree`` and above back through ``cyclotomic_fold_table(N)``, the
    integer rows x^k mod Phi_N; the denominators multiply. ``_add`` adds
    the vectors when the denominators agree and cross-multiplies otherwise.
    ``_inv_kernel`` stays in integers too: c zeta^i / den inverts to den/c
    zeta^(N - i), a scaled row of the fold table; for any other a = v/den,
    with v integral, the product P of the other Galois conjugates sigma_k(v)
    (gcd(k, N) = 1, k != 1) is integral and v*P is the norm N(v), a nonzero
    integer, so a^-1 = den * P / N(v) (``_norm_inverse``).

    ``_mul`` and ``_inv`` run these kernels only on a miss of two memos of
    this field instance, ``(a, b) -> a*b`` and ``a -> a^-1``: the examples
    over Q(zeta_N) multiply and invert the same few values again and again
    (in one census of the engine-cyclotomic benchmark, 108,928 products
    ran on 6,914 distinct operand pairs). Canonical data makes the keys
    exact: equal elements have equal data. A product key puts the smaller
    tuple first, so a*b and b*a share one entry. The products inside
    ``_norm_inverse`` call ``_mul_kernel`` directly, so the one-off Galois
    conjugates never enter a memo. A miss that finds a memo holding
    ``_CYCLOTOMIC_MEMO_LIMIT`` entries clears it first. The memos live on
    the instance, so two equal fields, or Q(zeta_3) and Q(zeta_6) with
    their equal data layout, never share an entry.

    Q(q) has no memo: the same memo on ``RationalFunctionField._mul`` took
    the peak memory of the engine-qfunc benchmark to the edge of its bound.
    Q has none either: an ``int`` product costs about as much as the
    lookup, and hashing a ``Fraction`` key costs more than its product.
    """

    kind = "cyclotomic"

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.__dict__.update(order=order, _key=(order,))

    @property
    def modulus(self):
        return cyclotomic_poly(self.order)

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def from_fraction(self, value):
        value = Fraction(value)
        return Scalar(self, (value.numerator,) + (0,) * (self.degree - 1) + (value.denominator,))

    @cached_property
    def _int_tail(self) -> tuple:  # the entries after c_0 of an integer
        return (0,) * (self.degree - 1) + (1,)

    def _int_data(self, n):
        return (n,) + self._int_tail

    def zeta(self, power: int = 1):
        """zeta_N ** power, for any integer power."""
        return Scalar(self, cyclotomic_fold_table(self.order)[power % self.order] + (1,))

    def coefficients(self, a):
        """The entries of ``a`` as exact rationals, ascending in powers of
        zeta: a plain ``int`` when integral, else a ``Fraction``."""
        den = a[-1]
        if den == 1:
            return a[:-1]
        return tuple(_exact_value(Fraction(c, den)) for c in a[:-1])

    @staticmethod
    def _normal(vec):
        """The canonical tuple of ``vec``, a list of entries ending in a
        positive denominator."""
        if vec[-1] != 1:
            g = math.gcd(*vec)
            if g != 1:
                return tuple(c // g for c in vec)
        return tuple(vec)

    def _add(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            out = [x + y for x, y in zip(a, b)]
            out[-1] = da
        else:
            out = [x * db + y * da for x, y in zip(a, b)]
            out[-1] = da * db
        return self._normal(out)

    @cached_property
    def _products(self) -> dict:
        return {}

    @cached_property
    def _inverses(self) -> dict:
        return {}

    def _mul(self, a, b):
        products = self._products
        key = (a, b) if a <= b else (b, a)
        out = products.get(key)
        if out is None:
            if len(products) >= _CYCLOTOMIC_MEMO_LIMIT:
                products.clear()
            out = products[key] = self._mul_kernel(a, b)
        return out

    def _mul_kernel(self, a, b):
        deg = len(a) - 1
        out = [0] * (2 * deg - 1)
        vb = b[:deg]
        for i in range(deg):
            c = a[i]
            if c:
                for k, d in enumerate(vb, i):
                    if d:
                        out[k] += c * d
        table = cyclotomic_fold_table(self.order)
        for k in range(deg, 2 * deg - 1):
            c = out[k]
            if c:
                for i, r in enumerate(table[k]):
                    if r:
                        out[i] += c * r
        del out[deg:]
        out.append(a[-1] * b[-1])
        return self._normal(out)

    def _neg(self, a):
        return tuple([-x for x in a[:-1]]) + a[-1:]

    def _inv(self, a):
        inverses = self._inverses
        out = inverses.get(a)
        if out is None:
            if len(inverses) >= _CYCLOTOMIC_MEMO_LIMIT:
                inverses.clear()
            out = inverses[a] = self._inv_kernel(a)
        return out

    def _inv_kernel(self, a):
        if self._is_zero(a):
            raise NotInvertibleError("inverse of zero")
        if a.count(0) == len(a) - 2:  # c zeta^i / den
            i = next(k for k, c in enumerate(a) if c)
            sign = -1 if a[i] < 0 else 1
            row = cyclotomic_fold_table(self.order)[-i % self.order]
            return self._normal([sign * a[-1] * r for r in row] + [sign * a[i]])
        return self._norm_inverse(a)

    def _norm_inverse(self, a):
        """a^-1 for any nonzero a, through the Galois norm."""
        n, table = self.order, cyclotomic_fold_table(self.order)
        v = a[:-1] + (1,)
        others = self._one.data
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                # sigma_k(v): zeta^i -> zeta^(i*k), each a row of the fold table
                conj = [0] * len(v)
                for i, c in enumerate(v[:-1]):
                    if c:
                        for j, r in enumerate(table[i * k % n]):
                            conj[j] += c * r
                conj[-1] = 1
                others = self._mul_kernel(others, tuple(conj))
        norm = self._mul_kernel(v, others)[0]
        sign = -1 if norm < 0 else 1
        return self._normal([sign * a[-1] * c for c in others[:-1]] + [sign * norm])

    def _is_zero(self, a):
        # the denominator is never 0, so a is zero when all other entries are
        return a.count(0) == len(a) - 1

    def root_of_unity(self, n: int):
        # the roots of unity in Q(zeta_N) form the cyclic group <-zeta_N>
        group_order = self.order if self.order % 2 == 0 else 2 * self.order
        if n < 1 or group_order % n:
            return None
        gen = self.zeta() * self.from_int(-1) if self.order % 2 else self.zeta()
        return gen ** (group_order // n)

    def describe(self) -> str:
        return f"cyclotomic({self.order})"


class RationalFunctionField(Field):
    """Q(q): reduced quotients of integer polynomials in the symbol q.

    An element is stored as ``(v, num, den)``, for the value q^v * num/den:
    ``v`` is its q-adic valuation, and ``num`` and ``den`` are tuples of
    ``int`` coefficients in ascending powers of q, trimmed, with nonzero
    constant terms, so q divides neither side. The form is canonical:
    ``num`` and ``den`` are coprime in Q[q], the gcd of all their
    coefficients together is 1, and the leading coefficient of ``den`` is
    positive. Zero is ``(0, (), (1,))``, one is ``(0, (1,), (1,))`` and
    q^k is ``(k, (1,), (1,))``. Equal elements therefore have equal data,
    and a single term c*q^k/d is an element with one-coefficient sides.
    ``quotient`` gives the data as one quotient of polynomials; nothing
    outside this class reads the layout.

    The arithmetic kernels start from canonical operands and cancel only
    what can still be shared (Henrici's method, Knuth, TAOCP vol. 2,
    4.5.1, over Q[q]). No power of q is ever shared, so the valuations
    are integer sums and no kernel looks for a power of q to cancel, save
    the one sum that can cancel a constant term. Three helpers do the
    cancelling in integers only: ``_coprime`` divides two sides by their
    gcd in Q[q], running the primitive pseudo-remainder gcd ``_int_gcd``
    only when both sides have two or more terms and differ by more than a
    sign (a constant is coprime to anything); ``_strip_q`` moves the power
    of q dividing a numerator into the valuation; ``_content_free``
    divides out the integer content and fixes the sign.

    * ``_mul`` of a = q^av*an/ad and b = q^bv*bn/bd: the valuations add,
      and
      - both factors single terms: the product c*c' / (d*d') comes from
        integers only, reduced by one ``math.gcd``;
      - exactly one factor a single term c/d (times q^av): the product is
        c*bn / (d*bd). A common factor of the two sides other than an
        integer would divide bn and bd, which are coprime, so ``_scale``
        leaves only the content: one ``math.gcd``, skipped when c = +-1
        and d = 1;
      - otherwise every common factor of an*bn and ad*bd lies in an and
        bd or in bn and ad, so gcd(an*bn, ad*bd) = gcd(an, bd) *
        gcd(bn, ad). Each cross pair goes through ``_coprime``; the
        products of the reduced pairs are coprime and only the content
        is left.
    * ``_add``: a zero operand returns the other, and
      - all four sides single terms, c*q^av/d + c'*q^bv/d': for av = bv
        the sum is (c*d' + c'*d) / (d*d'), zero or one term reduced by
        one ``math.gcd``; otherwise it is q^k*(x + y*q^(|av - bv|)) /
        (d*d') with k = min(av, bv) and x the nonzero product of the
        lower term, so only the content is left: no ``poly_mul``;
      - otherwise the valuations are aligned at the lower one, k, by
        padding the numerator of the other side with zeros. For av !=
        bv the numerator of the sum keeps the nonzero constant term of
        the lower side times the other denominator; only for av = bv
        can it cancel, so only then ``_strip_q`` runs on it;
      - over equal denominators the sum is (an + bn)/ad, reduced against
        ``ad`` alone;
      - when ``ad`` or ``bd`` is a constant, the sum (an*bd + bn*ad) /
        (ad*bd) shares no factor with the denominator but an integer:
        an irreducible p dividing the other denominator and the
        numerator would divide bn*ad (or an*bd), so it would divide the
        numerator it is coprime to. Only the content is divided, with no
        polynomial gcd;
      - otherwise, with g = gcd(ad, bd), ad = g*ad' and bd = g*bd', the
        sum is t / (ad*bd') with t = an*bd' + bn*ad'. An irreducible
        factor of ad' that divides t divides an*bd', so it divides an, as
        ad' and bd' are coprime: impossible, for an and ad are coprime;
        likewise for bd'. So gcd(t, ad*bd') = gcd(t, g), and only that
        gcd is cancelled before the content.
    * ``_inv``: ``(-v, den, num)``, with both sides negated when ``num``
      leads with a negative coefficient: canonical data is already
      coprime and free of content, so the swap is canonical.
    """

    kind = "rational-function"

    def from_fraction(self, value):
        value = Fraction(value)
        return Scalar(self, (0, (value.numerator,), (value.denominator,)) if value else (0, (), (1,)))

    def _int_data(self, n):
        return (0, (n,), (1,)) if n else (0, (), (1,))

    def q(self, power: int = 1):
        return Scalar(self, (power, (1,), (1,)))

    def quotient(self, a):
        """``a`` as one quotient ``(num, den)`` of integer polynomials: q^v
        joins the numerator for v > 0 and the denominator for v < 0."""
        v, num, den = a
        if v >= 0:
            return (0,) * v + num, den
        return num, (0,) * -v + den

    def _add(self, a, b):
        av, an, ad = a
        bv, bn, bd = b
        if not an:
            return b
        if not bn:
            return a
        if len(an) == len(ad) == len(bn) == len(bd) == 1:
            # c q^av / d + c' q^bv / d', with d, d' > 0
            c, d, c2, d2 = an[0], ad[0], bn[0], bd[0]
            if av == bv:
                num, den = c * d2 + c2 * d, d * d2
                if not num:
                    return (0, (), (1,))
                g = math.gcd(num, den)
                return (av, (num // g,), (den // g,))
            if av > bv:  # the lower term first: its constant term stays nonzero
                av, bv, c, d, c2, d2 = bv, av, c2, d2, c, d
            return _content_free(av, (c * d2,) + (0,) * (bv - av - 1) + (c2 * d,), (d * d2,))
        v = av
        if av > bv:
            v, an = bv, (0,) * (av - bv) + an
        elif av < bv:
            bn = (0,) * (bv - av) + bn
        if ad == bd:
            num = poly_add(an, bn)
            if not num:
                return (0, (), (1,))
            if av == bv:
                v, num = _strip_q(v, num)
            return _content_free(v, *_coprime(num, ad))
        # different denominators: b = -a would share a's, so the sum is not 0
        if len(ad) > 1 and len(bd) > 1 and len(g := _int_gcd(ad, bd)) > 1:
            bd = _int_exact_div(bd, g)
            num = poly_add(poly_mul(an, bd), poly_mul(bn, _int_exact_div(ad, g)))
        else:
            g, num = None, poly_add(poly_mul(an, bd), poly_mul(bn, ad))
        if av == bv:
            v, num = _strip_q(v, num)
        den = poly_mul(ad, bd)
        if g is not None and len(h := _int_gcd(num, g)) > 1:
            num, den = _int_exact_div(num, h), _int_exact_div(den, h)
        return _content_free(v, num, den)

    def _mul(self, a, b):
        av, an, ad = a
        bv, bn, bd = b
        if not an or not bn:
            return (0, (), (1,))
        if len(an) == len(ad) == 1:
            if len(bn) == len(bd) == 1:
                # (c q^av / d) (c' q^bv / d'): the denominators are positive
                num, den = an[0] * bn[0], ad[0] * bd[0]
                g = math.gcd(num, den)
                if g != 1:
                    num, den = num // g, den // g
                return (av + bv, (num,), (den,))
            return _scale(av + bv, an[0], ad[0], bn, bd)
        if len(bn) == len(bd) == 1:
            return _scale(av + bv, bn[0], bd[0], an, ad)
        an, bd = _coprime(an, bd)
        bn, ad = _coprime(bn, ad)
        return _content_free(av + bv, poly_mul(an, bn), poly_mul(ad, bd))

    def _neg(self, a):
        return (a[0], poly_neg(a[1]), a[2])

    def _inv(self, a):
        v, num, den = a
        if not num:
            raise NotInvertibleError("inverse of zero")
        if num[-1] < 0:
            return (-v, poly_neg(den), poly_neg(num))
        return (-v, den, num)

    def _is_zero(self, a):
        return not a[1]


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """Immutable element of one of the coefficient fields: the type of the
    API edges. Containers (``basehopf.Sparse``) hold raw field data and their
    kernels call the field methods on it; a ``Scalar`` is built where a value
    leaves them (``coeff``, ``terms``, counits, characters, the formatter)
    and unwrapped, with its field checked, where one enters.

    ``+``, ``*`` and ``==`` take a fast path when the other operand is a
    ``Scalar`` over the very same field object; anything else goes through
    ``_lift`` (or, for ``==``, the ``int``/``Fraction`` check), which also
    accepts an equal but distinct field instance. ``x**k`` for k != 0
    takes |k| - 1 products starting from x or its inverse.

    A product over one field object with the field's one as a factor returns
    the other operand, skipping the kernel: every field keeps its data
    canonical, so ``data == field._one.data`` is exact, as in ``is_one``.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data):
        _set_field(self, field)
        _set_data(self, data)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _lift(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix {self.field.describe()} and {other.field.describe()} scalars"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_int(other)
        return NotImplemented

    def __add__(self, other):
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        return Scalar(field, field._add(self.data, other.data))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.data))

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        if other.__class__ is not Scalar or other.field is not field:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
            if other.field is not field:
                return Scalar(field, field._mul(self.data, other.data))
        one = field._one.data
        if other.data == one:
            return self
        if self.data == one:
            return other
        return Scalar(field, field._mul(self.data, other.data))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field._inv(self.data))

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if not exponent:
            return self.field.one()
        base = self if exponent > 0 else self.inverse()
        result = base
        for _ in range(abs(exponent) - 1):
            result = result * base
        return result

    def __eq__(self, other):
        if other.__class__ is Scalar and other.field is self.field:
            return self.data == other.data
        if isinstance(other, (int, Fraction)):
            other = self.field.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        field = self.field
        return (other.field is field or other.field == field) and self.data == other.data

    def __hash__(self):
        return hash((self.field, self.data))

    def __bool__(self):
        return not self.field._is_zero(self.data)

    def is_zero(self) -> bool:
        return self.field._is_zero(self.data)

    def is_one(self) -> bool:
        return self.data == self.field._one.data

    def __repr__(self):
        return f"Scalar({self.data!r} over {self.field.describe()})"


# ``Scalar.__init__`` stores through the slot descriptors, which costs less than
# ``object.__setattr__``; assignment from outside still raises in ``__setattr__``
_set_field = Scalar.field.__set__
_set_data = Scalar.data.__set__


# ---------------------------------------------------------------------------
# multiplicative order

def mul_order(x: Scalar) -> int | None:
    """Smallest n >= 1 with x**n == 1, or None when no such n exists.

    Only 1 and -1 have finite order in Q and Q(q). In Q(zeta_N) the
    powers are iterated up to 2N, a bound on the order of any root of
    unity there.
    """
    if x.is_zero():
        raise ValueError("multiplicative order of zero is undefined")
    if x.is_one():
        return 1
    field = x.field
    if field.kind != "cyclotomic":
        return 2 if x == -1 else None
    power = x
    for n in range(2, 2 * field.order + 1):
        power = power * x
        if power.is_one():
            return n
    return None


def format_order(n: int | None) -> str:
    return "infinite" if n is None else str(n)


# ---------------------------------------------------------------------------
# Gaussian binomials

@lru_cache(maxsize=None)
def gaussian_binomial_poly(n: int, i: int):
    """The Gaussian binomial as an integer polynomial in q.

    Built by the Pascal recurrence so that evaluation stays exact at roots
    of unity, where the factorial quotient is not defined.
    """
    if i < 0 or i > n:
        raise ValueError(f"binomial index {i} out of range 0..{n}")
    if i == 0 or i == n:
        return (1,)
    left = gaussian_binomial_poly(n - 1, i - 1)
    right = poly_mul((0,) * i + (1,), gaussian_binomial_poly(n - 1, i))
    return poly_add(left, right)


def q_binomial(n: int, i: int, x: Scalar) -> Scalar:
    return eval_int_poly(gaussian_binomial_poly(n, i), x)


# ---------------------------------------------------------------------------
# hat arithmetic


# Euclidean data of m relative to the order parameter d: for finite d > 1,
# m = d*q + r with 0 <= r < d; for d = 1 or d infinite (None), q = m and r = 0.
# The reduced value is hat = q + r.
HatProfile = namedtuple("HatProfile", "m d q r hat")


def hat(m: int, d: int | None) -> HatProfile:
    if m < 0:
        raise ValueError("hat needs m >= 0")
    if d is not None and d > 1:
        q, r = divmod(m, d)
    else:
        q, r = m, 0
    return HatProfile(m=m, d=d, q=q, r=r, hat=q + r)


def prec(p: int, m: int, d: int | None) -> bool:
    """The partial order: p `prec` m iff q_p <= q_m and r_p <= r_m."""
    hp, hm = hat(p, d), hat(m, d)
    return hp.q <= hm.q and hp.r <= hm.r
