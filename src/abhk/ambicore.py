"""Construction of A = A(R, X+, X-, sigma, h, xi) and exact normal-form
arithmetic in A and its tensor powers.

Elements are kept in the normal form "base coefficient on the left,
X+ powers before X- powers", which is a free left/right module basis over
the base. The rewriting system is

    X+ r   -> sigma(r) X+
    X- r   -> sigma^-1(r) X-
    X- X+  -> xi^-1 X+ X-  -  xi^-1 h

and terminates because every step either moves a base factor left or
strictly decreases the number of (X-, X+) inversions. Tensor powers of A
are stored in the same normal-ordered convention on every tensor leg
(freeness is preserved: the two possible leg orderings are related by the
invertible rewrite above).
"""

from __future__ import annotations

import random

from .basehopf import (
    BaseAlgebra,
    BaseAutomorphism,
    BaseElement,
    Sparse,
    combine,
    is_central,
    nonnegative_power,
)
from .errors import AlgebraMismatchError, HopfDataError, UnsupportedBaseError
from .scalar import Scalar


# Scalars the words of one ``AmbiskewAlgebra._word_cache`` may hold before a
# miss clears it. Powers of (X+ + X-) on usl2 up to ^64 hold at most 8,171,
# and every benchmark algebra at most 22 words; the product
# ``(X+ + X-)^20 * (X+ + X-)^20`` asks for 2,761 words of 72,035 scalars,
# nearly all of them once, which took that process from 22 to 32 MB.
_WORD_CACHE_LIMIT = 16384


class AmbiskewAlgebra:
    """The ambiskew extension of a base algebra by X+ and X-.

    Three caches live on each algebra, and nowhere else: ``_nf_cache``
    holds the normal forms of X-^n X+^p, ``_leg_cache`` the leg products,
    and ``_word_cache`` the normal forms of the words X+^m X-^n X+^p,
    keyed by (m, n, p). A word is a function of its key and of the
    algebra's fixed (sigma, h, xi) alone, so a cached word is exactly the
    word the loop would rebuild; the product kernels raise its powers of
    X- by q as they read it, so the cache holds one word for every q. A
    word coefficient equal to the unit of R is stored as the shared
    ``base._one`` itself, so that the product kernels can skip it by
    identity. A miss that finds the cached words holding
    ``_WORD_CACHE_LIMIT`` scalars clears them first.
    """

    def __init__(self, base: BaseAlgebra, sigma: BaseAutomorphism, h: BaseElement,
                 xi: Scalar):
        if sigma.algebra != base:
            raise AlgebraMismatchError("sigma is not an automorphism of the base")
        if h.algebra != base:
            raise AlgebraMismatchError("h does not live in the base")
        if xi.field != base.field:
            raise AlgebraMismatchError("xi does not live in the coefficient field")
        if xi.is_zero():
            raise HopfDataError("xi must be nonzero")
        if not is_central(h):
            raise HopfDataError("h must be central in the base")
        self.base = base
        self.sigma = sigma
        self.h = h
        self.xi = xi
        self.xi_inv = xi.inverse()
        self._nf_cache: dict = {}
        self._leg_cache: dict = {}
        self._word_cache: dict = {}
        self._word_scalars = 0  # scalars held by the words in _word_cache
        self._one_mono = base.one_monomial()

    @property
    def field(self):
        return self.base.field

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AmbiskewAlgebra):
            return NotImplemented
        return (
            self.base == other.base
            and self.xi == other.xi
            and self.h == other.h
            and self.sigma.equals_on_generators(other.sigma)
        )

    __hash__ = None  # structural equality only

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AmbiElement":
        return AmbiElement._of(self, {})

    def one(self) -> "AmbiElement":
        return AmbiElement._of(self, {(0, 0): self.base.one()})

    def embed(self, r: BaseElement) -> "AmbiElement":
        if r.algebra is not self.base and r.algebra != self.base:
            raise AlgebraMismatchError("element does not live in the base")
        return AmbiElement(self, {(0, 0): r})

    def xplus(self, power: int = 1) -> "AmbiElement":
        return AmbiElement._of(self, {(power, 0): self.base.one()})

    def xminus(self, power: int = 1) -> "AmbiElement":
        return AmbiElement._of(self, {(0, power): self.base.one()})

    def monomial(self, r: BaseElement, m: int, n: int) -> "AmbiElement":
        return AmbiElement(self, {(m, n): r})

    # -- the rewriting engine ------------------------------------------------

    def _rx(self, u: int, v: int) -> dict:
        """Normal form of X+^u X-^v X+ as an (m, n) -> BaseElement mapping."""
        if v == 0:
            return {(u + 1, 0): self.base.one()}
        out = {(a, b + 1): c.scale(self.xi_inv) for (a, b), c in self._rx(u, v - 1).items()}
        corr = self.sigma.apply(self.h, u - v + 1).scale(-self.xi_inv)
        combine((((u, v - 1), corr),), out)
        return out

    def _nf(self, n: int, p: int) -> dict:
        """Normal form of X-^n X+^p."""
        if n == 0 or p == 0:
            return {(p, n): self.base.one()}
        key = (n, p)
        cached = self._nf_cache.get(key)
        if cached is not None:
            return cached
        out = combine((ab, c * extra) for (u, v), c in self._nf(n, p - 1).items()
                      for ab, extra in self._rx(u, v).items())
        self._nf_cache[key] = out
        return out

    def _word(self, m: int, n: int, p: int) -> dict:
        """Normal form of X+^m X-^n X+^p, cached per (m, n, p): the terms
        sigma^m(c) X+^(m+u) X-^v over the terms c X+^u X-^v of _nf(n, p).
        A coefficient c equal to 1 is stored as ``base._one``, which is
        sigma^m(c), since sigma fixes 1. Callers only read the dict."""
        key = (m, n, p)
        words = self._word_cache
        word = words.get(key)
        if word is None:
            if self._word_scalars >= _WORD_CACHE_LIMIT:
                words.clear()
                self._word_scalars = 0
            one = self.base._one
            apply = self.sigma.apply
            word = {(m + u, v): one if c.coeffs == one.coeffs else apply(c, m)
                    for (u, v), c in self._nf(n, p).items()}
            words[key] = word
            self._word_scalars += sum(len(c.coeffs) for c in word.values())
        return word

    def leg_product(self, leg1, leg2) -> dict:
        """Cached flattened product of two legs (base monomial, m, n).

        A miss is computed directly. With _nf(n1, m2) = sum c X+^u X-^v,

            r1 X+^m1 X-^n1 * r2 X+^m2 X-^n2
                = sum r1 sigma^(m1-n1)(r2) sigma^m1(c) X+^(m1+u) X-^(v+n2)

        over the terms (u, v), c of _nf(n1, m2): the terms of the cached
        word X+^m1 X-^n1 X+^m2, each multiplied on the left by
        r1 sigma^(m1-n1)(r2), and not at all when the word's coefficient
        is ``base._one``. Distinct (u, v) give distinct (m1 + u, v + n2), so
        no two terms are added. When n1 or m2 is 0, _nf(n1, m2) is the one
        term X+^m2 X-^n1 and sigma fixes 1, so the sum is the single term
        r1 sigma^(m1-n1)(r2) X+^(m1+m2) X-^(n1+n2).

        The coefficient r1 sigma^(m1-n1)(r2) takes no product when either
        monomial is the unit: it is r1 when r2 = 1, since sigma fixes 1, and
        sigma^(m1-n1)(r2) when r1 = 1. Both are what the product would
        return, by the unit law of the base.
        """
        key = (leg1, leg2)
        cached = self._leg_cache.get(key)
        if cached is None:
            (r1, m1, n1), (r2, m2, n2) = leg1, leg2
            base, sigma, one = self.base, self.sigma, self.field.one()
            if r2 == self._one_mono:
                coeff = BaseElement._of(base, {r1: one})
            else:
                coeff = sigma.apply(BaseElement._of(base, {r2: one}), m1 - n1)
                if r1 != self._one_mono:
                    coeff = BaseElement._of(base, {r1: one}) * coeff
            if not n1 or not m2:
                cached = {(mono, m1 + m2, n1 + n2): d for mono, d in coeff.coeffs.items()}
            else:
                cached = {}
                for (u, v), c in self._word(m1, n1, m2).items():
                    for mono, d in (coeff if c is base._one else coeff * c).coeffs.items():
                        cached[(mono, u, v + n2)] = d
            self._leg_cache[key] = cached
        return cached


class AmbiElement(Sparse):
    """Element of A as a finitely supported (m, n) -> BaseElement map over
    the free-module basis X+^m X-^n, base coefficients written on the left.

    A product with the unit ``{(0, 0): 1}`` as either factor returns the
    other operand itself, with no rewriting. This is exact: sigma fixes 1,
    the word X+^m X-^n times X+^0 X-^0, on either side, is the one term
    ``{(m, n): 1}``, and the base product with the unit returns the other
    factor, so the loop would build the other operand's dict, in the same
    order, with the same base coefficients. ``x**n`` takes n - 1 products
    starting from x, so it never multiplies by the unit either.

    Inside the loop, a base coefficient or word coefficient that *is* the
    shared ``base._one`` is not multiplied, and sigma^(m-n) is not applied
    when m == n. Both skips are exact: ``BaseElement.__mul__`` returns the
    other operand itself for a unit factor, and ``apply`` with power 0
    returns its argument.
    """

    __slots__ = ()

    def coeff(self, m: int, n: int) -> BaseElement:
        return self.coeffs.get((m, n), self.algebra.base.zero())

    def base_part(self) -> BaseElement:
        """The (0, 0) component."""
        return self.coeff(0, 0)

    def is_base(self) -> bool:
        return all(k == (0, 0) for k in self.coeffs)

    def terms(self):
        key = self.algebra.base.monomial_sort_key
        return sorted(_flatten(self).items(),
                      key=lambda item: (key(item[0][0]), item[0][1], item[0][2]))

    def scale(self, c: Scalar) -> "AmbiElement":
        if c.is_zero():
            return self._new({})
        return self._new({k: v.scale(c) for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, Sparse):
            return self.__rmul__(other)
        self._check(other)
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        alg = self.algebra
        one, apply, words = alg.base._one, alg.sigma.apply, alg._word
        out: dict = {}  # the combine loop written inline: the engine's hottest loop
        get = out.get
        for (m, n), a in self.coeffs.items():
            for (p, q), b in other.coeffs.items():
                r = apply(b, m - n) if m != n else b
                coeff = r if a is one else a if r is one else a * r
                for (u, v), c in words(m, n, p).items():
                    term = coeff if c is one else coeff * c
                    uv = (u, v + q)
                    s = get(uv)
                    merged = term if s is None else s + term
                    if merged.is_zero():
                        out.pop(uv, None)
                    else:
                        out[uv] = merged
        return self._new(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in A")
        return nonnegative_power(self, n)


def _is_one(a: AmbiElement) -> bool:
    """Whether a is the unit of A: the one term 1 X+^0 X-^0."""
    r = a.coeffs.get((0, 0))
    return r is not None and len(a.coeffs) == 1 and r.coeffs == a.algebra.base.one().coeffs


# ---------------------------------------------------------------------------
# tensor powers of A


def _flatten(a: AmbiElement) -> dict:
    out = {}
    for (m, n), r in a.coeffs.items():
        for mono, c in r.coeffs.items():
            out[(mono, m, n)] = c
    return out


class Tensor(Sparse):
    """Element of the k-fold tensor power of A, flattened over keys that
    are tuples of (base monomial, m, n) legs, all legs normal-ordered."""

    __slots__ = ("legs",)

    def __init__(self, algebra: AmbiskewAlgebra, legs: int, mapping: dict):
        super().__init__(algebra, mapping)
        self.legs = legs

    @classmethod
    def _of(cls, algebra: AmbiskewAlgebra, coeffs: dict, legs: int) -> "Tensor":
        new = super()._of(algebra, coeffs)
        new.legs = legs
        return new

    def _new(self, coeffs: dict, legs: int | None = None) -> "Tensor":
        new = object.__new__(Tensor)
        new.algebra = self.algebra
        new.legs = self.legs if legs is None else legs
        new.coeffs = coeffs
        return new

    @classmethod
    def of(cls, *factors: AmbiElement) -> "Tensor":
        algebra = factors[0].algebra
        out = {(): algebra.field.one()}
        for f in factors:
            if f.algebra != algebra:
                raise AlgebraMismatchError("tensor factors from different algebras")
            flat = _flatten(f)
            out = {
                key + (leg,): c * d
                for key, c in out.items()
                for leg, d in flat.items()
            }
        return cls._of(algebra, out, len(factors))

    def _check(self, other):
        if self.legs != other.legs:
            raise AlgebraMismatchError(f"tensors with {self.legs} and {other.legs} legs")
        super()._check(other)

    def __eq__(self, other):
        if other.__class__ is not Tensor:
            return NotImplemented
        return self.legs == other.legs and super().__eq__(other)

    def __mul__(self, other):
        """Leg-wise product: key1 * key2 multiplies leg i of key1 by leg i
        of key2 through ``leg_product`` on every leg.

        Only two legs, the case of every coproduct, are supported: the
        kernel sums c1 c2 d1 d2 for leg_product(a1, b1) x
        leg_product(a2, b2) straight into the result, dropping a key the
        moment its running sum is zero. Other leg counts are refused with
        ``UnsupportedBaseError``.
        """
        if not isinstance(other, Sparse):
            return self.__rmul__(other)
        self._check(other)
        if self.legs != 2:
            raise UnsupportedBaseError(
                f"product of tensors with {self.legs} legs; only 2 are supported")
        leg_product = self.algebra.leg_product
        out: dict = {}
        for (a1, a2), c1 in self.coeffs.items():
            for (b1, b2), c2 in other.coeffs.items():
                c = c1 * c2
                right = leg_product(a2, b2).items()
                for leg1, d1 in leg_product(a1, b1).items():
                    e = c * d1
                    for leg2, d2 in right:
                        v = e * d2  # nonzero: only the sum below can cancel
                        key = (leg1, leg2)
                        s = out.get(key)
                        if s is None:
                            out[key] = v
                        elif (v := s + v).is_zero():
                            del out[key]
                        else:
                            out[key] = v
        return self._new(out)

    # -- leg surgery ---------------------------------------------------------

    def expand_leg(self, i: int, fn) -> "Tensor":
        """Replace leg i by the 2-leg tensor fn(leg)."""
        return self._new(combine(
            (key[:i] + ekey + key[i + 1:], c * d)
            for key, c in self.coeffs.items() for ekey, d in fn(key[i]).coeffs.items()
        ), self.legs + 1)

    def map_leg(self, i: int, fn) -> "Tensor":
        """Replace leg i by the element fn(leg)."""
        return self._new(combine(
            (key[:i] + (leg,) + key[i + 1:], c * d)
            for key, c in self.coeffs.items() for leg, d in _flatten(fn(key[i])).items()
        ))

    def contract_leg(self, i: int, fn) -> "Tensor":
        """Drop leg i, multiplying each coefficient by the scalar fn(leg)."""
        # zero products are skipped here, not added to a running sum
        return self._new(combine(
            (key[:i] + key[i + 1:], v)
            for key, c in self.coeffs.items() if not (v := c * fn(key[i])).is_zero()
        ), self.legs - 1)

    def merge_legs(self, i: int) -> "Tensor":
        """Multiply legs i and i+1 together (the multiplication map on
        those tensorands)."""
        leg_product = self.algebra.leg_product
        return self._new(combine(
            (key[:i] + (leg,) + key[i + 2:], c * d)
            for key, c in self.coeffs.items()
            for leg, d in leg_product(key[i], key[i + 1]).items()
        ), self.legs - 1)


# ---------------------------------------------------------------------------
# free-word reduction oracle
#
# An independent route to normal forms: words in the free algebra over the
# base with letters X+, X-, reduced step by step. Used by tests to confirm
# the engine and to check confluence of different rewrite orders.

XPLUS = "X+"
XMINUS = "X-"


def _reducible(word, i) -> bool:
    a, b = word[i], word[i + 1]
    if a == XPLUS or a == XMINUS:
        return not isinstance(b, str) or (a == XMINUS and b == XPLUS)
    return not isinstance(b, str)  # two adjacent base letters merge


def _rewrite(algebra: AmbiskewAlgebra, scalar, word, i):
    """Apply one rewrite at position i; returns a list of (scalar, word)."""
    a, b = word[i], word[i + 1]
    head, tail = word[:i], word[i + 2:]
    if a == XPLUS and not isinstance(b, str):
        return [(scalar, head + (algebra.sigma.apply(b, 1), XPLUS) + tail)]
    if a == XMINUS and not isinstance(b, str):
        return [(scalar, head + (algebra.sigma.apply(b, -1), XMINUS) + tail)]
    if a == XMINUS and b == XPLUS:
        out = [(scalar * algebra.xi_inv, head + (XPLUS, XMINUS) + tail)]
        if not algebra.h.is_zero():
            out.append((-(scalar * algebra.xi_inv), head + (algebra.h,) + tail))
        return out
    return [(scalar, head + (a * b,) + tail)]


def _terminal_to_element(algebra: AmbiskewAlgebra, scalar, word) -> AmbiElement:
    base = algebra.base.one()
    m = n = 0
    for letter in word:
        if letter == XPLUS:
            m += 1
        elif letter == XMINUS:
            n += 1
        else:
            base = base * letter
    return AmbiElement(algebra, {(m, n): base.scale(scalar)})


def reduce_word(algebra: AmbiskewAlgebra, word, strategy: str = "leftmost",
                rng: random.Random | None = None) -> AmbiElement:
    """Reduce a free word to its normal form in A.

    ``word`` is a sequence whose letters are the strings "X+"/"X-" or base
    elements. ``strategy`` picks which reducible pair is rewritten first:
    "leftmost", "rightmost", or "random" (seeded through ``rng``).
    """
    if strategy == "random" and rng is None:
        rng = random.Random(0)
    result = algebra.zero()
    stack = [(algebra.field.one(), tuple(word))]
    while stack:
        scalar, current = stack.pop()
        positions = [i for i in range(len(current) - 1) if _reducible(current, i)]
        if not positions:
            result = result + _terminal_to_element(algebra, scalar, current)
            continue
        if strategy == "leftmost":
            pos = positions[0]
        elif strategy == "rightmost":
            pos = positions[-1]
        elif strategy == "random":
            pos = rng.choice(positions)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        stack.extend(_rewrite(algebra, scalar, current, pos))
    return result
