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

from .basehopf import BaseAlgebra, BaseAutomorphism, BaseElement, Sparse, combine, is_central
from .errors import AlgebraMismatchError, HopfDataError
from .scalar import Scalar


class AmbiskewAlgebra:
    """The ambiskew extension of a base algebra by X+ and X-."""

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
        return AmbiElement(self, {})

    def one(self) -> "AmbiElement":
        return AmbiElement(self, {(0, 0): self.base.one()})

    def embed(self, r: BaseElement) -> "AmbiElement":
        if r.algebra != self.base:
            raise AlgebraMismatchError("element does not live in the base")
        return AmbiElement(self, {(0, 0): r})

    def xplus(self, power: int = 1) -> "AmbiElement":
        return AmbiElement(self, {(power, 0): self.base.one()})

    def xminus(self, power: int = 1) -> "AmbiElement":
        return AmbiElement(self, {(0, power): self.base.one()})

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

    def mul_monomials(self, m: int, n: int, p: int, q: int) -> dict:
        """Normal form of X+^m X-^n X+^p X-^q."""
        out: dict = {}
        for (u, v), c in self._nf(n, p).items():
            out[(m + u, v + q)] = self.sigma.apply(c, m)
        return out

    def leg_product(self, leg1, leg2) -> dict:
        """Cached flattened product of two single-monomial elements,
        keyed by (base monomial, m, n) legs."""
        key = (leg1, leg2)
        cached = self._leg_cache.get(key)
        if cached is None:
            cached = _flatten(_leg_element(self, leg1) * _leg_element(self, leg2))
            self._leg_cache[key] = cached
        return cached


class AmbiElement(Sparse):
    """Element of A as a finitely supported (m, n) -> BaseElement map over
    the free-module basis X+^m X-^n, base coefficients written on the left."""

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
        alg = self.algebra
        out: dict = {}  # the combine loop written inline: the engine's hottest loop
        for (m, n), a in self.coeffs.items():
            for (p, q), b in other.coeffs.items():
                coeff = a * alg.sigma.apply(b, m - n)
                for (u, v), c in alg.mul_monomials(m, n, p, q).items():
                    term = coeff * c
                    s = out.get((u, v))
                    merged = term if s is None else s + term
                    if merged.is_zero():
                        out.pop((u, v), None)
                    else:
                        out[(u, v)] = merged
        return self._new(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in A")
        acc = self.algebra.one()
        for _ in range(n):
            acc = acc * self
        return acc


# ---------------------------------------------------------------------------
# tensor powers of A


def _flatten(a: AmbiElement) -> dict:
    out = {}
    for (m, n), r in a.coeffs.items():
        for mono, c in r.coeffs.items():
            out[(mono, m, n)] = c
    return out


def _leg_element(algebra: AmbiskewAlgebra, leg) -> AmbiElement:
    mono, m, n = leg
    return AmbiElement(
        algebra, {(m, n): BaseElement(algebra.base, {mono: algebra.field.one()})}
    )


class Tensor(Sparse):
    """Element of the k-fold tensor power of A, flattened over keys that
    are tuples of (base monomial, m, n) legs, all legs normal-ordered."""

    __slots__ = ("legs",)

    def __init__(self, algebra: AmbiskewAlgebra, legs: int, mapping: dict):
        super().__init__(algebra, mapping)
        self.legs = legs

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
        return cls(algebra, len(factors), out)

    def to_ambi(self) -> AmbiElement:
        if self.legs != 1:
            raise ValueError("only 1-leg tensors convert back to elements")
        acc = self.algebra.zero()
        for (leg,), c in self.coeffs.items():
            acc = acc + _leg_element(self.algebra, leg).scale(c)
        return acc

    def _check(self, other):
        if self.legs != other.legs:
            raise AlgebraMismatchError(f"tensors with {self.legs} and {other.legs} legs")
        super()._check(other)

    def __eq__(self, other):
        if other.__class__ is not Tensor:
            return NotImplemented
        return self.legs == other.legs and super().__eq__(other)

    def __mul__(self, other):
        if not isinstance(other, Sparse):
            return self.__rmul__(other)
        self._check(other)
        out: dict = {}
        for key1, c1 in self.coeffs.items():
            for key2, c2 in other.coeffs.items():
                partial = [((), c1 * c2)]
                for leg1, leg2 in zip(key1, key2):
                    flat = self.algebra.leg_product(leg1, leg2)
                    partial = [
                        (key + (leg,), c * d)
                        for key, c in partial
                        for leg, d in flat.items()
                    ]
                combine(partial, out)
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
