"""The quantized enveloping algebra of sl2 as a base family.

The family is not hand-coded: it is the verified ambiskew extension of
the Laurent family with chi(t) = q^-2, y+ = y- = t, h = t^2 - 1 and
xi = q^-2, wrapped in the base-algebra interface. A monomial (j, m, n)
is exactly the inner leg t^j X+^m X-^n, so the product, coproduct and
antipode on monomials are the inner extension's cached leg maps. The
presentation generators are aliases onto the internal ones,

    K = t,   E = X+,   F = (q - q^-1)^-1 X- t^-1,

which reproduces K E = q^2 E K, K F = q^-2 F K,
E F - F E = (K - K^-1)/(q - q^-1), with K grouplike, E (1, K)-primitive
and F (K^-1, 1)-primitive. Its coradical filtration therefore comes from
the extension's filtration formula rather than from a table.
"""

from __future__ import annotations

from .ambicore import _flatten
from .basehopf import (
    BaseAlgebra,
    BaseElement,
    GeneratorInfo,
    LaurentBase,
    Character,
    invert_element,
)
from .errors import AutomorphismError, CharacterError, HopfDataError, NotInvertibleError
from .hopfstruct import ExtensionData, construct_hopf
from .scalar import Field, Scalar, hat, mul_order
from . import properties


class UqSl2Base(BaseAlgebra):
    """Base family uqsl2(q); monomials are the inner legs (j, m, n) for
    t^j X+^m X-^n, and the structure maps are the inner leg maps."""

    family = "uqsl2"

    def __init__(self, field: Field, q: Scalar):
        if q.field != field:
            raise HopfDataError("q must live in the session field")
        if q.is_zero() or q.is_one() or q == field.from_int(-1):
            raise HopfDataError("uqsl2 needs q != 0, 1, -1")
        self.field = field
        self.q = q
        # q^-1 and q - q^-1 enter every alias rescaling: invert q once
        self.q_inv = q.inverse()
        self.q_diff = q - self.q_inv
        inner_base = LaurentBase(field)
        chi = Character(inner_base, {"t": self.q_inv**2})
        t = inner_base.generator("t")
        h = t * t - inner_base.one()
        self.hopf, _ = construct_hopf(inner_base, ExtensionData(inner_base, chi, t, t, h))
        self.inner = self.hopf.algebra
        # the leg products themselves, read by BaseElement.__mul__ before it
        # calls mul_monomials: the same dict, not a copy
        self._mul_cache = self.inner._leg_cache
        self.f_scale = self.q_diff.inverse()
        self._corad_d = mul_order(self.hopf.data.xi)
        self.descriptor = properties.derive_descriptor(self.hopf)
        self._f_element = BaseElement._of(self, _flatten(
            (self.inner.xminus() * self.inner.embed(invert_element(t))).scale(self.f_scale)
        ))

    def key(self):
        return (self.family, self.field, self.q)

    # -- basis ---------------------------------------------------------------

    def one_monomial(self):
        return (0, 0, 0)

    def generator_info(self):
        return [GeneratorInfo("E", False, False), GeneratorInfo("F", False, False),
                GeneratorInfo("K", True, True)]

    def generator(self, name, power=1):
        if name == "K":
            return BaseElement._of(self, {(power, 0, 0): self.field._one.data})
        if power < 0:
            raise NotInvertibleError(f"{name} is not invertible in uqsl2")
        if name == "E":
            return BaseElement._of(self, {(0, power, 0): self.field._one.data})
        if name == "F":
            return self._f_element**power
        raise KeyError(name)

    def monomial_factors(self, mono):
        raise NotImplementedError(
            "uqsl2 monomials mix aliased generators; use the overridden maps"
        )

    def _display_exponents(self, mono):
        j, m, n = mono
        return (m, n, j + n)

    def monomial_sort_key(self, mono):
        e, f, l = self._display_exponents(mono)
        return (e + f + abs(l), e, f, abs(l), 0 if l >= 0 else 1)

    def invert_monomial(self, mono):
        j, m, n = mono
        return (-j, 0, 0) if m == 0 and n == 0 else None

    # -- structure maps -------------------------------------------------------

    def mul_monomials(self, a, b):
        return self.inner.leg_product(a, b)

    def delta_monomial(self, mono):
        return self.hopf.delta_leg(mono).coeffs

    def counit_monomial(self, mono):
        j, m, n = mono
        return (self.field._one if m == 0 and n == 0 else self.field._zero).data

    def antipode_monomial(self, mono):
        return _flatten(self.hopf.antipode_leg(mono))

    def coradical_degree_monomial(self, mono):
        j, m, n = mono
        return hat(m, self._corad_d).hat + hat(n, self._corad_d).hat

    # -- generator-defined maps ------------------------------------------------

    def check_scalar_map(self, values):
        """Scalars commute, so K E = q^2 E K reads (1 - q^2) k e = 0, which
        is k e = 0 as q != 0, 1, -1 makes 1 - q^2 a nonzero scalar; K F =
        q^-2 F K reads k f = 0 alike, and E F - F E = (K - K^-1)/(q - q^-1)
        reads k k = 1."""
        k, e, f = values["K"], values["E"], values["F"]
        if not (k * e).is_zero():
            raise CharacterError("assignment breaks K E = q^2 E K")
        if not (k * f).is_zero():
            raise CharacterError("assignment breaks K F = q^-2 F K")
        if k * k != self.field.one():
            raise CharacterError("assignment breaks E F - F E = (K - K^-1)/(q - q^-1)")

    def check_endo_map(self, images):
        """Raise AutomorphismError unless the images of K, E and F respect
        the three defining relations.

        Images that are one-term multiples a K, b E, c F of the generators,
        in this algebra, are checked on their raw coefficients. K E = q^2 E K
        and K F = q^-2 F K then hold for every a, b, c, and E F - F E =
        (K - K^-1)/(q - q^-1) becomes b c (K - K^-1) = a K - a^-1 K^-1,
        which holds exactly when b c = a and a^2 = 1, as K and K^-1 are
        independent. K and E are stored with coefficient 1 and F with d, so
        the image of F holds c d, and b c = a reads b (c d) = a d: a
        cross-multiplication on the canonical data, with no inverse, and a
        factor equal to 1 not multiplied. a^2 = 1 reads a = 1 or a = -1, as
        a field has no zero divisors. A failure is the E F - F E relation,
        the one that can fail, with the text the element route gives. Any
        other images are multiplied out as elements.
        """
        k, e, f = images["K"], images["E"], images["F"]
        (f_mono, d), = self._f_element.coeffs.items()
        a, b, c = k.coeffs.get((1, 0, 0)), e.coeffs.get((0, 1, 0)), f.coeffs.get(f_mono)
        if (None not in (a, b, c) and len(k.coeffs) == len(e.coeffs) == len(f.coeffs) == 1
                and k.algebra is e.algebra is f.algebra is self):
            one, mul, _, _ = self.field._kernel
            if ((c if b == one else mul(b, c)) != (d if a == one else mul(a, d))
                    or a != one and a != self.field._neg(one)):
                raise AutomorphismError("images break E F - F E = (K - K^-1)/(q - q^-1)")
            return
        q = self.q
        try:
            k_inv = invert_element(k)
        except NotInvertibleError as exc:
            raise AutomorphismError("image of K must be a unit") from exc
        if k * e != (e * k).scale(q**2):
            raise AutomorphismError("images break K E = q^2 E K")
        if k * f != (f * k).scale(self.q_inv**2):
            raise AutomorphismError("images break K F = q^-2 F K")
        commutator = e * f - f * e
        if commutator != (k - k_inv).scale(self.f_scale):
            raise AutomorphismError("images break E F - F E = (K - K^-1)/(q - q^-1)")

    def evaluate(self, assignment, mono, one):
        """K^j E^m ((q - q^-1) F K)^n on the leg (j, m, n) = t^j X+^m X-^n.
        K^0 is already the unit, so ``one`` is not multiplied in."""
        j, m, n = mono
        k = assignment["K"]
        acc = k**j * assignment["E"] ** m
        return acc * (assignment["F"] * k * self.q_diff) ** n if n else acc

    def monomial_eigenvalue(self, diag, mono):
        # unlike evaluate, the alias scale of X- = (q - q^-1) F t cancels
        # in an eigenvalue: sigma(X-) = diag(F) diag(K) X-
        j, m, n = mono
        return diag["K"] ** j * diag["E"] ** m * (diag["F"] * diag["K"]) ** n

    # -- display --------------------------------------------------------------

    def display_term(self, mono, c):
        """The term rewritten in the presentation basis E^e F^f K^l."""
        j, m, n = mono
        e, f, l = self._display_exponents(mono)
        k = 2 * j * (m - n) - n * (n - 1)
        coeff = c * self.q_diff**n * (self.q**k if k >= 0 else self.q_inv**-k)
        return coeff, [(name, exp) for name, exp in (("E", e), ("F", f), ("K", l)) if exp]
