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
    register_family,
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
        inner_base = LaurentBase(field)
        chi = Character(inner_base, {"t": q**-2})
        t = inner_base.generator("t")
        h = t * t - inner_base.one()
        self.hopf, _ = construct_hopf(inner_base, ExtensionData(inner_base, chi, t, t, h))
        self.inner = self.hopf.algebra
        self.f_scale = (q - q**-1).inverse()
        self._corad_d = mul_order(self.hopf.data.xi)
        self.descriptor = properties.derive_descriptor(self.hopf, self.family)
        self._f_element = BaseElement(self, _flatten(
            (self.inner.xminus() * self.inner.embed(invert_element(t))).scale(self.f_scale)
        ))

    def key(self):
        return (self.family, self.field, self.q)

    # -- basis ---------------------------------------------------------------

    def one_monomial(self):
        return (0, 0, 0)

    def generator_info(self):
        return [GeneratorInfo("E", False), GeneratorInfo("F", False),
                GeneratorInfo("K", True)]

    def generator(self, name, power=1):
        if name == "K":
            return self.element({(power, 0, 0): self.field.one()})
        if power < 0:
            raise NotInvertibleError(f"{name} is not invertible in uqsl2")
        if name == "E":
            return self.element({(0, power, 0): self.field.one()})
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
        return self.field.one() if m == 0 and n == 0 else self.field.zero()

    def antipode_monomial(self, mono):
        return _flatten(self.hopf.antipode_leg(mono))

    def coradical_degree_monomial(self, mono):
        j, m, n = mono
        return hat(m, self._corad_d).hat + hat(n, self._corad_d).hat

    # -- generator-defined maps ------------------------------------------------

    def _alias_values(self, values):
        """Translate E/F/K assignments to values on t, X+, X-."""
        v_t = values["K"]
        v_xp = values["E"]
        v_xm = (self.q - self.q**-1) * values["F"] * values["K"]
        return v_t, v_xp, v_xm

    def check_scalar_map(self, values):
        q = self.q
        k, e, f = values["K"], values["E"], values["F"]
        if not (k * e * (self.field.one() - q**2)).is_zero():
            raise CharacterError("assignment breaks K E = q^2 E K")
        if not (k * f * (self.field.one() - q**-2)).is_zero():
            raise CharacterError("assignment breaks K F = q^-2 F K")
        if k * k != self.field.one():
            raise CharacterError("assignment breaks E F - F E = (K - K^-1)/(q - q^-1)")

    def check_endo_map(self, images):
        q = self.q
        k, e, f = images["K"], images["E"], images["F"]
        try:
            k_inv = invert_element(k)
        except NotInvertibleError as exc:
            raise AutomorphismError("image of K must be a unit") from exc
        if k * e != (e * k).scale(q**2):
            raise AutomorphismError("images break K E = q^2 E K")
        if k * f != (f * k).scale(q**-2):
            raise AutomorphismError("images break K F = q^-2 F K")
        commutator = e * f - f * e
        if commutator != (k - k_inv).scale((q - q**-1).inverse()):
            raise AutomorphismError("images break E F - F E = (K - K^-1)/(q - q^-1)")

    def char_value(self, values, mono):
        j, m, n = mono
        v_t, v_xp, v_xm = self._alias_values(values)
        acc = v_t**j
        acc = acc * v_xp**m
        return acc * v_xm**n

    def map_monomial(self, images, mono):
        j, m, n = mono
        img_t = images["K"]
        img_xm = (images["F"] * images["K"]).scale(self.q - self.q**-1)
        acc = img_t**j
        acc = acc * images["E"] ** m
        return acc * img_xm**n

    def monomial_eigenvalue(self, diag, mono):
        # unlike char_value, the alias scale of X- = (q - q^-1) F t cancels
        # in an eigenvalue: sigma(X-) = diag(F) diag(K) X-
        j, m, n = mono
        return diag["K"] ** j * diag["E"] ** m * (diag["F"] * diag["K"]) ** n

    def grouplike_generators(self):
        return [self.generator("K")]

    # -- display --------------------------------------------------------------

    def display_term(self, mono, c):
        """The term rewritten in the presentation basis E^e F^f K^l."""
        j, m, n = mono
        e, f, l = self._display_exponents(mono)
        q = self.q
        coeff = c * (q - q**-1) ** n * q ** (2 * j * (m - n) - n * (n - 1))
        return coeff, [(name, exp) for name, exp in (("E", e), ("F", f), ("K", l)) if exp]


register_family("uqsl2", lambda field, params: UqSl2Base(field, params["q"]))
