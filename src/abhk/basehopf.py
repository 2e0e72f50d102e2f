"""Base Hopf algebra families behind one uniform interface.

Each family exposes a canonical monomial basis, product, coproduct, counit
and antipode, grouplike and central tests, characters, winding
automorphisms, adjoint actions, a coradical-degree function, and declared
ring-theoretic metadata. Three families live here (univariate polynomials,
Laurent polynomials, and abelian group algebras Z^r x prod Z/m_i); the
quantum-sl2 family lives in its own module because it is built out of the
extension engine itself. The spec's family names are mapped to these
classes in one table, ``exprparse._FAMILIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AlgebraMismatchError,
    AutomorphismError,
    CharacterError,
    NotInvertibleError,
)
from .scalar import Field, Scalar


@dataclass(frozen=True)
class BaseDescriptor:
    """Declared invariants of a base family.

    Every family declares finite dimensions; "unknown" is never stored
    here, and unknown propagation happens in property reports.
    """

    gk_dim: int
    gl_dim: int
    inj_dim: int
    noetherian: bool
    domain: bool
    prime: bool
    semiprime_goldie: bool
    affine_commutative_domain: bool
    as_gorenstein: bool
    as_regular: bool
    auslander_gorenstein: bool
    auslander_regular: bool


@dataclass(frozen=True)
class GeneratorInfo:
    name: str
    invertible: bool


class BaseAlgebra:
    """Uniform interface over the base Hopf algebra families."""

    family: str
    field: Field
    descriptor: BaseDescriptor

    # -- identification ----------------------------------------------------

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, BaseAlgebra) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- basis -------------------------------------------------------------

    def one_monomial(self):
        raise NotImplementedError

    def generator_info(self) -> list[GeneratorInfo]:
        raise NotImplementedError

    def generator(self, name: str, power: int = 1) -> "BaseElement":
        raise NotImplementedError

    @cached_property
    def generators(self) -> dict[str, "BaseElement"]:
        """Generator name -> generator element, in ``generator_info()``
        order. The table is built once per algebra and its elements are
        shared: like every container they are never mutated."""
        return {info.name: self.generator(info.name) for info in self.generator_info()}

    @cached_property
    def unit_generators(self) -> tuple[str, ...]:
        """Names of the generators ``generator_info()`` flags invertible, in
        its order, read once per algebra like ``generators``."""
        return tuple(info.name for info in self.generator_info() if info.invertible)

    def monomial_factors(self, mono) -> list[tuple[str, int]]:
        """The monomial written as an ordered product of generator powers."""
        raise NotImplementedError

    def monomial_sort_key(self, mono):
        raise NotImplementedError

    def invert_monomial(self, mono):
        """Inverse basis monomial, or None when the monomial is not a unit."""
        raise NotImplementedError

    # -- structure maps ----------------------------------------------------

    def mul_monomials(self, a, b) -> dict:
        """Product of two basis monomials as a monomial->Scalar mapping."""
        raise NotImplementedError

    def delta_monomial(self, mono) -> dict:
        """Coproduct of a basis monomial as a (mono, mono)->Scalar mapping."""
        raise NotImplementedError

    def counit_monomial(self, mono) -> Scalar:
        raise NotImplementedError

    def antipode_monomial(self, mono) -> dict:
        raise NotImplementedError

    def coradical_degree_monomial(self, mono) -> int:
        raise NotImplementedError

    # -- maps defined on generators ------------------------------------------

    def check_scalar_map(self, values: dict[str, Scalar]) -> None:
        """Raise CharacterError unless the assignment respects every
        defining relation of the family."""
        raise NotImplementedError

    def check_endo_map(self, images: dict[str, "BaseElement"]) -> None:
        """Raise AutomorphismError unless generator images respect every
        defining relation of the family."""
        raise NotImplementedError

    def evaluate(self, assignment: dict, mono, one):
        """The monomial with each generator replaced by its value under
        ``assignment`` (scalars or elements of R, keyed like ``generators``),
        multiplied from ``one`` in the order of ``monomial_factors``; a
        negative exponent inverts the value, as ``Scalar`` and
        ``BaseElement`` powers do. No value is mutated, so the shared
        ``generators`` table, built once in ``generator_info()`` order,
        can itself serve as an assignment."""
        acc = one
        for name, exp in self.monomial_factors(mono):
            acc = acc * assignment[name] ** exp
        return acc

    def monomial_eigenvalue(self, diag: dict[str, Scalar], mono) -> Scalar:
        return self.evaluate(diag, mono, self.field.one())

    # -- element constructors ----------------------------------------------

    def element(self, mapping: dict) -> "BaseElement":
        return BaseElement(self, mapping)

    def zero(self) -> "BaseElement":
        return BaseElement._of(self, {})

    # one shared unit per algebra instance: the containers are immutable
    @cached_property
    def _one(self) -> "BaseElement":
        return BaseElement(self, {self.one_monomial(): self.field.one()})

    def one(self) -> "BaseElement":
        return self._one

    def from_scalar(self, c: Scalar) -> "BaseElement":
        return BaseElement(self, {self.one_monomial(): c})

    def grouplike_generators(self) -> list["BaseElement"]:
        """Generators of the grouplike group G(R) declared by the family."""
        raise NotImplementedError

    def display_term(self, mono, c: Scalar) -> tuple[Scalar, list[tuple[str, int]]]:
        """The term c * mono as it is printed: a coefficient and the
        [(generator, exponent), ...] factors that follow it. A family whose
        printed generators are not its monomial's factors rescales c here."""
        return c, self.monomial_factors(mono)


def combine(terms, out: dict | None = None) -> dict:
    """Sum ``(key, coeff)`` pairs into ``out`` (a fresh dict by default).

    A key is dropped as soon as its running sum is zero, so the result
    holds no zero coefficient and a later term for that key starts afresh
    instead of being added to zero.
    """
    if out is None:
        out = {}
    get = out.get
    for key, c in terms:
        s = get(key)
        if s is not None:
            c = s + c
        if c.is_zero():
            out.pop(key, None)
        else:
            out[key] = c
    return out


class Sparse:
    """A finitely supported combination: ``coeffs`` maps basis keys to
    coefficients, over ``algebra``.

    Invariant: no zero coefficient is ever stored, so ``is_zero`` is an
    empty dict and ``==`` compares the dicts. Only the public constructor
    ``Sparse(algebra, mapping)`` filters: it serves mappings whose values
    may be zero. ``_of`` and ``_new`` store their dict as given, and serve
    builders that cannot produce a zero. Skipping the filter there is
    exact: over a field a product of nonzero scalars is nonzero, so only
    a sum can cancel, and every such builder checks its sums as it forms
    them (``combine``, or an inline loop that drops a key the moment its
    running sum reaches zero). Negation and scaling by a nonzero scalar
    cannot create a zero either.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, mapping: dict):
        self.algebra = algebra
        self.coeffs = {k: c for k, c in mapping.items() if not c.is_zero()}

    @classmethod
    def _of(cls, algebra, coeffs: dict):
        """A container over ``algebra`` holding ``coeffs``, which must
        already be free of zeros."""
        new = object.__new__(cls)
        new.algebra = algebra
        new.coeffs = coeffs
        return new

    def _new(self, coeffs: dict):
        """A container of the same kind over the same algebra holding
        ``coeffs``, which must already be free of zeros."""
        new = object.__new__(self.__class__)
        new.algebra = self.algebra
        new.coeffs = coeffs
        return new

    def _check(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError(
                f"{type(self).__name__} operands belong to different algebras")

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return self.coeffs.keys()

    def __add__(self, other):
        self._check(other)
        return self._new(combine(other.coeffs.items(), dict(self.coeffs)))

    def __neg__(self):
        return self._new({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        if c.is_zero():
            return self._new({})
        return self._new({k: v * c for k, v in self.coeffs.items()})

    def __rmul__(self, other):
        # scalars are central: c * x == x * c == x.scale(c)
        if isinstance(other, int):
            other = self.algebra.field.from_int(other)
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            return False
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"


class BaseElement(Sparse):
    """Finitely supported Scalar combination of canonical basis monomials.

    A product with the unit as either factor returns the other operand
    itself, with no kernel loop. The unit is recognised by its coeffs,
    ``{one_monomial: 1}``, equal to those of ``algebra._one``. This is
    exact: by the unit law ``mul_monomials(1, m) = mul_monomials(m, 1) =
    {m: 1}``, and ``Scalar.__mul__`` returns the other operand for a unit
    factor, so the loop would build the other operand's dict, in the same
    order, with the same scalars. ``x**n`` takes n - 1 products starting
    from x, so it never multiplies by the unit either.

    Inside the loop, a scalar that *is* the field's shared one, as a
    coefficient or as a ``mul_monomials`` structure coefficient, is not
    multiplied: ``Scalar.__mul__`` would return the other factor itself.
    """

    __slots__ = ()

    def coeff(self, mono) -> Scalar:
        return self.coeffs.get(mono, self.algebra.field.zero())

    def terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: self.algebra.monomial_sort_key(kv[0]))

    def __mul__(self, other):
        if not isinstance(other, Sparse):
            return self.__rmul__(other)
        self._check(other)
        one = self.algebra._one.coeffs
        if other.coeffs == one:
            return self
        if self.coeffs == one:
            return other
        unit, words = self.algebra.field._one, self.algebra.mul_monomials
        out: dict = {}  # the combine loop written inline: the hottest loop
        get = out.get
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                c = c2 if c1 is unit else c1 if c2 is unit else c1 * c2
                for m, extra in words(m1, m2).items():
                    v = c if extra is unit else c * extra  # nonzero: only the sum can cancel
                    s = get(m)
                    if s is None:
                        out[m] = v
                    elif (v := s + v).is_zero():
                        del out[m]
                    else:
                        out[m] = v
        return self._new(out)

    def __pow__(self, n: int):
        if n < 0:
            return invert_element(self) ** (-n)
        return nonnegative_power(self, n)


def nonnegative_power(x: Sparse, n: int) -> Sparse:
    """x**n for n >= 0: the unit for n = 0, else n - 1 products from x,
    each multiplying the running product by x on the right."""
    if n == 0:
        return x.algebra.one()
    acc = x
    for _ in range(n - 1):
        acc = acc * x
    return acc


def invert_element(a: BaseElement) -> BaseElement:
    """Invert a unit of the form scalar * (invertible monomial)."""
    if len(a.coeffs) != 1:
        raise NotInvertibleError("only single-term elements can be inverted")
    (mono, c), = a.coeffs.items()
    inv = a.algebra.invert_monomial(mono)
    if inv is None:
        raise NotInvertibleError("monomial is not a unit in this family")
    return BaseElement(a.algebra, {inv: c.inverse()})


class BaseTensor(Sparse):
    """Finitely supported element of R (x) R over pairs of basis monomials."""

    __slots__ = ()

    @classmethod
    def of(cls, a: BaseElement, b: BaseElement) -> "BaseTensor":
        a._check(b)
        out = {}
        for m1, c1 in a.coeffs.items():
            for m2, c2 in b.coeffs.items():
                out[(m1, m2)] = c1 * c2
        return cls._of(a.algebra, out)

    def __mul__(self, other):
        if not isinstance(other, Sparse):
            return self.__rmul__(other)
        self._check(other)
        alg = self.algebra
        out: dict = {}
        for (a1, a2), c1 in self.coeffs.items():
            for (b1, b2), c2 in other.coeffs.items():
                c = c1 * c2
                left = alg.mul_monomials(a1, b1)
                right = alg.mul_monomials(a2, b2)
                combine((((m1, m2), c * e1 * e2)
                         for m1, e1 in left.items() for m2, e2 in right.items()), out)
        return self._new(out)


# ---------------------------------------------------------------------------
# structure maps on elements


def base_delta(a: BaseElement) -> BaseTensor:
    delta_monomial = a.algebra.delta_monomial
    return BaseTensor._of(a.algebra, combine(
        (key, c * extra)
        for mono, c in a.coeffs.items() for key, extra in delta_monomial(mono).items()))


def base_counit(a: BaseElement) -> Scalar:
    acc = a.algebra.field.zero()
    for mono, c in a.coeffs.items():
        acc = acc + c * a.algebra.counit_monomial(mono)
    return acc


def base_antipode(a: BaseElement) -> BaseElement:
    antipode_monomial = a.algebra.antipode_monomial
    return a._new(combine(
        (m, c * extra)
        for mono, c in a.coeffs.items() for m, extra in antipode_monomial(mono).items()))


def base_coradical_degree(a: BaseElement) -> int:
    if a.is_zero():
        raise ValueError("coradical degree of zero is undefined")
    return max(a.algebra.coradical_degree_monomial(m) for m in a.support())


def is_grouplike(a: BaseElement) -> bool:
    if a.is_zero():
        return False
    return base_delta(a) == BaseTensor.of(a, a) and base_counit(a).is_one()


def is_central(a: BaseElement) -> bool:
    return all(a * g == g * a for g in a.algebra.generators.values())


# ---------------------------------------------------------------------------
# characters, windings, adjoints


class Character:
    """Algebra homomorphism R -> k, given by its values on generators."""

    def __init__(self, algebra: BaseAlgebra, values: dict[str, Scalar]):
        names = set(algebra.generators)
        if set(values) != names:
            missing = names - set(values)
            extra = set(values) - names
            raise CharacterError(f"character must assign exactly {sorted(names)}; "
                                 f"missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name in algebra.unit_generators:
            if values[name].is_zero():
                raise CharacterError(f"character must be nonzero on unit generator {name}")
        algebra.check_scalar_map(values)
        self.algebra = algebra
        self.values = dict(values)
        self._on_monomial: dict = {}  # a character never changes: memo per monomial

    def on_monomial(self, mono) -> Scalar:
        value = self._on_monomial.get(mono)
        if value is None:
            value = self._on_monomial[mono] = self.algebra.evaluate(
                self.values, mono, self.algebra.field.one())
        return value

    def __call__(self, a: BaseElement) -> Scalar:
        if a.algebra != self.algebra:
            raise AlgebraMismatchError("character applied to foreign element")
        acc = self.algebra.field.zero()
        for mono, c in a.coeffs.items():
            acc = acc + c * self.on_monomial(mono)
        return acc

    def compose_antipode(self) -> "Character":
        return Character(self.algebra, {
            name: self(base_antipode(g)) for name, g in self.algebra.generators.items()})


def winding_left(chi: Character, a: BaseElement) -> BaseElement:
    """The left winding map: a |-> sum chi(a_1) a_2, chi (x) id on Delta(a)."""
    return BaseElement._of(a.algebra, combine(
        (m2, c * chi.on_monomial(m1)) for (m1, m2), c in base_delta(a).coeffs.items()))


def winding_right(chi: Character, a: BaseElement) -> BaseElement:
    """The right winding map: a |-> sum a_1 chi(a_2), id (x) chi on Delta(a)."""
    return BaseElement._of(a.algebra, combine(
        (m1, c * chi.on_monomial(m2)) for (m1, m2), c in base_delta(a).coeffs.items()))


def adjoint_left(y: BaseElement, a: BaseElement) -> BaseElement:
    """ad_l(y)(a) = sum y_1 a S(y_2)."""
    y._check(a)
    alg = y.algebra
    acc = alg.zero()
    for (m1, m2), c in base_delta(y).coeffs.items():
        left = BaseElement(alg, {m1: c})
        right = base_antipode(BaseElement(alg, {m2: alg.field.one()}))
        acc = acc + left * a * right
    return acc


def adjoint_right(y: BaseElement, a: BaseElement) -> BaseElement:
    """ad_r(y)(a) = sum S(y_1) a y_2."""
    y._check(a)
    alg = y.algebra
    acc = alg.zero()
    for (m1, m2), c in base_delta(y).coeffs.items():
        left = base_antipode(BaseElement(alg, {m1: c}))
        right = BaseElement(alg, {m2: alg.field.one()})
        acc = acc + left * a * right
    return acc


class BaseAutomorphism:
    """Algebra automorphism of R stored as generator images plus the
    generator images of its inverse.

    Both maps are checked to be endomorphisms, and sigma(sigma^-1(g)) = g
    on every generator g. That makes sigma surjective, and a surjective
    endomorphism of a noetherian ring is injective (the kernels of its
    powers stop growing), so sigma^-1 is its inverse on both sides: every
    base family is noetherian, and the other composite needs no check.

    ``apply`` keeps two caches. A diagonal automorphism (every generator
    an eigenvector) scales each monomial, and ``_cache`` holds the
    eigenvalue of sigma**power under the key (mono, power); a negative
    power raises the cached eigenvalue under (mono, -1) to |power|, so each
    monomial's eigenvalue is inverted once. An eigenvalue equal to 1 is
    stored as the field's shared one, and the diagonal loop does not
    multiply by it. Otherwise ``_image_cache``
    holds the image of a monomial under sigma or sigma^-1 under the key
    (mono, +-1).

    The inverse checks need no image when every generator is one monomial
    g = d mono that both ``images`` and ``inverse_images`` send to a
    multiple of itself, c mono and c' mono: then sigma and sigma^-1 scale
    mono by c/d and c'/d, the composite sends g to (c c'/d) mono, and the
    check reads c c' == d^2. Any other automorphism is checked through the
    image path, before ``diagonal`` is set.
    """

    def __init__(self, algebra: BaseAlgebra, images: dict[str, BaseElement],
                 inverse_images: dict[str, BaseElement]):
        gens = algebra.generators
        if set(images) != gens.keys() or set(inverse_images) != gens.keys():
            raise AutomorphismError("automorphism must assign every generator")
        algebra.check_endo_map(images)
        algebra.check_endo_map(inverse_images)
        self.algebra = algebra
        self.images = dict(images)
        self.inverse_images = dict(inverse_images)
        self._cache: dict = {}
        self._image_cache: dict = {}
        self.diagonal = None
        forward = _scalar_images(gens, self.images)
        backward = None if forward is None else _scalar_images(gens, self.inverse_images)
        for name, gen in gens.items():
            if backward is not None:
                (d, c), (_, c_inv) = forward[name], backward[name]
                if c * c_inv != d * d:
                    raise AutomorphismError(f"inverse images do not invert on {name}")
                continue
            if self.apply(self.apply(gen, -1), 1) != gen:
                raise AutomorphismError(f"inverse images do not invert on {name}")
        if forward is not None:
            self.diagonal = {name: c * d.inverse() for name, (d, c) in forward.items()}

    def apply(self, a: BaseElement, power: int = 1) -> BaseElement:
        """Apply sigma**power (negative powers use the inverse images)."""
        if a.algebra is not self.algebra and a.algebra != self.algebra:
            raise AlgebraMismatchError("automorphism applied to foreign element")
        if power == 0 or a.is_zero():
            return a
        if self.diagonal is not None:
            out = {}
            cache, one = self._cache, self.algebra.field._one
            for mono, c in a.coeffs.items():
                key = (mono, power)
                eig = cache.get(key)
                if eig is None:
                    if power > 0:
                        eig = self.algebra.monomial_eigenvalue(self.diagonal, mono) ** power
                    else:
                        eig = cache.get((mono, -1))
                        if eig is None:
                            eig = self.algebra.monomial_eigenvalue(self.diagonal, mono).inverse()
                            cache[(mono, -1)] = eig
                        eig = eig ** -power
                    cache[key] = eig = one if eig.is_one() else eig
                # eigenvalues of an automorphism are nonzero
                out[mono] = c if eig is one else c * eig
            return BaseElement._of(self.algebra, out)
        images = self.images if power > 0 else self.inverse_images
        out = self.algebra.zero()
        for mono, c in a.coeffs.items():
            key = (mono, 1 if power > 0 else -1)
            img = self._image_cache.get(key)
            if img is None:
                img = self.algebra.evaluate(images, mono, self.algebra.one())
                self._image_cache[key] = img
            out = out + img.scale(c)
        if abs(power) > 1:
            return self.apply(out, power - 1 if power > 0 else power + 1)
        return out

    def is_identity(self) -> bool:
        return all(self.images[name] == g for name, g in self.algebra.generators.items())

    def equals_on_generators(self, other: "BaseAutomorphism") -> bool:
        return all(self.images[name] == other.images[name] for name in self.algebra.generators)


def _scalar_images(gens: dict[str, BaseElement], images: dict[str, BaseElement]):
    """name -> (d, c) when every generator is one term d mono that
    ``images`` sends to one term c mono; else None."""
    out = {}
    for name, gen in gens.items():
        img = images[name].coeffs
        if len(gen.coeffs) != 1 or len(img) != 1:
            return None
        (mono, d), = gen.coeffs.items()
        c = img.get(mono)
        if c is None:
            return None
        out[name] = (d, c)
    return out


def winding_automorphism_left(chi: Character) -> BaseAutomorphism:
    """tau^l_chi as a materialized automorphism; its inverse is the left
    winding by chi o S."""
    alg = chi.algebra
    chi_s = chi.compose_antipode()
    gens = alg.generators
    return BaseAutomorphism(alg, {name: winding_left(chi, g) for name, g in gens.items()},
                            {name: winding_left(chi_s, g) for name, g in gens.items()})


# ---------------------------------------------------------------------------
# the commutative families


class OneVariableBase(BaseAlgebra):
    """The code k[t] and k[t, t^-1] share: monomials are the exponents of
    t, multiplied by adding them, and both are one-dimensional affine
    commutative domains."""

    def __init__(self, field: Field):
        self.field = field
        self.descriptor = BaseDescriptor(
            gk_dim=1, gl_dim=1, inj_dim=1,
            noetherian=True, domain=True, prime=True, semiprime_goldie=True,
            affine_commutative_domain=True, as_gorenstein=True, as_regular=True,
            auslander_gorenstein=True, auslander_regular=True,
        )

    def key(self):
        return (self.family, self.field)

    def one_monomial(self):
        return 0

    def generator(self, name, power=1):
        if name != "t":
            raise KeyError(name)
        return self.element({power: self.field.one()})

    def monomial_factors(self, mono):
        return [("t", mono)] if mono else []

    def mul_monomials(self, a, b):
        return {a + b: self.field.one()}

    def check_scalar_map(self, values):
        pass  # t is free, or a unit on which Character refuses zero


class PolynomialBase(OneVariableBase):
    """k[t] with t primitive; monomials are exponents n >= 0."""

    family = "polynomial"

    def generator_info(self):
        return [GeneratorInfo("t", False)]

    def generator(self, name, power=1):
        if name == "t" and power < 0:
            raise NotInvertibleError("t is not invertible in the polynomial family")
        return super().generator(name, power)

    def monomial_sort_key(self, mono):
        return (mono,)

    def invert_monomial(self, mono):
        return 0 if mono == 0 else None

    def delta_monomial(self, mono):
        from math import comb

        return {
            (i, mono - i): self.field.from_int(comb(mono, i))
            for i in range(mono + 1)
        }

    def counit_monomial(self, mono):
        return self.field.one() if mono == 0 else self.field.zero()

    def antipode_monomial(self, mono):
        return {mono: self.field.from_int((-1) ** mono)}

    def coradical_degree_monomial(self, mono):
        return mono

    def check_endo_map(self, images):
        pass

    def grouplike_generators(self):
        return []  # G(k[t]) = {1}


class LaurentBase(OneVariableBase):
    """k[t, t^-1] with t grouplike; monomials are integers."""

    family = "laurent"

    def generator_info(self):
        return [GeneratorInfo("t", True)]

    def monomial_sort_key(self, mono):
        return (abs(mono), -mono)

    def invert_monomial(self, mono):
        return -mono

    def delta_monomial(self, mono):
        return {(mono, mono): self.field.one()}

    def counit_monomial(self, mono):
        return self.field.one()

    def antipode_monomial(self, mono):
        return {-mono: self.field.one()}

    def coradical_degree_monomial(self, mono):
        return 0  # group algebras are cosemisimple

    def check_endo_map(self, images):
        try:
            invert_element(images["t"])
        except NotInvertibleError as exc:
            raise AutomorphismError("image of t must be a unit") from exc

    def grouplike_generators(self):
        return [self.generators["t"]]


class GroupBase(BaseAlgebra):
    """Group algebra of Z^rank x prod Z/m_i; monomials are exponent tuples
    with the torsion coordinates reduced mod m_i."""

    family = "group"

    def __init__(self, field: Field, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0 or any(m < 1 for m in torsion):
            raise ValueError("group base needs rank >= 0 and torsion orders >= 1")
        self.field = field
        self.rank = rank
        self.torsion = tuple(torsion)
        has_torsion = any(m > 1 for m in self.torsion)
        self.descriptor = BaseDescriptor(
            gk_dim=rank, gl_dim=rank, inj_dim=rank,
            noetherian=True, domain=not has_torsion, prime=not has_torsion,
            semiprime_goldie=True, affine_commutative_domain=not has_torsion,
            as_gorenstein=True, as_regular=True,
            auslander_gorenstein=True, auslander_regular=True,
        )

    def key(self):
        return (self.family, self.field, self.rank, self.torsion)

    @property
    def ngens(self) -> int:
        return self.rank + len(self.torsion)

    def _reduce(self, exps):
        exps = list(exps)
        for i, m in enumerate(self.torsion):
            exps[self.rank + i] %= m
        return tuple(exps)

    def one_monomial(self):
        return (0,) * self.ngens

    def generator_info(self):
        return [GeneratorInfo(f"g{i + 1}", True) for i in range(self.ngens)]

    def generator(self, name, power=1):
        idx = int(name[1:]) - 1 if name.startswith("g") else -1
        if not 0 <= idx < self.ngens:
            raise KeyError(name)
        exps = [0] * self.ngens
        exps[idx] = power
        return self.element({self._reduce(exps): self.field.one()})

    def monomial_factors(self, mono):
        return [(f"g{i + 1}", e) for i, e in enumerate(mono) if e]

    def monomial_sort_key(self, mono):
        return (sum(abs(e) for e in mono), tuple(-e for e in mono))

    def invert_monomial(self, mono):
        return self._reduce(-e for e in mono)

    def mul_monomials(self, a, b):
        return {self._reduce(x + y for x, y in zip(a, b)): self.field.one()}

    def delta_monomial(self, mono):
        return {(mono, mono): self.field.one()}

    def counit_monomial(self, mono):
        return self.field.one()

    def antipode_monomial(self, mono):
        return {self.invert_monomial(mono): self.field.one()}

    def coradical_degree_monomial(self, mono):
        return 0

    def check_scalar_map(self, values):
        for i, m in enumerate(self.torsion):
            v = values[f"g{self.rank + i + 1}"]
            if not (v**m).is_one():
                raise CharacterError(
                    f"character value on g{self.rank + i + 1} must be an {m}-th root of unity"
                )

    def check_endo_map(self, images):
        for name in self.generators:
            try:
                invert_element(images[name])
            except NotInvertibleError as exc:
                raise AutomorphismError(f"image of {name} must be a unit") from exc
        for i, m in enumerate(self.torsion):
            img = images[f"g{self.rank + i + 1}"]
            if img**m != self.one():
                raise AutomorphismError(
                    f"image of g{self.rank + i + 1} must have order dividing {m}"
                )

    def grouplike_generators(self):
        return list(self.generators.values())
