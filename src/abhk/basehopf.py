"""Base Hopf algebra families behind one uniform interface.

Each family exposes a canonical monomial basis, product, coproduct, counit
and antipode, grouplike/central/skew-primitive tests, characters, winding
automorphisms, adjoint actions, a coradical-degree function, and declared
ring-theoretic metadata. Three families live here (univariate polynomials,
Laurent polynomials, and abelian group algebras Z^r x prod Z/m_i); the
quantum-sl2 family is registered from its own module because it is built
out of the extension engine itself.
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

    Dimension entries use None for "infinite" and the string "unknown" is
    never stored here; unknown propagation happens in property reports.
    """

    family: str
    gk_dim: int | None
    gl_dim: int | None
    inj_dim: int | None
    noetherian: bool
    domain: bool
    prime: bool
    semiprime_goldie: bool
    commutative: bool
    cocommutative: bool
    pointed: bool
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

    def char_value(self, values: dict[str, Scalar], mono) -> Scalar:
        acc = self.field.one()
        for name, exp in self.monomial_factors(mono):
            v = values[name]
            if exp < 0:
                v = v.inverse()
                exp = -exp
            acc = acc * v**exp
        return acc

    def map_monomial(self, images: dict[str, "BaseElement"], mono) -> "BaseElement":
        acc = self.one()
        for name, exp in self.monomial_factors(mono):
            img = images[name]
            if exp < 0:
                img = invert_element(img)
                exp = -exp
            acc = acc * img**exp
        return acc

    def monomial_eigenvalue(self, diag: dict[str, Scalar], mono) -> Scalar:
        return self.char_value(diag, mono)

    # -- element constructors ----------------------------------------------

    def element(self, mapping: dict) -> "BaseElement":
        return BaseElement(self, mapping)

    def zero(self) -> "BaseElement":
        return BaseElement(self, {})

    # one shared unit per algebra instance: the containers are immutable
    @cached_property
    def _one(self) -> "BaseElement":
        return BaseElement(self, {self.one_monomial(): self.field.one()})

    def one(self) -> "BaseElement":
        return self._one

    def from_scalar(self, c: Scalar) -> "BaseElement":
        return BaseElement(self, {self.one_monomial(): c})

    def generator_elements(self) -> list["BaseElement"]:
        return [self.generator(info.name) for info in self.generator_info()]

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

    Invariant: no zero coefficient is ever stored. The constructor filters
    its mapping, ``combine`` drops a key the moment its sum reaches zero,
    and negation or scaling by a nonzero scalar cannot create a zero over
    a field. So ``is_zero`` is an empty dict and ``==`` compares the dicts.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, mapping: dict):
        self.algebra = algebra
        self.coeffs = {k: c for k, c in mapping.items() if not c.is_zero()}

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
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"


class BaseElement(Sparse):
    """Finitely supported Scalar combination of canonical basis monomials."""

    __slots__ = ()

    def coeff(self, mono) -> Scalar:
        return self.coeffs.get(mono, self.algebra.field.zero())

    def terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: self.algebra.monomial_sort_key(kv[0]))

    def __mul__(self, other):
        if not isinstance(other, Sparse):
            return self.__rmul__(other)
        self._check(other)
        out: dict = {}  # summed inline, zeros dropped at the end: the hottest loop
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                c = c1 * c2
                for m, extra in self.algebra.mul_monomials(m1, m2).items():
                    v = c * extra
                    s = out.get(m)
                    out[m] = v if s is None else s + v
        return BaseElement(self.algebra, out)

    def __pow__(self, n: int):
        if n < 0:
            return invert_element(self) ** (-n)
        acc = self.algebra.one()
        for _ in range(n):
            acc = acc * self
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


def scalar_multiple_of(a: BaseElement, b: BaseElement) -> Scalar | None:
    """The scalar c with a == c*b, or None when a is not a multiple of b."""
    if a.is_zero():
        return a.algebra.field.zero()
    if b.is_zero():
        return None
    mono, coeff = next(iter(b.coeffs.items()))
    c = a.coeff(mono) * coeff.inverse()
    return c if a == b.scale(c) else None


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
        return cls(a.algebra, out)

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

    def contract_left(self, chi: "Character") -> BaseElement:
        """Apply chi (x) id."""
        return BaseElement(self.algebra, combine(
            (m2, c * chi.on_monomial(m1)) for (m1, m2), c in self.coeffs.items()))

    def contract_right(self, chi: "Character") -> BaseElement:
        """Apply id (x) chi."""
        return BaseElement(self.algebra, combine(
            (m1, c * chi.on_monomial(m2)) for (m1, m2), c in self.coeffs.items()))


# ---------------------------------------------------------------------------
# structure maps on elements


def base_delta(a: BaseElement) -> BaseTensor:
    delta_monomial = a.algebra.delta_monomial
    return BaseTensor(a.algebra, combine(
        (key, c * extra)
        for mono, c in a.coeffs.items() for key, extra in delta_monomial(mono).items()))


def base_counit(a: BaseElement) -> Scalar:
    acc = a.algebra.field.zero()
    for mono, c in a.coeffs.items():
        acc = acc + c * a.algebra.counit_monomial(mono)
    return acc


def base_antipode(a: BaseElement) -> BaseElement:
    antipode_monomial = a.algebra.antipode_monomial
    return BaseElement(a.algebra, combine(
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
    return all(a * g == g * a for g in a.algebra.generator_elements())


def is_skew_primitive(a: BaseElement, g: BaseElement, w: BaseElement) -> bool:
    """Whether Delta(a) == a (x) g + w (x) a, for grouplike g and w."""
    if not (is_grouplike(g) and is_grouplike(w)):
        raise CharacterError("skew-primitive test needs grouplike g and w")
    expected = BaseTensor.of(a, g) + BaseTensor.of(w, a)
    return base_delta(a) == expected


# ---------------------------------------------------------------------------
# characters, windings, adjoints


class Character:
    """Algebra homomorphism R -> k, given by its values on generators."""

    def __init__(self, algebra: BaseAlgebra, values: dict[str, Scalar]):
        names = {info.name for info in algebra.generator_info()}
        if set(values) != names:
            missing = names - set(values)
            extra = set(values) - names
            raise CharacterError(f"character must assign exactly {sorted(names)}; "
                                 f"missing {sorted(missing)}, unexpected {sorted(extra)}")
        for info in algebra.generator_info():
            if info.invertible and values[info.name].is_zero():
                raise CharacterError(f"character must be nonzero on unit generator {info.name}")
        algebra.check_scalar_map(values)
        self.algebra = algebra
        self.values = dict(values)

    def on_monomial(self, mono) -> Scalar:
        return self.algebra.char_value(self.values, mono)

    def __call__(self, a: BaseElement) -> Scalar:
        if a.algebra != self.algebra:
            raise AlgebraMismatchError("character applied to foreign element")
        acc = self.algebra.field.zero()
        for mono, c in a.coeffs.items():
            acc = acc + c * self.on_monomial(mono)
        return acc

    def compose_antipode(self) -> "Character":
        values = {}
        for info in self.algebra.generator_info():
            values[info.name] = self(base_antipode(self.algebra.generator(info.name)))
        return Character(self.algebra, values)


def winding_left(chi: Character, a: BaseElement) -> BaseElement:
    """The left winding map: a |-> sum chi(a_1) a_2."""
    return base_delta(a).contract_left(chi)


def winding_right(chi: Character, a: BaseElement) -> BaseElement:
    """The right winding map: a |-> sum a_1 chi(a_2)."""
    return base_delta(a).contract_right(chi)


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
    generator images of its inverse; both directions are verified.

    ``apply`` keeps two caches. A diagonal automorphism (every generator
    an eigenvector) scales each monomial, and ``_cache`` holds the
    eigenvalue of sigma**power under the key (mono, power). Otherwise
    ``_image_cache`` holds the image of a monomial under sigma or sigma^-1
    under the key (mono, +-1). The inverse checks run before ``diagonal``
    is known, through the image path.
    """

    def __init__(self, algebra: BaseAlgebra, images: dict[str, BaseElement],
                 inverse_images: dict[str, BaseElement]):
        names = [info.name for info in algebra.generator_info()]
        if set(images) != set(names) or set(inverse_images) != set(names):
            raise AutomorphismError("automorphism must assign every generator")
        algebra.check_endo_map(images)
        algebra.check_endo_map(inverse_images)
        self.algebra = algebra
        self.images = dict(images)
        self.inverse_images = dict(inverse_images)
        self._cache: dict = {}
        self._image_cache: dict = {}
        self.diagonal = None
        for name in names:
            gen = algebra.generator(name)
            if self.apply(self.apply(gen, -1), 1) != gen:
                raise AutomorphismError(f"inverse images do not invert on {name}")
            if self.apply(self.apply(gen, 1), -1) != gen:
                raise AutomorphismError(f"images do not invert on {name}")
        self.diagonal = self._diagonal_values()

    def _diagonal_values(self) -> dict[str, Scalar] | None:
        diag = {}
        for info in self.algebra.generator_info():
            gen = self.algebra.generator(info.name)
            img = self.images[info.name]
            if len(img.coeffs) != 1 or len(gen.coeffs) != 1:
                return None
            (mono, c), = img.coeffs.items()
            (gen_mono, gen_c), = gen.coeffs.items()
            if mono != gen_mono:
                return None
            diag[info.name] = c * gen_c.inverse()
        return diag

    def apply(self, a: BaseElement, power: int = 1) -> BaseElement:
        """Apply sigma**power (negative powers use the inverse images)."""
        if a.algebra is not self.algebra and a.algebra != self.algebra:
            raise AlgebraMismatchError("automorphism applied to foreign element")
        if power == 0 or a.is_zero():
            return a
        if self.diagonal is not None:
            out = {}
            for mono, c in a.coeffs.items():
                key = (mono, power)
                eig = self._cache.get(key)
                if eig is None:
                    eig = self.algebra.monomial_eigenvalue(self.diagonal, mono) ** power
                    self._cache[key] = eig
                out[mono] = c * eig
            return BaseElement(self.algebra, out)
        images = self.images if power > 0 else self.inverse_images
        out = self.algebra.zero()
        for mono, c in a.coeffs.items():
            key = (mono, 1 if power > 0 else -1)
            img = self._image_cache.get(key)
            if img is None:
                img = self.algebra.map_monomial(images, mono)
                self._image_cache[key] = img
            out = out + img.scale(c)
        if abs(power) > 1:
            return self.apply(out, power - 1 if power > 0 else power + 1)
        return out

    def is_identity(self) -> bool:
        return all(
            self.images[info.name] == self.algebra.generator(info.name)
            for info in self.algebra.generator_info()
        )

    def equals_on_generators(self, other: "BaseAutomorphism") -> bool:
        return all(
            self.images[info.name] == other.images[info.name]
            for info in self.algebra.generator_info()
        )


def winding_automorphism_left(chi: Character) -> BaseAutomorphism:
    """tau^l_chi as a materialized automorphism; its inverse is the left
    winding by chi o S."""
    alg = chi.algebra
    chi_s = chi.compose_antipode()
    images = {}
    inverse_images = {}
    for info in alg.generator_info():
        gen = alg.generator(info.name)
        images[info.name] = winding_left(chi, gen)
        inverse_images[info.name] = winding_left(chi_s, gen)
    return BaseAutomorphism(alg, images, inverse_images)


# ---------------------------------------------------------------------------
# the commutative families


class PolynomialBase(BaseAlgebra):
    """k[t] with t primitive; monomials are exponents n >= 0."""

    family = "polynomial"

    def __init__(self, field: Field):
        self.field = field
        self.descriptor = BaseDescriptor(
            family=self.family, gk_dim=1, gl_dim=1, inj_dim=1,
            noetherian=True, domain=True, prime=True, semiprime_goldie=True,
            commutative=True, cocommutative=True, pointed=True,
            affine_commutative_domain=True, as_gorenstein=True, as_regular=True,
            auslander_gorenstein=True, auslander_regular=True,
        )

    def key(self):
        return (self.family, self.field)

    def one_monomial(self):
        return 0

    def generator_info(self):
        return [GeneratorInfo("t", False)]

    def generator(self, name, power=1):
        if name != "t":
            raise KeyError(name)
        if power < 0:
            raise NotInvertibleError("t is not invertible in the polynomial family")
        return self.element({power: self.field.one()})

    def monomial_factors(self, mono):
        return [("t", mono)] if mono else []

    def monomial_sort_key(self, mono):
        return (mono,)

    def invert_monomial(self, mono):
        return 0 if mono == 0 else None

    def mul_monomials(self, a, b):
        return {a + b: self.field.one()}

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

    def check_scalar_map(self, values):
        pass  # t is free: every scalar assignment is a character

    def check_endo_map(self, images):
        pass

    def grouplike_generators(self):
        return []  # G(k[t]) = {1}


class LaurentBase(BaseAlgebra):
    """k[t, t^-1] with t grouplike; monomials are integers."""

    family = "laurent"

    def __init__(self, field: Field):
        self.field = field
        self.descriptor = BaseDescriptor(
            family=self.family, gk_dim=1, gl_dim=1, inj_dim=1,
            noetherian=True, domain=True, prime=True, semiprime_goldie=True,
            commutative=True, cocommutative=True, pointed=True,
            affine_commutative_domain=True, as_gorenstein=True, as_regular=True,
            auslander_gorenstein=True, auslander_regular=True,
        )

    def key(self):
        return (self.family, self.field)

    def one_monomial(self):
        return 0

    def generator_info(self):
        return [GeneratorInfo("t", True)]

    def generator(self, name, power=1):
        if name != "t":
            raise KeyError(name)
        return self.element({power: self.field.one()})

    def monomial_factors(self, mono):
        return [("t", mono)] if mono else []

    def monomial_sort_key(self, mono):
        return (abs(mono), -mono)

    def invert_monomial(self, mono):
        return -mono

    def mul_monomials(self, a, b):
        return {a + b: self.field.one()}

    def delta_monomial(self, mono):
        return {(mono, mono): self.field.one()}

    def counit_monomial(self, mono):
        return self.field.one()

    def antipode_monomial(self, mono):
        return {-mono: self.field.one()}

    def coradical_degree_monomial(self, mono):
        return 0  # group algebras are cosemisimple

    def check_scalar_map(self, values):
        if values["t"].is_zero():
            raise CharacterError("character of laurent must be nonzero on t")

    def check_endo_map(self, images):
        try:
            invert_element(images["t"])
        except NotInvertibleError as exc:
            raise AutomorphismError("image of t must be a unit") from exc

    def grouplike_generators(self):
        return [self.generator("t")]


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
            family=self.family, gk_dim=rank, gl_dim=rank, inj_dim=rank,
            noetherian=True, domain=not has_torsion, prime=not has_torsion,
            semiprime_goldie=True, commutative=True, cocommutative=True,
            pointed=True, affine_commutative_domain=not has_torsion,
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
        for name, v in values.items():
            if v.is_zero():
                raise CharacterError(f"character of group algebra must be nonzero on {name}")

    def check_endo_map(self, images):
        for info in self.generator_info():
            try:
                invert_element(images[info.name])
            except NotInvertibleError as exc:
                raise AutomorphismError(f"image of {info.name} must be a unit") from exc
        for i, m in enumerate(self.torsion):
            img = images[f"g{self.rank + i + 1}"]
            if img**m != self.one():
                raise AutomorphismError(
                    f"image of g{self.rank + i + 1} must have order dividing {m}"
                )

    def grouplike_generators(self):
        return self.generator_elements()


# ---------------------------------------------------------------------------
# family registry (the quantum-sl2 family registers itself on import)

FAMILY_BUILDERS: dict = {
    "polynomial": lambda field, params: PolynomialBase(field),
    "laurent": lambda field, params: LaurentBase(field),
    "group": lambda field, params: GroupBase(
        field, params.get("rank", 0), tuple(params.get("torsion", ()))
    ),
}


def register_family(name: str, builder) -> None:
    FAMILY_BUILDERS[name] = builder


def make_base(name: str, field: Field, **params) -> BaseAlgebra:
    try:
        builder = FAMILY_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown base family {name!r}; known: {sorted(FAMILY_BUILDERS)}")
    return builder(field, params)
