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

import operator
from collections import namedtuple
from functools import cached_property
from types import MappingProxyType

from .errors import (
    AlgebraMismatchError,
    AutomorphismError,
    CharacterError,
    NotInvertibleError,
)
from .scalar import Field, Scalar


# Declared invariants of a base family. Every family declares finite
# dimensions; "unknown" is never stored here, and unknown propagation happens
# in property reports.
BaseDescriptor = namedtuple("BaseDescriptor", (
    "gk_dim gl_dim inj_dim noetherian domain prime semiprime_goldie affine_commutative_domain"
    " as_gorenstein as_regular auslander_gorenstein auslander_regular"))
GeneratorInfo = namedtuple("GeneratorInfo", "name invertible grouplike")


class BaseAlgebra:
    """Uniform interface over the base Hopf algebra families.

    Defaults serve every family: the generator tables and
    ``grouplike_generators`` (from one ``generator_info()`` tuple), the
    two checks of generator maps (no relation beyond the units, whose
    images must be units), ``evaluate``, ``monomial_eigenvalue``,
    ``mul_monomials`` and ``display_term``.
    """

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
    def _generator_info(self) -> tuple[GeneratorInfo, ...]:
        """``generator_info()``, called once per algebra."""
        return tuple(self.generator_info())

    @cached_property
    def generators(self) -> dict[str, "BaseElement"]:
        """Generator name -> generator element, in ``generator_info()``
        order. The table is built once per algebra and its elements are
        shared: like every container they are never mutated."""
        return {info.name: self.generator(info.name) for info in self._generator_info}

    @cached_property
    def unit_generators(self) -> tuple[str, ...]:
        """Names of the generators ``generator_info()`` flags invertible, in
        its order, read once per algebra like ``generators``."""
        return tuple(info.name for info in self._generator_info if info.invertible)

    def grouplike_generators(self) -> list["BaseElement"]:
        """Generators of G(R): those ``generator_info()`` flags grouplike, in its order."""
        return [self.generators[info.name] for info in self._generator_info if info.grouplike]

    def monomial_factors(self, mono) -> list[tuple[str, int]]:
        """The monomial written as an ordered product of generator powers."""
        raise NotImplementedError

    def monomial_sort_key(self, mono):
        raise NotImplementedError

    def invert_monomial(self, mono):
        """Inverse basis monomial, or None when the monomial is not a unit."""
        raise NotImplementedError

    # -- structure maps ----------------------------------------------------

    # The structure maps give raw field data, free of zeros, as containers hold it.

    # A fact of the family, not a setting: when the basis monomials form a
    # monoid under the product, so that the product of two monomials is one
    # monomial with coefficient 1, this is that monoid's product (monomial,
    # monomial) -> monomial. ``BaseElement.__mul__`` then keys each product
    # of coefficients by it, with no structure dict. None for a family whose
    # monomial products are sums (U_q(sl2)), which overrides ``mul_monomials``.
    monomial_product = None

    # The values of ``mul_monomials`` the family has already computed, keyed
    # by the pair (a, b): ``BaseElement.__mul__`` reads a pair here and calls
    # ``mul_monomials`` only when it is missing. Empty and read-only for a
    # family that keeps none; U_q(sl2) names its inner extension's
    # ``_leg_cache``, the dict its ``mul_monomials`` fills.
    _mul_cache = MappingProxyType({})

    def mul_monomials(self, a, b) -> dict:
        """Product of two basis monomials as a monomial -> data mapping: by
        default the one monomial ``monomial_product(a, b)`` with coefficient 1."""
        return {self.monomial_product(a, b): self.field._one.data}

    def delta_monomial(self, mono) -> dict:
        """Coproduct of a basis monomial as a (mono, mono) -> data mapping."""
        raise NotImplementedError

    def counit_monomial(self, mono):
        """The counit of a basis monomial as data (zero included)."""
        raise NotImplementedError

    def antipode_monomial(self, mono) -> dict:
        raise NotImplementedError

    def coradical_degree_monomial(self, mono) -> int:
        raise NotImplementedError

    # -- maps defined on generators ------------------------------------------

    def check_scalar_map(self, values: dict[str, Scalar]) -> None:
        """Raise CharacterError unless the assignment respects every
        defining relation of the family. By default there is none beyond
        the units, on which ``Character`` refuses zero."""

    def check_endo_map(self, images: dict[str, "BaseElement"]) -> None:
        """Raise AutomorphismError unless generator images respect every
        defining relation of the family. By default that is the relation
        every family has: the image of each unit generator is a unit."""
        for name in self.unit_generators:
            try:
                invert_element(images[name])
            except NotInvertibleError as exc:
                raise AutomorphismError(f"image of {name} must be a unit") from exc

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

    def display_term(self, mono, c: Scalar) -> tuple[Scalar, list[tuple[str, int]]]:
        """The term c * mono as it is printed: a coefficient and the
        [(generator, exponent), ...] factors that follow it. A family whose
        printed generators are not its monomial's factors rescales c here."""
        return c, self.monomial_factors(mono)

    # -- R as the coefficient ring of A: ``combine`` and ``Sparse`` reach the
    # base coefficients of an ``AmbiElement`` through these, as they reach
    # the raw data of a field through the field's members of the same names

    @cached_property
    def _kernel(self) -> tuple:
        return self._one, operator.mul, operator.add, Sparse.is_zero

    def _unwrap(self, r: "BaseElement") -> "BaseElement":
        if r.algebra is not self and r.algebra != self:
            raise AlgebraMismatchError("element does not live in the base")
        return r

    def _neg(self, a: "BaseElement") -> "BaseElement":
        return -a


def combine(ring, terms, out: dict | None = None) -> dict:
    """Sum ``(key, coeff)`` pairs into ``out`` (a fresh dict by default),
    adding and testing coefficients with the sum and zero test of
    ``ring._kernel``: a field on raw data, or a base algebra on its elements.

    A key is dropped as soon as its running sum is zero, so the result
    holds no zero coefficient and a later term for that key starts afresh
    instead of being added to zero.
    """
    if out is None:
        out = {}
    get = out.get
    _, _, add, is_zero = ring._kernel
    for key, c in terms:
        s = get(key)
        if s is not None:
            c = add(s, c)
        if is_zero(c):
            out.pop(key, None)
        else:
            out[key] = c
    return out


class Sparse:
    """A finitely supported combination: ``coeffs`` maps basis keys to
    coefficients over ``algebra``, in the ring its attribute ``_RING`` names.

    ``BaseElement``, ``BaseTensor`` and ``Tensor`` hold the raw canonical
    data of ``algebra.field``, never a ``Scalar``: their kernels call the
    field's ``_mul``, ``_add`` and ``_is_zero`` (bound once in
    ``field._kernel``) and ``_neg`` on it, and skip a product by one on the
    exact test ``data == field._one.data``. An ``AmbiElement`` holds base
    elements, summed through ``base._kernel``. Raw data does not carry its field
    (Q(zeta_3) and Q(zeta_6) share a layout): the algebra does, and
    ``_check`` refuses a foreign operand. A ``Scalar`` is built only at the
    edges (``coeff``, ``terms``, ``repr``, counits, characters, the
    formatter); one entering through the constructor or ``scale`` is
    unwrapped after a check of its field.

    Invariant: no zero coefficient is ever stored, so ``is_zero`` is an
    empty dict and ``==`` compares the dicts. Only the public constructor
    ``Sparse(algebra, mapping)`` filters: it serves mappings whose values
    may be zero. ``_of`` and ``_new`` store their dict as given, and serve
    builders that cannot produce a zero. Skipping the filter there is
    exact: over a field a product of nonzero scalars is nonzero, so only
    a sum can cancel, and every such builder checks its sums as it forms
    them (``combine``, or an inline loop that drops a key the moment its
    running sum reaches zero). Negation and scaling by a nonzero scalar
    cannot create a zero either, nor can a generator (one monomial with
    coefficient 1). A sum with zero returns the other operand itself, once
    ``_check`` has refused a foreign operand or, for tensors, other legs:
    exact, as the unit short-cuts of the products are, for containers are
    immutable and ``combine`` would rebuild the same dict in the same order.
    """

    __slots__ = ("algebra", "coeffs")
    _RING = "field"

    def __init__(self, algebra, mapping: dict):
        self.algebra = algebra
        ring = getattr(algebra, self._RING)
        unwrap, is_zero = ring._unwrap, ring._kernel[3]
        self.coeffs = {k: v for k, c in mapping.items() if not is_zero(v := unwrap(c))}

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
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        ring = getattr(self.algebra, self._RING)
        return self._new(combine(ring, other.coeffs.items(), dict(self.coeffs)))

    def __neg__(self):
        neg = getattr(self.algebra, self._RING)._neg
        return self._new({k: neg(c) for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        return self._scale(self.algebra.field._unwrap(c))

    def _scale(self, c):
        """The product by the raw data ``c``: self itself when c is one."""
        one, mul, _, is_zero = self.algebra.field._kernel
        if is_zero(c):
            return self._new({})
        if c == one:
            return self
        return self._new({k: c if v == one else mul(v, c) for k, v in self.coeffs.items()})

    def __rmul__(self, other):
        # scalars are central: c * x == x * c == x.scale(c)
        if isinstance(other, int):
            other = self.algebra.field.from_int(other)
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    # x * c for a number c; a subclass with a product of its own overrides it
    __mul__ = __rmul__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            return False
        return self.coeffs == other.coeffs

    def __repr__(self):
        field = self.algebra.field
        scalars = {k: Scalar(field, c) for k, c in self.coeffs.items()}
        return f"{type(self).__name__}({scalars!r})"


class BaseElement(Sparse):
    """Finitely supported combination of canonical basis monomials, with
    raw field data as coefficients.

    A product with the unit as either factor returns the other operand
    itself, with no kernel loop. The unit is recognised by its coeffs,
    ``{one_monomial: 1}``, equal to those of ``algebra._one``. This is
    exact: by the unit law ``mul_monomials(1, m) = mul_monomials(m, 1) =
    {m: 1}``, and the loop skips a product by one, so it would build the
    other operand's dict, in the same order, with the same data. ``x**n``
    takes n - 1 products starting from x, so it never multiplies by the
    unit either.

    Two kernel loops, which build equal dicts. On a family that states a
    ``monomial_product`` (polynomial, Laurent, group), each product of
    coefficients c1 c2 is keyed by ``monomial_product(m1, m2)``: no
    structure dict is built and no structure coefficient is tested. The
    general loop (U_q(sl2)) reads every term of ``mul_monomials(m1, m2)``.
    On a monoid family that dict is ``{monomial_product(m1, m2): 1}``, and a
    structure coefficient equal to one is not multiplied, so both loops add
    the same data under the same keys in the same order. The general loop
    reads each pair's dict from the family's ``_mul_cache`` and calls
    ``mul_monomials`` only on a miss: on U_q(sl2) that dict is the inner
    extension's ``_leg_cache``, which holds exactly the dicts
    ``mul_monomials`` returns, so a hit is the dict the call would return.

    Inside either loop, a coefficient equal to one is not multiplied: the
    product is the other factor.
    """

    __slots__ = ()

    def coeff(self, mono) -> Scalar:
        field = self.algebra.field
        return Scalar(field, self.coeffs.get(mono, field._zero.data))

    def terms(self) -> list[tuple[object, Scalar]]:
        field, key = self.algebra.field, self.algebra.monomial_sort_key
        return [(mono, Scalar(field, c))
                for mono, c in sorted(self.coeffs.items(), key=lambda kv: key(kv[0]))]

    def __mul__(self, other):
        if not isinstance(other, Sparse):
            return self.__rmul__(other)
        self._check(other)
        alg = self.algebra
        if other.coeffs == alg._one.coeffs:
            return self
        if self.coeffs == alg._one.coeffs:
            return other
        one, mul, add, is_zero = alg.field._kernel
        out: dict = {}  # the combine loop written inline: the hottest loop
        get = out.get
        product = alg.monomial_product
        if product is not None:
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    m = product(m1, m2)
                    v = c2 if c1 == one else c1 if c2 == one else mul(c1, c2)
                    s = get(m)  # v is nonzero: only the sum can cancel
                    if s is None:
                        out[m] = v
                    elif is_zero(v := add(s, v)):
                        del out[m]
                    else:
                        out[m] = v
            return self._new(out)
        cached, words = alg._mul_cache.get, alg.mul_monomials
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                c = c2 if c1 == one else c1 if c2 == one else mul(c1, c2)
                word = cached((m1, m2))
                if word is None:
                    word = words(m1, m2)
                for m, extra in word.items():
                    v = c if extra == one else extra if c == one else mul(c, extra)
                    s = get(m)  # v is nonzero: only the sum can cancel
                    if s is None:
                        out[m] = v
                    elif is_zero(v := add(s, v)):
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
    return BaseElement._of(a.algebra, {inv: a.algebra.field._inv(c)})


class BaseTensor(Sparse):
    """Finitely supported element of R (x) R over pairs of basis monomials."""

    __slots__ = ()

    @classmethod
    def of(cls, a: BaseElement, b: BaseElement) -> "BaseTensor":
        a._check(b)
        one, mul, _, _ = a.algebra.field._kernel
        out = {}
        for m1, c1 in a.coeffs.items():
            for m2, c2 in b.coeffs.items():
                out[(m1, m2)] = c1 if c2 == one else c2 if c1 == one else mul(c1, c2)
        return cls._of(a.algebra, out)

# ---------------------------------------------------------------------------
# structure maps on elements


def base_delta(a: BaseElement) -> BaseTensor:
    field, delta_monomial = a.algebra.field, a.algebra.delta_monomial
    one, mul, _, _ = field._kernel
    return BaseTensor._of(a.algebra, combine(field, (
        (key, c if extra == one else extra if c == one else mul(c, extra))
        for mono, c in a.coeffs.items() for key, extra in delta_monomial(mono).items())))


def base_counit(a: BaseElement) -> Scalar:
    return _linear_form(a, a.algebra.counit_monomial)


def _linear_form(a: BaseElement, value) -> Scalar:
    """The sum of c * value(mono) over the terms c mono of a, where
    ``value`` gives raw data per monomial; a zero value is skipped."""
    field = a.algebra.field
    one, mul, add, is_zero = field._kernel
    acc = None
    for mono, c in a.coeffs.items():
        if not is_zero(v := value(mono)):
            v = c if v == one else v if c == one else mul(c, v)
            acc = v if acc is None else add(acc, v)
    return field._zero if acc is None else Scalar(field, acc)


def base_antipode(a: BaseElement) -> BaseElement:
    field, antipode_monomial = a.algebra.field, a.algebra.antipode_monomial
    one, mul, _, _ = field._kernel
    return a._new(combine(field, (
        (m, c if extra == one else extra if c == one else mul(c, extra))
        for mono, c in a.coeffs.items() for m, extra in antipode_monomial(mono).items())))


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

    def on_monomial(self, mono):
        """The value on a basis monomial, as raw field data."""
        value = self._on_monomial.get(mono)
        if value is None:
            value = self._on_monomial[mono] = self.algebra.evaluate(
                self.values, mono, self.algebra.field.one()).data
        return value

    def __call__(self, a: BaseElement) -> Scalar:
        if a.algebra != self.algebra:
            raise AlgebraMismatchError("character applied to foreign element")
        return _linear_form(a, self.on_monomial)

    def compose_antipode(self) -> "Character":
        return Character(self.algebra, {
            name: self(base_antipode(g)) for name, g in self.algebra.generators.items()})


def winding_left(chi: Character, a: BaseElement) -> BaseElement:
    """The left winding map: a |-> sum chi(a_1) a_2, chi (x) id on Delta(a)."""
    return _wind(chi, base_delta(a), 0)


def winding_right(chi: Character, a: BaseElement) -> BaseElement:
    """The right winding map: a |-> sum a_1 chi(a_2), id (x) chi on Delta(a)."""
    return _wind(chi, base_delta(a), 1)


def _wind(chi: Character, delta: BaseTensor, side: int) -> BaseElement:
    """chi on tensorand ``side`` of the coproduct ``delta``, the other
    tensorand kept."""
    field = delta.algebra.field
    one, mul, _, is_zero = field._kernel
    return BaseElement._of(delta.algebra, combine(field, (
        (key[1 - side], c if v == one else v if c == one else mul(c, v))
        for key, c in delta.coeffs.items()
        if not is_zero(v := chi.on_monomial(key[side])))))


def adjoint_left(y: BaseElement, a: BaseElement) -> BaseElement:
    """ad_l(y)(a) = sum y_1 a S(y_2)."""
    return _adjoint(y, a, 1)


def adjoint_right(y: BaseElement, a: BaseElement) -> BaseElement:
    """ad_r(y)(a) = sum S(y_1) a y_2."""
    return _adjoint(y, a, 0)


def _adjoint(y: BaseElement, a: BaseElement, side: int) -> BaseElement:
    """sum y_1 a y_2 with S applied to tensorand ``side`` of Delta(y)."""
    y._check(a)
    return _conjugate_sum(_adjoint_pairs(y, side), a)


def _adjoint_pairs(y: BaseElement, side: int) -> list:
    """The pairs (y_1, y_2) over the terms of Delta(y), in its order, with S
    applied to tensorand ``side``; the coefficient of each term rides on
    y_1. A caller that conjugates many elements by y forms them once."""
    alg = y.algebra
    one = alg.field._one.data
    pairs = []
    for (m1, m2), c in base_delta(y).coeffs.items():
        pair = [BaseElement._of(alg, {m1: c}), BaseElement._of(alg, {m2: one})]
        pair[side] = base_antipode(pair[side])
        pairs.append(pair)
    return pairs


def _conjugate_sum(pairs: list, a: BaseElement) -> BaseElement:
    """sum left a right over the pairs (left, right), in their order."""
    acc = a.algebra.zero()
    for left, right in pairs:
        acc = acc + left * a * right
    return acc


# Scalars the images in ``BaseAutomorphism._image_cache`` may hold before a
# miss clears it.
_IMAGE_CACHE_LIMIT = 16384


class BaseAutomorphism:
    """Algebra automorphism of R stored as generator images plus the
    generator images of its inverse.

    Both maps are checked to be endomorphisms, and sigma(sigma^-1(g)) = g
    on every generator g. That makes sigma surjective, and a surjective
    endomorphism of a noetherian ring is injective (the kernels of its
    powers stop growing), so sigma^-1 is its inverse on both sides: every
    base family is noetherian, and the other composite needs no check.

    ``apply`` keeps two caches. A diagonal automorphism (every generator
    an eigenvector) scales each monomial, and ``_cache`` maps each power to
    its table of eigenvalues: ``_cache[power][mono]`` is the eigenvalue of
    sigma**power on mono, so one lookup of the power's table serves every
    monomial of the argument. ``eigenvalue`` is the one place that computes
    an entry: ``apply`` calls it on a miss, and so does a leg-product miss
    of ``AmbiskewAlgebra``, which forms r1 sigma^k(r2) as the scalar
    lambda(r2)^k times the structure constants of r1 r2, with no element
    built. That is exact: sigma^k(r2) is lambda(r2)^k r2 for a monomial r2,
    and a scalar commutes with r1. A negative power raises the eigenvalue
    in the table of power -1 to |power|, so each monomial's eigenvalue is
    inverted once. Eigenvalues are cached as raw field data; one equal to 1
    is stored as the field's shared ``_one.data``, and the diagonal loop
    does not multiply by it. Otherwise
    ``_image_cache`` holds the image of a monomial under sigma**power under
    the key (mono, power): sigma^p(a) is the sum of c sigma^p(mono) over
    the terms c mono of a. A missing power is built in a loop, not by
    recursion, from the highest cached lower power of the same sign (or
    from the monomial itself), one step of sigma or sigma^-1 at a time, and
    every power passed is stored. One step maps each monomial through the
    generator images, under the key (mono, +-1). A miss that finds the
    images holding ``_IMAGE_CACHE_LIMIT`` scalars clears the cache first,
    as ``AmbiskewAlgebra._word_cache`` is bounded.

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
        self._image_scalars = 0  # scalars held by _image_cache
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
            one, mul, _, _ = self.algebra.field._kernel
            table = self._cache.get(power) or {}  # eigenvalue makes a missing table
            for mono, c in a.coeffs.items():
                eig = table.get(mono)
                if eig is None:
                    eig = self.eigenvalue(mono, power)
                # eigenvalues of an automorphism are nonzero
                out[mono] = c if eig is one else eig if c == one else mul(c, eig)
            return BaseElement._of(self.algebra, out)
        return self._sum_images(a, power)

    def eigenvalue(self, mono, power: int):
        """The eigenvalue of the diagonal sigma**power on mono as raw data,
        read from ``_cache[power]`` and stored there on a miss; 1 is the
        field's shared ``_one.data``, also for power 0, which no table holds."""
        field = self.algebra.field
        if not power:
            return field._one.data
        table = self._cache.get(power)
        if table is None:
            table = self._cache[power] = {}
        eig = table.get(mono)
        if eig is None:
            if power > 0:
                value = self.algebra.monomial_eigenvalue(self.diagonal, mono) ** power
            elif power == -1:
                value = self.algebra.monomial_eigenvalue(self.diagonal, mono).inverse()
            else:
                value = Scalar(field, self.eigenvalue(mono, -1)) ** -power
            table[mono] = eig = field._one.data if value.is_one() else value.data
        return eig

    def _sum_images(self, a: BaseElement, power: int) -> BaseElement:
        """The sum of c sigma^power(mono) over the terms c mono of a, for a
        sigma that is not diagonal, added in the order of a's terms."""
        field = self.algebra.field
        one, mul, _, _ = field._kernel
        out: dict = {}
        for mono, c in a.coeffs.items():
            img = self._power_image(mono, power).coeffs.items()
            if c != one:
                img = ((m, c if v == one else mul(v, c)) for m, v in img)
            combine(field, img, out)
        return BaseElement._of(self.algebra, out)

    def _power_image(self, mono, power: int) -> BaseElement:
        """sigma**power of one monomial, power != 0, from ``_image_cache``."""
        cache = self._image_cache
        img = cache.get((mono, power))
        if img is not None:
            return img
        alg = self.algebra
        step = 1 if power > 0 else -1
        done = power - step
        while done and (mono, done) not in cache:
            done -= step
        img = cache.get((mono, done))  # None when done is 0: the first step evaluates
        while done != power:
            done += step
            if done == step:
                images = self.images if step > 0 else self.inverse_images
                img = alg.evaluate(images, mono, alg.one())
            else:
                img = self._sum_images(img, step)
            if self._image_scalars >= _IMAGE_CACHE_LIMIT:
                cache.clear()
                self._image_scalars = 0
            cache[(mono, done)] = img
            self._image_scalars += len(img.coeffs)
        return img

    def is_identity(self) -> bool:
        return all(self.images[name] == g for name, g in self.algebra.generators.items())

    def equals_on_generators(self, other: "BaseAutomorphism") -> bool:
        return all(self.images[name] == other.images[name] for name in self.algebra.generators)


def _scalar_images(gens: dict[str, BaseElement], images: dict[str, BaseElement]):
    """name -> (d, c), two scalars, when every generator is one term d mono
    that ``images`` sends to one term c mono; else None."""
    out = {}
    for name, gen in gens.items():
        img = images[name].coeffs
        if len(gen.coeffs) != 1 or len(img) != 1:
            return None
        (mono, d), = gen.coeffs.items()
        c = img.get(mono)
        if c is None:
            return None
        out[name] = (Scalar(gen.algebra.field, d), Scalar(images[name].algebra.field, c))
    return out


def winding_automorphism_left(chi: Character, deltas: dict | None = None) -> BaseAutomorphism:
    """tau^l_chi as a materialized automorphism; its inverse is the left
    winding by chi o S. ``deltas`` maps each generator's name to its
    coproduct when the caller has formed them; by default they are formed
    here."""
    alg = chi.algebra
    chi_s = chi.compose_antipode()
    if deltas is None:
        deltas = {name: base_delta(g) for name, g in alg.generators.items()}
    return BaseAutomorphism(alg, {name: _wind(chi, d, 0) for name, d in deltas.items()},
                            {name: _wind(chi_s, d, 0) for name, d in deltas.items()})


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
        return BaseElement._of(self, {power: self.field._one.data})

    monomial_product = operator.add

    def monomial_factors(self, mono):
        return [("t", mono)] if mono else []


class PolynomialBase(OneVariableBase):
    """k[t] with t primitive; monomials are exponents n >= 0."""

    family = "polynomial"

    def generator_info(self):
        return [GeneratorInfo("t", False, False)]

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
            (i, mono - i): self.field.from_int(comb(mono, i)).data
            for i in range(mono + 1)
        }

    def counit_monomial(self, mono):
        return (self.field._one if mono == 0 else self.field._zero).data

    def antipode_monomial(self, mono):
        return {mono: self.field.from_int((-1) ** mono).data}

    def coradical_degree_monomial(self, mono):
        return mono


class GroupAlgebra(BaseAlgebra):
    """The coalgebra of a group algebra, whose basis monomials are its group:
    each is grouplike with counit 1, S its inverse, and it is cosemisimple."""

    def delta_monomial(self, mono):
        return {(mono, mono): self.field._one.data}

    def counit_monomial(self, mono):
        return self.field._one.data

    def antipode_monomial(self, mono):
        return {self.invert_monomial(mono): self.field._one.data}

    def coradical_degree_monomial(self, mono):
        return 0


class LaurentBase(OneVariableBase, GroupAlgebra):
    """k[t, t^-1], the group algebra of Z; monomials are integers."""

    family = "laurent"

    def generator_info(self):
        return [GeneratorInfo("t", True, True)]

    def monomial_sort_key(self, mono):
        return (abs(mono), -mono)

    def invert_monomial(self, mono):
        return -mono


class GroupBase(GroupAlgebra):
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
        return [GeneratorInfo(f"g{i + 1}", True, True) for i in range(self.ngens)]

    def generator(self, name, power=1):
        idx = int(name[1:]) - 1 if name.startswith("g") else -1
        if not 0 <= idx < self.ngens:
            raise KeyError(name)
        exps = [0] * self.ngens
        exps[idx] = power
        return BaseElement._of(self, {self._reduce(exps): self.field._one.data})

    def monomial_factors(self, mono):
        return [(f"g{i + 1}", e) for i, e in enumerate(mono) if e]

    def monomial_sort_key(self, mono):
        return (sum(abs(e) for e in mono), tuple(-e for e in mono))

    def invert_monomial(self, mono):
        return self._reduce(-e for e in mono)

    def monomial_product(self, a, b):
        return self._reduce(map(operator.add, a, b))

    def check_scalar_map(self, values):
        for i, m in enumerate(self.torsion):
            name = f"g{self.rank + i + 1}"
            if not (values[name] ** m).is_one():
                raise CharacterError(f"character value on {name} must be an {m}-th root of unity")

    def check_endo_map(self, images):
        super().check_endo_map(images)
        for i, m in enumerate(self.torsion):
            name = f"g{self.rank + i + 1}"
            if images[name] ** m != self.one():
                raise AutomorphismError(f"image of {name} must have order dividing {m}")
