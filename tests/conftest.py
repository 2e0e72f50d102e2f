"""Shared fixtures: corpus algebra constructors and random element
generators used across the suite."""

from __future__ import annotations

import random
import time

import pytest

from abhk import (
    Character,
    CyclotomicField,
    ExtensionData,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    RationalField,
    RationalFunctionField,
    UqSl2Base,
    construct_hopf,
)
from abhk.basehopf import Sparse
from abhk.scalar import Scalar

_SUITE_START = time.monotonic()


@pytest.fixture(scope="session", autouse=True)
def suite_timer():
    """The whole suite must stay under five minutes of wall time."""
    yield
    elapsed = time.monotonic() - _SUITE_START
    print(f"\nsuite wall time: {elapsed:.1f}s (limit 300s)")
    assert elapsed < 300.0


def build_usl2():
    field = RationalField()
    base = PolynomialBase(field)
    chi = Character(base, {"t": field.one()})
    data = ExtensionData(base, chi, base.one(), base.one(), base.generator("t"))
    return construct_hopf(base, data)[0]


def build_heisenberg():
    field = RationalField()
    base = PolynomialBase(field)
    chi = Character(base, {"t": field.zero()})
    data = ExtensionData(base, chi, base.one(), base.one(), base.generator("t"))
    return construct_hopf(base, data)[0]


def build_solvable():
    field = RationalField()
    base = PolynomialBase(field)
    chi = Character(base, {"t": field.one()})
    data = ExtensionData(base, chi, base.one(), base.one(), base.zero())
    return construct_hopf(base, data)[0]


def build_laurent(eta, ell=1, en=None, lam=1, field=None):
    """Laurent-base extension with chi(t) = eta, y+ = t^ell, y- = t^en,
    h = lam (t^(ell+en) - 1)."""
    en = ell if en is None else en
    field = field or eta.field
    base = LaurentBase(field)
    chi = Character(base, {"t": eta})
    z = base.generator("t", ell + en)
    h = (z - base.one()).scale(field.from_int(lam))
    data = ExtensionData(base, chi, base.generator("t", ell), base.generator("t", en), h)
    return construct_hopf(base, data)[0]


def build_uqsl2_variant():
    field = RationalFunctionField()
    return build_laurent(field.q(), ell=2)


def build_uqsl2_root():
    field = RationalField()
    return build_laurent(field.from_int(-1), ell=2)


def build_quantum_affine():
    field = RationalFunctionField()
    base = LaurentBase(field)
    chi = Character(base, {"t": field.q()})
    t = base.generator("t")
    data = ExtensionData(base, chi, t, t, base.zero())
    return construct_hopf(base, data)[0]


def build_laurent_asym():
    field = RationalField()
    return build_laurent(field.from_int(-1), ell=3, en=1)


def _uqsl2_counit_data(base, field, power):
    chi = Character(base, {"E": field.zero(), "F": field.zero(), "K": field.one()})
    y = base.generator("K", power)
    if power:
        h = base.one() - base.generator("K", 2 * power)
    else:
        h = base.zero()
    return ExtensionData(base, chi, y, y, h)


def build_uqsl2_trivial():
    field = RationalFunctionField()
    base = UqSl2Base(field, field.q())
    return construct_hopf(base, _uqsl2_counit_data(base, field, 0))[0]


def build_uqsl2_counit_root():
    field = CyclotomicField(3)
    base = UqSl2Base(field, field.zeta())
    return construct_hopf(base, _uqsl2_counit_data(base, field, 3))[0]


def build_uqsl2_case3(lam=1):
    field = CyclotomicField(8)
    base = UqSl2Base(field, field.zeta())
    chi = Character(base, {"E": field.zero(), "F": field.zero(),
                           "K": field.from_int(-1)})
    y = base.generator("K", 2)
    h = (base.one() - base.generator("K", 4)).scale(field.from_int(lam))
    return construct_hopf(base, ExtensionData(base, chi, y, y, h))[0]


def build_group(field, torsion, chi, y, lam=1):
    """Extension of the group algebra of Z^2 (no torsion) or of
    Z x Z/m_1 x ... over ``field``, with chi(g_i) the i-th entry of ``chi``,
    y+ = y- the monomial with the exponents ``y``, and h = lam (z - 1)."""
    base = GroupBase(field, rank=1 if torsion else 2, torsion=torsion)
    names = [info.name for info in base.generator_info()]
    chi = Character(base, {name: field.from_int(c) if isinstance(c, int) else c
                           for name, c in zip(names, chi)})
    y_elem = base.one()
    for name, e in zip(names, y):
        y_elem = y_elem * base.generator(name, e)
    h = (y_elem * y_elem - base.one()).scale(field.from_int(lam))
    return construct_hopf(base, ExtensionData(base, chi, y_elem, y_elem, h))[0]


def build_group_z2():
    return build_group(RationalField(), (), (2, 1), (1, 1))


def build_group_z_z2():
    return build_group(RationalField(), (2,), (1, -1), (1, 1))


def build_group_z_z4():
    field = CyclotomicField(4)
    return build_group(field, (4,), (1, field.zeta()), (0, 1))   # xi = zeta, order 4


CORPUS_BUILDERS = {
    "usl2": build_usl2,
    "heisenberg": build_heisenberg,
    "solvable": build_solvable,
    "uqsl2-variant": build_uqsl2_variant,
    "uqsl2-root": build_uqsl2_root,
    "quantum-affine": build_quantum_affine,
    "laurent-asym": build_laurent_asym,
    "uqsl2-trivial": build_uqsl2_trivial,
    "uqsl2-counit-root": build_uqsl2_counit_root,
    "uqsl2-case3": build_uqsl2_case3,
    "uqsl2-case3-h0": lambda: build_uqsl2_case3(lam=0),
    "group-z2": build_group_z2,
    "group-z-z2": build_group_z_z2,
    "group-z-z4": build_group_z_z4,
}


@pytest.fixture(scope="session")
def corpus():
    """All corpus extensions, built and axiom-verified once per session."""
    return {name: build() for name, build in CORPUS_BUILDERS.items()}


@pytest.fixture(scope="session")
def usl2():
    return build_usl2()


# ---------------------------------------------------------------------------
# random element generation


def random_base_element(rng: random.Random, base, max_support=2, small=True):
    field = base.field
    scalars = [field.from_int(k) for k in (1, -1, 2, 3)]
    family = base.family
    out = base.zero()
    for _ in range(rng.randint(1, max_support)):
        if family == "polynomial":
            mono = base.generator("t", rng.randint(0, 2 if small else 3))
        elif family == "laurent":
            mono = base.generator("t", rng.randint(-2, 2))
        elif family == "group":
            # a torsion exponent is drawn past its order, so that it wraps
            mono = base.one()
            for i, info in enumerate(base.generator_info()):
                m = base.torsion[i - base.rank] if i >= base.rank else 0
                mono = mono * base.generator(info.name, rng.randint(-1 - m, 1 + m))
        else:  # uqsl2: K^k E^a F^b with a + b <= 3, past the first power
            # so that the base's own hat acts, and small enough that products
            # of such elements stay cheap
            mono = base.generator("K", rng.randint(-1, 1))
            if rng.random() < 0.5:
                a = rng.randint(0, 3)
                mono = mono * base.generator("E", a) * base.generator("F", rng.randint(0, 3 - a))
        out = out + mono.scale(rng.choice(scalars))
    return out


def generator_monomials(base) -> list:
    """The one monomial and the monomials of each generator and of the
    inverse of each invertible generator, in the family's sort order."""
    monos = {base.one_monomial()}
    for info in base.generator_info():
        monos.update(base.generator(info.name).coeffs)
        if info.invertible:
            monos.update(base.generator(info.name, -1).coeffs)
    return sorted(monos, key=base.monomial_sort_key)


def random_element(rng: random.Random, hopf, max_terms=2, max_degree=3,
                   base_support=1):
    """Random extension element of total degree <= max_degree."""
    alg = hopf.algebra
    out = alg.zero()
    for _ in range(rng.randint(1, max_terms)):
        m = rng.randint(0, max_degree)
        n = rng.randint(0, max_degree - m)
        coeff = random_base_element(rng, alg.base, max_support=base_support)
        out = out + alg.monomial(coeff, m, n)
    if out.is_zero():
        out = alg.one()
    return out


def assert_no_zero(x):
    """The sparse-container invariant: no stored coefficient is zero, down
    to the raw data inside the base coefficients of an element of A."""
    for c in x.coeffs.values():
        if isinstance(c, Sparse):
            assert c.coeffs, x
            assert_no_zero(c)
        else:
            assert not x.algebra.field._is_zero(c), x


# -- coefficients as Scalars, as the references of tests/oracles.py read them -------


def scalars(x) -> dict:
    """The coefficients of a container of raw field data as Scalars, in
    dict order."""
    field = x.algebra.field
    return {k: Scalar(field, c) for k, c in x.coeffs.items()}
