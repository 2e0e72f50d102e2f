"""Invariant reports: orders, GK dimension, dimension bounds, the PI
criterion with its eigen-decomposition, and flag propagation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from abhk.ambicore import AmbiskewAlgebra
from abhk.basehopf import (
    BaseAutomorphism,
    Character,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    winding_automorphism_left,
)
from abhk.errors import UnsupportedBaseError
from abhk.hopfstruct import ExtensionData, construct_hopf
from abhk.properties import (
    dim_bounds,
    eigendecompose_h,
    flags_report,
    full_report,
    gk_report,
    pi_check,
    sigma_order_detail,
)
from abhk.scalar import CyclotomicField, RationalField, RationalFunctionField

from conftest import CORPUS_BUILDERS, build_laurent

QQ = RationalField()


def laurent_extension(eta_field, eta, y_plus_exp, y_minus_exp, lam):
    base = LaurentBase(eta_field)
    chi = Character(base, {"t": eta})
    z = base.generator("t", y_plus_exp + y_minus_exp)
    h = (z - base.one()).scale(eta_field.from_int(lam))
    data = ExtensionData(base, chi, base.generator("t", y_plus_exp),
                         base.generator("t", y_minus_exp), h)
    return construct_hopf(base, data)[0]


# -- sigma order ----------------------------------------------------------------


def test_sigma_order_diagonal_root():
    c3 = CyclotomicField(3)
    hopf = build_laurent(c3.zeta(), ell=3, en=3)
    assert sigma_order_detail(hopf.algebra)[0] == 3


def test_sigma_order_translation_infinite():
    hopf = CORPUS_BUILDERS["usl2"]()
    order, note = sigma_order_detail(hopf.algebra)
    assert order is None
    assert "translation" in note


def test_sigma_order_identity():
    hopf = CORPUS_BUILDERS["heisenberg"]()
    assert sigma_order_detail(hopf.algebra)[0] == 1


def test_sigma_order_infinite_scaling():
    hopf = CORPUS_BUILDERS["quantum-affine"]()
    order, note = sigma_order_detail(hopf.algebra)
    assert order is None and "infinite order" in note


def _polynomial_sigma_algebra(image, inverse_image):
    """A polynomial-base extension with sigma(t) = image, h = 0, xi = 1."""
    base = PolynomialBase(QQ)
    t, one = base.generator("t"), base.one()
    sigma = BaseAutomorphism(base, {"t": image(t, one)}, {"t": inverse_image(t, one)})
    return AmbiskewAlgebra(base, sigma, base.zero(), QQ.one())


def test_sigma_order_of_an_affine_map():
    # t -> a*t + b with a != 1 has the order of a, without iterating images
    algebra = _polynomial_sigma_algebra(lambda t, one: one - t, lambda t, one: one - t)
    assert sigma_order_detail(algebra) == (2, "exact (affine map)")
    half = QQ.from_fraction(Fraction(1, 2))
    algebra = _polynomial_sigma_algebra(lambda t, one: t.scale(QQ.from_int(2)) + one,
                                        lambda t, one: (t - one).scale(half))
    assert sigma_order_detail(algebra, n_max=5) == (
        None, "affine map t -> a*t + b with a of infinite order")
    c3 = CyclotomicField(3)
    base = PolynomialBase(c3)
    t, one, zeta = base.generator("t"), base.one(), c3.zeta()
    sigma = BaseAutomorphism(base, {"t": t.scale(zeta) + one},
                             {"t": (t - one).scale(zeta.inverse())})
    algebra = AmbiskewAlgebra(base, sigma, base.zero(), c3.one())
    assert sigma_order_detail(algebra, n_max=2) == (3, "exact (affine map)")
    assert sigma.apply(t, 3) == t and sigma.apply(t, 1) != t


def test_sigma_order_by_iterated_images():
    # swapping the generators of Z^2 is neither diagonal nor a map of k[t]:
    # its order is found by iterating images
    base = GroupBase(QQ, 2)
    g1, g2 = base.generator("g1"), base.generator("g2")
    swap = BaseAutomorphism(base, {"g1": g2, "g2": g1}, {"g1": g2, "g2": g1})
    algebra = AmbiskewAlgebra(base, swap, base.zero(), QQ.one())
    assert sigma_order_detail(algebra) == (2, "exact (iterated images)")
    # the shear g1 -> g1 g2 has infinite order; the search stops at n_max
    shear = BaseAutomorphism(base, {"g1": g1 * g2, "g2": g2},
                             {"g1": g1 * base.generator("g2", -1), "g2": g2})
    algebra = AmbiskewAlgebra(base, shear, base.zero(), QQ.one())
    assert sigma_order_detail(algebra, n_max=5) == (None, "order > 5")


# -- GK dimension ----------------------------------------------------------------


def test_gk_adds_two_on_corpus(corpus):
    for name, hopf in corpus.items():
        expected = hopf.base.descriptor.gk_dim + 2
        gk, note = gk_report(hopf.algebra, hopf_verified=True)
        assert gk == expected, name
        assert "winding" in note


def test_gk_iterates_by_layers(corpus):
    hopf = corpus["uqsl2-case3"]
    assert hopf.base.descriptor.gk_dim == 3  # itself laurent + 2
    assert gk_report(hopf.algebra, hopf_verified=True)[0] == 5


def test_gk_without_hopf_uses_local_finiteness():
    hopf = CORPUS_BUILDERS["usl2"]()
    gk, note = gk_report(hopf.algebra, hopf_verified=False)
    assert gk == 3  # translation orbits span a 2-dimensional space
    assert "locally finite" in note


# -- dimension bounds --------------------------------------------------------------


def test_dim_bounds_hopf_exact(corpus):
    for name, hopf in corpus.items():
        gl, inj = dim_bounds(hopf.algebra, hopf_verified=True)
        want = hopf.base.descriptor.gl_dim + 2
        assert gl.exact and gl.upper == want, name
        assert inj.exact and inj.upper == hopf.base.descriptor.inj_dim + 2


def test_dim_bounds_plain_interval_and_weyl_low_end():
    # base gl.dim 0 (group algebra of the trivial group): the first Weyl
    # algebra A_1 attains the interval's lower end
    base = GroupBase(QQ, rank=0)
    assert base.descriptor.gl_dim == 0
    chi = Character(base, {})
    sigma = winding_automorphism_left(chi)
    weyl = AmbiskewAlgebra(base, sigma, base.one(), QQ.one())
    gl, inj = dim_bounds(weyl, hopf_verified=False)
    assert (gl.lower, gl.upper, gl.exact) == (1, 2, False)
    assert (inj.lower, inj.upper) == (1, 2)


def test_interval_contains_hopf_value(corpus):
    for name, hopf in corpus.items():
        plain_gl, plain_inj = dim_bounds(hopf.algebra, hopf_verified=False)
        exact_gl, exact_inj = dim_bounds(hopf.algebra, hopf_verified=True)
        assert plain_gl.lower <= exact_gl.upper <= plain_gl.upper, name
        assert plain_inj.lower <= exact_inj.upper <= plain_inj.upper, name


def test_as_regularity_propagates_in_hopf_case(corpus):
    for name, hopf in corpus.items():
        report = full_report(hopf.algebra, hopf)
        assert report.as_gorenstein is True
        assert report.as_regular is True
        assert report.auslander_regular is True


# -- PI criterion ------------------------------------------------------------------


def test_pi_degree_18_instance():
    # eta primitive 3rd root, xi = eta, h = lam(t^2 - 1): the h-component
    # in the eta^1 eigenspace vanishes since both monomials sit at eta^2, 1
    c3 = CyclotomicField(3)
    hopf = laurent_extension(c3, c3.zeta(), 1, 1, 1)
    entry = pi_check(hopf.algebra)
    assert entry.satisfies_pi is True
    assert (entry.sigma_order, entry.xi_order, entry.lcm_order) == (3, 3, 3)
    assert entry.pi_degree == 18
    decomposition = entry.decomposition
    total = hopf.base.zero()
    for i, part in decomposition.components:
        total = total + part
        assert hopf.algebra.sigma.apply(part, 1) == part.scale(decomposition.eta**i)
    assert total == hopf.algebra.h


def _plain_laurent(field, eta, xi, h_exp, lam=1):
    """Plain (not necessarily Hopf) ambiskew algebra over Laurent with
    sigma(t) = eta t and h = lam (t^h_exp - 1)."""
    base = LaurentBase(field)
    chi = Character(base, {"t": eta})
    sigma = winding_automorphism_left(chi)
    h = (base.generator("t", h_exp) - base.one()).scale(field.from_int(lam))
    return AmbiskewAlgebra(base, sigma, h, xi)


def test_pi_obstruction_rejected():
    # xi = eta = zeta_3, h = t^4 - 1: the t^4 monomial sits in the
    # eta^1-eigenspace (4 = 1 mod 3), exactly where xi lives
    c3 = CyclotomicField(3)
    algebra = _plain_laurent(c3, c3.zeta(), c3.zeta(), 4)
    entry = pi_check(algebra)
    assert entry.satisfies_pi is False
    assert entry.obstruction is not None
    assert list(entry.obstruction.support()) == [4]
    assert entry.pi_degree is None


def test_pi_admissible_grid_mod3():
    # h = lam(t^m - 1) with eta primitive 3rd root and xi = eta: the
    # criterion accepts exactly m != 1 (mod 3)
    c3 = CyclotomicField(3)
    for m in range(2, 8):
        algebra = _plain_laurent(c3, c3.zeta(), c3.zeta(), m)
        entry = pi_check(algebra)
        expected = (m % 3) != 1
        assert entry.satisfies_pi is expected, m
        if entry.satisfies_pi:
            assert entry.pi_degree == 18  # 2 * lcm(3,3) * 3


def test_pi_infinite_order_cases():
    hopf = CORPUS_BUILDERS["usl2"]()
    entry = pi_check(hopf.algebra)
    assert entry.satisfies_pi is False
    assert "infinite order" in entry.note

    generic = CORPUS_BUILDERS["quantum-affine"]()
    entry = pi_check(generic.algebra)
    assert entry.satisfies_pi is False


def test_pi_h_zero_degree_8():
    hopf = laurent_extension(QQ, QQ.from_int(-1), 1, 1, 0)
    entry = pi_check(hopf.algebra)
    assert entry.satisfies_pi is True
    assert (entry.sigma_order, entry.xi_order) == (2, 2)
    assert entry.pi_degree == 8


def test_pi_unsupported_bases():
    uq = CORPUS_BUILDERS["uqsl2-trivial"]()
    with pytest.raises(UnsupportedBaseError):
        pi_check(uq.algebra)


def test_pi_degree_formula_consistency():
    c4 = CyclotomicField(4)
    hopf = laurent_extension(c4, c4.zeta(), 2, 2, 0)  # xi = -1 of order 2, n = 4
    entry = pi_check(hopf.algebra)
    assert entry.satisfies_pi is True
    n, t = entry.sigma_order, entry.xi_order
    m = entry.lcm_order
    assert m == n * t // __import__("math").gcd(n, t)
    assert entry.pi_degree == 2 * m * n


def test_eigendecomposition_requires_diagonal():
    hopf = CORPUS_BUILDERS["usl2"]()
    with pytest.raises(UnsupportedBaseError):
        eigendecompose_h(hopf.algebra, 1)


# -- flags -------------------------------------------------------------------------


def test_flags_propagate(corpus):
    flags = flags_report(corpus["uqsl2-variant"].algebra)
    assert flags == {"noetherian": True, "domain": True, "prime": True,
                     "semiprime_goldie": True}


def test_prime_is_one_way():
    base = GroupBase(CyclotomicField(4), rank=1, torsion=(2,))
    chi = Character(base, {"g1": base.field.one(), "g2": base.field.from_int(-1)})
    sigma = winding_automorphism_left(chi)
    algebra = AmbiskewAlgebra(base, sigma, base.zero(), base.field.from_int(-1))
    flags = flags_report(algebra)
    assert flags["domain"] is False
    assert flags["prime"] is None  # never inferred backwards
    assert flags["semiprime_goldie"] is True


def test_full_report_lines(corpus):
    report = full_report(corpus["laurent-asym"].algebra, corpus["laurent-asym"])
    lines = report.lines()
    assert any(line.startswith("gk_dim: 3") for line in lines)
    assert any("degree 8" in line for line in lines)
    assert any(line.startswith("prime: true (base prime)") for line in lines)
