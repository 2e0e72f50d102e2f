"""Checker, Hopf structure maps, relabelling, trichotomy, fast paths."""

from __future__ import annotations

import random

import pytest

from abhk.ambicore import AmbiElement, AmbiskewAlgebra, Tensor
from abhk.basehopf import (
    BaseAutomorphism,
    BaseElement,
    BaseTensor,
    Character,
    GroupBase,
    LaurentBase,
    PolynomialBase,
    Sparse,
    base_antipode,
    base_delta,
    invert_element,
    is_central,
)
from abhk.cli import _checked_algebra, corpus_dir
from abhk.errors import HopfDataError, InternalError, UnsupportedBaseError
from abhk.exprparse import parse_spec, resolve_spec
from abhk.hopfstruct import (
    ExtensionData,
    GeneralPresentation,
    HopfAmbiskewAlgebra,
    check_main_theorem,
    classify_trichotomy,
    construct_hopf,
    fast_path_check,
    relabel,
    verify_hopf_axioms,
)
from abhk.scalar import (
    CyclotomicField,
    RationalField,
    RationalFunctionField,
    Scalar,
    q_int,
)
from abhk.uqsl2 import UqSl2Base

from conftest import CORPUS_BUILDERS, build_laurent, random_base_element, random_element

QQ = RationalField()


def test_usl2_data_passes_and_builds():
    base = PolynomialBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    data = ExtensionData(base, chi, base.one(), base.one(), base.generator("t"))
    report = check_main_theorem(base, data)
    assert report.overall
    assert report.algebra is not None
    assert report.classification == frozenset({"ii"})
    # sigma(t) = t + 1 as in the enveloping-algebra presentation
    t = base.generator("t")
    assert data.sigma.apply(t, 1) == t + base.one()


def test_xi_mismatch_is_rejected_with_witness():
    base = GroupBase(QQ, rank=2)
    chi = Character(base, {"g1": QQ.from_int(2), "g2": QQ.from_int(3)})
    data = ExtensionData(base, chi, base.generator("g1"), base.generator("g2"),
                         base.zero())
    report = check_main_theorem(base, data)
    assert not report.overall
    failing = {c.name: c.witness for c in report.failures()}
    assert "xi-match" in failing
    assert "xi mismatch" in failing["xi-match"]


def test_case3_passes_with_noncentral_grouplikes():
    hopf = CORPUS_BUILDERS["uqsl2-case3"]()
    y = hopf.data.y_plus
    assert not is_central(y)
    assert hopf.data.xi.is_one()  # (-1)^2 for the 8th-root case


def test_non_grouplike_y_fails():
    base = PolynomialBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    data = ExtensionData(base, chi, base.generator("t"), base.one(), base.zero())
    report = check_main_theorem(base, data)
    names = {c.name for c in report.failures()}
    assert "y-plus-grouplike" in names
    with pytest.raises(HopfDataError):
        construct_hopf(base, data)


# -- structure maps ------------------------------------------------------------


def test_delta_of_xplus_squared_closed_form(usl2):
    A = usl2.algebra
    xp = A.xplus()
    y = usl2.data.y_plus
    two = q_int(2, usl2.data.xi)  # the xi-integer (2)
    expected = (Tensor.of(xp * xp, A.one())
                + Tensor.of(A.embed(y) * xp, xp).scale(two)
                + Tensor.of(A.embed(y * y), xp * xp))
    assert usl2.delta(xp * xp) == expected


def test_counit_kills_x_words(usl2):
    A = usl2.algebra
    assert usl2.counit(A.xplus() * A.xminus()).is_zero()
    assert usl2.counit(A.one()).is_one()
    t = A.base.generator("t")
    assert usl2.counit(A.embed(t)).is_zero()


def test_antipode_closed_form_derived_from_axiom():
    hopf = CORPUS_BUILDERS["uqsl2-variant"]()  # y+- = t^2, so y^2 != 1
    A = hopf.algebra
    y_inv = invert_element(hopf.data.y_plus)
    assert hopf.antipode(A.xplus()) == A.embed(y_inv).scale(A.field.from_int(-1)) * A.xplus()
    assert hopf.antipode_form == "-y^-1*X"
    # the inverse-free form fails the antipode axiom here: m(S (x) id)Delta(X+)
    # with S(X+) = -y X+ evaluates to (y^-1 - y) X+ != 0
    bad = A.embed(hopf.data.y_plus).scale(A.field.from_int(-1)) * A.xplus()
    convolution = A.embed(y_inv) * A.xplus() + bad
    assert not convolution.is_zero()


def test_antipode_check_refuses_non_grouplike_y():
    # bypass the data checker: y+- = 2t is a unit but not grouplike, so
    # S(y) = 2 t^-1 differs from y^-1 and S(X) = -y^-1 X fails the axiom
    base = LaurentBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    y = base.generator("t").scale(QQ.from_int(2))
    bad = ExtensionData(base, chi, y, y, base.zero())
    algebra = AmbiskewAlgebra(base, bad.sigma, bad.h, bad.xi)
    with pytest.raises(InternalError, match="antipode axiom"):
        HopfAmbiskewAlgebra(algebra, bad)


def test_antipode_axiom_on_generators(corpus):
    for name, hopf in corpus.items():
        report = verify_hopf_axioms(hopf)
        assert report.overall, (name, [c.name for c in report.failures()])


def test_corrupted_h_fails_relation_preservation():
    # bypass the data checker deliberately: h = t^2 is central but not
    # (1, 1)-primitive, so Delta cannot preserve the skew relation
    base = PolynomialBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    good = ExtensionData(base, chi, base.one(), base.one(), base.generator("t"))
    bad = ExtensionData(base, chi, base.one(), base.one(), base.generator("t", 2))
    assert not check_main_theorem(base, bad).overall  # h-skew-primitive fails
    algebra = AmbiskewAlgebra(base, bad.sigma, bad.h, bad.xi)
    hopf = HopfAmbiskewAlgebra(algebra, bad)
    report = verify_hopf_axioms(hopf)
    failing = {c.name for c in report.failures()}
    assert "delta-preserves-skew-relation" in failing
    # the witness is lhs - rhs = Delta(t) - Delta(t^2) = -2 t (x) t; a pass has none
    witnesses = {c.name: c.witness for c in report.conditions if c.witness}
    assert witnesses == {"delta-preserves-skew-relation": "lhs - rhs = -2*t (x) t"}
    assert check_main_theorem(base, good).overall


def test_hat_form_delta_h_general_shape(corpus):
    # Delta(h) = h (x) r+r- + l+l- (x) h with r+- = 1, l+- = y+- reads
    # h (x) 1 + z (x) h
    for name, hopf in corpus.items():
        h, z = hopf.data.h, hopf.data.z
        base = hopf.base
        want = BaseTensor.of(h, base.one()) + BaseTensor.of(z, h)
        assert base_delta(h) == want, name


def test_delta_is_algebra_map_on_random_elements(corpus):
    rng = random.Random(8)
    for name, hopf in corpus.items():
        for _ in range(12):
            a = random_element(rng, hopf)
            b = random_element(rng, hopf)
            assert hopf.delta(a * b) == hopf.delta(a) * hopf.delta(b), name


# -- the leg maps against the block-wise reference ------------------------------


def _reference_delta(hopf, a):
    """The block-wise coproduct: Delta(r) Delta(X+)^m Delta(X-)^n summed
    over the (m, n) blocks of a, with Delta(X+-) = X+- (x) 1 + y+- (x) X+-
    built here from the data."""
    alg = hopf.algebra
    one = alg.one()
    steps = {
        sign: Tensor.of(x, one) + Tensor.of(alg.embed(y), x)
        for sign, x, y in ((+1, alg.xplus(), hopf.data.y_plus),
                           (-1, alg.xminus(), hopf.data.y_minus))
    }

    def power(sign, k):
        acc = Tensor.of(one, one)
        for _ in range(k):
            acc = acc * steps[sign]
        return acc

    out = Tensor(alg, 2, {})
    for (m, n), r in a.coeffs.items():
        spread = Tensor(alg, 2, {
            ((m1, 0, 0), (m2, 0, 0)): c for (m1, m2), c in base_delta(r).coeffs.items()
        })
        out = out + spread * power(+1, m) * power(-1, n)
    return out


def _reference_antipode(hopf, a):
    """The block-wise antipode: S(X-)^n S(X+)^m S(r) summed over the (m, n)
    blocks of a, with S(X+-) = -y+-^-1 X+- built here from the data."""
    alg = hopf.algebra
    minus_one = alg.field.from_int(-1)
    s_xp = alg.monomial(invert_element(hopf.data.y_plus).scale(minus_one), 1, 0)
    s_xm = alg.monomial(invert_element(hopf.data.y_minus).scale(minus_one), 0, 1)
    out = alg.zero()
    for (m, n), r in a.coeffs.items():
        out = out + s_xm**n * s_xp**m * alg.embed(base_antipode(r))
    return out


def test_leg_maps_match_blockwise_reference(corpus):
    """delta and antipode, the linear extensions of the cached leg maps,
    agree with the block-wise maps on every corpus algebra."""
    rng = random.Random(20261018)
    for name, hopf in corpus.items():
        for _ in range(6):
            a = random_element(rng, hopf, max_terms=3, base_support=2)
            assert hopf.delta(a) == _reference_delta(hopf, a), (name, a)
            assert hopf.antipode(a) == _reference_antipode(hopf, a), (name, a)
        # the eigenvalue cache of a diagonal sigma holds scalars only, never
        # the images the inverse checks cached during construction
        sigma = hopf.algebra.sigma
        if sigma.diagonal is not None:
            assert sigma._cache
            assert all(isinstance(v, Scalar) for v in sigma._cache.values()), name


def test_delta_leg_matches_three_factor_product(corpus):
    """Every leg coproduct with m, n <= 3, built cold, equals the three-factor
    product spread * Delta(X+)^m * Delta(X-)^n, which multiplies by the unit
    tensor when a power is zero, term for term and in the same order. The
    one monomial is always among the legs: its spread is the unit tensor,
    which ``delta_leg`` skips when m + n > 0."""
    rng = random.Random(20261018)
    for name, built in corpus.items():
        hopf = HopfAmbiskewAlgebra(built.algebra, built.data)  # empty leg caches
        base = hopf.base
        monos = {mono for _ in range(4)
                 for mono in random_base_element(rng, base, max_support=2).coeffs}
        monos.add(base.one_monomial())
        for mono in monos:
            for m in range(4):
                for n in range(4):
                    hopf.delta_leg((mono, m, n))
        for (mono, m, n), got in hopf._leg_delta.items():
            if m > 3 or n > 3:
                continue
            spread = Tensor(hopf.algebra, 2, {
                ((m1, 0, 0), (m2, 0, 0)): c
                for (m1, m2), c in base.delta_monomial(mono).items()
            })
            want = spread * hopf._delta_x(+1, m) * hopf._delta_x(-1, n)
            assert got == want, (name, mono, m, n)
            assert list(got.coeffs) == list(want.coeffs), (name, mono, m, n)


def test_antipode_leg_matches_three_factor_product(corpus):
    """Every leg antipode with m, n <= 3, built cold, equals the three-factor
    product S(X-)^n * S(X+)^m * S(r), which multiplies by the unit when a
    power is zero, term for term and in the same order."""
    rng = random.Random(20261018)
    for name, built in corpus.items():
        hopf = HopfAmbiskewAlgebra(built.algebra, built.data)  # empty leg caches
        base, one = hopf.base, hopf.base.field.one()
        monos = {mono for _ in range(4)
                 for mono in random_base_element(rng, base, max_support=2).coeffs}
        for mono in monos:
            r = BaseElement(base, {mono: one})
            for m in range(4):
                for n in range(4):
                    got = hopf.antipode_leg((mono, m, n))
                    want = _reference_antipode(hopf, hopf.algebra.monomial(r, m, n))
                    assert got == want, (name, mono, m, n)
                    assert list(got.coeffs) == list(want.coeffs), (name, mono, m, n)


# -- relabel -------------------------------------------------------------------


def test_identity_relabel():
    hopf = CORPUS_BUILDERS["usl2"]()
    A = hopf.algebra
    one = A.base.one()
    gp = GeneralPresentation(A, hopf.data.y_plus, hopf.data.y_minus, one, one)
    data, _ = relabel(gp)
    assert data.xi == hopf.data.xi
    assert data.h == hopf.data.h
    assert data.y_plus == hopf.data.y_plus


def test_relabel_uqsl2_standard_presentation():
    # Laurent base with Delta(X-) = X- (x) t^-1 + 1 (x) X-: r- = t^-1,
    # so the hat form has y- = l- r-^-1 = t
    field = RationalFunctionField()
    q = field.q()
    base = LaurentBase(field)
    t = base.generator("t")
    chi = Character(base, {"t": q**-2})
    from abhk.basehopf import winding_automorphism_left
    sigma = winding_automorphism_left(chi)
    h = (t - base.generator("t", -1)).scale((q - q**-1).inverse())
    A = AmbiskewAlgebra(base, sigma, h, field.one())
    gp = GeneralPresentation(A, t, base.one(), base.one(), base.generator("t", -1))
    data, _ = relabel(gp)
    assert data.y_minus == t
    assert data.y_plus == t
    assert data.xi == q**-2
    assert data.h == (t * t - base.one()).scale((q - q**-1).inverse())


def test_relabel_formula_for_twisted_r_plus():
    # start from a passing hat form, recast with r+ = t, l+ = y+ t
    hopf = build_laurent(QQ.from_int(-1), ell=3, en=1)
    A = hopf.algebra
    base, chi = A.base, hopf.data.chi
    t = base.generator("t")
    rp, rm = t, base.one()
    lp, lm = hopf.data.y_plus * rp, hopf.data.y_minus * rm
    h_prime = (A.h * (rp * rm)).scale(chi(rp))
    xi_prime = A.xi * chi(rp * rm)
    A_prime = AmbiskewAlgebra(base, A.sigma, h_prime, xi_prime)
    gp = GeneralPresentation(A_prime, lp, lm, rp, rm)
    data, _ = relabel(gp)
    assert data.xi == xi_prime * chi(rp * rm).inverse()
    assert data.xi == A.xi
    assert data.h == A.h
    assert data.y_plus == hopf.data.y_plus


def test_relabel_rejects_non_grouplike():
    hopf = CORPUS_BUILDERS["usl2"]()
    A = hopf.algebra
    t = A.base.generator("t")
    gp = GeneralPresentation(A, t, A.base.one(), A.base.one(), A.base.one())
    with pytest.raises(HopfDataError):
        relabel(gp)


def test_relabel_round_trip_randomized(corpus):
    rng = random.Random(77)
    eligible = ["uqsl2-variant", "uqsl2-root", "quantum-affine", "laurent-asym"]
    for _ in range(8):
        name = rng.choice(eligible)
        hopf = corpus[name]
        A = hopf.algebra
        base, chi = A.base, hopf.data.chi
        rp = base.generator("t", rng.randint(-2, 2))
        rm = base.generator("t", rng.randint(-2, 2))
        lp, lm = hopf.data.y_plus * rp, hopf.data.y_minus * rm
        h_prime = (A.h * (rp * rm)).scale(chi(rp))
        xi_prime = A.xi * chi(rp * rm)
        A_prime = AmbiskewAlgebra(base, A.sigma, h_prime, xi_prime)
        data, _ = relabel(GeneralPresentation(A_prime, lp, lm, rp, rm))
        assert data.xi == A.xi and data.h == A.h, name
        # hat variables satisfy the skew relation inside A'
        xp_hat = A_prime.xplus() * A_prime.embed(invert_element(rp))
        xm_hat = A_prime.xminus() * A_prime.embed(invert_element(rm))
        relation = xp_hat * xm_hat - (xm_hat * xp_hat).scale(data.xi)
        assert relation == A_prime.embed(data.h)


# -- trichotomy ----------------------------------------------------------------


def test_classification_cases(corpus):
    assert classify_trichotomy(corpus["usl2"].data) == frozenset({"ii"})
    assert classify_trichotomy(corpus["heisenberg"].data) == frozenset({"i", "ii"})
    assert classify_trichotomy(corpus["uqsl2-variant"].data) == frozenset({"iii"})
    assert classify_trichotomy(corpus["laurent-asym"].data) == frozenset({"i"})


def test_trichotomy_identity_and_coefficient():
    # xi = eta^ell not +-1, h = lam (t^(2 ell) - 1): chi(h) = lam (xi^2 - 1)
    field = RationalFunctionField()
    hopf = build_laurent(field.q(), ell=2)
    data = hopf.data
    base = hopf.base
    chi_h = data.chi(data.h)
    xi = data.xi
    assert chi_h == xi * xi - field.one()
    lhs = data.h.scale(xi * xi - field.one())
    rhs = (data.z - base.one()).scale(chi_h)
    assert lhs == rhs
    assert classify_trichotomy(data) == frozenset({"iii"})


def test_trichotomy_nonempty_over_random_grid():
    rng = random.Random(5150)
    count = 0
    while count < 50:
        style = rng.choice(["laurent-generic", "laurent-root", "group"])
        if style == "laurent-generic":
            field = RationalFunctionField()
            eta = field.q() ** rng.randint(1, 3)
            ell = rng.randint(1, 3)
            hopf = build_laurent(eta, ell=ell, lam=rng.randint(0, 2))
        elif style == "laurent-root":
            order = rng.choice([2, 3, 4])
            field = CyclotomicField(order)
            eta = field.zeta()
            ell = rng.randint(1, 3)
            en = ell + order * rng.randint(0, 1)
            hopf = build_laurent(eta, ell=ell, en=en, lam=rng.randint(0, 2))
        else:
            field = QQ
            base = GroupBase(field, rank=2)
            values = {"g1": field.from_int(rng.choice([1, -1, 2, 3])),
                      "g2": field.from_int(rng.choice([1, -1, 2]))}
            chi = Character(base, values)
            a = (rng.randint(-2, 2), rng.randint(-2, 2))
            y = base.element({a: field.one()})
            z = y * y
            lam = field.from_int(rng.randint(0, 2))
            h = (z - base.one()).scale(lam)
            hopf = construct_hopf(base, ExtensionData(base, chi, y, y, h))[0]
        data = hopf.data
        cases = classify_trichotomy(data)
        assert cases
        lhs = data.h.scale(data.xi * data.xi - data.base.field.one())
        rhs = (data.z - data.base.one()).scale(data.chi(data.h))
        assert lhs == rhs
        count += 1


# -- fast paths ----------------------------------------------------------------


def test_fast_path_agrees_with_full_checker(corpus):
    for name, hopf in corpus.items():
        base, data = hopf.base, hopf.data
        if not (base.descriptor.commutative or base.descriptor.cocommutative):
            with pytest.raises(UnsupportedBaseError):
                fast_path_check(base, data)
            continue
        fast = fast_path_check(base, data)
        full = check_main_theorem(base, data)
        assert fast.overall == full.overall, name
        assert fast.classification == full.classification


def test_fast_path_rejects_bad_data_like_full_checker():
    base = GroupBase(QQ, rank=2)
    chi = Character(base, {"g1": QQ.from_int(2), "g2": QQ.from_int(3)})
    data = ExtensionData(base, chi, base.generator("g1"), base.generator("g2"),
                         base.zero())
    fast = fast_path_check(base, data)
    full = check_main_theorem(base, data)
    assert not fast.overall and not full.overall
    assert any("xi mismatch" in c.witness for c in fast.failures())


def test_cocommutative_path_requires_z_one_for_primitive_h():
    # force the cocommutative branch on k[t] (it is cocommutative): with
    # h = t primitive and z = 1 the extra constraints hold
    base = PolynomialBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    data = ExtensionData(base, chi, base.one(), base.one(), base.generator("t"))
    report = fast_path_check(base, data, path="cocommutative")
    assert report.overall
    names = {c.name for c in report.conditions}
    assert "h-form" in names and "xi-plus-minus-one" in names
    # over laurent, an h that is neither a multiple of z-1 nor primitive
    lbase = LaurentBase(QQ)
    lchi = Character(lbase, {"t": QQ.from_int(-1)})
    t = lbase.generator("t")
    bad = ExtensionData(lbase, lchi, t, t, t - lbase.one())
    report = fast_path_check(lbase, bad, path="cocommutative")
    assert not report.overall
    assert any(c.name == "h-form" for c in report.failures())
    assert not check_main_theorem(lbase, bad).overall


def test_fast_path_refused_for_uqsl2_base():
    field = RationalFunctionField()
    base = UqSl2Base(field, field.q())
    chi = Character(base, {"E": field.zero(), "F": field.zero(), "K": field.one()})
    data = ExtensionData(base, chi, base.one(), base.one(), base.zero())
    with pytest.raises(UnsupportedBaseError):
        fast_path_check(base, data)


# -- work counts of one cold construction -----------------------------------------
#
# One cold parse -> resolve -> check -> verify run of a corpus spec, counted by
# wrapping six library methods inside the test: field inversions (a gcd or a
# Galois norm each), passes of the zero filter in the public Sparse
# constructor, products in A, sigma applications, products in R and products
# of tensors. The bounds are the counts the library reaches; a rise means
# repeated cold-path work has come back (products by the unit in a leg
# antipode, a power or a leg coproduct, image-path inverse checks of a
# diagonal sigma, a sigma application or a product for a leg-product miss
# with the one monomial, recomputed coproducts in the relation checks).

COLD_BUILD_BOUNDS = {  # spec: (field inversions, zero-filter passes, A products,
    #                           sigma, R products, tensor products)
    "uqsl2-case3": (41, 97, 14, 86, 115, 21),
    "uqsl2": (35, 93, 14, 53, 87, 21),
    "usl2": (3, 29, 6, 12, 17, 6),
}


@pytest.mark.parametrize("name", sorted(COLD_BUILD_BOUNDS))
def test_cold_build_counts(monkeypatch, name):
    text = (corpus_dir() / f"{name}.abhk").read_text(encoding="utf-8")
    counts = {"inv": 0, "filter": 0, "mul": 0, "apply": 0, "base_mul": 0, "tensor_mul": 0}

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    for field_class in (RationalField, CyclotomicField, RationalFunctionField):
        monkeypatch.setattr(field_class, "_inv", counting("inv", field_class._inv))
    monkeypatch.setattr(Sparse, "__init__", counting("filter", Sparse.__init__))
    monkeypatch.setattr(AmbiElement, "__mul__", counting("mul", AmbiElement.__mul__))
    monkeypatch.setattr(BaseAutomorphism, "apply", counting("apply", BaseAutomorphism.apply))
    monkeypatch.setattr(BaseElement, "__mul__", counting("base_mul", BaseElement.__mul__))
    monkeypatch.setattr(Tensor, "__mul__", counting("tensor_mul", Tensor.__mul__))
    _checked_algebra(resolve_spec(parse_spec(text)))
    for key, bound in zip(counts, COLD_BUILD_BOUNDS[name], strict=True):
        assert counts[key] <= bound, (key, counts)
