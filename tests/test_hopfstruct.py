"""Checker, Hopf structure maps, relabelling, trichotomy."""

from __future__ import annotations

import random
import sys

import pytest

from abhk import basehopf, hopfstruct, scalar
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
    base_delta,
    invert_element,
    is_central,
)
from abhk.cli import _checked_algebra, corpus_dir
from abhk.errors import HopfDataError
from abhk.exprparse import parse_spec, resolve_spec
from abhk.hopfstruct import (
    DataCheckFailed,
    ExtensionData,
    GeneralPresentation,
    HopfAmbiskewAlgebra,
    check_main_theorem,
    classify_trichotomy,
    construct_hopf,
    relabel,
    verify_hopf_axioms,
)
from abhk.scalar import (
    CyclotomicField,
    RationalField,
    RationalFunctionField,
    Scalar,
)
from abhk.uqsl2 import UqSl2Base

from conftest import (
    CORPUS_BUILDERS,
    build_laurent,
    random_base_element,
    random_element,
)
from oracles import CallCounter, reference_antipode, reference_delta

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


def test_full_checker_refuses_laurent_h_off_the_skew_primitive_form():
    # chi(t) = -1, y+- = t: h = t - 1 is (1, t)-primitive, not (1, t^2)
    base = LaurentBase(QQ)
    chi = Character(base, {"t": QQ.from_int(-1)})
    t = base.generator("t")
    report = check_main_theorem(base, ExtensionData(base, chi, t, t, t - base.one()))
    assert {c.name for c in report.failures()} == {"h-skew-primitive"}


def test_construct_hopf_refuses_bad_xi_with_its_report():
    text = (corpus_dir() / "bad-xi.abhk").read_text(encoding="utf-8")
    doc = parse_spec(text)
    spec = resolve_spec(doc)
    with pytest.raises(DataCheckFailed) as caught:
        construct_hopf(spec.base, spec.data)
    assert isinstance(caught.value, HopfDataError)
    report = caught.value.report
    assert not report.overall
    assert report.lines() == check_main_theorem(spec.base, spec.data).lines()
    assert [c.name for c in report.failures()] == ["xi-match"]
    assert doc.expect.entries["witness"] in str(caught.value)


def test_construct_hopf_reports_data_then_axiom_conditions(usl2):
    base, data = usl2.base, usl2.data
    hopf, report = construct_hopf(base, data)
    checked = check_main_theorem(base, data)
    axioms = verify_hopf_axioms(hopf)
    assert report.overall
    assert report.title == checked.title
    assert report.conditions == checked.conditions + axioms.conditions
    assert report.conditions[0].name == "character-valid"
    assert report.conditions[-1].name == "delta-preserves-skew-relation"
    assert report.classification == checked.classification == frozenset({"ii"})
    assert report.algebra is hopf


DATA_CONDITIONS = [
    "character-valid", "z-grouplike", "z-central", "h-central", "h-skew-primitive",
    "y-plus-grouplike", "y-plus-in-center-of-grouplikes", "y-minus-grouplike",
    "y-minus-in-center-of-grouplikes", "z-factorization", "xi-match", "winding-condition",
]


def _condition_names(generators) -> list[str]:
    """The conditions a passing build records, in order: the data check,
    then five axioms on each sample (X+, X-, the base generators), then
    relation preservation per generator and for the skew relation."""
    samples = ["X+", "X-", *generators]
    return DATA_CONDITIONS + [
        f"{axiom}[{s}]" for s in samples for axiom in (
            "coassociativity", "counit-left", "counit-right", "antipode-left", "antipode-right")
    ] + [f"delta-preserves-{side}-relation[{g}]" for g in generators for side in ("plus", "minus")
         ] + ["delta-preserves-skew-relation"]


def test_construct_hopf_records_every_condition_in_order(corpus):
    # a build that skipped, renamed or reordered a condition would fail here
    for name in sorted(p.stem for p in corpus_dir().glob("*.abhk")):
        spec = resolve_spec(parse_spec((corpus_dir() / f"{name}.abhk").read_text(encoding="utf-8")))
        try:
            _, report = _checked_algebra(spec)
        except DataCheckFailed as exc:  # bad-xi: the data check alone
            assert name == "bad-xi"
            assert [c.name for c in exc.report.conditions] == DATA_CONDITIONS
            continue
        assert [c.name for c in report.conditions] == _condition_names(spec.base.generators), name
    for name, hopf in corpus.items():
        _, report = construct_hopf(hopf.base, hopf.data)
        assert [c.name for c in report.conditions] == _condition_names(hopf.base.generators), name


# -- structure maps ------------------------------------------------------------


def test_delta_of_xplus_squared_closed_form(usl2):
    A = usl2.algebra
    xp = A.xplus()
    y = usl2.data.y_plus
    two = 1 + usl2.data.xi  # the xi-integer (2)
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
    # S(y) = 2 t^-1 differs from y^-1 and S(X) = -y^-1 X fails the axiom.
    # The handle builds; the axiom proof refuses it, with
    # lhs - rhs = S(X) + S(y) X = (-1/2 + 2) t^-1 X
    base = LaurentBase(QQ)
    chi = Character(base, {"t": QQ.one()})
    y = base.generator("t").scale(QQ.from_int(2))
    bad = ExtensionData(base, chi, y, y, base.zero())
    algebra = AmbiskewAlgebra(base, bad.sigma, bad.h, bad.xi)
    report = verify_hopf_axioms(HopfAmbiskewAlgebra(algebra, bad))
    witnesses = {c.name: c.witness for c in report.failures()}
    assert witnesses["antipode-left[X+]"] == "lhs - rhs = 3/2*t^-1*X+"
    assert witnesses["antipode-left[X-]"] == "lhs - rhs = 3/2*t^-1*X-"
    assert not check_main_theorem(base, bad).overall


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


def test_leg_maps_match_blockwise_reference(corpus):
    """delta and antipode, the linear extensions of the cached leg maps,
    agree with the block-wise maps on every corpus algebra."""
    rng = random.Random(20261018)
    for name, hopf in corpus.items():
        for _ in range(6):
            a = random_element(rng, hopf, max_terms=3, base_support=2)
            assert hopf.delta(a) == reference_delta(hopf, a), (name, a)
            assert hopf.antipode(a) == reference_antipode(hopf, a), (name, a)
        # the eigenvalue tables of a diagonal sigma, one per power, hold raw
        # field data only: no Scalar, and never the images the inverse checks
        # cached during construction
        sigma = hopf.algebra.sigma
        if sigma.diagonal is not None:
            assert sigma._cache and all(sigma._cache.values()), name
            assert all(isinstance(power, int) and type(table) is dict
                       for power, table in sigma._cache.items()), name
            assert not any(isinstance(v, (Scalar, Sparse)) for table in sigma._cache.values()
                           for v in table.values()), name


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
            r = BaseElement(base, {mono: base.field.one()})
            want = reference_delta(hopf, hopf.algebra.monomial(r, m, n))
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
                    want = reference_antipode(hopf, hopf.algebra.monomial(r, m, n))
                    assert got == want, (name, mono, m, n)
                    assert list(got.coeffs) == list(want.coeffs), (name, mono, m, n)


@pytest.mark.parametrize("name", ["laurent-asym", "group-z-z4"])
def test_power_legs_pass_the_recursion_limit(corpus, name):
    """S(X+)^p and S(X-)^p for p past Python's recursion limit are built in
    a loop and equal p - 1 products from S(X+-) in value and order; the
    lower powers they pass through are cached and read back, not rebuilt."""
    built = corpus[name]
    hopf = HopfAmbiskewAlgebra(built.algebra, built.data)  # empty leg caches
    one, p = hopf.base.one_monomial(), sys.getrecursionlimit() + 10
    for first, power in (((one, 1, 0), lambda k: (one, k, 0)),
                         ((one, 0, 1), lambda k: (one, 0, k))):
        middle = hopf.antipode_leg(power(3))
        got = hopf.antipode_leg(power(p))
        want = hopf.antipode_leg(first) ** p
        assert got == want, name
        assert list(got.coeffs) == list(want.coeffs), name
        assert power(p - 1) in hopf._leg_antipode, name
        assert hopf.antipode_leg(power(3)) is middle, name


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
            y = BaseElement(base, {a: field.one()})
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


# -- work counts of one cold construction -----------------------------------------
#
# One cold parse -> resolve -> check -> verify run of a corpus spec, counted by
# wrapping library methods inside the test: field inversions (``_inv`` calls:
# a memo lookup in Q(zeta_N), a swap in Q(q)), passes of the zero filter in
# the public Sparse constructor, products in A, sigma applications, products
# in R and products of tensors, calls of ``generator_info`` on every family
# class that defines it, polynomial gcds in Q(q) (``scalar._int_gcd``), runs of the
# Q(zeta_N) product and inverse kernels behind the field's memos, and
# integer polynomial products (``scalar.poly_mul``, run only by Q(q)). The
# pins are the counts the library reaches, asserted exactly, so that a count
# that falls is recorded here too; a rise means repeated cold-path work has
# come back (products by the unit in a leg antipode, S(X-)^0 S(X+)^m,
# a power or a leg coproduct, image-path inverse checks of a diagonal sigma, a
# sigma application or a product for a leg-product miss with the one
# monomial, a word of A rebuilt instead of read from the word cache, sigma^0
# applied to the coefficients of a word X-^n X+^p, a product by a unit word
# coefficient, recomputed coproducts in the relation
# checks, a generator list
# rebuilt instead of read from ``BaseAlgebra.generators`` or
# ``unit_generators``, ``generator_info()`` called more than once per
# algebra (the parent of that change read 4 on the U_q(sl2) specs), a
# U_q(sl2) character checked through powers of q or the product y+ y- formed
# again for the z-factorization (the parent of those two read 51 products in
# R and 165 Scalars on ``uqsl2-case3``), a gcd on a cross pair with a
# single-term member, a Q(zeta_N) product or inverse recomputed instead of
# read from its memo, a Q(q) product by a single-term factor or a sum over a single-term
# denominator that multiplies polynomials instead of scaling and shifting,
# or a sum of two single terms that multiplies polynomials instead of
# adding integers; the parent of that sum read 26 and 18 polynomial
# products on ``uqsl2`` and ``uqsl2-general``, or a Q(q) side that holds
# its power of q again: the parent of the (v, num, den) layout took the gcd
# of q^5 - q^3 and q^2 - 1 and multiplied sides by q^3, reading 5 gcds and 9
# polynomial products on ``uqsl2-general``), a generator, a monomial of A or
# a sum with zero that passes the public constructor's zero filter again (the
# parent of that change read 33, 32, 25 and 13 passes), or a single-term
# Q(zeta_N) inverse taken through the Galois norm (57 product kernels on
# ``uqsl2-case3``), or a leg-product miss on a diagonal sigma that applies
# sigma to a one-term element and multiplies elements again, or images a K,
# b E, c F of a U_q(sl2) automorphism multiplied out as elements (the parent
# of those two read 70 sigma applications and 99 products in R on
# ``uqsl2-case3``, 42 and 76 on ``uqsl2``).
# ``uqsl2-general`` routes through the change of variables, and its cold
# build is the one that runs Q(q) gcds. The last two columns count the
# ``Scalar`` objects built (containers hold raw field data, so a rise means a
# kernel wraps its data again) and the calls of the fields' ``_mul`` and
# ``_add`` (a rise means a product by one or by zero that a kernel skipped
# is taken again); the parent of the raw containers read 256/181, 187/117,
# 108/65 and 57/22 there. The axiom proof alone checks the antipode on
# X+-: the constructor's own copy of that check read 2 more A products per
# handle (4 on the U_q(sl2) specs, whose base builds a handle of its own).
# The last column counts the coproducts and antipodes in R (``base_delta``
# and ``base_antipode``); a rise means a value is derived twice, such as
# Delta(g) for both windings of sigma and sigma^-1, or the winding
# tau^l_chi(g) that sigma already holds (the parent of that change read 40,
# 40, 26 and 13), Delta(g) again for the winding condition's tau^r_chi(g),
# or Delta(y+) and S of its terms again for each generator's ad_l(y+) (the
# parent of that change read 28, 28, 22 and 9, and built 41 Scalars on
# usl2).

COLD_BUILD_BOUNDS = {  # spec: (field inversions, zero-filter passes, A products,
    #                           sigma, R products, tensor products, generator_info,
    #                           Q(q) gcds, Q(zeta_N) product kernels, inverse kernels,
    #                           Q(q) polynomial products, Scalars built,
    #                           field _mul and _add calls, R coproducts and antipodes)
    "uqsl2-case3": (38, 3, 2, 12, 49, 21, 2, 0, 27, 8, 0, 146, 102, 20),
    "uqsl2": (32, 5, 2, 12, 48, 21, 2, 0, 0, 0, 8, 107, 47, 20),
    "uqsl2-general": (22, 7, 4, 19, 70, 6, 1, 4, 0, 0, 6, 65, 39, 21),
    "usl2": (3, 3, 0, 8, 13, 6, 1, 0, 0, 0, 0, 39, 11, 8),
    "uqsl2-counit-root": (38, 3, 2, 12, 49, 21, 2, 0, 25, 6, 0, 129, 74, 20),
    "laurent-asym": (9, 2, 0, 3, 16, 6, 1, 0, 0, 0, 0, 38, 20, 8),
}


@pytest.mark.parametrize("name", sorted(COLD_BUILD_BOUNDS))
def test_cold_build_counts(monkeypatch, name):
    doc = parse_spec((corpus_dir() / f"{name}.abhk").read_text(encoding="utf-8"))
    # the Q(zeta_N) tables are process-wide caches: built here, before the
    # counters go on, the count is the same whichever tests ran before
    if doc.field_kind == "cyclotomic":
        scalar.cyclotomic_fold_table(doc.field_order)
    counts = CallCounter(monkeypatch, "inv", "filter", "mul", "apply", "base_mul", "tensor_mul",
                         "generator_info", "int_gcd", "mul_kernel", "inv_kernel", "poly_mul",
                         "scalar", "mul_add", "coalgebra")
    for field_class in (RationalField, CyclotomicField, RationalFunctionField):
        counts.patch(field_class, "_inv", "inv")
        for attr in ("_mul", "_add"):
            counts.patch(field_class, attr, "mul_add")
    counts.patch(Scalar, "__init__", "scalar")
    counts.patch(Sparse, "__init__", "filter")
    counts.patch(AmbiElement, "__mul__", "mul")
    counts.patch(BaseAutomorphism, "apply", "apply")
    counts.patch(BaseElement, "__mul__", "base_mul")
    counts.patch(Tensor, "__mul__", "tensor_mul")
    for family_class in (PolynomialBase, LaurentBase, GroupBase, UqSl2Base):
        counts.patch(family_class, "generator_info", "generator_info")
    counts.patch(scalar, "_int_gcd", "int_gcd")
    counts.patch(scalar, "poly_mul", "poly_mul")
    for key in ("mul_kernel", "inv_kernel"):
        counts.patch(CyclotomicField, f"_{key}", key)
    for module in (basehopf, hopfstruct):  # hopfstruct calls its imported names
        for attr in ("base_delta", "base_antipode"):
            if hasattr(module, attr):
                counts.patch(module, attr, "coalgebra")
    _checked_algebra(resolve_spec(doc))
    for key, pinned in zip(counts, COLD_BUILD_BOUNDS[name], strict=True):
        assert counts[key] == pinned, (key, counts)
