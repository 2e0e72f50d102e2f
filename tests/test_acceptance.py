"""Acceptance suite: one test per criterion, each printing a pass line.

Every comparison in this module is exact (structural equality of
normal forms); there are no tolerances anywhere.
"""

from __future__ import annotations

import random
import time

import pytest

from abhk.ambicore import AmbiskewAlgebra, Tensor, reduce_word
from abhk.basehopf import Character, GroupBase, LaurentBase, winding_automorphism_left
from abhk.coradical import (
    CoradicalContext,
    corad_degree,
    delta_mixed_closed,
    delta_power_closed,
)
from abhk.hopfstruct import (
    ExtensionData,
    GeneralPresentation,
    check_main_theorem,
    classify_trichotomy,
    construct_hopf,
    relabel,
    verify_hopf_axioms,
)
from abhk.basehopf import invert_element
from abhk.properties import dim_bounds, gk_report, pi_check
from abhk.scalar import (
    CyclotomicField,
    RationalField,
    RationalFunctionField,
    gaussian_binomial_poly,
    poly_add,
    poly_mul,
    q_binomial,
)

from conftest import (
    CORPUS_BUILDERS,
    build_laurent,
    random_base_element,
    random_element,
)

QQ = RationalField()


def _announce(number: int, label: str):
    print(f"ACCEPTANCE {number} ({label}): pass")


@pytest.fixture(scope="module")
def algebras():
    return {name: build() for name, build in CORPUS_BUILDERS.items()}


def test_criterion_1_hopf_axiom_suite(algebras):
    started = time.monotonic()
    rng = random.Random(101)
    assert len(algebras) >= 9
    for name, hopf in algebras.items():
        report = verify_hopf_axioms(hopf)
        assert report.overall, (name, [c.name for c in report.failures()])
        A = hopf.algebra
        for _ in range(100):
            x = random_element(rng, hopf, max_terms=2, max_degree=3)
            d = hopf.delta(x)
            assert d.expand_leg(0, hopf.delta_leg) == d.expand_leg(1, hopf.delta_leg)
            single = Tensor.of(x)
            assert d.contract_leg(0, hopf.counit_leg) == single
            assert d.contract_leg(1, hopf.counit_leg) == single
            target = Tensor.of(A.one().scale(hopf.counit(x)))
            assert d.map_leg(0, hopf.antipode_leg).merge_legs(0) == target
            assert d.map_leg(1, hopf.antipode_leg).merge_legs(0) == target
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"
    _announce(1, f"Hopf axiom suite on {len(algebras)} algebras, {elapsed:.1f}s")


def test_criterion_2_coproduct_oracle_equivalence(algebras):
    settings = [("generic", build_laurent(RationalFunctionField().q(), ell=1))]
    for order in (2, 3, 4):
        field = CyclotomicField(order)
        settings.append((f"zeta_{order}", build_laurent(field.zeta(), ell=1)))
    settings += list(algebras.items())
    for name, hopf in settings:
        A = hopf.algebra
        for m in range(6):
            assert delta_power_closed(hopf, "+", m) == hopf.delta(A.xplus() ** m), (name, m)
            assert delta_power_closed(hopf, "-", m) == hopf.delta(A.xminus() ** m), (name, m)
        for m in range(6):
            for n in range(6):
                engine = hopf.delta(A.xplus() ** m * A.xminus() ** n)
                assert delta_mixed_closed(hopf, m, n) == engine, (name, m, n)
    _announce(2, "closed-form coproducts equal engine coproducts, m,n <= 5, "
                 f"{len(settings)} algebras")


def test_criterion_3_coradical_layers(algebras):
    # A_0 = R_0 on spanning sets
    usl2 = algebras["usl2"]
    ctx = CoradicalContext.for_algebra(usl2)
    A = usl2.algebra
    t = A.base.generator("t")
    assert corad_degree(A.one(), ctx) == 0
    assert corad_degree(A.embed(t), ctx) == 1
    generic = algebras["quantum-affine"]
    ctxg = CoradicalContext.for_algebra(generic)
    for k in (-3, 0, 2):
        mono = generic.algebra.base.generator("t", k)
        assert corad_degree(generic.algebra.embed(mono), ctxg) == 0

    # A_1 = R_1 + R_0 X+- generically, gaining R_0 X+-^d at a root (d = 3)
    assert corad_degree(generic.algebra.xplus(), ctxg) == 1
    assert corad_degree(generic.algebra.xplus() ** 2, ctxg) == 2
    c3 = CyclotomicField(3)
    root = build_laurent(c3.zeta(), ell=1)
    ctx3 = CoradicalContext.for_algebra(root)
    assert corad_degree(root.algebra.xplus() ** 3, ctx3) == 1
    assert corad_degree(root.algebra.xplus() ** 2, ctx3) == 2
    assert corad_degree(root.algebra.xminus() ** 3, ctx3) == 1

    # the quantum group's filtration is recovered by iteration
    uq = algebras["uqsl2-trivial"]
    ctxu = CoradicalContext.for_algebra(uq)
    base = uq.algebra.base
    ef = base.generator("E") * base.generator("F")
    assert corad_degree(uq.algebra.embed(ef), ctxu) == 2
    at3 = algebras["uqsl2-counit-root"]
    ctxa = CoradicalContext.for_algebra(at3)
    e3 = at3.algebra.base.generator("E") ** 3
    assert corad_degree(at3.algebra.embed(e3), ctxa) == 1
    at8 = algebras["uqsl2-case3"]
    ctx8 = CoradicalContext.for_algebra(at8)
    e = at8.algebra.base.generator("E")
    assert corad_degree(at8.algebra.embed(e**4), ctx8) == 1  # inner xi has order 4
    assert corad_degree(at8.algebra.embed(e**3), ctx8) == 3
    _announce(3, "coradical layers and quantum-sl2 filtration by iteration")


def _random_valid_dataset(rng: random.Random):
    style = rng.choice(["laurent-generic", "laurent-root", "group", "group-torsion"])
    if style == "laurent-generic":
        field = RationalFunctionField()
        eta = field.q() ** rng.randint(1, 3)
        return build_laurent(eta, ell=rng.randint(1, 3), lam=rng.randint(0, 2))
    if style == "laurent-root":
        order = rng.choice([2, 3, 4, 6])
        field = CyclotomicField(order)
        ell = rng.randint(1, 3)
        en = ell + order * rng.randint(0, 1)
        return build_laurent(field.zeta(), ell=ell, en=en, lam=rng.randint(0, 2))
    if style == "group":
        field = QQ
        base = GroupBase(field, rank=2)
        chi = Character(base, {"g1": field.from_int(rng.choice([1, -1, 2, 3])),
                               "g2": field.from_int(rng.choice([1, -1, 2]))})
        y = base.element({(rng.randint(-2, 2), rng.randint(-2, 2)): field.one()})
        h = (y * y - base.one()).scale(field.from_int(rng.randint(0, 2)))
        return construct_hopf(base, ExtensionData(base, chi, y, y, h))[0]
    field = CyclotomicField(3)
    base = GroupBase(field, rank=1, torsion=(3,))
    chi = Character(base, {"g1": field.from_int(rng.choice([1, 2])),
                           "g2": field.zeta(rng.randint(0, 2))})
    y = base.generator("g1", rng.randint(-1, 1)) * base.generator("g2", rng.randint(0, 2))
    z = y * y
    h = (z - base.one()).scale(field.from_int(rng.randint(0, 1)))
    return construct_hopf(base, ExtensionData(base, chi, y, y, h))[0]


def test_criterion_4_trichotomy_identity_grid():
    rng = random.Random(424242)
    for _ in range(50):
        hopf = _random_valid_dataset(rng)
        data = hopf.data
        cases = classify_trichotomy(data)
        assert cases
        field_one = data.base.field.one()
        lhs = data.h.scale(data.xi * data.xi - field_one)
        rhs = (data.z - data.base.one()).scale(data.chi(data.h))
        assert lhs == rhs
        # consistency: the membership conditions replay the case set
        xi_pm = data.xi.is_one() or data.xi == -field_one
        if "iii" in cases:
            assert not xi_pm
        if xi_pm:
            assert cases <= {"i", "ii"}
    _announce(4, "trichotomy identity exact on 50 randomized datasets")


def test_criterion_5_round_trip_relabel():
    rng = random.Random(5050)
    styles = ["uqsl2-variant", "uqsl2-root", "quantum-affine", "laurent-asym",
              "heisenberg", "usl2"]
    done = 0
    while done < 20:
        hopf = CORPUS_BUILDERS[rng.choice(styles)]()
        A = hopf.algebra
        base, chi = A.base, hopf.data.chi
        grouplikes = base.grouplike_generators()
        if grouplikes:
            rp = grouplikes[0] ** rng.randint(-2, 2)
            rm = grouplikes[0] ** rng.randint(-2, 2)
        else:
            rp = rm = base.one()
        lp, lm = hopf.data.y_plus * rp, hopf.data.y_minus * rm
        h_prime = (A.h * (rp * rm)).scale(chi(rp))
        xi_prime = A.xi * chi(rp * rm)
        A_prime = AmbiskewAlgebra(base, A.sigma, h_prime, xi_prime)
        data, _ = relabel(GeneralPresentation(A_prime, lp, lm, rp, rm))
        assert data.xi == A.xi and data.h == A.h
        assert data.y_plus == hopf.data.y_plus
        assert check_main_theorem(base, data).overall
        # the reconstructed pair satisfies the skew relation exactly
        xp_hat = A_prime.xplus() * A_prime.embed(invert_element(rp))
        xm_hat = A_prime.xminus() * A_prime.embed(invert_element(rm))
        relation = xp_hat * xm_hat - (xm_hat * xp_hat).scale(data.xi)
        assert relation == A_prime.embed(data.h)
        done += 1
    _announce(5, "20 randomized general-form round trips relabel exactly")


def test_criterion_6_invariant_reports(algebras):
    for name, hopf in algebras.items():
        base_gk = hopf.base.descriptor.gk_dim
        gk, _ = gk_report(hopf.algebra, hopf_verified=True)
        assert gk == base_gk + 2, name
        family = hopf.base.family
        expected = (3 if family in ("polynomial", "laurent")
                    else hopf.base.rank + 2 if family == "group" else 5)
        assert gk == expected, name
        gl, _ = dim_bounds(hopf.algebra, hopf_verified=True)
        assert gl.exact and gl.upper == hopf.base.descriptor.gl_dim + 2, name

    # PI criterion instance: n = t = 3 with admissible h gives degree 18
    c3 = CyclotomicField(3)
    base = LaurentBase(c3)
    chi = Character(base, {"t": c3.zeta()})
    sigma = winding_automorphism_left(chi)
    admissible = (base.generator("t", 2) - base.one())
    algebra = AmbiskewAlgebra(base, sigma, admissible, c3.zeta())
    entry = pi_check(algebra)
    assert entry.satisfies_pi is True
    assert (entry.sigma_order, entry.xi_order, entry.pi_degree) == (3, 3, 18)

    obstructed = (base.generator("t", 4) - base.one())
    algebra = AmbiskewAlgebra(base, sigma, obstructed, c3.zeta())
    entry = pi_check(algebra)
    assert entry.satisfies_pi is False
    assert entry.obstruction is not None
    _announce(6, "GK = base + 2, gl.dim exact, PI degree 18 with rejection")


def test_criterion_7_engine_soundness(algebras):
    rng = random.Random(707)
    for name, hopf in algebras.items():
        A = hopf.algebra
        for _ in range(200):
            a = random_element(rng, hopf, max_terms=2, max_degree=3, base_support=2)
            b = random_element(rng, hopf, max_terms=2, max_degree=3, base_support=2)
            c = random_element(rng, hopf, max_terms=2, max_degree=3, base_support=2)
            assert (a * b) * c == a * (b * c), name
    names = list(algebras)
    for i in range(100):
        hopf = algebras[names[i % len(names)]]
        A = hopf.algebra
        word = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.35:
                word.append("X+")
            elif roll < 0.7:
                word.append("X-")
            else:
                word.append(random_base_element(rng, A.base, max_support=1))
        left = reduce_word(A, word, "leftmost")
        right = reduce_word(A, word, "rightmost")
        shuffled = reduce_word(A, word, "random", rng=random.Random(i))
        assert left == right == shuffled
    _announce(7, "associativity (200 triples/algebra) and confluence (100 words)")


def test_criterion_8_q_binomial_suite():
    # Pascal recurrences as polynomial identities for n <= 12
    for n in range(1, 13):
        for i in range(n + 1):
            target = gaussian_binomial_poly(n, i)
            left = gaussian_binomial_poly(n - 1, i - 1) if i >= 1 else ()
            right = (poly_mul((0,) * i + (1,), gaussian_binomial_poly(n - 1, i))
                     if i <= n - 1 else ())
            assert poly_add(left, right) == target
    # vanishing at primitive roots for n <= 8
    for n in range(2, 9):
        field = CyclotomicField(n)
        for i in range(1, n):
            assert q_binomial(n, i, field.zeta()).is_zero()
    _announce(8, "Pascal identities to n = 12; root-of-unity vanishing to n = 8")


def test_criterion_9_suite_budget():
    # the session-wide five-minute assertion lives in the suite_timer
    # fixture; this records the checkpoint inside the acceptance module
    from conftest import _SUITE_START

    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 300.0
    _announce(9, f"suite within budget at acceptance checkpoint ({elapsed:.1f}s)")
