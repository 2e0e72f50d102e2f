"""Coradical filtration: degree formula, closed-form coproduct oracles,
low-degree layers, and the defining wedge condition."""

from __future__ import annotations

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abhk import Character, ExtensionData, construct_hopf
from abhk.ambicore import Tensor
from abhk.cli import _checked_algebra, _context, corpus_dir
from abhk.coradical import (
    CoradicalContext,
    corad_breakdown,
    corad_degree,
    delta_mixed_closed,
    delta_power_closed,
    sparse_support,
)
from abhk.exprparse import eval_expr, parse_expr, parse_spec, resolve_spec
from abhk.scalar import CyclotomicField, RationalFunctionField, hat, prec
from abhk.uqsl2 import UqSl2Base

from conftest import CORPUS_BUILDERS, build_laurent, random_base_element, random_element
from oracles import corad_degree_by_definition, per_pair_mixed_closed


def laurent_at_root(order):
    field = CyclotomicField(order)
    return build_laurent(field.zeta(), ell=1)


def test_context_from_algebra():
    hopf = CORPUS_BUILDERS["usl2"]()
    ctx = CoradicalContext.for_algebra(hopf)
    assert ctx.d == 1  # xi = 1 uses the non-root convention
    hopf3 = laurent_at_root(3)
    assert CoradicalContext.for_algebra(hopf3).d == 3
    generic = CORPUS_BUILDERS["quantum-affine"]()
    assert CoradicalContext.for_algebra(generic).d is None


def test_corad_degree_examples():
    hopf = CORPUS_BUILDERS["usl2"]()
    ctx = CoradicalContext.for_algebra(hopf)
    A = hopf.algebra
    t = A.base.generator("t")
    assert corad_degree(A.one(), ctx) == 0
    assert corad_degree(A.embed(t) * A.xplus(), ctx) == 2
    assert corad_degree(A.xplus() ** 3, ctx) == 3
    with pytest.raises(ValueError):
        corad_degree(A.zero(), ctx)


def test_root_case_jump():
    hopf = laurent_at_root(3)
    ctx = CoradicalContext.for_algebra(hopf)
    A = hopf.algebra
    assert corad_degree(A.xplus() ** 3, ctx) == 1  # hat(3) = 1 at d = 3
    assert corad_degree(A.xplus() ** 2, ctx) == 2
    assert corad_degree(A.xminus() ** 3, ctx) == 1
    assert corad_degree(A.xplus() ** 4, ctx) == 2  # 4 = 3 + 1 -> 1 + 1


def test_breakdown_lists_each_term():
    hopf = CORPUS_BUILDERS["usl2"]()
    ctx = CoradicalContext.for_algebra(hopf)
    A = hopf.algebra
    t = A.base.generator("t")
    elem = A.monomial(t, 1, 0) + A.xminus()
    rows = corad_breakdown(elem, ctx)
    assert rows == [(0, 1, 0, 1), (1, 0, 1, 2)]


# -- closed-form oracle equivalence ---------------------------------------------


def oracle_algebras():
    out = [("generic", build_laurent(RationalFunctionField().q(), ell=1))]
    for order in (2, 3, 4):
        out.append((f"zeta{order}", laurent_at_root(order)))
    return out


@pytest.mark.parametrize("name,hopf", oracle_algebras())
def test_power_coproducts_match_engine(name, hopf):
    for sign in ("+", "-"):
        x = hopf.algebra.xplus() if sign == "+" else hopf.algebra.xminus()
        for m in range(4):
            assert delta_power_closed(hopf, sign, m) == hopf.delta(x**m), (name, sign, m)


def test_power_coproducts_match_engine_on_the_corpus(corpus):
    for name, hopf in corpus.items():
        for sign in ("+", "-"):
            x = hopf.algebra.xplus() if sign == "+" else hopf.algebra.xminus()
            for m in range(7):
                assert delta_power_closed(hopf, sign, m) == hopf.delta(x**m), (name, sign, m)
    with pytest.raises(ValueError):
        delta_power_closed(corpus["usl2"], "*", 1)


@pytest.mark.parametrize("name,hopf", oracle_algebras())
def test_mixed_coproducts_match_engine(name, hopf):
    A = hopf.algebra
    for m in range(3):
        for n in range(3):
            engine = hopf.delta(A.xplus() ** m * A.xminus() ** n)
            assert delta_mixed_closed(hopf, m, n) == engine, (name, m, n)


def test_mixed_closed_matches_per_pair_loop(corpus):
    for name, hopf in corpus.items():
        for m in range(6):
            for n in range(6):
                got = delta_mixed_closed(hopf, m, n)
                want = per_pair_mixed_closed(hopf, m, n)
                assert list(got.coeffs.items()) == list(want.coeffs.items()), (name, m, n)


def test_power_coproduct_examples():
    hopf = laurent_at_root(3)
    A = hopf.algebra
    # m = 0 gives 1 (x) 1
    from abhk.ambicore import Tensor
    assert delta_power_closed(hopf, "+", 0) == Tensor.of(A.one(), A.one())
    # at a primitive d-th root, m = d collapses to two terms
    d = 3
    y = hopf.data.y_plus
    xp = A.xplus()
    expected = Tensor.of(xp**d, A.one()) + Tensor.of(A.embed(y**d), xp**d)
    assert delta_power_closed(hopf, "+", d) == expected


def test_mixed_example_eq5():
    hopf = CORPUS_BUILDERS["uqsl2-variant"]()
    A = hopf.algebra
    from abhk.ambicore import Tensor
    expected = Tensor.of(A.xplus(), A.one()) + Tensor.of(A.embed(hopf.data.y_plus), A.xplus())
    assert delta_mixed_closed(hopf, 1, 0) == expected


def test_mixed_root_case_survivors():
    hopf = laurent_at_root(3)
    d = 3
    spread = delta_mixed_closed(hopf, d, d)
    # only (j, k) with j, k in {0, d} survive the binomial vanishing
    for ((_, j, k), (_, j2, k2)) in spread.coeffs:
        assert j in (0, d) and k in (0, d)
        assert j2 in (0, d) and k2 in (0, d)


# -- sparse support --------------------------------------------------------------


def test_sparse_support_examples():
    hopf3 = laurent_at_root(3)
    ctx3 = CoradicalContext.for_algebra(hopf3)
    assert [p for p, _ in sparse_support(7, ctx3)] == [0, 1, 3, 4, 6, 7]

    generic = CORPUS_BUILDERS["quantum-affine"]()
    ctxg = CoradicalContext.for_algebra(generic)
    assert [p for p, _ in sparse_support(4, ctxg)] == [0, 1, 2, 3, 4]

    pairs = sparse_support(3, ctx3)
    assert [p for p, _ in pairs] == [0, 3]
    assert all(alpha.is_one() for _, alpha in pairs)


def test_sparse_support_matches_prec_downset_and_engine():
    for order in (2, 3, 4):
        hopf = laurent_at_root(order)
        ctx = CoradicalContext.for_algebra(hopf)
        for m in range(7):
            support = {p for p, _ in sparse_support(m, ctx)}
            assert support == {p for p in range(m + 1) if prec(p, m, ctx.d)}
            # the engine coproduct is supported exactly on the downset
            spread = hopf.delta(hopf.algebra.xplus() ** m)
            engine_support = {key[0][1] for key in spread.coeffs}
            assert engine_support == support
            for p, alpha in sparse_support(m, ctx):
                assert not alpha.is_zero()


# -- filtration laws --------------------------------------------------------------


def test_submultiplicativity_random(corpus):
    rng = random.Random(31)
    for name in ("usl2", "uqsl2-variant", "uqsl2-case3", "laurent-asym"):
        hopf = corpus[name]
        ctx = CoradicalContext.for_algebra(hopf)
        for _ in range(25):
            a = random_element(rng, hopf)
            b = random_element(rng, hopf)
            ab = a * b
            if ab.is_zero():
                continue
            assert corad_degree(ab, ctx) <= corad_degree(a, ctx) + corad_degree(b, ctx)


def test_layer_zero_is_base_coradical(corpus):
    # A_0 = R_0: spanning checks per family
    hopf = corpus["usl2"]
    ctx = CoradicalContext.for_algebra(hopf)
    A = hopf.algebra
    t = A.base.generator("t")
    assert corad_degree(A.one(), ctx) == 0
    assert corad_degree(A.embed(t), ctx) == 1  # t is not in R_0 for k[t]

    hopfL = corpus["quantum-affine"]
    ctxL = CoradicalContext.for_algebra(hopfL)
    AL = hopfL.algebra
    for k in (-2, 0, 3):
        assert corad_degree(AL.embed(AL.base.generator("t", k)), ctxL) == 0


def test_layer_one_generic_and_root():
    # generic: A_1 = R_1 + R_0 X+-; the root case gains R_0 X+-^d
    generic = CORPUS_BUILDERS["quantum-affine"]()
    ctx = CoradicalContext.for_algebra(generic)
    A = generic.algebra
    t = A.base.generator("t")
    assert corad_degree(A.monomial(t, 1, 0), ctx) == 1
    assert corad_degree(A.xminus(), ctx) == 1
    assert corad_degree(A.xplus() ** 2, ctx) == 2  # just outside A_1

    root = laurent_at_root(3)
    ctx3 = CoradicalContext.for_algebra(root)
    A3 = root.algebra
    assert corad_degree(A3.xplus() ** 3, ctx3) == 1  # the extra summand
    assert corad_degree(A3.xplus() ** 2, ctx3) == 2
    assert corad_degree(A3.xminus() ** 3, ctx3) == 1
    t3 = A3.base.generator("t")
    assert corad_degree(A3.monomial(t3, 0, 3), ctx3) == 1


def test_uqsl2_filtration_by_iteration(corpus):
    # the quantum group's own coradical degrees come from the extension
    # formula applied to its internal presentation
    hopf = corpus["uqsl2-trivial"]
    ctx = CoradicalContext.for_algebra(hopf)
    A = hopf.algebra
    base = A.base
    e, f = base.generator("E"), base.generator("F")
    assert corad_degree(A.embed(e * f), ctx) == 2
    assert corad_degree(A.embed(e), ctx) == 1
    assert corad_degree(A.embed(base.generator("K", 3)), ctx) == 0
    # cross-check: hat(1) + hat(1) = 2 with the inner order parameter
    inner_d = base._corad_d
    assert hat(1, inner_d).hat + hat(1, inner_d).hat == 2

    # at a primitive cube root the inner xi = q^-2 has order 3: E^3 drops
    root = corpus["uqsl2-counit-root"]
    ctx3 = CoradicalContext.for_algebra(root)
    A3 = root.algebra
    e3 = A3.base.generator("E")
    assert corad_degree(A3.embed(e3**3), ctx3) == 1
    assert corad_degree(A3.embed(e3**2), ctx3) == 2


def test_wedge_membership_of_random_elements(corpus):
    """Delta(a) - a (x) 1 lies in A_(t-1) (x) A + A (x) A_0 for t >= 1,
    and not in A_(t-2) (x) A + A (x) A_0, so t is the least such degree
    (A_n = A_(n-1) wedge A_0, and A_(-1) = 0): both spaces are spanned by
    basis tensors, so support inspection is a complete membership test."""
    rng = random.Random(62)
    total = 0  # draws with t >= 1, each checked
    for name in ("usl2", "uqsl2-variant", "laurent-asym", "uqsl2-counit-root", "group-z-z4"):
        hopf = corpus[name]
        ctx = CoradicalContext.for_algebra(hopf)
        A = hopf.algebra
        base_degree = A.base.coradical_degree_monomial
        # half the draws are base elements, where the base's own degree
        # alone sets t
        draws = [random_element(rng, hopf) for _ in range(15)]
        draws += [A.embed(random_base_element(rng, A.base, max_support=2)) for _ in range(15)]
        checked = 0
        for a in draws:
            if a.is_zero() or (t_deg := corad_degree(a, ctx)) < 1:
                continue
            checked += 1
            spread = hopf.delta(a) - Tensor.of(a, A.one())
            reaches = False  # a key outside A_(t-2) (x) A + A (x) A_0
            for ((mono1, m1, n1), (mono2, m2, n2)) in spread.coeffs:
                left_deg = (base_degree(mono1) + hat(m1, ctx.d).hat + hat(n1, ctx.d).hat)
                right_deg = (base_degree(mono2) + hat(m2, ctx.d).hat + hat(n2, ctx.d).hat)
                assert left_deg <= t_deg - 1 or right_deg == 0, (name, a)
                reaches = reaches or (left_deg >= t_deg - 1 and right_deg > 0)
            assert reaches, (name, a, t_deg)
        assert checked >= 12, (name, checked)  # 15 to 29 with this seed
        total += checked
    assert total >= 50, total


# -- the filtration from its definition ---------------------------------------------


def _uqsl2_at_root(order, chi_k=1, power=None):
    """U_q(sl2) at q = zeta_order, extended with chi(K) = chi_k, y+- = K^power
    and h = 1 - K^(2 power). The default power is the order of q^2, the least
    with K^power central; xi = chi_k^power."""
    field = CyclotomicField(order)
    base = UqSl2Base(field, field.zeta())
    chi = Character(base, {"E": field.zero(), "F": field.zero(), "K": field.from_int(chi_k)})
    y = base.generator("K", power or order // math.gcd(order, 2))
    return construct_hopf(base, ExtensionData(base, chi, y, y, base.one() - y * y))[0]


# Laurent extensions with xi = zeta_N, N = 2 .. 6 (d = N); U_q(sl2) extensions
# at q = zeta_N, N = 3 .. 6 (q = zeta_2 = -1 is not a U_q(sl2) parameter), whose
# base filtration runs at the order of q^-2 (3, 2, 5, 3) with xi = 1, and one
# at q = zeta_4 with xi = chi(K) = -1 (d = 2)
ROOT_EXTENSIONS = {
    **{f"laurent-zeta{n}": functools.partial(laurent_at_root, n) for n in range(2, 7)},
    **{f"uqsl2-zeta{n}": functools.partial(_uqsl2_at_root, n) for n in range(3, 7)},
    "uqsl2-zeta4-xi-1": functools.partial(_uqsl2_at_root, 4, chi_k=-1, power=1),
}


@functools.cache
def _root_algebra(name):
    return ROOT_EXTENSIONS[name]()


def _random_element(rng, hopf):
    """One or two terms c r X+^m X-^n, r a product of generator powers, with
    m + n plus the exponents of the generators that are not invertible at
    most 4 (invertible ones take -2 .. 2), so base powers reach past the
    base's own order too."""
    alg = hopf.algebra
    base = alg.base
    out = alg.zero()
    for _ in range(rng.randint(1, 2)):
        budget = 4
        r = base.one()
        for info in base.generator_info():
            if info.invertible:
                k = rng.randint(-2, 2)
            else:
                k = rng.randint(0, budget)
                budget -= k
            r = r * base.generator(info.name, k)
        m = rng.randint(0, budget)
        n = rng.randint(0, budget - m)
        out = out + alg.monomial(r.scale(base.field.from_int(rng.choice((1, -1, 2)))), m, n)
    return out


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CORPUS_BUILDERS) + sorted(ROOT_EXTENSIONS)),
       seed=st.integers(0, 2**32 - 1))
def test_corad_degree_is_the_least_layer_of_the_definition(corpus, name, seed):
    hopf = corpus[name] if name in corpus else _root_algebra(name)
    a = _random_element(random.Random(seed), hopf)
    if a.is_zero():
        return
    assert corad_degree_by_definition(hopf, a) == corad_degree(a, CoradicalContext.for_algebra(hopf))


@pytest.mark.parametrize("name", sorted(CORPUS_BUILDERS) + sorted(ROOT_EXTENSIONS))
def test_corad_degree_of_powers_by_the_definition(corpus, name):
    """X+^k and X-^k up to one past the order of xi, where the d-adic hat
    drops, and X+^2 X-^2."""
    hopf = corpus[name] if name in corpus else _root_algebra(name)
    ctx = CoradicalContext.for_algebra(hopf)
    alg = hopf.algebra
    top = min(ctx.d or 3, 6) + 1
    elements = [alg.xplus(k) for k in range(top + 1)] + [alg.xminus(k) for k in range(1, top + 1)]
    for a in elements + [alg.xplus(2) * alg.xminus(2)]:
        assert corad_degree_by_definition(hopf, a) == corad_degree(a, ctx), a


CORAD_SPECS = sorted(path.stem for path in corpus_dir().glob("*.abhk")
                     if "corad {" in path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CORAD_SPECS)
def test_every_expected_corad_entry_by_the_definition(name):
    spec = resolve_spec(parse_spec((corpus_dir() / f"{name}.abhk").read_text(encoding="utf-8")))
    hopf, _ = _checked_algebra(spec)
    ctx = _context(spec, hopf.algebra)
    entries = spec.expect.blocks["corad"].entries
    assert entries
    for text, want in entries.items():
        a = eval_expr(parse_expr(text), ctx)
        assert corad_degree_by_definition(hopf, a) == int(want), text
