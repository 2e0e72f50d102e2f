"""The Hopf layer on an ambiskew extension.

Provides the executable form of the construction theorem (necessary and
sufficient data checks, both directions), the coproduct/counit/antipode on
the extension (each defined once, on the legs (mono, m, n) of
``ambicore.Tensor``, and extended linearly to elements), mechanical
verification of the Hopf axioms, the change of variables from a general
skew-primitive presentation to hat form, the commutative/cocommutative
fast paths, and the trichotomy classifier.

All universally quantified conditions are checked on algebra generators;
each side of every condition is an algebra map or a composite of
(anti)automorphisms, so generator checks are conclusive. Reports record
this as "verified on generators".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ambicore import AmbiElement, AmbiskewAlgebra, Tensor, _flatten
from .basehopf import (
    BaseAlgebra,
    BaseAutomorphism,
    BaseElement,
    BaseTensor,
    Character,
    adjoint_left,
    adjoint_right,
    base_antipode,
    base_counit,
    base_delta,
    combine,
    invert_element,
    is_central,
    is_grouplike,
    scalar_multiple_of,
    winding_left,
    winding_right,
    winding_automorphism_left,
)
from .errors import (
    AlgebraMismatchError,
    HopfDataError,
    InternalError,
    UnsupportedBaseError,
)
from .scalar import Scalar


class ExtensionData:
    """The tuple (chi, y+, y-, z, h, xi, sigma) defining a hat-form
    ambiskew Hopf extension candidate.

    z and xi are derived (z = y+ y-, xi = chi(y+)) and sigma is always the
    materialized left winding by chi; whether the data actually satisfies
    the construction theorem is the checker's job, not the constructor's.
    """

    def __init__(self, base: BaseAlgebra, chi: Character, y_plus: BaseElement,
                 y_minus: BaseElement, h: BaseElement):
        if chi.algebra != base or y_plus.algebra != base or y_minus.algebra != base \
                or h.algebra != base:
            raise AlgebraMismatchError("extension data must live over one base")
        self.base = base
        self.chi = chi
        self.y_plus = y_plus
        self.y_minus = y_minus
        self.h = h
        self.z = y_plus * y_minus
        self.xi = chi(y_plus)
        self.sigma = winding_automorphism_left(chi)


@dataclass(frozen=True)
class Condition:
    name: str
    ok: bool
    witness: str = ""


@dataclass
class CheckReport:
    """Outcome of a structured verification run."""

    title: str
    conditions: list[Condition] = field(default_factory=list)
    classification: frozenset[str] | None = None
    algebra: "HopfAmbiskewAlgebra | None" = None

    def record(self, name: str, ok: bool, witness: str = "") -> bool:
        self.conditions.append(Condition(name, ok, witness))
        return ok

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failures(self) -> list[Condition]:
        return [c for c in self.conditions if not c.ok]

    def merged_with(self, other: "CheckReport") -> "CheckReport":
        report = CheckReport(self.title, list(self.conditions) + list(other.conditions),
                             self.classification or other.classification,
                             self.algebra or other.algebra)
        return report

    def lines(self) -> list[str]:
        out = [f"{self.title}: {'pass' if self.overall else 'fail'}"]
        for c in self.conditions:
            line = f"  {c.name}: {'pass' if c.ok else 'FAIL'}"
            if c.witness:
                line += f"  [{c.witness}]"
            out.append(line)
        if self.classification is not None:
            cases = ", ".join(sorted(self.classification))
            out.append(f"  classification: {{{cases}}}")
        return out


class HopfAmbiskewAlgebra:
    """An ambiskew algebra together with verified hat-form Hopf data.

    The Hopf structure is fixed on generators, so each structure map is
    defined once, on legs: the leg (mono, m, n) is the basis element
    r X+^m X-^n with r = mono, and

        Delta(r X+^m X-^n) = Delta(r) Delta(X+)^m Delta(X-)^n,
        S(r X+^m X-^n)     = S(X-)^n S(X+)^m S(r),

    with Delta(X+-) = X+- (x) 1 + y+- (x) X+- and S(X+-) = -y+-^-1 X+-.
    ``delta_leg`` and ``antipode_leg`` cache these per leg; ``delta`` and
    ``antipode`` are their linear extensions. ``_delta_x`` caches the
    powers of Delta(X+-), and ``_s_x`` the products S(X-)^n S(X+)^m per
    (m, n), so the antipode of a leg costs one product, and that of a base
    leg (m = n = 0) none: it is S(r) itself. The antipode's closed form is
    checked against m(S (x) id)Delta(X+-) = 0 on construction.
    """

    antipode_form = "-y^-1*X"

    def __init__(self, algebra: AmbiskewAlgebra, data: ExtensionData):
        self.algebra = algebra
        self.data = data
        self._dxp: list[Tensor] = []
        self._dxm: list[Tensor] = []
        self._leg_delta: dict = {}
        self._leg_antipode: dict = {}
        self._s_x_cache: dict = {}
        minus_one = algebra.field.from_int(-1)
        self._s_xp = algebra.monomial(invert_element(data.y_plus).scale(minus_one), 1, 0)
        self._s_xm = algebra.monomial(invert_element(data.y_minus).scale(minus_one), 0, 1)
        # with Delta(X) = X (x) 1 + y (x) X the axiom reads S(X) + S(y) X = 0
        for x, y, s_x in ((algebra.xplus(), data.y_plus, self._s_xp),
                          (algebra.xminus(), data.y_minus, self._s_xm)):
            if not (s_x + algebra.embed(base_antipode(y)) * x).is_zero():
                raise InternalError("S(X) = -y^-1 X fails the antipode axiom on X+-")

    @property
    def base(self) -> BaseAlgebra:
        return self.algebra.base

    # -- structure maps on legs ----------------------------------------------

    def _delta_x(self, sign: int, power: int) -> Tensor:
        cache = self._dxp if sign > 0 else self._dxm
        if not cache:
            alg = self.algebra
            x = alg.xplus() if sign > 0 else alg.xminus()
            y = self.data.y_plus if sign > 0 else self.data.y_minus
            unit = Tensor.of(alg.one(), alg.one())
            step = Tensor.of(x, alg.one()) + Tensor.of(alg.embed(y), x)
            cache.extend([unit, step])
        while len(cache) <= power:
            cache.append(cache[-1] * cache[1])
        return cache[power]

    def delta_leg(self, leg) -> Tensor:
        """Delta(r X+^m X-^n) = spread * Delta(X+)^m * Delta(X-)^n, where
        spread is Delta(r) on 0-power legs, cached per leg.

        On the one monomial with m + n > 0 the product starts from the
        first power instead: spread is then Delta(1) = 1 (x) 1, the unit
        tensor, and the two-leg kernel multiplying by it would rebuild the
        other factor's dict in the same order with the same scalars.
        """
        cached = self._leg_delta.get(leg)
        if cached is None:
            mono, m, n = leg
            cached = None
            if mono != self.base.one_monomial() or not (m or n):
                cached = Tensor(self.algebra, 2, {
                    ((m1, 0, 0), (m2, 0, 0)): c
                    for (m1, m2), c in self.base.delta_monomial(mono).items()
                })
            for sign, power in ((+1, m), (-1, n)):
                if power:
                    step = self._delta_x(sign, power)
                    cached = step if cached is None else cached * step
            self._leg_delta[leg] = cached
        return cached

    def counit_leg(self, leg) -> Scalar:
        mono, m, n = leg
        if m or n:
            return self.algebra.field.zero()
        return self.base.counit_monomial(mono)

    def antipode_leg(self, leg) -> AmbiElement:
        cached = self._leg_antipode.get(leg)
        if cached is None:
            mono, m, n = leg
            # S(mono) is a nonzero combination (S is bijective): no filter
            s_mono = BaseElement._of(self.base, self.base.antipode_monomial(mono))
            cached = AmbiElement._of(self.algebra, {(0, 0): s_mono})
            if m or n:
                cached = self._s_x(m, n) * cached
            self._leg_antipode[leg] = cached
        return cached

    def _s_x(self, m: int, n: int) -> AmbiElement:
        """S(X-)^n S(X+)^m, cached per (m, n)."""
        cached = self._s_x_cache.get((m, n))
        if cached is None:
            cached = self._s_xm**n * self._s_xp**m
            self._s_x_cache[(m, n)] = cached
        return cached

    # -- their linear extensions to elements ---------------------------------

    def delta(self, a: AmbiElement) -> Tensor:
        if a.algebra != self.algebra:
            raise AlgebraMismatchError("element from a different algebra")
        return Tensor._of(self.algebra, combine(
            (key, c * d)
            for leg, c in _flatten(a).items()
            for key, d in self.delta_leg(leg).coeffs.items()
        ), 2)

    def counit(self, a: AmbiElement) -> Scalar:
        return base_counit(a.base_part())

    def antipode(self, a: AmbiElement) -> AmbiElement:
        return AmbiElement._of(self.algebra, combine(
            (mn, r.scale(c))
            for leg, c in _flatten(a).items()
            for mn, r in self.antipode_leg(leg).coeffs.items()
        ))


# ---------------------------------------------------------------------------
# the construction-theorem checker


def _pretty(elem) -> str:
    from . import exprparse

    try:
        return exprparse.format_element(elem)
    except Exception:
        return repr(elem)


def check_main_theorem(base: BaseAlgebra, data: ExtensionData) -> CheckReport:
    """Verify the hat-form construction data on generators.

    On success the report carries a HopfAmbiskewAlgebra handle (axioms are
    verified separately by verify_hopf_axioms; constructors that must not
    trust the theorem run both).
    """
    if data.base != base:
        raise AlgebraMismatchError("data does not live over the given base")
    report = CheckReport("main-theorem data check (verified on generators)")
    chi, y_plus, y_minus, z, h = data.chi, data.y_plus, data.y_minus, data.z, data.h

    report.record("character-valid", True, "validated at construction")
    for label, test, elem in (("z-grouplike", is_grouplike, z), ("z-central", is_central, z),
                              ("h-central", is_central, h)):
        ok = test(elem)
        report.record(label, ok, "" if ok else _pretty(elem))

    want = BaseTensor.of(h, base.one()) + BaseTensor.of(z, h)
    ok = base_delta(h) == want
    report.record("h-skew-primitive", ok,
                  "" if ok else "Delta(h) != h(x)1 + z(x)h")

    for label, y in (("y-plus", y_plus), ("y-minus", y_minus)):
        gk = is_grouplike(y)
        report.record(f"{label}-grouplike", gk, "" if gk else _pretty(y))
        central_in_g = all(y * g == g * y for g in base.grouplike_generators())
        report.record(f"{label}-in-center-of-grouplikes", central_in_g,
                      "" if central_in_g else f"{label} does not commute with G(R)")

    ok = y_plus * y_minus == z and y_minus * y_plus == z
    report.record("z-factorization", ok, "" if ok else "z != y+y- = y-y+")

    xi_plus, xi_minus = chi(y_plus), chi(y_minus)
    ok = xi_plus == xi_minus and not xi_plus.is_zero()
    report.record("xi-match", ok,
                  "" if ok else "xi mismatch: chi(y+) != chi(y-)")

    winding_ok = True
    witness = ""
    for info in base.generator_info():
        g = base.generator(info.name)
        lhs = winding_left(chi, g)
        rhs = adjoint_left(y_plus, winding_right(chi, g))
        if lhs != rhs:
            winding_ok = False
            witness = f"tau^l_chi != ad_l(y+) tau^r_chi on {info.name}"
            break
    report.record("winding-condition", winding_ok, witness)
    return _attach_algebra(report, base, data)


def _attach_algebra(report: CheckReport, base: BaseAlgebra, data: ExtensionData) -> CheckReport:
    """On a passing data check, hand the report the algebra and its case set."""
    if report.overall:
        algebra = AmbiskewAlgebra(base, data.sigma, data.h, data.xi)
        report.algebra = HopfAmbiskewAlgebra(algebra, data)
        report.classification = classify_trichotomy(data)
    return report


WITNESS_TERMS = 4  # terms of lhs - rhs printed in a failed axiom's witness


def _record_equal(report: CheckReport, name: str, lhs: Tensor, rhs: Tensor) -> None:
    """Record whether lhs == rhs. A failure carries lhs - rhs, cut to
    WITNESS_TERMS terms, as its witness; a pass formats nothing."""
    if lhs == rhs:
        report.record(name, True)
        return
    from . import exprparse

    diff = exprparse.format_tensor(lhs - rhs, WITNESS_TERMS)
    report.record(name, False, f"lhs - rhs = {diff}")


def verify_hopf_axioms(hopf: HopfAmbiskewAlgebra) -> CheckReport:
    """Mechanically verify the Hopf axioms and relation preservation on
    every base generator and on X+ and X-. A failed condition carries the
    difference of its two sides as its witness."""
    alg = hopf.algebra
    base = alg.base
    report = CheckReport("Hopf axiom verification (verified on generators)")

    samples = [("X+", alg.xplus()), ("X-", alg.xminus())]
    samples += [
        (info.name, alg.embed(base.generator(info.name)))
        for info in base.generator_info()
    ]

    deltas = {}  # sample name -> Delta(sample), reused by the relation checks
    for name, x in samples:
        d = deltas[name] = hopf.delta(x)
        _record_equal(report, f"coassociativity[{name}]",
                      d.expand_leg(0, hopf.delta_leg), d.expand_leg(1, hopf.delta_leg))

        single = Tensor.of(x)
        _record_equal(report, f"counit-left[{name}]", d.contract_leg(0, hopf.counit_leg), single)
        _record_equal(report, f"counit-right[{name}]", d.contract_leg(1, hopf.counit_leg), single)

        target = Tensor.of(alg.one().scale(hopf.counit(x)))
        _record_equal(report, f"antipode-left[{name}]",
                      d.map_leg(0, hopf.antipode_leg).merge_legs(0), target)
        _record_equal(report, f"antipode-right[{name}]",
                      d.map_leg(1, hopf.antipode_leg).merge_legs(0), target)

    dxp, dxm = deltas["X+"], deltas["X-"]
    for info in base.generator_info():
        r = base.generator(info.name)
        dr = deltas[info.name]
        _record_equal(report, f"delta-preserves-plus-relation[{info.name}]",
                      dxp * dr, hopf.delta(alg.embed(alg.sigma.apply(r, 1))) * dxp)
        _record_equal(report, f"delta-preserves-minus-relation[{info.name}]",
                      dxm * dr, hopf.delta(alg.embed(alg.sigma.apply(r, -1))) * dxm)

    rhs = hopf.delta(alg.embed(alg.h)) + (dxm * dxp).scale(alg.xi)
    _record_equal(report, "delta-preserves-skew-relation", dxp * dxm, rhs)
    return report


def construct_hopf(base: BaseAlgebra, data: ExtensionData) -> tuple[HopfAmbiskewAlgebra, CheckReport]:
    """Run the data check, build A, then re-prove the Hopf axioms on it.

    The construction never trusts the structure theorem: every instance is
    re-verified before the handle is released.
    """
    report = check_main_theorem(base, data)
    if not report.overall:
        raise HopfDataError(
            "extension data fails: " + ", ".join(c.name for c in report.failures())
        )
    return report.algebra, verify_checked(report)


def verify_checked(report: CheckReport) -> CheckReport:
    """Re-prove the Hopf axioms on the algebra of a passing data check.

    Returns the data report merged with the axiom report. Checked data
    whose algebra fails an axiom is a breach of the construction theorem,
    so it raises InternalError naming every failing condition with its
    witness.
    """
    axiom_report = verify_hopf_axioms(report.algebra)
    if not axiom_report.overall:
        raise InternalError(
            "constructed algebra failed axiom verification: "
            + ", ".join(f"{c.name} [{c.witness}]" if c.witness else c.name
                        for c in axiom_report.failures())
        )
    return report.merged_with(axiom_report)


# ---------------------------------------------------------------------------
# change of variables from a general skew-primitive presentation


@dataclass
class GeneralPresentation:
    """An ambiskew algebra whose variables are claimed to satisfy
    Delta(X+-) = X+- (x) r+- + l+- (x) X+-."""

    algebra: AmbiskewAlgebra
    l_plus: BaseElement
    l_minus: BaseElement
    r_plus: BaseElement
    r_minus: BaseElement


def _counit_compose_sigma(base: BaseAlgebra, sigma: BaseAutomorphism) -> Character:
    values = {
        info.name: base_counit(sigma.apply(base.generator(info.name), 1))
        for info in base.generator_info()
    }
    return Character(base, values)


def relabel(gp: GeneralPresentation) -> tuple[ExtensionData, CheckReport]:
    """Change variables X+- |-> X+- r+-^{-1} so the new variables are
    (1, y+-)-primitive, adjusting (sigma, h, xi) accordingly.

    The necessary conditions of the general presentation are verified
    first; the returned hat-form data is re-checked and the hat relation
    X+X- = h + xi X-X+ is confirmed computationally inside the original
    algebra before anything is returned, with the passing
    ``check_main_theorem`` report of that data.
    """
    alg = gp.algebra
    base = alg.base
    failures: list[str] = []

    for label, g in (("l+", gp.l_plus), ("l-", gp.l_minus),
                     ("r+", gp.r_plus), ("r-", gp.r_minus)):
        if not is_grouplike(g):
            failures.append(f"{label} is not grouplike")
    if failures:
        raise HopfDataError("; ".join(failures))

    chi = _counit_compose_sigma(base, alg.sigma)
    lp, lm, rp, rm = gp.l_plus, gp.l_minus, gp.r_plus, gp.r_minus

    if rp * rm != rm * rp or lp * lm != lm * lp:
        failures.append("r+r- or l+l- do not commute")
    group = [lp, lm, rp, rm]
    if any(a * b != b * a for a in group for b in group):
        failures.append("<l+-, r+-> is not abelian")
    for label, g in (("l+", lp), ("l-", lm), ("r+", rp), ("r-", rm)):
        if alg.sigma.apply(g, 1) != g.scale(chi(g)):
            failures.append(f"sigma({label}) != chi({label}) {label}")
    if not (chi(lm * rp) == alg.xi and chi(lp * rm) == alg.xi):
        failures.append("xi != chi(l-r+) = chi(l+r-)")
    want = BaseTensor.of(alg.h, rp * rm) + BaseTensor.of(lp * lm, alg.h)
    if base_delta(alg.h) != want:
        failures.append("Delta(h) != h(x)r+r- + l+l-(x)h")
    for info in base.generator_info():
        g = base.generator(info.name)
        image = alg.sigma.apply(g, 1)
        if image != adjoint_left(lp, winding_right(chi, g)):
            failures.append(f"sigma != ad_l(l+) tau^r_chi on {info.name}")
        if image != adjoint_left(rp, winding_left(chi, g)):
            failures.append(f"sigma != ad_l(r+) tau^l_chi on {info.name}")
    lhs = BaseTensor.of(alg.sigma.apply(lm, 1), rp)
    rhs = BaseTensor.of(lm, alg.sigma.apply(rp, -1)).scale(alg.xi)
    if lhs != rhs:
        failures.append("sigma(l-) (x) r+ != xi l- (x) sigma^-1(r+)")
    lhs = BaseTensor.of(lp, alg.sigma.apply(rm, 1))
    rhs = BaseTensor.of(alg.sigma.apply(lp, -1), rm).scale(alg.xi)
    if lhs != rhs:
        failures.append("l+ (x) sigma(r-) != xi sigma^-1(l+) (x) r-")
    if failures:
        raise HopfDataError("; ".join(failures))

    rp_inv, rm_inv = invert_element(rp), invert_element(rm)
    y_plus = lp * rp_inv
    y_minus = lm * rm_inv
    xi_hat = alg.xi * chi(rp * rm).inverse()
    h_hat = (alg.h * (rp * rm) ** -1).scale(chi(rp).inverse())
    data = ExtensionData(base, chi, y_plus, y_minus, h_hat)
    if data.xi != xi_hat:
        raise InternalError("hat xi disagrees with chi(y+)")

    # sigma-hat must coincide with the fresh winding by chi
    for info in base.generator_info():
        g = base.generator(info.name)
        via_adjoint = adjoint_right(rp, alg.sigma.apply(g, 1))
        if data.sigma.apply(g, 1) != via_adjoint:
            raise InternalError(f"sigma-hat mismatch on {info.name}")

    # confirm the hat relation inside the original algebra
    xp_hat = alg.xplus() * alg.embed(rp_inv)
    xm_hat = alg.xminus() * alg.embed(rm_inv)
    relation = xp_hat * xm_hat - (xm_hat * xp_hat).scale(xi_hat)
    if relation != alg.embed(h_hat):
        raise InternalError("hat variables do not satisfy the skew relation")

    report = check_main_theorem(base, data)
    if not report.overall:
        raise HopfDataError(
            "relabelled data fails: " + ", ".join(c.name for c in report.failures())
        )
    return data, report


# ---------------------------------------------------------------------------
# trichotomy and fast paths


def classify_trichotomy(data: ExtensionData) -> frozenset[str]:
    """The case set of the coarse classification:
    (i) xi = +-1 and chi(h) = 0; (ii) xi = +-1 and z = 1;
    (iii) xi != +-1 and h = chi(h)/(xi^2-1) (z - 1).

    The underlying identity (xi^2 - 1) h = chi(h) (z - 1) is asserted
    exactly; checked data can never violate it.
    """
    base = data.base
    one = base.one()
    xi, chi_h = data.xi, data.chi(data.h)
    z_minus_one = data.z - one
    if data.h.scale(xi * xi - base.field.one()) != z_minus_one.scale(chi_h):
        raise InternalError("(xi^2 - 1) h != chi(h) (z - 1) on checked data")
    xi_pm_one = xi.is_one() or xi == base.field.from_int(-1)
    cases = set()
    if xi_pm_one and chi_h.is_zero():
        cases.add("i")
    if xi_pm_one and data.z == one:
        cases.add("ii")
    if not xi_pm_one:
        scale = chi_h * (xi * xi - base.field.one()).inverse()
        if data.h == z_minus_one.scale(scale):
            cases.add("iii")
    if not cases:
        raise InternalError("trichotomy produced an empty case set")
    return frozenset(cases)


def fast_path_check(base: BaseAlgebra, data: ExtensionData,
                    path: str = "auto") -> CheckReport:
    """Specialized checks for commutative or cocommutative bases.

    The commutative path replaces the adjoint condition by
    tau^l_chi = tau^r_chi; the cocommutative path requires y+ central and,
    when h is primitive, z = 1 and xi in {1, -1}. Verdicts agree with the
    full checker on every base where both apply. ``path`` selects a branch
    explicitly when the base supports both.
    """
    desc = base.descriptor
    if not (desc.commutative or desc.cocommutative):
        raise UnsupportedBaseError(
            "fast path needs a commutative or cocommutative base; use the full checker"
        )
    if path == "auto":
        path = "commutative" if desc.commutative else "cocommutative"
    if path == "commutative" and not desc.commutative:
        raise UnsupportedBaseError("base is not flagged commutative")
    if path == "cocommutative" and not desc.cocommutative:
        raise UnsupportedBaseError("base is not flagged cocommutative")
    chi, y_plus, y_minus, z, h = data.chi, data.y_plus, data.y_minus, data.z, data.h
    one = base.one()
    report = CheckReport(f"{path} fast path (verified on generators)")
    report.record("character-valid", True, "validated at construction")
    xi_ok = chi(y_plus) == chi(y_minus) and not data.xi.is_zero()
    xi_witness = "" if xi_ok else "xi mismatch: chi(y+) != chi(y-)"

    if path == "commutative":
        ok, witness = True, ""
        for info in base.generator_info():
            g = base.generator(info.name)
            if winding_left(chi, g) != winding_right(chi, g):
                ok, witness = False, f"tau^l_chi != tau^r_chi on {info.name}"
                break
        report.record("windings-coincide", ok, witness)
        report.record("y-plus-grouplike", is_grouplike(y_plus))
        report.record("y-minus-grouplike", is_grouplike(y_minus))
        report.record("xi-match", xi_ok, xi_witness)
        want = BaseTensor.of(h, one) + BaseTensor.of(z, h)
        report.record("h-skew-primitive", base_delta(h) == want)
    else:
        for label, y in (("y-plus", y_plus), ("y-minus", y_minus)):
            report.record(f"{label}-grouplike", is_grouplike(y))
            report.record(f"{label}-central", is_central(y))
        report.record("h-central", is_central(h))
        report.record("xi-match", xi_ok, xi_witness)
        multiple = scalar_multiple_of(h, z - one)
        if multiple is not None:
            report.record("h-form", True, "h is a multiple of z - 1")
        else:
            primitive = base_delta(h) == BaseTensor.of(h, one) + BaseTensor.of(one, h)
            if not primitive:
                report.record("h-form", False, "h neither a multiple of z-1 nor primitive")
            else:
                z_one = z == one
                report.record("h-form", z_one,
                              "" if z_one else "z = 1 is required when h is primitive")
                if z_one:
                    xi = data.xi
                    pm = xi.is_one() or xi == base.field.from_int(-1)
                    report.record("xi-plus-minus-one", pm,
                                  "" if pm else "xi must be +-1 when h is primitive")
    return _attach_algebra(report, base, data)
