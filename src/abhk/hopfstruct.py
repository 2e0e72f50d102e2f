"""The Hopf layer on an ambiskew extension.

Provides the executable form of the construction theorem (necessary and
sufficient data checks, both directions), the coproduct/counit/antipode on
the extension (each defined once, on the legs (mono, m, n) of
``ambicore.Tensor``, and extended linearly to elements), mechanical
verification of the Hopf axioms, the change of variables from a general
skew-primitive presentation to hat form, and the trichotomy classifier.

All universally quantified conditions are checked on algebra generators;
each side of every condition is an algebra map or a composite of
(anti)automorphisms, so generator checks are conclusive. Reports record
this as "verified on generators".
"""

from __future__ import annotations

from collections import namedtuple

from .ambicore import AmbiElement, AmbiskewAlgebra, Tensor, _flatten
from .basehopf import (
    BaseAlgebra,
    BaseAutomorphism,
    BaseElement,
    BaseTensor,
    Character,
    _adjoint_pairs,
    _conjugate_sum,
    _wind,
    adjoint_left,
    adjoint_right,
    base_counit,
    base_delta,
    combine,
    invert_element,
    is_central,
    is_grouplike,
    winding_left,
    winding_right,
    winding_automorphism_left,
)
from .errors import AlgebraMismatchError, HopfDataError, InternalError
from .scalar import Scalar


class ExtensionData:
    """The tuple (chi, y+, y-, z, h, xi, sigma) defining a hat-form
    ambiskew Hopf extension candidate.

    z and xi are derived (z = y+ y-, xi = chi(y+)) and sigma is always the
    materialized left winding by chi; whether the data actually satisfies
    the construction theorem is the checker's job, not the constructor's.
    ``generator_deltas`` maps each generator's name to its coproduct, in
    the order of ``base.generators``: formed once, for both windings of
    sigma and sigma^-1 and for the right winding the checker compares them
    with.
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
        self.generator_deltas = {name: base_delta(g) for name, g in base.generators.items()}
        self.sigma = winding_automorphism_left(chi, self.generator_deltas)


Condition = namedtuple("Condition", "name ok witness", defaults=("",))


class CheckReport:
    """Outcome of a structured verification run."""

    __slots__ = ("title", "conditions", "classification", "algebra")

    def __init__(self, title: str, conditions: list[Condition] | None = None,
                 classification: frozenset[str] | None = None,
                 algebra: HopfAmbiskewAlgebra | None = None):
        self.title = title
        self.conditions = [] if conditions is None else conditions
        self.classification = classification
        self.algebra = algebra

    def record(self, name: str, ok: bool, witness: str = "") -> bool:
        self.conditions.append(Condition(name, ok, witness))
        return ok

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failures(self) -> list[Condition]:
        return [c for c in self.conditions if not c.ok]

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
    ``antipode`` are their linear extensions. The powers of Delta(X+-) and
    S(X+-) are the legs (1, p, 0) and (1, 0, p) of these caches, and
    S(X-)^n S(X+)^m the leg (1, m, n), so the antipode of any other leg
    costs one product. The antipode's closed form is proved by
    ``verify_hopf_axioms``' antipode conditions on X+-: with Delta(X) =
    X (x) 1 + y (x) X, ``antipode-left[X+-]`` reads S(X) + S(y) X = 0.
    """

    antipode_form = "-y^-1*X"

    def __init__(self, algebra: AmbiskewAlgebra, data: ExtensionData):
        self.algebra = algebra
        self.data = data
        self._leg_delta: dict = {}
        minus_one = algebra.field.from_int(-1)
        s_xp = algebra.monomial(invert_element(data.y_plus).scale(minus_one), 1, 0)
        s_xm = algebra.monomial(invert_element(data.y_minus).scale(minus_one), 0, 1)
        one = algebra.base.one_monomial()
        self._leg_antipode: dict = {(one, 1, 0): s_xp, (one, 0, 1): s_xm}

    @property
    def base(self) -> BaseAlgebra:
        return self.algebra.base

    # -- structure maps on legs ----------------------------------------------

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
            one = self.base.one_monomial()
            if mono == one and m + n == 1:  # Delta(X+-) = X+- (x) 1 + y+- (x) X+-
                alg = self.algebra
                x = alg.xplus() if m else alg.xminus()
                y = self.data.y_plus if m else self.data.y_minus
                cached = Tensor.of(x, alg.one()) + Tensor.of(alg.embed(y), x)
            elif mono == one and not (m and n) and m + n:
                cached = self._power_leg(self._leg_delta, leg,
                                         self.delta_leg((one, min(m, 1), min(n, 1))))
            else:
                if mono != one or not (m or n):
                    cached = Tensor._of(self.algebra, {
                        ((m1, 0, 0), (m2, 0, 0)): c
                        for (m1, m2), c in self.base.delta_monomial(mono).items()
                    }, 2)
                for power in (m, 0), (0, n):
                    if any(power):
                        step = self.delta_leg((one, *power))
                        cached = step if cached is None else cached * step
            self._leg_delta[leg] = cached
        return cached

    @staticmethod
    def _power_leg(cache: dict, leg, first):
        """A leg map's value at (1, p, 0) or (1, 0, p), p >= 2: the value at
        the leg before it times ``first``, the value at X+ or X-. Powers
        missing from ``cache`` are built and stored in a loop, not by
        recursion: p can pass Python's recursion limit."""
        mono, m, n = leg
        dm, dn = min(m, 1), min(n, 1)
        k = m + n - 1
        while (mono, k * dm, k * dn) not in cache:  # stops at the first power
            k -= 1
        acc = cache[(mono, k * dm, k * dn)]
        for j in range(k + 1, m + n + 1):
            acc = cache[(mono, j * dm, j * dn)] = acc * first
        return acc

    def counit_leg(self, leg) -> Scalar:
        mono, m, n = leg
        field = self.algebra.field
        if m or n:
            return field.zero()
        return Scalar(field, self.base.counit_monomial(mono))

    def antipode_leg(self, leg) -> AmbiElement:
        cached = self._leg_antipode.get(leg)
        if cached is None:
            mono, m, n = leg
            one = self.base.one_monomial()
            if mono != one or not (m or n):
                # S(mono) is a nonzero combination (S is bijective): no filter
                s_mono = BaseElement._of(self.base, self.base.antipode_monomial(mono))
                cached = AmbiElement._of(self.algebra, {(0, 0): s_mono})
                if m or n:
                    cached = self.antipode_leg((one, m, n)) * cached
            elif m and n:
                cached = self.antipode_leg((one, 0, n)) * self.antipode_leg((one, m, 0))
            else:  # S(X+-)^p with p >= 2: S(X+-) is stored on construction
                cached = self._power_leg(self._leg_antipode, leg,
                                         self.antipode_leg((one, min(m, 1), min(n, 1))))
            self._leg_antipode[leg] = cached
        return cached

    # -- their linear extensions to elements ---------------------------------

    def delta(self, a: AmbiElement) -> Tensor:
        if a.algebra != self.algebra:
            raise AlgebraMismatchError("element from a different algebra")
        one, mul, add, is_zero = self.algebra.field._kernel
        delta_leg = self.delta_leg
        out: dict = {}  # the combine loop written inline, as in the leg surgery
        get = out.get
        for (m, n), r in a.coeffs.items():
            for mono, c in r.coeffs.items():
                for key, d in delta_leg((mono, m, n)).coeffs.items():
                    v = c if d == one else d if c == one else mul(c, d)
                    s = get(key)  # v is nonzero: only the sum can cancel
                    if s is None:
                        out[key] = v
                    elif is_zero(v := add(s, v)):
                        del out[key]
                    else:
                        out[key] = v
        return Tensor._of(self.algebra, out, 2)

    def counit(self, a: AmbiElement) -> Scalar:
        return base_counit(a.base_part())

    def antipode(self, a: AmbiElement) -> AmbiElement:
        return AmbiElement._of(self.algebra, combine(self.base, (
            (mn, r._scale(c))
            for leg, c in _flatten(a).items()
            for mn, r in self.antipode_leg(leg).coeffs.items()
        )))


# ---------------------------------------------------------------------------
# the construction-theorem checker


WITNESS_TERMS = 4  # terms of lhs - rhs printed in a failed condition's witness


def _pretty(elem, max_terms: int | None = None) -> str:
    from . import exprparse

    return exprparse.format_element(elem, max_terms)


def _pretty_tensor(tensor: BaseTensor) -> str:
    from . import exprparse

    return exprparse.format_tensor(tensor, WITNESS_TERMS)


def _grouplike_witness(name: str, y: BaseElement) -> str:
    """What a failed ``*-grouplike`` condition compared: Delta(y) - y (x) y,
    cut to WITNESS_TERMS terms, and counit(y)."""
    from . import exprparse

    diff = _pretty_tensor(base_delta(y) - BaseTensor.of(y, y))
    counit = exprparse.format_scalar(base_counit(y))[0]
    return f"Delta({name}) - {name} (x) {name} = {diff}; counit({name}) = {counit}"


def check_main_theorem(base: BaseAlgebra, data: ExtensionData) -> CheckReport:
    """Verify the hat-form construction data on generators.

    On success the report carries a HopfAmbiskewAlgebra handle and the
    trichotomy case set (axioms are
    verified separately by verify_hopf_axioms; constructors that must not
    trust the theorem run both).
    """
    if data.base != base:
        raise AlgebraMismatchError("data does not live over the given base")
    report = CheckReport("main-theorem data check (verified on generators)")
    chi, y_plus, y_minus, z, h = data.chi, data.y_plus, data.y_minus, data.z, data.h

    report.record("character-valid", True, "validated at construction")
    ok = is_grouplike(z)
    report.record("z-grouplike", ok, "" if ok else _grouplike_witness("z", z))
    for label, elem in (("z-central", z), ("h-central", h)):
        ok = is_central(elem)
        report.record(label, ok, "" if ok else _pretty(elem))

    want = BaseTensor.of(h, base.one()) + BaseTensor.of(z, h)
    delta_h = base_delta(h)
    ok = delta_h == want
    report.record("h-skew-primitive", ok, "" if ok else (
        f"Delta(h) - (h (x) 1 + z (x) h) = {_pretty_tensor(delta_h - want)}"))

    for label, name, y in (("y-plus", "y+", y_plus), ("y-minus", "y-", y_minus)):
        gk = is_grouplike(y)
        report.record(f"{label}-grouplike", gk, "" if gk else _grouplike_witness(name, y))
        central_in_g = all(y * g == g * y for g in base.grouplike_generators())
        report.record(f"{label}-in-center-of-grouplikes", central_in_g,
                      "" if central_in_g else f"{label} does not commute with G(R)")

    ok = y_plus * y_minus == z and y_minus * y_plus == z
    report.record("z-factorization", ok, "" if ok else "z != y+y- = y-y+")

    xi = data.xi  # chi(y+)
    ok = xi == chi(y_minus) and not xi.is_zero()
    report.record("xi-match", ok,
                  "" if ok else "xi mismatch: chi(y+) != chi(y-)")

    winding_ok = True
    witness = ""
    images = data.sigma.images  # sigma is built from tau^l_chi on each generator
    # ad_l(y+) = sum y1 (.) S(y2): the pairs (y1, S(y2)) are formed once, and
    # tau^r_chi(g) winds the Delta(g) that sigma was built from
    pairs = _adjoint_pairs(y_plus, 1)
    for name, delta in data.generator_deltas.items():
        lhs = images[name]
        rhs = _conjugate_sum(pairs, _wind(chi, delta, 1))
        if lhs != rhs:
            winding_ok = False
            witness = (f"tau^l_chi != ad_l(y+) tau^r_chi on {name}: "
                       f"lhs - rhs = {_pretty(lhs - rhs, WITNESS_TERMS)}")
            break
    report.record("winding-condition", winding_ok, witness)
    if report.overall:
        algebra = AmbiskewAlgebra(base, data.sigma, data.h, data.xi)
        report.algebra = HopfAmbiskewAlgebra(algebra, data)
        report.classification = classify_trichotomy(data)
    return report


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
    samples += [(name, alg.embed(g)) for name, g in base.generators.items()]

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
    for name, r in base.generators.items():
        dr = deltas[name]
        _record_equal(report, f"delta-preserves-plus-relation[{name}]",
                      dxp * dr, hopf.delta(alg.embed(alg.sigma.apply(r, 1))) * dxp)
        _record_equal(report, f"delta-preserves-minus-relation[{name}]",
                      dxm * dr, hopf.delta(alg.embed(alg.sigma.apply(r, -1))) * dxm)

    rhs = hopf.delta(alg.embed(alg.h)) + (dxm * dxp).scale(alg.xi)
    _record_equal(report, "delta-preserves-skew-relation", dxp * dxm, rhs)
    return report


class DataCheckFailed(HopfDataError):
    """A failed data check, carrying its report; the message names each
    failing condition with its witness, as relabel's refusal does."""

    def __init__(self, report: CheckReport):
        super().__init__(" ".join(f"{c.name} {c.witness}" for c in report.failures()))
        self.report = report


def construct_hopf(base: BaseAlgebra, data: ExtensionData) -> tuple[HopfAmbiskewAlgebra, CheckReport]:
    """Run the data check, build A, then re-prove the Hopf axioms on it.

    The construction never trusts the structure theorem: every instance is
    re-verified before the handle is released.
    """
    return verify_checked(check_main_theorem(base, data))


def verify_checked(report: CheckReport) -> tuple[HopfAmbiskewAlgebra, CheckReport]:
    """The one construct-and-verify step after a data check.

    A failed report raises DataCheckFailed. Otherwise the Hopf axioms are
    re-proved on the report's algebra, and the algebra is returned with
    the data conditions followed by the axiom conditions. Checked data
    whose algebra fails an axiom is a breach of the construction theorem,
    so it raises InternalError naming every failing condition with its
    witness.
    """
    if not report.overall:
        raise DataCheckFailed(report)
    axiom_report = verify_hopf_axioms(report.algebra)
    if not axiom_report.overall:
        raise InternalError(
            "constructed algebra failed axiom verification: "
            + ", ".join(f"{c.name} [{c.witness}]" if c.witness else c.name
                        for c in axiom_report.failures())
        )
    conditions = report.conditions + axiom_report.conditions
    return report.algebra, CheckReport(report.title, conditions, report.classification,
                                       report.algebra)


# ---------------------------------------------------------------------------
# change of variables from a general skew-primitive presentation


# An ambiskew algebra whose variables are claimed to satisfy
# Delta(X+-) = X+- (x) r+- + l+- (x) X+-, with l+- and r+- in the base.
GeneralPresentation = namedtuple("GeneralPresentation", "algebra l_plus l_minus r_plus r_minus")


def _counit_compose_sigma(base: BaseAlgebra, sigma: BaseAutomorphism) -> Character:
    return Character(base, {
        name: base_counit(sigma.apply(g, 1)) for name, g in base.generators.items()})


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
    for name, g in base.generators.items():
        image = alg.sigma.apply(g, 1)
        if image != adjoint_left(lp, winding_right(chi, g)):
            failures.append(f"sigma != ad_l(l+) tau^r_chi on {name}")
        if image != adjoint_left(rp, winding_left(chi, g)):
            failures.append(f"sigma != ad_l(r+) tau^l_chi on {name}")
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
    for name, g in base.generators.items():
        via_adjoint = adjoint_right(rp, alg.sigma.apply(g, 1))
        if data.sigma.apply(g, 1) != via_adjoint:
            raise InternalError(f"sigma-hat mismatch on {name}")

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
# trichotomy


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
