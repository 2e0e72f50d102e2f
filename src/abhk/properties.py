"""Ring-theoretic and homological invariant reports for ambiskew extensions.

Covers flag propagation (noetherian, domain, prime, semiprime Goldie),
GK-dimension (base + 2 under local finiteness of sigma, automatic in the
Hopf-verified case where sigma is a winding map), global/injective
dimension bounds with the Hopf sharpening to exact values, and the
polynomial-identity criterion with its sigma-eigenvector decomposition of
h. Auslander and AS conditions are propagated as declared metadata only;
no homological computation is attempted here.
"""

from __future__ import annotations

import math

from .ambicore import AmbiskewAlgebra
from .basehopf import BaseDescriptor, BaseElement
from .errors import InternalError, UnsupportedBaseError
from .hopfstruct import HopfAmbiskewAlgebra
from .scalar import Scalar, format_order, mul_order

DEFAULT_N_MAX = 256
SIGMA_ORBIT_BOUND = 64  # sigma-orbit length tried before local finiteness is undecided


# ---------------------------------------------------------------------------
# order of sigma


def sigma_order_detail(algebra: AmbiskewAlgebra, n_max: int = DEFAULT_N_MAX):
    """(order, note): order is an int, or None when not finite; the note
    distinguishes a structural proof of infinitude from a bound overrun."""
    sigma = algebra.sigma
    base = algebra.base
    if sigma.diagonal is not None:
        acc = 1
        for name, c in sigma.diagonal.items():
            order = mul_order(c)
            if order is None:
                return None, f"eigenvalue on {name} has infinite order"
            acc = math.lcm(acc, order)
        return acc, "exact (diagonal action)"
    if base.family == "polynomial":
        # an automorphism of k[t] is t -> a*t + b, here with b != 0 (else it
        # is diagonal); sigma^n(t) = a^n t + b(a^n - 1)/(a - 1) for a != 1
        a = sigma.images["t"].coeff(1)
        if a.is_one():
            return None, "translation has infinite order in characteristic 0"
        order = mul_order(a)
        if order is None:
            return None, "affine map t -> a*t + b with a of infinite order"
        return order, "exact (affine map)"
    current = base.generators
    for n in range(1, n_max + 1):
        current = {name: sigma.apply(elem, 1) for name, elem in current.items()}
        if current == base.generators:
            return n, "exact (iterated images)"
    return None, f"order > {n_max}"


# ---------------------------------------------------------------------------
# small exact linear algebra over the base, for the local-finiteness check


class _Span:
    """Row-echelon span of base elements, exact over the scalar field."""

    def __init__(self):
        self.rows: list[BaseElement] = []

    def contains_or_add(self, elem: BaseElement) -> bool:
        residue = elem
        for row in self.rows:
            pivot = next(iter(row.coeffs))
            c = residue.coeff(pivot)
            if not c.is_zero():
                residue = residue - row.scale(c)
        if residue.is_zero():
            return True
        pivot = next(iter(residue.coeffs))
        self.rows.append(residue.scale(residue.coeff(pivot).inverse()))
        return False


def sigma_locally_finite(algebra: AmbiskewAlgebra) -> bool | None:
    """True when each generator's sigma-orbit spans a finite-dimensional
    space, seen by orbit stabilization within SIGMA_ORBIT_BOUND steps;
    None when some orbit has not stabilized by then (gave up)."""
    if algebra.sigma.diagonal is not None:
        return True
    for current in algebra.base.generators.values():
        span = _Span()
        stabilized = False
        for _ in range(SIGMA_ORBIT_BOUND):
            if span.contains_or_add(current):
                stabilized = True
                break
            current = algebra.sigma.apply(current, 1)
        if not stabilized:
            return None
    return True


# ---------------------------------------------------------------------------
# report pieces


class DimensionEntry:
    __slots__ = ("lower", "upper", "exact", "note")

    def __init__(self, lower: int, upper: int, exact: bool, note: str = ""):
        self.lower, self.upper, self.exact, self.note = lower, upper, exact, note

    def describe(self) -> str:
        if self.exact:
            return f"{self.upper} (exact: {self.note})" if self.note else f"{self.upper} (exact)"
        return f"[{self.lower}, {self.upper}]"


class EigenDecomposition:
    """h written as a sum of sigma-eigenvectors h_i with sigma(h_i) = eta^i h_i."""

    __slots__ = ("eta", "order", "components")

    def __init__(self, eta: Scalar, order: int, components: list[tuple[int, BaseElement]]):
        self.eta, self.order, self.components = eta, order, components

    def verify(self, algebra: AmbiskewAlgebra) -> None:
        total = algebra.base.zero()
        for i, part in self.components:
            total = total + part
            if algebra.sigma.apply(part, 1) != part.scale(self.eta**i):
                raise InternalError(f"eigencomponent {i} is not an eigenvector")
        if total != algebra.h:
            raise InternalError("eigencomponents do not sum to h")


class PiEntry:
    __slots__ = ("satisfies_pi", "sigma_order", "xi_order", "lcm_order", "pi_degree",
                 "obstruction", "decomposition", "note")

    def __init__(self, satisfies_pi: bool | None, sigma_order: int | None,
                 xi_order: int | None, lcm_order: int | None, pi_degree: int | None,
                 obstruction: BaseElement | None = None,
                 decomposition: EigenDecomposition | None = None, note: str = ""):
        self.satisfies_pi = satisfies_pi
        self.sigma_order = sigma_order
        self.xi_order = xi_order
        self.lcm_order = lcm_order
        self.pi_degree = pi_degree
        self.obstruction = obstruction
        self.decomposition = decomposition
        self.note = note

    def describe(self) -> str:
        if self.satisfies_pi is None:
            return f"unknown ({self.note})"
        if not self.satisfies_pi:
            return f"no ({self.note})"
        return f"yes, degree {self.pi_degree} (per stated criterion)"


class PropertyReport:
    """The invariants of one extension, filled in by ``full_report``; None
    is unknown."""

    __slots__ = ("flags", "gk_dim", "gk_note", "gl_dim", "inj_dim", "as_gorenstein",
                 "as_regular", "auslander_gorenstein", "auslander_regular", "pi")

    def __init__(self):
        self.flags = {}
        self.gk_note = ""
        self.gk_dim = self.gl_dim = self.inj_dim = self.pi = None
        self.as_gorenstein = self.as_regular = None
        self.auslander_gorenstein = self.auslander_regular = None

    def lines(self) -> list[str]:
        def flag(v):
            return "unknown" if v is None else ("true" if v else "false")

        out = []
        for name in ("noetherian", "domain", "prime", "semiprime_goldie"):
            value = self.flags.get(name)
            suffix = ""
            if name == "prime" and value:
                suffix = " (base prime)"
            out.append(f"{name}: {flag(value)}{suffix}")
        gk = "unknown" if self.gk_dim is None else str(self.gk_dim)
        note = f" ({self.gk_note})" if self.gk_note else ""
        out.append(f"gk_dim: {gk}{note}")
        out.append(f"gl_dim: {self.gl_dim.describe()}")
        out.append(f"inj_dim: {self.inj_dim.describe()}")
        out.append(f"as_gorenstein: {flag(self.as_gorenstein)}")
        out.append(f"as_regular: {flag(self.as_regular)}")
        out.append(f"auslander_gorenstein: {flag(self.auslander_gorenstein)}")
        out.append(f"auslander_regular: {flag(self.auslander_regular)}")
        if self.pi is not None:
            out.append(f"pi: {self.pi.describe()}")
            out.append(f"pi_sigma_order: {format_order(self.pi.sigma_order)}")
            out.append(f"pi_xi_order: {format_order(self.pi.xi_order)}")
        return out


# ---------------------------------------------------------------------------
# individual reports


def flags_report(algebra: AmbiskewAlgebra) -> dict:
    """Noetherian/domain/semiprime-Goldie transfer both ways; primeness
    only transfers from the base upward, never backwards."""
    desc = algebra.base.descriptor
    return {
        "noetherian": desc.noetherian,
        "domain": desc.domain,
        "prime": True if desc.prime else None,
        "semiprime_goldie": desc.semiprime_goldie,
    }


def gk_report(algebra: AmbiskewAlgebra, hopf_verified: bool = False) -> tuple[int | None, str]:
    """GK dimension of the extension: base + 2, provided every finite
    subset of the base sits in a finite-dimensional sigma-stable subspace
    (automatic for verified Hopf extensions, where sigma is a winding)."""
    base_gk = algebra.base.descriptor.gk_dim
    if hopf_verified:
        return base_gk + 2, "sigma is a winding automorphism"
    if sigma_locally_finite(algebra) is None:
        return None, "sigma local finiteness undecided"
    return base_gk + 2, "sigma locally finite on generators"


def dim_bounds(algebra: AmbiskewAlgebra, hopf_verified: bool = False) -> tuple[DimensionEntry, DimensionEntry]:
    """Global and injective dimension entries; Hopf-verified extensions
    get exact values at base + 2."""
    desc = algebra.base.descriptor
    if hopf_verified:
        gl = DimensionEntry(desc.gl_dim + 2, desc.gl_dim + 2, True, "Hopf sharpening")
    else:
        gl = DimensionEntry(desc.gl_dim + 1, desc.gl_dim + 2, False)
    if hopf_verified and desc.as_gorenstein:
        inj = DimensionEntry(desc.inj_dim + 2, desc.inj_dim + 2, True, "Hopf sharpening")
    else:
        inj = DimensionEntry(desc.inj_dim + 1, desc.inj_dim + 2, False)
    return gl, inj


def eigendecompose_h(algebra: AmbiskewAlgebra, n: int) -> EigenDecomposition:
    """Bucket the monomials of h by their sigma-eigenvalue and express the
    eigenvalues as powers of a primitive n-th root of unity."""
    diag = algebra.sigma.diagonal
    if diag is None:
        raise UnsupportedBaseError("eigendecomposition unsupported: sigma not diagonal")
    eta = algebra.field.root_of_unity(n)
    if eta is None:
        raise InternalError("field lacks a primitive root it must contain")
    powers = {}
    acc = algebra.field.one()
    for i in range(n):
        powers.setdefault(acc, i)
        acc = acc * eta
    buckets: dict[int, dict] = {}
    for mono, c in algebra.h.coeffs.items():
        value = algebra.base.monomial_eigenvalue(diag, mono)
        i = powers.get(value)
        if i is None:
            raise InternalError("eigenvalue of h-monomial is not an n-th root of unity")
        buckets.setdefault(i, {})[mono] = c
    components = [
        (i, BaseElement._of(algebra.base, mapping)) for i, mapping in sorted(buckets.items())
    ]
    decomposition = EigenDecomposition(eta, n, components)
    decomposition.verify(algebra)
    return decomposition


def pi_check(algebra: AmbiskewAlgebra, n_max: int = DEFAULT_N_MAX) -> PiEntry:
    """The polynomial-identity criterion: sigma of finite order n, xi of
    finite order t, and (when t | n, so xi = eta^j) the eigencomponent h_j
    must vanish. On success the PI degree is 2 * lcm(n, t) * n."""
    desc = algebra.base.descriptor
    if not desc.affine_commutative_domain:
        raise UnsupportedBaseError("PI criterion needs a commutative affine domain base")
    n, note = sigma_order_detail(algebra, n_max)
    if n is None:
        if note.startswith("order >"):
            return PiEntry(None, None, None, None, None, note=f"sigma {note}")
        return PiEntry(False, None, None, None, None, note=f"sigma has infinite order: {note}")
    t = mul_order(algebra.xi)
    if t is None:
        return PiEntry(False, n, None, None, None, note="xi has infinite order")
    m = math.lcm(n, t)
    decomposition = eigendecompose_h(algebra, n)
    obstruction = None
    if n % t == 0:
        for i, part in decomposition.components:
            if decomposition.eta**i == algebra.xi and not part.is_zero():
                obstruction = part
                break
    if obstruction is not None:
        return PiEntry(False, n, t, m, None, obstruction, decomposition,
                       note="h has a nonzero component in the xi-eigenspace")
    return PiEntry(True, n, t, m, 2 * m * n, None, decomposition)


def full_report(algebra: AmbiskewAlgebra, hopf: HopfAmbiskewAlgebra | None = None,
                n_max: int = DEFAULT_N_MAX) -> PropertyReport:
    hopf_verified = hopf is not None
    desc = algebra.base.descriptor
    report = PropertyReport()
    report.flags = flags_report(algebra)
    report.gk_dim, report.gk_note = gk_report(algebra, hopf_verified)
    report.gl_dim, report.inj_dim = dim_bounds(algebra, hopf_verified)
    if hopf_verified:
        report.as_gorenstein = desc.as_gorenstein
        report.as_regular = desc.as_regular
    report.auslander_gorenstein = True if desc.auslander_gorenstein else None
    report.auslander_regular = True if desc.auslander_regular else None
    try:
        report.pi = pi_check(algebra, n_max)
    except UnsupportedBaseError as exc:
        report.pi = PiEntry(None, None, None, None, None, note=str(exc))
    return report


def derive_descriptor(hopf: HopfAmbiskewAlgebra) -> BaseDescriptor:
    """Descriptor of a verified Hopf extension, for reuse as a base family.
    A is a commutative affine domain exactly when R is one and A is the
    polynomial ring over it: sigma = id, xi = 1 and h = 0. Its dimensions
    are the exact values of the Hopf sharpening, which needs an
    AS-Gorenstein base for the injective dimension."""
    algebra = hopf.algebra
    desc = algebra.base.descriptor
    gl, inj = dim_bounds(algebra, hopf_verified=True)
    if not inj.exact:
        raise InternalError("no exact injective dimension over a base not AS-Gorenstein")
    gk, _ = gk_report(algebra, hopf_verified=True)
    return BaseDescriptor(
        gk_dim=gk,
        gl_dim=gl.upper,
        inj_dim=inj.upper,
        noetherian=desc.noetherian,
        domain=desc.domain,
        prime=desc.prime,
        semiprime_goldie=desc.semiprime_goldie,
        affine_commutative_domain=(
            desc.affine_commutative_domain
            and algebra.sigma.is_identity()
            and algebra.xi.is_one()
            and algebra.h.is_zero()
        ),
        as_gorenstein=desc.as_gorenstein,
        as_regular=desc.as_regular,
        auslander_gorenstein=desc.auslander_gorenstein,
        auslander_regular=desc.auslander_regular,
    )
