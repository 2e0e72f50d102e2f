"""Coradical filtration of an ambiskew Hopf extension (characteristic 0).

The filtration of A is A_t = sum over q + hat(m) + hat(n) <= t of
R_q X+^m X-^n, where hat is the d-adic reduction driven by the
multiplicative order d of xi. Closed-form coproducts of the X powers are
provided as an oracle route that bypasses the multiplication engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ambicore import AmbiElement, Tensor
from .basehopf import BaseElement, base_coradical_degree
from .errors import InternalError
from .hopfstruct import HopfAmbiskewAlgebra
from .scalar import Scalar, hat, mul_order, q_binomial


@dataclass(frozen=True)
class CoradicalContext:
    """The parameter xi and its multiplicative order d."""

    d: int | None
    xi: Scalar

    @classmethod
    def for_algebra(cls, hopf: HopfAmbiskewAlgebra) -> "CoradicalContext":
        return cls(d=mul_order(hopf.data.xi), xi=hopf.data.xi)


def corad_degree(a: AmbiElement, ctx: CoradicalContext) -> int:
    """Minimal t with a in A_t: the maximum over the support of
    base degree + hat(m) + hat(n)."""
    if a.is_zero():
        raise ValueError("coradical degree of zero is undefined")
    return max(degree for *_, degree in corad_breakdown(a, ctx))


def corad_breakdown(a: AmbiElement, ctx: CoradicalContext) -> list[tuple[int, int, int, int]]:
    """Per-term (m, n, base degree, term degree) listing, sorted by key."""
    out = []
    for (m, n), r in sorted(a.coeffs.items()):
        base_deg = base_coradical_degree(r)
        out.append((m, n, base_deg, base_deg + hat(m, ctx.d).hat + hat(n, ctx.d).hat))
    return out


# ---------------------------------------------------------------------------
# closed-form coproducts (the oracle route: no engine multiplication)


def _grouplike_power(y: BaseElement, k: int):
    """(monomial, scalar) of y**k for a grouplike single-term y."""
    (mono, c), = y.coeffs.items()
    field = y.algebra.field
    c = Scalar(field, c)
    acc_mono, acc_scalar = y.algebra.one_monomial(), field.one()
    for _ in range(k):
        products = y.algebra.mul_monomials(acc_mono, mono)
        (acc_mono, extra), = products.items()
        acc_scalar = acc_scalar * c * Scalar(field, extra)
    return acc_mono, acc_scalar


def delta_power_closed(hopf: HopfAmbiskewAlgebra, sign: str, m: int) -> Tensor:
    """Delta(X+-^m) = sum_j binom(m, j)_{xi^{+-1}} y^{m-j} X^j (x) X^{m-j}:
    the mixed closed form with the other exponent 0."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return delta_mixed_closed(hopf, m, 0) if sign == "+" else delta_mixed_closed(hopf, 0, m)


def delta_mixed_closed(hopf: HopfAmbiskewAlgebra, m: int, n: int) -> Tensor:
    """Delta(X+^m X-^n) with the xi^{j(n-k)} cross factor, assembled
    without the multiplication engine."""
    alg = hopf.algebra
    xi = hopf.data.xi
    xi_inv = xi.inverse()
    one_mono = alg.base.one_monomial()
    minus = [(q_binomial(n, k, xi_inv), _grouplike_power(hopf.data.y_minus, n - k))
             for k in range(n + 1)]
    out: dict = {}
    for j in range(m + 1):
        bj = q_binomial(m, j, xi)
        yp_mono, yp_scalar = _grouplike_power(hopf.data.y_plus, m - j)
        for k, (bk, (ym_mono, ym_scalar)) in enumerate(minus):
            cross = xi ** (j * (n - k))
            products = alg.base.mul_monomials(yp_mono, ym_mono)
            (mono, extra), = products.items()
            out[((mono, j, k), (one_mono, m - j, n - k))] = (
                bj * bk * cross * yp_scalar * ym_scalar * Scalar(alg.field, extra))
    return Tensor(alg, 2, out)


def sparse_support(m: int, ctx: CoradicalContext, sign: str = "+") -> list[tuple[int, Scalar]]:
    """The prec-downset of m with its nonzero coproduct coefficients
    alpha_p = C(q_m, i) * binom(r_m, j)_{xi^{+-1}} at p = d*i + j."""
    xi = ctx.xi if sign == "+" else ctx.xi.inverse()
    profile = hat(m, ctx.d)
    out = []
    if ctx.d is None or ctx.d <= 1:
        for p in range(m + 1):
            alpha = q_binomial(m, p, xi)
            if alpha.is_zero():
                raise InternalError(f"alpha_{p} vanished in the non-root case")
            out.append((p, alpha))
        return out
    for i in range(profile.q + 1):
        for j in range(profile.r + 1):
            p = ctx.d * i + j
            alpha = q_binomial(profile.r, j, xi) * math.comb(profile.q, i)
            if alpha.is_zero():
                raise InternalError(f"alpha_{p} vanished at a primitive root")
            out.append((p, alpha))
    return sorted(out, key=lambda pair: pair[0])
