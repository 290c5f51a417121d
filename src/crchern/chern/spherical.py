"""The spherical-CR constraint on Chern classes, tested modulo a Gysin image.

A spherical CR manifold of dimension ``2n+1`` satisfies

    c_k = binom(n+2, k) / (n+2)^k * c_1^k

in real cohomology for every k.  On the circle bundle of a negative
line bundle L over a base Y, classes pull back from Y and the kernel of
the pullback in each degree is the image of cup product with
e = c_1(L); the constraint on the total space is therefore equivalent
to the statement that each residual

    c_k(TY) - binom(n+2, k) / (n+2)^k * c_1(TY)^k

lies in ``Im(. cup e)``.  That quotient-level test is what
:func:`verify_spherical_on_circle_bundle` performs; the residual itself
is generally nonzero at base level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from ..cohomology.gysin import MembershipCertificate, image_membership
from ..cohomology.ring import RingElement, RingError, RingPresentation
from .bundles import BundleClass
from .report import CheckReport


@dataclass(frozen=True)
class CircleBundleSetup:
    """Circle bundle data: base ring, Euler class e = c_1(L), base tangent bundle.

    Classes on the total space are represented by base classes modulo
    ``Im(. cup e)``; equality and vanishing upstairs are membership
    questions downstairs.
    """

    base: RingPresentation
    euler: RingElement
    base_tangent: BundleClass

    def __post_init__(self) -> None:
        if self.euler.ring != self.base:
            raise RingError("Euler class does not live in the base ring")
        if not self.euler.is_zero() and self.euler.homogeneous_degree() != 2:
            raise RingError("Euler class must be homogeneous of degree 2")
        if self.base_tangent.ring != self.base:
            raise RingError("base tangent classes do not live in the base ring")


def spherical_ratio(n: int, k: int) -> Fraction:
    """The constraint coefficient binom(n+2, k) / (n+2)^k."""
    return Fraction(comb(n + 2, k), (n + 2) ** k)


def spherical_residual(c: BundleClass, n: int, k: int) -> RingElement:
    """``c_k - binom(n+2,k)/(n+2)^k * c_1^k`` as an exact rational class.

    The coefficient is rational, so the bundle must live over Q.  For
    ``k = 1`` the coefficient is 1 and the residual vanishes for every
    bundle.
    """
    return _residual(c, n, k)


def _residual(
    c: BundleClass, n: int, k: int, c1_power: RingElement | None = None
) -> RingElement:
    """:func:`spherical_residual`, given ``c1_power = c_1^k`` if known."""
    if c.ring.coefficients.kind != "Q":
        raise RingError("the spherical constraint is rational; use Q coefficients")
    if not 1 <= k <= n + 1:
        raise RingError(f"k must satisfy 1 <= k <= n+1, got k={k}, n={n}")
    if c1_power is None:
        c1_power = c.c1() ** k
    # Over one denominator: (den * c_k - C * c_1^k) / den with
    # den = (n+2)^k and C = binom(n+2, k), one Fraction per term.
    den, C = (n + 2) ** k, comb(n + 2, k)
    merged = {e: den * x for e, x in c.chern(k).terms.items()}
    for e, x in c1_power.terms.items():
        merged[e] = merged.get(e, 0) - C * x
    return c.ring._reduced(
        {e: Fraction(x.numerator, x.denominator * den) for e, x in merged.items() if x}
    )


@lru_cache(maxsize=1)  # the most recent base only: a sweep visits each base once
def _residual_table(
    c: BundleClass, n: int
) -> tuple[tuple[int, RingElement, str, str], ...]:
    """``(k, residual, str(residual), str(ratio))`` for ``k = 1..n+1``."""
    rows = []
    c1 = c.c1()
    c1_power = c.ring.one()
    for k in range(1, n + 2):
        c1_power = c1_power * c1  # c_1^k, one product with c_1 per k
        res = _residual(c, n, k, c1_power)
        rows.append((k, res, str(res), str(spherical_ratio(n, k))))
    return tuple(rows)


def verify_spherical_on_circle_bundle(
    setup: CircleBundleSetup, n: int
) -> CheckReport:
    """Check the spherical constraint for all k <= n+1 modulo the Gysin image.

    Every residual must be a member of ``Im(. cup e)`` in its degree.
    Over Q a pass is vacuous where the degree has an empty basis, the
    residual is already 0 (always at ``k = 1``), or cup with ``e`` is
    onto the degree; CP^n with ``e = -d*t`` is a rational homology
    sphere, so that family passes vacuously at every k.
    """
    assertions = []
    witnesses = []
    residuals = []
    for k, res, res_text, ratio_text in _residual_table(setup.base_tangent, n):
        cert: MembershipCertificate = image_membership(setup.base, setup.euler, res)
        assertions.append((f"residual k={k} in image", cert.member))
        residuals.append({"k": k, "residual": res_text})
        witnesses.append(
            {"k": k, "ratio": ratio_text, "membership": cert.to_json_dict()}
        )
    return CheckReport(
        check="spherical-constraint-on-circle-bundle",
        params={"n": n, "euler": str(setup.euler)},
        assertions=assertions,
        witnesses=witnesses,
        residuals=residuals,
    )
