"""The named verification checks.

Each builder assembles a circle bundle over an explicit product base,
and each ``check_*`` function verifies the corresponding statement with
exact arithmetic, returning a :class:`CheckReport` whose witnesses make
the outcome auditable.

Which CLI target runs which check, with which parameters, is the table
``TARGETS`` in :mod:`crchern.cli`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import prod

from ..cohomology.gysin import cokernel, image_membership
from ..cohomology.ring import INTEGERS, RATIONALS, CoefficientDomain, RingError, make_ring
from .bundles import BundleClass, _space_form_class, bundle_product
from .report import CheckReport
from .spherical import (
    CircleBundleSetup,
    spherical_ratio,
    spherical_residual,
)


# -- circle-bundle families -------------------------------------------------


def _circle_bundle(
    domain: CoefficientDomain, *factors: tuple[int, str, int, int]
) -> CircleBundleSetup:
    """Circle bundle over a product of space forms, with coefficients in ``domain``.

    Each factor ``(p, x, c1, a)`` is a p-dimensional space form whose
    degree-2 generator x is truncated at ``x^(p+1)``, with
    ``c_1 = c1 * x``; it contributes ``a * x`` to the Euler class.
    """
    ring = make_ring([(x, 2, p + 1) for p, x, _, _ in factors], domain)
    euler = sum(a * ring.gen(x) for _, x, _, a in factors)
    tangent = reduce(
        bundle_product, (_space_form_class(p, ring, x, c1) for p, x, c1, _ in factors)
    )
    return CircleBundleSetup(ring, euler, tangent)


def genus2_times_cpn_setup(n: int) -> CircleBundleSetup:
    """Circle bundle over (genus-2 surface) x CP^(n-1).

    The line bundle is the box product of the surface's holomorphic
    tangent bundle (c_1 = -2s) with O(-2) on CP^(n-1) (c_1 = -2h), so
    e = -2s - 2h.  The base carries the Bochner-flat product metric of
    matched opposite curvatures, so the total space is spherical.
    """
    if n < 2:
        raise RingError(f"the construction needs n >= 2, got {n}")
    return _circle_bundle(RATIONALS, (1, "s", -2, -2), (n - 1, "h", n, -2))


def fpp_times_cpn_setup(n: int) -> CircleBundleSetup:
    """Circle bundle over (fake projective plane) x CP^(n-2).

    The line bundle is the box product of the anticanonical inverse on
    the fake projective plane (c_1 = t) with O(-3) on CP^(n-2)
    (c_1 = -3h), so e = t - 3h.
    """
    if n < 4:
        raise RingError(f"the construction needs n >= 4, got {n}")
    return _circle_bundle(RATIONALS, (2, "t", 1, 1), (n - 2, "h", n - 1, -3))


def cpn_setup(n: int, d: int) -> CircleBundleSetup:
    """Circle bundle of O(-d) over CP^n, so e = -d * t."""
    if n < 1:
        raise RingError(f"need n >= 1, got {n}")
    if d < 1:
        raise RingError(f"need d >= 1, got {d}")
    return _circle_bundle(RATIONALS, (n, "t", n + 1, -d))


def nilsquare_ring(m: int):
    """Q[t1..tm] with every generator of degree 2 and square zero."""
    if m < 1:
        raise RingError(f"need m >= 1, got {m}")
    return make_ring([(f"t{j}", 2, 2) for j in range(1, m + 1)], RATIONALS)


# -- named checks -----------------------------------------------------------


def check_thm_1_1(n: int) -> CheckReport:
    """Closed spherical CR manifold of dimension 2n+1 with c_1 != 0.

    Builds the circle bundle over (genus-2 surface) x CP^(n-1) and
    asserts that c_1 of the base tangent bundle, -2s + n*h, pulls back
    to a nonzero class, i.e. is not proportional to e = -2s - 2h.  In
    particular the total space admits no pseudo-Einstein contact form
    (such a form would force c_1 = 0 in real coefficients).
    """
    setup = genus2_times_cpn_setup(n)
    beta = setup.base_tangent.c1()
    cert = image_membership(setup.base, setup.euler, beta)
    nonzero = not cert.member
    return CheckReport(
        check="first-chern-nonvanishing",
        params={"n": n},
        assertions=[("c1(base tangent) not in Im(cup e)", nonzero)],
        witnesses=[
            {
                "c1_base_tangent": str(beta),
                "euler": str(setup.euler),
                "membership": cert.to_json_dict(),
                "non_proportionality": "degree-2 image is the line spanned by e",
            }
        ],
    )


def check_prop_1_3(n: int, d: int) -> CheckReport:
    """Integral failure of the spherical constraint on O(-d) circle bundles.

    Over Z the degree-4 cohomology of the total space is the cokernel
    of cup product with -d*t, i.e. Z/d with generator the class of t^2.
    The class 2(n+2)c_2 - (n+1)c_1^2 = -(n+1) t^2 is nonzero there
    exactly when d does not divide n+1.  The report records whether the
    integral inequality holds for these parameters; the check passes
    when the computed picture matches that prediction.
    """
    if n < 2:
        raise RingError(f"check needs n >= 2, got {n}")
    if d < 1:
        raise RingError(f"check needs d >= 1, got {d}")
    setup = _circle_bundle(INTEGERS, (n, "t", n + 1, -d))
    ring, euler, tangent = setup.base, setup.euler, setup.base_tangent
    t = ring.gen("t")
    combo = 2 * (n + 2) * tangent.chern(2) - (n + 1) * tangent.c1() ** 2

    coker = cokernel(ring, euler, 4)
    expected_factors = coker.invariant_factors == (d,) and coker.free_rank == 0
    combo_class = coker.class_of_element(combo)
    gen_class = coker.class_of_element(t * t)
    expected_value = tuple((-(n + 1) * g) % d for g in gen_class)
    matches_formula = combo_class == expected_value
    nonzero = any(combo_class)
    prediction = (n + 1) % d != 0
    return CheckReport(
        check="integral-constraint-counterexample",
        params={"n": n, "d": d},
        assertions=[
            (f"degree-4 cokernel is Z/{d}", expected_factors),
            ("class equals -(n+1) times the generator", matches_formula),
            ("nonzero mod d iff d does not divide n+1", nonzero == prediction),
        ],
        witnesses=[
            {
                "combination": str(combo),
                "class_mod_d": list(combo_class),
                "generator_class": list(gen_class),
                "value_times_generator": -(n + 1),
                "constraint_violated_integrally": nonzero,
                "cokernel": coker.to_json_dict(),
            }
        ],
        residuals=[{"class": f"{-(n + 1)} mod {d}"}],
    )


def check_prop_4_1(n: int) -> CheckReport:
    """Spherical CR manifold with c_2 = ((n+1)/(2(n+2))) c_1^2 != 0.

    On the circle bundle over (fake projective plane) x CP^(n-2) the
    square of c_1 of the base tangent bundle survives pullback: the
    exact decomposition

        c_1(TY)^2 = e * (e - (2(n+2)/3) c_1(L2)) + ((n+2)^2 / 9) c_1(L2)^2

    exhibits a component off the image of cup product with e.  Both the
    non-membership and the decomposition are verified exactly.
    """
    setup = fpp_times_cpn_setup(n)
    ring = setup.base
    h = ring.gen("h")
    e = setup.euler
    c1 = setup.base_tangent.c1()
    beta = c1 * c1

    cert = image_membership(ring, e, beta)
    not_member = not cert.member

    c1_l2 = -3 * h
    residual_term = Fraction((n + 2) ** 2, 9) * c1_l2 * c1_l2
    preimage_factor = e - Fraction(2 * (n + 2), 3) * c1_l2
    decomposition_exact = beta - residual_term == e * preimage_factor
    decomposition_member = image_membership(ring, e, beta - residual_term).member

    return CheckReport(
        check="second-chern-nonvanishing",
        params={"n": n},
        assertions=[
            ("c1(base tangent)^2 not in Im(cup e)", not_member),
            ("decomposition identity holds exactly", decomposition_exact),
            ("decomposed main term is in Im(cup e)", decomposition_member),
        ],
        witnesses=[
            {
                "c1_base_tangent": str(c1),
                "euler": str(e),
                "membership": cert.to_json_dict(),
                "decomposition_preimage": str(preimage_factor),
                "off_image_component": str(residual_term),
            }
        ],
        residuals=[{"off_image_component": str(residual_term)}],
    )


def check_prop_1_4(m: int, even_case: bool = False) -> CheckReport:
    """Fillable contact manifold violating the spherical constraint.

    The model is a product of m three-manifold factors, each carrying
    one degree-2 class t_j with square zero and t_j != 0; an extra
    trivial line factor is added in the even case.  The contact
    structure and the CR tangent bundle have the same total class (the
    two differ by trivial line bundles), realized here as one
    BundleClass referenced under both labels.  With

        c = prod_j (1 + t_j),  n = 2m-1 (odd) or 2m (even),

    the check asserts c_2 = c_1^2 / 2 exactly, c_2 != 0, and that the
    k=2 spherical residual equals c_1^2 / (2(n+2)) != 0, so no spherical
    CR structure is compatible with this contact structure.
    """
    if m < 2:
        raise RingError(f"check needs m >= 2, got {m}")
    n = 2 * m if even_case else 2 * m - 1
    ring = nilsquare_ring(m)
    # The honest CR tangent bundle has rank n; the product also covers
    # trivialized normal directions, which change rank only.
    tangent = BundleClass(n, prod(1 + ring.gen(f"t{j}") for j in range(1, m + 1)))
    contact = tangent  # c(contact structure) = c(CR tangent), one object

    c1 = tangent.c1()
    c2 = tangent.chern(2)
    half_square = Fraction(1, 2) * c1 * c1
    residual = spherical_residual(tangent, n, 2)
    expected_residual = Fraction(1, 2 * (n + 2)) * c1 * c1

    return CheckReport(
        check="fillable-contact-constraint-violation",
        params={"m": m, "n": n, "parity": "even" if even_case else "odd"},
        assertions=[
            ("c2 equals c1^2 / 2 exactly", c2 == half_square),
            ("c2 is nonzero", not c2.is_zero()),
            ("k=2 residual equals c1^2 / (2(n+2))", residual == expected_residual),
            ("k=2 residual is nonzero", not residual.is_zero()),
            ("contact and tangent classes share one representation",
             contact is tangent),
        ],
        witnesses=[
            {
                "c1": str(c1),
                "c2": str(c2),
                "spherical_ratio_k2": str(spherical_ratio(n, 2)),
                "labels": ["c(contact structure)", "c(CR tangent bundle)"],
                "shared_representation": contact is tangent,
            }
        ],
        residuals=[{"k": 2, "residual": str(residual)}],
    )
