from fractions import Fraction

import pytest

from crchern.chern.bundles import (
    BundleClass,
    bundle_product,
    chern_fake_projective_plane,
    chern_projective_space,
    chern_surface,
    trivial_bundle,
)
from crchern.chern.spherical import spherical_residual
from crchern.cohomology.ring import (
    INTEGERS,
    RATIONALS,
    RingError,
    integers_mod,
    make_ring,
)


def test_projective_space_total_classes():
    from math import comb

    for n in (1, 2, 3, 5):
        ring = make_ring([("h", 2, n + 1)], INTEGERS)
        bundle = chern_projective_space(n, ring, "h")
        assert bundle.rank == n
        for k in range(n + 1):
            # binomial oracle for the coefficients of (1+h)^(n+1)
            assert bundle.chern(k).coefficient(tuple([k])) == comb(n + 1, k)


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS, integers_mod(2), integers_mod(6)])
def test_projective_space_total_is_binomial_power(domain):
    for n in range(1, 13):
        for trunc in (n + 1, max(n, 2), 2):  # exact, and dropping top powers
            ring = make_ring([("s", 2, 2), ("h", 2, trunc), ("u", 4, 3)], domain)
            h = ring.gen("h")
            assert chern_projective_space(n, ring, "h").total == (1 + h) ** (n + 1)
        # a larger truncation keeps h^(n+1) alive above degree 2n
        ring = make_ring([("s", 2, 2), ("h", 2, n + 2), ("u", 4, 3)], domain)
        h = ring.gen("h")
        assert ((1 + h) ** (n + 1)).degrees()[-1] == 2 * n + 2
        with pytest.raises(RingError):
            chern_projective_space(n, ring, "h")


def test_projective_space_generator_checks_kept():
    ring = make_ring([("h", 2, 1), ("w", 4, 3)], INTEGERS)
    with pytest.raises(RingError, match="degree 2"):
        chern_projective_space(2, ring, "h")  # h itself is zero
    with pytest.raises(RingError, match="degree 2"):
        chern_projective_space(2, ring, "w")
    with pytest.raises(RingError, match="unknown generator"):
        chern_projective_space(2, ring, "x")


def test_projective_space_examples():
    ring = make_ring([("t", 2, 3)], INTEGERS)
    assert str(chern_projective_space(2, ring, "t").total) == "1 + 3*t + 3*t^2"
    ring3 = make_ring([("h", 2, 4)], INTEGERS)
    assert str(chern_projective_space(3, ring3, "h").total) == "1 + 4*h + 6*h^2 + 4*h^3"


def test_projective_space_missing_generator():
    ring = make_ring([("t", 2, 3)], INTEGERS)
    with pytest.raises(RingError):
        chern_projective_space(2, ring, "h")


def test_projective_space_incompatible_truncation_rejected():
    # truncation 4 leaves h^3 alive, above 2*rank for CP^2
    ring = make_ring([("h", 2, 4)], INTEGERS)
    with pytest.raises(RingError):
        chern_projective_space(2, ring, "h")


def test_surface_classes():
    ring = make_ring([("s", 2, 2)], INTEGERS)
    assert str(chern_surface(2, ring, "s").total) == "1 - 2*s"
    assert chern_surface(1, ring, "s").total == ring.one()
    assert str(chern_surface(0, ring, "s").total) == "1 + 2*s"


def test_genus_zero_matches_projective_line():
    ring = make_ring([("s", 2, 2)], INTEGERS)
    assert chern_surface(0, ring, "s").total == chern_projective_space(1, ring, "s").total


def test_surface_needs_square_zero_generator():
    ring = make_ring([("s", 2, 3)], INTEGERS)
    with pytest.raises(RingError):
        chern_surface(2, ring, "s")


def test_fake_projective_plane_class():
    ring = make_ring([("t", 2, 3)], RATIONALS)
    fpp = chern_fake_projective_plane(ring, "t")
    assert fpp.rank == 2
    t = ring.gen("t")
    # ball-quotient equality: c1^2 = 3 c2
    assert fpp.c1() ** 2 == 3 * fpp.chern(2)
    assert fpp.chern(2) == Fraction(1, 3) * t * t
    zring = make_ring([("t", 2, 3)], INTEGERS)
    with pytest.raises(RingError):
        chern_fake_projective_plane(zring, "t")


def _space_forms():
    """(p, tangent class) for CP^1..CP^12, genus 0..4 curves and the fake plane."""
    for p in range(1, 13):
        yield p, chern_projective_space(p, make_ring([("h", 2, p + 1)], RATIONALS), "h")
    for genus in range(5):
        yield 1, chern_surface(genus, make_ring([("s", 2, 2)], RATIONALS), "s")
    yield 2, chern_fake_projective_plane(make_ring([("t", 2, 3)], RATIONALS), "t")


def test_every_space_form_satisfies_the_spherical_formula_one_dimension_down():
    # c = (1 + c_1/(p+1))^(p+1) is the spherical constraint with n + 2 = p + 1
    forms = list(_space_forms())
    assert len(forms) == 18
    for p, bundle in forms:
        for k in range(1, p + 1):
            assert spherical_residual(bundle, p - 1, k).is_zero(), (p, bundle, k)


@pytest.mark.parametrize(
    "build",
    [
        # a missing generator
        lambda: chern_projective_space(2, make_ring([("t", 2, 3)], RATIONALS), "h"),
        lambda: chern_surface(2, make_ring([("t", 2, 2)], RATIONALS), "s"),
        lambda: chern_fake_projective_plane(make_ring([("h", 2, 3)], RATIONALS), "t"),
        # a generator that is not a nonzero class of degree 2
        lambda: chern_projective_space(1, make_ring([("h", 4, 2)], RATIONALS), "h"),
        lambda: chern_surface(2, make_ring([("s", 2, 1)], RATIONALS), "s"),
        lambda: chern_fake_projective_plane(make_ring([("t", 4, 3)], RATIONALS), "t"),
        # a truncation above p + 1
        lambda: chern_projective_space(3, make_ring([("h", 2, 5)], integers_mod(2)), "h"),
        lambda: chern_surface(1, make_ring([("s", 2, 3)], RATIONALS), "s"),
        lambda: chern_surface(1, make_ring([("s", 2, 4)], INTEGERS), "s"),
        lambda: chern_fake_projective_plane(make_ring([("t", 2, 4)], RATIONALS), "t"),
        # a coefficient the domain cannot hold, also where the power is dropped
        lambda: chern_fake_projective_plane(make_ring([("t", 2, 3)], INTEGERS), "t"),
        lambda: chern_fake_projective_plane(make_ring([("t", 2, 2)], INTEGERS), "t"),
        lambda: chern_fake_projective_plane(make_ring([("t", 2, 2)], integers_mod(3)), "t"),
    ],
    ids=[
        "cp-missing",
        "surface-missing",
        "fpp-missing",
        "cp-degree-4",
        "surface-zero-generator",
        "fpp-degree-4",
        "cp3-truncation-5",
        "genus-1-truncation-3",
        "genus-1-cube-alive",
        "fpp-truncation-4",
        "fpp-over-Z",
        "fpp-over-Z-square-zero",
        "fpp-over-Z3-square-zero",
    ],
)
def test_space_form_refusals(build):
    with pytest.raises(RingError):
        build()


def test_bundle_product_example():
    # frozen by hand: (1-2s)(1+2h) = 1 + (-2s+2h) - 4sh
    ring = make_ring([("s", 2, 2), ("h", 2, 2)], RATIONALS)
    product = bundle_product(
        chern_surface(2, ring, "s"), chern_projective_space(1, ring, "h")
    )
    assert product.rank == 2
    s, h = ring.gen("s"), ring.gen("h")
    assert product.total == 1 + (-2 * s + 2 * h) - 4 * s * h


def test_trivial_factor_changes_rank_only():
    ring = make_ring([("s", 2, 2)], RATIONALS)
    a = chern_surface(2, ring, "s")
    padded = bundle_product(a, trivial_bundle(ring, 3))
    assert padded.rank == a.rank + 3
    assert padded.total == a.total


def test_nilsquare_product_of_lines():
    ring = make_ring([("t1", 2, 2), ("t2", 2, 2)], RATIONALS)
    t1, t2 = ring.gen("t1"), ring.gen("t2")
    prod = bundle_product(BundleClass(1, 1 + t1), BundleClass(1, 1 + t2))
    assert prod.total == 1 + (t1 + t2) + t1 * t2
    assert prod.chern(2) == t1 * t2


def test_bundle_product_associative_commutative():
    ring = make_ring([("t1", 2, 2), ("t2", 2, 2), ("t3", 2, 2)], RATIONALS)
    a = BundleClass(1, 1 + ring.gen("t1"))
    b = BundleClass(1, 1 + 2 * ring.gen("t2"))
    c = BundleClass(2, 1 + ring.gen("t3"))
    ab_c = bundle_product(bundle_product(a, b), c)
    a_bc = bundle_product(a, bundle_product(b, c))
    ba = bundle_product(b, a)
    assert ab_c.total == a_bc.total and ab_c.rank == a_bc.rank
    assert ba.total == bundle_product(a, b).total


def test_chern_classes_are_the_homogeneous_parts():
    ring = make_ring([("t1", 2, 3), ("h", 4, 2), ("t2", 2, 2)], RATIONALS)
    t1, h, t2 = (ring.gen(x) for x in ("t1", "h", "t2"))
    bundle = BundleClass(5, (1 + t1) * (1 + h + t2) * (1 + Fraction(1, 2) * t1 * t2))
    for k in range(-1, 8):
        expected = ring.one() if k == 0 else bundle.total.homogeneous_part(2 * k)
        assert bundle.chern(k) == expected, k
    assert not bundle.chern(5).is_zero()
    assert bundle.chern(6).is_zero() and bundle.chern(-1).is_zero()
    # the split is not part of the value: equal totals give equal bundles
    assert bundle == BundleClass(5, bundle.total)
    assert "_parts" not in repr(bundle)


def test_bundle_invariants_enforced():
    ring = make_ring([("t", 2, 3)], RATIONALS)
    t = ring.gen("t")
    with pytest.raises(RingError):
        BundleClass(1, 2 + t)  # constant term must be 1
    with pytest.raises(RingError):
        BundleClass(1, 1 + t * t)  # degree 4 above 2*rank
    with pytest.raises(RingError):
        BundleClass(0, ring.one())
    with pytest.raises(RingError):
        bundle_product(
            BundleClass(1, 1 + t),
            BundleClass(1, 1 + make_ring([("t", 2, 3)], INTEGERS).gen("t")),
        )
