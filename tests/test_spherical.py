import random
from fractions import Fraction
from math import comb

import pytest

from conftest import random_element
from crchern.chern import spherical
from crchern.chern.bundles import BundleClass, chern_projective_space
from crchern.chern.checks import (
    cpn_setup,
    fpp_times_cpn_setup,
    genus2_times_cpn_setup,
    nilsquare_ring,
)
from crchern.chern.spherical import (
    CircleBundleSetup,
    spherical_ratio,
    spherical_residual,
    verify_spherical_on_circle_bundle,
)
from crchern.cohomology.gysin import image_membership
from crchern.cohomology.ring import INTEGERS, RATIONALS, RingError, make_ring


def test_ratio_values():
    assert spherical_ratio(2, 1) == 1
    assert spherical_ratio(2, 2) == Fraction(comb(4, 2), 16) == Fraction(3, 8)
    assert spherical_ratio(3, 2) == Fraction(comb(5, 2), 25) == Fraction(2, 5)


def test_residual_vanishes_at_k_one_for_random_bundles():
    rng = random.Random(9)
    ring = nilsquare_ring(3)
    for _ in range(100):
        el = random_element(rng, ring, max_terms=3)
        total = 1 + el - el.homogeneous_part(0)
        try:
            bundle = BundleClass(5, total)
        except RingError:
            continue
        for n in (5, 7):
            assert spherical_residual(bundle, n, 1).is_zero()


def test_residual_projective_space_closed_form():
    # hand expansion: c2 - C(n+2,2)/(n+2)^2 c1^2 = -(n+1)/(2(n+2)) t^2;
    # times 2(n+2) this is the integral class -(n+1) t^2.
    for n in range(2, 7):
        ring = make_ring([("t", 2, n + 1)], RATIONALS)
        t = ring.gen("t")
        bundle = chern_projective_space(n, ring, "t")
        res = spherical_residual(bundle, n, 2)
        assert res == Fraction(-(n + 1), 2 * (n + 2)) * t * t
        assert 2 * (n + 2) * res == -(n + 1) * t * t


def test_residual_trivial_class():
    ring = nilsquare_ring(2)
    flat = BundleClass(4, ring.one())
    for k in range(1, 5):
        assert spherical_residual(flat, 3, k).is_zero()


def test_residual_nilsquare_footprint():
    # (t1+t2)^2 = 2 t1 t2, so the k=2 residual is (1 - 4/5) t1t2... with
    # n=3: t1t2 - (2/5)*2*t1t2 = (1/5) t1t2
    ring = nilsquare_ring(2)
    t1, t2 = ring.gen("t1"), ring.gen("t2")
    bundle = BundleClass(3, (1 + t1) * (1 + t2))
    res = spherical_residual(bundle, 3, 2)
    assert res == Fraction(1, 5) * t1 * t2
    assert not res.is_zero()


def _spherical_bases(n_max):
    for n in range(1, n_max + 1):
        yield f"cp{n}", n, cpn_setup(n, 1).base_tangent
        if n >= 2:
            yield f"genus2-x-cp{n - 1}", n, genus2_times_cpn_setup(n).base_tangent
        if n >= 4:  # the fake projective plane's 1/3 coefficients
            yield f"fpp-x-cp{n - 2}", n, fpp_times_cpn_setup(n).base_tangent


def test_residual_over_one_denominator_is_ring_arithmetic():
    seen_fraction = False
    for name, n, c in _spherical_bases(12):
        table = spherical._residual_table(c, n)
        assert [row[0] for row in table] == list(range(1, n + 2))
        for k, row in zip(range(1, n + 2), table):
            expected = c.chern(k) - spherical_ratio(n, k) * c.c1() ** k
            for res in (spherical_residual(c, n, k), row[1]):
                assert res == expected, (name, k)
                assert res.terms == expected.terms, (name, k)
                for x in res.terms.values():
                    # int where the value is integral, Fraction otherwise
                    assert type(x) is (int if x.denominator == 1 else Fraction)
                    seen_fraction |= type(x) is Fraction
            assert row[2] == str(expected)
    assert seen_fraction


def test_residual_requires_rational_ring():
    ring = make_ring([("t", 2, 3)], INTEGERS)
    bundle = chern_projective_space(2, ring, "t")
    with pytest.raises(RingError):
        spherical_residual(bundle, 2, 2)


def test_residual_k_range_enforced():
    ring = make_ring([("t", 2, 3)], RATIONALS)
    bundle = chern_projective_space(2, ring, "t")
    with pytest.raises(RingError):
        spherical_residual(bundle, 2, 0)
    with pytest.raises(RingError):
        spherical_residual(bundle, 2, 4)


class TestPullback:
    # a class pulls back to zero on the total space iff it is in Im(cup e)

    def test_euler_class_itself_dies(self):
        setup = genus2_times_cpn_setup(2)
        assert image_membership(setup.base, setup.euler, setup.euler).member

    def test_tangent_c1_survives(self):
        setup = genus2_times_cpn_setup(2)
        c1 = setup.base_tangent.c1()
        assert not image_membership(setup.base, setup.euler, c1).member

    def test_prop41_square_survives(self):
        setup = fpp_times_cpn_setup(4)
        c1 = setup.base_tangent.c1()
        assert not image_membership(setup.base, setup.euler, c1 * c1).member

    def test_zero_class_dies(self):
        setup = genus2_times_cpn_setup(2)
        assert image_membership(setup.base, setup.euler, setup.base.zero()).member


class TestVerifyOnCircleBundle:
    def test_genus2_family_k2_residual_frozen(self):
        # hand computation at n=2: residual -sh, e*s = -2sh
        setup = genus2_times_cpn_setup(2)
        res = spherical_residual(setup.base_tangent, 2, 2)
        s, h = setup.base.gen("s"), setup.base.gen("h")
        assert res == -1 * s * h
        report = verify_spherical_on_circle_bundle(setup, 2)
        assert report.passed

    def test_all_three_families(self):
        for n in range(2, 7):
            assert verify_spherical_on_circle_bundle(
                genus2_times_cpn_setup(n), n
            ).passed
        for n in range(2, 7):
            for d in range(1, 6):
                assert verify_spherical_on_circle_bundle(cpn_setup(n, d), n).passed
        for n in range(4, 7):
            assert verify_spherical_on_circle_bundle(fpp_times_cpn_setup(n), n).passed

    def test_cpn_family_image_is_full_over_q(self):
        # over Q multiplication by -d t is onto in every positive degree
        setup = cpn_setup(3, 2)
        report = verify_spherical_on_circle_bundle(setup, 3)
        assert report.passed

    def test_failure_is_detectable(self):
        # spoiled tangent class: drop the fake-projective-plane c2
        setup = fpp_times_cpn_setup(4)
        ring = setup.base
        t = ring.gen("t")
        spoiled_total = setup.base_tangent.total - Fraction(1, 3) * t * t
        spoiled = CircleBundleSetup(
            ring, setup.euler, BundleClass(setup.base_tangent.rank, spoiled_total)
        )
        report = verify_spherical_on_circle_bundle(spoiled, 4)
        assert not report.passed

    def test_each_residual_is_spherical_residual(self, monkeypatch):
        from crchern.chern import spherical

        targets = []
        membership = spherical.image_membership

        def recording(ring, e, beta):
            targets.append(beta)
            return membership(ring, e, beta)

        monkeypatch.setattr(spherical, "image_membership", recording)
        setups = [(genus2_times_cpn_setup(n), n) for n in range(2, 7)]
        setups += [(cpn_setup(n, d), n) for n in range(2, 7) for d in (1, 3)]
        setups += [(fpp_times_cpn_setup(n), n) for n in range(4, 7)]
        for setup, n in setups:
            targets.clear()
            report = verify_spherical_on_circle_bundle(setup, n)
            expected = [
                spherical_residual(setup.base_tangent, n, k) for k in range(1, n + 2)
            ]
            assert targets == expected
            assert [r["residual"] for r in report.residuals] == [str(x) for x in expected]

    def test_report_carries_certificates(self):
        report = verify_spherical_on_circle_bundle(genus2_times_cpn_setup(2), 2)
        ks = [w["k"] for w in report.witnesses]
        assert ks == [1, 2, 3]
        assert all("membership" in w for w in report.witnesses)
