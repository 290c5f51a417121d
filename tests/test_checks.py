from fractions import Fraction
from math import comb

import pytest

from crchern.chern import checks
from crchern.chern.checks import (
    _circle_bundle,
    check_prop_1_3,
    check_prop_1_4,
    check_prop_4_1,
    check_thm_1_1,
    cpn_setup,
    fpp_times_cpn_setup,
    genus2_times_cpn_setup,
)
from crchern.chern.report import build_manifest
from crchern.chern.spherical import CircleBundleSetup
from crchern.cohomology.gysin import cokernel, image_membership
from crchern.cohomology.ring import INTEGERS, RingError


class TestCpnSetup:
    @pytest.mark.parametrize(
        "n, d, message", [(0, 1, "need n >= 1, got 0"), (1, 0, "need d >= 1, got 0")]
    )
    def test_below_the_guards_rejected(self, n, d, message):
        with pytest.raises(RingError, match=message):
            cpn_setup(n, d)

    def test_smallest_setup_builds(self):
        setup = cpn_setup(1, 1)
        assert str(setup.base) == "Q[t(deg 2, t^2=0)]"
        assert str(setup.euler) == "-t"
        assert (setup.base_tangent.rank, str(setup.base_tangent.total)) == (1, "1 + 2*t")


class TestThm11:
    def test_base_case_witnesses(self):
        report = check_thm_1_1(2)
        assert report.passed
        w = report.witnesses[0]
        assert w["c1_base_tangent"] == "-2*s + 2*h"
        assert w["euler"] == "-2*s - 2*h"

    def test_family(self):
        for n in range(2, 7):
            assert check_thm_1_1(n).passed

    def test_n5_class(self):
        report = check_thm_1_1(5)
        assert report.witnesses[0]["c1_base_tangent"] == "-2*s + 5*h"

    def test_degenerate_control_fails(self, monkeypatch):
        # the same base with e = c_1 of its tangent bundle: c_1 pulls back to 0
        def degenerate(n):
            setup = genus2_times_cpn_setup(n)
            return CircleBundleSetup(setup.base, setup.base_tangent.c1(), setup.base_tangent)

        monkeypatch.setattr(checks, "genus2_times_cpn_setup", degenerate)
        report = check_thm_1_1(2)
        assert not report.passed
        assert report.witnesses[0]["euler"] == "-2*s + 2*h"

    def test_small_n_rejected(self):
        with pytest.raises(RingError):
            check_thm_1_1(1)


class TestProp13:
    def test_base_case(self):
        report = check_prop_1_3(2, 5)
        assert report.passed
        w = report.witnesses[0]
        # coordinates are relative to the Smith presentation; the
        # convention-free statement is class == -(n+1) * generator
        assert w["class_mod_d"] == [(-3 * w["generator_class"][0]) % 5]
        assert w["value_times_generator"] == -3
        assert report.residuals == [{"class": "-3 mod 5"}]
        assert w["constraint_violated_integrally"]

    def test_negative_control_divisor(self):
        # d = 3 divides n+1 = 3: the class dies, and the report records it
        report = check_prop_1_3(2, 3)
        assert report.passed
        assert not report.witnesses[0]["constraint_violated_integrally"]

    def test_larger_case(self):
        report = check_prop_1_3(4, 7)
        assert report.passed
        w = report.witnesses[0]
        assert w["class_mod_d"] == [(-5 * w["generator_class"][0]) % 7]
        assert report.residuals == [{"class": "-5 mod 7"}]

    def test_unit_d(self):
        report = check_prop_1_3(2, 1)
        assert report.passed
        assert not report.witnesses[0]["constraint_violated_integrally"]

    def test_prime_range(self):
        for n in range(2, 5):
            for d in (5, 7, 11, 13):
                if d > n + 1:
                    rep = check_prop_1_3(n, d)
                    assert rep.passed
                    assert rep.witnesses[0]["constraint_violated_integrally"]

    def test_parameter_validation(self):
        with pytest.raises(RingError):
            check_prop_1_3(1, 5)
        with pytest.raises(RingError):
            check_prop_1_3(2, 0)

    def test_integral_census(self):
        # The lens space S^(2n+1)/Z_d, the circle bundle of O(-d) over CP^n,
        # has Z/d in each even degree 2k <= 2n.  There the reduced lift
        # D_k c_k - N_k c_1^k of the constraint, q_k = N_k / D_k, is its
        # closed-form value times the class of t^k; the paper's k = 2 lift
        # misses the pairs where only another k fails.
        queries, missed = 0, set()
        for n in range(2, 13):
            for d in range(2, 14):
                setup = _circle_bundle(INTEGERS, (n, "t", n + 1, -d))
                ring, tangent = setup.base, setup.base_tangent
                t, c1 = ring.gen("t"), tangent.c1()
                reduced_fails = False
                for k in range(1, n + 1):
                    q = Fraction(comb(n + 2, k), (n + 2) ** k)
                    N, D = q.numerator, q.denominator
                    coker = cokernel(ring, setup.euler, 2 * k)
                    assert coker.invariant_factors == (d,) and coker.free_rank == 0
                    value = (D * comb(n + 1, k) - N * (n + 1) ** k) % d
                    lift = coker.class_of_element(D * tangent.chern(k) - N * c1**k)
                    (gen,) = coker.class_of_element(t**k)
                    assert lift == (value * gen % d,)
                    reduced_fails |= value != 0
                    queries += 1
                paper_lift = 2 * (n + 2) * tangent.chern(2) - (n + 1) * c1**2
                paper_class = cokernel(ring, setup.euler, 4).class_of_element(paper_lift)
                if reduced_fails and not any(paper_class):
                    missed.add((n, d))
        assert queries == 924
        assert missed == {
            (3, 4), (5, 2), (5, 3), (5, 6), (7, 4), (7, 8), (8, 9), (9, 2),
            (9, 5), (9, 10), (11, 2), (11, 3), (11, 4), (11, 6), (11, 12),
        }


class TestProp41:
    def test_family(self):
        for n in (4, 5, 6):
            report = check_prop_4_1(n)
            assert report.passed

    def test_decomposition_witnesses(self):
        report = check_prop_4_1(4)
        w = report.witnesses[0]
        assert w["decomposition_preimage"] == "t + 9*h"
        assert w["off_image_component"] == "36*h^2"

    def test_decomposition_identity_recomputed(self):
        for n in (4, 5, 6):
            setup = fpp_times_cpn_setup(n)
            ring = setup.base
            h = ring.gen("h")
            e = setup.euler
            c1 = setup.base_tangent.c1()
            lhs = c1 * c1 - Fraction((n + 2) ** 2, 9) * (-3 * h) * (-3 * h)
            rhs = e * (e + 2 * (n + 2) * h)
            assert lhs == rhs

    def test_degenerate_root_makes_system_solvable(self):
        # formally n = -2 collapses the obstruction: e^2 is trivially in
        # the image, with certificate e itself
        setup = fpp_times_cpn_setup(4)
        e = setup.euler
        cert = image_membership(setup.base, e, e * e)
        assert cert.member
        assert e * cert.preimage == e * e

    def test_small_n_rejected(self):
        with pytest.raises(RingError):
            check_prop_4_1(3)


class TestProp14:
    def test_odd_cases(self):
        for m in (2, 3, 4):
            report = check_prop_1_4(m, even_case=False)
            assert report.passed
            assert report.params["n"] == 2 * m - 1

    def test_even_cases(self):
        for m in (2, 3):
            report = check_prop_1_4(m, even_case=True)
            assert report.passed
            assert report.params["n"] == 2 * m

    def test_frozen_residuals(self):
        assert check_prop_1_4(2).residuals == [{"k": 2, "residual": "1/5*t1*t2"}]
        assert check_prop_1_4(2, even_case=True).residuals == [
            {"k": 2, "residual": "1/6*t1*t2"}
        ]
        three = check_prop_1_4(3).residuals[0]["residual"]
        assert three == "1/7*t1*t2 + 1/7*t1*t3 + 1/7*t2*t3"

    def test_shared_representation_of_contact_and_tangent(self):
        report = check_prop_1_4(2)
        assert report.witnesses[0]["shared_representation"] is True

    def test_small_m_rejected(self):
        with pytest.raises(RingError):
            check_prop_1_4(1)


def test_reports_serialize():
    import json

    for report in (check_thm_1_1(2), check_prop_1_3(2, 5), check_prop_1_4(2)):
        doc = report.to_json_dict()
        json.dumps(doc)  # JSON-able without custom encoders
        assert doc["status"] == "pass"
        markdown = "".join(build_manifest([], [report], 0, False, "md")[1])
        assert f"\n## `{report.check}` -- pass\n" in markdown
