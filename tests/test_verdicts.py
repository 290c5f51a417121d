"""Every verdict is read off its evidence; no record stores one.

A report's status is read off its assertions, a membership verdict off
its preimage, and a cokernel's free rank and basis classes off its
factors, basis and row transform, so no record can disagree with what
it rests on.
"""

import json
from fractions import Fraction
from math import gcd

import pytest

from crchern.chern.checks import (
    check_prop_1_3,
    cpn_setup,
    fpp_times_cpn_setup,
    genus2_times_cpn_setup,
)
from crchern.chern.report import CheckReport
from crchern.chern.spherical import _residual_table
from crchern.cli import TARGETS, build_manifest
from crchern.cohomology.gysin import (
    CokernelData,
    MembershipCertificate,
    cokernel,
    image_membership,
)
from crchern.cohomology.ring import (
    INTEGERS,
    RATIONALS,
    RingError,
    make_ring,
)


def test_no_record_stores_a_verdict():
    stored = {
        name
        for record in (CheckReport, MembershipCertificate, CokernelData)
        for name in record.fields
    }
    assert not stored & {"status", "member", "free_rank", "generator_classes"}
    assert not hasattr(CheckReport, "from_assertions")


class TestReportStatus:
    def test_a_failing_assertion_added_later_fails_the_report(self):
        report = check_prop_1_3(2, 5)
        assert (report.status, report.passed) == ("pass", True)
        failed = report.replace(assertions=[*report.assertions, ("x", False)])
        assert (failed.status, failed.passed) == ("fail", False)
        assert failed.to_json_dict()["status"] == "fail"
        assert report.to_json_dict()["status"] == "pass"

    def test_the_manifest_reads_the_failure(self):
        report = check_prop_1_3(2, 5)
        failed = report.replace(assertions=[*report.assertions, ("x", False)])
        for reports, status in [([report], "pass"), ([report, failed], "fail")]:
            passed, pieces = build_manifest([], iter(reports), 0, False, "json")
            assert (passed, json.loads("".join(pieces))["status"]) == (status == "pass", status)

    def test_an_empty_assertion_list_passes(self):
        report = CheckReport("empty", {})
        assert (report.status, report.passed) == ("pass", True)
        assert report.to_json_dict() == {
            "check": "empty",
            "params": {},
            "status": "pass",
            "assertions": [],
            "witnesses": [],
            "residuals": [],
        }


def _thm_1_2_setups(n_max):
    for n in range(2, n_max + 1):
        yield genus2_times_cpn_setup(n), n
        for d in range(1, 6):
            yield cpn_setup(n, d), n
    for n in range(4, n_max + 1):
        yield fpp_times_cpn_setup(n), n


def test_thm_1_2_certificates_read_member_off_the_preimage():
    members = 0
    for setup, n in _thm_1_2_setups(8):
        for _k, res, _res_text, _ratio_text in _residual_table(setup.base_tangent, n):
            cert = image_membership(setup.base, setup.euler, res)
            assert cert.member == (cert.preimage is not None)
            assert cert.to_json_dict()["member"] is cert.member
            if cert.member:
                assert setup.euler * cert.preimage == res
            members += cert.member
    assert members > 100


@pytest.mark.parametrize(
    "m,e,beta,member",
    [
        (0, 2, 6, True),
        (0, 2, 3, False),
        (3, 2, 1, True),
        (4, 2, 1, False),
        (4, 2, 2, True),
    ],
    ids=["Z-member", "Z-nonmember", "Z/3-member", "Z/4-nonmember", "Z/4-member"],
)
def test_integral_verdicts_are_read_off_the_cokernel(m, e, beta, member):
    # beta t^2 lies in the image of e t over Z/m (over Z when m = 0) exactly
    # when its class in the Z/2 cokernel lies in m times it
    ring = make_ring([("t", 2, 3)], INTEGERS)
    t = ring.gen("t")
    data = cokernel(ring, e * t, 4)
    assert (data.invariant_factors, data.free_rank) == ((2,), 0)
    (cls,) = data.class_of_element(beta * t**2)
    assert (cls % gcd(m, 2) == 0) is member
    # the same verdict by brute force: e x + m y = beta in small integers
    box = range(-6, 7)
    assert any(e * x + m * y == beta for x in box for y in box) is member


def test_prop_1_3_cokernels_derive_rank_and_classes():
    reports = TARGETS["prop-1-3"].share({})
    assert len(reports) > 10
    for report in reports:
        n, d = report.params["n"], report.params["d"]
        ring = make_ring([("t", 2, n + 1)], INTEGERS)
        data = cokernel(ring, -d * ring.gen("t"), 4)
        size = len(data.basis)
        assert data.free_rank == size - len(data.invariant_factors) == 0
        assert data.generator_classes == tuple(
            data.class_of_vector([int(i == j) for i in range(size)]) for j in range(size)
        )
        assert report.witnesses[0]["cokernel"] == data.to_json_dict()


class TestOneClassReader:
    @pytest.fixture
    def data(self):
        ring = make_ring([("t", 2, 6)], INTEGERS)
        return ring, cokernel(ring, -5 * ring.gen("t"), 4)

    def test_support_outside_the_degree_basis_is_refused(self, data):
        ring, coker = data
        t = ring.gen("t")
        assert coker.class_of_element(t**2) == (4,)
        for beta in (t**3, t + t**2):
            with pytest.raises(RingError, match="outside the expected degree basis"):
                coker.class_of_element(beta)

    def test_a_fraction_is_refused(self, data):
        _, coker = data
        qring = make_ring([("t", 2, 6)], RATIONALS)
        with pytest.raises(RingError, match="read over Z, got a class over Q"):
            coker.class_of_element(Fraction(1, 2) * qring.gen("t") ** 2)
