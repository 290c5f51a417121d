"""Every verdict is read off its evidence; no record stores one.

A report's status is read off its assertions, a membership verdict off
its preimage, and a cokernel's free rank and basis classes off its
factors, basis and row transform, so no record can disagree with what
it rests on.
"""

from fractions import Fraction

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
    integers_mod,
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
        assert build_manifest([], [report], 0, False)["status"] == "pass"
        assert build_manifest([], [report, failed], 0, False)["status"] == "fail"

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


def _assert_member_read_off_preimage(e, beta, cert):
    assert cert.member == (cert.preimage is not None)
    assert cert.to_json_dict()["member"] is cert.member
    if cert.member:
        assert e * cert.preimage == beta


def test_thm_1_2_certificates_read_member_off_the_preimage():
    members = 0
    for setup, n in _thm_1_2_setups(8):
        for _k, res, _res_text, _ratio_text in _residual_table(setup.base_tangent, n):
            cert = image_membership(setup.base, setup.euler, res)
            _assert_member_read_off_preimage(setup.euler, res, cert)
            members += cert.member
    assert members > 100


@pytest.mark.parametrize(
    "domain,e,beta,member",
    [
        (INTEGERS, 2, 6, True),
        (INTEGERS, 2, 3, False),
        (integers_mod(3), 2, 1, True),
        (integers_mod(4), 2, 1, False),
        (integers_mod(4), 2, 2, True),
    ],
    ids=["Z-member", "Z-nonmember", "Z/3-member", "Z/4-nonmember", "Z/4-member"],
)
def test_integral_certificates_read_member_off_the_preimage(domain, e, beta, member):
    ring = make_ring([("t", 2, 3)], domain)
    t = ring.gen("t")
    cert = image_membership(ring, e * t, beta * t**2)
    assert cert.member is member
    assert (cert.residue == ()) is member
    _assert_member_read_off_preimage(e * t, beta * t**2, cert)


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
        with pytest.raises(RingError, match="not an exact integer"):
            coker.class_of_element(Fraction(1, 2) * qring.gen("t") ** 2)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, 1.0, True, "1"])
    def test_class_of_vector_converts_nothing(self, data, bad):
        _, coker = data
        with pytest.raises(RingError, match="not an exact integer"):
            coker.class_of_vector([bad])
