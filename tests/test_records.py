"""The package's records: immutable, compared by value, copied through
their constructor, and shown as ``Name(field=value, ...)``.

One real instance of each record, built by the package's own builders.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from crchern import cli
from crchern.chern.bundles import chern_projective_space
from crchern.chern.checks import check_thm_1_1, cpn_setup
from crchern.cohomology.gysin import cokernel, cup_matrix, image_membership
from crchern.cohomology.parser import _tokenize
from crchern.cohomology.ring import INTEGERS, Record, RingError, integers_mod, make_ring
from crchern.kahler.patch import KahlerProductPatch
from crchern.kahler.spaceform import _Series, calibrate_space_form
from crchern.kahler.tensors import point_tensors


def _build() -> dict:
    ring = make_ring([("t", 2, 3), ("h", 2, 2)], INTEGERS)
    setup = cpn_setup(2, 3)
    t = setup.base.gen("t")
    patch = KahlerProductPatch((calibrate_space_form(1, 1), calibrate_space_form(1, -1)))
    return {
        "Flag": cli.TARGETS["prop-1-3"].flags["d"],
        "Target": cli.TARGETS["prop-1-3"],
        "CheckReport": check_thm_1_1(2),
        "BundleClass": chern_projective_space(2, setup.base, "t"),
        "CircleBundleSetup": setup,
        "CoefficientDomain": integers_mod(5),
        "Generator": ring.generators[0],
        "RingPresentation": ring,
        "IntegerMatrix": cup_matrix(setup.base, setup.euler, 4).matrix,
        "_Token": _tokenize("1+t")[2],
        "CupMatrix": cup_matrix(setup.base, setup.euler, 4),
        "MembershipCertificate": image_membership(setup.base, setup.euler, t * t),
        "CokernelData": cokernel(ring, 3 * ring.gen("t") + ring.gen("h"), 4),
        "_Series": 2 * _Series(Fraction(1), Fraction(1, 3)),
        "SpaceFormFactor": calibrate_space_form(2, Fraction(-1, 2)),
        "KahlerProductPatch": patch,
        "PointTensors": point_tensors(patch, patch.sample_points(1, seed=1)[0]),
    }


RECORDS = _build()
NAMES = sorted(RECORDS)
# Target holds functions (its lambdas do not pickle) and PointTensors holds
# arrays (``==`` on them is elementwise): neither is compared as a value.
VALUES = [name for name in NAMES if name not in ("Target", "PointTensors")]
# The records that memos key on: ``gysin._factor`` on the coefficient
# domain, ``spherical._residual_table`` on the bundle class, and every
# element's hash on its ring and so on the ring's generators.
KEYS = ("CoefficientDomain", "Generator", "RingPresentation", "BundleClass")

PQ = "RingPresentation(generators=(Generator(name='t', degree=2, truncation=3),), " + (
    "coefficients=CoefficientDomain(kind='Q', modulus=None))"
)
BUNDLE = "BundleClass(rank=2, total=<RingElement 1 + 3*t + 3*t^2 in Q[t(deg 2, t^3=0)]>)"
# repr of each record as the frozen dataclasses printed it
REPRS = {
    "CheckReport": "CheckReport(check='first-chern-nonvanishing', params={'n': 2}, "
    "assertions=[('c1(base tangent) not in Im(cup e)', True)], "
    "witnesses=[{'c1_base_tangent': '-2*s + 2*h', 'euler': '-2*s - 2*h', "
    "'membership': {'member': False, 'degree': 2, 'preimage': None, "
    "'residue': ['(1, 4, 0)'], 'invariant_factors': [2], 'denominator_scale': 1, "
    "'euler_sign': 'cup-with-e-as-given'}, "
    "'non_proportionality': 'degree-2 image is the line spanned by e'}], residuals=[])",
    "BundleClass": BUNDLE,
    "CircleBundleSetup": f"CircleBundleSetup(base={PQ}, "
    f"euler=<RingElement -3*t in Q[t(deg 2, t^3=0)]>, base_tangent={BUNDLE})",
    "CoefficientDomain": "CoefficientDomain(kind='mod', modulus=5)",
    "Generator": "Generator(name='t', degree=2, truncation=3)",
    "RingPresentation": "RingPresentation(generators=(Generator(name='t', degree=2, "
    "truncation=3), Generator(name='h', degree=2, truncation=2)), "
    "coefficients=CoefficientDomain(kind='Z', modulus=None))",
    "IntegerMatrix": "IntegerMatrix(rows=1, cols=1, entries=((-3,),))",
    "_Token": "_Token(kind='name', text='t', pos=2)",
    "CupMatrix": "CupMatrix(matrix=IntegerMatrix(rows=1, cols=1, entries=((-3,),)), "
    "basis_rows=((2,),), basis_cols=((1,),), denominator_scale=1)",
    "MembershipCertificate": "MembershipCertificate(degree=4, "
    "preimage=<RingElement -1/3*t in Q[t(deg 2, t^3=0)]>, residue=(), "
    "invariant_factors=(3,), denominator_scale=1)",
    "CokernelData": "CokernelData(invariant_factors=(1, 9), basis=((2, 0), (1, 1)))",
    "_Series": "_Series(u0=Fraction(2, 1), u1=Fraction(2, 3))",
    "SpaceFormFactor": "SpaceFormFactor(dim=2, hsc=Fraction(-1, 2))",
    "KahlerProductPatch": "KahlerProductPatch(factors=(SpaceFormFactor(dim=1, "
    "hsc=Fraction(1, 1)), SpaceFormFactor(dim=1, hsc=Fraction(-1, 1))))",
}
# each record's fields, in constructor order, as the dataclasses declared them
FIELDS = {
    "Flag": ("default", "low", "high", "parse"),
    "Target": ("flags", "run", "share"),
    "CheckReport": ("check", "params", "assertions", "witnesses", "residuals"),
    "BundleClass": ("rank", "total"),
    "CircleBundleSetup": ("base", "euler", "base_tangent"),
    "CoefficientDomain": ("kind", "modulus"),
    "Generator": ("name", "degree", "truncation"),
    "RingPresentation": ("generators", "coefficients"),
    "IntegerMatrix": ("rows", "cols", "entries"),
    "_Token": ("kind", "text", "pos"),
    "CupMatrix": ("matrix", "basis_rows", "basis_cols", "denominator_scale"),
    "MembershipCertificate": (
        "degree",
        "preimage",
        "residue",
        "invariant_factors",
        "denominator_scale",
    ),
    "CokernelData": ("invariant_factors", "basis", "row_transform"),
    "_Series": ("u0", "u1"),
    "SpaceFormFactor": ("dim", "hsc"),
    "KahlerProductPatch": ("factors",),
    "PointTensors": ("point", "g", "linv", "R", "Ric", "Scal", "P", "S", "gammas"),
}


def test_every_record_is_covered():
    assert len(RECORDS) == 17
    assert {type(r).__name__ for r in RECORDS.values()} == set(RECORDS) == set(FIELDS)
    assert all(isinstance(r, Record) for r in RECORDS.values())


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_slots_and_refuse_assignment_and_deletion(name):
    record = RECORDS[name]
    assert type(record).fields == FIELDS[name]
    assert not hasattr(record, "__dict__")
    for field in (*record.fields, "not_a_field"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(record, field)
    for field in record.fields:
        getattr(record, field)  # still set


@pytest.mark.parametrize("name", VALUES)
def test_copy_deepcopy_and_pickle_round_trip(name):
    record = RECORDS[name]
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record, protocol=0)),
        pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)),
    ):
        assert twin is not record
        assert type(twin) is type(record)
        assert twin == record and not twin != record
        assert repr(twin) == repr(record)


@pytest.mark.parametrize("name", VALUES)
def test_a_changed_field_is_a_different_record(name):
    record = RECORDS[name]
    for field in record.fields:
        other = copy.copy(record)
        object.__setattr__(other, field, object())
        assert other != record and record != other
    assert record != object() and record != tuple(getattr(record, f) for f in record.fields)


def test_copies_rebuild_their_derived_state():
    bundle, ring = RECORDS["BundleClass"], RECORDS["RingPresentation"]
    twin = pickle.loads(pickle.dumps(bundle))
    assert [twin.chern(k) for k in range(4)] == [bundle.chern(k) for k in range(4)]
    twin = copy.deepcopy(ring)
    assert twin.reach(4) == ring.reach(4) and twin._reach is not ring._reach


def test_cache_keys_hash_by_their_fields():
    setup = cpn_setup(2, 3)
    again = {
        "CoefficientDomain": integers_mod(5),
        "Generator": make_ring([("t", 2, 3)], INTEGERS).generators[0],
        "RingPresentation": make_ring([("t", 2, 3), ("h", 2, 2)], INTEGERS),
        "BundleClass": chern_projective_space(2, setup.base, "t"),
    }
    for name in KEYS:
        record = RECORDS[name]
        assert again[name] is not record
        assert again[name] == record and hash(again[name]) == hash(record), name
        assert {record: name}[again[name]] == name


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_the_dataclass_repr(name):
    text = repr(RECORDS[name])
    assert text == REPRS[name]
    assert "_reach" not in text and "_parts" not in text


def test_repr_of_records_holding_functions_and_arrays():
    flag, target = RECORDS["Flag"], RECORDS["Target"]
    assert repr(flag) == f"Flag(default=5, low=1, high=None, parse={cli._integer!r})"
    assert repr(target) == (
        f"Target(flags={{'n': {target.flags['n']!r}, 'd': {flag!r}}}, "
        f"run={target.run!r}, share={target.share!r})"
    )
    tensors = RECORDS["PointTensors"]
    assert repr(tensors) == "PointTensors(" + ", ".join(
        f"{f}={getattr(tensors, f)!r}" for f in FIELDS["PointTensors"]
    ) + ")"


def test_replace_builds_through_the_checked_constructor():
    setup = RECORDS["CircleBundleSetup"]
    doubled = setup.replace(euler=2 * setup.euler)
    assert doubled.euler == 2 * setup.euler and doubled.base is setup.base
    assert setup.euler == -3 * setup.base.gen("t")  # the original is unchanged
    with pytest.raises(RingError, match="^Euler class must be homogeneous of degree 2$"):
        setup.replace(euler=setup.base.one())
    with pytest.raises(TypeError):
        RECORDS["BundleClass"].replace(_parts={})
    report = RECORDS["CheckReport"]
    relabelled = cli._relabel(report, family="x")
    assert relabelled.params == {**report.params, "family": "x"}
    assert relabelled.assertions is report.assertions


def test_omitted_report_lists_are_fresh():
    a, b = cli.CheckReport("a", {}), cli.CheckReport("b", {})
    assert a.assertions == a.witnesses == a.residuals == []
    assert a.assertions is not b.assertions and a.witnesses is not a.residuals

