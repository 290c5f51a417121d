"""Every class a ``verify all`` manifest prints is read back by the parser.

Witness classes are printed in the element grammar, so the parser is
their reader: each class string must parse, in the ring of its report
rebuilt from the package's own builders, to an element that prints as
the same string.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from crchern.chern.checks import (
    cpn_setup,
    fpp_times_cpn_setup,
    genus2_times_cpn_setup,
    nilsquare_ring,
)
from crchern.chern.tractor import _build_matrix
from crchern.cli import main
from crchern.cohomology.parser import parse_element
from crchern.cohomology.ring import INTEGERS, make_ring

_SPHERICAL_FAMILIES = {
    "genus2-surface x cp": lambda p: genus2_times_cpn_setup(p["n"]),
    "cp": lambda p: cpn_setup(p["n"], p["d"]),
    "fpp x cp": lambda p: fpp_times_cpn_setup(p["n"]),
}

# check -> (its report's ring, rebuilt from the report's params; where the
# report holds classes: ``params.<key>`` or ``<residuals|witnesses>.<key>...``
# over every record of that list).  A null value (the preimage of a
# non-member) is skipped.
CLASSES = {
    "spherical-constraint-on-circle-bundle": (
        lambda p: _SPHERICAL_FAMILIES[p["family"]](p).base,
        ("params.euler", "residuals.residual", "witnesses.membership.preimage"),
    ),
    "first-chern-nonvanishing": (
        lambda p: genus2_times_cpn_setup(p["n"]).base,
        ("witnesses.c1_base_tangent", "witnesses.euler", "witnesses.membership.preimage"),
    ),
    "second-chern-nonvanishing": (
        lambda p: fpp_times_cpn_setup(p["n"]).base,
        (
            "witnesses.c1_base_tangent",
            "witnesses.euler",
            "witnesses.membership.preimage",
            "witnesses.decomposition_preimage",
            "witnesses.off_image_component",
            "residuals.off_image_component",
        ),
    ),
    "integral-constraint-counterexample": (
        lambda p: make_ring([("t", 2, p["n"] + 1)], INTEGERS),  # as check_prop_1_3 builds it
        ("witnesses.combination",),
    ),
    "fillable-contact-constraint-violation": (
        lambda p: nilsquare_ring(p["m"]),
        ("witnesses.c1", "witnesses.c2", "residuals.residual"),
    ),
    "tractor-determinant-identity": (
        lambda p: _build_matrix(p["n"])[0],
        ("witnesses.determinant", "residuals.det_minus_rhs"),
    ),
    "bochner-flat-batch": (None, ()),  # numeric: no class
}


def _classes(report, path):
    section, *keys = path.split(".")
    for record in [report["params"]] if section == "params" else report[section]:
        value = record
        for key in keys:
            value = value[key]
        if value is not None:
            yield value


@pytest.fixture(scope="module")
def manifest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "all", "--format", "json", "--no-timestamp"]) == 0
    return json.loads(out.getvalue())


def test_every_class_parses_back_to_itself(manifest):
    read = dict.fromkeys(CLASSES, 0)
    for report in manifest["reports"]:
        check = report["check"]
        assert check in CLASSES, f"no class fields listed for {check}"
        build, paths = CLASSES[check]
        if not paths:
            continue
        ring = build(report["params"])
        for path in paths:
            for text in _classes(report, path):
                assert isinstance(text, str), (check, path, text)
                assert str(parse_element(text, ring)) == text, (check, path)
                read[check] += 1
    # every listed check is in the manifest and gave classes
    assert [c for c, count in read.items() if not count] == ["bochner-flat-batch"]
