"""The refusal ledger: one row for each ``raise`` statement of ``src/``.

A row is keyed by the module of its ``raise`` (under ``crchern``), the
function around it (its ``class`` and ``def`` names, dotted) and a prefix
of its message.  A message is read off the source: the first argument of
the raised call, with each formatted field of an f-string written ``{}``
(``f"need {n}"`` reads ``need {}``); any other argument reads ``{}``, and a
bare ``raise`` the empty string.  A ``raise`` belongs to the row of its
module and function whose prefix is the longest that starts its message.

Each row holds one of two things:

* an argv (a tuple) whose command reaches the ``raise`` through
  ``cli.main``.  Run in this process under a line tracer, it must run the
  ``raise`` and exit 2 with nothing on stdout and one line on stderr
  (after argparse's usage lines, for a usage error), no traceback;
* a :class:`Kept`: why the ``raise`` stays though no command reaches it
  in process (an invariant that no input can break, or an exit that only
  a process of its own shows), and a test that reaches it.  The named
  tests run once, in one pytest subprocess
  (``python tests/test_refusals.py OUT NODEID...``), under the same
  tracer; each must pass and run its row's ``raise``.

The guard fails on a ``raise`` that belongs to no row and on a row that
has not exactly one ``raise``, so a new ``raise`` comes with its row and a
deleted one takes its row along.  ``OTHER_REFUSALS`` lists the refusals no
``raise`` of ``src/`` makes; with the argv rows it is the one list of
refusals, which ``tests/test_reachability.py`` runs too.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path, PurePath
from typing import NamedTuple

import pytest

import crchern
from crchern import cli
from crchern.kahler.scenario import MAX_HSC_CHARS, MAX_HSC_EXPONENT, MAX_SAMPLES

SRC = Path(crchern.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


class Kept(NamedTuple):
    reason: str
    test: str  # a pytest node id, from the repository root


class Document(str):
    """An argv item that names a file holding this text, written by :func:`resolve`."""


def document(value: object) -> Document:
    return Document(value if isinstance(value, str) else json.dumps(value))


MISSING = PurePath("missing.json")  # an argv item naming a file that does not exist


def resolve(argv: tuple, tmp: Path) -> list[str]:
    """``argv`` with each :class:`Document` written under ``tmp`` and each
    ``PurePath`` joined to it, as paths."""
    out = []
    for arg in argv:
        if isinstance(arg, Document):
            path = tmp / (hashlib.sha256(arg.encode()).hexdigest()[:16] + ".json")
            path.write_text(arg)
            arg = str(path)
        elif isinstance(arg, PurePath):
            arg = str(tmp / arg)
        out.append(arg)
    return out


def _ring(**changes) -> str:
    """A one-generator ``eval --ring`` document: a key of ``changes`` that the
    generator has replaces the generator's, any other the document's, and
    ``None`` drops that key."""
    generator = {"name": "t", "degree": 2, "truncation": 3}
    doc = {"coefficients": "Q", "generators": [generator]}
    for key, value in changes.items():
        if key in generator:
            generator[key] = value
        else:
            doc[key] = value
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def _scenario(factors=({"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "-1"}), **keys) -> Document:
    return document({"factors": list(factors), **keys})


def _pair(hsc: str) -> Document:
    """A matched pair of one-dimensional factors, ``hsc`` and its negative."""
    return _scenario([{"dim": 1, "hsc": hsc}, {"dim": 1, "hsc": "-" + hsc}], samples=2)


def _eval(ring: str, expr: str = "t") -> tuple:
    return ("eval", "--ring", ring, expr)


_BUNDLE = "a bundle's own invariant; the space-form classes, Whitney sums and prop-1-4's product meet it"
_SOLVER = "the solver entry's check; every check asks about classes it built in one ring, degree 2 for e"
_DOMAIN = "the solver entry's check; membership is a question over Q and the cokernel one over Z"
_IMMUTABLE = "records and elements are values: shared by memos, so never changed in place"
_EXPONENTS = (
    "the public constructor, which copy and pickle rebuild through: unchecked, zip would shorten a "
    "vector of the wrong length and a negative exponent would be kept as a term; every caller "
    "builds its vectors on the ring's generators"
)
_COERCE = "the domain's one coefficient check; the parser reads only int and Fraction, Fraction only over Q"

# (module, function, message prefix) -> argv reaching the raise, or why it stays
LEDGER: dict[tuple[str, str, str], tuple | Kept] = {
    # -- the command line -------------------------------------------------
    ("cli", "_integer", "not an integer: "): ("verify", "prop-1-3", "--d", "x"),
    ("cli", "_tolerance", "must be a finite and positive decimal"): (
        "verify", "bochner-products", "--tol", "0"),
    ("cli", "_params", "{} does not take "): ("verify", "prop-4-1", "--samples", "2"),
    ("cli", "_params", "{} takes --n or --n-max"): ("verify", "tractor", "--n", "2", "--n-max", "3"),
    ("cli", "_params", "{} requires "): ("verify", "thm-1-1", "--n", "1"),
    ("cli", "_read_document", "{} is larger than "): (
        "scenario", document(" " * cli.MAX_DOCUMENT_BYTES + "{}")),
    ("cli", "_emit", ""): Kept(
        "a reader closed stdout: main answers with exit 1, so it is let through",
        "tests/test_cli.py::test_a_closed_stdout_ends_the_run_with_exit_1_in_process",
    ),
    ("cli", "entrypoint", "{}"): Kept(
        "the console script's exit, run by every `crchern` and `python -m crchern`",
        "tests/test_cli.py::test_the_console_entry_exits_with_the_code_of_main",
    ),
    # -- presets ----------------------------------------------------------
    ("presets", "_pick_name", "ran out of generator names"): _eval("*".join(["cp:1"] * 7)),
    ("presets", "_parse_factor", "fpp takes no parameter"): _eval("fpp:1"),
    ("presets", "_parse_factor", "nilsquare:M needs M <= "): _eval("nilsquare:25"),
    ("presets", "_parse_factor", "generator name collision"): _eval("nilsquare:2*nilsquare:2"),
    ("presets", "_parse_factor", "unknown preset "): _eval("no-such-preset:2"),
    ("presets", "_int_at_least", "{}"): _eval("cp:0"),
    ("presets", "preset_ring", "empty factor in preset "): _eval("cp:1**cp:1"),
    # -- ring presentations and elements ----------------------------------
    ("cohomology.ring", "read_integer", "not an integer: "): ("verify", "all", "--seed", "x"),
    ("cohomology.ring", "Record.__setattr__", "{} is immutable"): Kept(
        _IMMUTABLE,
        "tests/test_records.py::test_fields_are_slots_and_refuse_assignment_and_deletion[Generator]",
    ),
    ("cohomology.ring", "Record.__delattr__", "{} is immutable"): Kept(
        _IMMUTABLE,
        "tests/test_records.py::test_fields_are_slots_and_refuse_assignment_and_deletion[Generator]",
    ),
    ("cohomology.ring", "RingElement.__setattr__", "RingElement is immutable"): Kept(
        _IMMUTABLE, "tests/test_ring.py::TestArithmetic::test_terms_are_read_only"
    ),
    ("cohomology.ring", "RingElement.__delattr__", "RingElement is immutable"): Kept(
        _IMMUTABLE,
        "tests/test_ring.py::TestSerialization::test_attributes_cannot_be_deleted[terms]",
    ),
    ("cohomology.ring", "CoefficientDomain.__init__", "unknown coefficient domain kind"): Kept(
        "a domain is Z or Q; the package makes only INTEGERS and RATIONALS",
        "tests/test_ring.py::TestConstruction::test_coefficients_are_z_or_q[R]",
    ),
    ("cohomology.ring", "CoefficientDomain.coerce", "boolean is not a ring coefficient"): Kept(
        _COERCE, "tests/test_ring.py::TestCanonicalResults::test_coerce_over_q"
    ),
    ("cohomology.ring", "CoefficientDomain.coerce", "not a rational coefficient"): Kept(
        _COERCE,
        "tests/test_ring.py::TestArithmetic::test_scalar_refuses_non_coefficients[1.0-domain1]",
    ),
    ("cohomology.ring", "CoefficientDomain.coerce", "rational coefficient {} not representable"): Kept(
        "a space form's class over Z needs integral weights: the fake projective plane's 1/3 is not",
        "tests/test_bundles.py::test_space_form_refusals[fpp-over-Z]",
    ),
    ("cohomology.ring", "CoefficientDomain.coerce", "not an integer coefficient"): Kept(
        _COERCE,
        "tests/test_ring.py::TestArithmetic::test_scalar_refuses_non_coefficients[1.0-domain0]",
    ),
    ("cohomology.ring", "Generator.__init__", "invalid generator name"): _eval(_ring(name="1t")),
    ("cohomology.ring", "Generator.__init__", "generator {} must have even positive degree"): _eval(
        _ring(degree=3)),
    ("cohomology.ring", "Generator.__init__", "generator {} needs truncation >= 1"): _eval(
        _ring(truncation=0)),
    ("cohomology.ring", "RingPresentation.__init__", "duplicate generator name"): _eval(
        _ring(generators=[{"name": "t", "degree": 2, "truncation": 2}] * 2)),
    ("cohomology.ring", "RingPresentation.gen_index", "unknown generator"): _eval("cp:2", "x"),
    ("cohomology.ring", "RingPresentation.from_json_dict", "unknown coefficient spec"): _eval(
        _ring(coefficients={"mod": 5})),
    ("cohomology.ring", "RingPresentation.from_json_dict", "malformed ring presentation"): _eval(
        _ring(generators="t")),
    ("cohomology.ring", "RingPresentation.from_json_dict", "a presentation has at most "): _eval(
        _ring(generators=[{"name": f"g{i}", "degree": 2, "truncation": 2} for i in range(65)])),
    ("cohomology.ring", "_require_keys", "malformed {}: {}"): _eval(_ring(generators=[1])),
    ("cohomology.ring", "_require_keys", "malformed {}: unexpected key"): _eval(_ring(extra=1)),
    ("cohomology.ring", "_require_keys", "malformed {}: missing"): _eval(_ring(generators=None)),
    ("cohomology.ring", "_schema_int", "{} is not an integer"): _eval(_ring(degree="2")),
    ("cohomology.ring", "RingPresentation.element", "exponent vector {} has wrong length"): Kept(
        _EXPONENTS, "tests/test_ring.py::TestConstruction::test_exponent_vectors_off_the_generators_rejected"
    ),
    ("cohomology.ring", "RingPresentation.element", "negative exponent in "): Kept(
        _EXPONENTS, "tests/test_ring.py::TestConstruction::test_exponent_vectors_off_the_generators_rejected"
    ),
    ("cohomology.ring", "RingElement._check_ring", "ring mismatch"): Kept(
        "operands of one operation share a ring; every check builds its classes in one",
        "tests/test_ring.py::TestArithmetic::test_ring_mismatch_raises",
    ),
    ("cohomology.ring", "RingElement.__pow__", "exponent must be a nonnegative integer"): Kept(
        "a negative exponent would never end the loop `while e`; the parser reads only digits",
        "tests/test_ring.py::TestArithmetic::test_power_takes_a_nonnegative_int_exponent[-1]",
    ),
    ("cohomology.ring", "RingElement._as_element", "cannot combine ring element"): Kept(
        "an operand that is no element or exact scalar; the package combines no other",
        "tests/test_ring.py::TestArithmetic::test_operands_other_than_elements_and_exact_scalars_raise[t]",
    ),
    ("cohomology.ring", "RingElement.evaluate", "no value for generator"): Kept(
        "a point assigns every generator; the tractor check's sample points do",
        "tests/test_ring.py::TestEvaluate::test_missing_generator_raises_even_if_absent_from_every_term",
    ),
    # -- the element parser -----------------------------------------------
    ("cohomology.parser", "_tokenize", "unexpected character"): _eval("cp:2", "t$"),
    ("cohomology.parser", "_integer", "integer literal longer than"): _eval(
        "cp:2", "9" * (sys.get_int_max_str_digits() + 1)),
    ("cohomology.parser", "_Parser.integer", "{}"): _eval("cp:2", "t^x"),
    ("cohomology.parser", "_Parser.parse", "unexpected token"): _eval("cp:2", "t t"),
    ("cohomology.parser", "_Parser.check_product", "product could have"): _eval(
        "nilsquare:20", "*".join(f"(1+t{i})" for i in range(1, 19))),
    ("cohomology.parser", "_Parser.check_power", "power could have"): _eval(
        "cp:1000000", "(1+t)^8000"),
    ("cohomology.parser", "_Parser.check_power", "power's constant term"): _eval(
        "cp:2", "2^100000000*t"),
    ("cohomology.parser", "_Parser.check_power", "power's coefficients"): _eval(
        "cp:10", "(1+t)^1" + "0" * 1500),
    ("cohomology.parser", "_Parser.check_steps", "{} would bring the input past"): _eval(
        "cp:1000000", "(1+t)^2000"),
    ("cohomology.parser", "_Parser.atom", "parentheses nested deeper than"): _eval(
        "cp:2", "(" * 101 + "t" + ")" * 101),
    ("cohomology.parser", "_Parser.atom", "expected ')'"): _eval("cp:2", "(t"),
    ("cohomology.parser", "_Parser.atom", "zero denominator"): _eval("cp:2", "1/0"),
    ("cohomology.parser", "_Parser.atom", "rational coefficient in a "): _eval(
        _ring(coefficients="Z"), "1/2*t"),
    ("cohomology.parser", "_Parser.atom", "unknown identifier"): _eval("cp:2", "q"),
    ("cohomology.parser", "_Parser.atom", "{}"): _eval("cp:2", "t+"),
    # -- the exact solver -------------------------------------------------
    ("cohomology.gysin", "_factor", "cup class must be homogeneous of degree 2"): Kept(
        _SOLVER,
        "tests/test_membership.py::TestSharedFactorization::test_inhomogeneous_class_error_names_the_class",
    ),
    ("cohomology.gysin", "factored_cup", "class does not belong to the given ring"): Kept(
        _SOLVER,
        "tests/test_membership.py::TestSharedFactorization::test_foreign_or_inhomogeneous_class_raises_on_every_call",
    ),
    ("cohomology.gysin", "factored_cup", "{}, got {}"): Kept(
        "names the class of _factor's refusal, whose key holds no generator names",
        "tests/test_membership.py::TestSharedFactorization::test_inhomogeneous_class_error_names_the_class",
    ),
    ("cohomology.gysin", "_element_vector", "element has support outside"): Kept(
        "a class read with coordinates dropped would get a wrong verdict; every class asked about "
        "has the asked degree",
        "tests/test_verdicts.py::TestOneClassReader::test_support_outside_the_degree_basis_is_refused",
    ),
    ("cohomology.gysin", "image_membership", "membership is decided over Q"): Kept(
        _DOMAIN,
        "tests/test_membership.py::TestMembership::test_integral_rings_are_refused_before_any_factorization",
    ),
    ("cohomology.gysin", "image_membership", "element does not belong to the given ring"): Kept(
        _SOLVER, "tests/test_membership.py::TestMembership::test_target_of_another_ring_rejected"
    ),
    ("cohomology.gysin", "image_membership", "membership target must be homogeneous"): Kept(
        "the solver entry's check; a target is one degree's class, as every residual is",
        "tests/test_membership.py::TestMembership::test_inhomogeneous_target_rejected",
    ),
    ("cohomology.gysin", "CokernelData.class_of_element", "a cokernel class is read over Z"): Kept(
        "the solver entry's check of a class read over a cokernel, which is over Z; prop-1-3 reads "
        "classes of the cokernel's own ring",
        "tests/test_verdicts.py::TestOneClassReader::test_a_fraction_is_refused",
    ),
    ("cohomology.gysin", "cokernel", "cokernel computation requires integer"): Kept(
        _DOMAIN, "tests/test_membership.py::TestCokernel::test_requires_integer_coefficients"
    ),
    # -- bundles and the spherical constraint -----------------------------
    ("chern.bundles", "BundleClass.__init__", "bundle rank must be positive"): Kept(
        _BUNDLE, "tests/test_bundles.py::test_bundle_invariants_enforced"
    ),
    ("chern.bundles", "BundleClass.__init__", "total class must have constant term 1"): Kept(
        _BUNDLE, "tests/test_bundles.py::test_bundle_invariants_enforced"
    ),
    ("chern.bundles", "BundleClass.__init__", "total class has a nonzero component"): Kept(
        _BUNDLE, "tests/test_bundles.py::test_bundle_invariants_enforced"
    ),
    ("chern.bundles", "_space_form_class", "generator {} must be a nonzero class"): Kept(
        "the tangent-class formula's premise; every circle-bundle row names a degree-2 generator",
        "tests/test_bundles.py::test_space_form_refusals[surface-zero-generator]",
    ),
    ("chern.bundles", "_space_form_class", "generator {} truncated at"): Kept(
        "a factor has no class above its real dimension; every row truncates at p + 1",
        "tests/test_bundles.py::test_projective_space_incompatible_truncation_rejected",
    ),
    ("chern.spherical", "_residual", "the spherical constraint is rational"): Kept(
        "the residual's Fraction coefficients would enter a Z ring unchecked; every residual is over Q",
        "tests/test_spherical.py::test_residual_requires_rational_ring",
    ),
    ("chern.spherical", "_residual", "k must satisfy 1 <= k <= n+1"): Kept(
        "the constraint is stated for 1 <= k <= n+1; every check asks a k in that range",
        "tests/test_spherical.py::test_residual_k_range_enforced",
    ),
    # -- scenarios --------------------------------------------------------
    ("kahler.scenario", "parse_scenario", "scenario must be a JSON object"): (
        "scenario", document([])),
    ("kahler.scenario", "parse_scenario", "unknown scenario keys"): ("scenario", _scenario(extra=1)),
    ("kahler.scenario", "parse_scenario", "'factors' must be a nonempty list"): (
        "scenario", _scenario([])),
    ("kahler.scenario", "parse_scenario", "factor #{} must be an object"): (
        "scenario", _scenario([1])),
    ("kahler.scenario", "parse_scenario", "factor #{}: 'dim' must be a positive integer"): (
        "scenario", _scenario([{"dim": 0, "hsc": "1"}])),
    ("kahler.scenario", "parse_scenario", "factor #{}: 'dim' must be at most"): (
        "scenario", _scenario([{"dim": 9, "hsc": "1"}])),
    ("kahler.scenario", "parse_scenario", "factor #{}: 'hsc' must be nonzero"): (
        "scenario", _scenario([{"dim": 1, "hsc": "0"}])),
    ("kahler.scenario", "parse_scenario", "'samples' must be a positive integer"): (
        "scenario", _scenario(samples=0)),
    ("kahler.scenario", "parse_scenario", "'samples' must be at most"): (
        "scenario", _scenario(samples=MAX_SAMPLES + 1)),
    ("kahler.scenario", "parse_scenario", "'seed' must be an integer"): (
        "scenario", _scenario(seed="x")),
    ("kahler.scenario", "parse_scenario", "'tolerances' must be an object"): (
        "scenario", _scenario(tolerances=[])),
    ("kahler.scenario", "parse_scenario", "unknown tolerance keys"): (
        "scenario", _scenario(tolerances={"x": 1})),
    ("kahler.scenario", "parse_scenario", "tolerance {} must be a finite positive number"): (
        "scenario", _scenario(tolerances={"s_max": "x"})),
    ("kahler.scenario", "parse_scenario", "tolerance {} must be a finite positive number, got"): (
        "scenario", _scenario(tolerances={"s_max": -1})),
    ("kahler.scenario", "parse_scenario", "empty convergence range"): (
        "scenario", _scenario(tolerances={"convergence_low": 5})),
    ("kahler.scenario", "_parse_hsc", "factor #{}: 'hsc' must be a string or an integer"): (
        "scenario", _scenario([{"dim": 1, "hsc": 1.5}])),
    ("kahler.scenario", "_parse_hsc", "factor #{}: 'hsc' must be at most"): (
        "scenario", _scenario([{"dim": 1, "hsc": "1" * (MAX_HSC_CHARS + 1)}])),
    ("kahler.scenario", "_parse_hsc", "factor #{}: 'hsc' exponent must be at most"): (
        "scenario", _scenario([{"dim": 1, "hsc": f"1e{MAX_HSC_EXPONENT + 1}"}])),
    ("kahler.scenario", "_parse_hsc", "factor #{}: bad 'hsc' value"): (
        "scenario", _scenario([{"dim": 1, "hsc": "1/0"}])),
    ("kahler.scenario", "run_batch", ""): Kept(
        "a stack that fails where each of its samples alone passes gets no verdict; a sample "
        "is measured as its stack measures it, so no input reaches it",
        "tests/test_scenario.py::test_a_stack_failure_that_no_single_sample_repeats_is_raised",
    ),
    # -- the numeric model ------------------------------------------------
    ("kahler.spaceform", "calibrate_space_form", "curvature of factor dim={} is beyond"): (
        "scenario", _scenario([{"dim": 1, "hsc": "1e-400"}])),
    ("kahler.spaceform", "calibrate_space_form", "metric is not Kaehler at the origin"): Kept(
        "calibration's check of the potential; no hsc makes the closed form non-Kaehler",
        "tests/test_kahler_calibration.py::test_sign_flip_of_f2_is_refused_as_not_kaehler",
    ),
    ("kahler.spaceform", "calibrate_space_form", "{}: the metric reads"): Kept(
        "calibration's convention check: it exists to catch a sign error in the code, not in input",
        "tests/test_kahler_calibration.py::test_convention_mismatch_aborts",
    ),
    ("kahler.spaceform", "SpaceFormFactor.metric", "point {} outside chart"): ("scenario", _pair("10000")),
    ("kahler.tensors", "levi_inverse", "metric condition number"): ("scenario", _pair("1000000")),
    ("kahler.tensors", "point_tensors", "point has {} coordinates"): Kept(
        "point_tensors takes one point; bench/spans.py counts its calls per point",
        "tests/test_kahler_tensors.py::TestMetric::test_point_tensors_takes_one_point_of_the_patch_dimension[shape3]",
    ),
    ("kahler.patch", "KahlerProductPatch.coordinates", "point has {} coordinates"): Kept(
        "metric_at's one shape check; the batch's points are the patch's own",
        "tests/test_kahler_tensors.py::TestMetric::test_wrong_shape_rejected",
    ),
}

# Refusals that no ``raise`` of ``src/`` makes: argparse's own usage errors,
# a target the table lacks, and a file that cannot be opened or decoded.
OTHER_REFUSALS: dict[str, tuple] = {
    "no arguments": (),
    "unknown target": ("verify", "no-such-target"),
    "missing ring file": ("eval", "--ring", MISSING, "t"),
    "missing scenario": ("scenario", MISSING),
    "scenario not JSON": ("scenario", document("{")),
    "unwritable out": ("verify", "thm-1-1", "--out", MISSING / "manifest.md"),
}

ARGV_ROWS = {key: row for key, row in LEDGER.items() if not isinstance(row, Kept)}
KEPT_ROWS = {key: row for key, row in LEDGER.items() if isinstance(row, Kept)}


def refusal_argvs() -> dict[str, tuple]:
    """Every refusal's name and argv: the ledger's argv rows, then ``OTHER_REFUSALS``."""
    named = {"{}.{}: {}".format(*key): argv for key, argv in ARGV_ROWS.items()}
    return {**named, **OTHER_REFUSALS}


# -- reading the raises -------------------------------------------------------


def _message(node: ast.Raise) -> str:
    call = node.exc
    if call is None:
        return ""
    arg = call.args[0] if isinstance(call, ast.Call) and call.args else None
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
    return "{}"


def _raises() -> list[tuple[str, str, str, str, int]]:
    """(module, function, message, file, line) of every ``raise`` under ``SRC``."""
    found = []

    def visit(node: ast.AST, module: str, scope: tuple, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,), path)
                continue
            if isinstance(child, ast.Raise):
                found.append((module, ".".join(scope), _message(child), path, child.lineno))
            visit(child, module, scope, path)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), module, (), str(path))
    return found


RAISES = _raises()
RAISE_LINES = {(path, line) for *_, path, line in RAISES}


def _row_of(module: str, function: str, message: str) -> tuple | None:
    """The key of the ledger row a ``raise`` belongs to, or ``None``."""
    keys = [k for k in LEDGER if k[:2] == (module, function) and message.startswith(k[2])]
    return max(keys, key=lambda k: len(k[2]), default=None)


def _lines_of_rows() -> dict[tuple | None, list[tuple[str, int]]]:
    """Ledger key (``None``: no row) -> (file, line) of each raise that belongs to it."""
    lines: dict[tuple | None, list[tuple[str, int]]] = {}
    for module, function, message, path, line in RAISES:
        lines.setdefault(_row_of(module, function, message), []).append((path, line))
    return lines


LINES_OF = _lines_of_rows()


@contextmanager
def tracing(lines: set):
    """Add to ``lines`` the (file, line) of each ``raise`` that runs inside."""
    files = {path for path, _ in RAISE_LINES}
    resolved: dict[str, str] = {}

    def local(frame, event, arg):
        if event == "line":
            spot = (resolved[frame.f_code.co_filename], frame.f_lineno)
            if spot in RAISE_LINES:
                lines.add(spot)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = str(Path(name).resolve())
        return local if resolved[name] in files else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        yield lines
    finally:
        sys.settrace(previous)


# -- the guard ----------------------------------------------------------------


def test_the_walk_finds_the_raises():
    assert len(RAISES) > 50
    assert {module for module, *_ in RAISES} >= {"cli", "cohomology.ring", "kahler.scenario"}


def test_every_raise_has_a_row():
    unlisted = [f"{path}:{line}" for path, line in LINES_OF.get(None, [])]
    assert not unlisted, f"give each of these raises a ledger row, or delete it: {unlisted}"


def test_every_row_has_exactly_one_raise():
    wrong = {
        "{}.{}: {}".format(*key): len(LINES_OF.get(key, []))
        for key in LEDGER
        if len(LINES_OF.get(key, [])) != 1
    }
    assert not wrong, f"rows with no raise, or with more than one: {wrong}"


def run_in_process(argv: list[str]) -> tuple[int, str, str, set]:
    """``cli.main(argv)``'s code, stdout and stderr, and the raise lines it ran."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), tracing(set()) as lines:
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), lines


def assert_refused_on_one_line(code: int, out: str, err: str) -> None:
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.endswith("\n")
    lines = err.splitlines()
    usage = lines[:-1]  # argparse prints its usage before a usage error
    assert not usage or usage[0].startswith("usage: ") and "error: " in lines[-1], err


@pytest.mark.parametrize(
    "key", list(ARGV_ROWS), ids=["{}.{}: {}".format(*key) for key in ARGV_ROWS]
)
def test_argv_row_reaches_its_raise_through_main(key, tmp_path):
    code, out, err, lines = run_in_process(resolve(ARGV_ROWS[key], tmp_path))
    assert_refused_on_one_line(code, out, err)
    (spot,) = LINES_OF[key]
    assert spot in lines, f"the command did not run the raise: {err}"


@pytest.mark.parametrize("name", list(OTHER_REFUSALS))
def test_other_refusal_exits_2_on_one_line(name, tmp_path):
    code, out, err, _ = run_in_process(resolve(OTHER_REFUSALS[name], tmp_path))
    assert_refused_on_one_line(code, out, err)


@pytest.fixture(scope="module")
def kept_runs(tmp_path_factory):
    """Each test that a ``Kept`` row names, run once in one pytest subprocess:
    (its exit code, its output, {node id: raise lines run})."""
    out = tmp_path_factory.mktemp("kept") / "lines.json"
    tests = sorted({row.test for row in KEPT_ROWS.values()})
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(out), *tests],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    lines = json.loads(out.read_text()) if out.exists() else {}
    return proc.returncode, proc.stdout + proc.stderr, lines


def test_the_kept_rows_tests_pass(kept_runs):
    code, output, lines = kept_runs
    assert code == 0, output
    assert set(lines) == {row.test for row in KEPT_ROWS.values()}, output


@pytest.mark.parametrize(
    "key", list(KEPT_ROWS), ids=["{}.{}: {}".format(*key) for key in KEPT_ROWS]
)
def test_kept_row_names_a_test_that_reaches_its_raise(key, kept_runs):
    _, output, lines = kept_runs
    (spot,) = LINES_OF[key]
    assert list(spot) in lines.get(KEPT_ROWS[key].test, []), output


if __name__ == "__main__":
    # python tests/test_refusals.py OUT NODEID...: run the named tests, each
    # under the tracer, and write the raise lines each one ran to OUT as JSON.
    runs: dict[str, set] = {}

    class _Trace:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            with tracing(runs.setdefault(item.nodeid, set())):
                yield

    status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]], plugins=[_Trace()])
    Path(sys.argv[1]).write_text(json.dumps({k: sorted(v) for k, v in runs.items()}))
    sys.exit(status)
