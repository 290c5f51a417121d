import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crchern.kahler import scenario, tensors
from crchern.kahler.patch import KahlerProductPatch, PatchDomainError, metric_at
from crchern.kahler.scenario import (
    BOUNDS,
    CONTROL_FLOOR,
    DEFAULT_TOLERANCES,
    ScenarioError,
    _cross_block_max,
    parse_scenario,
    run_batch,
)
from crchern.kahler.spaceform import calibrate_space_form
from crchern.kahler.tensors import (
    IllConditionedMetric,
    chern_divergence_residual,
    first_pair_trace,
    point_tensors,
    space_form_curvature_oracle,
    symmetry_residuals,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def test_parse_minimal_scenario():
    factors, samples, seed, tol = parse_scenario(
        {"factors": [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "-1"}]}
    )
    assert factors == [(1, Fraction(1)), (1, Fraction(-1))]
    assert samples == 10 and seed == 0
    assert tol == DEFAULT_TOLERANCES


def test_parse_full_scenario():
    doc = {
        "factors": [{"dim": 2, "hsc": "-3/2"}],
        "samples": 4,
        "seed": 17,
        "tolerances": {"s_max": 1e-5},
    }
    factors, samples, seed, tol = parse_scenario(doc)
    assert factors == [(2, Fraction(-3, 2))]
    assert (samples, seed) == (4, 17)
    assert tol["s_max"] == 1e-5
    assert tol["p_trace"] == DEFAULT_TOLERANCES["p_trace"]


def test_largest_factor_dimension_parses():
    factors, *_ = parse_scenario({"factors": [{"dim": 8, "hsc": "1"}, {"dim": 8, "hsc": "-1"}]})
    assert factors == [(8, Fraction(1)), (8, Fraction(-1))]


@pytest.mark.parametrize(
    "doc",
    [
        {"factors": []},
        {"factors": [{"dim": 0, "hsc": "1"}]},
        {"factors": [{"dim": 9, "hsc": "1"}]},
        {"factors": [{"dim": 1, "hsc": "1"}, {"dim": 40, "hsc": "-1"}]},
        {"factors": [{"dim": 1, "hsc": "0"}]},
        {"factors": [{"dim": 1, "hsc": "a/b"}]},
        {"factors": [{"dim": 1}]},
        {"factors": [{"dim": 1, "hsc": "1", "extra": 2}]},
        {"factors": [{"dim": 1, "hsc": "1"}], "samples": 0},
        {"factors": [{"dim": 1, "hsc": "1"}], "tolerances": {"bogus": 1}},
        {"factors": [{"dim": 1, "hsc": "1"}], "tolerances": {"s_max": -1}},
        {"factors": [{"dim": 1, "hsc": "1"}], "tolerances": {"s_max": 0}},
        {"factors": [{"dim": 1, "hsc": "1"}], "tolerances": {"s_max": float("nan")}},
        {"factors": [{"dim": 1, "hsc": "1"}], "tolerances": {"s_max": float("inf")}},
        {"factors": [{"dim": 1, "hsc": "1"}], "tolerances": {"divergence": 10**400}},
        {"factors": [{"dim": 1, "hsc": "1"}], "unknown_key": 1},
        [],
        # the hsc must be a short string or an integer (the schema's two forms)
        {"factors": [{"dim": 1, "hsc": "1e999999999"}]},
        {"factors": [{"dim": 1, "hsc": "-1e-999999999"}]},
        {"factors": [{"dim": 1, "hsc": "1e" + "9" * 5000}]},
        {"factors": [{"dim": 1, "hsc": "1" * 101}]},
        {"factors": [{"dim": 1, "hsc": 1.5}]},
        {"factors": [{"dim": 1, "hsc": float("inf")}]},
        {"factors": [{"dim": 1, "hsc": True}]},
        {"factors": [{"dim": 1, "hsc": None}]},
    ],
)
def test_invalid_scenarios_rejected(doc):
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_flat_batch_passes():
    report = run_batch([(1, Fraction(1)), (1, Fraction(-1))], samples=6, seed=0)
    assert report.passed
    maxima = report.witnesses[0]["maxima"]
    assert maxima["s_inf"] < 1e-6
    assert maxima["divergence_sides"] < 1e-3


# Maxima of the 3+3 batch at seed 0 with 4 samples, to catch a wrong
# kernel that still passes the bounds.  A maximum that finite-difference
# truncation sets is pinned to 1e-6 relative.  Three are set by the
# rounding of O(1) summands instead: rounding the metric's complex
# products as a fused multiply-add does moves p_trace and s_trace by
# 3.6e-4 relative and divergence by 9.1e-3, so those are pinned to 1e-2
# and 1e-1, which other platforms can meet; they sit at least two orders of
# magnitude inside their bounds (1e-9, 1e-6, 1e-3).
_PINNED_3_3 = {
    "s_inf": (2.6931660062527052e-08, 1e-6),
    "curvature_rel_err": (2.265582104660974e-08, 1e-6),
    "r_symmetry": (1.4423945548022338e-08, 1e-6),
    "divergence_sides": (1.1306287593617291e-05, 1e-6),
    "p_trace": (1.5841760888601912e-11, 1e-2),
    "s_trace": (7.781847385243652e-12, 1e-2),
    "divergence": (1.1608338480116578e-05, 1e-1),
}


def test_three_plus_three_maxima_are_pinned():
    report = run_batch([(3, Fraction(1)), (3, Fraction(-1))], samples=4, seed=0)
    assert report.passed
    witness = report.witnesses[0]
    maxima = witness["maxima"]
    assert set(maxima) == {*_PINNED_3_3, "cross_block"}
    assert maxima["cross_block"] == 0.0
    for key, (value, rel) in _PINNED_3_3.items():
        assert maxima[key] == pytest.approx(value, rel=rel, abs=0), key
    assert witness["convergence_factor"] == pytest.approx(4.002997801413031, rel=1e-9, abs=0)


def test_control_batch_fails_flatness_and_passes_as_control():
    factors = [(1, Fraction(1)), (1, Fraction(1))]
    flat_view = run_batch(factors, samples=6, seed=0)
    assert not flat_view.passed  # |S| is recorded and breaks the bound
    assert flat_view.witnesses[0]["maxima"]["s_inf"] > 1e-2
    control_view = run_batch(factors, samples=6, seed=0, expect_flat=False)
    assert control_view.passed


def test_three_unequal_blocks_are_a_control():
    # 2+1+3 runs every identity through the one record; three factors
    # are never Bochner-flat, so flatness alone fails (|S|_inf about 0.87)
    factors = [(2, Fraction(1)), (1, Fraction(-1)), (3, Fraction(-1, 2))]
    report = run_batch(factors, samples=3, seed=7)
    failed = [name for name, ok in report.assertions if not ok]
    assert failed == ["Chern tensor vanishes within tolerance"]
    assert report.witnesses[0]["maxima"]["s_inf"] > CONTROL_FLOOR
    assert run_batch(factors, samples=3, seed=7, expect_flat=False).passed


# (tolerance key, assertion it bounds, maximum it is read against), with
# every pairing spelled out: cross_block shares r_symmetry's bound.
_READS = (
    ("curvature_rel", "curvature matches the space-form closed form", "curvature_rel_err"),
    ("r_symmetry", "curvature symmetries hold", "r_symmetry"),
    ("p_trace", "Schouten trace identity holds", "p_trace"),
    ("s_trace", "Chern tensor is trace-free in the first pair", "s_trace"),
    ("r_symmetry", "metric is block diagonal", "cross_block"),
    ("divergence", "divergence identity residual is small", "divergence"),
    ("s_max", "Chern tensor vanishes within tolerance", "s_inf"),
)


@pytest.mark.parametrize("key", sorted(DEFAULT_TOLERANCES))
def test_each_tolerance_bounds_exactly_its_rows(key):
    # A bound of 1e-300 fails every row that reads it whose maximum is
    # above it, and nothing else.  On the 1+2 pair every maximum is.
    report = run_batch(
        [(1, Fraction(1)), (2, Fraction(-1))], samples=2, seed=0, tolerances={key: 1e-300}
    )
    maxima = report.witnesses[0]["maxima"]
    expected = [
        name for bound, name, maximum in _READS if bound == key and maxima[maximum] > 1e-300
    ]
    if key == "convergence_high":  # the range [3.5, 1e-300] is empty
        expected.append("stencil convergence factor is second order")
    failed = [name for name, ok in report.assertions if not ok]
    assert sorted(failed) == sorted(expected)
    assert [(n, m, b) for b, n, m in _READS[:-1]] == list(BOUNDS)


_FLAT_PAIR = [(1, Fraction(1)), (1, Fraction(-1))]


@pytest.fixture(scope="module")
def flat_pair_measured():
    report = run_batch(_FLAT_PAIR, samples=1, seed=0)
    assert report.passed
    return report.witnesses[0]["maxima"], report.witnesses[0]["convergence_factor"]


@pytest.mark.parametrize("key", sorted(DEFAULT_TOLERANCES))
def test_each_bound_holds_at_equality_and_fails_one_float_past(flat_pair_measured, key):
    # Every bound is inclusive: a tolerance equal to the value it is read
    # against passes, and the next float past that value fails exactly the
    # rows that read it.  On this pair r_symmetry and cross_block are 0.
    maxima, conv = flat_pair_measured
    if key.startswith("convergence_"):
        names, value = ["stencil convergence factor is second order"], conv
        past = math.nextafter(conv, math.inf if key == "convergence_low" else 0)
    else:
        rows = [(name, maximum) for bound, name, maximum in _READS if bound == key]
        names, value = [name for name, _ in rows], maxima[rows[0][1]]
        assert all(maxima[maximum] == value for _, maximum in rows)
        past = math.nextafter(value, 0 if value > 0 else -1)
    at_bound = run_batch(_FLAT_PAIR, samples=1, seed=0, tolerances={key: value})
    assert at_bound.passed
    beyond = run_batch(_FLAT_PAIR, samples=1, seed=0, tolerances={key: past})
    assert sorted(name for name, ok in beyond.assertions if not ok) == sorted(names)


def test_witness_records_the_merged_tolerances():
    pair = [(1, Fraction(1)), (1, Fraction(-1))]
    (witness,) = run_batch(pair, samples=1).witnesses
    assert witness["tolerances"] == DEFAULT_TOLERANCES
    (witness,) = run_batch(pair, samples=1, tolerances={"divergence": 0.5}).witnesses
    assert witness["tolerances"] == {**DEFAULT_TOLERANCES, "divergence": 0.5}


def test_batch_determinism():
    a = run_batch([(1, Fraction(1)), (1, Fraction(-1))], samples=5, seed=9)
    b = run_batch([(1, Fraction(1)), (1, Fraction(-1))], samples=5, seed=9)
    assert a.to_json_dict() == b.to_json_dict()
    c = run_batch([(1, Fraction(1)), (1, Fraction(-1))], samples=5, seed=10)
    assert c.residuals != a.residuals


def test_correspondence_record():
    report = run_batch([(1, Fraction(1)), (1, Fraction(-1))], samples=1, seed=0)
    record = report.witnesses[0]["circle_bundle"]
    assert record["torsion"].startswith("identically zero")
    assert record["factors"] == [
        {"dim": 1, "hsc": "1"},
        {"dim": 1, "hsc": "-1"},
    ]


def test_shipped_example_scenarios():
    from crchern.cli import main

    examples = SCHEMA_DIR.parent / "examples"
    flat = examples / "bochner_flat_pair.json"
    control = examples / "equal_sign_control.json"
    for path in (flat, control):
        parse_scenario(json.loads(path.read_text()))
    assert main(["scenario", str(flat), "--no-timestamp", "--out", "/dev/null"]) == 0
    assert (
        main(["scenario", str(control), "--no-timestamp", "--out", "/dev/null"]) == 1
    )


def test_emitted_reports_validate_against_shipped_schemas():
    jsonschema = pytest.importorskip("jsonschema")
    scenario_schema = json.loads((SCHEMA_DIR / "scenario.schema.json").read_text())
    good = {
        "factors": [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "-1"}],
        "samples": 3,
        "seed": 0,
        "tolerances": {"s_max": 1e-6},
    }
    jsonschema.validate(good, scenario_schema)
    for bad in ({"factors": []}, {"factors": [{"dim": 9, "hsc": "1"}]}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, scenario_schema)
    jsonschema.validate({"factors": [{"dim": 8, "hsc": "1"}]}, scenario_schema)
    # the hand validator accepts exactly what the schema describes here
    parse_scenario(good)


def _one_sample_at_a_time(factors, samples, seed):
    """The per-point rows and maxima of a batch, each sample assembled on
    its own through the one-point forms, as the batch did before it
    stacked its samples."""
    patch = KahlerProductPatch(tuple(calibrate_space_form(d, hsc) for d, hsc in factors))
    n = patch.total_dim
    maxima, rows = {}, []
    for z in patch.sample_points(samples, seed):
        t = point_tensors(patch, z)
        scale = 1 + float(np.max(np.abs(t.R)))
        exact = space_form_curvature_oracle(patch, z)
        div = chern_divergence_residual(patch, t)
        p_trace = complex(np.einsum("ab,ab->", t.linv, t.P)) - t.Scal / (2 * (n + 1))
        measured = {
            "s_inf": float(np.max(np.abs(t.S))),
            "curvature_rel_err": float(np.max(np.abs(t.R - exact)))
            / max(1e-30, float(np.max(np.abs(exact)))),
            "r_symmetry": float(max(symmetry_residuals(t.R))) / scale,
            "p_trace": abs(p_trace),
            "s_trace": float(np.max(np.abs(first_pair_trace(t.S, t.linv)))) / scale,
            "cross_block": float(_cross_block_max(patch, t.R)),
            "divergence": float(div["residual"]),
            "divergence_sides": float(max(div["lhs_max"], div["rhs_max"])),
        }
        for key, value in measured.items():
            maxima[key] = max(maxima.get(key, 0.0), value)
        rows.append(
            {
                "point": [str(c) for c in z],
                "s_inf": measured["s_inf"],
                "curvature_rel_err": measured["curvature_rel_err"],
                "divergence_residual": measured["divergence"],
            }
        )
    return patch, rows, maxima


@pytest.mark.parametrize("stacks", ["one stack", "two samples per stack"])
@pytest.mark.parametrize(
    "factors,samples",
    [
        ([(1, 1), (1, -1)], 5),
        ([(1, 1), (2, -1)], 3),
        ([(3, 1), (3, -1)], 3),
        ([(1, 1), (2, -1), (1, 1)], 3),
        ([(1, 1), (1, 1)], 5),
    ],
    ids=["1+1", "1+2", "3+3", "1+2+1", "equal-sign control"],
)
def test_stacked_batch_matches_one_sample_at_a_time(factors, samples, stacks, monkeypatch):
    # Every stage of a stack computes each sample as a stack of one does,
    # so rows and maxima agree bit for bit, with a partial last stack too.
    factors = [(d, Fraction(hsc)) for d, hsc in factors]
    patch, rows, maxima = _one_sample_at_a_time(factors, samples, 11)
    sizes = []
    if stacks != "one stack":
        n = patch.total_dim
        widest = max(n**4, *(tensors._stencil_entries(f.dim) for f in patch.factors))
        monkeypatch.setattr(tensors, "STACK_ENTRIES", 2 * widest)
    curvature = tensors.curvature_at

    def counted(patch, z, *args):
        sizes.append(len(z) if np.ndim(z) == 2 else None)
        return curvature(patch, z, *args)

    monkeypatch.setattr(scenario, "curvature_at", counted)
    report = run_batch(factors, samples=samples, seed=11)
    assert report.residuals == rows
    assert report.witnesses[0]["maxima"] == maxima
    stacked = sizes[:-2]  # the convergence factor's two single points come last
    assert stacked == ([samples] if stacks == "one stack" else [2] * (samples // 2) + [1])


def _first_failure(patch, z):
    """The refusal of one sample run on its own."""
    with pytest.raises((PatchDomainError, IllConditionedMetric)) as caught:
        t = point_tensors(patch, z)
        space_form_curvature_oracle(patch, z)
        chern_divergence_residual(patch, t)
    return type(caught.value), str(caught.value)


def _run_at(points, factors, monkeypatch):
    monkeypatch.setattr(KahlerProductPatch, "sample_points", lambda self, count, seed: points)
    with pytest.raises((PatchDomainError, IllConditionedMetric)) as caught:
        run_batch(factors, samples=len(points), seed=0)
    return type(caught.value), str(caught.value)


def test_stacked_chart_failure_names_the_first_failing_sample(monkeypatch):
    # hsc = -2: the chart is |z| < 1.  Sample 1 passes the curvature
    # stencil (step 1e-4) and leaves the chart in the third-order one
    # (step 1e-3); sample 2 leaves it already in the curvature stencil,
    # which the stack runs first.  The batch names sample 1's point.
    factors = [(1, Fraction(1)), (1, Fraction(-2))]
    patch = KahlerProductPatch(tuple(calibrate_space_form(d, hsc) for d, hsc in factors))
    points = [np.array([0.1, 0.1], dtype=complex)] + [
        np.array([0.1, 1 - gap], dtype=complex) for gap in (5e-4, 5e-5)
    ]
    kind, message = _first_failure(patch, points[1])
    assert kind is PatchDomainError
    with pytest.raises(PatchDomainError) as whole_stack:
        tensors.curvature_at(patch, np.array(points))
    assert str(whole_stack.value) != message
    assert _run_at(points, factors, monkeypatch) == (kind, message)


def test_stacked_condition_failure_names_the_first_failing_sample(monkeypatch):
    # The dim-2 factor's condition number grows towards its chart's edge
    # (radius sqrt 2).  With a limit between samples 0 and 1, the batch
    # reports sample 1's worst condition number, not sample 2's larger one.
    factors = [(2, Fraction(-1)), (1, Fraction(1))]
    patch = KahlerProductPatch(tuple(calibrate_space_form(d, hsc) for d, hsc in factors))
    points = [np.array([x, 0, 0.1], dtype=complex) for x in (0.1, 1.0, 1.3)]
    g = metric_at(patch, np.array(points))
    cond = np.linalg.norm(g, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(g), axis=(1, 2))
    assert cond[0] < cond[1] < cond[2]
    monkeypatch.setattr(tensors, "CONDITION_LIMIT", np.sqrt(cond[0] * cond[1]))
    kind, message = _first_failure(patch, points[1])
    assert kind is IllConditionedMetric
    assert _first_failure(patch, points[2])[1] != message
    assert _run_at(points, factors, monkeypatch) == (kind, message)


def test_a_stack_failure_that_no_single_sample_repeats_is_raised(monkeypatch):
    # Each sample is measured as the stack measures it; should a stack fail
    # where every sample alone passes, the batch gives the stack's failure,
    # not a verdict.
    measure = scenario._measure

    def failing_stack(patch, centres):
        if len(centres) > 1:
            raise IllConditionedMetric("the stack's failure")
        return measure(patch, centres)

    monkeypatch.setattr(scenario, "_measure", failing_stack)
    with pytest.raises(IllConditionedMetric, match="the stack's failure"):
        run_batch(_FLAT_PAIR, samples=3, seed=0)
