import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from crchern.kahler.scenario import (
    BOUNDS,
    CONTROL_FLOOR,
    DEFAULT_TOLERANCES,
    ScenarioError,
    parse_scenario,
    run_batch,
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
