"""The manifest writer against the standard library's indented encoding."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import manifest_dict

from crchern.chern.report import CheckReport, build_manifest, json_text
from crchern.cli import TARGETS, main


def stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True)


def written(value):
    return json_text(value)


def outcome(encode, value):
    """The encoded text, or the type of the exception the encoder raised."""
    try:
        return encode(value)
    except Exception as exc:  # compared by type below
        return type(exc)


class Text(str):
    pass


class Count(int):
    pass


_FLOATS = [0.0, -0.0, 1e300, -1e-300, 0.1, float("nan"), float("inf"), float("-inf")]
_AWKWARD_TEXT = st.text(
    alphabet=st.sampled_from(
        ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ", "\U0001f600", "a"]
    )
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2**64, -(2**64) - 1, 10**300]),
    st.integers(),
    st.sampled_from(_FLOATS),
    st.floats(),
    st.text(),
    _AWKWARD_TEXT,
    st.builds(Text, _AWKWARD_TEXT),
    st.builds(Count, st.integers()),
    st.builds(np.float64, st.floats()),
)
_KEYS = st.one_of(
    st.text(),
    _AWKWARD_TEXT,
    st.builds(Text, st.text()),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        # non-str keys, mixed ones among them (unsortable: TypeError)
        st.dictionaries(_KEYS, children, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_VALUES)
def test_writer_matches_the_standard_library(value):
    assert outcome(written, value) == outcome(stdlib, value)


def _nested(depth):
    value = []
    for i in range(depth):
        value = {"k": value, "a": [i, True, None]} if i % 2 else [value, {}, []]
    return value


@pytest.mark.parametrize(
    "value",
    [
        # the whole value unsplit: scalars and empty containers
        0,
        "é\n",
        None,
        2.5,
        {},
        [],
        [[]],
        {"": {}},
        [{}, [], (), 0, ""],
        # non-str and mixed keys at depth 0, where the writer splits
        {"a": 1, 2: "b"},  # unsortable keys: TypeError from both
        {1: "one", 2.5: [1], False: 0, -1e300: None},
        {None: {}},
        {Text("k"): [1]},
        # and at depth 1, the items of a split container
        {"z": {3: "int key deep inside"}},
        {"z": {"a": 1, 2: "b"}},
        [{None: [1, {}]}, {"a": [2]}],
        [{"a": 1, 2: "b"}],
        {"b": 1, "a": {"d": [1, 2.5], "c": (True, None)}, "é": "\x00"},
        [True, 1, False, 0, 1.0],
        [10**5000],  # past int-to-str's digit limit where there is one
        _nested(60),
    ],
)
def test_writer_matches_the_standard_library_on_fixed_values(value):
    assert outcome(written, value) == outcome(stdlib, value)


@pytest.mark.parametrize(
    "value",
    [-0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf"), np.float64(0.1)],
    ids=["-0.0", "5e-324", "1e308", "nan", "inf", "-inf", "numpy.float64"],
)
@pytest.mark.parametrize(
    "wrap",
    [lambda v: v, lambda v: {"a": v}, lambda v: [0, v], lambda v: {"a": [1, {"b": v}]}],
    ids=["bare", "depth-1-dict", "depth-1-list", "nested"],
)
def test_floats_are_written_as_the_standard_library_writes_them(value, wrap):
    # a finite exact float is float.__repr__, json's own rule; NaN, the
    # infinities and float subclasses go through json.dumps
    assert written(wrap(value)) == stdlib(wrap(value))


@pytest.mark.parametrize(
    "bad",
    [set(), Fraction(1, 3), object(), np.int64(3), np.float32(0.5), b"x"],
    ids=["set", "Fraction", "object", "numpy.int64", "numpy.float32", "bytes"],
)
@pytest.mark.parametrize(
    "wrap",
    [lambda v: v, lambda v: {"a": v}, lambda v: [0, v], lambda v: {"a": [1, {"b": v}]}],
    ids=["bare", "depth-1-dict", "depth-1-list", "nested"],
)
def test_unserializable_values_raise_as_the_standard_library_does(bad, wrap):
    value = wrap(bad)
    expected = outcome(stdlib, value)
    assert isinstance(expected, type) and issubclass(expected, Exception)
    with pytest.raises(expected):
        written(value)


# The writer keeps each dict's sorted keys and their ``"key": `` prefixes
# per key tuple, in insertion order (``report._KEY_PREFIXES``).  The table
# stays bounded because every dict a run renders has keys that the program
# fixes or that a schema-checked document fixes; these cases hold each use
# of a kept entry to json.dumps, re-indented to the depth it is written at.
_PADS = ["\n", "\n  ", "\n    "]


@pytest.mark.parametrize(
    "values",
    [
        # one key set inserted in two orders: two tuples, one sorted order
        [{"b": 1, "a": "x"}, {"a": "x", "b": 1}, [{"a": 2, "b": 3}, {"b": 3, "a": 2}]],
        # one key tuple met at two depths, first with scalar values, then nested
        [
            {"k": 1, "v": "s"},
            [{"k": {"k": True, "v": None}, "v": [{"k": [], "v": {}}]}],
        ],
        # int, bool and str-subclass keys, str-subclass values, and NaN; a
        # subclass key equal to a kept key is written as the stdlib writes it
        [
            {"a": 1, "b": 2},
            {Text("b"): 1, Text("a"): [2]},
            {1: "one", 2: {"a": 1, "b": 2}},
            {True: 1, False: [0]},
            {"a": Text("x\n\u00e9"), "b": [Text("y")]},
            {"a": float("nan"), "b": [float("-inf"), Count(7)]},
        ],
    ],
    ids=["two-insertion-orders", "two-depths", "awkward-keys-and-values"],
)
def test_kept_key_prefixes_match_the_standard_library(values):
    for pad in _PADS:
        for value in values:
            assert json_text(value, pad) == stdlib(value).replace("\n", pad)


@pytest.mark.parametrize("value", [{"a": 1, 2: "b"}, [{"b": [], 1.5: 0}]], ids=["bare", "nested"])
def test_mixed_keys_raise_the_standard_library_error(value):
    with pytest.raises(TypeError) as expected:
        stdlib(value)
    with pytest.raises(TypeError) as raised:
        json_text(value)
    assert str(raised.value) == str(expected.value)


def _cycle_at_depth_0():
    value = {"a": []}
    value["a"].append(value)
    return value


def _cycle_at_depth_1():
    inner = {"b": []}
    inner["b"].append(inner)
    return {"a": inner}


@pytest.mark.parametrize("make", [_cycle_at_depth_0, _cycle_at_depth_1])
def test_circular_value_raises_as_the_standard_library_does(make):
    value = make()
    with pytest.raises(ValueError, match="Circular reference"):
        stdlib(value)
    with pytest.raises(ValueError, match="Circular reference"):
        written(value)


def test_a_run_holds_about_one_copy_of_the_text(tmp_path):
    # verify thm-1-2 --n-max 28: 187 reports, 1.9 MB of JSON.  Each report
    # is rendered as it is checked and then dropped, so the run peaks at
    # little more than the text (1.14 times it on Python 3.11); holding
    # every report until all were checked, as a manifest dict does,
    # peaked at 3.07 times.  The first run fills the memos.
    out = tmp_path / "manifest.json"
    argv = ["verify", "thm-1-2", "--n-max", "28", "--format", "json", "--no-timestamp"]
    argv += ["--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * out.stat().st_size
    target = TARGETS["thm-1-2"]
    params = {name: flag.default for name, flag in target.flags.items()}
    params.update(seed=0, n_max=28)
    _, pieces = build_manifest(argv, target.run(params), 0, False, "json")
    text = "".join(pieces)
    assert text == out.read_text()
    longest_report = max(
        len(stdlib(report).replace("\n", "\n    ")) for report in json.loads(text)["reports"]
    )
    assert max(map(len, pieces)) <= longest_report


def test_a_run_of_no_reports_writes_an_empty_report_list():
    # the frame writes an empty "reports" list on its own branch
    passed, pieces = build_manifest(["verify"], [], 0, False, "json")
    expected = json.dumps(manifest_dict(["verify"], [], 0), indent=2, sort_keys=True) + "\n"
    assert passed and "".join(pieces) == expected
    assert '"reports": []' in expected


def test_reports_with_one_sort_key_keep_their_order():
    passed = CheckReport("same", {"n": 2}, [("holds", True)])
    failed = CheckReport("same", {"n": 2}, [("holds", False)])
    for first, second in [(passed, failed), (failed, passed)]:
        _, pieces = build_manifest([], [first, second], 0, False, "json")
        statuses = [r["status"] for r in json.loads("".join(pieces))["reports"]]
        assert statuses == [first.status, second.status]
