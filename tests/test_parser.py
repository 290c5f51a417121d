import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_canonical
from crchern.cli import _load_ring_spec, main
from crchern.cohomology import (
    INTEGERS,
    RATIONALS,
    ParseError,
    integers_mod,
    make_ring,
    parse_element,
)


@pytest.fixture
def qring():
    return make_ring([("t", 2, 3), ("h", 2, 3)], RATIONALS)


@pytest.fixture
def sring():
    return make_ring([("s", 2, 2)], RATIONALS)


def test_square_expands(qring):
    t, h = qring.gen("t"), qring.gen("h")
    assert parse_element("(t + 3*h)^2", qring) == (t + 3 * h) ** 2


def test_linear_with_unary_context(sring):
    s = sring.gen("s")
    assert parse_element("1 - 2*s", sring) == 1 - 2 * s
    assert parse_element("-2*s + 1", sring) == 1 - 2 * s


def test_unknown_identifier_position(qring):
    with pytest.raises(ParseError) as info:
        parse_element("t + x", qring)
    assert info.value.position == 4


def test_rational_literals(qring):
    el = parse_element("1/2*t - 3/4", qring)
    assert str(el) == "-3/4 + 1/2*t"


def test_rational_rejected_in_integer_ring():
    zring = make_ring([("t", 2, 3)], INTEGERS)
    with pytest.raises(ParseError) as info:
        parse_element("1/2*t", zring)
    assert "rational coefficient" in str(info.value)


def test_rational_rejected_in_mod_ring():
    mring = make_ring([("t", 2, 3)], integers_mod(5))
    with pytest.raises(ParseError):
        parse_element("1/2", mring)


def test_implicit_multiplication_is_an_error(qring):
    with pytest.raises(ParseError):
        parse_element("2 t", qring)
    with pytest.raises(ParseError):
        parse_element("(1+t)(1-t)", qring)


def test_malformed_syntax_positions(qring):
    with pytest.raises(ParseError) as info:
        parse_element("t + ", qring)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_element("(t + h", qring)
    with pytest.raises(ParseError):
        parse_element("t ^ h", qring)
    with pytest.raises(ParseError):
        parse_element("t @ h", qring)
    with pytest.raises(ParseError):
        parse_element("1/0", qring)


def test_power_and_precedence(qring):
    t, h = qring.gen("t"), qring.gen("h")
    assert parse_element("t*h^2", qring) == t * h ** 2
    assert parse_element("(t*h)^2", qring) == (t * h) ** 2
    assert parse_element("t^0", qring) == qring.one()


def test_str_round_trips(qring):
    cases = [
        qring.zero(),
        qring.one(),
        (1 + qring.gen("t")) ** 2,
        -3 * qring.gen("h") + qring.gen("t") * qring.gen("h"),
    ]
    for el in cases:
        assert parse_element(str(el), qring) == el


def test_nesting_depth_is_bounded(qring):
    from crchern.cohomology.parser import MAX_NESTING

    depth = MAX_NESTING
    assert parse_element("(" * depth + "t" + ")" * depth, qring) == qring.gen("t")
    with pytest.raises(ParseError) as info:
        parse_element("(" * (depth + 1) + "t" + ")" * (depth + 1), qring)
    assert info.value.position == depth
    with pytest.raises(ParseError):
        parse_element("(" * 3000 + "t" + ")" * 3000, qring)


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS])
def test_oversized_power_refused_before_it_is_computed(domain):
    ring = make_ring([("t", 2, 3)], domain)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="constant term") as info:
        parse_element("2^100000000*t", ring)
    assert time.perf_counter() - start < 0.1  # computing 2^(10^8) takes ~1.5 s
    assert info.value.position == 2


def test_power_size_limit_is_the_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    zring = make_ring([("t", 2, 3)], INTEGERS)
    qring = make_ring([("t", 2, 3)], RATIONALS)
    assert len(str(parse_element(f"10^{limit - 1}", zring))) == limit
    with pytest.raises(ParseError):
        parse_element(f"10^{limit}", zring)  # limit + 1 digits
    with pytest.raises(ParseError):
        parse_element(f"(1/10)^{limit}", qring)  # the denominator
    with pytest.raises(ParseError):
        parse_element(f"(20+t)^{limit}*t", zring)
    # only the constant term counts, and nothing is refused mod m
    assert parse_element(f"(1+t)^{10**30}", zring) == parse_element(
        f"1 + {10**30}*t + {10**30 * (10**30 - 1) // 2}*t^2", zring
    )
    assert parse_element(f"t^{10**30}", zring).is_zero()
    assert parse_element(
        "2^100000000", make_ring([("t", 2, 3)], integers_mod(7))
    ) == pow(2, 100000000, 7)


def test_integer_literal_past_digit_limit_is_a_parse_error(qring):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    for text in (digits, f"t^{digits}", f"1/{digits}"):
        with pytest.raises(ParseError, match="integer literal longer"):
            parse_element(text, qring)


def _json_ring(coefficients):
    return json.dumps(
        {
            "coefficients": coefficients,
            "generators": [
                {"name": "t", "degree": 2, "truncation": 3},
                {"name": "h", "degree": 4, "truncation": 2},
            ],
        }
    )


_FUZZ_RINGS = ("cp:2", "fpp*cp:2", _json_ring("Z"), _json_ring({"mod": 6}))


def _expressions():
    leaf = st.one_of(
        st.integers(0, 10**4).map(str),
        st.tuples(st.integers(0, 50), st.integers(0, 9)).map("{0[0]}/{0[1]}".format),
        st.sampled_from(["t", "h", "x"]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(" ".join),
            st.tuples(children, st.integers(0, 5)).map("({0[0]})^{0[1]}".format),
            children.map("({})".format),
            children.map("-{}".format),
        )

    return st.recursive(leaf, extend, max_leaves=8)


_MALFORMED = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["(", ")", "^", "*", "/", "2t", "$", "^-1", "1/0", "t t"]),
        st.integers(0, 60),
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_RINGS), _expressions(), _MALFORMED)
def test_eval_fuzz(ring_spec, text, malformed):
    """Random input in and around the grammar: exit 0 with a canonical
    result that parses back to itself, or exit 2 with one stderr line."""
    if malformed is not None:
        token, at = malformed
        at %= len(text) + 1
        text = text[:at] + token + text[at:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--ring", ring_spec, "--", text])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    assert err == ""
    ring = _load_ring_spec(ring_spec)
    value = parse_element(text, ring)
    assert_canonical(value)
    assert out.splitlines()[0] == str(value)
    assert parse_element(str(value), ring) == value
