import contextlib
import io
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_canonical
from crchern.cli import _load_ring_spec, main
from crchern.cohomology.parser import (
    _SCANNER,
    MAX_STEPS,
    MAX_TERMS,
    _Parser,
    _Token,
    ParseError,
    _power_bounds,
    _tokenize,
    parse_element,
)
from crchern.cohomology.ring import (
    INTEGERS,
    RATIONALS,
    RingElement,
    make_ring,
)
from crchern.presets import MAX_NILSQUARE, PresetError, preset_ring


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
    # only the constant term counts
    assert parse_element(f"(1+t)^{10**30}", zring) == parse_element(
        f"1 + {10**30}*t + {10**30 * (10**30 - 1) // 2}*t^2", zring
    )
    assert parse_element(f"t^{10**30}", zring).is_zero()


def test_product_term_bound_reads_truncations_and_top_exponents():
    # |a|*|b| = 65*64 = 4160, and the top exponents 64 + 4032 reach t^4096:
    # at most 4096 terms survive t^4096 = 0 and 4097 survive t^4097 = 0
    a = "(" + "+".join(f"t^{j}" for j in range(65)) + ")"
    b = "(" + "+".join(f"t^{64 * j}" for j in range(64)) + ")"
    fits = make_ring([("t", 2, MAX_TERMS)], INTEGERS)
    assert len(parse_element(f"{a}*{b}", fits).terms) == MAX_TERMS
    with pytest.raises(ParseError, match=f"product could have {MAX_TERMS + 1} terms"):
        parse_element(f"{a}*{b}", make_ring([("t", 2, MAX_TERMS + 1)], INTEGERS))


def test_power_term_bound_reads_the_exponent():
    ring = make_ring([("t", 2, 10**6)], RATIONALS)
    with pytest.raises(ParseError, match=f"power could have {MAX_TERMS + 1} terms"):
        parse_element(f"(1+t)^{MAX_TERMS}", ring)


def test_power_digit_bound_covers_every_coefficient():
    # the constant term is 1, but binom(e, 2) has about 4400 digits
    zring = make_ring([("t", 2, 3)], INTEGERS)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="power's coefficients could have more than"):
        parse_element(f"(1+t)^{10**2200}", zring)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("domain", [INTEGERS, RATIONALS])
def test_power_bounds_hold_for_computed_powers(domain):
    ring = make_ring([("t", 2, 4), ("h", 4, 3)], domain)
    rng = random.Random(11)
    for _ in range(40):
        raw = {
            (rng.randrange(4), rng.randrange(3)): Fraction(
                rng.randint(-30, 30), rng.choice([1, 1, 2, 7]) if domain is RATIONALS else 1
            )
            for _ in range(rng.randint(0, 5))
        }
        base = ring.element(raw)
        terms, digits = _power_bounds(base)
        for m in range(12):
            power = base**m
            assert len(power.terms) <= terms(m)
            for c in power.terms.values():
                c = Fraction(c)
                widest = max(abs(c.numerator), c.denominator)
                assert len(str(widest)) <= math.floor(digits(m)) + 1


def test_fractional_coefficients_cost_more_steps():
    # 451 is the least exponent at which the Fraction power is refused
    ring = make_ring([("t", 2, 10**6)], RATIONALS)
    assert len(parse_element("(3+t)^451", ring).terms) == 452
    with pytest.raises(ParseError, match=f"power would bring the input past {MAX_STEPS} steps"):
        parse_element("(1/3+t)^451", ring)


def test_step_budget_covers_the_whole_input():
    # each power alone fits the budget; 26 of them together fit, 27 do not
    ring = make_ring([("t", 2, 10**6)], RATIONALS)
    assert len(parse_element("(1+t)^300", ring).terms) == 301
    assert len(parse_element("+".join(["(1+t)^300"] * 26), ring).terms) == 301
    with pytest.raises(ParseError, match=f"past {MAX_STEPS} steps") as info:
        parse_element("+".join(["(1+t)^300"] * 27), ring)
    assert info.value.position > 0


def test_power_budget_counts_the_products_that_pow_computes(monkeypatch):
    # check_power keeps its own copy of __pow__'s square-and-multiply
    # schedule; the two must count the same products for every exponent
    ring = make_ring([("t", 2, 200)], INTEGERS)
    base = 1 + ring.gen("t")
    counted, computed = [], []
    steps, mul = _Parser.steps, RingElement.__mul__
    monkeypatch.setattr(_Parser, "steps", lambda *a: counted.append(1) or steps(*a))
    monkeypatch.setattr(RingElement, "__mul__", lambda a, b: computed.append(1) or mul(a, b))
    for e in range(129):
        counted.clear()
        _Parser([], ring).check_power(base, e, 0)
        computed.clear()
        assert len((base**e).terms) == e + 1
        assert len(counted) == len(computed), e


def test_long_sum_is_one_running_total(monkeypatch):
    # adding term by term copied the partial sum at every sign, which is
    # quadratic in the input: 10,000 typed terms took 15 s
    ring = make_ring([("t", 2, 100)], INTEGERS)
    text = "+".join(f"{j}*t^{j}" for j in range(100))
    expected = ring.element({(j,): j for j in range(100)})

    def pairwise(self, other):
        raise AssertionError("sum built pairwise")

    monkeypatch.setattr(RingElement, "__add__", pairwise)
    monkeypatch.setattr(RingElement, "__sub__", pairwise)
    assert parse_element(text, ring) == expected
    assert parse_element(f"-({text}) + 2*({text})", ring) == expected
    assert parse_element(f"{text} - ({text})", ring).is_zero()


def test_nilsquare_preset_is_bounded():
    assert len(preset_ring(f"nilsquare:{MAX_NILSQUARE}").generators) == MAX_NILSQUARE
    with pytest.raises(PresetError, match=f"M <= {MAX_NILSQUARE}"):
        preset_ring(f"nilsquare:{MAX_NILSQUARE + 1}")


@pytest.mark.parametrize(
    "spec,message",
    [
        ("cp:0", "cp:N needs N >= 1"),
        ("cp:x", "cp:N needs N >= 1"),
        ("cp:", "cp:N needs N >= 1"),
        ("surface:-1", "surface:G needs G >= 0"),
        ("surface:1.5", "surface:G needs G >= 0"),
        ("nilsquare:0", "nilsquare:M needs M >= 1"),
        ("nilsquare:two", "nilsquare:M needs M >= 1"),
        ("cp:1_0", "cp:N needs N >= 1"),
        ("cp:\u0663", "cp:N needs N >= 1"),  # ARABIC-INDIC DIGIT THREE
        ("cp:+3", "cp:N needs N >= 1"),
        ("cp: 3", "cp:N needs N >= 1"),
        ("cp:3 ", "cp:N needs N >= 1"),
        ("surface:-0", "surface:G needs G >= 0"),
        ("cp:" + "9" * (sys.get_int_max_str_digits() + 1), "cp:N needs N >= 1"),
    ],
)
def test_preset_integer_arguments_are_refused_below_their_bound(spec, message):
    with pytest.raises(PresetError, match="^" + re.escape(message) + "$"):
        preset_ring(spec)


@pytest.mark.parametrize("spec,size", [("cp:1", 1), ("surface:0", 1), ("nilsquare:1", 1)])
def test_preset_integer_arguments_accept_their_bound(spec, size):
    assert len(preset_ring(spec).generators) == size


@pytest.mark.parametrize(
    "text,char,position",
    [("t^²", "²", 2), ("٣", "٣", 0), ("３*t", "３", 0), ("é", "é", 0), ("tξ", "ξ", 1)],
)
def test_non_ascii_letters_and_digits_are_unexpected_characters(capsys, text, char, position):
    assert main(["eval", "--ring", "cp:2", "--", text]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"parse error: unexpected character {char!r} (at position {position})\n")


def _loop_tokenize(text):
    """The character loop that the scanner replaced, as the reference for
    ASCII input."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


def test_scanner_matches_the_character_loop_on_ascii():
    # digits, letters, _, the operators, tabs, newlines, no-break spaces and
    # stray punctuation; the operators and spaces weighted up
    alphabet = (
        "0123456789" + "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
        + "+-*^()/" * 4 + " \t\n\xa0" * 2 + "$@.,;!?"
    )
    rng = random.Random(28)
    errors = 0
    for _ in range(100_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        expected = _tokens_or_error(_loop_tokenize, text)
        assert _tokens_or_error(_tokenize, text) == expected, text
        errors += isinstance(expected, tuple)
    assert 20_000 < errors < 80_000  # both outcomes are well covered


def test_scanner_classifies_every_code_point():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    found = {"int": "", "name": "", "op": "", "space": ""}
    for match in _SCANNER.finditer(text):
        if match.lastgroup != "bad":  # every other character is refused
            found[match.lastgroup] += match.group()
    assert found == {
        "int": "0123456789",
        "name": "ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz",
        "op": "()*+-/^",
        "space": "".join(filter(str.isspace, text)),  # str.isspace exactly
    }


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


_FUZZ_RINGS = ("cp:2", "fpp*cp:2", _json_ring("Z"), _json_ring("Q"))


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
        st.sampled_from(
            ["(", ")", "^", "*", "/", "2t", "$", "^-1", "1/0", "t t", "²", "٣", "３", "é"]
        ),
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
