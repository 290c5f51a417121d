import pytest

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
