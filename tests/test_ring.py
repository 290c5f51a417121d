import random
import re
from fractions import Fraction
from math import comb
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_canonical,
    naive_evaluate,
    random_coefficient,
    random_element,
    random_ring,
)
from crchern.cohomology.ring import (
    INTEGERS,
    CoefficientDomain,
    NAME,
    RATIONALS,
    Generator,
    RingElement,
    RingError,
    RingPresentation,
    make_ring,
)


def cp2_ring(domain=INTEGERS):
    return make_ring([("t", 2, 3)], domain)


def two_var_ring():
    return make_ring([("t", 2, 3), ("h", 2, 3)], RATIONALS)


def nilsquare2():
    return make_ring([("s", 2, 2), ("h", 2, 2)], RATIONALS)


class TestConstruction:
    def test_cp2_basis(self):
        ring = cp2_ring()
        assert ring.degree_basis(0) == [(0,)]
        assert ring.degree_basis(2) == [(1,)]
        assert ring.degree_basis(4) == [(2,)]
        assert ring.degree_basis(6) == []

    def test_two_var_degree_four_basis_ordered(self):
        ring = two_var_ring()
        assert ring.degree_basis(4) == [(2, 0), (1, 1), (0, 2)]  # t^2, t*h, h^2

    def test_odd_degree_request_is_empty(self):
        assert two_var_ring().degree_basis(3) == []
        assert two_var_ring().degree_basis(1) == []

    def test_duplicate_names_rejected(self):
        with pytest.raises(RingError):
            make_ring([("t", 2, 3), ("t", 2, 2)], INTEGERS)

    def test_odd_generator_degree_rejected(self):
        with pytest.raises(RingError):
            make_ring([("t", 3, 3)], INTEGERS)

    def test_zero_truncation_rejected(self):
        with pytest.raises(RingError):
            make_ring([("t", 2, 0)], INTEGERS)

    def test_exponent_vectors_off_the_generators_rejected(self):
        ring = two_var_ring()
        # unchecked, zip would drop a long vector's tail and pad nothing onto
        # a short one, and a negative exponent would be stored as a term
        for exps in [(1,), (1, 0, 1)]:
            with pytest.raises(RingError, match="has wrong length for 2 generators"):
                ring.element({exps: 1})
        with pytest.raises(RingError, match="negative exponent"):
            ring.element({(1, -1): 1})

    @pytest.mark.parametrize("kind", ["mod", "R"])
    def test_coefficients_are_z_or_q(self, kind):
        with pytest.raises(RingError, match="unknown coefficient domain kind"):
            CoefficientDomain(kind)

    @pytest.mark.parametrize("name", ["t²", "é", "t٣", "３", "1t", "", "t\n", "t-1", 5, None])
    def test_generator_name_outside_the_name_pattern_rejected(self, name):
        with pytest.raises(RingError, match="invalid generator name"):
            make_ring([(name, 2, 3)], RATIONALS)
        with pytest.raises(RingError, match="invalid generator name"):
            Generator(name, 2, 2)

    @pytest.mark.parametrize("name", ["t", "_", "_t1", "T_2", "x" * 100])
    def test_generator_name_of_the_name_pattern_accepted(self, name):
        assert make_ring([(name, 2, 3)], RATIONALS).generators[0].name == name


class TestArithmetic:
    def test_binomial_cube_in_cp2(self):
        ring = cp2_ring()
        t = ring.gen("t")
        assert str((1 + t) ** 3) == "1 + 3*t + 3*t^2"

    def test_square_with_cross_terms(self):
        ring = two_var_ring()
        t, h = ring.gen("t"), ring.gen("h")
        assert str((t + 3 * h) ** 2) == "t^2 + 6*t*h + 9*h^2"

    def test_nilsquare_square(self):
        # frozen by hand: (-2s + 2h)^2 = 4s^2 - 8sh + 4h^2 = -8sh
        ring = nilsquare2()
        s, h = ring.gen("s"), ring.gen("h")
        assert str((-2 * s + 2 * h) ** 2) == "-8*s*h"

    def test_scalar_coercion_respects_domain(self):
        ring = cp2_ring(INTEGERS)
        with pytest.raises(RingError):
            ring.scalar(Fraction(1, 2))
        assert ring.scalar(Fraction(4, 2)) == ring.scalar(2)

    @pytest.mark.parametrize("domain", [INTEGERS, RATIONALS])
    def test_gen_and_scalar_equal_element(self, domain):
        # truncation 1 (the generator itself is zero) next to wider ones
        ring = make_ring([("a", 2, 1), ("b", 4, 3), ("c", 2, 2)], domain)
        for i, g in enumerate(ring.generators):
            exps = tuple(int(j == i) for j in range(len(ring.generators)))
            expected = ring.element({exps: 1})
            assert ring.gen(g.name) == expected
            assert ring.gen(g.name).terms == expected.terms
            assert ring.gen(g.name).is_zero() == (g.truncation == 1)
        values = [0, 1, -7, 12, Fraction(10, 2)]
        if domain is RATIONALS:
            values.append(Fraction(-3, 4))
        for value in values:
            scalar = ring.scalar(value)
            expected = ring.element({(0, 0, 0): value})
            assert scalar.terms == expected.terms
            assert list(map(type, scalar.terms.values())) == list(
                map(type, expected.terms.values())
            )
            assert_canonical(scalar)

    @pytest.mark.parametrize("domain", [INTEGERS, RATIONALS])
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_scalar_refuses_non_coefficients(self, domain, value):
        with pytest.raises(RingError):
            make_ring([("a", 2, 1), ("b", 2, 3)], domain).scalar(value)

    def test_scalar_refuses_non_integral_over_z(self):
        with pytest.raises(RingError):
            make_ring([("a", 2, 1)], INTEGERS).scalar(Fraction(1, 3))

    def test_ring_mismatch_raises(self):
        a = cp2_ring().gen("t")
        b = two_var_ring().gen("t")
        with pytest.raises(RingError):
            a + b

    @pytest.mark.parametrize("exponent", [-1, 1.0, "2"])
    def test_power_takes_a_nonnegative_int_exponent(self, exponent):
        # a negative exponent would never end the square-and-multiply loop
        t = cp2_ring().gen("t")
        with pytest.raises(RingError, match="^exponent must be a nonnegative integer: "):
            t**exponent

    @pytest.mark.parametrize("other", ["t", 0.5, None])
    def test_operands_other_than_elements_and_exact_scalars_raise(self, other):
        t = cp2_ring().gen("t")
        with pytest.raises(RingError, match="^cannot combine ring element with "):
            t + other

    def test_truncation_kills_high_powers(self):
        ring = cp2_ring()
        t = ring.gen("t")
        assert (t ** 3).is_zero()
        assert t ** 2 * t == ring.zero()

    def test_power_computes_no_unused_square(self, monkeypatch):
        # repeated squaring: a product per set bit of the exponent, and a
        # square per bit below the top one
        ring = make_ring([("t", 2, 100)], INTEGERS)
        base = 1 + ring.gen("t")
        products = []
        mul = RingElement.__mul__
        monkeypatch.setattr(
            RingElement, "__mul__", lambda a, b: products.append(1) or mul(a, b)
        )
        for e in range(40):
            products.clear()
            power = base**e
            assert len(products) == bin(e).count("1") + max(e.bit_length() - 1, 0)
            assert power == ring.element({(j,): comb(e, j) for j in range(e + 1)})

    def test_homogeneous_parts(self):
        ring = two_var_ring()
        t, h = ring.gen("t"), ring.gen("h")
        el = (1 + t) * (1 + h)
        assert el.homogeneous_part(2) == t + h
        assert el.homogeneous_part(4) == t * h
        assert el.degrees() == [0, 2, 4]

    def test_evaluate(self):
        ring = two_var_ring()
        t, h = ring.gen("t"), ring.gen("h")
        el = (t + 3 * h) ** 2
        value = el.evaluate({"t": Fraction(2), "h": Fraction(1, 3)})
        assert value == Fraction(2 + 1) ** 2

    def test_truthiness_and_scalar_equality(self):
        ring = cp2_ring(INTEGERS)
        assert not ring.zero()
        assert ring.one()
        assert ring.zero() == 0
        assert ring.one() == 1
        # an unrepresentable scalar is just unequal, not an error
        assert ring.one() != Fraction(1, 2)

    def test_terms_are_read_only(self):
        el = cp2_ring().gen("t")
        with pytest.raises(TypeError):
            el.terms[(0,)] = 5
        with pytest.raises(AttributeError):
            el.terms = {}


class TestCanonicalResults:
    def test_random_arithmetic_results_are_canonical(self):
        rng = random.Random(11)
        for _ in range(300):
            ring = random_ring(rng)
            x, y = random_element(rng, ring), random_element(rng, ring)
            scalar = rng.randint(-9, 9)
            for result in (x + y, x - y, -x, x * y, x * scalar, scalar * x, x + scalar):
                assert_canonical(result)
            if ring.coefficients.kind == "Q":
                assert_canonical(x * Fraction(2, 3))

    def test_integral_results_are_ints_over_q(self):
        ring = two_var_ring()
        t, h = ring.gen("t"), ring.gen("h")
        x = Fraction(1, 3) * t + Fraction(5, 2) * h - Fraction(7, 4)
        for result in (t * 3, 3 * t, t + 1, -t, t - t * 2):
            assert_canonical(result)
            assert all(type(c) is int for c in result.terms.values())
        # Fraction arithmetic that lands on an integer gives an int back.
        back = Fraction(1, 2) * t * 2
        assert dict(back.terms) == {(1, 0): 1}
        assert type(back.coefficient((1, 0))) is int
        shifted = x + (-x + 3)
        assert dict(shifted.terms) == {(0, 0): 3}
        assert type(shifted.constant_term()) is int
        assert type(ring.element({(1, 1): Fraction(6, 3)}).coefficient((1, 1))) is int
        for result in (x, x * x, back, shifted, x * Fraction(4, 1)):
            assert_canonical(result)
        mixed = x * 4
        assert {type(c) for c in mixed.terms.values()} == {int, Fraction}

    def test_coerce_over_q(self):
        for value, expected in ((Fraction(6, 3), 2), (7, 7), (Fraction(-4, 2), -2)):
            c = RATIONALS.coerce(value)
            assert c == expected and type(c) is int
        half = RATIONALS.coerce(Fraction(3, 6))
        assert half == Fraction(1, 2) and type(half) is Fraction
        for bad in (True, 1.0, "1"):
            with pytest.raises(RingError):
                RATIONALS.coerce(bad)

    def test_evaluate_at_rational_points_gives_int_when_integral(self):
        ring = two_var_ring()
        t, h = ring.gen("t"), ring.gen("h")
        el = 4 * t * t - Fraction(1, 2) * h + 1
        value = el.evaluate({"t": Fraction(1, 2), "h": Fraction(2, 3)})
        assert value == Fraction(5, 3) and type(value) is Fraction
        value = el.evaluate({"t": Fraction(3, 2), "h": Fraction(4, 1)})
        assert value == 8 and type(value) is int
        value = (Fraction(2, 3) * t).evaluate({"t": Fraction(3, 2), "h": 0})
        assert value == 1 and type(value) is int
        assert type(ring.zero().evaluate({"t": Fraction(1, 3), "h": 1})) is int

    @pytest.mark.parametrize("domain", [INTEGERS, RATIONALS])
    def test_products_that_cancel_have_no_terms(self, domain):
        ring = make_ring([("s", 2, 2), ("h", 2, 2)], domain)
        s, h = ring.gen("s"), ring.gen("h")
        # cross terms cancel, squares are truncated
        assert dict(((s + h) * (s - h)).terms) == {}
        assert dict((s * h - h * s).terms) == {}
        assert dict((s + (-s)).terms) == {}

    def test_rational_products_that_cancel_have_no_terms(self):
        ring = two_var_ring()
        t, h = ring.gen("t"), ring.gen("h")
        el = (Fraction(1, 2) * t) * (2 * t + h) - t * t - Fraction(1, 2) * t * h
        assert dict(el.terms) == {}


def naive_product(a, b):
    """Every pair of terms summed along the full exponent tuple, then truncated."""
    truncs = [g.truncation for g in a.ring.generators]
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(map(add, e1, e2))
            if all(x < t for x, t in zip(e, truncs)):
                terms[e] = terms.get(e, 0) + c1 * c2
    return a.ring.element(terms)


def sparse_element(rng, ring, max_terms, hot):
    """Terms on at most four generators, mostly drawn from the few in ``hot``."""
    pool = range(len(ring.generators))
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(ring.generators)
        for i in rng.sample(hot, 3) + [rng.choice(pool)]:
            if rng.random() < 0.7:
                exps[i] = rng.randint(0, ring.generators[i].truncation - 1)
        terms[tuple(exps)] = random_coefficient(rng, ring)
    return ring.element(terms)


DOMAINS = [INTEGERS, RATIONALS]


class TestProduct:
    """``__mul__`` walks each monomial's support; the naive product walks all."""

    CASES = (
        "more terms on the left",
        "more terms on the right",
        "a sum lands on its truncation",
        "a sum lands just below its truncation",
    )

    @staticmethod
    def check(a, b, seen):
        expected = naive_product(a, b)
        for left, right in ((a, b), (b, a)):
            got = left * right
            assert got == expected
            assert dict(got.terms) == dict(expected.terms)
            assert_canonical(got)
        seen["more terms on the left"] |= len(a.terms) > len(b.terms)
        seen["more terms on the right"] |= len(a.terms) < len(b.terms)
        truncs = [g.truncation for g in a.ring.generators]
        for e1 in a.terms:
            for e2 in b.terms:
                sums = [x + y for x, y in zip(e1, e2)]
                if any(x == t for x, t in zip(sums, truncs)):
                    seen["a sum lands on its truncation"] = True
                elif all(x < t for x, t in zip(sums, truncs)) and any(
                    x == t - 1 and x > y and x > z
                    for x, y, z, t in zip(sums, e1, e2, truncs)
                ):
                    seen["a sum lands just below its truncation"] = True

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("width", [40, 83, 124])
    def test_wide_sparse_rings(self, domain, width):
        # the tractor ring at n = 60 has 124 generators: s and w truncated
        # at 63, the rest at 2; here truncations are 1 to 4
        rng = random.Random(width)
        ring = make_ring(
            [(f"g{i}", 2 * rng.randint(1, 2), rng.randint(1, 4)) for i in range(width)],
            domain,
        )
        hot = rng.sample(range(width), 6)
        seen = dict.fromkeys(self.CASES, False)
        for _ in range(60):
            a = sparse_element(rng, ring, rng.randint(1, 8), hot)
            b = sparse_element(rng, ring, rng.randint(1, 8), hot)
            self.check(a, b, seen)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_one_generator_deep_truncation(self, domain):
        rng = random.Random(11)
        seen = dict.fromkeys(self.CASES, False)
        for truncation in (2, 9, 29, 61):
            ring = make_ring([("t", 2, truncation)], domain)
            for _ in range(30):
                a, b = (
                    ring.element(
                        {
                            (rng.randint(0, truncation - 1),): random_coefficient(rng, ring)
                            for _ in range(rng.randint(0, 8))
                        }
                    )
                    for _ in range(2)
                )
                self.check(a, b, seen)
        assert all(seen.values()), seen

    def test_exact_truncation_kills_only_that_monomial(self):
        ring = make_ring([("a", 2, 3), ("b", 2, 2), ("c", 4, 4)], RATIONALS)
        a, b, c = (ring.gen(x) for x in "abc")
        assert (a * a * b) * (a * c) == 0  # a^3 = 0
        assert (a * b) * (a + b) == a * a * b  # a*b^2 = 0, a^2*b survives
        assert (c**2 + a) * c**2 == a * c**2  # c^4 = 0, c^2 * c^2 lands on it
        assert (a * c**3) * (2 + c) == 2 * a * c**3


class TestEvaluate:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_matches_all_generator_product(self, domain):
        rng = random.Random(23)
        gens = [(f"g{i}", 2 * rng.randint(1, 2), rng.randint(1, 4)) for i in range(7)]
        ring = make_ring(gens, domain)
        checked_zero_exponent = False
        for _ in range(200):
            el = random_element(rng, ring, max_terms=6)
            checked_zero_exponent |= any(0 in exps for exps in el.terms)
            values = {
                g.name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if domain.kind == "Q"
                else rng.randint(-9, 9)
                for g in ring.generators
            }
            assert el.evaluate(values) == naive_evaluate(el, values)
        assert checked_zero_exponent

    def test_absent_generator_contributes_no_denominator(self):
        ring = two_var_ring()
        t, h = ring.gen("t"), ring.gen("h")
        for value_of_h in (Fraction(1, 3), Fraction(-7, 2), 0):
            value = (1 + t).evaluate({"t": 2, "h": value_of_h})
            assert value == 3 and type(value) is int
        # h occurs in one term only; its denominator must cancel there
        value = (Fraction(1, 2) * t + 3 * h).evaluate({"t": 4, "h": Fraction(1, 3)})
        assert value == 3 and type(value) is int

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_wide_sparse_ring(self, domain):
        rng = random.Random(124)
        ring = make_ring([(f"g{i}", 2, rng.randint(1, 4)) for i in range(124)], domain)
        hot = rng.sample(range(124), 6)
        for _ in range(40):
            el = sparse_element(rng, ring, 8, hot)
            values = {
                g.name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if domain.kind == "Q"
                else rng.randint(-9, 9)
                for g in ring.generators
            }
            assert el.evaluate(values) == naive_evaluate(el, values)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_result_types(self, domain):
        ring = make_ring([("t", 2, 3), ("h", 2, 3)], domain)
        t, h = ring.gen("t"), ring.gen("h")
        integral = {"t": 3, "h": -2}
        for el in (ring.zero(), ring.one(), 2 * t * h - t, (1 + t + h) ** 2):
            value = el.evaluate(integral)
            assert type(value) is int
            assert value == naive_evaluate(el, integral)
        if domain.kind == "Q":
            value = (t * t + h).evaluate({"t": Fraction(1, 2), "h": Fraction(3, 4)})
            assert value == 1 and type(value) is int
            value = (t * h).evaluate({"t": Fraction(1, 2), "h": Fraction(3, 4)})
            assert value == Fraction(3, 8) and type(value) is Fraction
            zero = ring.zero().evaluate({"t": Fraction(1, 3), "h": Fraction(1, 5)})
            assert zero == 0 and type(zero) is int

    def test_missing_generator_raises_even_if_absent_from_every_term(self):
        ring = two_var_ring()
        t = ring.gen("t")
        assert all(exps[1] == 0 for exps in (1 + t).terms)
        with pytest.raises(RingError, match="no value for generator 'h'"):
            (1 + t).evaluate({"t": 2})
        with pytest.raises(RingError):
            ring.zero().evaluate({"h": 1})


def _brute_force_degree_basis(ring, k):
    """Every exponent vector under the truncations with degree ``k``, sorted
    descending-lex."""
    vectors = [()]
    for g in ring.generators:
        vectors = [v + (e,) for v in vectors for e in range(g.truncation)]
    return sorted((v for v in vectors if ring.monomial_degree(v) == k), reverse=True)


class TestDegreeBasis:
    def test_matches_brute_force_on_random_rings(self):
        # mixed degrees and truncations, truncation 1 among them: a
        # generator that only exponent 0 reaches, first, last or between
        rng = random.Random(71)
        for _ in range(200):
            count = rng.randint(0, 4)
            spec = [(f"g{i}", 2 * rng.randint(1, 3), rng.randint(1, 4)) for i in range(count)]
            ring = make_ring(spec, RATIONALS)
            top = sum(degree * (truncation - 1) for _, degree, truncation in spec)
            for k in range(-2, top + 3):
                assert ring.degree_basis(k) == _brute_force_degree_basis(ring, k), (spec, k)

    def test_truncation_one_contributes_exponent_zero_only(self):
        ring = make_ring([("a", 2, 1), ("b", 4, 2), ("c", 2, 1)], RATIONALS)
        assert ring.degree_basis(0) == [(0, 0, 0)]
        assert ring.degree_basis(4) == [(0, 1, 0)]
        assert ring.degree_basis(2) == [] and ring.degree_basis(6) == []


class TestDegreeBasisCache:
    def test_each_call_returns_a_fresh_list(self):
        ring = two_var_ring()
        basis = ring.degree_basis(4)
        basis.append((9, 9))
        basis[0] = (0, 0)
        assert ring.degree_basis(4) == [(2, 0), (1, 1), (0, 2)]
        assert ring.degree_basis(4) is not ring.degree_basis(4)

    def test_cache_is_not_part_of_the_value(self):
        a = make_ring([("t", 2, 3), ("h", 2, 3)], RATIONALS)
        b = make_ring([("t", 2, 3), ("h", 2, 2)], RATIONALS)
        assert a.degree_basis(4) == [(2, 0), (1, 1), (0, 2)]
        assert b.degree_basis(4) == [(2, 0), (1, 1)]
        assert a.degree_basis(-2) == [] and a.degree_basis(3) == []
        fresh = two_var_ring()
        assert a == fresh and hash(a) == hash(fresh)
        assert str(a) == str(fresh) and repr(a) == repr(fresh)
        assert a.to_json_dict() == fresh.to_json_dict()


def _printed_monomial(chunk: str) -> str:
    """The monomial of one printed term: ``a^2`` of ``-5/7*a^2``, ``1`` of ``-1/3``."""
    chunk = chunk.lstrip("-")
    if not chunk[0].isdigit():
        return chunk
    return chunk.partition("*")[2] or "1"


def _reference_str(el) -> str:
    """The printer as it stood before per-element tables: a sort key of
    ``(monomial_degree, negated exponents)`` and each term's monomial
    spelled out from the generator names."""
    if not el.terms:
        return "0"
    ring = el.ring
    names = [g.name for g in ring.generators]
    items = sorted(
        el.terms.items(),
        key=lambda item: (ring.monomial_degree(item[0]), tuple(-e for e in item[0])),
    )
    chunks = []
    for exps, coeff in items:
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e) or "1"
        if mono == "1":
            body = str(coeff)
        elif coeff == 1:
            body = mono
        elif coeff == -1:
            body = f"-{mono}"
        else:
            body = f"{coeff}*{mono}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(f"- {body[1:]}")
        else:
            chunks.append(f"+ {body}")
    return " ".join(chunks)


class TestPrinting:
    # generators of degree 2 and 4: a^2 and b share degree 4, so the
    # order within a degree is the descending-lex one, a^2 before b

    def test_rational_coefficients(self):
        ring = make_ring([("a", 2, 4), ("b", 4, 3)], RATIONALS)
        a, b = ring.gen("a"), ring.gen("b")
        cases = [
            (
                -(a**2) + Fraction(3, 2) * b + Fraction(-1, 3) + a * b
                - Fraction(5, 7) * a**3,
                "-1/3 - a^2 + 3/2*b - 5/7*a^3 + a*b",
            ),
            (Fraction(-2, 5) * a * b + b**2 - a + 7, "7 - a - 2/5*a*b + b^2"),
            (-1 + a - a**2 * b, "-1 + a - a^2*b"),
            (Fraction(1, 2) * b - b**2 * a + a**3 * b, "1/2*b + a^3*b - a*b^2"),
            (ring.zero(), "0"),
            (ring.one(), "1"),
            (-ring.one(), "-1"),
            (-a, "-a"),
            (Fraction(-1, 2) * b**2, "-1/2*b^2"),
        ]
        for el, text in cases:
            assert str(el) == text
            # the printed monomials, by ascending degree, descending-lex within one
            order = sorted(el.terms, key=lambda e: (ring.monomial_degree(e), [-x for x in e]))
            names = [
                "*".join(n if x == 1 else f"{n}^{x}" for n, x in zip("ab", e) if x) or "1"
                for e in order
            ]
            if el.terms:
                assert [_printed_monomial(t) for t in re.split(" [+-] ", text)] == names

    def test_degrees(self):
        ring = make_ring([("a", 2, 4), ("b", 4, 3)], RATIONALS)
        a, b = ring.gen("a"), ring.gen("b")
        assert (3 + a**2 + b + a**3 * b).degrees() == [0, 4, 10]
        assert ring.zero().degrees() == []

    def test_matches_the_reference_printer(self):
        rng = random.Random(20)
        for _ in range(400):
            ring = random_ring(rng, max_gens=4)
            el = random_element(rng, ring, max_terms=8)
            assert str(el) == _reference_str(el)
            assert el.degrees() == sorted({ring.monomial_degree(e) for e in el.terms})


class TestSerialization:
    def test_round_trip(self):
        for ring in (cp2_ring(), two_var_ring()):
            doc = ring.to_json_dict()
            assert RingPresentation.from_json_dict(doc) == ring

    def test_documents_match_shipped_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        import json
        from pathlib import Path

        schema_path = (
            Path(__file__).resolve().parent.parent
            / "docs"
            / "schemas"
            / "presentation.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        for ring in (cp2_ring(), two_var_ring()):
            jsonschema.validate(ring.to_json_dict(), schema)

    def test_schema_bounds_the_generators_like_the_parser(self):
        import json
        from pathlib import Path

        from crchern.cohomology.ring import MAX_GENERATORS

        schema_path = (
            Path(__file__).resolve().parent.parent
            / "docs"
            / "schemas"
            / "presentation.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        assert schema["properties"]["generators"]["maxItems"] == MAX_GENERATORS

    def test_schema_name_pattern_is_the_code_s_anchored(self):
        import json
        from pathlib import Path

        schema_path = (
            Path(__file__).resolve().parent.parent
            / "docs"
            / "schemas"
            / "presentation.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        name = schema["properties"]["generators"]["items"]["properties"]["name"]
        assert name["pattern"] == f"^{NAME.pattern}$"

    def test_too_many_generators_refused_before_any_is_built(self, monkeypatch):
        from crchern.cohomology import ring as ring_module

        def generator(*args):
            raise AssertionError("a generator was built")

        entry = {"name": "g", "degree": 2, "truncation": 2}
        doc = {"coefficients": "Q", "generators": [entry] * (ring_module.MAX_GENERATORS + 1)}
        monkeypatch.setattr(ring_module, "Generator", generator)
        with pytest.raises(RingError, match="at most 64 generators, got 65"):
            RingPresentation.from_json_dict(doc)

    def test_generator_bound_admits_the_bound(self):
        from crchern.cohomology.ring import MAX_GENERATORS

        doc = {
            "coefficients": "Q",
            "generators": [
                {"name": f"g{i}", "degree": 2, "truncation": 2} for i in range(MAX_GENERATORS)
            ],
        }
        assert len(RingPresentation.from_json_dict(doc).generators) == MAX_GENERATORS

    def test_coefficient_spellings(self):
        for spelling, domain in (("Z", INTEGERS), ("Q", RATIONALS)):
            doc = {
                "coefficients": spelling,
                "generators": [{"name": "t", "degree": 2, "truncation": 3}],
            }
            ring = RingPresentation.from_json_dict(doc)
            assert ring.coefficients == domain and str(ring.coefficients) == spelling

    @pytest.mark.parametrize("domain", [RATIONALS, INTEGERS], ids=["Q", "Z"])
    def test_copy_deepcopy_and_pickle_round_trip(self, domain):
        import copy
        import pickle

        ring = make_ring([("t", 2, 3), ("h", 2, 2)], domain)
        half = Fraction(1, 2) if domain is RATIONALS else 5
        x = ring.element({(0, 0): 3, (1, 1): half, (2, 0): -1})
        for y in (
            copy.copy(x),
            copy.deepcopy(x),
            pickle.loads(pickle.dumps(x)),
            pickle.loads(pickle.dumps(x, protocol=0)),
        ):
            assert y is not x
            assert y == x and y.ring == x.ring
            assert hash(y) == hash(x)
            assert str(y) == str(x)
            assert_canonical(y)
            with pytest.raises(AttributeError, match="immutable"):
                y.terms = {}
        assert copy.deepcopy(ring.zero()) == ring.zero()

    @pytest.mark.parametrize("name", ["terms", "ring", "_content_key"])
    def test_attributes_cannot_be_deleted(self, name):
        ring = make_ring([("t", 2, 3)], INTEGERS)
        x = ring.element({(1,): 2, (0,): 1})
        hash(x)  # sets _content_key
        with pytest.raises(AttributeError, match="RingElement is immutable"):
            delattr(x, name)
        assert x * x == ring.element({(2,): 4, (1,): 4, (0,): 1})
        assert x.content_key() == frozenset(x.terms.items())

    def test_malformed_document_rejected(self):
        with pytest.raises(RingError):
            RingPresentation.from_json_dict({"coefficients": "R", "generators": []})
        with pytest.raises(RingError):
            RingPresentation.from_json_dict({"generators": []})


# Structural ring laws on a fixed two-variable ring; the counted
# randomized suites over many rings live in the acceptance module.
_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-9, 9),
    max_size=4,
)


@st.composite
def elements(draw):
    ring = two_var_ring()
    return ring.element({k: Fraction(v) for k, v in draw(_terms).items()})


@settings(max_examples=60, deadline=None)
@given(elements(), elements(), elements())
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(elements())
def test_reduction_idempotent(a):
    assert a.ring.element(a.terms) == a


def test_grading_of_products_random():
    rng = random.Random(7)
    for _ in range(200):
        ring = random_ring(rng)
        x = random_element(rng, ring)
        y = random_element(rng, ring)
        degs = [k for k in x.degrees()]
        if not degs or not y.degrees():
            continue
        xk = x.homogeneous_part(degs[0])
        yk = y.homogeneous_part(y.degrees()[-1])
        prod = xk * yk
        if not prod.is_zero():
            assert prod.degrees() == [degs[0] + y.degrees()[-1]]
