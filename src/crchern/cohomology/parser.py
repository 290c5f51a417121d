"""Parser for the ring-element input language.

Grammar (also shipped as ``docs/grammar.ebnf``)::

    expr   = [ sign ] term { sign term } ;
    term   = power { "*" power } ;
    power  = atom { "^" integer } ;
    atom   = rational | integer | name | "(" expr ")" ;
    sign   = "+" | "-" ;
    rational = integer "/" integer ;
    integer  = digit { digit } ;                          (ring.INTEGER)
    name     = ( letter | "_" ) { letter | digit | "_" } ;  (ring.NAME)

Letters and digits are ASCII (``ring.NAME``, ``ring.INTEGER``); any
other character but whitespace (what ``str.isspace`` accepts), a
Unicode letter or digit included, is an ``unexpected character``.
Implicit multiplication is not part of the language: ``2t`` and
``(1+t)(1-t)`` are syntax errors.  Rational literals are only legal
when the ring has rational coefficients.  Parentheses nest at most
``MAX_NESTING`` deep.  An integer literal may have at most as many
decimal digits as Python converts between int and str
(``sys.get_int_max_str_digits()``).

Every product and power is bounded before it is computed, from the
operands' term counts, largest exponents and coefficient sizes:

* its result has at most ``MAX_TERMS`` terms: for ``a*b`` at most
  ``min(|a|*|b|, prod_g min(t_g, max_g(a) + max_g(b) + 1))``, where
  ``t_g`` is the truncation of generator ``g``, and for ``a^e`` with
  ``e*max_g(a)`` in place of the sum and ``binom(|a| + e - 1, e)`` in
  place of ``|a|*|b|``;
* a power's coefficients have at most the digits above.
  With ``a = c + a'``, ``a'`` free of constants, ``a'^j = 0`` once
  ``j > N = sum_g (t_g - 1)``, so ``a^e`` is a sum of at most ``N + 1``
  terms ``binom(e, j) c^(e-j) a'^j``;
* the products and powers of one input cost at most ``MAX_STEPS``
  steps of about a microsecond each together: a product costs 10 steps,
  plus ``1 + G/12`` for each pair of terms in a ring of ``G``
  generators, plus ``b1*b2/10^6`` for coefficients of ``b1`` and ``b2``
  bits, ten times that where an operand has a non-integral coefficient;
  a power costs the products of ``RingElement.__pow__``: one per set
  bit of the exponent, and one square per bit below the top one.

A sum is one running total, so the rest of the work is linear in the
length of the input.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .ring import INTEGER, NAME, Record, RingElement, RingError, RingPresentation, quote, read_integer


# Each level of parentheses costs four frames of the recursive descent;
# this keeps the deepest input well inside Python's recursion limit.
MAX_NESTING = 100
MAX_TERMS = 4096  # terms of one result: the nilsquare product of prop-1-4 --m 12
MAX_STEPS = 10**6  # cost of the products and powers of one input: about a second


class ParseError(ValueError):
    """Syntax or semantic error, carrying the 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token(Record):
    __slots__ = ("kind", "text", "pos")  # kind: "int" | "name" | "op" | "end"

    def __init__(self, kind: str, text: str, pos: int) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pos", pos)


# ``\s`` matches exactly what ``str.isspace`` accepts; "bad" is any other
# character.
_SCANNER = re.compile(
    rf"(?P<int>{INTEGER.pattern})|(?P<name>{NAME.pattern})"
    r"|(?P<op>[-+*^()/])|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "space":
            tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _integer(tok: _Token) -> int:
    try:
        return read_integer(tok.text)
    except ValueError as exc:  # past int()'s digit limit
        raise ParseError(
            f"integer literal longer than {sys.get_int_max_str_digits()} digits",
            tok.pos,
        ) from exc


class _Parser:
    def __init__(self, tokens: list[_Token], ring: RingPresentation):
        self.tokens = tokens
        self.ring = ring
        self.i = 0
        self.depth = 0
        self.steps_taken = 0.0

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def take(self, ops: str) -> _Token | None:
        """The next token, consumed, if it is one of the operators ``ops``."""
        tok = self.tokens[self.i]
        if tok.kind == "op" and tok.text in ops:  # the end token's "" is in every str
            self.i += 1
            return tok
        return None

    def integer(self, message: str) -> tuple[int, int]:
        """The next token's value and position; refused with ``message``
        unless it is an integer."""
        tok = self.advance()
        if tok.kind != "int":
            raise ParseError(message, tok.pos)
        return _integer(tok), tok.pos

    def parse(self) -> RingElement:
        value = self.expr()
        tok = self.tokens[self.i]
        if tok.kind != "end":
            raise ParseError(f"unexpected token {quote(tok.text)}", tok.pos)
        return value

    def expr(self) -> RingElement:
        tok = self.take("+-")
        sign = -1 if tok and tok.text == "-" else 1
        total = {e: sign * c for e, c in self.term().terms.items()}
        while tok := self.take("+-"):
            sign = -1 if tok.text == "-" else 1
            # one running sum: adding term by term would copy it each time
            for e, c in self.term().terms.items():
                total[e] = total.get(e, 0) + sign * c
        return self.ring.element(total)

    def term(self) -> RingElement:
        value = self.power()
        while tok := self.take("*"):
            rhs = self.power()
            self.check_product(value, rhs, tok.pos)
            value = value * rhs
        return value

    def power(self) -> RingElement:
        value = self.atom()
        while self.take("^"):
            exponent, pos = self.integer("exponent must be a nonnegative integer")
            self.check_power(value, exponent, pos)
            value = value**exponent
        return value

    def check_product(self, a: RingElement, b: RingElement, pos: int) -> None:
        """Refuse ``a*b`` before computing it when it exceeds a bound above."""
        top = zip(self.ring.generators, _max_exponents(a), _max_exponents(b))
        terms = min(
            len(a.terms) * len(b.terms),
            math.prod(min(g.truncation, x + y + 1) for g, x, y in top),
        )
        if terms > MAX_TERMS:
            raise ParseError(f"product could have {terms} terms, more than {MAX_TERMS}", pos)
        steps = self.steps(len(a.terms), _bits(a), len(b.terms), _bits(b))
        self.check_steps("product", _scale(a) * _scale(b) * steps, pos)

    def check_power(self, base: RingElement, exponent: int, pos: int) -> None:
        """Refuse ``base^exponent`` before computing it when it exceeds a
        bound above; the constant-term test is the digit bound's first
        term, ``c^exponent``, named on its own.
        """
        terms, digits = _power_bounds(base)
        if terms(exponent) > MAX_TERMS:
            raise ParseError(
                f"power could have {terms(exponent)} terms, more than {MAX_TERMS}", pos
            )
        limit = sys.get_int_max_str_digits()
        if limit:
            c = base.constant_term()
            largest = max(abs(c.numerator), c.denominator)
            # c^exponent has floor(exponent * log10(c)) + 1 digits
            if largest > 1 and _times(exponent, math.log10(largest)) >= limit:
                raise ParseError(
                    f"power's constant term would have more than {limit} digits", pos
                )
            if digits(exponent) >= limit:
                raise ParseError(
                    f"power's coefficients could have more than {limit} digits", pos
                )

        def size(m: int) -> tuple[int, float]:  # terms and coefficient bits of base^m
            count = terms(m)
            return count, count * (digits(m) * math.log2(10) + 1)

        # the products of RingElement.__pow__, one for one
        steps, done, square = 0.0, 0, 1
        while exponent and steps <= MAX_STEPS:
            squared = size(square)
            if exponent & 1:
                steps += self.steps(*size(done), *squared)
                done += square
            exponent >>= 1
            if exponent:
                steps += self.steps(*squared, *squared)
            square *= 2
        self.check_steps("power", _scale(base) * steps, pos)

    def steps(self, terms_a: int, bits_a: float, terms_b: int, bits_b: float) -> float:
        pair = 1 + len(self.ring.generators) / 12
        return 10 + terms_a * terms_b * pair + bits_a * bits_b / 10**6

    def check_steps(self, what: str, steps: float, pos: int) -> None:
        self.steps_taken += steps
        if self.steps_taken > MAX_STEPS:
            raise ParseError(
                f"{what} would bring the input past {MAX_STEPS} steps", pos
            )

    def atom(self) -> RingElement:
        if tok := self.take("("):
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.pos
                )
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            if not self.take(")"):
                raise ParseError("expected ')'", self.tokens[self.i].pos)
            return value
        tok = self.advance()
        if tok.kind == "int":
            num = _integer(tok)
            if not self.take("/"):
                return self.ring.scalar(num)
            den, pos = self.integer("expected denominator after '/'")
            if den == 0:
                raise ParseError("zero denominator", pos)
            if self.ring.coefficients.kind != "Q":
                raise ParseError(
                    f"rational coefficient in a {self.ring.coefficients} ring",
                    tok.pos,
                )
            return self.ring.scalar(Fraction(num, den))
        if tok.kind == "name":
            try:
                return self.ring.gen(tok.text)
            except RingError:
                raise ParseError(f"unknown identifier {quote(tok.text)}", tok.pos) from None
        raise ParseError(
            f"expected a number, name, or '(', got {tok.text!r}"
            if tok.kind != "end"
            else "unexpected end of input",
            tok.pos,
        )


def _max_exponents(x: RingElement) -> list[int]:
    return [max(col, default=0) for col in zip(*x.terms)] or [0] * len(x.ring.generators)


def _bits(x: RingElement) -> int:
    """Total bit length of the coefficients of ``x``."""
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in x.terms.values())


def _power_bounds(base: RingElement):
    """``(terms, digits)``: functions of ``m`` bounding the number of terms
    of ``base^m`` and the decimal digits of each of its coefficients.
    ``base^m`` has no more terms than there are monomials of degree ``m``
    in the terms of ``base``.

    Write ``base = (C + A')/D`` with integral ``C`` and ``A'``, ``A'``
    free of constants.  The numerators are at most ``(C + |A'|)^m`` and,
    past the nilpotency index ``N`` of ``A'``, ``C^(m-N) (C + m|A'|)^N``;
    the denominators divide ``D^m``.
    """
    ring = base.ring
    truncated = [
        (g.truncation, x) for g, x in zip(ring.generators, _max_exponents(base)) if x
    ]
    nilpotency = sum(t - 1 for t, _ in truncated)

    def terms(m: int) -> int:
        bound = math.prod(min(t, m * x + 1) for t, x in truncated)
        count = 1  # monomials of degree m in the terms: binom(|base| + m - 1, m)
        for i in range(1, len(base.terms)):
            count = count * (m + i) // i
            if count >= bound:
                return bound
        return min(count, bound)

    d = math.lcm(*(c.denominator for c in base.terms.values()))
    constant = base.constant_term()
    c = abs(constant.numerator) * (d // constant.denominator)
    rest = sum(abs(x.numerator) * (d // x.denominator) for x in base.terms.values()) - c

    def digits(m: int) -> float:
        if m <= nilpotency:
            num = _times(m, math.log10(c + rest)) if c + rest else 0.0
        elif c:
            num = _times(m - nilpotency, math.log10(c)) + _times(
                nilpotency, math.log10(c + m * rest)
            )
        else:
            return 0.0  # base^m = 0
        return max(num, _times(m, math.log10(d)))

    return terms, digits


def _scale(x: RingElement) -> int:
    """Cost factor of the coefficients of ``x``: ``Fraction`` arithmetic,
    with its gcds, costs about ten times ``int`` arithmetic."""
    return 10 if any(type(c) is Fraction for c in x.terms.values()) else 1


def _times(m: int, x: float) -> float:
    """``m * x`` for ``x >= 0``, ``inf`` where ``m`` is past the float range."""
    if not x or not m:
        return 0.0
    return m * x if m.bit_length() < 1000 else math.inf


def parse_element(text: str, ring: RingPresentation) -> RingElement:
    """Parse ``text`` into a reduced element of ``ring``.

    Raises :class:`ParseError` with the offending position for malformed
    syntax, unknown identifiers, and coefficients that do not live in
    the ring's domain.  Nothing else can fail: every operation acts on
    elements of ``ring`` whose coefficients the parser has read, with a
    nonnegative integer exponent, so no ``RingError`` reaches the caller.
    """
    return _Parser(_tokenize(text), ring).parse()
