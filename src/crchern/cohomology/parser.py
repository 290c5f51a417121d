"""Parser for the ring-element input language.

Grammar (also shipped as ``docs/grammar.ebnf``)::

    expr   = [ sign ] term { sign term } ;
    term   = power { "*" power } ;
    power  = atom { "^" integer } ;
    atom   = rational | integer | name | "(" expr ")" ;
    sign   = "+" | "-" ;
    rational = integer "/" integer ;

Implicit multiplication is not part of the language: ``2t`` and
``(1+t)(1-t)`` are syntax errors.  Rational literals are only legal
when the ring has rational coefficients.  Parentheses nest at most
``MAX_NESTING`` deep.  An integer literal, and over Z and Q the
constant term of a power, may have at most as many decimal digits as
Python converts between int and str (``sys.get_int_max_str_digits()``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .ring import RingElement, RingError, RingPresentation


# Each level of parentheses costs four frames of the recursive descent;
# this keeps the deepest input well inside Python's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or semantic error, carrying the 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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


def _integer(tok: _Token) -> int:
    try:
        return int(tok.text)
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

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)
        return self.advance()

    def parse(self) -> RingElement:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return value

    def expr(self) -> RingElement:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            sign = -1 if tok.text == "-" else 1
        value = self.term() * sign
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> RingElement:
        value = self.power()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                value = value * self.power()
            else:
                return value

    def power(self) -> RingElement:
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.advance()
                etok = self.peek()
                if etok.kind != "int":
                    raise ParseError("exponent must be a nonnegative integer", etok.pos)
                self.advance()
                exponent = _integer(etok)
                self.check_power_size(value, exponent, etok.pos)
                value = value**exponent
            else:
                return value

    def check_power_size(self, base: RingElement, exponent: int, pos: int) -> None:
        """Refuse ``base^exponent`` over Z or Q before computing it when
        its constant term ``c^exponent`` would have more decimal digits
        than Python converts to a string (``sys.get_int_max_str_digits``).
        """
        limit = sys.get_int_max_str_digits()
        if not limit or self.ring.coefficients.kind == "mod":
            return
        c = Fraction(base.constant_term())
        largest = max(abs(c.numerator), c.denominator)
        # c^exponent has floor(exponent * log10(c)) + 1 digits
        if largest > 1 and exponent * math.log10(largest) >= limit:
            raise ParseError(
                f"power's constant term would have more than {limit} digits",
                pos,
            )

    def atom(self) -> RingElement:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = _integer(tok)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != "int":
                    raise ParseError("expected denominator after '/'", dtok.pos)
                self.advance()
                den = _integer(dtok)
                if den == 0:
                    raise ParseError("zero denominator", dtok.pos)
                if self.ring.coefficients.kind != "Q":
                    raise ParseError(
                        f"rational coefficient in a {self.ring.coefficients} ring",
                        tok.pos,
                    )
                return self.ring.scalar(Fraction(num, den))
            return self.ring.scalar(num)
        if tok.kind == "name":
            self.advance()
            if not self.ring.has_gen(tok.text):
                raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
            return self.ring.gen(tok.text)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.pos
                )
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return value
        raise ParseError(
            f"expected a number, name, or '(', got {tok.text!r}"
            if tok.kind != "end"
            else "unexpected end of input",
            tok.pos,
        )


def parse_element(text: str, ring: RingPresentation) -> RingElement:
    """Parse ``text`` into a reduced element of ``ring``.

    Raises :class:`ParseError` with the offending position for malformed
    syntax, unknown identifiers, and coefficients that do not live in
    the ring's domain.
    """
    try:
        return _Parser(_tokenize(text), ring).parse()
    except RingError as exc:
        raise ParseError(str(exc), 0) from exc
