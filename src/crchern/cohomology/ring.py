"""Graded-commutative ring arithmetic for even-degree cohomology.

Rings are finite tensor products of one-generator truncated polynomial
rings ``k[g]/(g^t)`` where every generator sits in an even positive
degree.  This covers the cohomology of all base manifolds used by the
verification suite (complex projective spaces, the even part of a
Riemann surface, the real even cohomology of a fake projective plane,
and products of degree-2 classes with vanishing squares).

Two modeling restrictions are deliberate and worth stating prominently:

* **Only even-degree classes are modeled.**  Every class, cup product,
  and image-membership question exercised by the verification targets
  lives in even degree, and the circle-bundle exactness fact consumed
  downstream (``ker p* = Im(. cup e)`` degree by degree) needs no
  odd-degree data.  Odd cohomology of the surface and 3-manifold
  factors is absent by design.

* **Real-coefficient statements are computed over the rationals.**
  All classes in scope have rational coefficients, and membership of a
  rational vector in the span of rational vectors is the same question
  over Q and over R: a rational linear system is solvable over R iff it
  is solvable over Q (rank is field-independent for matrices with
  rational entries).

Over Q a coefficient is stored as an ``int`` when its value is an
integer and as a ``Fraction`` (denominator > 1) otherwise, so the
integral arithmetic that dominates the checks never builds a
``Fraction``.  Both types compare, hash and print alike for equal
values, and both have ``numerator``/``denominator``.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import add, ge
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping


class RingError(ValueError):
    """Invalid ring construction, coefficient, or operand mismatch."""


# The most generators a JSON presentation may have; its schema carries
# the same ``maxItems``.  Every element of a ring walks all its
# generators, so a longer list would cost time the parser's step bound
# does not see.  The largest preset ring has 31 (``nilsquare:24`` plus
# the seven other preset names); rings built in code are not bounded.
MAX_GENERATORS = 64


# The most characters of an offending value an error message quotes, so
# that a refusal of a huge document stays one short line.
QUOTE_LIMIT = 80

Coefficient = int | Fraction
ExponentVector = tuple[int, ...]


def _quote(value: object) -> str:
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


@dataclass(frozen=True)
class CoefficientDomain:
    """Exact coefficient system: ``Z``, ``Q``, or ``Z/m`` with m >= 2.

    Mod-m values are kept as canonical representatives in ``[0, m)``.
    """

    kind: str  # "Z" | "Q" | "mod"
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Q", "mod"):
            raise RingError(f"unknown coefficient domain kind: {self.kind!r}")
        if self.kind == "mod":
            if self.modulus is None or self.modulus < 2:
                raise RingError("modulus must be an integer >= 2")
        elif self.modulus is not None:
            raise RingError(f"domain {self.kind!r} takes no modulus")

    def coerce(self, value: object) -> Coefficient:
        """Return the canonical representative of ``value``, or raise.

        Over Q that is an ``int`` for an integral value and a
        ``Fraction`` with denominator > 1 otherwise; over Z an ``int``;
        over Z/m an ``int`` in ``[0, m)``.
        """
        if isinstance(value, bool):
            raise RingError("boolean is not a ring coefficient")
        if self.kind == "Q":
            if isinstance(value, (int, Fraction)):
                if value.denominator == 1:
                    return int(value.numerator)
                return value if type(value) is Fraction else Fraction(value)
            raise RingError(f"not a rational coefficient: {value!r}")
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(
                    f"rational coefficient {value} not representable over {self}"
                )
            value = value.numerator
        if not isinstance(value, int):
            raise RingError(f"not an integer coefficient: {value!r}")
        if self.kind == "mod":
            assert self.modulus is not None
            return value % self.modulus
        return value

    def __str__(self) -> str:
        if self.kind == "mod":
            return f"Z/{self.modulus}"
        return self.kind


INTEGERS = CoefficientDomain("Z")
RATIONALS = CoefficientDomain("Q")


def integers_mod(m: int) -> CoefficientDomain:
    return CoefficientDomain("mod", m)


@dataclass(frozen=True)
class Generator:
    """A ring generator ``name`` of even degree with ``name**truncation = 0``."""

    name: str
    degree: int
    truncation: int

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha() and self.name[0] != "_":
            raise RingError(f"invalid generator name: {_quote(self.name)}")
        if not all(ch.isalnum() or ch == "_" for ch in self.name):
            raise RingError(f"invalid generator name: {_quote(self.name)}")
        if self.degree <= 0 or self.degree % 2 != 0:
            raise RingError(
                f"generator {_quote(self.name)} must have even positive degree, "
                f"got {_quote(self.degree)}"
            )
        if self.truncation < 1:
            raise RingError(
                f"generator {_quote(self.name)} needs truncation >= 1, "
                f"got {_quote(self.truncation)}"
            )


@dataclass(frozen=True)
class RingPresentation:
    """Tensor product of one-generator truncated rings over an exact domain."""

    generators: tuple[Generator, ...]
    coefficients: CoefficientDomain

    def __post_init__(self) -> None:
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise RingError(f"duplicate generator name in {_quote(names)}")

    # -- construction -------------------------------------------------

    def element(self, terms: Mapping[ExponentVector, object]) -> "RingElement":
        """Build an element from raw ``{exponents: coefficient}`` data."""
        reduced: dict[ExponentVector, Coefficient] = {}
        for exps, raw in terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.generators):
                raise RingError(
                    f"exponent vector {exps} has wrong length for {len(self.generators)} generators"
                )
            if any(e < 0 for e in exps):
                raise RingError(f"negative exponent in {exps}")
            if any(e >= g.truncation for e, g in zip(exps, self.generators)):
                continue  # the monomial is zero in the quotient
            c = self.coefficients.coerce(raw)
            reduced[exps] = reduced[exps] + c if exps in reduced else c
        return self._reduced(reduced)

    def _reduced(self, terms: dict[ExponentVector, Coefficient]) -> "RingElement":
        """Element of ``terms`` with canonical coefficients, zero terms dropped.

        The one place where coefficients are canonicalised: reduced mod m
        over Z/m; over Q a ``Fraction`` with denominator 1 becomes its
        numerator, so integral values are ``int``.  The exponent vectors must
        already be valid and reduced (checked by :meth:`element` on raw
        input; arithmetic on reduced operands of this ring keeps them
        so), and are not checked again.
        """
        kind = self.coefficients.kind
        if kind == "mod":
            m = self.coefficients.modulus
            canonical = {e: c % m for e, c in terms.items() if c % m}
        elif kind == "Q":
            canonical = {
                e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                for e, c in terms.items()
                if c
            }
        else:
            canonical = {e: c for e, c in terms.items() if c}
        return RingElement(self, canonical)

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.scalar(1)

    def scalar(self, value: object) -> "RingElement":
        zero_exp = (0,) * len(self.generators)
        return self.element({zero_exp: value})

    def gen(self, name: str) -> "RingElement":
        i = self.gen_index(name)
        return self.element({tuple(int(j == i) for j in range(len(self.generators))): 1})

    def gen_index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise RingError(f"unknown generator: {name!r}")

    def has_gen(self, name: str) -> bool:
        return any(g.name == name for g in self.generators)

    # -- grading ------------------------------------------------------

    def monomial_degree(self, exps: ExponentVector) -> int:
        return sum(e * g.degree for e, g in zip(exps, self.generators))

    def degree_basis(self, k: int) -> list[ExponentVector]:
        """All reduced monomials of total degree ``k``, descending-lex order.

        The enumeration is deterministic: exponent vectors are listed in
        descending lexicographic order with respect to the declared
        generator order, so e.g. in ``Q[t,h]`` the degree-4 basis reads
        ``[t^2, t*h, h^2]``.
        """
        out: list[ExponentVector] = []

        def rec(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
            if i == len(self.generators):
                if remaining == 0:
                    out.append(prefix)
                return
            g = self.generators[i]
            top = min(g.truncation - 1, remaining // g.degree)
            for e in range(top, -1, -1):
                rec(i + 1, remaining - e * g.degree, prefix + (e,))

        if k >= 0:
            rec(0, k, ())
        return out

    def monomial_name(self, exps: ExponentVector) -> str:
        parts = []
        for e, g in zip(exps, self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs: object
        if self.coefficients.kind == "mod":
            coeffs = {"mod": self.coefficients.modulus}
        else:
            coeffs = self.coefficients.kind
        return {
            "coefficients": coeffs,
            "generators": [
                {"name": g.name, "degree": g.degree, "truncation": g.truncation}
                for g in self.generators
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "RingPresentation":
        """Read a document of ``docs/schemas/presentation.schema.json``.

        Exactly the documents that schema allows are read: objects with
        exactly the keys it names, integers where it asks for one (an
        integral float such as ``2.0`` counts, a bool or a string does
        not), and ASCII generator names.  A refusal quotes at most
        ``QUOTE_LIMIT`` characters of the offending value.
        """
        _require_keys(data, ("coefficients", "generators"), "ring presentation")
        raw_coeffs, raw_gens = data["coefficients"], data["generators"]
        if raw_coeffs == "Z":
            domain = INTEGERS
        elif raw_coeffs == "Q":
            domain = RATIONALS
        elif isinstance(raw_coeffs, Mapping):
            _require_keys(raw_coeffs, ("mod",), "coefficient spec")
            domain = integers_mod(_schema_int(raw_coeffs["mod"], "mod"))
        else:
            raise RingError(f"unknown coefficient spec: {_quote(raw_coeffs)}")
        if not isinstance(raw_gens, list):
            raise RingError(f"malformed ring presentation: generators {_quote(raw_gens)}")
        if len(raw_gens) > MAX_GENERATORS:
            raise RingError(
                f"a presentation has at most {MAX_GENERATORS} generators, got {len(raw_gens)}"
            )
        gens = []
        for g in raw_gens:
            _require_keys(g, ("name", "degree", "truncation"), "generator entry")
            name = g["name"]
            if not isinstance(name, str) or not name.isascii():
                raise RingError(f"invalid generator name: {_quote(name)}")
            gens.append(
                Generator(
                    name,
                    _schema_int(g["degree"], "degree"),
                    _schema_int(g["truncation"], "truncation"),
                )
            )
        return make_ring(gens, domain)

    def __str__(self) -> str:
        gens = ", ".join(
            f"{g.name}(deg {g.degree}, {g.name}^{g.truncation}=0)"
            for g in self.generators
        )
        return f"{self.coefficients}[{gens}]"


def _require_keys(doc: object, keys: tuple[str, ...], what: str) -> None:
    """Refuse anything but a mapping with exactly ``keys``."""
    if not isinstance(doc, Mapping):
        raise RingError(f"malformed {what}: {_quote(doc)}")
    for key in doc:
        if key not in keys:
            raise RingError(f"malformed {what}: unexpected key {_quote(key)}")
    for key in keys:
        if key not in doc:
            raise RingError(f"malformed {what}: missing {key!r}")


def _schema_int(value: object, what: str) -> int:
    """A JSON Schema integer: an ``int`` or an integral float, not a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise RingError(f"{what} is not an integer: {_quote(value)}")


def make_ring(
    generators: Iterable[Generator | tuple], coefficients: CoefficientDomain
) -> RingPresentation:
    """Validate generator data and return the presentation.

    Tuples ``(name, degree, truncation)`` are accepted as shorthand.
    """
    gens = []
    for g in generators:
        if isinstance(g, Generator):
            gens.append(g)
        else:
            name, degree, truncation = g
            gens.append(Generator(name, degree, truncation))
    return RingPresentation(tuple(gens), coefficients)


class RingElement:
    """A reduced element: a finite map from exponent vectors to coefficients.

    Instances are immutable; every arithmetic operation returns a fresh
    reduced element.  Construct through :meth:`RingPresentation.element`
    and friends rather than directly.
    """

    __slots__ = ("ring", "terms")

    def __init__(
        self, ring: RingPresentation, terms: Mapping[ExponentVector, Coefficient]
    ):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", MappingProxyType(dict(terms)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RingElement is immutable")

    # -- predicates and grading ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """Degree of a homogeneous element (``None`` for the zero element)."""
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise RingError(f"element is not homogeneous: {self}")
        return degs.pop()

    def homogeneous_part(self, k: int) -> "RingElement":
        return RingElement(
            self.ring,
            {e: c for e, c in self.terms.items() if self.ring.monomial_degree(e) == k},
        )

    def degrees(self) -> list[int]:
        return sorted({self.ring.monomial_degree(e) for e in self.terms})

    def coefficient(self, exps: ExponentVector) -> Coefficient:
        return self.terms.get(tuple(exps), 0)

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * len(self.ring.generators), 0)

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "RingElement") -> None:
        if self.ring != other.ring:
            raise RingError(
                f"ring mismatch: {self.ring} vs {other.ring}"
            )

    def __add__(self, other: object) -> "RingElement":
        other = self._as_element(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) + c
        return self.ring._reduced(merged)

    __radd__ = __add__

    def __neg__(self) -> "RingElement":
        return self.ring._reduced({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: object) -> "RingElement":
        return self + (-self._as_element(other))

    def __rsub__(self, other: object) -> "RingElement":
        return self._as_element(other) - self

    def __mul__(self, other: object) -> "RingElement":
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            scal = self.ring.coefficients.coerce(other)
            return self.ring._reduced({e: c * scal for e, c in self.terms.items()})
        other = self._as_element(other)
        prod: dict[ExponentVector, Coefficient] = {}
        truncs = tuple(g.truncation for g in self.ring.generators)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if any(map(ge, e, truncs)):
                    continue
                prod[e] = prod.get(e, 0) + c1 * c2
        return self.ring._reduced(prod)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RingElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise RingError(f"exponent must be a nonnegative integer: {exponent!r}")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _as_element(self, other: object) -> "RingElement":
        if isinstance(other, RingElement):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.ring.scalar(other)
        raise RingError(f"cannot combine ring element with {other!r}")

    # -- evaluation ----------------------------------------------------

    def evaluate(self, values: Mapping[str, object]) -> Coefficient:
        """Evaluate the canonical representative at the given point.

        Every generator must be assigned a value in the coefficient
        domain.  Only the generators with a nonzero exponent in a term
        are multiplied into it.  Note this evaluates the *reduced*
        representative, which agrees with the underlying polynomial only
        when no truncation relation was used to reduce it.
        """
        assignment = []
        for g in self.ring.generators:
            if g.name not in values:
                raise RingError(f"no value for generator {g.name!r}")
            assignment.append(self.ring.coefficients.coerce(values[g.name]))
        total: Coefficient = 0
        for exps, c in self.terms.items():
            term = c
            for v, e in compress(zip(assignment, exps), exps):
                term *= v if e == 1 else v**e
            total += term
        return self.ring.coefficients.coerce(total)

    # -- comparison / display -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            try:
                other = self.ring.scalar(other)
            except RingError:
                return NotImplemented
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def sorted_terms(self) -> Iterator[tuple[ExponentVector, Coefficient]]:
        """Terms by ascending degree, descending-lex within a degree."""
        key = lambda item: (
            self.ring.monomial_degree(item[0]),
            tuple(-e for e in item[0]),
        )
        return iter(sorted(self.terms.items(), key=key))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = self.ring.monomial_name(exps)
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

    def __repr__(self) -> str:
        return f"<RingElement {self} in {self.ring}>"
