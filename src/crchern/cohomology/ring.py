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

Every value's fields are fixed by its constructor, and every operation
is a pure function of them.  A few derived caches fill on first use: a
ring's ``reach`` table (``RingPresentation._reach``) and monomial
names (``RingPresentation._monomials``), and an element's content key
(``RingElement._content_key``).  Each holds only what the fields
determine, and each fill is a single dict or slot store of a value built
first, so threads that race on one store equal values: the values here
are safe to share across threads.  Equality, hashing, ``repr``, copying
and ``replace`` leave these caches out.  The package's records derive
from :class:`Record`: their fields are slots set once by the constructor
after its checks, and assigning or deleting an attribute raises
``AttributeError``; :class:`RingElement` refuses assignment the same way.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import lcm, prod
from operator import attrgetter, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Mapping


class RingError(ValueError):
    """Invalid ring construction, coefficient, or operand mismatch."""


# The most generators a JSON presentation may have; its schema carries
# the same ``maxItems``.  Every element of a ring walks all its
# generators, so a longer list would cost time the parser's step bound
# does not see.  The largest preset ring has 31 (``nilsquare:24`` plus
# the seven other preset names); rings built in code are not bounded.
MAX_GENERATORS = 64


# The element grammar's two lexical classes (docs/grammar.ebnf), ASCII
# only, each applied to a whole string with ``fullmatch``.  Generator
# names, the parser's scanner and the preset arguments use these alone;
# the presentation schema's name pattern is ``NAME`` anchored.
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
INTEGER = re.compile(r"[0-9]+")


def read_integer(text: str) -> int:
    """``int(text)`` if ``INTEGER`` matches ``text`` whole, else ``ValueError``."""
    if not INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# The most characters of an offending value an error message quotes, so
# that the refusal of a huge input stays one short line.
QUOTE_LIMIT = 80

Coefficient = int | Fraction
ExponentVector = tuple[int, ...]


def quote(value: object) -> str:
    """``repr(value)`` cut to ``QUOTE_LIMIT`` characters: how every refusal names its input."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


class Record:
    """Base of the package's immutable records.

    A record lists its fields in ``__slots__``, in constructor order, and
    its ``__init__`` sets them through ``object.__setattr__`` after its
    checks; a slot whose name starts with ``_`` holds state derived from
    the fields, which equality, hashing, ``repr``, copying and
    :meth:`replace` leave out.  Assigning or deleting an attribute raises
    ``AttributeError``.  Two records are equal when they are of one type
    with equal fields, and equal records hash alike; copy and pickle go
    through the constructor, so a copy passes the same checks.
    ``hidden`` names fields that ``repr`` leaves out.
    """

    __slots__ = ()
    fields: tuple[str, ...] = ()  # the field names, in constructor order

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._shown = tuple(name for name in cls.fields if name not in hidden)
        # the field values: a tuple, or the one value of a one-field record
        cls._values = attrgetter(*cls.fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        # the default slot restore would go through __setattr__ above
        return type(self), tuple(getattr(self, name) for name in self.fields)

    def replace(self, **changes: object) -> "Record":
        """A record of this type with ``changes`` in place of those fields."""
        return type(self)(**{**{name: getattr(self, name) for name in self.fields}, **changes})

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class CoefficientDomain(Record):
    """Exact coefficient system: ``Z`` or ``Q``."""

    __slots__ = ("kind",)  # "Z" | "Q"

    def __init__(self, kind: str) -> None:
        if kind not in ("Z", "Q"):
            raise RingError(f"unknown coefficient domain kind: {kind!r}")
        object.__setattr__(self, "kind", kind)

    def coerce(self, value: object) -> Coefficient:
        """Return the canonical representative of ``value``, or raise.

        Over Q that is an ``int`` for an integral value and a
        ``Fraction`` with denominator > 1 otherwise; over Z an ``int``.
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
        return value

    def __str__(self) -> str:
        return self.kind


INTEGERS = CoefficientDomain("Z")
RATIONALS = CoefficientDomain("Q")


class Generator(Record):
    """A ring generator ``name`` of even degree with ``name**truncation = 0``.
    ``name`` is a string that ``NAME`` matches whole."""

    __slots__ = ("name", "degree", "truncation")

    def __init__(self, name: str, degree: int, truncation: int) -> None:
        if not isinstance(name, str) or not NAME.fullmatch(name):
            raise RingError(f"invalid generator name: {quote(name)}")
        if degree <= 0 or degree % 2 != 0:
            raise RingError(
                f"generator {quote(name)} must have even positive degree, "
                f"got {quote(degree)}"
            )
        if truncation < 1:
            raise RingError(
                f"generator {quote(name)} needs truncation >= 1, "
                f"got {quote(truncation)}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "truncation", truncation)


class RingPresentation(Record):
    """Tensor product of one-generator truncated rings over an exact domain."""

    __slots__ = ("generators", "coefficients", "_reach", "_monomials")

    def __init__(
        self, generators: tuple[Generator, ...], coefficients: CoefficientDomain
    ) -> None:
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise RingError(f"duplicate generator name in {quote(names)}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "_reach", {})  # degree -> reach(degree)
        object.__setattr__(self, "_monomials", {})  # exponents -> monomial(exponents)

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

        The one place where coefficients are canonicalised: a ``Fraction``
        with denominator 1 becomes its numerator, so integral values are
        ``int``; over Z every coefficient is already one.  The exponent
        vectors must already be valid and reduced, and are not checked again.
        :meth:`element` checks raw input, and arithmetic on reduced operands
        of this ring keeps them so.  The membership solve
        (:func:`~crchern.cohomology.gysin.image_membership`) builds its
        preimage on the column monomials of its cup matrix: a degree basis
        of this ring's generators with each truncation capped at most at
        this ring's, so every exponent is already below its truncation.
        Coefficients must be ``int`` or ``Fraction``, and ``int`` over Z.
        """
        canonical = {
            e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for e, c in terms.items()
            if c
        }
        return RingElement(self, canonical)

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.scalar(1)

    # ``scalar`` and ``gen`` build their exponent vectors reduced, so they
    # skip :meth:`element`'s checks; ``scalar`` still coerces its value.

    def scalar(self, value: object) -> "RingElement":
        zero_exp = (0,) * len(self.generators)
        return self._reduced({zero_exp: self.coefficients.coerce(value)})

    def gen(self, name: str) -> "RingElement":
        i = self.gen_index(name)
        if self.generators[i].truncation == 1:
            return self.zero()  # g^1 = 0 in k[g]/(g)
        exps = (0,) * i + (1,) + (0,) * (len(self.generators) - i - 1)
        return self._reduced({exps: 1})

    def gen_index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise RingError(f"unknown generator: {name!r}")

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
        if k < 0 or not self.generators:
            return [()] if k == 0 else []
        *head, last = self.generators
        # each prefix with the degree left for the generators after it,
        # its exponents descending at every position
        prefixes: list[tuple[tuple[int, ...], int]] = [((), k)]
        for g in head:
            prefixes = [
                (prefix + (e,), left - e * g.degree)
                for prefix, left in prefixes
                for e in range(min(g.truncation - 1, left // g.degree), -1, -1)
            ]
        # the last exponent is what the degree left fixes
        out: list[ExponentVector] = []
        for prefix, left in prefixes:
            e, rest = divmod(left, last.degree)
            if not rest and e < last.truncation:
                out.append(prefix + (e,))
        return out

    def reach(self, k: int) -> tuple[tuple[int, int], ...]:
        """``(degree, truncation)`` of each generator, the truncation capped
        at ``k // degree + 1`` (and at least 1): what a monomial of degree
        ``k`` can reach.  Built once per ``k`` and kept."""
        try:
            return self._reach[k]
        except KeyError:
            reach = tuple(
                (g.degree, max(1, min(g.truncation, k // g.degree + 1)))
                for g in self.generators
            )
            self._reach[k] = reach
            return reach

    def monomial(self, exps: ExponentVector) -> tuple[int, str]:
        """``(degree, name)`` of the monomial ``exps``: ``t^2*h`` for exponents
        ``(2, 1)`` on generators ``t, h``, ``1`` for none.  Built once per
        monomial and kept."""
        try:
            return self._monomials[exps]
        except KeyError:
            gens = self.generators
            name = "*".join(
                [g.name if e == 1 else f"{g.name}^{e}" for g, e in zip(gens, exps) if e]
            )
            entry = self.monomial_degree(exps), name or "1"
            self._monomials[exps] = entry
            return entry

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "coefficients": self.coefficients.kind,
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
        not), and generator names that ``NAME`` matches.  A refusal
        quotes at most ``QUOTE_LIMIT`` characters of the offending value.
        """
        _require_keys(data, ("coefficients", "generators"), "ring presentation")
        raw_coeffs, raw_gens = data["coefficients"], data["generators"]
        if raw_coeffs == "Z":
            domain = INTEGERS
        elif raw_coeffs == "Q":
            domain = RATIONALS
        else:
            raise RingError(f"unknown coefficient spec: {quote(raw_coeffs)}")
        if not isinstance(raw_gens, list):
            raise RingError(f"malformed ring presentation: generators {quote(raw_gens)}")
        if len(raw_gens) > MAX_GENERATORS:
            raise RingError(
                f"a presentation has at most {MAX_GENERATORS} generators, got {len(raw_gens)}"
            )
        gens = []
        for g in raw_gens:
            _require_keys(g, ("name", "degree", "truncation"), "generator entry")
            gens.append(
                Generator(
                    g["name"],
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
        raise RingError(f"malformed {what}: {quote(doc)}")
    for key in doc:
        if key not in keys:
            raise RingError(f"malformed {what}: unexpected key {quote(key)}")
    for key in keys:
        if key not in doc:
            raise RingError(f"malformed {what}: missing {key!r}")


def schema_int(value: object) -> int | None:
    """A JSON Schema integer as an ``int``, else ``None``.

    An ``int`` or an integral float (``2.0`` counts), never a bool; the
    presentation and scenario readers share this rule.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _schema_int(value: object, what: str) -> int:
    n = schema_int(value)
    if n is None:
        raise RingError(f"{what} is not an integer: {quote(value)}")
    return n


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
    and friends rather than directly.  The third slot holds the content
    key of :meth:`content_key` once it has been asked for.
    """

    __slots__ = ("ring", "terms", "_content_key")

    def __init__(
        self, ring: RingPresentation, terms: Mapping[ExponentVector, Coefficient]
    ):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", MappingProxyType(dict(terms)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RingElement is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("RingElement is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the checked constructor;
        # the default slot restore would go through __setattr__ above.
        return self.ring.element, (dict(self.terms),)

    # -- predicates and grading ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_part(self, k: int) -> "RingElement":
        return RingElement(
            self.ring,
            {e: c for e, c in self.terms.items() if self.ring.monomial_degree(e) == k},
        )

    def degrees(self) -> list[int]:
        degrees = [g.degree for g in self.ring.generators]
        return sorted({sum(map(mul, e, degrees)) for e in self.terms})

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
        other = self._as_element(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) - c
        return self.ring._reduced(merged)

    def __rsub__(self, other: object) -> "RingElement":
        return self._as_element(other) - self

    def __mul__(self, other: object) -> "RingElement":
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            scal = self.ring.coefficients.coerce(other)
            return self.ring._reduced({e: c * scal for e, c in self.terms.items()})
        other = self._as_element(other)
        # Walk the support of the operand with fewer terms: each of its
        # monomials adds into a copy of the other's exponent vector only
        # where it has a nonzero exponent, and checks only those truncations.
        short, long = self.terms, other.terms
        if len(short) > len(long):
            short, long = long, short
        gens = self.ring.generators
        product: dict[ExponentVector, Coefficient] = {}
        for e1, c1 in short.items():
            support = [
                (i, x, gens[i].truncation - x) for i, x in compress(enumerate(e1), e1)
            ]
            for e2, c2 in long.items():
                e = list(e2)
                for i, x, room in support:
                    if e[i] >= room:
                        break  # the monomial is zero in the quotient
                    e[i] += x
                else:
                    key = tuple(e)
                    product[key] = product.get(key, 0) + c1 * c2
        return self.ring._reduced(product)

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
            e >>= 1
            if e:  # the top bit's square would go unused
                base = base * base
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
        domain, whether or not it occurs in a term.  The sum is taken in
        integers over one common denominator: a generator with value
        ``p/q`` and top exponent ``T`` over the terms contributes
        ``p^e * q^(T-e)`` to a term with exponent ``e``, read from one
        table of powers, and each coefficient is scaled to the lcm of the
        coefficient denominators.  A generator that occurs in no term
        contributes nothing.  Note this evaluates the *reduced*
        representative, which agrees with the underlying polynomial only
        when no truncation relation was used to reduce it.
        """
        domain = self.ring.coefficients
        point = []
        for g in self.ring.generators:
            if g.name not in values:
                raise RingError(f"no value for generator {g.name!r}")
            point.append(domain.coerce(values[g.name]))
        terms = self.terms
        coefficient_lcm = lcm(*(c.denominator for c in terms.values()))
        point_denominator = 1
        tables = []  # (generator index, [p^e * q^(T-e) for e = 0..T])
        for i, top in enumerate(map(max, zip(*terms))):
            if top:
                p, q = point[i].numerator, point[i].denominator
                tables.append((i, [p**e * q ** (top - e) for e in range(top + 1)]))
                point_denominator *= q**top
        total = sum(
            c.numerator
            * (coefficient_lcm // c.denominator)
            * prod(table[exps[i]] for i, table in tables)
            for exps, c in terms.items()
        )
        return domain.coerce(Fraction(total, coefficient_lcm * point_denominator))

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
        return hash((self.ring, self.content_key()))

    def content_key(self) -> frozenset:
        """The terms as a hashable value, ``frozenset(terms.items())``, built once.

        Equal elements of one ring have equal keys, however they were built.
        """
        try:
            return self._content_key
        except AttributeError:
            key = frozenset(self.terms.items())
            object.__setattr__(self, "_content_key", key)
            return key

    def __str__(self) -> str:
        """The terms by ascending degree, descending-lex within a degree:
        ``1 + 3*t - 1/2*t^2``."""
        if not self.terms:
            return "0"
        monomial = self.ring.monomial
        # Descending-lex first (exponent vectors are unique, so no two
        # coefficients are compared); the stable sort by degree, needed only
        # when the degrees differ, keeps that order within each degree.
        rows = [  # (degree, monomial name, coefficient)
            (*monomial(exps), c) for exps, c in sorted(self.terms.items(), reverse=True)
        ]
        degree = rows[0][0]
        if len(rows) > 1 and any(row[0] != degree for row in rows):
            rows.sort(key=itemgetter(0))
        chunks: list[str] = []
        for _, mono, c in rows:
            # a Fraction coefficient has denominator > 1 (see RingPresentation._reduced)
            text = f"{c.numerator}/{c.denominator}" if type(c) is Fraction else str(c)
            if mono != "1":
                text = mono if text == "1" else "-" + mono if text == "-1" else f"{text}*{mono}"
            if not chunks:
                chunks.append(text)
            elif text[0] == "-":
                chunks.append("- " + text[1:])
            else:
                chunks.append("+ " + text)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<RingElement {self} in {self.ring}>"
