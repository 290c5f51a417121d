"""Cup-product matrices, image membership, and cokernels.

For a circle bundle with Euler class ``e`` the degree-``k`` kernel of
the pullback to the total space equals the image of cup product with
``e`` from degree ``k-2``.  Everything a verification needs about
classes on the total space therefore reduces to exact linear algebra
against that image, each question in the one domain it is asked in:
:func:`image_membership` decides membership over Q, where the
real-cohomology statements live, and :func:`cokernel` gives
``H^k / Im(. cup e)`` over Z, where the class of ``beta`` is zero
exactly when ``beta`` lies in the integral image.  :func:`cup_matrix`
builds over any domain.

Sign convention: the multiplication map is taken literally as
``x -> e * x`` with ``e`` exactly as supplied (no sign is inserted).
Membership and cokernel answers are invariant under replacing ``e`` by
``-e``; certificates write the convention under ``euler_sign``.

Verdicts are read off evidence, never stored: a membership verdict is
whether the certificate holds a preimage, and a cokernel's free rank
and basis classes come from its invariant factors, basis and row
transform.  A class is read into coordinates by one reader, the one
membership uses, which refuses support outside the degree basis.

Shared work: a sweep asks about the same cup matrix many times (every
``n >= k`` of a family, every Euler class of one base).  Membership and
:func:`cokernel` take the cup matrix, its Smith form and its invariant
factors from :func:`factored_cup`, which keeps one
``(CupMatrix, (U, D, V), invariant factors)`` per content key in a
bounded LRU memo (``FACTORED_CUP_MEMO`` entries).  The key is the
coefficient domain, each generator's degree with its truncation capped
at what degree ``k`` can reach, the terms of ``e`` (its
:meth:`~crchern.cohomology.ring.RingElement.content_key`, built once per
class), and ``k``: together they fix both degree bases and every entry, so
CP^n and CP^(n+1) share their degree-k entries, and generator names do
not matter.  The memo is a pure function of its key: it rebuilds the
ring and ``e`` from it.  Shared values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, lt, mul

from .ring import (
    CoefficientDomain,
    ExponentVector,
    Generator,
    Record,
    RingElement,
    RingError,
    RingPresentation,
)
from .snf import (
    IntegerMatrix,
    _back_substitute,
    invariant_factors,
    smith_normal_form,
)

SmithForm = tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]  # (U, D, V)
EULER_SIGN_CONVENTION = "cup-with-e-as-given"
# Distinct cup-matrix contents held at once; ``verify thm-1-2 --n-max 40``
# factors a few hundred.
FACTORED_CUP_MEMO = 1024


class CupMatrix(Record):
    """Multiplication by a degree-2 class between two degree bases.

    ``matrix`` holds integer entries equal to ``denominator_scale``
    times the exact entries; the scale is 1 unless the class had
    rational coefficients.  Row ``i``/column ``j`` index the enumerated
    bases of degree ``k`` and ``k-2``.
    """

    __slots__ = ("matrix", "basis_rows", "basis_cols", "denominator_scale")

    def __init__(
        self,
        matrix: IntegerMatrix,
        basis_rows: tuple[ExponentVector, ...],
        basis_cols: tuple[ExponentVector, ...],
        denominator_scale: int,
    ) -> None:
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "basis_rows", basis_rows)
        object.__setattr__(self, "basis_cols", basis_cols)
        object.__setattr__(self, "denominator_scale", denominator_scale)


# A cup matrix, its Smith form and that form's invariant factors.
FactoredCup = tuple[CupMatrix, SmithForm, tuple[int, ...]]


def cup_matrix(ring: RingPresentation, e: RingElement, k: int) -> CupMatrix:
    """Matrix of ``x -> e * x`` from ``degree_basis(k-2)`` to ``degree_basis(k)``.

    Column j holds e's terms shifted by the j-th column monomial; a
    shifted monomial missing from the row basis is truncated to zero.
    """
    if e.ring != ring:
        raise RingError("class does not belong to the given ring")
    if not e.is_zero() and e.homogeneous_degree() != 2:
        raise RingError(f"cup class must be homogeneous of degree 2, got {e}")
    rows = tuple(ring.degree_basis(k))
    cols = tuple(ring.degree_basis(k - 2))
    row_index = {m: i for i, m in enumerate(rows)}

    shifts = list(e.terms)
    cells: list[tuple[int, int, int]] = []  # (row, column, term of e)
    for j, mono in enumerate(cols):
        for t, exps in enumerate(shifts):
            i = row_index.get(tuple(map(add, mono, exps)))
            if i is not None:
                cells.append((i, j, t))
    coeffs = list(e.terms.values())
    landed = {t for _, _, t in cells}
    scale = lcm(1, *(coeffs[t].denominator for t in landed))
    scaled = {t: int(coeffs[t] * scale) for t in landed}

    entries = [[0] * len(cols) for _ in range(len(rows))]
    for i, j, t in cells:
        entries[i][j] = scaled[t]
    matrix = IntegerMatrix(len(rows), len(cols), tuple(map(tuple, entries)))
    return CupMatrix(matrix, rows, cols, scale)


@lru_cache(maxsize=FACTORED_CUP_MEMO)
def _factor(
    domain: CoefficientDomain, reach: tuple, terms: frozenset, k: int
) -> FactoredCup:
    # The ring and e are rebuilt from the key; a term of e above a capped
    # truncation cannot reach degree k, so dropping it changes no entry.
    degrees = [d for d, _ in reach]
    if any(sum(map(mul, exps, degrees)) != 2 for exps, _ in terms):
        raise RingError("cup class must be homogeneous of degree 2")
    truncs = [t for _, t in reach]
    ring = RingPresentation(
        tuple(Generator(f"g{i}", d, t) for i, (d, t) in enumerate(reach)), domain
    )
    e = ring._reduced({x: c for x, c in terms if all(map(lt, x, truncs))})
    # module globals, looked up per call, so that rebinding them (tracing)
    # sees every miss
    cup = cup_matrix(ring, e, k)
    U, D, V = smith_normal_form(cup.matrix)
    return cup, (U, D, V), invariant_factors(D)


def factored_cup(ring: RingPresentation, e: RingElement, k: int) -> FactoredCup:
    """:func:`cup_matrix`, its Smith form ``(U, D, V)`` and ``invariant_factors(D)``.

    Equal to a fresh ``cup_matrix(ring, e, k)``, ``smith_normal_form``
    of its matrix and the invariant factors of that form.  The result
    is shared with every call of the same content key (see the module
    docstring) and must not be mutated.
    ``e.ring != ring`` raises on every call, and so does an ``e`` that
    is not homogeneous of degree 2: the memo keeps no exception.
    """
    if e.ring != ring:
        raise RingError("class does not belong to the given ring")
    try:
        return _factor(ring.coefficients, ring.reach(k), e.content_key(), k)
    except RingError as exc:  # the key has no generator names; name the class
        raise RingError(f"{exc}, got {e}") from None


class MembershipCertificate(Record):
    """Outcome of an image-membership query, with a checkable witness.

    The verdict is not stored: ``member`` is read off the witness, true
    exactly when there is a ``preimage``, which satisfies
    ``e * preimage = target`` exactly.  Otherwise ``residue`` holds the
    obstruction read off the Smith decomposition of the
    (denominator-cleared) cup matrix: the coordinates of ``U * target``
    that are nonzero beyond the rank.
    """

    __slots__ = (
        "degree",
        "preimage",
        "residue",
        "invariant_factors",
        "denominator_scale",
    )

    def __init__(
        self,
        degree: int,
        preimage: RingElement | None = None,
        residue: tuple = (),
        invariant_factors: tuple[int, ...] = (),
        denominator_scale: int = 1,
    ) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "preimage", preimage)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "denominator_scale", denominator_scale)

    @property
    def member(self) -> bool:
        return self.preimage is not None

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "degree": self.degree,
            "preimage": None if self.preimage is None else str(self.preimage),
            "residue": [str(x) for x in self.residue],
            "invariant_factors": list(self.invariant_factors),
            "denominator_scale": self.denominator_scale,
            "euler_sign": EULER_SIGN_CONVENTION,
        }


def _element_vector(beta: RingElement, basis: tuple[ExponentVector, ...]) -> list:
    terms = beta.terms
    vec = [terms.get(m, 0) for m in basis]
    if sum(map(terms.__contains__, basis)) != len(terms):
        raise RingError("element has support outside the expected degree basis")
    return vec


def image_membership(
    ring: RingPresentation, e: RingElement, beta: RingElement
) -> MembershipCertificate:
    """Decide over Q whether ``beta`` lies in the image of cup product with ``e``.

    One exact rational solve against the shared factorization of
    :func:`factored_cup`.  A Z or Z/m ring raises ``RingError``: over Z
    the class of ``beta`` in :func:`cokernel` is zero exactly when
    ``beta`` lies in the image.
    """
    if ring.coefficients.kind != "Q":
        raise RingError(
            "membership is decided over Q; over Z read the class in cokernel()"
        )
    if beta.ring != ring:
        raise RingError("element does not belong to the given ring")
    degrees = beta.degrees()
    if len(degrees) > 1:
        raise RingError(f"membership target must be homogeneous: {beta}")
    if not degrees:
        return MembershipCertificate(0, preimage=ring.zero())
    (k,) = degrees

    cup, (U, _D, V), factors = factored_cup(ring, e, k)
    b = _element_vector(beta, cup.basis_rows)
    # Clear target denominators; over Q membership is scale-invariant.
    b_scale = lcm(1, *(x.denominator for x in b))
    b_int = (
        b if b_scale == 1 else [x.numerator * (b_scale // x.denominator) for x in b]
    )

    residue, num, L = _back_substitute(U, factors, V, b_int, integral=False)
    if residue:
        return MembershipCertificate(
            k,
            residue=tuple(residue),
            invariant_factors=factors,
            denominator_scale=cup.denominator_scale,
        )
    # x = num / L solves A_int x = b_int; undo the two clearings,
    # A_int = scale * A and b_int = b_scale * b.  The columns are reduced
    # monomials of ``ring``, so ``element``'s checks would find nothing.
    denom = L * b_scale
    coeffs = {}
    for mono, v in zip(cup.basis_cols, num):
        if v:
            v *= cup.denominator_scale
            coeffs[mono] = v // denom if v % denom == 0 else Fraction(v, denom)
    return MembershipCertificate(
        k,
        preimage=ring._reduced(coeffs),
        invariant_factors=factors,
        denominator_scale=cup.denominator_scale,
    )


class CokernelData(Record, hidden=("row_transform",)):
    """Cokernel of cup product with an integral class in a fixed degree.

    The group is ``Z^free_rank (+) sum_i Z/d_i`` over the listed
    invariant factors (units included, so the tuple length equals the
    rank of the cup matrix).  ``generator_classes`` maps each degree-k
    basis monomial to its coordinates: one residue per invariant factor
    followed by ``free_rank`` integers.  Both are read off the stored
    factors, basis and row transform, never stored beside them.
    """

    __slots__ = ("invariant_factors", "basis", "row_transform")

    def __init__(
        self,
        invariant_factors: tuple[int, ...],
        basis: tuple[ExponentVector, ...],
        row_transform: IntegerMatrix,
    ) -> None:
        object.__setattr__(self, "invariant_factors", invariant_factors)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "row_transform", row_transform)

    @property
    def free_rank(self) -> int:
        return len(self.basis) - len(self.invariant_factors)

    @property
    def generator_classes(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.basis)
        return tuple(
            self.class_of_vector([int(i == j) for i in range(n)]) for j in range(n)
        )

    def order(self) -> int | None:
        """Group order, or ``None`` when the cokernel is infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def class_of_vector(self, vec: list[int]) -> tuple[int, ...]:
        """Coordinates of the class of an integer vector over ``basis``."""
        for v in vec:
            if not isinstance(v, int) or isinstance(v, bool):
                raise RingError(f"cokernel coordinate is not an exact integer: {v!r}")
        y = self.row_transform.matvec(vec)
        torsion = [y[i] % d for i, d in enumerate(self.invariant_factors)]
        free = list(y[len(self.invariant_factors):])
        return tuple(torsion + free)

    def class_of_element(self, beta: RingElement) -> tuple[int, ...]:
        """Class of ``beta``; support outside ``basis`` raises ``RingError``."""
        return self.class_of_vector(_element_vector(beta, self.basis))

    def to_json_dict(self) -> dict:
        return {
            "invariant_factors": list(self.invariant_factors),
            "free_rank": self.free_rank,
            "basis": [list(m) for m in self.basis],
            "generator_classes": [list(c) for c in self.generator_classes],
            "euler_sign": EULER_SIGN_CONVENTION,
        }


def cokernel(ring: RingPresentation, e: RingElement, k: int) -> CokernelData:
    """Invariant factors and basis classes of ``H^k / Im(. cup e)`` over Z."""
    if ring.coefficients.kind != "Z":
        raise RingError("cokernel computation requires integer coefficients")
    cup, (U, _D, _V), factors = factored_cup(ring, e, k)
    return CokernelData(factors, cup.basis_rows, row_transform=U)
