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
builds over Z and over Q.

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
:func:`cokernel` take the cup matrix and what the solvers read of its
Smith form from :func:`factored_cup`, which keeps one
``(CupMatrix, Solve)`` per content key in a bounded LRU memo
(``FACTORED_CUP_MEMO`` entries).  The key is the coefficient domain,
each generator's degree with its truncation capped at what degree ``k``
can reach, the terms of ``e`` (its
:meth:`~crchern.cohomology.ring.RingElement.content_key`, built once per
class), and ``k``: together they fix both degree bases and every entry, so
CP^n and CP^(n+1) share their degree-k entries, and generator names do
not matter.  The memo is a pure function of its key: it rebuilds the
ring and ``e`` from it.  A factorization depends on the integer matrix
alone, which many keys share (``verify thm-1-2 --n-max 28`` has 263
keys and 11 distinct matrices), so the :data:`Solve` of a matrix is
kept in a second memo of the same bound, keyed by the
:class:`~crchern.cohomology.snf.IntegerMatrix` value: one Smith form
per distinct matrix.  Shared values are immutable.
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
from .snf import IntegerMatrix, invariant_factors, smith_normal_form

EULER_SIGN_CONVENTION = "cup-with-e-as-given"
# Distinct cup-matrix contents (and, separately, distinct integer matrices)
# held at once; ``verify thm-1-2 --n-max 40`` asks for a few hundred.
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


# What the solvers read of the Smith form ``U A V = D`` of an integer
# matrix A with rank r: ``(U, factors, L, rows)``, where ``factors`` are
# the invariant factors d_1 | ... | d_r, ``L = lcm(1, d_1, ..., d_r)`` and
# ``rows`` holds ``(j, row)`` for each nonzero row j of
# ``V diag(L/d_i) U[:r]``, in index order.  ``A x = b`` is solvable over Q
# exactly when ``U[r:] b = 0``, and then ``x_j = row . b / L``
# (0 where no row is kept).
Solve = tuple[IntegerMatrix, tuple[int, ...], int, tuple[tuple[int, tuple[int, ...]], ...]]
# A cup matrix and the solve of its integer matrix.
FactoredCup = tuple[CupMatrix, Solve]


def cup_matrix(ring: RingPresentation, e: RingElement, k: int) -> CupMatrix:
    """Matrix of ``x -> e * x`` from ``degree_basis(k-2)`` to ``degree_basis(k)``.

    Column j holds e's terms shifted by the j-th column monomial; a
    shifted monomial missing from the row basis is truncated to zero.
    ``e`` must be a class of ``ring`` of degree 2 or zero; the one caller,
    the memo behind :func:`factored_cup`, checks both.
    """
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
def _solve(A: IntegerMatrix) -> Solve:
    # module global, looked up per call, so that rebinding it (tracing)
    # sees every miss
    U, D, V = smith_normal_form(A)
    factors = invariant_factors(D)
    L = lcm(1, *factors)
    # diag(L/d_i) U[:r] and its columns; with r = 0 there are no columns,
    # and every row of the product is zero
    scaled = [[L // d * u for u in row] for d, row in zip(factors, U.entries)]
    columns = list(zip(*scaled))
    rows = []
    for j, v in enumerate(V.entries):
        row = tuple(sum(map(mul, v, column)) for column in columns)
        if any(row):
            rows.append((j, row))
    return U, factors, L, tuple(rows)


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
    # a module global, looked up per call, as in _solve
    cup = cup_matrix(ring, e, k)
    return cup, _solve(cup.matrix)


def factored_cup(ring: RingPresentation, e: RingElement, k: int) -> FactoredCup:
    """:func:`cup_matrix` and the :data:`Solve` of its integer matrix.

    Equal to a fresh ``cup_matrix(ring, e, k)`` and the ``(U, factors,
    L, rows)`` read off ``smith_normal_form`` of its matrix.  The result
    is shared with every call of the same content key, and its solve with
    every key of an equal matrix (see the module docstring); neither may
    be mutated.
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
    :func:`factored_cup`.  A Z ring raises ``RingError``: over Z the
    class of ``beta`` in :func:`cokernel` is zero exactly when ``beta``
    lies in the image.
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

    cup, (U, factors, L, rows) = factored_cup(ring, e, k)
    b = _element_vector(beta, cup.basis_rows)
    # Clear target denominators; over Q membership is scale-invariant.
    b_scale = lcm(1, *(x.denominator for x in b))
    if b_scale != 1:
        b = [x.numerator * (b_scale // x.denominator) for x in b]

    rank = len(factors)
    residue = tuple(
        (i, y, 0)
        for i, u in enumerate(U.entries[rank:], rank)
        if (y := sum(map(mul, u, b)))
    )
    if residue:
        return MembershipCertificate(
            k,
            residue=residue,
            invariant_factors=factors,
            denominator_scale=cup.denominator_scale,
        )
    # x = (row . b) / L solves A_int x = b_int; undo the two clearings,
    # A_int = scale * A and b_int = b_scale * b.  The columns are reduced
    # monomials of ``ring``, so ``element``'s checks would find nothing.
    denom = L * b_scale
    scale = cup.denominator_scale
    cols = cup.basis_cols
    coeffs = {}
    for j, row in rows:
        if v := sum(map(mul, row, b)):
            v *= scale
            coeffs[cols[j]] = v // denom if v % denom == 0 else Fraction(v, denom)
    return MembershipCertificate(
        k,
        preimage=ring._reduced(coeffs),
        invariant_factors=factors,
        denominator_scale=scale,
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

    def class_of_vector(self, vec: list[int]) -> tuple[int, ...]:
        """Coordinates of the class of an integer vector over ``basis``."""
        y = self.row_transform.matvec(vec)
        torsion = [y[i] % d for i, d in enumerate(self.invariant_factors)]
        free = list(y[len(self.invariant_factors):])
        return tuple(torsion + free)

    def class_of_element(self, beta: RingElement) -> tuple[int, ...]:
        """Class of ``beta``, a class over Z; a class over Q, or with support
        outside ``basis``, raises ``RingError``."""
        if beta.ring.coefficients.kind != "Z":
            raise RingError("a cokernel class is read over Z, got a class over Q")
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
    cup, (U, factors, _L, _rows) = factored_cup(ring, e, k)
    return CokernelData(factors, cup.basis_rows, row_transform=U)
