"""References that the tests hold the package to.

No command needs these, so they live with the tests: building and
reading :class:`~crchern.cohomology.snf.IntegerMatrix` values, their
product, a Bareiss determinant, an integer solve of ``A x = b``
through the package's Smith form that checks divisibility of ``U b``
itself, and a rational solve by ``Fraction`` back-substitution through
that form, each taking matrices by value and returning fresh values; and
the manifest dict of a run, whose standard-library encoding a JSON
manifest must be.
"""

from __future__ import annotations

from fractions import Fraction
from json import dumps

from crchern import __version__
from crchern.chern.report import CheckReport
from crchern.cohomology.snf import IntegerMatrix, invariant_factors, smith_normal_form


def manifest_dict(command: list[str], reports: list[CheckReport], seed: int) -> dict:
    """The manifest dict of a ``--no-timestamp`` run, its reports ordered by
    check and then params: ``json.dumps(manifest_dict(...), indent=2,
    sort_keys=True)`` and a newline is what the run writes as JSON."""
    reports = sorted(reports, key=lambda r: (r.check, dumps(r.params, sort_keys=True)))
    return {
        "tool": "crchern",
        "version": __version__,
        "command": command,
        "seed": seed,
        "status": "pass" if all(r.passed for r in reports) else "fail",
        "reports": [r.to_json_dict() for r in reports],
    }


def from_rows(rows: list[list[int]]) -> IntegerMatrix:
    """The matrix of ``rows``, whose entries must already be exact ``int``s."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    return IntegerMatrix(m, n, tuple(map(tuple, rows)))


def zero(m: int, n: int) -> IntegerMatrix:
    return IntegerMatrix(m, n, tuple(tuple(0 for _ in range(n)) for _ in range(m)))


def to_lists(A: IntegerMatrix) -> list[list[int]]:
    return [list(r) for r in A.entries]


def is_zero(A: IntegerMatrix) -> bool:
    return all(x == 0 for row in A.entries for x in row)


def matmul(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    if A.cols != B.rows:
        raise ValueError("dimension mismatch in matrix product")
    entries = tuple(
        tuple(sum(A.entries[i][k] * B.entries[k][j] for k in range(A.cols)) for j in range(B.cols))
        for i in range(A.rows)
    )
    return IntegerMatrix(A.rows, B.cols, entries)


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = to_lists(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_integer_system(A: IntegerMatrix, b: list[int]) -> tuple[bool, list[int] | tuple]:
    """Solve ``A x = b`` over the integers.

    Returns ``(True, x)`` with an exact solution, or ``(False, residue)``
    where the residue lists ``(i, y_i, d_i)``, in index order, for each
    coordinate of ``y = U b`` that its invariant factor ``d_i`` does not
    divide, ``d_i = 0`` beyond the rank.
    """
    if len(b) != A.rows:
        raise ValueError("right-hand side has the wrong length")
    for x in b:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"right-hand side entry is not an exact integer: {x!r}")
    U, D, V = smith_normal_form(A)
    factors = invariant_factors(D)
    residue = []
    z = [0] * A.cols
    for i, yi in enumerate(U.matvec(b)):
        d = factors[i] if i < len(factors) else 0
        if d == 0:
            if yi:
                residue.append((i, yi, 0))
        elif yi % d:
            residue.append((i, yi, d))
        else:
            z[i] = yi // d
    if residue:
        return False, tuple(residue)
    return True, V.matvec(z)


def solve_rational_system(A: IntegerMatrix, b: list[int]) -> tuple[tuple, list | None]:
    """Solve ``A x = b`` over Q by ``Fraction`` back-substitution.

    With ``U A V = D`` from the package's Smith form and ``y = U b``,
    returns ``(residue, None)`` when some ``y_i`` beyond the rank is
    nonzero, the residue listing ``(i, y_i, 0)`` for each in index order,
    and otherwise ``((), x)`` with ``x = V z``, ``z_i = Fraction(y_i, d_i)``.
    """
    if len(b) != A.rows:
        raise ValueError("right-hand side has the wrong length")
    U, D, V = smith_normal_form(A)
    diag = D.diagonal()
    residue = []
    z = [Fraction(0)] * A.cols
    for i, yi in enumerate(U.matvec(b)):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if yi:
                residue.append((i, yi, 0))
        else:
            z[i] = Fraction(yi, d)
    if residue:
        return tuple(residue), None
    return (), V.matvec(z)
