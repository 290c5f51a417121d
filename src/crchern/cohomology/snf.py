"""Exact integer matrices and Smith normal form.

The decomposition returned by :func:`smith_normal_form` satisfies
``U * A * V = D`` with ``U`` and ``V`` unimodular and ``D`` diagonal with
nonnegative entries ``d_1 | d_2 | ...``.  Pivoting is deterministic:
the pivot is always the entry of smallest absolute value in the working
submatrix, ties broken row-major, so certificates derived from the
decomposition are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul


def _check_exact(values, what: str) -> None:
    """Refuse anything but an ``int`` (a ``bool`` included): no conversion."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} is not an exact integer: {x!r}")


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(
            len(r) != self.cols for r in self.entries
        ):
            raise ValueError("entry shape does not match declared dimensions")
        for row in self.entries:
            _check_exact(row, "matrix entry")

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntegerMatrix":
        m = len(rows)
        n = len(rows[0]) if rows else 0
        return IntegerMatrix(m, n, tuple(map(tuple, rows)))

    @staticmethod
    def _unchecked(rows: list[list[int]]) -> "IntegerMatrix":
        """Wrap rows whose entries are ints by construction, unscanned.

        Shaped as :meth:`from_rows`; for matrices this package builds
        itself (Smith forms, cup matrices), never for caller input.
        """
        matrix = object.__new__(IntegerMatrix)
        object.__setattr__(matrix, "rows", len(rows))
        object.__setattr__(matrix, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(matrix, "entries", tuple(map(tuple, rows)))
        return matrix

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zero(m: int, n: int) -> "IntegerMatrix":
        return IntegerMatrix(m, n, tuple(tuple(0 for _ in range(n)) for _ in range(m)))

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.entries[i][j]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = [
            [
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return IntegerMatrix.from_rows(out) if out else IntegerMatrix.zero(self.rows, other.cols)

    def matvec(self, vec: list) -> list:
        if self.cols != len(vec):
            raise ValueError("dimension mismatch in matrix-vector product")
        return [sum(map(mul, row, vec)) for row in self.entries]

    def diagonal(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_lists()
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


def _swap_rows(M: list[list[int]], i: int, j: int) -> None:
    M[i], M[j] = M[j], M[i]


def _swap_cols(M: list[list[int]], i: int, j: int) -> None:
    for row in M:
        row[i], row[j] = row[j], row[i]


def _row_add(M: list[list[int]], dst: int, src: int, factor: int) -> None:
    row_s = M[src]
    row_d = M[dst]
    for k in range(len(row_d)):
        row_d[k] += factor * row_s[k]


def _col_add(M: list[list[int]], dst: int, src: int, factor: int) -> None:
    for row in M:
        row[dst] += factor * row[src]


def _negate_row(M: list[list[int]], i: int) -> None:
    M[i] = [-x for x in M[i]]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(
    A: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return ``(U, D, V)`` with ``U @ A @ V = D`` in Smith normal form."""
    m, n = A.rows, A.cols
    D = A.to_lists()
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def pick_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int, int, int] | None = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(m, n):
        loc = pick_pivot(t)
        if loc is None:
            break
        while True:
            pi, pj = loc
            if pi != t:
                _swap_rows(D, t, pi)
                _swap_rows(U, t, pi)
            if pj != t:
                _swap_cols(D, t, pj)
                _swap_cols(V, t, pj)
            if D[t][t] < 0:
                _negate_row(D, t)
                _negate_row(U, t)
            piv = D[t][t]
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // piv
                    if q:
                        _row_add(D, i, t, -q)
                        _row_add(U, i, t, -q)
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // piv
                    if q:
                        _col_add(D, j, t, -q)
                        _col_add(V, j, t, -q)
            if all(D[i][t] == 0 for i in range(t + 1, m)) and all(
                D[t][j] == 0 for j in range(t + 1, n)
            ):
                break
            loc = pick_pivot(t)
            assert loc is not None
        t += 1

    # Divisibility chain d_i | d_{i+1}; zero diagonal entries go last.
    r = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(r):
            for j in range(i + 1, r):
                a, b = D[i][i], D[j][j]
                if a == 0 and b == 0:
                    continue
                if a == 0 and b != 0:
                    _swap_rows(D, i, j)
                    _swap_rows(U, i, j)
                    _swap_cols(D, i, j)
                    _swap_cols(V, i, j)
                    changed = True
                    continue
                if b % a == 0:
                    continue
                # Combine the (i, j) diagonal block into (gcd, lcm).
                _row_add(D, i, j, 1)
                _row_add(U, i, j, 1)
                g, x, y = _egcd(a, b)
                # Unimodular column pair: det = (x*a + y*b)/g = 1.
                for row in (D, V):
                    for rr in row:
                        ci, cj = rr[i], rr[j]
                        rr[i] = x * ci + y * cj
                        rr[j] = (-(b // g)) * ci + (a // g) * cj
                q = (y * b) // g
                _row_add(D, j, i, -q)
                _row_add(U, j, i, -q)
                if D[i][i] < 0:
                    _negate_row(D, i)
                    _negate_row(U, i)
                if D[j][j] < 0:
                    _negate_row(D, j)
                    _negate_row(U, j)
                changed = True

    return (
        IntegerMatrix._unchecked(U),
        IntegerMatrix._unchecked(D),
        IntegerMatrix._unchecked(V),
    )


def invariant_factors(D: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of a Smith form, in chain order."""
    return tuple(d for d in D.diagonal() if d != 0)


def _back_substitute(
    U: IntegerMatrix, D: IntegerMatrix, V: IntegerMatrix, b: list[int], integral: bool
) -> tuple[list[tuple[int, int, int]], list[int] | None, int]:
    """Solve ``A x = b`` from ``U A V = D`` in integers: ``(residue, num, L)``.

    With ``y = U b``, the residue lists ``(i, y_i, d_i)`` in index order
    for each ``y_i != 0`` beyond the rank (``d_i = 0``) and, when
    ``integral``, each ``y_i`` not divisible by its pivot ``d_i``.  When
    the residue is empty, ``x = num / L`` solves the system, where ``L``
    is the lcm of the pivots used and ``num = V z`` with
    ``z_i = y_i * (L // d_i)``; no ``Fraction`` is formed.  If
    ``integral``, every entry of ``num`` is divisible by ``L``.  When
    the residue is not empty, ``num`` is ``None`` and ``L`` is 1.
    """
    y = U.matvec(b)
    diag = D.diagonal()
    residue = []
    pivots = []
    for i, yi in enumerate(y):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if yi != 0:
                residue.append((i, yi, 0))
        elif integral and yi % d != 0:
            residue.append((i, yi, d))
        else:
            pivots.append((i, yi, d))
    if residue:
        return residue, None, 1
    L = lcm(1, *(d for _, _, d in pivots))
    z = [0] * V.rows
    for i, yi, d in pivots:
        z[i] = yi * (L // d)
    return residue, [sum(map(mul, row, z)) for row in V.entries], L


def solve_integer_system(
    A: IntegerMatrix, b: list[int]
) -> tuple[bool, list[int] | tuple]:
    """Solve ``A x = b`` over the integers.

    Returns ``(True, x)`` with an exact solution, or ``(False, residue)``
    where the residue lists the coordinates of ``U b`` that violate
    divisibility by the invariant factors (or are nonzero beyond the
    rank).
    """
    if len(b) != A.rows:
        raise ValueError("right-hand side has the wrong length")
    _check_exact(b, "right-hand side entry")
    U, D, V = smith_normal_form(A)
    residue, num, L = _back_substitute(U, D, V, b, integral=True)
    if residue:
        return False, tuple(residue)
    return True, [v // L for v in num]
