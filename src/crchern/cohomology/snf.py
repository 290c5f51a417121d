"""Exact integer matrices and Smith normal form.

The decomposition returned by :func:`smith_normal_form` satisfies
``U * A * V = D`` with ``U`` and ``V`` unimodular and ``D`` diagonal with
nonnegative entries ``d_1 | d_2 | ...``; for an ``m x n`` input, ``U`` is
``m x m``, ``D`` is ``m x n`` and ``V`` is ``n x n``, empty sides included.
It is built in one pass on one working matrix ``W = [[A, I_m], [I_n, 0]]``:
each row operation acts once on W's first ``m`` rows and each column
operation once on its first ``n`` columns, so ``W = [[U A V, U], [V, 0]]``
holds after every step and U, D and V are read off as its three blocks.
Each pivot divides its whole remaining block before the next pivot is
chosen, so it divides every later pivot, and zeros come last because
elimination stops at a zero block.  Pivoting is deterministic: the pivot
is always the entry of smallest absolute value in the working submatrix,
ties broken row-major, so certificates derived from the decomposition
are reproducible.

Every :class:`IntegerMatrix`, the Smith forms and cup matrices this
package builds included, passes the checked constructor: its declared
shape must match its entries, and each entry must be an exact ``int``.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .ring import Record


def _check_exact(values, what: str) -> None:
    """Refuse anything but an ``int`` (a ``bool`` included): no conversion."""
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"{what} is not an exact integer: {x!r}")


class IntegerMatrix(Record):
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry shape does not match declared dimensions")
        for row in entries:
            _check_exact(row, "matrix entry")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def matvec(self, vec: list) -> list:
        if self.cols != len(vec):
            raise ValueError("dimension mismatch in matrix-vector product")
        return [sum(map(mul, row, vec)) for row in self.entries]

    def diagonal(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]


def smith_normal_form(
    A: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return ``(U, D, V)`` with ``U @ A @ V = D`` in Smith normal form."""
    m, n = A.rows, A.cols
    # W = [[A, I_m], [I_n, 0]]; rows 0..m-1 and columns 0..n-1 take the
    # operations, so W = [[U A V, U], [V, 0]] after every step.
    W = [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(A.entries)]
    W += [[int(i == j) for j in range(n + m)] for i in range(n)]

    def pick_pivot(t: int) -> tuple[int, int] | None:
        best: tuple[int, int, int] | None = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(W[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(m, n) and (loc := pick_pivot(t)) is not None:
        pi, pj = loc
        W[t], W[pi] = W[pi], W[t]
        if pj != t:
            for row in W:
                row[t], row[pj] = row[pj], row[t]
        if W[t][t] < 0:
            W[t] = [-x for x in W[t]]
        piv = W[t][t]
        for i in range(t + 1, m):
            if q := W[i][t] // piv:
                W[i] = [x - q * y for x, y in zip(W[i], W[t])]
        for j in range(t + 1, n):
            if q := W[t][j] // piv:
                for row in W:
                    row[j] -= q * row[t]
        if any(W[i][t] for i in range(t + 1, m)) or any(W[t][t + 1 : n]):
            continue  # a remainder smaller than piv is left: pivot again
        bad = next(
            (i for i in range(t + 1, m) for j in range(t + 1, n) if W[i][j] % piv), None
        )
        if bad is None:
            t += 1  # piv divides its block, hence every later pivot
        else:
            # Row ``bad`` holds an entry piv does not divide; in row t,
            # reducing by piv leaves a remainder smaller than piv.
            W[t] = [x + y for x, y in zip(W[t], W[bad])]

    return (
        IntegerMatrix(m, m, tuple(tuple(row[n:]) for row in W[:m])),
        IntegerMatrix(m, n, tuple(tuple(row[:n]) for row in W[:m])),
        IntegerMatrix(n, n, tuple(tuple(row[:n]) for row in W[m:])),
    )


def invariant_factors(D: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of a Smith form, in chain order."""
    return tuple(d for d in D.diagonal() if d != 0)


def _back_substitute(
    U: IntegerMatrix,
    factors: tuple[int, ...],
    V: IntegerMatrix,
    b: list[int],
) -> tuple[list[tuple[int, int, int]], list[int] | None, int]:
    """Solve ``A x = b`` over Q from ``U A V = D``: ``(residue, num, L)``.

    ``factors`` is ``invariant_factors(D)``: the pivots ``d_i`` are its
    entries, and ``d_i = 0`` beyond it.  With ``y = U b``, the residue
    lists ``(i, y_i, 0)`` in index order for each ``y_i != 0`` beyond
    the rank.  When the residue is empty, ``x = num / L`` solves the
    system, where ``L`` is the lcm of the pivots used and ``num = V z``
    with ``z_i = y_i * (L // d_i)``; no ``Fraction`` is formed.  When
    the residue is not empty, ``num`` is ``None`` and ``L`` is 1.
    """
    y = U.matvec(b)
    residue = []
    pivots = []
    for i, yi in enumerate(y):
        d = factors[i] if i < len(factors) else 0
        if d:
            pivots.append((i, yi, d))
        elif yi:
            residue.append((i, yi, 0))
    if residue:
        return residue, None, 1
    L = lcm(1, *(d for _, _, d in pivots))
    z = [0] * V.rows
    for i, yi, d in pivots:
        z[i] = yi * (L // d)
    return residue, V.matvec(z), L
