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

An :class:`IntegerMatrix`'s declared shape matches its entries and each
entry is an exact ``int``.  The constructor does not check this: the
package builds matrices only here and in
:func:`~crchern.cohomology.gysin.cup_matrix`, whose entries are integers
scaled from the class's coefficients, and both build the shape they declare.
"""

from __future__ import annotations

from operator import mul

from .ring import Record


class IntegerMatrix(Record):
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def matvec(self, vec: list) -> list:
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

