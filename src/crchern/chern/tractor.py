"""Determinant identity for the curvature of the adjusted tractor connection.

On a strictly pseudoconvex CR manifold of dimension 2n+1 the holomorphic
tangent bundle has the same total Chern class as a rank n+2 bundle
carrying a connection whose curvature has the block-triangular shape

        [ 0   0    0 ]
        [ *  Xi    0 ]   +   w * Identity,
        [ *   *    0 ]

where the middle n x n block Xi is built from the Chern tensor and its
divergence, the starred blocks are unconstrained, and w is a central
2-form (a multiple of the curvature trace).  When the manifold is
spherical, Xi vanishes, and the total-class representative

        det(I + s * Omega) = (1 + s*w)^(n+2)

depends only on w: every starred entry cancels.  That cancellation is
what forces c_k to be the binomial multiple of c_1^k.

The check below performs the determinant expansion symbolically, with
the starred entries as free indeterminates, over the package's own
exact polynomial arithmetic (all the indeterminates stand for 2-forms,
which commute, so a commutative ring is the right model; truncations
are set high enough that no relation is ever used).  It expands one
determinant, with a control entry ``xi`` in the middle block, and reads
the spherical identity off it at ``xi = 0``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ..cohomology.ring import RATIONALS, RingElement, RingError, make_ring
from .report import CheckReport

SAMPLE_POINTS = 10  # random rational points the identity is re-checked at


def ring_matrix_determinant(entries: list[list[RingElement]]) -> RingElement:
    """Determinant of a square matrix over a commutative ring.

    Laplace expansion over column subsets (bitmask dynamic programming);
    no structural shortcuts, so triangularity of the input is *used*
    nowhere and *verified* implicitly by the identity checks.
    """
    size = len(entries)
    if size == 0:
        raise RingError("empty matrix has no determinant here")
    ring = entries[0][0].ring
    if any(len(row) != size for row in entries):
        raise RingError("matrix is not square")

    # minor(row, mask): determinant of rows row..size-1, columns in mask.
    cache: dict[tuple[int, int], RingElement] = {}

    def minor(row: int, mask: int) -> RingElement:
        if row == size:
            return ring.one()
        key = (row, mask)
        if key in cache:
            return cache[key]
        total = ring.zero()
        positive = True
        for col in range(size):
            bit = 1 << col
            if not mask & bit:
                continue
            entry = entries[row][col]
            if not entry.is_zero():
                term = entry * minor(row + 1, mask & ~bit)
                total = total + term if positive else total - term
            positive = not positive
        cache[key] = total
        return total

    det = minor(0, (1 << size) - 1)
    del minor  # its closure refers to itself: free the minors now, not at a collection
    return det


def _build_matrix(n: int):
    """Entries of I + s*Omega for the block shape above, Xi = diag(xi, 0, ...).

    One ring: ``s``, ``w``, the starred ``x1..x(2n+1)``, then the control
    indeterminate ``xi`` at the first diagonal slot of the middle block,
    modeling a nonvanishing Chern tensor.  At ``xi = 0`` this is the
    identity's matrix.
    """
    size = n + 2
    star_names = [f"x{i}" for i in range(1, 2 * n + 2)]
    gens = [("s", 2, size + 1), ("w", 2, size + 1)]
    ring = make_ring(gens + [(name, 2, 2) for name in star_names + ["xi"]], RATIONALS)
    s, w = ring.gen("s"), ring.gen("w")

    diagonal = 1 + s * w
    zero = ring.zero()
    matrix = [[diagonal if i == j else zero for j in range(size)] for i in range(size)]
    matrix[1][1] = diagonal + s * ring.gen("xi")
    stars = iter(star_names)
    for i in range(1, size):
        matrix[i][0] = s * ring.gen(next(stars))  # first column below the corner
    for j in range(1, size - 1):
        matrix[size - 1][j] = s * ring.gen(next(stars))  # last row inside
    return ring, diagonal, matrix


def tractor_determinant_check(n: int, seed: int = 0) -> CheckReport:
    """Verify det(I + s*Omega) = (1 + s*w)^(n+2) with free starred blocks.

    One expansion ``full`` of the matrix with the control entry ``xi``
    switched on serves three layers.  The exact symbolic identity reads
    ``full`` at ``xi = 0``: its terms free of ``xi``, which is exact
    because ``xi`` sits in one entry and a determinant is a polynomial in
    its entries.  The control (the identity must fail, and fail through
    ``xi``) reads ``full`` itself.  Last, ``full`` at ``xi = 0`` is
    evaluated at ``SAMPLE_POINTS`` random rational points and compared
    with the closed form (1 + s*w)^(n+2) there, which re-checks that the
    result is independent of the starred values.
    """
    if n < 1:
        raise RingError(f"check needs n >= 1, got {n}")
    ring, diagonal, matrix = _build_matrix(n)
    full = ring_matrix_determinant(matrix)
    xi = ring.gen_index("xi")
    det = ring.element({e: c for e, c in full.terms.items() if not e[xi]})
    rhs = diagonal ** (n + 2)
    control_diff = full - rhs

    rng = random.Random(seed)
    point_agreements = []
    for _ in range(SAMPLE_POINTS):
        values = {
            g.name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for g in ring.generators[:xi]
        }
        values["xi"] = 0
        closed_form = (1 + values["s"] * values["w"]) ** (n + 2)
        point_agreements.append(full.evaluate(values) == closed_form)

    return CheckReport.from_assertions(
        check="tractor-determinant-identity",
        params={"n": n, "size": n + 2},
        assertions=[
            ("det(I + s*Omega) == (1 + s*w)^(n+2) symbolically", det == rhs),
            ("control with nonzero middle block fails", not control_diff.is_zero()),
            (
                "control failure depends on the inserted entry",
                any(exps[xi] for exps in control_diff.terms),
            ),
            (
                f"symbolic identity confirmed at {SAMPLE_POINTS} random rational points",
                all(point_agreements),
            ),
        ],
        witnesses=[
            {
                "determinant": str(det),
                "free_indeterminates": 2 * n + 1,
                "control_difference_terms": len(control_diff.terms),
            }
        ],
        residuals=[{"det_minus_rhs": str(det - rhs)}],
    )
