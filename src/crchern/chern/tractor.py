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
are set high enough that no relation is ever used).
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

    return minor(0, (1 << size) - 1)


def _build_matrix(n: int, xi_diagonal: bool):
    """Entries of I + s*Omega for the block shape above, Xi = 0.

    With ``xi_diagonal`` a control indeterminate is added at the first
    diagonal slot of the middle block, modeling a nonvanishing Chern
    tensor.
    """
    size = n + 2
    star_names = [f"x{i}" for i in range(1, 2 * n + 2)]
    gens = [("s", 2, size + 1), ("w", 2, size + 1)]
    gens += [(name, 2, 2) for name in star_names]
    if xi_diagonal:
        gens.append(("xi", 2, 2))
    ring = make_ring(gens, RATIONALS)
    s, w = ring.gen("s"), ring.gen("w")

    stars = iter(star_names)
    omega = [[ring.zero() for _ in range(size)] for _ in range(size)]
    for i in range(size):
        omega[i][i] = w
    for i in range(1, size):
        omega[i][0] = ring.gen(next(stars))  # first column below the corner
    for j in range(1, size - 1):
        omega[size - 1][j] = ring.gen(next(stars))  # last row inside
    if xi_diagonal:
        omega[1][1] = omega[1][1] + ring.gen("xi")

    one, zero = ring.one(), ring.zero()
    matrix = [[one if i == j else zero for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if omega[i][j]:
                matrix[i][j] = matrix[i][j] + s * omega[i][j]
    return ring, s, w, matrix


def tractor_determinant_check(n: int, seed: int = 0) -> CheckReport:
    """Verify det(I + s*Omega) = (1 + s*w)^(n+2) with free starred blocks.

    Three layers: the exact symbolic identity; a control where one
    middle-block diagonal indeterminate is switched on (the identity
    must then fail, and fail through that indeterminate); and agreement
    of both sides at ``SAMPLE_POINTS`` random rational points, which
    re-checks that the result is independent of the starred values.
    """
    if n < 1:
        raise RingError(f"check needs n >= 1, got {n}")
    ring, s, w, matrix = _build_matrix(n, xi_diagonal=False)
    det = ring_matrix_determinant(matrix)
    rhs = (1 + s * w) ** (n + 2)
    identity_holds = det == rhs

    ctrl_ring, cs, cw, ctrl_matrix = _build_matrix(n, xi_diagonal=True)
    ctrl_det = ring_matrix_determinant(ctrl_matrix)
    ctrl_rhs = (1 + cs * cw) ** (n + 2)
    ctrl_diff = ctrl_det - ctrl_rhs
    xi_index = ctrl_ring.gen_index("xi")
    control_fails = not ctrl_diff.is_zero()
    control_depends_on_xi = any(
        exps[xi_index] > 0 for exps in ctrl_diff.terms
    )

    rng = random.Random(seed)
    point_agreements = []
    for _ in range(SAMPLE_POINTS):
        values = {
            g.name: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for g in ring.generators
        }
        point_agreements.append(det.evaluate(values) == rhs.evaluate(values))

    return CheckReport.from_assertions(
        check="tractor-determinant-identity",
        params={"n": n, "size": n + 2},
        assertions=[
            ("det(I + s*Omega) == (1 + s*w)^(n+2) symbolically", identity_holds),
            ("control with nonzero middle block fails", control_fails),
            ("control failure depends on the inserted entry", control_depends_on_xi),
            (
                f"symbolic identity confirmed at {SAMPLE_POINTS} random rational points",
                all(point_agreements),
            ),
        ],
        witnesses=[
            {
                "determinant": str(det),
                "free_indeterminates": 2 * n + 1,
                "control_difference_terms": len(ctrl_diff.terms),
            }
        ],
        residuals=[{"det_minus_rhs": str(det - rhs)}],
    )
