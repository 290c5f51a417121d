"""Shared generators for randomized suites.

Everything takes an explicit ``random.Random`` so the counted
acceptance runs and the smaller smoke runs draw from the same
distributions reproducibly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from crchern.cohomology.ring import (
    INTEGERS,
    RATIONALS,
    RingElement,
    RingPresentation,
    make_ring,
)
from crchern.cohomology.snf import IntegerMatrix
from reference import from_rows, to_lists

_DOMAINS = (INTEGERS, RATIONALS)


def random_ring(rng: random.Random, max_gens: int = 3) -> RingPresentation:
    count = rng.randint(1, max_gens)
    gens = []
    for i in range(count):
        degree = 2 * rng.randint(1, 2)
        truncation = rng.randint(1, 4)
        gens.append((f"g{i}", degree, truncation))
    return make_ring(gens, rng.choice(_DOMAINS))


def random_coefficient(rng: random.Random, ring: RingPresentation):
    if ring.coefficients.kind == "Q":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return rng.randint(-9, 9)


def random_element(
    rng: random.Random, ring: RingPresentation, max_terms: int = 4
) -> RingElement:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, g.truncation - 1) for g in ring.generators)
        terms[exps] = random_coefficient(rng, ring)
    return ring.element(terms)


def naive_evaluate(el: RingElement, values) -> object:
    """Every generator's power multiplied into every term, zero exponents too."""
    domain = el.ring.coefficients
    point = [domain.coerce(values[g.name]) for g in el.ring.generators]
    total = 0
    for exps, c in el.terms.items():
        term = c
        for v, e in zip(point, exps):
            term *= v**e
        total += term
    return domain.coerce(total)


def assert_canonical(el: RingElement) -> None:
    """Reduced monomials; nonzero coefficients in canonical form."""
    ring = el.ring
    for exps, c in el.terms.items():
        assert all(0 <= e < g.truncation for e, g in zip(exps, ring.generators))
        assert c != 0
        if ring.coefficients.kind == "Q":
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        else:
            assert type(c) is int


def random_matrix(
    rng: random.Random, max_dim: int = 6, lo: int = -9, hi: int = 9
) -> IntegerMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


def brute_force_image_member(
    A: IntegerMatrix, b: list[int], bound: int = 50
) -> bool:
    """Enumerate integer coefficient vectors in [-bound, bound]^cols.

    Returns whether some combination of the columns of ``A`` equals
    ``b``; a ``False`` only rules out witnesses inside the box.
    """
    if A.cols == 0:
        return all(v == 0 for v in b)
    if A.cols > 3:
        raise ValueError("brute force is limited to <= 3 columns")
    axis = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * A.cols), indexing="ij")
    X = np.stack([g.ravel() for g in grids])  # (cols, count)
    Amat = np.array(to_lists(A), dtype=np.int64)
    prods = Amat @ X
    target = np.array(b, dtype=np.int64)[:, None]
    return bool(np.any(np.all(prods == target, axis=0)))
