"""Total Chern classes of the bundles used by the verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from ..cohomology.ring import RingElement, RingError, RingPresentation


@dataclass(frozen=True)
class BundleClass:
    """A complex vector bundle's rank together with its total Chern class.

    The total class must have constant term 1, and every homogeneous
    component above degree ``2 * rank`` must vanish in the ambient ring.
    """

    rank: int
    total: RingElement
    # The total class split by degree, built once: {degree: component}.
    _parts: dict[int, RingElement] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise RingError(f"bundle rank must be positive, got {self.rank}")
        if self.total.constant_term() != 1:
            raise RingError(
                f"total class must have constant term 1, got {self.total.constant_term()}"
            )
        ring = self.total.ring
        split: dict[int, dict] = {}
        for e, c in self.total.terms.items():
            split.setdefault(ring.monomial_degree(e), {})[e] = c
        for deg in sorted(split):
            if deg > 2 * self.rank:
                raise RingError(
                    f"total class has a nonzero component in degree {deg} "
                    f"above 2*rank = {2 * self.rank}"
                )
        parts = {deg: RingElement(ring, terms) for deg, terms in split.items()}
        object.__setattr__(self, "_parts", parts)

    @property
    def ring(self) -> RingPresentation:
        return self.total.ring

    def chern(self, k: int) -> RingElement:
        """The k-th Chern class: the degree-2k component of the total class."""
        if k == 0:
            return self.ring.one()
        return self._parts.get(2 * k) or self.ring.zero()

    def c1(self) -> RingElement:
        return self.chern(1)


def chern_projective_space(
    n: int, ring: RingPresentation, hyperplane: str
) -> BundleClass:
    """Holomorphic tangent bundle of CP^n: rank ``n``, total ``(1+h)^(n+1)``.

    ``hyperplane`` names the degree-2 generator playing the hyperplane
    class; its truncation must kill ``h^(n+1)`` (or the total class
    would exceed degree ``2n`` and be rejected).  The total is built
    from its binomial coefficients, ``sum_j binom(n+1, j) h^j``; the
    ring drops the powers of ``h`` past the truncation.
    """
    if n < 1:
        raise RingError(f"projective space dimension must be >= 1, got {n}")
    h = ring.gen(hyperplane)  # raises for a missing generator
    if h.homogeneous_degree() != 2:
        raise RingError(f"hyperplane generator {hyperplane!r} must have degree 2")
    idx = ring.gen_index(hyperplane)
    zero = (0,) * len(ring.generators)
    total = ring.element(
        {zero[:idx] + (j,) + zero[idx + 1 :]: comb(n + 1, j) for j in range(n + 2)}
    )
    return BundleClass(n, total)


def chern_surface(genus: int, ring: RingPresentation, sigma: str) -> BundleClass:
    """Holomorphic tangent bundle of a genus-g surface: ``1 + (2-2g) * sigma``."""
    if genus < 0:
        raise RingError(f"genus must be >= 0, got {genus}")
    s = ring.gen(sigma)
    idx = ring.gen_index(sigma)
    gen = ring.generators[idx]
    if gen.degree != 2 or gen.truncation != 2:
        raise RingError(
            f"surface generator {sigma!r} needs degree 2 and truncation 2"
        )
    return BundleClass(1, 1 + (2 - 2 * genus) * s)


def chern_fake_projective_plane(ring: RingPresentation, t: str) -> BundleClass:
    """Holomorphic tangent bundle of a fake projective plane.

    The generator ``t`` stands for the anticanonical class c_1.  As a
    compact quotient of the complex 2-ball the surface satisfies
    ``c_1^2 = 3 * c_2`` (equality in the Miyaoka-Yau bound), which fixes
    ``c_2 = t^2 / 3`` without choosing a normalization for the point
    class.  Rational coefficients are required for the 1/3.
    """
    if ring.coefficients.kind != "Q":
        raise RingError("fake projective plane classes need rational coefficients")
    tt = ring.gen(t)
    if tt.homogeneous_degree() != 2:
        raise RingError(f"generator {t!r} must have degree 2")
    return BundleClass(2, 1 + tt + Fraction(1, 3) * tt * tt)


def trivial_bundle(ring: RingPresentation, rank: int) -> BundleClass:
    return BundleClass(rank, ring.one())


def bundle_product(a: BundleClass, b: BundleClass) -> BundleClass:
    """Whitney sum: ranks add, total classes multiply."""
    if a.ring != b.ring:
        raise RingError("bundle product requires a common ring")
    return BundleClass(a.rank + b.rank, a.total * b.total)
