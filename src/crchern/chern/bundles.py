"""Total Chern classes of the bundles used by the verification suite."""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ..cohomology.ring import Record, RingElement, RingError, RingPresentation


class BundleClass(Record):
    """A complex vector bundle's rank together with its total Chern class.

    The total class must have constant term 1, and every homogeneous
    component above degree ``2 * rank`` must vanish in the ambient ring.
    """

    # ``_parts``: the total class split by degree, built once: {degree: component}.
    __slots__ = ("rank", "total", "_parts")

    def __init__(self, rank: int, total: RingElement) -> None:
        if rank < 1:
            raise RingError(f"bundle rank must be positive, got {rank}")
        if total.constant_term() != 1:
            raise RingError(
                f"total class must have constant term 1, got {total.constant_term()}"
            )
        ring = total.ring
        split: dict[int, dict] = {}
        for e, c in total.terms.items():
            split.setdefault(ring.monomial_degree(e), {})[e] = c
        for deg in sorted(split):
            if deg > 2 * rank:
                raise RingError(
                    f"total class has a nonzero component in degree {deg} "
                    f"above 2*rank = {2 * rank}"
                )
        parts = {deg: RingElement(ring, terms) for deg, terms in split.items()}
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "total", total)
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


def _space_form_class(p: int, ring: RingPresentation, x: str, c1: int) -> BundleClass:
    """Tangent class of a p-dimensional space form with c_1 = ``c1 * x``.

    The total is ``(1 + c_1/(p+1))^(p+1)``, the sum over k = 0..p+1 of
    ``binom(p+1, k) (c1/(p+1))^k x^k``.  CP^p takes ``c1 = p+1``.  A
    compact p-ball quotient satisfies it on the subring generated by c_1
    by Hirzebruch proportionality: its Chern-Weil forms are CP^p's with
    the Kaehler form rescaled.  ``x`` must be a nonzero degree-2
    generator truncated at ``x^(p+1)`` or lower, since a p-dimensional
    factor has no cohomology above degree 2p, and every coefficient,
    those of dropped powers included, must lie in the ring's domain.
    """
    idx = ring.gen_index(x)  # raises for a missing generator
    gen = ring.generators[idx]
    if gen.degree != 2 or gen.truncation < 2:
        raise RingError(f"generator {x!r} must be a nonzero class of degree 2")
    if gen.truncation > p + 1:
        raise RingError(f"generator {x!r} truncated at {gen.truncation}, above {p + 1}")
    weights = [Fraction(comb(p + 1, k) * c1**k, (p + 1) ** k) for k in range(p + 2)]
    head, tail = (0,) * idx, (0,) * (len(ring.generators) - idx - 1)
    terms = {head + (k,) + tail: ring.coefficients.coerce(w) for k, w in enumerate(weights)}
    return BundleClass(p, ring.element(terms))


def chern_projective_space(n: int, ring: RingPresentation, hyperplane: str) -> BundleClass:
    """Holomorphic tangent bundle of CP^n: rank ``n``, total ``(1+h)^(n+1)``."""
    return _space_form_class(n, ring, hyperplane, n + 1)


def chern_surface(genus: int, ring: RingPresentation, sigma: str) -> BundleClass:
    """Holomorphic tangent bundle of a genus-g surface: ``1 + (2-2g) * sigma``."""
    return _space_form_class(1, ring, sigma, 2 - 2 * genus)


def chern_fake_projective_plane(ring: RingPresentation, t: str) -> BundleClass:
    """Tangent bundle of a fake projective plane, a 2-ball quotient, c_1 = ``t``.

    ``1 + t + t^2/3``: ``c_1^2 = 3 c_2``, equality in the Miyaoka-Yau bound.
    The 1/3 needs Q coefficients.
    """
    return _space_form_class(2, ring, t, 1)


def trivial_bundle(ring: RingPresentation, rank: int) -> BundleClass:
    return BundleClass(rank, ring.one())


def bundle_product(a: BundleClass, b: BundleClass) -> BundleClass:
    """Whitney sum: ranks add, total classes multiply; the product refuses
    classes of two rings."""
    return BundleClass(a.rank + b.rank, a.total * b.total)
