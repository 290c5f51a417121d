"""Products of space-form factors on a shared coordinate patch.

Each factor owns its chart: :meth:`SpaceFormFactor.metric` refuses a point
outside it (``PatchDomainError``, re-exported here).  The patch owns the
one shape check, :meth:`KahlerProductPatch.coordinates`: a point has the
patch's dimension.
"""

from __future__ import annotations

import random

import numpy as np

from ..cohomology.ring import Record
from .spaceform import PatchDomainError, SpaceFormFactor

SAMPLE_RADIUS_CAP = 0.5  # stay well inside every chart


class KahlerProductPatch(Record):
    """Block-diagonal product of constant-curvature factors.

    The metric has no cross-factor components at any point; each factor
    owns a contiguous slice of the complex coordinates.  There is at least
    one factor: ``parse_scenario`` refuses an empty list, and the
    ``bochner-products`` pairs have two.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[SpaceFormFactor, ...]) -> None:
        object.__setattr__(self, "factors", factors)

    @property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def coordinates(self, z: np.ndarray) -> np.ndarray:
        """``z`` as complex coordinates: one point or a ``(..., n)`` stack.

        Raises :class:`PatchDomainError` unless the last axis has the
        patch's dimension.
        """
        z = np.asarray(z, dtype=complex)
        n = self.total_dim
        if z.ndim == 0 or z.shape[-1] != n:
            raise PatchDomainError(f"point has {z.shape} coordinates, patch needs {n}")
        return z

    def slices(self) -> list[slice]:
        out = []
        start = 0
        for f in self.factors:
            out.append(slice(start, start + f.dim))
            start += f.dim
        return out

    def sample_point(self, rng: random.Random) -> np.ndarray:
        """Uniform draw from the product of balls of the sampling radii."""
        parts = []
        for f in self.factors:
            r = min(SAMPLE_RADIUS_CAP, f.patch_radius / 2)
            while True:
                coords = np.array([rng.uniform(-r, r) for _ in range(2 * f.dim)])
                if float(np.linalg.norm(coords)) < r:
                    break
            parts.append(coords[: f.dim] + 1j * coords[f.dim :])
        return np.concatenate(parts)

    def sample_points(self, count: int, seed: int) -> list[np.ndarray]:
        rng = random.Random(seed)
        return [self.sample_point(rng) for _ in range(count)]


def metric_at(patch: KahlerProductPatch, z: np.ndarray) -> np.ndarray:
    """Block-diagonal Hermitian metric in closed analytic form.

    ``z`` is one point or a ``(..., n)`` stack of points; the result is
    the ``(..., n, n)`` stack of their metrics, evaluated in one call
    per factor, whose metric refuses a point outside its chart.
    """
    z = patch.coordinates(z)
    g = np.zeros(z.shape + (patch.total_dim,), dtype=complex)
    for f, s in zip(patch.factors, patch.slices()):
        g[..., s, s] = f.metric(z[..., s])
    return g
