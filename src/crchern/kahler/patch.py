"""Products of space-form factors on a shared coordinate patch."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .spaceform import SpaceFormFactor

SAMPLE_RADIUS_CAP = 0.5  # stay well inside every chart


class PatchDomainError(ValueError):
    """A point fell outside a factor's coordinate chart."""


@dataclass(frozen=True)
class KahlerProductPatch:
    """Block-diagonal product of constant-curvature factors.

    The metric has no cross-factor components at any point; each factor
    owns a contiguous slice of the complex coordinates.
    """

    factors: tuple[SpaceFormFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a patch needs at least one factor")

    @property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def slices(self) -> list[slice]:
        out = []
        start = 0
        for f in self.factors:
            out.append(slice(start, start + f.dim))
            start += f.dim
        return out

    def split(self, z: np.ndarray) -> list[np.ndarray]:
        return [z[s] for s in self.slices()]

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.total_dim,):
            return False
        return all(f.contains(part) for f, part in zip(self.factors, self.split(z)))

    def sample_bound(self, factor: SpaceFormFactor) -> float:
        return min(SAMPLE_RADIUS_CAP, factor.patch_radius / 2)

    def sample_point(self, rng: random.Random) -> np.ndarray:
        """Uniform draw from the product of balls of the sampling radii."""
        parts = []
        for f in self.factors:
            r = self.sample_bound(f)
            while True:
                coords = np.array(
                    [rng.uniform(-r, r) for _ in range(2 * f.dim)]
                )
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
    per factor.
    """
    z = np.asarray(z, dtype=complex)
    n = patch.total_dim
    if z.ndim == 0 or z.shape[-1] != n:
        raise PatchDomainError(f"point has {z.shape} coordinates, patch needs {n}")
    g = np.zeros(z.shape + (n,), dtype=complex)
    for f, s in zip(patch.factors, patch.slices()):
        part = z[..., s]
        outside = ~(np.linalg.norm(part, axis=-1) < f.patch_radius)
        if np.any(outside):
            point = part[np.unravel_index(np.argmax(outside), outside.shape)]
            raise PatchDomainError(
                f"point {point} outside chart of factor dim={f.dim}, hsc={f.hsc}"
            )
        g[..., s, s] = f.metric(part)
    return g
