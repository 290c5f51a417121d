"""Constant-holomorphic-sectional-curvature factors on a coordinate patch.

Each factor carries the radial Kaehler potential

    phi(z) = (a / c) * log(1 + (c / b) * |z|^2),        c = hsc,

whose metric has the closed form

    g_{a b-} = f''(u) * conj(z_a) * z_b + f'(u) * delta_{ab},
    f'(u) = a / (b + c u),   f''(u) = -a c / (b + c u)^2,   u = |z|^2.

The constants are not assumed: ``b`` is tied to ``a`` so the metric is
the identity at the origin, and ``a`` is solved for until the
holomorphic sectional curvature *computed from the metric by central
finite differences under the package's curvature convention* equals
``hsc`` at the origin.  The calibration solve runs in exact rational
arithmetic (the metric is a rational function of the real coordinates)
with Richardson extrapolation of the difference quotients, so the
achievable residual is limited only by the extrapolation depth; a
residual above the abort threshold therefore really does mean the sign
conventions of the pipeline and the potential disagree, which is what
calibration exists to catch.

For ``hsc < 0`` the chart is the ball ``|z| < sqrt(b/|c|)`` (the model
radius); for ``hsc > 0`` the affine chart is all of C^dim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CALIBRATION_ABORT = Fraction(1, 10**10)
_EXTRAPOLATION_GOAL = Fraction(1, 10**16)


class CalibrationError(RuntimeError):
    """Curvature convention mismatch detected during calibration."""


@dataclass(frozen=True)
class SpaceFormFactor:
    dim: int
    hsc: Fraction
    patch_radius: float
    potential_a: Fraction
    potential_b: Fraction
    calibration_residual: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"factor dimension must be >= 1, got {self.dim}")
        if self.hsc == 0:
            raise ValueError("holomorphic sectional curvature must be nonzero")
        if not self.patch_radius > 0:
            raise ValueError("patch radius must be positive")

    @property
    def c(self) -> float:
        return float(self.hsc)

    def contains(self, z: np.ndarray) -> bool:
        return float(np.linalg.norm(z)) < self.patch_radius

    def metric(self, z: np.ndarray) -> np.ndarray:
        """Closed-form Hermitian metric block at ``z``.

        ``z`` is a ``(..., dim)`` stack of points; the result is the
        ``(..., dim, dim)`` stack of their metric blocks.
        """
        z = np.asarray(z, dtype=complex)
        a, b, c = float(self.potential_a), float(self.potential_b), self.c
        u = np.einsum("...i,...i->...", np.conj(z), z).real
        denom = b + c * u
        outside = denom <= 0
        if np.any(outside):
            point = z[np.unravel_index(np.argmax(outside), outside.shape)]
            raise ValueError(f"point {point} outside the chart of this factor")
        fp = (a / denom)[..., None, None]
        fpp = (-a * c / denom**2)[..., None, None]
        return fpp * (np.conj(z)[..., :, None] * z[..., None, :]) + fp * np.eye(self.dim)


# -- exact calibration oracle -------------------------------------------------


def _g11_exact(a: Fraction, b: Fraction, c: Fraction, x: Fraction, y: Fraction) -> Fraction:
    """Entry g_{1 1-} with z_1 = x + i y and all other coordinates zero.

    Along this line the entry is real: g_11 = f''(u) u + f'(u), u = x^2 + y^2.
    """
    u = x * x + y * y
    denom = b + c * u
    if denom <= 0:
        raise CalibrationError("calibration stencil left the chart; shrink the step")
    return -a * c * u / denom**2 + a / denom


def _richardson(values: list[Fraction]) -> Fraction:
    """Extrapolate F(h), F(h/2), ... assuming an even-power error expansion."""
    table = [list(values)]
    for j in range(1, len(values)):
        prev = table[-1]
        factor = 4**j
        table.append(
            [
                (factor * prev[i + 1] - prev[i]) / (factor - 1)
                for i in range(len(prev) - 1)
            ]
        )
    return table[-1][0]


def _hsc_at_origin_exact(a: Fraction, hsc: Fraction, depth: int = 8) -> Fraction:
    """Holomorphic sectional curvature at 0, by exact finite differences.

    Applies the package's curvature convention
    ``R = -d d- g + g^{-1} (d g)(d- g)`` in the e_1 direction.  First
    derivatives of g vanish at the origin by symmetry of the radial
    potential (the exact central differences are literally zero), so
    the inverse-metric term drops out exactly; the second derivatives
    are Richardson-extrapolated until successive levels agree.
    """
    b, c = a, hsc
    h0 = Fraction(1, 8)
    if c < 0:
        # keep the largest stencil point (sqrt(2) h) well inside the ball
        while 4 * h0 * h0 >= b / abs(c):
            h0 /= 2

    def g(x: Fraction, y: Fraction) -> Fraction:
        return _g11_exact(a, b, c, x, y)

    zero = Fraction(0)
    g0 = g(zero, zero)
    values: list[Fraction] = []
    result = None
    h = h0
    for level in range(depth):
        # the eight stencil points of this level, each evaluated once
        xp, xm, yp, ym = g(h, zero), g(-h, zero), g(zero, h), g(zero, -h)
        pp, pm, mp, mm = g(h, h), g(h, -h), g(-h, h), g(-h, -h)
        dxx = (xp - 2 * g0 + xm) / h**2
        dyy = (yp - 2 * g0 + ym) / h**2
        # the mixed x-y stencil vanishes exactly for a radial entry
        dxy = (pp - pm - mp + mm) / (4 * h**2)
        if dxy != 0:
            raise CalibrationError("mixed stencil did not cancel; convention error")
        if (xp - xm) / (2 * h) != 0 or (yp - ym) / (2 * h) != 0:
            raise CalibrationError("first derivatives nonzero at the origin")
        values.append((dxx + dyy) / 4)
        if level >= 1:
            new = _richardson(values)
            if result is not None and abs(new - result) < _EXTRAPOLATION_GOAL:
                result = new
                break
            result = new
        h /= 2
    assert result is not None
    hmix = result  # d_1 d_1- g_11 at the origin
    r1111 = -hmix  # inverse-metric term vanished exactly above
    return r1111 / g0**2


@functools.lru_cache(maxsize=64)
def _solve_potential(
    hsc: Fraction, max_iterations: int, _entry_key
) -> tuple[Fraction, Fraction]:
    """``(a, |residual|)`` of the exact secant solve for ``hsc``.

    The solve reads only the curvature, never the factor's dimension,
    so each distinct curvature is solved once per process.
    ``_entry_key`` is the current ``_g11_exact``, in the cache key only
    so that a replaced metric entry never reuses an earlier solve.
    Only the result is cached: a divergence raises on every call, and
    the residual gate is applied by the caller.
    """

    def objective(a: Fraction) -> Fraction:
        return _hsc_at_origin_exact(a, hsc) - hsc

    a0, a1 = Fraction(3, 2), Fraction(5, 2)
    f0, f1 = objective(a0), objective(a1)
    for _ in range(max_iterations):
        if abs(f1) < Fraction(1, 10**12) or f1 == f0:
            break
        a2 = a1 - f1 * (a1 - a0) / (f1 - f0)
        a2 = a2.limit_denominator(10**24)
        if a2 <= 0 or a2 > 10**6:
            # no positive constant of sane size matches: sign mismatch
            raise CalibrationError(
                f"calibration diverged for hsc={hsc}: candidate a={float(a2):.3e}"
            )
        a0, f0 = a1, f1
        a1, f1 = a2, objective(a2)
    # Prefer the simplest rational that still verifies; the exact
    # residual gate in the caller is what legitimizes the snap.
    for bound in (1, 2, 4, 16, 256, 10**6):
        candidate = a1.limit_denominator(bound)
        if candidate > 0:
            f_cand = objective(candidate)
            if abs(f_cand) <= min(abs(f1), CALIBRATION_ABORT):
                a1, f1 = candidate, f_cand
                break
    return a1, abs(f1)


def calibrate_space_form(
    dim: int, hsc: Fraction | int | str, max_iterations: int = 30
) -> SpaceFormFactor:
    """Fix the potential constants for the requested curvature.

    Exact secant iteration on the single free constant ``a`` against
    the extrapolated finite-difference curvature at the origin; aborts
    when the residual cannot be brought below ``CALIBRATION_ABORT``.
    """
    hsc = Fraction(hsc)
    if hsc == 0:
        raise CalibrationError("flat factors are not part of the model family")
    a1, residual = _solve_potential(hsc, max_iterations, _g11_exact)
    if residual > CALIBRATION_ABORT:
        raise CalibrationError(
            f"curvature convention error: residual {float(residual):.3e} "
            f"for dim={dim}, hsc={hsc}"
        )
    if hsc < 0:
        radius = math.sqrt(float(a1 / abs(hsc)))
    else:
        radius = math.inf
    return SpaceFormFactor(
        dim=dim,
        hsc=hsc,
        patch_radius=radius,
        potential_a=a1,
        potential_b=a1,
        calibration_residual=float(residual),
    )
