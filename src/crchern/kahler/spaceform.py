"""Constant-holomorphic-sectional-curvature factors on a coordinate patch.

Each factor carries the radial Kaehler potential

    phi(z) = (a / c) * log(1 + (c / b) * |z|^2),        c = hsc,

whose metric has the closed form

    g_{a b-} = f''(u) * conj(z_a) * z_b + f'(u) * delta_{ab},
    f'(u) = a / (b + c u),   f''(u) = -a c / (b + c u)^2,   u = |z|^2.

The constants have a closed form.  With ``b = a`` the metric is the
identity at the origin, and along z_1 the entry is
``g_{1 1-} = a^2 / (a + c |z|^2)^2``, whose holomorphic sectional
curvature at 0 is ``2c / a``; so ``a = b = 2`` (``POTENTIAL``).  That
closed form is not trusted but verified once per curvature: the exact
oracle computes the holomorphic sectional curvature *from the metric
by central finite differences under the package's curvature
convention*, in exact rational arithmetic (the metric is a rational
function of the real coordinates) with Richardson extrapolation of the
difference quotients, so the achievable residual is limited only by
the extrapolation depth.  A residual above the abort threshold means
the sign conventions of the pipeline and the potential disagree (at
``a = 2`` a flipped sign leaves a residual of ``2 |hsc|``, so the
oracle reads nearer ``-hsc`` than ``hsc``), which is what calibration
exists to catch, or that ``|hsc|`` is too large for the extrapolation
to resolve (from about 10^15).  A curvature outside the range of a
float is refused before the oracle runs.

The chart is where ``b + c |z|^2 > 0``: for ``hsc < 0`` the ball
``|z| < sqrt(b/|c|)`` (the model radius), for ``hsc > 0`` all of C^dim.
:meth:`SpaceFormFactor.metric` is the one chart check of the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

POTENTIAL = Fraction(2)  # a = b = 2: identity metric and HSC = c at the origin
CALIBRATION_ABORT = Fraction(1, 10**10)
_EXTRAPOLATION_GOAL = Fraction(1, 10**16)
_EXTRAPOLATION_DEPTH = 8  # Richardson levels at most, each halving the step


class CalibrationError(RuntimeError):
    """A curvature the calibration refuses: a convention mismatch, or beyond resolution."""


class PatchDomainError(ValueError):
    """A point fell outside a factor's coordinate chart."""


@dataclass(frozen=True)
class SpaceFormFactor:
    dim: int
    hsc: Fraction
    calibration_residual: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"factor dimension must be >= 1, got {self.dim}")
        if self.hsc == 0:
            raise ValueError("holomorphic sectional curvature must be nonzero")

    @property
    def c(self) -> float:
        return float(self.hsc)

    @property
    def patch_radius(self) -> float:
        """The model radius ``sqrt(b/|c|)``, infinite for ``hsc > 0``; for sampling."""
        return math.sqrt(float(POTENTIAL / abs(self.hsc))) if self.hsc < 0 else math.inf

    def metric(self, z: np.ndarray) -> np.ndarray:
        """Closed-form Hermitian metric block at ``z``.

        ``z`` is a ``(..., dim)`` stack of points; the result is the
        ``(..., dim, dim)`` stack of their metric blocks.  The first point
        with ``b + c |z|^2`` not finite and positive (NaN included)
        raises :class:`PatchDomainError`, naming that point.
        """
        z = np.asarray(z, dtype=complex)
        a = b = float(POTENTIAL)
        c = self.c
        u = np.einsum("...i,...i->...", np.conj(z), z).real
        denom = b + c * u
        outside = ~(np.isfinite(denom) & (denom > 0))
        if np.any(outside):
            point = z[np.unravel_index(np.argmax(outside), outside.shape)]
            raise PatchDomainError(
                f"point {point} outside chart of factor dim={self.dim}, hsc={self.hsc}"
            )
        # f'' conj(z) z^T, then f' on the diagonal: one (..., dim, dim) array
        g = np.conj(z)[..., :, None] * z[..., None, :]
        g *= (-a * c / denom**2)[..., None, None]
        diagonal = np.arange(self.dim)
        g[..., diagonal, diagonal] += (a / denom)[..., None]
        return g


# -- exact calibration oracle -------------------------------------------------


def _g11_exact(
    a: Fraction, b: Fraction, c: Fraction, x: Fraction | int, y: Fraction | int
) -> Fraction:
    """Entry g_{1 1-} with z_1 = x + i y and all other coordinates zero.

    Along this line the entry is real: g_11 = f''(u) u + f'(u), u = x^2 + y^2.
    The oracle's step keeps ``b + c u > b/2`` at every stencil point.
    """
    u = x * x + y * y
    denom = b + c * u
    return -a * c * u / denom**2 + a / denom


def _richardson_row(row: list[Fraction], value: Fraction) -> list[Fraction]:
    """The next row of the Richardson tableau of F(h), F(h/2), ...,
    assuming an even-power error expansion: ``row`` is the tableau's last
    row (empty before the first level), ``value`` the new level's F, and
    the new row's last entry the extrapolation through every level.

    ``T[L][0] = F_L`` and ``T[L][j] = (4^j T[L][j-1] - T[L-1][j-1]) /
    (4^j - 1)``: O(L) operations per level, not the O(L^2) of the whole
    table, and the same Fraction.
    """
    new = [value]
    for j, previous in enumerate(row, start=1):
        factor = 4**j
        new.append((factor * new[-1] - previous) / (factor - 1))
    return new


@lru_cache(maxsize=64)
def _hsc_at_origin_exact(a: Fraction, hsc: Fraction) -> Fraction:
    """Holomorphic sectional curvature at 0, by exact finite differences.

    Applies the package's curvature convention
    ``R = -d d- g + g^{-1} (d g)(d- g)`` in the e_1 direction.  First
    derivatives of g vanish at the origin by symmetry of the radial
    potential (the exact central differences are literally zero), so
    the inverse-metric term drops out exactly; the second derivatives
    are Richardson-extrapolated until successive levels agree.

    The result is a pure function of its Fractions, so it is memoized:
    factors that share a curvature share one oracle run.  An error
    raised here is not memoized, and :func:`calibrate_space_form` gates
    the memoized reading on every call, so a refused curvature is
    refused every time.
    """
    b, c = a, hsc
    h0 = Fraction(1, 8)
    # keep the largest stencil point (sqrt(2) h) well inside the ball for
    # c < 0, and c h^2 small against b for c > 0
    while 4 * h0 * h0 >= b / abs(c):
        h0 /= 2

    def g(x: Fraction, y: Fraction) -> Fraction:
        return _g11_exact(a, b, c, x, y)

    zero = 0  # an int: products with it on the axes are int, not Fraction, arithmetic
    g0 = g(zero, zero)
    row: list[Fraction] = []
    result = None
    h = h0
    for level in range(_EXTRAPOLATION_DEPTH):
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
        row = _richardson_row(row, (dxx + dyy) / 4)
        if level >= 1:
            new = row[-1]
            if result is not None and abs(new - result) < _EXTRAPOLATION_GOAL:
                result = new
                break
            result = new
        h /= 2
    assert result is not None
    hmix = result  # d_1 d_1- g_11 at the origin
    r1111 = -hmix  # inverse-metric term vanished exactly above
    return r1111 / g0**2


def calibrate_space_form(dim: int, hsc: Fraction | int | str) -> SpaceFormFactor:
    """The factor of curvature ``hsc``, its potential verified at the origin.

    The constants are the closed form ``a = b = POTENTIAL``; the exact
    oracle is run once per curvature, and a residual above
    ``CALIBRATION_ABORT`` raises :class:`CalibrationError`: a convention
    error where the oracle reads nearer ``-hsc`` than ``hsc``, an
    unresolved curvature otherwise.  So does ``|hsc|`` outside the
    normal float range.
    """
    hsc = Fraction(hsc)
    if hsc == 0:
        raise CalibrationError("flat factors are not part of the model family")
    low, high = sys.float_info.min, sys.float_info.max
    if not low <= abs(hsc) <= high:
        raise CalibrationError(
            f"curvature of factor dim={dim} is beyond the float range of the "
            f"metric: |hsc| must lie in [{low:.3e}, {high:.3e}]"
        )
    value = _hsc_at_origin_exact(POTENTIAL, hsc)
    residual = abs(value - hsc)
    if residual > CALIBRATION_ABORT:
        if abs(value + hsc) < residual:
            cause = "curvature convention error"  # the oracle reads about -hsc
        else:
            cause = "finite differences cannot resolve this curvature"
        raise CalibrationError(
            f"{cause}: relative residual {float(residual / abs(hsc)):.3e} "
            f"for dim={dim}, hsc={hsc}"
        )
    return SpaceFormFactor(dim=dim, hsc=hsc, calibration_residual=float(residual))
