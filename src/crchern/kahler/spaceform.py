"""Constant-holomorphic-sectional-curvature factors on a coordinate patch.

Each factor carries the radial Kaehler potential

    phi(z) = (a / c) * log(1 + (c / b) * |z|^2),        c = hsc,

whose metric has the closed form

    g_{a b-} = f''(u) * conj(z_a) * z_b + f'(u) * delta_{ab},
    f'(u) = a / (b + c u),   f''(u) = -a c / (b + c u)^2,   u = |z|^2.

f' and f'' are written once, in :func:`_radial`, which accepts a float
array of ``u`` or the exact series ``u`` truncated after ``u^1``.
:meth:`SpaceFormFactor.metric` evaluates it on arrays;
:func:`calibrate_space_form` evaluates it on the series, with
``Fraction`` coefficients, and reads off the origin what the metric
itself gives.  The first derivatives of g vanish at 0, so under the
package's convention ``R_{1 1- 1 1-}(0) = -d_1 d_1- g_{1 1-}(0) =
-(f'_1 + f''_0)``, where ``f'(u) = f'_0 + f'_1 u + ...``, and the
holomorphic sectional curvature at 0 is that over ``f'_0^2``.  With
``b = a`` the metric is the identity at the origin and that curvature
is ``2c / a``; so ``a = b = 2`` (``POTENTIAL``).  Calibration checks
two things exactly, with no threshold: that the metric is Kaehler,
``f''(0) == d f'/du (0)`` (g is then ``d d- f(u)``), and that the
curvature read equals ``hsc``.  A reading of ``-hsc`` means the sign
conventions of the pipeline and the potential disagree, which is what
calibration exists to catch.  A curvature outside the range of a float
is refused before the series is evaluated.

The chart is where ``b + c |z|^2 > 0``: for ``hsc < 0`` the ball
``|z| < sqrt(b/|c|)`` (the model radius), for ``hsc > 0`` all of C^dim.
:meth:`SpaceFormFactor.metric` is the one chart check of the package;
it also refuses a point whose f'' overflows a float.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from ..cohomology.ring import Record

POTENTIAL = Fraction(2)  # a = b = 2: identity metric and HSC = c at the origin


class CalibrationError(RuntimeError):
    """A curvature the calibration refuses: a convention mismatch, or beyond a float."""


class PatchDomainError(ValueError):
    """A point fell outside a factor's coordinate chart."""


class _Series(Record):
    """``u0 + u1 u``: a series in ``u`` truncated after ``u^1``, exact when
    its coefficients are ``Fraction``s.  It has the operations
    :func:`_radial` applies to ``u``, each with a scalar on the left."""

    __slots__ = ("u0", "u1")

    def __init__(self, u0: Fraction, u1: Fraction) -> None:
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)

    def __radd__(self, other: Fraction) -> _Series:
        return _Series(other + self.u0, self.u1)

    def __rmul__(self, other: Fraction) -> _Series:
        return _Series(other * self.u0, other * self.u1)

    def __rtruediv__(self, other: Fraction) -> _Series:
        quotient = other / self.u0
        return _Series(quotient, -quotient * self.u1 / self.u0)

    def __pow__(self, k: int) -> _Series:
        return _Series(self.u0**k, k * self.u0 ** (k - 1) * self.u1)


def _radial(a, b, c, u):
    """``(f'(u), f''(u))`` of the potential, for a float array or a :class:`_Series` ``u``."""
    denom = b + c * u
    return a / denom, -a * c / denom**2


class SpaceFormFactor(Record):
    """A calibrated factor: :func:`calibrate_space_form` makes each one, from
    a ``dim >= 1`` (``parse_scenario``) and an ``hsc`` it has refused unless
    nonzero and within the float range."""

    __slots__ = ("dim", "hsc")

    def __init__(self, dim: int, hsc: Fraction) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "hsc", hsc)

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
        outside the chart (``f' = a / (b + c |z|^2)`` not positive, NaN
        included) or whose f'' is not a finite nonzero float raises
        :class:`PatchDomainError`, naming that point; no float warning
        is emitted on the way.
        """
        z = np.asarray(z, dtype=complex)
        a = b = float(POTENTIAL)
        with np.errstate(all="ignore"):
            u = np.einsum("...i,...i->...", np.conj(z), z).real
            f1, f2 = _radial(a, b, self.c, u)  # f', f''
        # the exact f'' is finite and nonzero: 0 means denom**2 overflowed
        outside = ~((f1 > 0) & np.isfinite(f2) & (f2 != 0))
        if np.any(outside):
            point = z[np.unravel_index(np.argmax(outside), outside.shape)]
            raise PatchDomainError(
                f"point {point} outside chart of factor dim={self.dim}, hsc={self.hsc}"
            )
        # f'' conj(z) z^T, then f' on the diagonal: one (..., dim, dim) array
        g = np.conj(z)[..., :, None] * z[..., None, :]
        g *= f2[..., None, None]
        diagonal = np.arange(self.dim)
        g[..., diagonal, diagonal] += f1[..., None]
        return g


def calibrate_space_form(dim: int, hsc: Fraction | int | str) -> SpaceFormFactor:
    """The factor of curvature ``hsc``, its metric verified at the origin.

    :func:`_radial` is evaluated on the series ``u`` with ``a = b =
    POTENTIAL``.  :class:`CalibrationError` is raised unless the metric
    is Kaehler there and its holomorphic sectional curvature at 0 equals
    ``hsc`` exactly (a reading of ``-hsc`` is a convention error), and
    for ``hsc`` zero or ``|hsc|`` outside the normal float range.
    """
    hsc = Fraction(hsc)
    low, high = sys.float_info.min, sys.float_info.max
    if not low <= abs(hsc) <= high:
        raise CalibrationError(
            f"curvature of factor dim={dim} is beyond the float range of the "
            f"metric: |hsc| must lie in [{low:.3e}, {high:.3e}]"
        )
    f1, f2 = _radial(POTENTIAL, POTENTIAL, hsc, _Series(Fraction(0), Fraction(1)))
    if f2.u0 != f1.u1:
        raise CalibrationError(
            f"metric is not Kaehler at the origin: f''(0) = {f2.u0}, "
            f"d f'/du (0) = {f1.u1} for dim={dim}, hsc={hsc}"
        )
    value = -(f1.u1 + f2.u0) / f1.u0**2
    if value != hsc:
        cause = "curvature convention error" if value == -hsc else "curvature mismatch"
        raise CalibrationError(
            f"{cause}: the metric reads {value} at the origin for dim={dim}, hsc={hsc}"
        )
    return SpaceFormFactor(dim=dim, hsc=hsc)
