import math
from fractions import Fraction

import numpy as np
import pytest

from crchern.kahler import spaceform
from crchern.kahler.patch import KahlerProductPatch, PatchDomainError, metric_at
from crchern.kahler.spaceform import (
    POTENTIAL,
    _Series,
    CalibrationError,
    SpaceFormFactor,
    _radial,
    calibrate_space_form,
)
from crchern.kahler.tensors import curvature_at


@pytest.mark.parametrize("hsc", [1, -1, 2, Fraction(-3, 2), Fraction(1, 4)])
def test_calibration_returns_the_requested_curvature(hsc):
    for dim in (1, 2):
        factor = calibrate_space_form(dim, hsc)
        assert factor == SpaceFormFactor(dim, Fraction(hsc))
        assert type(factor.hsc) is Fraction


def test_metric_is_identity_at_origin():
    factor = calibrate_space_form(2, -1)
    g = factor.metric(np.zeros(2, dtype=complex))
    assert np.allclose(g, np.eye(2))


def test_negative_curvature_patch_radius():
    factor = calibrate_space_form(1, -2)
    # ball of the model radius sqrt(b / |c|)
    assert factor.patch_radius == pytest.approx(
        math.sqrt(float(POTENTIAL) / 2)
    )
    assert calibrate_space_form(1, 1).patch_radius == math.inf


def test_opposite_curvatures_negate_at_origin():
    plus = calibrate_space_form(1, 2)
    minus = calibrate_space_form(1, -2)
    z = np.zeros(1, dtype=complex)
    r_plus = curvature_at(KahlerProductPatch((plus,)), z).R
    r_minus = curvature_at(KahlerProductPatch((minus,)), z).R
    assert np.max(np.abs(r_plus + r_minus)) < 1e-7


def test_flat_limit():
    # R(0) -> 0 as the curvature parameter shrinks
    previous = None
    for c in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**4)):
        factor = calibrate_space_form(1, c)
        z = np.zeros(1, dtype=complex)
        r = curvature_at(KahlerProductPatch((factor,)), z).R
        size = float(np.max(np.abs(r)))
        if previous is not None:
            assert size < previous / 5
        previous = size
    assert previous < 1e-3


def test_gaussian_curvature_oracle_dimension_one():
    """FD Gaussian curvature of the conformal factor equals hsc at 0.

    For a one-dimensional factor the metric is conformal, g = lam |dz|^2
    (up to the real normalization), and K = -(1/lam) dd- log lam.  This
    recomputes the sectional curvature through logarithms, a path the
    pipeline never takes.
    """
    for hsc in (1, -1, Fraction(5, 2)):
        factor = calibrate_space_form(1, hsc)
        h = 1e-4

        def lam(x, y):
            return float(factor.metric(np.array([x + 1j * y]))[0, 0].real)

        dd_log = (
            math.log(lam(h, 0))
            + math.log(lam(-h, 0))
            + math.log(lam(0, h))
            + math.log(lam(0, -h))
            - 4 * math.log(lam(0, 0))
        ) / (4 * h * h)  # quarter of the real Laplacian = dd- at a point
        K = -dd_log / lam(0, 0)
        assert K == pytest.approx(float(hsc), abs=1e-5)


def test_einstein_constant_conversion():
    # dim 1 space forms satisfy Ric = hsc g
    factor = calibrate_space_form(1, -1)
    patch = KahlerProductPatch((factor,))
    z = np.zeros(1, dtype=complex)
    ric = curvature_at(patch, z).Ric
    g = metric_at(patch, z)
    assert np.max(np.abs(ric + g)) < 1e-6  # Ric = -g


def test_einstein_conversion_scales_with_dimension():
    # dim 2 space forms satisfy Ric = (3/2) hsc g
    patch = KahlerProductPatch((calibrate_space_form(2, 2),))
    z = np.zeros(2, dtype=complex)
    ric = curvature_at(patch, z).Ric
    assert np.max(np.abs(ric - 3 * metric_at(patch, z))) < 1e-6


def test_zero_curvature_rejected():
    with pytest.raises(CalibrationError):
        calibrate_space_form(1, 0)


def _mutant(monkeypatch, mutate):
    """Replace the one expression of f' and f'' by ``mutate`` of it."""
    original = _radial

    def mutated(a, b, c, u):
        return mutate(a, b, c, u, original)

    monkeypatch.setattr(spaceform, "_radial", mutated)


def test_convention_mismatch_aborts(monkeypatch):
    # flip the sign of the curvature parameter inside f' and f'': the
    # metric stays Kaehler, but reads -hsc at the origin
    _mutant(monkeypatch, lambda a, b, c, u, f: f(a, b, -c, u))
    for dim in (1, 1, 2):
        with pytest.raises(CalibrationError, match="curvature convention error"):
            calibrate_space_form(dim, 1)


def test_scaled_curvature_mutant_is_refused(monkeypatch):
    # 1.5 c in the shared expression moves the metric and the calibration
    # together; a curvature read off a second copy of the formula did not
    # see it
    factor = SpaceFormFactor(1, Fraction(1))
    z = np.array([0.3 + 0.1j])
    before = factor.metric(z)
    _mutant(monkeypatch, lambda a, b, c, u, f: f(a, b, 3 * c / 2, u))
    assert not np.allclose(factor.metric(z), before)
    for hsc in (1, -1, Fraction(5, 2)):
        with pytest.raises(CalibrationError, match="curvature mismatch: the metric reads"):
            calibrate_space_form(1, hsc)


def test_sign_flip_of_f2_is_refused_as_not_kaehler(monkeypatch):
    # f'' = +a c / (b + c u)^2 is no longer d f'/du: g = f' I + f'' conj(z) z^T
    # then comes from no potential
    def flipped(a, b, c, u, f):
        d1, d2 = f(a, b, c, u)
        return d1, -1 * d2

    _mutant(monkeypatch, flipped)
    for hsc in (1, -1, Fraction(5, 2)):
        with pytest.raises(CalibrationError, match="metric is not Kaehler at the origin"):
            calibrate_space_form(2, hsc)


@pytest.mark.parametrize("hsc", ["-1e15", "1e300"])
def test_large_curvature_is_calibrated(hsc):
    # the series is exact at every scale: a large curvature is refused
    # only where the float pipeline fails, by the metric's chart check
    assert calibrate_space_form(1, hsc).hsc == Fraction(hsc)


@pytest.mark.parametrize("z", [0.1, 0.5 + 0.5j, 1e10])
def test_metric_refuses_a_point_whose_f2_overflows(z):
    # (2 + 1e300 |z|^2)^2 overflows a float, so f'' reads 0 or inf; the
    # chart check names the point, with no float warning on the way
    factor = calibrate_space_form(1, "1e300")
    assert np.array_equal(factor.metric(np.zeros(1)), np.eye(1))
    with pytest.raises(PatchDomainError, match="outside chart of factor dim=1"):
        factor.metric(np.array([z]))


@pytest.mark.parametrize(
    "hsc",
    [Fraction(1, 10**400), Fraction(-1, 10**400), 10**400, -(10**5000)],
    ids=["1e-400", "-1e-400", "1e400", "-1e5000"],
)
def test_curvature_beyond_the_float_range_refused(hsc):
    with pytest.raises(CalibrationError, match="beyond the float range"):
        calibrate_space_form(1, hsc)


def test_calibration_depends_on_curvature_only():
    hsc = Fraction(-3, 2)
    base = calibrate_space_form(1, hsc)
    for dim in (2, 5):
        factor = calibrate_space_form(dim, hsc)
        assert factor.dim == dim
        assert (factor.hsc, factor.patch_radius) == (base.hsc, base.patch_radius)


WIDE_CURVATURES = [
    sign * Fraction(value)
    for value in ("1e-8", "1/4", "1", "37/3", "100", "1e4", "1e6")
    for sign in (1, -1)
]


@pytest.mark.parametrize("hsc", [*WIDE_CURVATURES, Fraction(10**15)], ids=str)
def test_origin_series_reads_the_request_exactly(hsc):
    # f' and f'' on u = 0 + 1 u, in Fractions: the Kaehler condition and
    # R_{1 1- 1 1-}(0) / g_{1 1-}(0)^2 = -(f'_1 + f''_0) / f'_0^2 hold
    # with no remainder
    d1, d2 = _radial(POTENTIAL, POTENTIAL, hsc, _Series(Fraction(0), Fraction(1)))
    for part in (d1.u0, d1.u1, d2.u0, d2.u1):
        assert type(part) is Fraction
    assert (d1.u0, d2.u0) == (1, d1.u1)
    assert -(d1.u1 + d2.u0) / d1.u0**2 == hsc
    assert calibrate_space_form(1, hsc).hsc == hsc


@pytest.mark.parametrize("hsc", WIDE_CURVATURES, ids=str)
def test_closed_form_metric_across_curvature(hsc):
    # a = b = 2 for every curvature: the metric along z_1 is
    # 1 / (1 + (hsc/2)|z|^2)^2
    factor = calibrate_space_form(1, hsc)
    c = float(hsc)
    for frac in (0.0, 0.1, 0.3, 0.45):
        radius = frac * min(1.0, factor.patch_radius)
        z = np.array([radius * np.exp(0.7j)])
        expected = 1 / (1 + (c / 2) * radius**2) ** 2
        assert factor.metric(z)[0, 0].real == pytest.approx(expected, rel=1e-12)
