import math
from fractions import Fraction

import numpy as np
import pytest

from crchern.kahler import (
    CalibrationError,
    KahlerProductPatch,
    calibrate_space_form,
    curvature_at,
    metric_at,
)
from crchern.kahler.spaceform import CALIBRATION_ABORT, POTENTIAL, _hsc_at_origin_exact


@pytest.fixture
def fresh_oracle():
    """An empty oracle memo, before and after: a test that patches the
    oracle's metric must see the oracle run, not a memoized result."""
    _hsc_at_origin_exact.cache_clear()
    yield
    _hsc_at_origin_exact.cache_clear()


@pytest.mark.parametrize("hsc", [1, -1, 2, Fraction(-3, 2), Fraction(1, 4)])
def test_calibration_residual_below_gate(hsc):
    for dim in (1, 2):
        factor = calibrate_space_form(dim, hsc)
        assert factor.calibration_residual <= float(CALIBRATION_ABORT)
        assert factor.hsc == Fraction(hsc)


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
    r_plus = curvature_at(KahlerProductPatch((plus,)), z)[0]
    r_minus = curvature_at(KahlerProductPatch((minus,)), z)[0]
    assert np.max(np.abs(r_plus + r_minus)) < 1e-7


def test_flat_limit():
    # R(0) -> 0 as the curvature parameter shrinks
    previous = None
    for c in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**4)):
        factor = calibrate_space_form(1, c)
        z = np.zeros(1, dtype=complex)
        r = curvature_at(KahlerProductPatch((factor,)), z)[0]
        size = float(np.max(np.abs(r)))
        if previous is not None:
            assert size < previous / 5
        previous = size
    assert previous < 1e-3


def test_exact_origin_oracle_matches_request():
    value = _hsc_at_origin_exact(Fraction(2), Fraction(1))
    assert abs(value - 1) < Fraction(1, 10**12)
    value = _hsc_at_origin_exact(Fraction(2), Fraction(-3, 2))
    assert abs(value - Fraction(-3, 2)) < Fraction(1, 10**12)


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
    _, ric, _ = curvature_at(patch, z)
    g = metric_at(patch, z)
    assert np.max(np.abs(ric + g)) < 1e-6  # Ric = -g


def test_einstein_conversion_scales_with_dimension():
    # dim 2 space forms satisfy Ric = (3/2) hsc g
    patch = KahlerProductPatch((calibrate_space_form(2, 2),))
    z = np.zeros(2, dtype=complex)
    _, ric, _ = curvature_at(patch, z)
    assert np.max(np.abs(ric - 3 * metric_at(patch, z))) < 1e-6


def test_zero_curvature_rejected():
    with pytest.raises(CalibrationError):
        calibrate_space_form(1, 0)


def test_convention_mismatch_aborts(monkeypatch, fresh_oracle):
    # flip the sign of the curvature parameter inside the metric the
    # calibration oracle sees: no positive constant can then match, and
    # the abort path must fire rather than return a wrong factor
    from crchern.kahler import spaceform

    original = spaceform._g11_exact

    def flipped(a, b, c, x, y):
        return original(a, b, -c, x, y)

    monkeypatch.setattr(spaceform, "_g11_exact", flipped)
    for dim in (1, 1, 2):  # no solve is reused across the abort
        with pytest.raises(CalibrationError, match="curvature convention error"):
            calibrate_space_form(dim, 1)


@pytest.mark.parametrize("hsc", [10**15, -(10**15), 10**300], ids=["1e15", "-1e15", "1e300"])
def test_unresolved_curvature_is_not_called_a_convention_error(hsc):
    # the oracle reads hsc to 1e-22 relative, but not to the absolute gate
    with pytest.raises(CalibrationError) as info:
        calibrate_space_form(1, hsc)
    assert str(info.value).startswith("finite differences cannot resolve this curvature")
    assert "convention" not in str(info.value)


@pytest.mark.parametrize(
    "hsc",
    [Fraction(1, 10**400), Fraction(-1, 10**400), 10**400, -(10**5000)],
    ids=["1e-400", "-1e-400", "1e400", "-1e5000"],
)
def test_curvature_beyond_the_float_range_refused(hsc):
    with pytest.raises(CalibrationError, match="beyond the float range"):
        calibrate_space_form(1, hsc)


def test_non_radial_entry_fails_the_mixed_stencil_check(monkeypatch, fresh_oracle):
    # x*y vanishes on both axes, so only the mixed x-y stencil sees it
    from crchern.kahler import spaceform

    original = spaceform._g11_exact

    def skewed(a, b, c, x, y):
        return original(a, b, c, x, y) + x * y

    monkeypatch.setattr(spaceform, "_g11_exact", skewed)
    with pytest.raises(CalibrationError, match="mixed stencil"):
        calibrate_space_form(1, 1)


def test_calibration_depends_on_curvature_only():
    hsc = Fraction(-3, 2)
    base = calibrate_space_form(1, hsc)
    for dim in (2, 5):
        factor = calibrate_space_form(dim, hsc)
        assert factor.dim == dim
        assert (factor.patch_radius, factor.calibration_residual) == (
            base.patch_radius,
            base.calibration_residual,
        )
    residual = abs(_hsc_at_origin_exact(POTENTIAL, hsc) - hsc)
    assert float(residual) == base.calibration_residual


WIDE_CURVATURES = [
    sign * Fraction(value)
    for value in ("1e-8", "1/4", "1", "37/3", "100", "1e4", "1e6")
    for sign in (1, -1)
]


@pytest.mark.parametrize("hsc", WIDE_CURVATURES, ids=str)
def test_closed_form_calibration_across_curvature(hsc, monkeypatch, fresh_oracle):
    # a = b = 2 for every curvature: the gate passes, the metric along
    # z_1 is 1 / (1 + (hsc/2)|z|^2)^2, and the oracle runs once
    from crchern.kahler import spaceform

    calls = []
    original = spaceform._g11_exact

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(spaceform, "_g11_exact", counted)
    factor = calibrate_space_form(1, hsc)
    assert factor.calibration_residual <= float(CALIBRATION_ABORT)
    assert len(calls) <= 65  # one extrapolation: 1 + 8 per level, 8 levels
    c = float(hsc)
    for frac in (0.0, 0.1, 0.3, 0.45):
        radius = frac * min(1.0, factor.patch_radius)
        z = np.array([radius * np.exp(0.7j)])
        expected = 1 / (1 + (c / 2) * radius**2) ** 2
        assert factor.metric(z)[0, 0].real == pytest.approx(expected, rel=1e-12)


def test_bochner_products_runs_the_oracle_once_per_curvature(
    monkeypatch, tmp_path, fresh_oracle
):
    # eight factors of two curvatures: two oracle runs, and every factor
    # equals one calibrated from an empty memo
    from crchern.cli import main
    from crchern.kahler import scenario

    factors = []
    original = scenario.calibrate_space_form

    def recorded(dim, hsc):
        factors.append(original(dim, hsc))
        return factors[-1]

    monkeypatch.setattr(scenario, "calibrate_space_form", recorded)
    out = tmp_path / "manifest.json"
    argv = ["verify", "bochner-products", "--format", "json", "--no-timestamp"]
    assert main([*argv, "--out", str(out)]) == 0
    info = _hsc_at_origin_exact.cache_info()
    assert len(factors) == 8
    assert (info.misses, info.hits) == (2, 6)
    for factor in factors:
        _hsc_at_origin_exact.cache_clear()
        assert calibrate_space_form(factor.dim, factor.hsc) == factor


def _full_table_oracle(a, hsc, depth=8):
    """The calibration oracle as first written: ``Fraction(0)`` on the
    axes, and the whole Richardson table rebuilt at every level."""
    from crchern.kahler import spaceform

    b, c = a, hsc
    h = Fraction(1, 8)
    while 4 * h * h >= b / abs(c):
        h /= 2

    def g(x, y):
        return spaceform._g11_exact(a, b, c, x, y)

    zero = Fraction(0)
    g0 = g(zero, zero)
    values, result = [], None
    for level in range(depth):
        dxx = (g(h, zero) - 2 * g0 + g(-h, zero)) / h**2
        dyy = (g(zero, h) - 2 * g0 + g(zero, -h)) / h**2
        values.append((dxx + dyy) / 4)
        if level >= 1:
            table = [values]
            for j in range(1, len(values)):
                prev = table[-1]
                table.append(
                    [(4**j * prev[i + 1] - prev[i]) / (4**j - 1) for i in range(len(prev) - 1)]
                )
            new = table[-1][0]
            if result is not None and abs(new - result) < spaceform._EXTRAPOLATION_GOAL:
                result = new
                break
            result = new
        h /= 2
    return -result / g0**2


@pytest.mark.parametrize(
    "hsc", ["1", "-1", "1/3", "-7/2", "100", "1/1000", "-1e6", "3e-9"], ids=str
)
def test_oracle_one_tableau_row_per_level_matches_the_full_table(hsc, fresh_oracle):
    # exact arithmetic: one new row per level is the same Fraction
    hsc = Fraction(hsc)
    value = _hsc_at_origin_exact(POTENTIAL, hsc)
    assert type(value) is Fraction
    assert value == _full_table_oracle(POTENTIAL, hsc)


def test_refused_curvature_is_refused_on_every_call(fresh_oracle):
    # the oracle's reading is memoized, the gate on it is not
    for _ in range(3):
        with pytest.raises(CalibrationError, match="cannot resolve"):
            calibrate_space_form(1, 10**15)
    info = _hsc_at_origin_exact.cache_info()
    assert (info.misses, info.hits) == (1, 2)
