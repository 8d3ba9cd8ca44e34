"""The in-house not-a-knot spline against scipy's ``CubicSpline``: the same
floats for values and derivatives, on the solved coefficient grids and on
random grids, and the same ValueError on non-finite input."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mvgame._spline import cubic_spline


def _assert_same(got, want):
    """Same shape and the same bits (nan where scipy has nan, zeros signed)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _check(x, y, axis, ts):
    ref, ours = CubicSpline(x, y, axis=axis), cubic_spline(x, y, axis=axis)
    ref_d, ours_d = ref.derivative(), ours.derivative()
    for t in ts:
        _assert_same(ours(t), ref(t))
        _assert_same(ours_d(t), ref_d(t))


def _queries(x):
    """Scalar and array t: on nodes, between them, and past either end."""
    lo, hi = x[0], x[-1]
    between = x[:-1] + 0.37 * np.diff(x)
    return [lo, hi, x[len(x) // 2], between[0], lo - 1.5 * (hi - lo), hi + 0.5,
            x, between, np.linspace(lo - 1.0, hi + 1.0, 301),
            np.array([[between[-1], hi], [lo, np.nan]])]


@pytest.mark.parametrize("preset", ["long", "short"])
def test_coefficient_grids_match_cubic_spline(coeffs_long, coeffs_short, preset):
    for cs in coeffs_long if preset == "long" else coeffs_short:
        ts = _queries(cs.times)
        for grid in (cs.a, cs.b):
            _check(cs.times, grid, 1, ts)
            for row in grid:
                _check(cs.times, row, 0, ts)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 401])
def test_random_grids_match_cubic_spline(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        x = np.sort(rng.uniform(-5.0, 5.0, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        y = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-10.0, 10.0, (1, 2))
        ts = _queries(x)
        _check(x, y, 0, ts)
        _check(x, y.T, 1, ts)
        _check(x, y[:, 0], 0, ts)


@pytest.mark.parametrize("y,match", [
    ([0.0, 1.0, np.inf, 2.0, 3.0], "values are not finite"),
    ([0.0, 1.0, np.nan, 2.0, 3.0], "values are not finite"),
    ([0.0, 1e308, -1e308, 1e308, 0.0], "slopes are not finite")],
    ids=["inf", "nan", "overflowing-slopes"])
def test_non_finite_input_or_slopes_raise(y, match):
    x = np.arange(5.0)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            CubicSpline(x, y)
        with pytest.raises(ValueError, match=match):
            cubic_spline(x, y)


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                               [0.0, 1.0, np.inf, 4.0], [0.0]])
def test_bad_knots_raise(x):
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="knots"):
        cubic_spline(x, np.zeros(len(x)))
