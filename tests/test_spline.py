"""The in-house not-a-knot spline against scipy's ``CubicSpline``: the same
floats for values and derivatives, on the solved coefficient grids and on
random grids, and the same ValueError on non-finite input.  Its tridiagonal
solve gives ``solve_banded``'s bits, signed zeros included."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from mvgame import _spline
from mvgame._spline import cubic_spline


def _assert_same(got, want):
    """Same shape and the same bits (nan where scipy has nan, zeros signed)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _check(x, y, ts):
    ref, ours = CubicSpline(x, y), cubic_spline(x, y)
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
    """A solved set's off-node values and its derivatives are scipy's spline
    along the time axis of its (3, n) grids, with the rows first."""
    for cs in coeffs_long if preset == "long" else coeffs_short:
        ts = _queries(cs.times)
        off_node = [t for t in ts if not np.all(np.isin(t, cs.times))]
        for grid, at, deriv in ((cs.a, cs.a_at, cs.a_deriv), (cs.b, cs.b_at, cs.b_deriv)):
            ref = CubicSpline(cs.times, grid, axis=1)
            ref_d = ref.derivative()
            for t in off_node:
                _assert_same(at(t), ref(t))
            for t in ts:
                _assert_same(deriv(t), ref_d(t))
            _check(cs.times, grid.T, ts)
            for row in grid:
                _check(cs.times, row, ts)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 401])
def test_random_grids_match_cubic_spline(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        x = np.sort(rng.uniform(-5.0, 5.0, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        y = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-10.0, 10.0, (1, 2))
        ts = _queries(x)
        _check(x, y, ts)
        _check(x, y[:, 0], ts)


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


def _tridiagonal(kind, n, rng):
    """(dl, d, du): diagonally dominant (no interchange), with |dl_i| > |d_i|
    in every row (most elimination steps interchange), or with random
    entries of either sign (some do)."""
    dl, du = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1)
    if kind == "dominant":
        d = rng.uniform(4.5, 6.0, n)
    elif kind == "interchanging":
        d, dl = rng.uniform(-0.9, 0.9, n), rng.choice([-1.0, 1.0], n - 1) * (dl + 0.5)
    else:
        d, dl, du = (rng.standard_normal(m) for m in (n, n - 1, n - 1))
    return dl, d, du


def _right_hand_sides(n, nrhs, rng):
    """Random columns at magnitudes from 1e-200 to 1e200, random ones with
    exact zeros of both signs, +0.0, -0.0, zeros of random sign, and random
    ones holding +inf, -inf or nan in the first, middle and last row."""
    scale = 10.0 ** rng.uniform(-200.0, 200.0, nrhs)
    sparse = rng.standard_normal((n, nrhs))
    sparse[rng.random((n, nrhs)) < 0.5] = 0.0
    sparse[rng.random((n, nrhs)) < 0.25] = -0.0
    non_finite = []
    for value in (np.inf, -np.inf, np.nan):
        b = rng.standard_normal((n, nrhs))
        b[[0, n // 2, -1]] = value
        non_finite.append(b)
    return [rng.standard_normal((n, nrhs)) * scale, sparse, np.zeros((n, nrhs)),
            np.full((n, nrhs), -0.0), np.where(rng.random((n, nrhs)) < 0.5, -0.0, 0.0),
            *non_finite]


@pytest.mark.parametrize("n", [2, 4, 5, 401, 4001])
@pytest.mark.parametrize("nrhs", [1, 2, 3])
@pytest.mark.parametrize("kind", ["dominant", "interchanging", "mixed"])
def test_tridiagonal_solve_matches_solve_banded(n, nrhs, kind):
    rng = np.random.default_rng([n, nrhs, len(kind)])
    dl, d, du = _tridiagonal(kind, n, rng)
    fac = _spline._gtsv_factor(dl.tolist(), d.tolist(), du.tolist())
    if kind == "dominant":
        assert not any(fac.swapped)
    elif kind == "interchanging":
        assert fac.swapped[0] and 2 * sum(fac.swapped) > n - 1
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    for b in _right_hand_sides(n, nrhs, rng):
        want = solve_banded((1, 1), ab, b, check_finite=False)
        got = np.stack([_spline._gtsv_solve(fac, col.tolist()) for col in b.T], axis=1)
        _assert_same(got, want)


@pytest.mark.parametrize("dl,d,du", [([1.0], [1.0, 1.0], [1.0]), ([0.0], [0.0, 1.0], [1.0]),
                                     ([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0])],
                         ids=["last", "first", "middle"])
def test_zero_pivot_raises_as_solve_banded_does(dl, d, du):
    ab = np.zeros((3, len(d)))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), ab, np.ones(len(d)))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _spline._gtsv_factor(dl, d, du)


def test_factorization_is_refitted_when_the_knots_change():
    """The last factored matrix is kept, keyed on the knots' bytes: a fit on
    the same knots reuses it, and knots that differ in one ulp or in length
    factor their own, each matching ``CubicSpline``."""
    x = np.linspace(0.0, 3.0, 9)
    moved = x.copy()
    moved[4] = np.nextafter(moved[4], 4.0)
    y = np.random.default_rng(5).standard_normal((9, 2))
    _spline._not_a_knot_factored.cache_clear()
    for knots, values, misses in ((x, y, 1), (x, y[:, 0], 1), (x ** 2, y, 2),
                                  (moved, y, 3), (x[:-1], y[:-1], 4), (x, y, 5)):
        _check(knots, values, _queries(knots))
        assert _spline._not_a_knot_factored.cache_info().misses == misses
