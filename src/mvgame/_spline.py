"""Not-a-knot cubic splines, bit for bit with scipy's ``CubicSpline``.

``scipy.interpolate`` loads about 290 scipy modules (some 27 MB resident)
for a fit that is one tridiagonal solve.  :func:`cubic_spline` repeats
scipy 1.17.1's arithmetic step for step -- the not-a-knot system of
``CubicSpline``, its ``solve_banded`` call, the Hermite-to-power
coefficients -- and :class:`Spline` evaluates as ``PPoly`` does, so values
and derivatives are the same floats.  The tridiagonal solve is LAPACK's
``dgtsv`` (LAPACK Users' Guide, 3rd ed., SIAM 1999) in Python floats, in
its operation order, so a fit loads no scipy; only the 3-knot parabola,
which no command fits, imports ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Spline:
    """Piecewise polynomial in power form: ``c[k, i]`` multiplies
    ``(t - x[i])**(deg - k)`` on ``[x[i], x[i + 1])``; the end pieces
    extrapolate.  It runs along the first axis of the data, whose other axes
    follow the query's.  Splines compare by identity, as scipy's do."""

    x: np.ndarray
    c: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, "right") - 1, 0, len(self.x) - 2)
        s = (t - self.x[i]).reshape(t.shape + (1,) * (self.c.ndim - 2))
        # PPoly's order: 0.0 + c[-1], then + c[-2]*s, + c[-3]*(s*s), ...
        powers = [s]
        while len(powers) < len(self.c) - 1:
            powers.append(powers[-1] * s)
        out = 0.0 + self.c[-1][i]
        for ck, z in zip(self.c[-2::-1], powers):
            out = out + ck[i] * z
        return out

    def derivative(self) -> Spline:
        deg = len(self.c) - 1
        factor = np.arange(deg, 0, -1, dtype=float).reshape((-1,) + (1,) * (self.c.ndim - 1))
        return Spline(self.x, self.c[:-1] * factor)


class _Factored(NamedTuple):
    """``dgtsv``'s elimination of one tridiagonal matrix, which depends on
    the matrix alone: each row's multiplier, whether rows i and i + 1 were
    interchanged, and the diagonal, superdiagonal and second superdiagonal
    of U (0.0 in a row without an interchange), as tuples of Python floats:
    the last one is cached and shared."""

    fact: tuple
    swapped: tuple
    d: tuple
    du: tuple
    du2: tuple


def _gtsv_factor(dl, d, du) -> _Factored:
    """``dgtsv``'s forward elimination of the matrix with subdiagonal
    ``dl``, diagonal ``d`` and superdiagonal ``du``: rows i and i + 1 are
    interchanged when |d_i| < |dl_i|.  Raises LinAlgError on a zero pivot,
    as ``solve_banded`` does."""
    n = len(d)
    d, du, du2 = list(d), list(du), list(dl)
    fact, swapped = [0.0] * (n - 1), [False] * (n - 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(du2[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            f = fact[i] = du2[i] / d[i]
            d[i + 1] = d[i + 1] - f * du[i]
            du2[i] = 0.0
        else:
            f = fact[i] = d[i] / du2[i]
            swapped[i] = True
            d[i], temp = du2[i], d[i + 1]
            d[i + 1] = du[i] - f * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -f * du2[i]
            du[i] = temp
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    return _Factored(*map(tuple, (fact, swapped, d, du, du2)))


def _gtsv_solve(fac: _Factored, b: list) -> np.ndarray:
    """``dgtsv``'s solve of the right-hand side ``b`` with the factored
    matrix ``fac``: the elimination's row operations on ``b``, then
    x_i = (b_i - du_i x_{i+1} - du2_i x_{i+2}) / d_i from the last row up,
    in LAPACK's order and with no fused multiply-add."""
    fact, d, du, du2 = fac.fact, fac.d, fac.du, fac.du2
    if any(fac.swapped):
        x = list(b)
        for i, (f, swap) in enumerate(zip(fact, fac.swapped)):
            if swap:
                x[i], x[i + 1] = x[i + 1], x[i] - f * x[i + 1]
            else:
                x[i + 1] = x[i + 1] - f * x[i]
    else:
        p = b[0]
        x = [p] + [(p := bi - f * p) for bi, f in zip(b[1:], fact)]
        # du2 is all 0.0, and t - 0.0 * x_{i+2} is t unless t is -0.0 (then
        # x_i is zero) or x_{i+2} is not finite.  So a solution with no zero
        # and no non-finite entry is LAPACK's; any other is redone below
        # with the du2 terms.
        p = x[-1] / d[-1]
        back = [p] + [(p := (bi - u * p) / di)
                      for bi, u, di in zip(x[-2::-1], du[::-1], d[-2::-1])]
        out = np.array(back[::-1])
        if out.all() and np.isfinite(out).all():
            return out
    x[-1] = x[-1] / d[-1]
    x[-2] = (x[-2] - du[-1] * x[-1]) / d[-2]
    for i in range(len(x) - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return np.array(x)


@lru_cache(maxsize=1)
def _not_a_knot_factored(knots: bytes) -> _Factored:
    """The factored not-a-knot matrix of the float64 knots ``knots`` (at
    least 4, or scipy's two-point system for 2).  It depends on the knots
    alone, and a command's fits share one grid, so the last one is kept."""
    x = np.frombuffer(knots)
    if len(x) == 2:
        return _gtsv_factor([0.0], [1.0, 1.0], [0.0])
    dx = np.diff(x)
    return _gtsv_factor(dx[1:].tolist() + [float(x[-1] - x[-3])],
                        [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])],
                        [float(x[2] - x[0])] + dx[:-1].tolist())


def cubic_spline(x, y) -> Spline:
    """The not-a-knot cubic spline through ``y`` at the knots ``x`` along
    the first axis of ``y``.  Raises ValueError for knots that are not finite
    and strictly increasing, or for a non-finite ``y`` or solved slope."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, dx = len(x), np.diff(x)
    if n < 2 or not (np.all(np.isfinite(x)) and np.all(dx > 0)):
        raise ValueError("spline knots must be finite and strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ValueError("spline values are not finite")
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n == 3:
        # Both not-a-knot rows coincide: scipy fits the parabola instead.
        from scipy.linalg import solve

        A = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.stack((2 * slope[0], 3 * (dxr[0] * slope[1] + dxr[1] * slope[0]), 2 * slope[1]))
        s = solve(A, b.reshape(3, -1), overwrite_a=True, overwrite_b=True,
                  check_finite=False).reshape(b.shape)
    else:
        b = np.empty((n,) + y.shape[1:])
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        if n == 2:
            # scipy's two-point end condition: both slopes equal the chord's.
            b[:] = slope[0]
        else:
            d = x[2] - x[0]
            b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
            d = x[-1] - x[-3]
            b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        fac = _not_a_knot_factored(x.tobytes())
        s = np.stack([_gtsv_solve(fac, col.tolist()) for col in b.reshape(n, -1).T],
                     axis=1).reshape(b.shape)
    if not np.all(np.isfinite(s)):
        raise ValueError("spline slopes are not finite")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return Spline(x, np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])))
