"""Not-a-knot cubic splines, bit for bit with scipy's ``CubicSpline``.

``scipy.interpolate`` loads about 290 scipy modules (some 27 MB resident)
for a fit that is one tridiagonal solve.  :func:`cubic_spline` repeats
scipy 1.17.1's arithmetic step for step -- the not-a-knot system of
``CubicSpline``, its ``solve_banded`` (LAPACK ``gtsv``) call, the
Hermite-to-power coefficients -- and :class:`Spline` evaluates as ``PPoly``
does, so values and derivatives are the same floats.  Only the fit imports
``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Spline:
    """Piecewise polynomial in power form: ``c[k, i]`` multiplies
    ``(t - x[i])**(deg - k)`` on ``[x[i], x[i + 1])``; the end pieces
    extrapolate.  The spline axis of the data is ``axis`` of the output.
    Splines compare by identity, as scipy's do."""

    x: np.ndarray
    c: np.ndarray
    axis: int

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
        if self.axis == 0:
            return out
        order = list(range(out.ndim))
        return out.transpose(order[t.ndim:t.ndim + self.axis] + order[:t.ndim]
                             + order[t.ndim + self.axis:])

    def derivative(self) -> Spline:
        deg = len(self.c) - 1
        factor = np.arange(deg, 0, -1, dtype=float).reshape((-1,) + (1,) * (self.c.ndim - 1))
        return Spline(self.x, self.c[:-1] * factor, self.axis)


def cubic_spline(x, y, axis: int = 0) -> Spline:
    """The not-a-knot cubic spline through ``y`` at the knots ``x`` along
    ``axis``.  Raises ValueError for knots that are not finite and strictly
    increasing, or for a non-finite ``y`` or solved slope."""
    from scipy.linalg import solve, solve_banded

    x = np.asarray(x, dtype=float)
    y = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
    n, dx = len(x), np.diff(x)
    if n < 2 or not (np.all(np.isfinite(x)) and np.all(dx > 0)):
        raise ValueError("spline knots must be finite and strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ValueError("spline values are not finite")
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n == 3:
        # Both not-a-knot rows coincide: scipy fits the parabola instead.
        A = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.stack((2 * slope[0], 3 * (dxr[0] * slope[1] + dxr[1] * slope[0]), 2 * slope[1]))
        s = solve(A, b.reshape(3, -1), overwrite_a=True, overwrite_b=True,
                  check_finite=False).reshape(b.shape)
    else:
        A = np.zeros((3, n))
        b = np.empty((n,) + y.shape[1:])
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        if n == 2:
            # scipy's two-point end condition: both slopes equal the chord's.
            A[1] = 1.0
            b[:] = slope[0]
        else:
            d = x[2] - x[0]
            A[1, 0], A[0, 1] = dx[1], d
            b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
            d = x[-1] - x[-3]
            A[1, -1], A[-1, -2] = dx[-2], d
            b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        s = solve_banded((1, 1), A, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True,
                         check_finite=False).reshape(b.shape)
    if not np.all(np.isfinite(s)):
        raise ValueError("spline slopes are not finite")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return Spline(x, np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])), axis)
