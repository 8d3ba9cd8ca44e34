"""Backward RK4 integration of linear time-varying ODE systems.

All coefficient ODEs in this package are affine, x'(t) = alpha(t) x + beta(t)
with a terminal condition at T, so each classical RK4 step from t_{j+1} down
to t_j collapses to an affine update x_j = A_j x_{j+1} + B_j.  The A_j, B_j
are assembled vectorized from alpha/beta sampled on the half-step grid.
The backward scan is one ``scipy.signal.lfilter`` call when the system is
scalar and A_j is the same for every step (a quadrature, or a constant
decay rate); otherwise it runs as a Python loop.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

__all__ = ["half_grid", "rk4_backward_affine"]


def half_grid(t_grid: np.ndarray) -> np.ndarray:
    """Uniform refinement with midpoints: 2n+1 points for an n-step grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    n = len(t_grid) - 1
    return np.linspace(t_grid[0], t_grid[-1], 2 * n + 1)


def rk4_backward_affine(alpha_half: np.ndarray, beta_half: np.ndarray,
                        dt: float, terminal) -> np.ndarray:
    """Integrate x' = alpha(t) x + beta(t) backward from x(T) = terminal.

    ``alpha_half`` has shape (2n+1,) for scalar systems or (2n+1, d, d);
    ``beta_half`` has shape (2n+1,) or (2n+1, d); ``dt`` is the main-grid
    step.  Returns the solution on the main grid, shape (n+1,) or (n+1, d).
    """
    alpha_half = np.asarray(alpha_half, dtype=float)
    beta_half = np.asarray(beta_half, dtype=float)
    scalar = alpha_half.ndim == 1
    if scalar:
        alpha_half = alpha_half[:, None, None]
        beta_half = beta_half[:, None]
    m, d, _ = alpha_half.shape
    if m % 2 == 0:
        raise ValueError("alpha_half must be sampled on a half grid (odd length)")
    n = (m - 1) // 2

    h = -dt  # stepping from t_{j+1} down to t_j
    a_end, a_mid, a_start = alpha_half[2::2], alpha_half[1::2], alpha_half[:-1:2]
    b_end, b_mid, b_start = beta_half[2::2], beta_half[1::2], beta_half[:-1:2]
    eye = np.eye(d)

    # k_i = M_i x + c_i, composed through the four RK4 stages.
    m1, c1 = a_end, b_end
    m2 = a_mid @ (eye + 0.5 * h * m1)
    c2 = 0.5 * h * np.einsum("nij,nj->ni", a_mid, c1) + b_mid
    m3 = a_mid @ (eye + 0.5 * h * m2)
    c3 = 0.5 * h * np.einsum("nij,nj->ni", a_mid, c2) + b_mid
    m4 = a_start @ (eye + h * m3)
    c4 = h * np.einsum("nij,nj->ni", a_start, c3) + b_start
    big_a = eye + (h / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
    big_b = (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)

    out = np.empty((n + 1, d))
    out[n] = np.atleast_1d(np.asarray(terminal, dtype=float))
    if d == 1 and n and np.all(big_a == big_a[0]):
        # x_j = A x_{j+1} + B_j is a first-order recursive filter over the
        # reversed forcing; lfilter evaluates B_j + A*x_{j+1} per step, the
        # same two roundings as the loop, so the result is bit-identical.
        a = big_a[0, 0, 0]
        y, _ = lfilter([1.0], [1.0, -a], big_b[::-1, 0], zi=[a * out[n, 0]])
        out[:n, 0] = y[::-1]
    else:
        v = out[n]
        for j in range(n - 1, -1, -1):
            v = big_a[j] @ v + big_b[j]
            out[j] = v
    return out[:, 0] if scalar else out
