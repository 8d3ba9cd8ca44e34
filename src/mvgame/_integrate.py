"""Backward RK4 integration of constant-rate linear ODE systems.

All coefficient ODEs in this package are affine with a constant,
lower-triangular rate, x'(t) = alpha x + beta(t), and zero at T, so each
classical RK4 step from t_{j+1} down to t_j collapses to an affine update
x_j = A x_{j+1} + B_j with one lower-triangular step map A for the whole
grid.  The B_j are assembled vectorized from beta sampled on the
half-step grid.  Row r of the update is then a scalar recursion whose
forcing B_j[r] + A[r, :r] x_{j+1}[:r] is known once the earlier rows are
solved.  Each row is scanned step by step in Python floats, which is exactly
the per-step loop's arithmetic; a scalar system is the case d = 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rk4_backward_affine"]


def rk4_backward_affine(beta_half: np.ndarray, alpha, dt: float) -> np.ndarray:
    """Integrate x' = alpha x + beta(t) backward from zero at T.

    ``beta_half`` has shape (2n+1,) for scalar systems or (2n+1, d), sampled
    on the half grid; ``alpha`` is the constant rate, a float or a
    lower-triangular (d, d) matrix (any other raises ``ValueError``); ``dt``
    is the main-grid step.  Returns the solution on the main grid, shape
    (n+1,) or (n+1, d).
    """
    beta_half = np.asarray(beta_half, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    scalar = alpha.ndim == 0
    if scalar:
        alpha = alpha.reshape(1, 1)
        beta_half = beta_half[:, None]
    if np.triu(alpha, 1).any():
        raise ValueError("alpha must be lower-triangular")
    m, d = beta_half.shape
    if m % 2 == 0:
        raise ValueError("beta_half must be sampled on a half grid (odd length)")
    n = (m - 1) // 2

    h = -dt  # stepping from t_{j+1} down to t_j
    b_end, b_mid, b_start = beta_half[2::2], beta_half[1::2], beta_half[:-1:2]
    eye = np.eye(d)

    # k_i = M_i x + c_i, composed through the four RK4 stages.
    m1, c1 = alpha, b_end
    m2 = alpha @ (eye + 0.5 * h * m1)
    c2 = 0.5 * h * np.einsum("ij,nj->ni", alpha, c1) + b_mid
    m3 = alpha @ (eye + 0.5 * h * m2)
    c3 = 0.5 * h * np.einsum("ij,nj->ni", alpha, c2) + b_mid
    m4 = alpha @ (eye + h * m3)
    c4 = h * np.einsum("ij,nj->ni", alpha, c3) + b_start
    big_a = eye + (h / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
    big_b = (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)

    out = np.zeros((n + 1, d))
    for r in range(d):
        # x_j[r] = forcing_j + A[r, r] x_{j+1}[r], scanned from j = n-1 down.
        a = float(big_a[r, r])
        forcing = big_b[:, r] + out[1:, :r] @ big_a[r, :r]
        x = 0.0
        scan = [x := f + a * x for f in forcing[::-1].tolist()]
        out[:n, r] = scan[::-1]
    return out[:, 0] if scalar else out
