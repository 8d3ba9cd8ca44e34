import numpy as np
import pytest

from mvgame import equilibrium as eqm
from mvgame._integrate import rk4_backward_affine

from presets import preset


def reference_rk4(alpha_half, beta_half, dt, terminal):
    """Per-step RK4 maps from a rate sampled on the half grid, followed by
    the backward loop: what ``rk4_backward_affine`` must reproduce when that
    rate is constant, exactly for a scalar system and to round-off for the
    rows of a triangular system that couple to earlier rows."""
    alpha_half = np.asarray(alpha_half, dtype=float)
    beta_half = np.asarray(beta_half, dtype=float)
    scalar = alpha_half.ndim == 1
    if scalar:
        alpha_half = alpha_half[:, None, None]
        beta_half = beta_half[:, None]
    m, d, _ = alpha_half.shape
    n = (m - 1) // 2
    h = -dt
    a_end, a_mid, a_start = alpha_half[2::2], alpha_half[1::2], alpha_half[:-1:2]
    b_end, b_mid, b_start = beta_half[2::2], beta_half[1::2], beta_half[:-1:2]
    eye = np.eye(d)
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
    v = out[n]
    for j in range(n - 1, -1, -1):
        v = big_a[j] @ v + big_b[j]
        out[j] = v
    return out[:, 0] if scalar else out


def _grid(n, horizon=5.0):
    """Half grid and step of an n-step grid on [0, horizon]."""
    t = np.linspace(0.0, horizon, n + 1)
    return np.linspace(0.0, horizon, 2 * n + 1), t[1] - t[0]


def test_constant_scalar_system_matches_loop():
    th, dt = _grid(4000, 20.0)
    beta = 0.3 * np.sin(th) - 1.5
    got = rk4_backward_affine(beta, 0.54, dt)
    want = reference_rk4(np.full_like(th, 0.54), beta, dt, 0.0)
    assert got.shape == (4001,)
    assert np.array_equal(got, want)


def test_zero_alpha_quadrature_matches_loop():
    th, dt = _grid(1000)
    beta = np.exp(-th) - 0.25 * th
    got = rk4_backward_affine(beta, 0.0, dt)
    assert np.array_equal(got, reference_rk4(np.zeros_like(th), beta, dt, 0.0))
    # a quadrature of x' = beta from x(T) = 0 gives -int_t^T beta
    t = np.linspace(0.0, 5.0, 1001)
    exact = -((np.exp(-t) - np.exp(-5.0)) - 0.125 * (25.0 - t ** 2))
    assert np.max(np.abs(got - exact)) < 1e-12


def test_shortest_grid_matches_loop():
    th, dt = _grid(1)
    beta = np.array([0.1, 0.2, 0.3])
    got = rk4_backward_affine(beta, -0.8, dt)
    assert got.shape == (2,)
    assert got[1] == 0.0
    assert np.array_equal(got, reference_rk4(np.full_like(th, -0.8), beta, dt, 0.0))


@pytest.mark.parametrize("alpha, terminal", [
    ([[0.54, 0.0, 0.0], [-0.07, 0.27, 0.0], [-0.002, -0.07, 0.0]], [0.0, 0.0, 0.0]),
], ids=["lower_triangular"])
def test_matrix_system_matches_loop(alpha, terminal):
    th, dt = _grid(400)
    alpha = np.array(alpha)
    beta = np.zeros((len(th), 3))
    beta[:, 0] = -0.5
    beta[:, 2] = 0.01 * th
    got = rk4_backward_affine(beta, alpha, dt)
    assert got.shape == (401, 3)
    assert np.array_equal(got[-1], terminal)
    want = reference_rk4(np.broadcast_to(alpha, (len(th), 3, 3)), beta, dt, terminal)
    # row 0 is a scalar recursion, exact; rows 1-2 add the coupling to the
    # forcing before the diagonal term, a different order from the loop
    assert np.array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", ["table1", "table2"])
def test_b_systems_of_presets_match_loop(name, monkeypatch):
    """The b-systems ``solve_b_coeffs`` builds for both agents of a preset,
    scanned row by row, agree with the per-step loop on the same inputs."""
    cfg = preset(name)
    agents = cfg.build_agents(cfg.sim.horizon)
    calls = []

    def spy(*args):
        calls.append((args, rk4_backward_affine(*args)))
        return calls[-1][1]

    monkeypatch.setattr(eqm, "rk4_backward_affine", spy)
    for i, j in ((0, 1), (1, 0)):
        eqm.solve_b_coeffs(agents[i], agents[j], cfg.market, cfg.sim.horizon)
    assert len(calls) == 2
    for (beta, alpha, dt), got in calls:
        want = reference_rk4(np.broadcast_to(alpha, (len(beta), 3, 3)), beta, dt, 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_non_triangular_alpha_rejected():
    th, _ = _grid(4)
    alpha = [[0.31, -0.12, 0.05], [0.08, -0.2, 0.17], [-0.04, 0.09, 0.26]]
    with pytest.raises(ValueError, match="lower-triangular"):
        rk4_backward_affine(np.zeros((len(th), 3)), alpha, 0.1)


def test_even_length_half_grid_rejected():
    with pytest.raises(ValueError, match="beta_half .*odd length"):
        rk4_backward_affine(np.zeros(4), 0.0, 0.1)
