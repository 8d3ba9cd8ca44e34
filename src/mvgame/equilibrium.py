"""Closed-form time-consistent Nash equilibrium for the Gaussian mean-return model.

Each agent's auxiliary expectation and value function are quadratic in the
market state,

    g_i(t, x, y) = x + a2(t) y^2 / 2 + a1(t) y + a0(t),
    V_i(t, x, y) = x + b2(t) y^2 / 2 + b1(t) y + b0(t),

with coefficient functions solved backward from zero terminal values.  The
a-coefficients have closed forms (a0 by quadrature); the b-coefficients are
obtained by RK4 back-integration of the linear system that the extended HJB
equation induces on the quadratic ansatz.  Equilibrium action means solve a
2x2 linear system coupling the two agents through their sensitivities, and
read only the closed-form a1, a2, so a policy needs no solved grid; the
action standard deviation lam_i(t) ||h_i'||_2 / (gamma_i sigma^2) involves
only the agent's own preferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from ._integrate import half_grid, rk4_backward_affine
from ._table import write_table
from .choquet import Distortion, build_optimal_quantile, location_scale_quantile
from .market import AgentParams, MarketParams

__all__ = [
    "CoefficientSet",
    "EquilibriumPolicy",
    "SingularMeanSystemError",
    "NonFiniteCoefficientError",
    "DEFAULT_GRID_SIZE",
    "a_coeffs_closed_form",
    "solve_a_coeffs",
    "solve_a_coeffs_ode",
    "solve_b_coeffs",
    "solve_coefficients",
    "equilibrium_std",
    "couple_means",
    "equilibrium_means",
    "mean_system_residuals",
    "closed_form_policy",
    "equilibrium_policy",
    "value_functions",
    "black_scholes_policy",
    "generator_apply",
    "hjb_residuals",
]

DEFAULT_GRID_SIZE = 4001


class SingularMeanSystemError(ValueError):
    """k1*k2 >= 1 makes the equilibrium mean system singular."""


class NonFiniteCoefficientError(ArithmeticError):
    """A solved coefficient grid holds inf or nan: the inputs overflow the
    equilibrium's arithmetic (a numerical failure, not a malformed config)."""


def _require_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteCoefficientError(f"coefficient {name} is not finite")


def _spline(times, rows):
    # scipy.interpolate is imported where a spline is fitted: the commands
    # evaluate closed forms and read grids only at their nodes.
    from scipy.interpolate import CubicSpline

    return CubicSpline(times, rows, axis=1)


@dataclass
class CoefficientSet:
    """Time-indexed coefficients of one agent's (g, V) quadratic forms.

    ``a`` and ``b`` are (3, n) arrays with rows (a0, a1, a2) / (b0, b1, b2)
    on the uniform grid ``times``; off-grid queries use cubic interpolation,
    fitted on the first query.  Construction raises
    :class:`NonFiniteCoefficientError` on any inf or nan, naming the row.
    Immutable after solving.
    """

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        for prefix, rows in (("a", self.a), ("b", self.b)):
            for k, row in enumerate(rows):
                _require_finite(f"{prefix}{k}", row)

    @cached_property
    def _a_spline(self):
        return _spline(self.times, self.a)

    @cached_property
    def _b_spline(self):
        return _spline(self.times, self.b)

    def a_at(self, t):
        """(a0, a1, a2) at t; vectorized over t."""
        return self._a_spline(t)

    def b_at(self, t):
        return self._b_spline(t)

    def a_deriv(self, t):
        """(a0', a1', a2') from the interpolant derivative (numeric, not the ODE)."""
        return self._a_spline.derivative()(t)

    def b_deriv(self, t):
        return self._b_spline.derivative()(t)

    def to_csv(self, path) -> None:
        write_table(path, ["t", "a0", "a1", "a2", "b0", "b1", "b2"],
                    [[self.times, *self.a, *self.b]])


def _mean_reversion_rate(market: MarketParams) -> float:
    """The combined decay rate iota + rho*v entering the a-coefficients."""
    return market.iota + market.rho * market.v


def a_coeffs_closed_form(agent: AgentParams, market: MarketParams, horizon: float, t):
    """Closed-form (a1, a2) at times t.

    a2 = (1 - e^{-2c(T-t)})/(gamma c) and a1 = iota*y_bar*(1 - e^{-c(T-t)})^2
    /(gamma c^2) with c = iota + rho*v; at c = 0 the limits 2(T-t)/gamma and
    iota*y_bar*(T-t)^2/gamma apply.
    """
    tau = horizon - np.asarray(t, dtype=float)
    c = _mean_reversion_rate(market)
    g = agent.gamma
    if c == 0.0:
        a2 = 2.0 * tau / g
        a1 = market.iota * market.y_bar * tau ** 2 / g
    else:
        a2 = -np.expm1(-2.0 * c * tau) / (g * c)
        a1 = market.iota * market.y_bar * np.expm1(-c * tau) ** 2 / (g * c ** 2)
    return a1, a2


def solve_a_coeffs(agent: AgentParams, market: MarketParams, horizon: float,
                   grid_size: int = DEFAULT_GRID_SIZE):
    """(a0, a1, a2) grids on [0, T]: a1, a2 in closed form, a0 by backward
    quadrature of a0' = -a1*iota*y_bar - (v^2/2)*a2 with a0(T) = 0."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size!r}")
    t = np.linspace(0.0, horizon, grid_size)
    a1, a2 = a_coeffs_closed_form(agent, market, horizon, t)
    th = half_grid(t)
    a1_h, a2_h = a_coeffs_closed_form(agent, market, horizon, th)
    beta = -a1_h * market.iota * market.y_bar - 0.5 * market.v ** 2 * a2_h
    a0 = rk4_backward_affine(beta, 0.0, t[1] - t[0], 0.0)
    return a0, a1, a2


def solve_a_coeffs_ode(agent: AgentParams, market: MarketParams, horizon: float,
                       grid_size: int = DEFAULT_GRID_SIZE):
    """(a0, a1, a2) grids by RK4 back-integration of the full coefficient ODE
    system (the independent oracle for the closed forms):

        a2' = 2c a2 - 2/gamma,  a1' = c a1 - iota*y_bar*a2,
        a0' = -iota*y_bar*a1 - (v^2/2) a2,       all zero at T.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size!r}")
    t = np.linspace(0.0, horizon, grid_size)
    th = half_grid(t)
    c = _mean_reversion_rate(market)
    g = agent.gamma
    iy = market.iota * market.y_bar
    # State ordering (a2, a1, a0): lower-triangular coupling.
    alpha = np.array([[2.0 * c, 0.0, 0.0],
                      [-iy, c, 0.0],
                      [-0.5 * market.v ** 2, -iy, 0.0]])
    beta = np.zeros((len(th), 3))
    beta[:, 0] = -2.0 / g
    sol = rk4_backward_affine(beta, alpha, t[1] - t[0], np.zeros(3))
    return sol[:, 2], sol[:, 1], sol[:, 0]


def _std(agent: AgentParams, vol: float, t):
    """lam(t) ||h'||_2 / (gamma vol^2), vectorized over t."""
    return agent.lam(t) * (agent.distortion.l2_norm / (agent.gamma * vol ** 2))


def equilibrium_std(agent: AgentParams, market: MarketParams) -> Callable:
    """t -> lam(t) ||h'||_2 / (gamma sigma^2), the agent's equilibrium std."""
    if market.sigma <= 0.0:
        raise ValueError("equilibrium requires a strictly positive sigma")
    return partial(_std, agent, market.sigma)


def solve_b_coeffs(agent_i: AgentParams, agent_j: AgentParams, market: MarketParams,
                   horizon: float, grid_size: int = DEFAULT_GRID_SIZE):
    """(b0, b1, b2) grids by RK4 back-integration of the value-coefficient system.

    Substituting the quadratic ansatz into the extended HJB equation at the
    equilibrium policy and collecting powers of y gives

        b2' = 2*iota*b2 + 2*rho*v*a2 + gamma*v^2*(1-rho^2)*a2^2 - 1/gamma
        b1' = iota*b1 - iota*y_bar*b2 + rho*v*a1 + gamma*v^2*(1-rho^2)*a1*a2
        b0' = -iota*y_bar*b1 - (v^2/2)*b2 + (gamma/2)*v^2*(1-rho^2)*a1^2
              + (gamma/2)*sigma^2*k^2*sigma_j(t)^2 - lam(t)^2||h'||_2^2/(2*gamma*sigma^2)

    with zero terminal values; a1, a2 are the agent's own closed forms and
    sigma_j is the opponent's equilibrium std.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size!r}")
    sigma_j = equilibrium_std(agent_j, market)
    t = np.linspace(0.0, horizon, grid_size)
    th = half_grid(t)
    a1_h, a2_h = a_coeffs_closed_form(agent_i, market, horizon, th)

    g = agent_i.gamma
    s2 = market.sigma ** 2
    v2 = market.v ** 2
    rv = market.rho * market.v
    ortho = v2 * (1.0 - market.rho ** 2)
    iy = market.iota * market.y_bar
    l2 = agent_i.distortion.l2_norm

    # State ordering (b2, b1, b0).
    alpha = np.array([[2.0 * market.iota, 0.0, 0.0],
                      [-iy, market.iota, 0.0],
                      [-0.5 * v2, -iy, 0.0]])
    beta = np.empty((len(th), 3))
    beta[:, 0] = 2.0 * rv * a2_h + g * ortho * a2_h ** 2 - 1.0 / g
    beta[:, 1] = rv * a1_h + g * ortho * a1_h * a2_h
    beta[:, 2] = (0.5 * g * ortho * a1_h ** 2
                  + 0.5 * g * s2 * agent_i.k ** 2 * sigma_j(th) ** 2
                  - agent_i.lam(th) ** 2 * l2 ** 2 / (2.0 * g * s2))
    sol = rk4_backward_affine(beta, alpha, t[1] - t[0], np.zeros(3))
    return sol[:, 2], sol[:, 1], sol[:, 0]


def solve_coefficients(agents, market: MarketParams, horizon: float,
                       grid_size: int = DEFAULT_GRID_SIZE):
    """Solve both agents' coefficient sets on a shared grid."""
    t = np.linspace(0.0, horizon, grid_size)
    out = []
    for i, j in ((0, 1), (1, 0)):
        a0, a1, a2 = solve_a_coeffs(agents[i], market, horizon, grid_size)
        b0, b1, b2 = solve_b_coeffs(agents[i], agents[j], market, horizon, grid_size)
        try:
            out.append(CoefficientSet(times=t, a=np.vstack([a0, a1, a2]),
                                      b=np.vstack([b0, b1, b2])))
        except NonFiniteCoefficientError as exc:
            raise NonFiniteCoefficientError(f"agent {i + 1}: {exc}") from None
    return tuple(out)


def _mean_base(t, y, agent: AgentParams, market: MarketParams, horizon: float):
    """y/(gamma*sigma) - (rho v/sigma)(a2 y + a1): the agent's response mean
    net of the opponent coupling term, from the closed-form a1, a2."""
    a1, a2 = a_coeffs_closed_form(agent, market, horizon, t)
    rv = market.rho * market.v
    y = np.asarray(y, dtype=float)
    return (y / (agent.gamma * market.sigma)
            - (rv / market.sigma) * (a2 * y + a1))


def couple_means(base1, base2, agents):
    """Solve the two agents' mean coupling mu_i - k_i mu_j = base_i exactly:
    mu_i = (base_i + k_i base_j)/(1 - k1 k2).  The bases broadcast."""
    k1, k2 = agents[0].k, agents[1].k
    denom = 1.0 - k1 * k2
    if denom <= 0.0:
        raise SingularMeanSystemError(f"k1*k2 = {k1 * k2!r} >= 1")
    return (base1 + k1 * base2) / denom, (base2 + k2 * base1) / denom


def equilibrium_means(t, y, agents, market: MarketParams, horizon: float):
    """Equilibrium action means (mu1*, mu2*) at (t, y), vectorized over t
    and/or y.  The means read the closed-form a1, a2, so they need only the
    horizon.
    """
    return couple_means(_mean_base(t, y, agents[0], market, horizon),
                        _mean_base(t, y, agents[1], market, horizon), agents)


def mean_system_residuals(t, y, agents, market: MarketParams, horizon: float, mus):
    """Residuals of mu_i - k_i mu_j = base_i for a candidate mean pair."""
    mu1, mu2 = mus
    r1 = (mu1 - agents[0].k * mu2) - _mean_base(t, y, agents[0], market, horizon)
    r2 = (mu2 - agents[1].k * mu1) - _mean_base(t, y, agents[1], market, horizon)
    return r1, r2


@dataclass(frozen=True)
class EquilibriumPolicy:
    """Sampling policy with mean slope(t) y + intercept(t), time-dependent
    std, quantile = mean + std * h'(1-p)/||h'||_2.  ``affine(t) -> (slope,
    intercept)`` and ``std(t)`` are vectorized over t (constants may be
    scalars), so the Monte Carlo engine evaluates them once per step grid.
    The built policies pickle: they hold partials of module-level functions."""

    affine: Callable
    std: Callable
    distortion: Distortion

    def mean(self, t, y):
        slope, intercept = self.affine(t)
        return slope * np.asarray(y, dtype=float) + intercept

    def quantile(self, t, y, p):
        return location_scale_quantile(self.mean(t, y), self.std(t), self.distortion, p)

    def policy_at(self, t: float, y: float):
        """Frozen one-instant exploration law (a QuantilePolicy)."""
        return build_optimal_quantile(self.distortion, float(self.mean(t, y)),
                                      float(self.std(t)))


def closed_form_policy(agent_index: int, agents, market: MarketParams,
                       horizon: float) -> EquilibriumPolicy:
    """Agent ``agent_index``'s equilibrium sampling policy: both agents' base
    slopes 1/(gamma sigma) - (rho v/sigma) a2 and intercepts -(rho v/sigma) a1,
    from the closed-form a1, a2, coupled as (base_i + k_i base_j)/(1 - k1 k2)
    with rho v/sigma factored out."""
    agent, other = agents[agent_index], agents[1 - agent_index]
    return EquilibriumPolicy(affine=partial(_closed_form_affine, agent, other, market, horizon),
                             std=equilibrium_std(agent, market), distortion=agent.distortion)


def _closed_form_affine(agent, other, market: MarketParams, horizon: float, t):
    # The one coupling not left to couple_means: the density CSVs are written
    # from this factored form, pinned bit for bit by TestClosedFormMeans.
    denom = 1.0 - agent.k * other.k
    rv_s = market.rho * market.v / market.sigma
    slope0 = 1.0 / (agent.gamma * market.sigma) + agent.k / (other.gamma * market.sigma)
    (a1_i, a2_i), (a1_j, a2_j) = (a_coeffs_closed_form(a, market, horizon, t)
                                  for a in (agent, other))
    return ((slope0 - rv_s * (a2_i + agent.k * a2_j)) / denom,
            -rv_s * (a1_i + agent.k * a1_j) / denom)


def equilibrium_policy(agent_index: int, agents, market: MarketParams,
                       coeffs) -> EquilibriumPolicy:
    """The closed-form policy on the horizon of a solved coefficient pair."""
    return closed_form_policy(agent_index, agents, market, coeffs[agent_index].times[-1])


def value_functions(agent_index: int, t, xhat, y, coeffs):
    """(V_i, g_i) at (t, xhat, y) from the solved coefficient set."""
    cs = coeffs[agent_index]
    y = np.asarray(y, dtype=float)
    a0, a1, a2 = cs.a_at(t)
    b0, b1, b2 = cs.b_at(t)
    v = xhat + 0.5 * b2 * y ** 2 + b1 * y + b0
    g = xhat + 0.5 * a2 * y ** 2 + a1 * y + a0
    return v, g


def black_scholes_policy(agents, a: float, b: float, r: float):
    """Equilibrium pair in the constant-parameter (Black-Scholes) market.

    Means are the constants coupling the bases ((a-r)/b^2)/gamma_i;
    stds are lam_i(t) ||h_i'||_2 / (gamma_i b^2).
    """
    if b <= 0.0:
        raise ValueError(f"volatility must be positive, got {b!r}")
    sharpe_sq = (a - r) / b ** 2
    means = couple_means(sharpe_sq / agents[0].gamma, sharpe_sq / agents[1].gamma, agents)
    return tuple(EquilibriumPolicy(affine=partial(_constant_affine, m),
                                   std=partial(_std, agent, b), distortion=agent.distortion)
                 for agent, m in zip(agents, means))


def _constant_affine(intercept, t):
    return 0.0, intercept


def generator_apply(market: MarketParams, t, y, mu_i, sigma_i, mu_j, sigma_j,
                    k_i, partials):
    """Apply the controlled generator of (Xhat, Y) to a function's partials.

    ``partials`` = (p_t, p_x, p_xx, p_y, p_yy, p_xy).  The drift of Xhat is
    sigma*y*(mu_i - k_i mu_j); its quadratic variation rate is
    sigma^2 ((mu_i - k_i mu_j)^2 + sigma_i^2 + k_i^2 sigma_j^2); the
    Xhat-Y covariation rate is rho*v*sigma*(mu_i - k_i mu_j).
    """
    p_t, p_x, p_xx, p_y, p_yy, p_xy = partials
    mu_gap = mu_i - k_i * mu_j
    s = market.sigma
    quad_rate = s ** 2 * (mu_gap ** 2 + sigma_i ** 2 + k_i ** 2 * sigma_j ** 2)
    return (p_t
            + s * y * mu_gap * p_x
            + 0.5 * quad_rate * p_xx
            + market.iota * (market.y_bar - y) * p_y
            + 0.5 * market.v ** 2 * p_yy
            + market.rho * market.v * s * mu_gap * p_xy)


def hjb_residuals(agent_index: int, agents, market: MarketParams, coeffs,
                  t: float, xhat: float, y: float):
    """Numeric residuals of the extended HJB pair at the equilibrium policy.

    Returns (hjbw, hjbg) where hjbg = L g and hjbw = L V - (gamma/2) L(g^2)
    + gamma g L g + lam(t) Phi_h(pi*).  Coefficient time derivatives come
    from the interpolant (independent of the ODE right-hand sides), so the
    check exercises both the derivation and the integration.
    """
    agent = agents[agent_index]
    cs = coeffs[agent_index]
    a0, a1, a2 = cs.a_at(t)
    b0, b1, b2 = cs.b_at(t)
    da0, da1, da2 = cs.a_deriv(t)
    db0, db1, db2 = cs.b_deriv(t)

    mu1, mu2 = equilibrium_means(t, y, agents, market, cs.times[-1])
    mu_i, mu_j = (mu1, mu2) if agent_index == 0 else (mu2, mu1)
    agent_j = agents[1 - agent_index]
    sig_i = equilibrium_std(agent, market)(t)
    sig_j = equilibrium_std(agent_j, market)(t)

    g_val = xhat + 0.5 * a2 * y ** 2 + a1 * y + a0
    g_partials = (0.5 * da2 * y ** 2 + da1 * y + da0, 1.0, 0.0, a2 * y + a1, a2, 0.0)
    v_partials = (0.5 * db2 * y ** 2 + db1 * y + db0, 1.0, 0.0, b2 * y + b1, b2, 0.0)
    g_y = a2 * y + a1
    g_sq_partials = (2.0 * g_val * g_partials[0], 2.0 * g_val, 2.0,
                     2.0 * g_val * g_y, 2.0 * (g_y ** 2 + g_val * a2), 2.0 * g_y)

    args = (market, t, y, mu_i, sig_i, mu_j, sig_j, agent.k)
    l_v = generator_apply(*args, v_partials)
    l_g = generator_apply(*args, g_partials)
    l_g_sq = generator_apply(*args, g_sq_partials)
    reg = float(agent.lam(t)) * sig_i * agent.distortion.l2_norm
    hjbw = l_v - 0.5 * agent.gamma * l_g_sq + agent.gamma * g_val * l_g + reg
    return float(hjbw), float(l_g)
