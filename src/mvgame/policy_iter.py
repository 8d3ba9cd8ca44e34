"""Policy-iteration engines with numeric convergence certificates.

Two iterations are implemented for the Gaussian mean-return model:

* Response iteration: with the opponent frozen, updating the best response
  repeatedly turns into a pair of linear coefficient ODEs driven by the
  previous iterate,

      a2^{n}' = 2*iota*a2^{n} + 2*rho*v*a2^{n-1} - 2/gamma,
      a1^{n}' = iota*a1^{n} + rho*v*a1^{n-1} - iota*y_bar*a2^{n},

  whose sup-norm distance to the closed-form targets admits the factorial
  envelope (2|rho| v (T-t))^n / n! * M.  The iteration never changes the
  policy's scale, only the mean coefficients.

* Simultaneous mean iteration: both agents update their means at once; the
  map is an affine contraction with matrix [[0, k1], [k2, 0]], so the error
  decays geometrically at rate max(k1, k2).

The certificates use |rho|: the benchmark market has rho < 0, and the
integral inequality behind the factorial bound only controls the magnitude
of the coupling term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._integrate import rk4_backward_affine
from ._spline import cubic_spline
from ._table import write_table
from .equilibrium import (DEFAULT_GRID_SIZE, EquilibriumPolicy, NonFiniteCoefficientError,
                          _check_std_divisor, _mean_base, _require_finite, _solve_grid,
                          a_coeffs_closed_form, couple_means, equilibrium_std)
from .market import AgentParams, MarketParams

__all__ = [
    "IterateState",
    "MeanIterate",
    "ResponseHistory",
    "MeanHistory",
    "iterate_response",
    "run_response_iteration",
    "simultaneous_mean_iteration",
    "factorial_bound_a2",
    "factorial_bound_a1",
    "response_policy",
    "export_history_csv",
]


@dataclass
class IterateState:
    """One response-iteration step: coefficient grids and certified errors."""

    n: int
    a1: np.ndarray
    a2: np.ndarray
    sup_err_a1: float
    sup_err_a2: float
    bound_a1: float
    bound_a2: float


@dataclass
class ResponseHistory:
    times: np.ndarray
    iterates: list[IterateState]
    converged: bool
    tol: float

    @property
    def n_iterations(self) -> int:
        return self.iterates[-1].n


@dataclass
class MeanIterate:
    n: int
    mu1: np.ndarray
    mu2: np.ndarray
    sup_err: float
    bound: float
    ratio: float  # sup_err_n / sup_err_{n-1}; nan at n = 0


@dataclass
class MeanHistory:
    times: np.ndarray
    y_value: float
    iterates: list[MeanIterate]
    contraction_rate: float


def _on_half_grid(name: str, t, th, grid):
    """``grid`` on the uniform grid ``t``, cubic-interpolated at the half
    steps ``th`` by the in-house spline (which loads no scipy).  The fit
    raises ValueError when its slopes overflow (a grid step near 1e154 or
    more): a numerical failure, not bad input."""
    try:
        return cubic_spline(t, grid)(th)
    except ValueError as exc:
        raise NonFiniteCoefficientError(f"coefficient {name}: {exc}") from None


def iterate_response(prev_half, agent: AgentParams, market: MarketParams,
                     horizon: float, grid_size: int = DEFAULT_GRID_SIZE):
    """One response-iteration update of the mean-coefficient grids.

    ``prev_half`` is the pair (a1, a2) of the previous iterate on the half
    grid of the uniform grid of size ``grid_size``, where the update reads
    them as known forcing terms at the RK4 substeps.

    Returns (a1 grid, a2 grid, a2 on the half grid) of the new iterate.
    Raises ``NonFiniteCoefficientError`` if either new grid or the a2 fit
    overflows.
    """
    t, th = _solve_grid(horizon, grid_size)
    prev_a1_h, prev_a2_h = (np.asarray(p, dtype=float) for p in prev_half)
    if len(prev_a1_h) != len(th) or len(prev_a2_h) != len(th):
        raise ValueError(
            f"previous half grids have length {len(prev_a1_h)}/{len(prev_a2_h)}, "
            f"expected {len(th)} = 2 * grid_size - 1")
    dt = t[1] - t[0]
    rv = market.rho * market.v
    beta2 = 2.0 * rv * prev_a2_h - 2.0 / agent.gamma
    a2_new = rk4_backward_affine(beta2, 2.0 * market.iota, dt)
    _require_finite("a2", a2_new)
    a2_new_h = _on_half_grid("a2", t, th, a2_new)
    beta1 = rv * prev_a1_h - market.iota * market.y_bar * a2_new_h
    a1_new = rk4_backward_affine(beta1, market.iota, dt)
    _require_finite("a1", a1_new)
    return a1_new, a2_new, a2_new_h


def factorial_bound_a2(n: int, t_to_go: float, market: MarketParams, m_init: float) -> float:
    """(2 |rho| v tau)^n / n! * M."""
    x = 2.0 * abs(market.rho) * market.v * t_to_go
    return x ** n / math.factorial(n) * m_init


def factorial_bound_a1(n: int, t_to_go: float, market: MarketParams,
                       m_init_a1: float, m_init_a2: float) -> float:
    """(|rho| v tau)^n / n! * m + (iota y_bar / (|rho| v)) (2|rho| v tau)^{n+1}/(n+1)! * M.

    The second term is the accumulated a2 error fed through the a1 equation;
    it vanishes continuously as rho*v -> 0.
    """
    rv = abs(market.rho) * market.v
    first = (rv * t_to_go) ** n / math.factorial(n) * m_init_a1
    if rv == 0.0:
        second = 0.0
    else:
        second = (market.iota * market.y_bar / rv) \
            * (2.0 * rv * t_to_go) ** (n + 1) / math.factorial(n + 1) * m_init_a2
    return first + second


def run_response_iteration(agent: AgentParams, market: MarketParams, horizon: float,
                           n_max: int = 50, tol: float = 1e-6,
                           grid_size: int = DEFAULT_GRID_SIZE) -> ResponseHistory:
    """Iterate the response update until the closed-form targets are matched.

    The initial policy's mean coefficients are zero grids (its scale
    does not enter the iteration: after one update it is pinned to
    lam(t)||h'||_2/(gamma sigma^2) by the first-order condition).  Their
    interpolant is zero, so the first update reads zeros on the half grid;
    each later one reads the a2 the last update returned there and a fit of
    a1, which raises ``NonFiniteCoefficientError`` if it overflows.
    Non-convergence within ``n_max`` is reported, not fatal.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    t, th = _solve_grid(horizon, grid_size)
    target_a1, target_a2 = a_coeffs_closed_form(agent, market, horizon, t)
    a1 = np.zeros(grid_size)
    a2 = np.zeros(grid_size)

    m_a1 = float(np.max(np.abs(target_a1 - a1)))
    m_a2 = float(np.max(np.abs(target_a2 - a2)))
    history = [IterateState(n=0, a1=a1, a2=a2, sup_err_a1=m_a1, sup_err_a2=m_a2,
                            bound_a1=factorial_bound_a1(0, horizon, market, m_a1, m_a2),
                            bound_a2=factorial_bound_a2(0, horizon, market, m_a2))]
    # both errors compared, so a nan in either one is never converged
    converged = m_a1 < tol and m_a2 < tol
    n = 0
    a1_half = a2_half = np.zeros(len(th))  # the zero iterate's interpolant
    while not converged and n < n_max:
        if n:
            a1_half = _on_half_grid("a1", t, th, a1)
        n += 1
        a1, a2, a2_half = iterate_response((a1_half, a2_half), agent, market, horizon,
                                           grid_size)
        err1 = float(np.max(np.abs(target_a1 - a1)))
        err2 = float(np.max(np.abs(target_a2 - a2)))
        history.append(IterateState(
            n=n, a1=a1, a2=a2, sup_err_a1=err1, sup_err_a2=err2,
            bound_a1=factorial_bound_a1(n, horizon, market, m_a1, m_a2),
            bound_a2=factorial_bound_a2(n, horizon, market, m_a2)))
        converged = err1 < tol and err2 < tol
    return ResponseHistory(times=t, iterates=history, converged=converged, tol=tol)


def simultaneous_mean_iteration(agents, market: MarketParams, horizon: float,
                                initial_means, n_max: int, times,
                                y_value: float | None = None) -> MeanHistory:
    """Iterate both agents' means at once on a t-grid at a fixed state y.

    mu^{n+1} = [[0, k1], [k2, 0]] mu^n + base(t, y); converges geometrically
    to the closed-form equilibrium means at rate max(k1, k2).  A base or
    target that overflows raises ``NonFiniteCoefficientError``, or the
    ZeroDivisionError of :func:`equilibrium_std` when gamma sigma^2, the
    divisor's square, underflows to 0.
    """
    times = np.asarray(times, dtype=float)
    if y_value is None:
        y_value = market.y_bar
    k1, k2 = agents[0].k, agents[1].k
    rate = max(k1, k2)

    base1 = _mean_base(times, y_value, agents[0], market, horizon)
    base2 = _mean_base(times, y_value, agents[1], market, horizon)
    for i, base in enumerate((base1, base2)):
        if not np.all(np.isfinite(base)):
            # y / (gamma sigma) overflows; name gamma and sigma as the
            # equilibrium does when gamma sigma^2 underflows to 0
            _check_std_divisor(agents[i], market)
            raise NonFiniteCoefficientError(f"agent {i + 1}: response mean is not finite")
    target1, target2 = couple_means(base1, base2, agents)
    if not (np.all(np.isfinite(target1)) and np.all(np.isfinite(target2))):
        raise NonFiniteCoefficientError("equilibrium means are not finite")

    mu1 = np.asarray(initial_means[0], dtype=float).copy()
    mu2 = np.asarray(initial_means[1], dtype=float).copy()
    err0 = float(max(np.max(np.abs(mu1 - target1)), np.max(np.abs(mu2 - target2))))
    history = [MeanIterate(n=0, mu1=mu1, mu2=mu2, sup_err=err0,
                           bound=err0, ratio=float("nan"))]
    for n in range(1, n_max + 1):
        mu1, mu2 = k1 * mu2 + base1, k2 * mu1 + base2
        err = float(max(np.max(np.abs(mu1 - target1)), np.max(np.abs(mu2 - target2))))
        prev = history[-1].sup_err
        history.append(MeanIterate(
            n=n, mu1=mu1, mu2=mu2, sup_err=err,
            bound=err0 * rate ** n,
            ratio=err / prev if prev > 0.0 else float("nan")))
    return MeanHistory(times=times, y_value=float(y_value), iterates=history,
                       contraction_rate=rate)


def response_policy(agent: AgentParams, market: MarketParams, horizon: float,
                    a1_grid, a2_grid, times):
    """Sampling policy of one response iterate against a zero-mean opponent.

    Every iterate is a location-scale family over h': mean
    y/(gamma sigma) - (rho v/sigma)(a2^n(t) y + a1^n(t)) from the iterate's
    coefficient grids, std lam(t)||h'||_2/(gamma sigma^2) pinned by the
    first-order condition -- the iteration moves only the mean.
    """
    a1_sp = cubic_spline(times, a1_grid)
    a2_sp = cubic_spline(times, a2_grid)
    return EquilibriumPolicy(affine=partial(_response_affine, agent, market, a1_sp, a2_sp),
                             std=equilibrium_std(agent, market), distortion=agent.distortion)


def _response_affine(agent: AgentParams, market: MarketParams, a1_sp, a2_sp, t):
    rv_s = market.rho * market.v / market.sigma
    return 1.0 / (agent.gamma * market.sigma) - rv_s * a2_sp(t), -rv_s * a1_sp(t)


def export_history_csv(path, response: ResponseHistory, mean_history: MeanHistory) -> None:
    """Error-history CSV: n, sup errors, and both certified bounds; the
    shorter history's cells are blank past its end."""
    resp, mean = response.iterates, mean_history.iterates
    write_table(path, ["n", "sup_err_a1", "sup_err_a2", "factorial_bound",
                       "sup_err_mu", "geometric_bound"],
                [[np.arange(max(len(resp), len(mean))),
                  [it.sup_err_a1 for it in resp], [it.sup_err_a2 for it in resp],
                  [it.bound_a2 for it in resp],
                  [it.sup_err for it in mean], [it.bound for it in mean]]])
