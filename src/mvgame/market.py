"""Gaussian mean-return market simulator and Monte Carlo objective estimation.

The risky asset earns drift r + sigma*Y(t) where Y is an Ornstein-Uhlenbeck
state correlated (rho) with the asset's Brownian driver:

    dS/S = (r + sigma*Y) dt + sigma dB
    dY   = iota*(y_bar - Y) dt + v*(rho dB + sqrt(1-rho^2) dB~)

Wealth is tracked in discounted units; an action u is the discounted amount
held in the risky asset, so one step of the discounted wealth is exactly
x + u * (relative change of e^{-rt} S(t)).  Episodes sample both agents'
actions by inverse transform from their policy quantile functions, one
uniform draw per agent per step (the same uniforms are reused by the
perturbed-actor replay during training).  ``run_episode_batch`` evaluates
affine-in-state policies once per batch, runs the state recursion over the
whole batch, then a price pass over blocks of episodes and an action pass over
each agent's blocks, drawing each block's uniforms as the block runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._table import write_table
from .choquet import location_scale_quantile, phi_h

__all__ = [
    "MarketParams",
    "AgentParams",
    "SimConfig",
    "Trajectory",
    "ObjectiveEstimate",
    "SimulationDivergedError",
    "Schedule",
    "episode_generator",
    "simulate_game",
    "estimate_objective",
]

# Episodes are aborted once wealth leaves this range; the model itself puts
# no bound on wealth, but training needs a numerical sanity guard.
WEALTH_GUARD = 1e12

# rng.random() returns multiples of 2^-53 in [0, 1-2^-53]; only an exact 0
# must be lifted off the closed endpoint before inverse-transform sampling.
_U_MIN = 2.0 ** -53

# Episodes per block of run_episode_batch's price pass and of each agent's
# action pass (whose uniforms are drawn one block at a time), and rows per
# block of the state forcing that _state_step assembles.  One 20k-episode
# table2 chunk on one CPU, two alternating sweeps: 0.82/0.75 s at 128,
# 0.81/0.79 s at 256 and 0.85/0.82 s at 512 (medians of 5); 128 also peaks
# 3 MB lower.
_BLOCK_ROWS = 128

# Episodes per run_episode_batch call in estimate_objective.  The batches
# read one stream in turn, so this constant fixes the stream's layout: every
# estimate depends only on the generator and the episode count.
_MC_BLOCK = 1000


class SimulationDivergedError(RuntimeError):
    """A simulated path produced non-finite or guard-exceeding values."""


@dataclass(frozen=True)
class MarketParams:
    """Constants of the Gaussian mean-return model."""

    r: float
    sigma: float
    iota: float
    y_bar: float
    v: float
    rho: float

    def __post_init__(self):
        # sigma = 0 is allowed here (degenerate noiseless price, useful for
        # simulator checks); equilibrium formulas divide by sigma and enforce
        # positivity themselves.
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma!r}")
        if self.iota < 0.0:
            raise ValueError(f"iota must be nonnegative, got {self.iota!r}")
        if self.v < 0.0:
            raise ValueError(f"v must be nonnegative, got {self.v!r}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho!r}")


@dataclass(frozen=True)
class Schedule:
    """Exploration weight t -> lam0 * exp(rate * (horizon - t)): the constant
    lam0 at rate 0 (exp(0) = 1 exactly), exponentially decaying at rate lam0."""

    lam0: float
    rate: float = 0.0
    horizon: float = 0.0

    def __post_init__(self):
        if self.lam0 <= 0.0:
            raise ValueError(f"exploration weight must be positive, got {self.lam0!r}")

    def __call__(self, t):
        return self.lam0 * np.exp(self.rate * (self.horizon - np.asarray(t, dtype=float)))


@dataclass(frozen=True)
class AgentParams:
    """Preferences of one agent.

    ``gamma`` is the risk aversion, ``k`` the sensitivity to the opponent's
    terminal wealth, ``lam`` the exploration weight schedule t -> lam(t) > 0
    (a picklable :class:`Schedule`), and ``distortion`` the regularizer shape.
    """

    gamma: float
    k: float
    lam: Callable[[float], float]
    distortion: "Distortion"  # noqa: F821 - mvgame.choquet.Distortion

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        # k=0 is accepted: it decouples the game into single-agent problems.
        if not 0.0 <= self.k < 1.0:
            raise ValueError(f"k must lie in [0, 1), got {self.k!r}")


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    n_steps: int
    seed: int
    x1_0: float = 1.0
    x2_0: float = 1.0
    y_0: float = 0.273

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass
class Trajectory:
    """One simulated episode on the grid t_0..t_N (actions have length N)."""

    times: np.ndarray
    y: np.ndarray
    s_disc: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    actions1: np.ndarray
    actions2: np.ndarray

    def to_csv(self, path) -> None:
        """One row per grid time; the last row's actions are blank."""
        write_table(path, ["t", "y", "s_disc", "x1", "x2", "u1", "u2"],
                    [[self.times, self.y, self.s_disc, self.x1, self.x2,
                      self.actions1, self.actions2]])


def episode_generator(seed: int, episode: int) -> np.random.Generator:
    """Counter-based per-episode generator: episode m is reproducible
    regardless of how many episodes ran before or on which worker."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, episode))))


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise SimulationDivergedError("simulation produced non-finite values")


def _draw_state_noise(cfg: SimConfig, n_paths: int, rng) -> np.ndarray:
    """Increments (dB, dB~) * sqrt(dt) as one (2, n_paths, n_steps) array,
    from one Generator (every path's dB, then every dB~) or one Generator
    per path (its dB, then its dB~); callers may append further draws."""
    if isinstance(rng, np.random.Generator):
        noise = rng.standard_normal((2, n_paths, cfg.n_steps))
    elif len(rng) == n_paths:
        noise = np.stack([g.standard_normal((2, cfg.n_steps)) for g in rng], axis=1)
    else:
        raise ValueError(f"need one generator per path: {len(rng)} for {n_paths}")
    noise *= np.sqrt(cfg.dt)
    return noise


def _state_step(params: MarketParams, cfg: SimConfig, db, forcing) -> None:
    """Overwrite ``forcing`` (dB~ on entry) with the Euler-Maruyama state
    paths started from 0, Y_k - y_0 phi^k for k = 1..n_steps.

    Y_{k+1} = phi*Y_k + (iota*y_bar*dt + noise_k) is an AR(1) recursion.  Its
    forcing is assembled in row blocks, so no temporary is as large as
    ``db``; the recursion then advances every path together, step by step."""
    phi = 1.0 - params.iota * cfg.dt
    for start in range(0, len(forcing), _BLOCK_ROWS):
        rows = forcing[start:start + _BLOCK_ROWS]
        rows *= np.sqrt(1.0 - params.rho ** 2)
        rows += params.rho * db[start:start + _BLOCK_ROWS]
        rows *= params.v
        rows += params.iota * params.y_bar * cfg.dt
    for k in range(1, cfg.n_steps):
        forcing[:, k] += phi * forcing[:, k - 1]


def _price_step(params: MarketParams, cfg: SimConfig, db, state):
    """State paths and log-Euler discounted price paths (y, s_disc), each
    (paths, n_steps+1) with s_disc(0) = 1, from rows of ``_draw_state_noise``'s
    dB and of ``_state_step``'s ``state``.  Overwrites ``db``."""
    n, dt = cfg.n_steps, cfg.dt
    phi = 1.0 - params.iota * dt
    y = np.empty((len(db), n + 1))
    y[:, 0] = cfg.y_0
    y[:, 1:] = state
    y[:, 1:] += cfg.y_0 * np.power(phi, np.arange(1, n + 1))

    # Discounted price: d(log S) = (r + sigma*Y - sigma^2/2) dt + sigma dB,
    # then e^{-rt} S(t); the r terms cancel.  The log increments overwrite dB.
    db *= params.sigma
    db += (params.sigma * y[:, :-1] - 0.5 * params.sigma ** 2) * dt
    s_disc = np.empty((len(db), n + 1))
    s_disc[:, 0] = 1.0
    np.exp(np.cumsum(db, axis=1, out=s_disc[:, 1:]), out=s_disc[:, 1:])

    _check_finite(y, s_disc)
    return y, s_disc


def _state_and_price_batch(params: MarketParams, cfg: SimConfig, n_paths: int,
                           rng: np.random.Generator):
    """(y, s_disc) of ``n_paths`` paths drawn as ``_draw_state_noise`` does."""
    db, forcing = _draw_state_noise(cfg, n_paths, rng)
    _state_step(params, cfg, db, forcing)
    return _price_step(params, cfg, db, forcing)


def _draw_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    return np.maximum(u, _U_MIN, out=u)


def simulate_game(params: MarketParams, agents, policies, cfg: SimConfig,
                  rng: np.random.Generator) -> Trajectory:
    """One full episode with both agents acting.

    ``policies`` is a pair of objects exposing ``quantile(t, y, p)``
    (vectorized over arrays); at each step each agent draws an action by
    inverse transform from one uniform and wealth advances by the exact
    discounted-price relative change.
    """
    n = cfg.n_steps
    y, s_disc = _state_and_price_batch(params, cfg, 1, rng)
    y, s_disc = y[0], s_disc[0]
    p1 = _draw_uniforms(rng, n)
    p2 = _draw_uniforms(rng, n)

    t_grid = np.linspace(0.0, cfg.horizon, n + 1)
    u1 = np.asarray(policies[0].quantile(t_grid[:-1], y[:-1], p1), dtype=float)
    u2 = np.asarray(policies[1].quantile(t_grid[:-1], y[:-1], p2), dtype=float)

    rel = np.diff(s_disc) / s_disc[:-1]
    x1 = np.concatenate(([cfg.x1_0], cfg.x1_0 + np.cumsum(u1 * rel)))
    x2 = np.concatenate(([cfg.x2_0], cfg.x2_0 + np.cumsum(u2 * rel)))

    _check_finite(x1, x2)
    if np.max(np.abs(x1)) > WEALTH_GUARD or np.max(np.abs(x2)) > WEALTH_GUARD:
        raise SimulationDivergedError("wealth exceeded guard threshold")
    return Trajectory(times=t_grid, y=y, s_disc=s_disc, x1=x1, x2=x2,
                      actions1=u1, actions2=u2)


@dataclass
class BatchResult:
    """Terminal wealth gaps and per-step action residual moments for a batch
    of episodes (residual = action minus the policy mean at the visited state)."""

    xhat_T: np.ndarray         # shape (2, n_episodes)
    resid_sum: np.ndarray      # shape (2, n_steps)
    resid_sumsq: np.ndarray    # shape (2, n_steps)
    n_episodes: int


def run_episode_batch(params: MarketParams, agents, policies, cfg: SimConfig,
                      n_episodes: int, rng: np.random.Generator) -> BatchResult:
    """Simulate ``n_episodes`` independent episodes vectorized over episodes.

    A policy exposes ``affine(t) -> (slope, intercept)`` of its mean
    slope*y + intercept, ``std(t)`` and ``distortion``, evaluated once on the
    step grid; actions are their ``location_scale_quantile``.  Draws dB and
    dB~ over the whole batch and runs the state recursion once over it, in
    place.  A price pass then runs each block of ``_BLOCK_ROWS`` episodes and
    leaves its discounted-price relative changes over dB and its visited
    states over the state paths.  An action pass runs agent by agent and block
    by block: it draws the block's uniforms, then its actions, residual
    moments and terminal wealth.  The stream is dB, dB~, then agent 1's and
    agent 2's uniforms, as whole-batch draws would give them, but only the two
    noise arrays are as large as the batch.
    """
    n = cfg.n_steps
    t_steps = np.linspace(0.0, cfg.horizon, n + 1)[:-1]
    # dB and dB~, which the price pass overwrites with what the actions read
    rel, states = _draw_state_noise(cfg, n_episodes, rng)
    laws = [(*pol.affine(t_steps), pol.std(t_steps), pol.distortion) for pol in policies]

    x0 = (cfg.x1_0, cfg.x2_0)
    x_T = np.empty((2, n_episodes))
    resid_sum = np.zeros((2, n))
    resid_sumsq = np.zeros((2, n))
    _state_step(params, cfg, rel, states)
    blocks = [slice(s, s + _BLOCK_ROWS) for s in range(0, n_episodes, _BLOCK_ROWS)]
    # A block keeps at most three block-sized temporaries alive, and frees
    # them before the next block starts (estimate_objective's memory bound).
    for blk in blocks:
        y, s_disc = _price_step(params, cfg, rel[blk], states[blk])
        states[blk] = y[:, :-1]
        del y
        np.divide(np.diff(s_disc, axis=1), s_disc[:, :-1], out=rel[blk])
        del s_disc
    for i, (slope, intercept, std, dist) in enumerate(laws):
        for blk in blocks:
            # The centred quantile plus the mean, added in place, is
            # location_scale_quantile(mean, ...) without the mean held through
            # the call.
            u = location_scale_quantile(0.0, std, dist,
                                        _draw_uniforms(rng, states[blk].shape))
            mean = slope * states[blk]
            mean += intercept
            u += mean
            x_T[i, blk] = x0[i] + np.sum(u * rel[blk], axis=1)
            u -= mean  # the residual
            resid_sum[i] += u.sum(axis=0)
            u *= u
            resid_sumsq[i] += u.sum(axis=0)
            del u, mean

    _check_finite(x_T)
    k = np.array([[a.k] for a in agents])
    return BatchResult(xhat_T=x_T - k * x_T[::-1], resid_sum=resid_sum,
                       resid_sumsq=resid_sumsq, n_episodes=n_episodes)


@dataclass(frozen=True)
class ObjectiveEstimate:
    value: float
    std_error: float
    n_episodes: int
    mean_terminal: float
    var_terminal: float
    regularizer_integral: float


def _regularizer_integral(agent, policy, t_grid: np.ndarray, dt: float) -> float:
    """Discrete-time integral sum_k lam(t_k) * Phi_h(policy(t_k)) * dt.

    Phi_h is translation invariant and positively homogeneous, so it is
    std(t) times Phi_h of the policy's standardized law: ||h'||_2 when the
    policy's distortion equals the agent's, else ``choquet.phi_h``.
    """
    ts = t_grid[:-1]
    phis = np.asarray(policy.std(ts), dtype=float)
    if policy.distortion == agent.distortion:
        phis = phis * agent.distortion.l2_norm
    else:
        phis = phis * phi_h(agent.distortion, lambda p: location_scale_quantile(
            0.0, 1.0, policy.distortion, p))
    return float(np.sum(agent.lam(ts) * phis) * dt)


def estimate_objective(agent_index: int, agents, policies, params: MarketParams,
                       cfg: SimConfig, n_episodes: int, rng: np.random.Generator,
                       chunk_size: int = _MC_BLOCK) -> ObjectiveEstimate:
    """Monte Carlo estimate of the regularized mean-variance objective

        E[int lam(s) Phi_h(Pi(s)) ds + Xhat(T)] - (gamma/2) Var[Xhat(T)]

    for the given agent, with a delta-method standard error for the
    mean-minus-scaled-variance combination.

    Episodes run in batches of ``_MC_BLOCK`` = 1000, the last one shorter,
    and each batch reads its dB, dB~ and both agents' uniforms from ``rng``
    in turn.  The estimate therefore depends only on ``rng`` and
    ``n_episodes``, and the batches hold about 2 x 8 x 1000 x n_steps bytes
    (4 MB at 250 steps) whatever ``n_episodes`` is.  ``chunk_size`` must be
    >= 1 but changes neither the result nor the memory; it stays because
    ``perfbench/workloads.py`` reads its default.
    """
    if n_episodes < 2:
        raise ValueError("need at least 2 episodes to estimate a variance")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
    agent = agents[agent_index]
    t_grid = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    reg = _regularizer_integral(agent, policies[agent_index], t_grid, cfg.dt)

    samples = np.empty(n_episodes)
    for done in range(0, n_episodes, _MC_BLOCK):
        batch = run_episode_batch(params, agents, policies, cfg,
                                  min(_MC_BLOCK, n_episodes - done), rng)
        samples[done:done + _MC_BLOCK] = batch.xhat_T[agent_index]

    mean_T = float(samples.mean())
    centered = samples - mean_T
    var_T = float(np.sum(centered ** 2) / (n_episodes - 1))
    mu3 = float(np.mean(centered ** 3))
    mu4 = float(np.mean(centered ** 4))
    g = agent.gamma
    value = reg + mean_T - 0.5 * g * var_T
    # Var(mean - (g/2) S^2) ~ [sigma^2 + (g/2)^2 (mu4 - sigma^4) - g*mu3] / n
    var_est = (var_T + 0.25 * g * g * (mu4 - var_T ** 2) - g * mu3) / n_episodes
    return ObjectiveEstimate(
        value=value,
        std_error=float(np.sqrt(max(var_est, 0.0))),
        n_episodes=n_episodes,
        mean_terminal=mean_T,
        var_terminal=var_T,
        regularizer_integral=reg,
    )
