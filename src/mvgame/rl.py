"""Model-free actor-critic learning of the equilibrium investment policies.

Each agent's sampling policy is a four-parameter quantile family whose mean
depends on the market state and the opponent's current mean, and whose scale
is tied to the first parameter:

    Q(p) = k_i mu_j(t) + phi0*y - phi1*(1-e^{-2 phi2 (T-t)})/phi2 * y
           - phi3*(1-e^{-phi2 (T-t)})^2 / phi2^2
           + lam_i(t) * phi0^2 * gamma_i * h_i'(1-p)

(the Actor).  Value and auxiliary-expectation surrogates are linear in their
parameter blocks with a polynomial time-to-go basis (the Critic):

    V(t, xhat, y) = xhat + p(th_V2, T-t) y^2 + p(th_V1, T-t) y + p(th_V0, T-t)

with p(th, tau) = th_0 tau + th_1 tau^2 + ... so terminal conditions hold by
construction.  The critic is least-squares TD: each episode it re-solves the
orthogonality conditions E[C1 f] = E[C2 f] = 0 of the extended HJB pair's TD
residuals over all episodes so far; the actor ascends a smoothed-functional
(Gaussian-perturbation) estimate of the HJB criterion, with nominal and
perturbed actions generated from the same uniform draws and market noise.
Parameter updates use Adam.

:func:`train` runs R independent replications as one batched program: every
per-episode array has a leading replication axis, and replication r draws
episode m from its own counter-based stream ``episode_generator(seeds[r], m)``.
No computation mixes two replications' rows, so a replication's result does
not depend on which others share its batch.  An agent axis precedes it: both
agents learn from one market path, so the work that depends on the path
alone, such as the critic features, is done once per episode and shared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._table import write_table
from .choquet import location_scale_quantile
from .equilibrium import couple_means
from .market import (AgentParams, MarketParams, SimConfig, WEALTH_GUARD,
                     _draw_uniforms, _state_and_price_batch, episode_generator)

__all__ = [
    "CriticParams",
    "AdamState",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "equilibrium_actor_params",
    "actor_base_mean",
    "resolve_actor_means",
    "actor_scale_coeff",
    "actor_quantile",
    "critic_features",
    "td_errors",
    "td_errors_from_states",
    "critic_loss_and_grad",
    "sf_gradient",
    "actor_gradient",
    "adam_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "write_metrics_csv",
]


# Episodes whose market paths are drawn in one simulator call.  The state
# recursion steps through all of their paths together; 32 episodes of 10
# replications hold 1.3 MB of 250-step paths, small enough to stay in cache.
_DRAW_AHEAD = 32


class TrainingDivergedError(RuntimeError):
    """More than the allowed fraction of episodes hit the wealth guard."""


@dataclass
class CriticParams:
    """Six coefficient vectors in R^d: rows of ``v``/``g`` are the (y-c)^0,
    (y-c)^1, (y-c)^2 blocks of the V and g surrogates.  ``v`` and ``g`` have
    shape (3, d), or (R, 3, d) for R replications; indexing selects
    replications.

    ``y_center`` is the fixed observable state offset c used by the basis
    (0 keeps raw powers of y).  Centering at the start state decorrelates the
    three blocks -- the state barely moves over one horizon, so raw powers of
    y are almost collinear and TD learning in the y-sensitive directions
    stalls.  The spanned function class is unchanged.
    """

    v: np.ndarray  # shape (3, d)
    g: np.ndarray  # shape (3, d)
    y_center: float = 0.0

    @classmethod
    def zeros(cls, d: int = 2, y_center: float = 0.0) -> "CriticParams":
        return cls(v=np.zeros((3, d)), g=np.zeros((3, d)), y_center=y_center)

    @property
    def d(self) -> int:
        return self.v.shape[-1]

    def __getitem__(self, rows) -> "CriticParams":
        return CriticParams(v=self.v[rows], g=self.g[rows], y_center=self.y_center)

    def __setitem__(self, rows, other: "CriticParams") -> None:
        self.v[rows] = other.v
        self.g[rows] = other.g


@dataclass
class AdamState:
    """Adam moments and step count.  Leading axes of ``m`` and ``v`` are
    replications, each with its own entry in ``step``: a skipped episode
    does not step.  Indexing selects replications."""

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray | int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        m = np.zeros(shape)
        return cls(m=m, v=np.zeros(shape), step=np.zeros(m.shape[:-1], dtype=int))

    def __getitem__(self, rows) -> "AdamState":
        return AdamState(m=self.m[rows], v=self.v[rows], step=self.step[rows])

    def __setitem__(self, rows, other: "AdamState") -> None:
        self.m[rows] = other.m
        self.v[rows] = other.v
        self.step[rows] = other.step


@dataclass(frozen=True)
class TrainConfig:
    episodes: int
    n_steps: int
    horizon: float
    learning_rate: float
    kappa: float
    # The CLI derives each replication's seed from this one; rl.train takes
    # the replication seeds themselves.
    seed: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    x1_0: float = 1.0
    x2_0: float = 1.0
    y_0: float = 0.273
    critic_dim: int = 2
    max_skip_fraction: float = 0.01
    # Episodes at the start during which only the critics update.  A raw
    # critic makes the actor chase the myopic policy (the hedging terms of
    # the criterion live entirely in the critic), so the critics are fitted
    # to the initial actors before the actors start moving.
    critic_warmup: int = 0

    def __post_init__(self):
        # (field, holds, requirement); written so that NaN fails
        checks = (
            ("kappa", self.kappa > 0.0, "positive"),
            ("learning_rate", self.learning_rate > 0.0, "positive"),
            ("episodes", self.episodes >= 0, ">= 0"),
            ("n_steps", self.n_steps >= 1, ">= 1"),
            ("horizon", self.horizon > 0.0, "positive"),
            ("critic_dim", self.critic_dim >= 1, ">= 1"),
            ("critic_warmup", self.critic_warmup >= 0, ">= 0"),
            ("max_skip_fraction", 0.0 <= self.max_skip_fraction <= 1.0, "in [0, 1]"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("eps", self.eps > 0.0, "positive"),
        )
        for name, holds, requirement in checks:
            if not holds:
                raise ValueError(f"{name} must be {requirement}, got "
                                 f"{getattr(self, name)!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def equilibrium_actor_params(agent: AgentParams, market: MarketParams) -> np.ndarray:
    """Actor parameters (phi0, phi1, phi2, phi3) reproducing the closed-form
    equilibrium policy."""
    gs = agent.gamma * market.sigma
    rv = market.rho * market.v
    return np.array([1.0 / gs, rv / gs, market.iota + rv,
                     rv * market.iota * market.y_bar / gs])


def _decay_factors(phi2, tau):
    """((1-e^{-2 phi2 tau})/phi2, (1-e^{-phi2 tau})^2/phi2^2), with the
    phi2 -> 0 limits 2 tau and tau^2."""
    phi2 = np.asarray(phi2, dtype=float)
    tau = np.asarray(tau, dtype=float)
    safe = np.where(phi2 == 0.0, 1.0, phi2)
    f1 = np.where(phi2 == 0.0, 2.0 * tau, -np.expm1(-2.0 * safe * tau) / safe)
    e1 = np.expm1(-safe * tau)
    f2 = np.where(phi2 == 0.0, tau ** 2, e1 * e1 / (safe * safe))
    return f1, f2


def actor_base_mean(phi, t, y, horizon: float):
    """Actor mean net of the opponent term: phi0*y - phi1*f1(tau)*y - phi3*f2(tau).

    ``phi`` holds the four parameters on its last axis; its other axes
    broadcast against arrays t, y.  A length-4 array, (R, 1, 4) per
    replication and (R, n, 4) per replication and step all work.
    """
    phi0, phi1, phi2, phi3 = np.moveaxis(np.asarray(phi, dtype=float), -1, 0)
    tau = horizon - np.asarray(t, dtype=float)
    f1, f2 = _decay_factors(phi2, tau)
    y = np.asarray(y, dtype=float)
    return phi0 * y - phi1 * f1 * y - phi3 * f2


def resolve_actor_means(phi_pair, agents, t, y, horizon: float):
    """Solve the two-actor mean coupling mu_i = k_i mu_j + A_i exactly."""
    return couple_means(actor_base_mean(phi_pair[0], t, y, horizon),
                        actor_base_mean(phi_pair[1], t, y, horizon), agents)


def actor_scale_coeff(phi, agent: AgentParams, t):
    """Coefficient lam_i(t) phi0^2 gamma_i multiplying h'(1-p) in the quantile;
    ``phi`` broadcasts as in :func:`actor_base_mean`."""
    return _scale_coeff(phi, np.asarray(agent.lam(t), dtype=float), agent.gamma)


def _scale_coeff(phi, lam, gamma):
    """lam * phi0^2 * gamma; lam and gamma may carry a leading agent axis."""
    return lam * np.asarray(phi, dtype=float)[..., 0] ** 2 * gamma


def actor_quantile(phi, agent: AgentParams, t, y, mu_j, p, horizon: float):
    """The parameterized policy quantile at probability level p."""
    mean = agent.k * np.asarray(mu_j, dtype=float) + actor_base_mean(phi, t, y, horizon)
    scale = actor_scale_coeff(phi, agent, t)
    return mean + scale * agent.distortion.h_prime(1.0 - np.asarray(p, dtype=float))


def critic_features(t, y, horizon: float, d: int, y_center: float = 0.0) -> np.ndarray:
    """Feature vector of length 3d: blocks (y-c)^r * (tau, tau^2, ..., tau^d).

    t and y broadcast, so one time grid serves an (R, n+1) array of paths."""
    tau = np.asarray(horizon - np.asarray(t, dtype=float), dtype=float)
    yc = (np.asarray(y, dtype=float) - y_center)[..., None]
    powers = tau[..., None] ** np.arange(1, d + 1)  # vanishes at tau = 0
    shape = np.broadcast_shapes(powers.shape, yc.shape)
    blocks = [np.broadcast_to(powers, shape), powers * yc, powers * yc ** 2]
    return np.concatenate(blocks, axis=-1)


def _td_residuals(theta: CriticParams, gamma: float, df, dx, dt: float, reg):
    """TD residuals (C1, C2) and the g increments from one episode's feature
    increments ``df`` and xhat increments ``dx``.

    C1 = dV/dt + gamma*g_k*dg/dt - (gamma/2)*d(g^2)/dt + reg_k, which
    collapses algebraically to dV/dt - (gamma/2)(dg)^2/dt + reg_k;
    C2 = dg/dt.  ``reg`` is lam_i(t_k) * Phi_h of the policy at step k.
    A stacked theta (R, 3, d) pairs with (R, n, 3d) increments, and A agents'
    (A, R, 3, d) with gamma (A, 1, 1) share them; leading axes of ``dx`` and
    ``reg`` alone, such as two replays, reuse the products df @ theta.
    """
    def increment(block):
        return dx + (df @ block.reshape(*block.shape[:-2], 3 * block.shape[-1], 1))[..., 0]

    dv = increment(theta.v)
    dg = increment(theta.g)
    c1 = dv / dt - 0.5 * gamma * dg * dg / dt + reg
    c2 = dg / dt
    return c1, c2, dg


def td_errors_from_states(theta: CriticParams, agent: AgentParams, t_grid,
                          xhat_start, xhat_end, y_grid, dt: float, reg,
                          horizon: float):
    """TD residual arrays (C1, C2) for transitions (t_k, xhat_start_k, y_k) ->
    (t_{k+1}, xhat_end_k, y_{k+1})."""
    f = critic_features(t_grid, y_grid, horizon, theta.d, theta.y_center)
    dx = np.asarray(xhat_end, dtype=float) - np.asarray(xhat_start, dtype=float)
    c1, c2, _ = _td_residuals(theta, agent.gamma, np.diff(f, axis=0), dx, dt, reg)
    return c1, c2


def td_errors(theta: CriticParams, agent: AgentParams, t_grid, xhat_path,
              y_grid, dt: float, reg, horizon: float):
    """TD residuals along one nominal path (states at t_k and t_{k+1})."""
    xhat_path = np.asarray(xhat_path, dtype=float)
    return td_errors_from_states(theta, agent, t_grid, xhat_path[:-1],
                                 xhat_path[1:], y_grid, dt, reg, horizon)


def critic_loss_and_grad(theta: CriticParams, agent: AgentParams, t_grid,
                         xhat_path, y_grid, dt: float, reg, horizon: float):
    """Loss sum(C1^2) + sum(C2^2) and its exact gradient in (theta_v, theta_g).

    V and g are linear in their blocks, so with dF the per-step feature
    increments: dC1/dth_v = dF/dt, dC1/dth_g = -gamma*C2*dF, dC2/dth_g = dF/dt.
    """
    f = critic_features(t_grid, y_grid, horizon, theta.d, theta.y_center)
    df = np.diff(f, axis=0)
    c1, c2, dg = _td_residuals(theta, agent.gamma, df,
                               np.diff(np.asarray(xhat_path, dtype=float)), dt, reg)
    loss = float(np.sum(c1 * c1) + np.sum(c2 * c2))
    grad_v = (2.0 / dt) * (df.T @ c1)
    grad_g = (-2.0 * agent.gamma / dt) * (df.T @ (c1 * dg)) + (2.0 / dt) * (df.T @ c2)
    return loss, grad_v, grad_g


def sf_gradient(loss_fn, phi: np.ndarray, z: np.ndarray, kappa: float) -> np.ndarray:
    """Smoothed-functional estimate (z/kappa) * (L(phi + kappa z) - L(phi)).

    The subtracted baseline L(phi) does not change the expectation (E[z] = 0)
    but removes the O(1/kappa) variance of the raw (z/kappa) L(phi + kappa z)
    form.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    phi = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float)
    return (z / kappa) * (float(loss_fn(phi + kappa * z)) - float(loss_fn(phi)))


def actor_gradient(c1_nominal: np.ndarray, c1_perturbed: np.ndarray,
                   z: np.ndarray, kappa: float) -> np.ndarray:
    """Episode actor gradient sum_k (z_k/kappa) (C1_k(pert) - C1_k(nom)).

    ``z`` is the (n_steps, 4) array of per-step perturbations that generated
    the perturbed actions; leading axes, if any, are replications.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    z = np.asarray(z, dtype=float)
    diff = np.asarray(c1_perturbed, dtype=float) - np.asarray(c1_nominal, dtype=float)
    return (z * diff[..., None]).sum(axis=-2) / kappa


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              alpha: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam descent step; returns (state', params').

    Leading axes of ``params`` are replications, each bias-corrected by its
    own step count."""
    step = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - np.power(beta1, step))[..., None]
    v_hat = v / (1.0 - np.power(beta2, step))[..., None]
    new_params = params - alpha * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(m=m, v=v, step=step), new_params


class LstdAccumulator:
    """Running least-squares TD statistics of A agents' critics, stacked over
    R replications, for agents that learn from one shared market.

    Stores everything needed to re-solve the orthogonality conditions
    E[f C2] = 0 and E[f C1] = 0 exactly for any theta_g: with per-step
    feature rows f, increments df and dx,

        A      = sum f df^T          (theta_g:  A theta_g = -bx)
        q0..t3 = moments of dx and df entering (dg)^2 = (dx + df theta_g)^2

    so theta_v solves (A/dt) theta_v = -(bx/dt - (gamma/2) E[f (dg)^2]/dt
    + b_reg) with the current theta_g plugged in.

    Every statistic sums, over steps, a column times the feature row f, so
    one stacked matmul per block adds them.  The market block ``market``,
    of shape (R, k + k^2, k) for k features, holds the columns [df, df (x) df]:
    A and t3 depend on the state path only, so all agents share them.  The
    agent block ``agent``, of shape (A, R, k + 3, k), holds the columns
    [dx df, dx, dx^2, reg], which are linear in each agent's dx and reg.
    """

    def __init__(self, n_agents: int, n_replications: int, n_features: int):
        k = self.k = n_features
        self.market = np.zeros((n_replications, k + k * k, k))
        self.agent = np.zeros((n_agents, n_replications, k + 3, k))

    def add_episode(self, f_start, df, dx, reg, rows=slice(None)) -> None:
        """Add one episode for each replication in ``rows``: (R', n, k)
        feature rows and increments shared by the agents, (A, R', n) xhat
        increments and regularizers.

        The columns are built transposed, (..., columns, n), so every
        product runs along the n steps."""
        k, n = self.k, df.shape[-2]
        dft = df.swapaxes(-1, -2)
        cols = np.empty(dx.shape[:-1] + (k + 3, n))
        np.multiply(dx[..., None, :], dft, out=cols[..., :k, :])
        cols[..., -3, :] = dx
        np.multiply(dx, dx, out=cols[..., -2, :])
        cols[..., -1, :] = reg
        self.agent[:, rows] += cols @ f_start
        del cols  # before the larger market columns are built
        cols = np.empty(df.shape[:-2] + (k + k * k, n))
        cols[..., :k, :] = dft
        np.multiply(dft[..., :, None, :], dft[..., None, :, :],
                    out=cols[..., k:, :].reshape(df.shape[:-2] + (k, k, n)))
        self.market[rows] += cols @ f_start

    def solve(self, gammas, dt: float, d: int, y_center: float) -> CriticParams:
        """Critic parameters of every agent and replication, stacked
        (A, R, 3, d); ``gammas`` holds the A agents' risk aversions.

        Both systems of every agent have the shared matrix A (theta_v's is
        A/dt), so one stacked pseudo-inverse, one SVD per replication, gives
        all of np.linalg.lstsq's minimum-norm solutions.  It keeps lstsq's
        cutoff: singular values at or below eps * k * s_max count as zero, as
        they do when A is rank deficient (a few steps per episode).
        """
        k = self.k
        market, agent = self.market.swapaxes(-1, -2), self.agent.swapaxes(-1, -2)
        a_mat, t3, q1 = market[..., :k], market[..., k:], agent[..., :k]
        bx, q0, b_reg = np.moveaxis(agent[..., k:], -1, 0)
        gamma = np.reshape(gammas, (-1, 1, 1))
        pinv = np.linalg.pinv(a_mat, rcond=k * np.finfo(float).eps)
        theta_g = (pinv @ -bx[..., None])[..., 0]
        gg = (theta_g[..., :, None] * theta_g[..., None, :]).reshape(
            *theta_g.shape[:-1], k * k)
        dg_sq = (q0 + 2.0 * (q1 @ theta_g[..., None])[..., 0]
                 + (t3 @ gg[..., None])[..., 0])
        rhs = bx / dt - 0.5 * gamma * dg_sq / dt + b_reg
        theta_v = dt * (pinv @ -rhs[..., None])[..., 0]
        shape = theta_g.shape[:-1] + (3, d)
        return CriticParams(v=theta_v.reshape(shape), g=theta_g.reshape(shape),
                            y_center=y_center)


def _markets_ahead(market: MarketParams, sim: SimConfig, seeds, episodes: int):
    """Yield, for each episode m, its generators ``episode_generator(seed, m)``
    and their (y, s_disc) paths, one row per seed.  The paths of up to
    ``_DRAW_AHEAD`` episodes come from one simulator call; each generator
    then goes on with its own episode's later draws."""
    n_rep = len(seeds)
    for start in range(0, episodes, _DRAW_AHEAD):
        block = [[episode_generator(seed, m) for seed in seeds]
                 for m in range(start, min(start + _DRAW_AHEAD, episodes))]
        y, s_disc = _state_and_price_batch(market, sim, len(block) * n_rep,
                                           [g for rngs in block for g in rngs])
        for j, rngs in enumerate(block):
            rows = slice(j * n_rep, (j + 1) * n_rep)
            yield rngs, y[rows], s_disc[rows]


@dataclass
class TrainResult:
    """Stacked over the two agents, then R replications: ``x[i]`` is agent
    i's, ``x[i][r]`` its replication r."""

    phi_history: np.ndarray     # (2, R, M+1, 4)
    theta: CriticParams         # (2, R, 3, d) blocks
    critic_losses: np.ndarray   # (2, R, M), nan on skips
    adam_states: AdamState      # (2, R, 4) moments, (2, R) steps
    skipped_episodes: int       # summed over replications
    episodes_run: int           # R * M


def train(agents, market: MarketParams, cfg: TrainConfig, initial_actors, seeds,
          frozen_opponent=None) -> TrainResult:
    """Run the two-agent actor-critic loop for cfg.episodes episodes in each
    of R = len(seeds) replications at once.

    Replication r starts from the actors ``initial_actors[0][r]`` and
    ``initial_actors[1][r]`` (a (2, R, 4) array) and draws episode m from
    ``episode_generator(seeds[r], m)``; ``cfg.seed`` plays no part.  The
    market paths of ``_DRAW_AHEAD`` episodes are drawn ahead in one call, as
    the market does not depend on the actors.

    Market parameters are used only to drive the simulator; the learners see
    sampled (state, price) transitions.  Both agents update each episode
    unless ``frozen_opponent`` is given, in which case agent 2's actions come
    from that policy and only agent 1 learns (the single-agent algorithm with
    the opponent held fixed).  Like the Monte Carlo engine's policies, the
    opponent exposes ``affine(t)``, ``std(t)`` and ``distortion``, evaluated
    once on the step grid.  A replication's episode whose wealth exceeds
    the guard is skipped for that replication alone; a replication with more
    than ``cfg.max_skip_fraction`` of skips aborts the run.

    Actors, critics, Adam states and losses carry a leading agent axis, and
    the trained agents are its first A rows (A = 1 with a frozen opponent).
    Each episode's market work is done once and shared by the agents: the
    critic features and their increments ``df``, the LSTD market moments and
    their pseudo-inverse.  Each agent's h'(1-p) serves both its nominal and
    its perturbed actions.  Everything else, from the xhat increments ``dx``
    to the Adam step, is one stacked computation over the agents.
    """
    seeds = list(seeds)
    n_rep = len(seeds)
    phi = np.array(initial_actors, dtype=float)
    if phi.shape != (2, n_rep, 4):
        raise ValueError(f"initial_actors must be a (2, {n_rep}, 4) array, "
                         f"one row per agent and seed")
    n, horizon, dt, d = cfg.n_steps, cfg.horizon, cfg.dt, cfg.critic_dim
    t_grid = np.linspace(0.0, horizon, n + 1)
    t_steps = t_grid[:-1]
    n_agents = 1 if frozen_opponent is not None else 2
    trained = slice(n_agents)
    if frozen_opponent is not None:
        opp_slope, opp_intercept = frozen_opponent.affine(t_steps)
        opp_std = frozen_opponent.std(t_steps)

    theta = CriticParams(v=np.zeros((2, n_rep, 3, d)), g=np.zeros((2, n_rep, 3, d)),
                         y_center=cfg.y_0)
    adam = AdamState.zeros((2, n_rep, 4))
    phi_hist = np.empty((2, n_rep, cfg.episodes + 1, 4))
    losses = np.full((2, n_rep, cfg.episodes), np.nan)
    phi_hist[:, :, 0] = phi

    sim = SimConfig(horizon=horizon, n_steps=n, seed=cfg.seed,
                    x1_0=cfg.x1_0, x2_0=cfg.x2_0, y_0=cfg.y_0)

    # The trained agents' constants, shaped (A, 1, n) or (A, 1, 1).
    lam, gammas, l2sq, ks = (np.reshape(c, (2, 1, -1))[trained] for c in (
        [np.asarray(a.lam(t_steps), dtype=float) * np.ones(n) for a in agents],
        [a.gamma for a in agents], [a.distortion.l2_norm ** 2 for a in agents],
        [a.k for a in agents]))
    x0 = np.reshape([cfg.x1_0, cfg.x2_0], (2, 1, 1))
    max_skips = int(np.ceil(cfg.max_skip_fraction * cfg.episodes))
    skipped = np.zeros(n_rep, dtype=int)
    lstd = LstdAccumulator(n_agents, n_rep, 3 * d)

    markets = _markets_ahead(market, sim, seeds, cfg.episodes)
    # A diverging replication overflows to inf and nan, which the wealth
    # guard turns into skips and the skip cap into TrainingDivergedError;
    # numpy need not warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for m, (rngs, y_path, s_disc) in enumerate(markets):
            # Each stream goes on with the agents' uniforms, then, once the
            # actors train, their perturbations: (agent, replication, ...) arrays.
            p_draws = np.stack([_draw_uniforms(g, (2, n)) for g in rngs], axis=1)
            rel = np.diff(s_disc, axis=1) / s_disc[:, :-1]
            y_steps = y_path[:, :-1]

            # Nominal actions; the trained agents' terms serve the replay too.
            phi_a = phi[trained]
            base = actor_base_mean(phi_a[:, :, None], t_steps, y_steps, horizon)
            scale = _scale_coeff(phi_a[:, :, None], lam, gammas)
            h_p = np.stack([agents[i].distortion.h_prime(1.0 - p_draws[i])
                            for i in range(n_agents)])
            u = np.empty((2, n_rep, n))
            if frozen_opponent is None:
                mu_opp = np.stack(couple_means(base[0], base[1], agents)[::-1])
            else:
                mu_opp = (opp_slope * y_steps + opp_intercept)[None]
                u[1] = location_scale_quantile(mu_opp[0], opp_std,
                                               frozen_opponent.distortion, p_draws[1])
            k_mu = ks * mu_opp
            u[trained] = k_mu + base + scale * h_p
            x = x0 + np.concatenate((np.zeros((2, n_rep, 1)), np.cumsum(u * rel, axis=-1)),
                                    axis=-1)
            bad = ~np.all(np.abs(x) <= WEALTH_GUARD, axis=(0, 2))
            skipped += bad
            if np.any(skipped > max_skips):
                r = int(np.argmax(skipped > max_skips))
                raise TrainingDivergedError(
                    f"replication with seed {seeds[r]}: {skipped[r]} skipped episodes "
                    f"out of {m + 1} exceeds the {cfg.max_skip_fraction:.0%} cap")
            # Only the replications that kept their episode update, by indexing:
            # a skipped row may hold inf, and 0 * inf is nan.
            rows = np.flatnonzero(~bad) if bad.any() else slice(None)
            kept = (trained, rows)

            f = critic_features(t_grid, y_path[rows], horizon, d, cfg.y_0)
            df = np.diff(f, axis=1)
            dx = np.diff(x[trained, rows] - ks * x[::-1][trained, rows], axis=-1)
            reg = lam * scale[:, rows] * l2sq
            lstd.add_episode(f[:, :-1], df, dx, reg, rows)
            c1, c2, _ = _td_residuals(theta[kept], gammas, df, dx, dt, reg)
            losses[trained, rows, m] = np.sum(c1 * c1, axis=-1) + np.sum(c2 * c2, axis=-1)
            new_theta = lstd.solve(gammas, dt, d, cfg.y_0)[:, rows]
            theta[kept] = new_theta
            if m >= cfg.critic_warmup:
                # Perturbed replay: same uniforms and market noise, one-step
                # deviations from the nominal states.
                z = np.stack([g.standard_normal((n_agents, n, 4)) for g in rngs], axis=1)[:, rows]
                phi_bar = phi_a[:, rows, None, :] + cfg.kappa * z
                base_bar = actor_base_mean(phi_bar, t_steps, y_steps[rows], horizon)
                scale_bar = _scale_coeff(phi_bar, lam, gammas)
                u_bar = k_mu[:, rows] + base_bar + scale_bar * h_p[:, rows]
                dx_bar = dx + (u_bar - u[kept]) * rel[rows]
                reg_bar = lam * scale_bar * l2sq
                # Nominal and perturbed replays share the increments df @ theta.
                c1, _, _ = _td_residuals(new_theta, gammas, df, np.stack((dx, dx_bar)), dt,
                                         np.stack((reg, reg_bar)))
                grad_phi = actor_gradient(c1[0], c1[1], z, cfg.kappa)
                # The HJB criterion is maximized, so ascend: feed -grad to Adam.
                adam[kept], phi[kept] = adam_step(adam[kept], phi_a[:, rows], -grad_phi,
                                                  cfg.learning_rate, cfg.beta1,
                                                  cfg.beta2, cfg.eps)
                # The replay's arrays would otherwise live on through the next
                # episode's simulation and critic phases, raising the peak.
                del z, phi_bar, base_bar, scale_bar, u_bar, dx_bar, reg_bar, c1, grad_phi
            phi_hist[:, :, m + 1] = phi

    return TrainResult(phi_history=phi_hist, theta=theta, critic_losses=losses,
                       adam_states=adam, skipped_episodes=int(skipped.sum()),
                       episodes_run=n_rep * cfg.episodes)


CHECKPOINT_VERSION = 1


def save_checkpoint(path, episode: int, phi_pair, theta_pair, adam_pair) -> None:
    """Versioned, self-describing key-value checkpoint."""
    lines = [f"mvgame-checkpoint v{CHECKPOINT_VERSION}"]

    def put(key, value):
        lines.append(f"{key} = {json.dumps(value)}")

    put("episode", int(episode))
    for i in (0, 1):
        put(f"agent{i + 1}.phi", np.asarray(phi_pair[i], dtype=float).tolist())
        put(f"agent{i + 1}.theta_v", np.asarray(theta_pair[i].v).tolist())
        put(f"agent{i + 1}.theta_g", np.asarray(theta_pair[i].g).tolist())
        put(f"agent{i + 1}.theta_y_center", float(theta_pair[i].y_center))
        put(f"agent{i + 1}.adam_m", np.asarray(adam_pair[i].m).tolist())
        put(f"agent{i + 1}.adam_v", np.asarray(adam_pair[i].v).tolist())
        put(f"agent{i + 1}.adam_step", int(adam_pair[i].step))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns a dict keyed as saved."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != f"mvgame-checkpoint v{CHECKPOINT_VERSION}":
            raise ValueError(f"unsupported checkpoint header: {header!r}")
        out = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, raw = line.partition(" = ")
            out[key] = json.loads(raw)
    state = {"episode": out["episode"], "agents": []}
    for i in (0, 1):
        pre = f"agent{i + 1}."
        state["agents"].append({
            "phi": np.asarray(out[pre + "phi"], dtype=float),
            "theta": CriticParams(v=np.asarray(out[pre + "theta_v"], dtype=float),
                                  g=np.asarray(out[pre + "theta_g"], dtype=float),
                                  y_center=float(out.get(pre + "theta_y_center", 0.0))),
            "adam": AdamState(m=np.asarray(out[pre + "adam_m"], dtype=float),
                              v=np.asarray(out[pre + "adam_v"], dtype=float),
                              step=int(out[pre + "adam_step"])),
        })
    return state


def write_metrics_csv(path, critic_losses, phi_history) -> None:
    """Training-metrics CSV: per-episode critic losses and actor parameters.

    ``critic_losses`` holds the two agents' (M,) rows, nan where an agent did
    not train (a blank cell); ``phi_history`` their (M+1, 4) histories,
    whose row 0 is the initial actor."""
    header = ["episode", "loss_critic1", "loss_critic2"]
    header += [f"phi{p}_1" for p in range(4)] + [f"phi{p}_2" for p in range(4)]
    losses = [[None if np.isnan(x) else x for x in loss.tolist()] for loss in critic_losses]
    phis = [col for phi in phi_history for col in phi[1:].T]
    write_table(path, header, [[np.arange(1, len(losses[0]) + 1), *losses, *phis]])
