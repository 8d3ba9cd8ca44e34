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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

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
    "critic_eval",
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


class TrainingDivergedError(RuntimeError):
    """More than the allowed fraction of episodes hit the wealth guard."""


@dataclass
class CriticParams:
    """Six coefficient vectors in R^d: rows of ``v``/``g`` are the (y-c)^0,
    (y-c)^1, (y-c)^2 blocks of the V and g surrogates.

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
        return self.v.shape[1]


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


@dataclass(frozen=True)
class TrainConfig:
    episodes: int
    n_steps: int
    horizon: float
    learning_rate: float
    kappa: float
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

    ``phi`` is a length-4 array or an (n, 4) array of per-step parameters;
    broadcasts against arrays t, y.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        phi0, phi1, phi2, phi3 = phi
    else:
        phi0, phi1, phi2, phi3 = phi[..., 0], phi[..., 1], phi[..., 2], phi[..., 3]
    tau = horizon - np.asarray(t, dtype=float)
    f1, f2 = _decay_factors(phi2, tau)
    return phi0 * np.asarray(y, dtype=float) - phi1 * f1 * np.asarray(y, dtype=float) - phi3 * f2


def resolve_actor_means(phi_pair, agents, t, y, horizon: float):
    """Solve the two-actor mean coupling mu_i = k_i mu_j + A_i exactly."""
    k1, k2 = agents[0].k, agents[1].k
    denom = 1.0 - k1 * k2
    a1 = actor_base_mean(phi_pair[0], t, y, horizon)
    a2 = actor_base_mean(phi_pair[1], t, y, horizon)
    return (a1 + k1 * a2) / denom, (a2 + k2 * a1) / denom


def actor_scale_coeff(phi, agent: AgentParams, t):
    """Coefficient lam_i(t) phi0^2 gamma_i multiplying h'(1-p) in the quantile."""
    phi = np.asarray(phi, dtype=float)
    phi0 = phi[..., 0] if phi.ndim > 1 else phi[0]
    lam = np.asarray(agent.lam(t), dtype=float)
    return lam * phi0 ** 2 * agent.gamma


def actor_quantile(phi, agent: AgentParams, t, y, mu_j, p, horizon: float):
    """The parameterized policy quantile at probability level p."""
    mean = agent.k * np.asarray(mu_j, dtype=float) + actor_base_mean(phi, t, y, horizon)
    scale = actor_scale_coeff(phi, agent, t)
    return mean + scale * agent.distortion.h_prime(1.0 - np.asarray(p, dtype=float))


def critic_features(t, y, horizon: float, d: int, y_center: float = 0.0) -> np.ndarray:
    """Feature vector of length 3d: blocks (y-c)^r * (tau, tau^2, ..., tau^d)."""
    tau = np.asarray(horizon - np.asarray(t, dtype=float), dtype=float)
    yc = np.asarray(y, dtype=float) - y_center
    powers = tau[..., None] ** np.arange(1, d + 1)  # vanishes at tau = 0
    blocks = [powers, powers * yc[..., None], powers * yc[..., None] ** 2]
    return np.concatenate(blocks, axis=-1)


def critic_eval(theta: CriticParams, t, xhat, y, horizon: float):
    """(V, g) surrogate values; the terminal identity V(T)=g(T)=xhat holds for
    every theta because the basis vanishes at zero time-to-go."""
    f = critic_features(t, y, horizon, theta.d, theta.y_center)
    xhat = np.asarray(xhat, dtype=float)
    v = xhat + f @ theta.v.reshape(-1)
    g = xhat + f @ theta.g.reshape(-1)
    return v, g


def _td_residuals(theta: CriticParams, gamma: float, df, dx, dt: float, reg):
    """TD residuals (C1, C2) and the g increments from one episode's feature
    increments ``df`` and xhat increments ``dx``.

    C1 = dV/dt + gamma*g_k*dg/dt - (gamma/2)*d(g^2)/dt + reg_k, which
    collapses algebraically to dV/dt - (gamma/2)(dg)^2/dt + reg_k;
    C2 = dg/dt.  ``reg`` is lam_i(t_k) * Phi_h of the policy at step k.
    """
    dv = dx + df @ theta.v.reshape(-1)
    dg = dx + df @ theta.g.reshape(-1)
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
    the perturbed actions.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    z = np.asarray(z, dtype=float)
    diff = np.asarray(c1_perturbed, dtype=float) - np.asarray(c1_nominal, dtype=float)
    return (z * diff[:, None]).sum(axis=0) / kappa


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              alpha: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam descent step; returns (state', params')."""
    step = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    new_params = params - alpha * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(m=m, v=v, step=step), new_params


class LstdAccumulator:
    """Running least-squares TD statistics for one agent's critic.

    Stores everything needed to re-solve the orthogonality conditions
    E[f C2] = 0 and E[f C1] = 0 exactly for any theta_g: with per-step
    feature rows f, increments df and dx,

        A      = sum f df^T          (theta_g:  A theta_g = -bx)
        q0..t3 = moments of dx and df entering (dg)^2 = (dx + df theta_g)^2

    so theta_v solves (A/dt) theta_v = -(bx/dt - (gamma/2) E[f (dg)^2]/dt
    + b_reg) with the current theta_g plugged in.
    """

    def __init__(self, n_features: int):
        k = n_features
        self.a_mat = np.zeros((k, k))
        self.bx = np.zeros(k)
        self.q0 = np.zeros(k)
        self.q1 = np.zeros((k, k))
        self.t3 = np.zeros((k, k, k))
        self.b_reg = np.zeros(k)

    def add_episode(self, f_start, df, dx, reg) -> None:
        self.a_mat += f_start.T @ df
        self.bx += f_start.T @ dx
        self.q0 += f_start.T @ (dx * dx)
        self.q1 += f_start.T @ (dx[:, None] * df)
        self.t3 += np.einsum("ni,nj,nk->ijk", f_start, df, df)
        self.b_reg += f_start.T @ reg

    def solve(self, gamma: float, dt: float, d: int, y_center: float) -> CriticParams:
        theta_g, *_ = np.linalg.lstsq(self.a_mat, -self.bx, rcond=None)
        dg_sq = (self.q0 + 2.0 * self.q1 @ theta_g
                 + np.einsum("ijk,j,k->i", self.t3, theta_g, theta_g))
        rhs = self.bx / dt - 0.5 * gamma * dg_sq / dt + self.b_reg
        theta_v, *_ = np.linalg.lstsq(self.a_mat / dt, -rhs, rcond=None)
        return CriticParams(v=theta_v.reshape(3, d), g=theta_g.reshape(3, d),
                            y_center=y_center)


@dataclass
class TrainResult:
    phi_history: tuple[np.ndarray, np.ndarray]   # (M+1, 4) each
    theta: tuple[CriticParams, CriticParams]
    critic_losses: tuple[np.ndarray, np.ndarray]  # (M,) each, nan on skips
    adam_states: tuple[AdamState, AdamState]
    skipped_episodes: int
    episodes_run: int


def _nominal_actions(phi_pair, agents, t_steps, y_steps, p_draws, horizon,
                     frozen_opponent):
    """Nominal actions (u1, u2) along one episode's step grid, and the
    opponent mean each agent's quantile is conditioned on."""
    if frozen_opponent is None:
        mu1, mu2 = resolve_actor_means(phi_pair, agents, t_steps, y_steps, horizon)
        mu_opp = (mu2, mu1)
        u = [actor_quantile(phi_pair[i], agents[i], t_steps, y_steps, mu_opp[i],
                            p_draws[i], horizon) for i in range(2)]
        return u, mu_opp
    mu2 = np.asarray(frozen_opponent.mean(t_steps, y_steps), dtype=float) \
        * np.ones_like(y_steps)
    u = [actor_quantile(phi_pair[0], agents[0], t_steps, y_steps, mu2,
                        p_draws[0], horizon),
         np.asarray(frozen_opponent.quantile(t_steps, y_steps, p_draws[1]),
                    dtype=float)]
    return u, (mu2, None)


def train(agents, market: MarketParams, cfg: TrainConfig,
          initial_actors, frozen_opponent=None) -> TrainResult:
    """Run the two-agent actor-critic loop for cfg.episodes episodes.

    Market parameters are used only to drive the simulator; the learners see
    sampled (state, price) transitions.  Both agents update each episode
    unless ``frozen_opponent`` is given, in which case agent 2's actions come
    from that policy and only agent 1 learns (the single-agent algorithm with
    the opponent held fixed).  Episodes whose wealth exceeds the guard are
    skipped; more than ``cfg.max_skip_fraction`` of skips aborts.

    Each trained agent's episode is one transition record: the critic
    feature increments ``df`` and the xhat increments ``dx``.  The critic
    loss, the LSTD statistics and both actor replays all read it.
    """
    n, horizon, dt = cfg.n_steps, cfg.horizon, cfg.dt
    t_grid = np.linspace(0.0, horizon, n + 1)
    t_steps = t_grid[:-1]
    trained = (0,) if frozen_opponent is not None else (0, 1)

    phi = [np.array(p, dtype=float) for p in initial_actors]
    theta = [CriticParams.zeros(cfg.critic_dim, y_center=cfg.y_0) for _ in range(2)]
    adam = [AdamState.zeros(4) for _ in range(2)]

    phi_hist = [np.empty((cfg.episodes + 1, 4)) for _ in range(2)]
    losses = [np.full(cfg.episodes, np.nan) for _ in range(2)]
    for i in range(2):
        phi_hist[i][0] = phi[i]

    sim = SimConfig(horizon=horizon, n_steps=n, seed=cfg.seed,
                    x1_0=cfg.x1_0, x2_0=cfg.x2_0, y_0=cfg.y_0)
    lam = [np.asarray(agents[i].lam(t_steps), dtype=float) * np.ones(n) for i in range(2)]
    l2sq = [agents[i].distortion.l2_norm ** 2 for i in range(2)]
    ks = (agents[0].k, agents[1].k)
    x0 = (cfg.x1_0, cfg.x2_0)
    max_skips = int(np.ceil(cfg.max_skip_fraction * cfg.episodes))
    skipped = 0
    lstd = [LstdAccumulator(3 * cfg.critic_dim) for _ in range(2)]

    for m in range(cfg.episodes):
        rng = episode_generator(cfg.seed, m)
        y_path, s_disc = _state_and_price_batch(market, sim, 1, rng)
        y_path, s_disc = y_path[0], s_disc[0]
        p_draws = [_draw_uniforms(rng, n) for _ in range(2)]
        z_draws = [rng.standard_normal((n, 4)) for _ in range(2)]
        rel = np.diff(s_disc) / s_disc[:-1]
        y_steps = y_path[:-1]

        u, mu_opp = _nominal_actions(phi, agents, t_steps, y_steps, p_draws,
                                     horizon, frozen_opponent)
        x = [x0[i] + np.concatenate([[0.0], np.cumsum(u[i] * rel)]) for i in range(2)]
        if any(not np.all(np.isfinite(xi)) or np.max(np.abs(xi)) > WEALTH_GUARD
               for xi in x):
            skipped += 1
            if skipped > max_skips:
                raise TrainingDivergedError(
                    f"{skipped} skipped episodes out of {m + 1} exceeds the "
                    f"{cfg.max_skip_fraction:.0%} cap")
            for i in range(2):
                phi_hist[i][m + 1] = phi[i]
            continue

        new_phi = [phi[i].copy() for i in range(2)]
        new_theta = [theta[i] for i in range(2)]
        for i in trained:
            j = 1 - i
            gamma = agents[i].gamma
            xhat = x[i] - ks[i] * x[j]
            f = critic_features(t_grid, y_path, horizon, theta[i].d, theta[i].y_center)
            df = np.diff(f, axis=0)
            dx = np.diff(xhat)
            reg = lam[i] * actor_scale_coeff(phi[i], agents[i], t_steps) * l2sq[i]

            lstd[i].add_episode(f[:-1], df, dx, reg)
            c1, c2, _ = _td_residuals(theta[i], gamma, df, dx, dt, reg)
            losses[i][m] = float(np.sum(c1 * c1) + np.sum(c2 * c2))
            new_theta[i] = lstd[i].solve(gamma, dt, cfg.critic_dim, theta[i].y_center)
            if m < cfg.critic_warmup:
                continue

            # Perturbed replay: same uniforms and market noise, one-step
            # deviations from the nominal states.
            phi_bar = phi[i][None, :] + cfg.kappa * z_draws[i]
            u_bar = actor_quantile(phi_bar, agents[i], t_steps, y_steps, mu_opp[i],
                                   p_draws[i], horizon)
            dx_bar = dx + (u_bar - u[i]) * rel
            reg_bar = lam[i] * actor_scale_coeff(phi_bar, agents[i], t_steps) * l2sq[i]
            c1_nom, _, _ = _td_residuals(new_theta[i], gamma, df, dx, dt, reg)
            c1_bar, _, _ = _td_residuals(new_theta[i], gamma, df, dx_bar, dt, reg_bar)
            grad_phi = actor_gradient(c1_nom, c1_bar, z_draws[i], cfg.kappa)
            # The HJB criterion is maximized, so ascend: feed -grad to Adam.
            adam[i], new_phi[i] = adam_step(adam[i], phi[i], -grad_phi,
                                            cfg.learning_rate, cfg.beta1,
                                            cfg.beta2, cfg.eps)
        phi = new_phi
        theta = new_theta
        for i in range(2):
            phi_hist[i][m + 1] = phi[i]

    return TrainResult(phi_history=(phi_hist[0], phi_hist[1]),
                       theta=(theta[0], theta[1]),
                       critic_losses=(losses[0], losses[1]),
                       adam_states=(adam[0], adam[1]),
                       skipped_episodes=skipped,
                       episodes_run=cfg.episodes)


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

    ``critic_losses`` is a pair of (M,) arrays, nan where an agent did not
    train; ``phi_history`` a pair of (M+1, 4) arrays whose row 0 is the
    initial actor."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["episode", "loss_critic1", "loss_critic2"]
        header += [f"phi{p}_1" for p in range(4)] + [f"phi{p}_2" for p in range(4)]
        writer.writerow(header)
        for m in range(len(critic_losses[0])):
            row = [str(m + 1)]
            for i in (0, 1):
                val = critic_losses[i][m]
                row.append("" if np.isnan(val) else repr(float(val)))
            for i in (0, 1):
                row += [repr(float(x)) for x in phi_history[i][m + 1]]
            writer.writerow(row)
