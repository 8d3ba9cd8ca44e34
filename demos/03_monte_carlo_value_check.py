"""Simulation-side verification of the closed-form solution.

The closed-form value function claims to equal the regularized mean-variance
objective attained by the equilibrium policies.  This script checks that
claim by brute force: simulate many episodes of both agents trading under
their equilibrium exploration laws and compare the Monte Carlo objective with
V_i(0, xhat_0, y_0).  It also verifies the simulator's per-step moment
structure against the exploratory dynamics.

Run:  python demos/03_monte_carlo_value_check.py  (about 8 seconds)
"""

import numpy as np

from mvgame import choquet, equilibrium as eqm, market

T, N = 1.0, 250
mkt = market.MarketParams(r=0.017, sigma=0.15, iota=0.27, y_bar=0.273,
                          v=0.065, rho=-0.93)
agents = (
    market.AgentParams(gamma=2.0, k=0.1, lam=market.Schedule(0.015),
                       distortion=choquet.make_distortion_normal()),
    market.AgentParams(gamma=3.0, k=0.05, lam=market.Schedule(0.02),
                       distortion=choquet.make_distortion_gini()),
)
coeffs = eqm.solve_coefficients(agents, mkt, T)
policies = (eqm.equilibrium_policy(0, agents, mkt, coeffs),
            eqm.equilibrium_policy(1, agents, mkt, coeffs))
cfg = market.SimConfig(horizon=T, n_steps=N, seed=1, x1_0=1.0, x2_0=1.0, y_0=0.273)

# ---------------------------------------------------------------------------
# Objective vs value function over 100k episodes.
# ---------------------------------------------------------------------------
n_episodes = 100_000
print(f"simulating {n_episodes} episodes under the equilibrium policies ...")
for i in (0, 1):
    est = market.estimate_objective(i, agents, policies, mkt, cfg, n_episodes,
                                    market.episode_generator(1, 1000 + i))
    x0 = (cfg.x1_0, cfg.x2_0)
    xh0 = x0[i] - agents[i].k * x0[1 - i]
    v, _ = eqm.value_functions(i, 0.0, xh0, cfg.y_0, coeffs)
    z = (est.value - v) / est.std_error
    print(f"  agent {i + 1}: MC objective {est.value:.5f} +- {est.std_error:.5f}  "
          f"closed-form V {v:.5f}  (z = {z:+.2f})")
    print(f"           terminal mean {est.mean_terminal:.5f}, variance "
          f"{est.var_terminal:.5f}, regularizer integral {est.regularizer_integral:.5f}")

# ---------------------------------------------------------------------------
# Sampled-action moments: at each step the actions drawn by inverse transform
# have the policy's mean and variance.
# ---------------------------------------------------------------------------
batch = market.run_episode_batch(mkt, agents, policies, cfg, 20_000,
                                 market.episode_generator(1, 99))
t_steps = np.linspace(0.0, T, N + 1)[:-1]
for i in (0, 1):
    mean_res = batch.resid_sum[i] / batch.n_episodes
    var_res = batch.resid_sumsq[i] / batch.n_episodes - mean_res ** 2
    target = np.asarray(policies[i].std(t_steps)) ** 2
    print(f"  agent {i + 1}: worst |action-mean residual| over steps "
          f"{np.max(np.abs(mean_res)):.4f}; worst relative variance error "
          f"{np.max(np.abs(var_res - target) / target):.4f}")
