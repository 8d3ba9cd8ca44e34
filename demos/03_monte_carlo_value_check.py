"""Simulation-side verification of the closed-form solution.

The closed-form value function claims to equal the regularized mean-variance
objective attained by the equilibrium policies.  This script checks that
claim by brute force: simulate many episodes of both agents trading under
their equilibrium exploration laws and compare the Monte Carlo objective with
V_i(0, xhat_0, y_0).  It also verifies the simulator's per-step moment
structure against the exploratory dynamics.

Run:  python demos/03_monte_carlo_value_check.py  (about 8 seconds)
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from mvgame import equilibrium as eqm, market
from mvgame.config import parse_config

# The market, preferences and simulation grid of configs/table2.ini, with
# this demo's own seed.
experiment = parse_config(Path(__file__).resolve().parents[1] / "configs" / "table2.ini")
cfg = replace(experiment.sim, seed=1)
T = cfg.horizon
mkt, agents = experiment.market, experiment.build_agents(T)
coeffs = eqm.solve_coefficients(agents, mkt, T)
policies = (eqm.equilibrium_policy(0, agents, mkt, coeffs),
            eqm.equilibrium_policy(1, agents, mkt, coeffs))

# ---------------------------------------------------------------------------
# Objective vs value function over 100k episodes.
# ---------------------------------------------------------------------------
n_episodes = 100_000
print(f"simulating {n_episodes} episodes under the equilibrium policies ...")
for i in (0, 1):
    est = market.estimate_objective(i, agents, policies, mkt, cfg, n_episodes,
                                    market.episode_generator(cfg.seed, 1000 + i))
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
                                 market.episode_generator(cfg.seed, 99))
t_steps = cfg.times[:-1]
for i in (0, 1):
    mean_res = batch.resid_sum[i] / batch.n_episodes
    var_res = batch.resid_sumsq[i] / batch.n_episodes - mean_res ** 2
    target = np.asarray(policies[i].std(t_steps)) ** 2
    print(f"  agent {i + 1}: worst |action-mean residual| over steps "
          f"{np.max(np.abs(mean_res)):.4f}; worst relative variance error "
          f"{np.max(np.abs(var_res - target) / target):.4f}")
