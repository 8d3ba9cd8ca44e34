"""Model-free learning of the equilibrium with the actor-critic loop.

Neither agent sees the market parameters: each observes sampled (state,
price) transitions, fits value surrogates by least-squares temporal
difference, and ascends a smoothed-functional gradient of the HJB criterion
with Adam.  A single 2000-episode run wanders around the equilibrium (the
per-episode gradient is extremely noisy); averaging the learned parameters
over independent replications concentrates the curves onto the closed form.
All replications train together in one batched call.

Run:  python demos/04_actor_critic_learning.py  (about 4 seconds)
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from mvgame import equilibrium as eqm, rl
from mvgame.config import parse_config

# The market, preferences and training run of configs/table2.ini (2000
# episodes of 250 steps), with this demo's own seed and replication count.
experiment = parse_config(Path(__file__).resolve().parents[1] / "configs" / "table2.ini")
cfg = replace(experiment.train, seed=42)
REPS = 5
T = cfg.horizon
mkt, agents = experiment.market, experiment.build_agents(T)
t_grid = np.linspace(0.0, T, 11)
y_slice = np.full_like(t_grid, mkt.y_bar)
true1, true2 = eqm.equilibrium_means(t_grid, mkt.y_bar, agents, mkt, T)


def curve_error(phis):
    mu1, mu2 = rl.resolve_actor_means(phis, agents, t_grid, y_slice, T)
    return max(np.max(np.abs(mu1 - true1) / np.abs(true1)),
               np.max(np.abs(mu2 - true2) / np.abs(true2)))


# actor parameters reproducing the closed form, perturbed by up to 10% per run
phi_star = (rl.equilibrium_actor_params(agents[0], mkt),
            rl.equilibrium_actor_params(agents[1], mkt))
initial = ([], [])
for rep in range(REPS):
    rng = np.random.default_rng(100 + rep)
    for i in (0, 1):
        initial[i].append(phi_star[i] * (1.0 + rng.uniform(-0.1, 0.1, size=4)))
initial = (np.array(initial[0]), np.array(initial[1]))
result = rl.train(agents, mkt, cfg, initial_actors=initial,
                  seeds=[cfg.seed + rep for rep in range(REPS)])
finals = (result.phi_history[0][:, -1], result.phi_history[1][:, -1])
for rep in range(REPS):
    start = (initial[0][rep], initial[1][rep])
    final = (finals[0][rep], finals[1][rep])
    skips = int(np.isnan(result.critic_losses[0][rep]).sum())
    print(f"replication {rep}: start curve error {curve_error(start):.3f} "
          f"-> final {curve_error(final):.3f} ({skips} skipped episodes)")

avg = (finals[0].mean(axis=0), finals[1].mean(axis=0))
print(f"\naveraged over {REPS} replications: curve error {curve_error(avg):.3f}")

mu1, mu2 = rl.resolve_actor_means(avg, agents, t_grid, y_slice, T)
print(f"\n{'t':>5} {'true_1':>8} {'learned_1':>10} {'true_2':>8} {'learned_2':>10}")
for j, t in enumerate(t_grid):
    print(f"{t:5.2f} {true1[j]:8.4f} {mu1[j]:10.4f} {true2[j]:8.4f} {mu2[j]:10.4f}")

# the learned exploration scale is tied to phi0: lam * phi0^2 * gamma
for i in (0, 1):
    learned_std = rl.actor_scale_coeff(avg[i], agents[i], 0.0) \
        * agents[i].distortion.l2_norm
    true_std = eqm.equilibrium_std(agents[i], mkt)(0.0)
    print(f"agent {i + 1} exploration std at t=0: learned {learned_std:.4f}, "
          f"closed form {true_std:.4f}")
