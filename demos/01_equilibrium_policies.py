"""Closed-form equilibrium policies under the benchmark market.

Walks through the full analytic pipeline: solve the time-indexed coefficient
functions, assemble each agent's equilibrium exploration law, and look at how
the policies respond to the competition and risk-aversion parameters.

Run:  python demos/01_equilibrium_policies.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from mvgame import equilibrium as eqm
from mvgame.config import parse_config

# ---------------------------------------------------------------------------
# Market and preferences of configs/table1.ini.  Agent 1 explores with a
# Gaussian-inducing regularizer, agent 2 with the Gini regularizer (uniform
# exploration law).  The exploration weight decays exponentially toward lam0
# at the horizon.
# ---------------------------------------------------------------------------
experiment = parse_config(Path(__file__).resolve().parents[1] / "configs" / "table1.ini")
T = experiment.sim.horizon
mkt, agents = experiment.market, experiment.build_agents(T)

coeffs = eqm.solve_coefficients(agents, mkt, T)
print("coefficient functions at t = 0 (agent 1):")
a0, a1, a2 = coeffs[0].a_at(0.0)
b0, b1, b2 = coeffs[0].b_at(0.0)
print(f"  a = ({a0:+.4f}, {a1:+.4f}, {a2:+.4f})   b = ({b0:+.4f}, {b1:+.4f}, {b2:+.4f})")

# ---------------------------------------------------------------------------
# Equilibrium action means solve a 2x2 system coupling the agents through
# their sensitivities; the stds involve only each agent's own preferences.
# ---------------------------------------------------------------------------
pol1 = eqm.equilibrium_policy(0, agents, mkt, coeffs)
pol2 = eqm.equilibrium_policy(1, agents, mkt, coeffs)
print("\nequilibrium policies along the horizon (y = long-run state 0.273):")
print(f"{'t':>6} {'mean_1':>9} {'std_1':>8} {'mean_2':>9} {'std_2':>8}")
for t in (0.0, 5.0, 10.0, 15.0, 20.0):
    print(f"{t:6.1f} {pol1.mean(t, 0.273):9.4f} {pol1.std(t):8.4f} "
          f"{pol2.mean(t, 0.273):9.4f} {pol2.std(t):8.4f}")

# One-instant exploration laws: agent 1 samples from a normal law, agent 2
# from a uniform law with the same first two moments as its optimal family.
law1 = pol1.policy_at(0.1, 0.273)
law2 = pol2.policy_at(0.1, 0.273)
half = np.sqrt(3.0) * law2.scale
print(f"\nat t = 0.1: agent 1 ~ N({law1.mean:.4f}, {law1.scale ** 2:.4f}); "
      f"agent 2 ~ U[{law2.mean - half:.4f}, {law2.mean + half:.4f}]")
print(f"regularizer values: {law1.phi():.4f} (normal), {law2.phi():.4f} (gini)")

# ---------------------------------------------------------------------------
# Comparative statics of agent 1's mean: more competitive sensitivity (k)
# raises the stake in the risky asset; more risk aversion lowers it.
# ---------------------------------------------------------------------------
# Policies are closed-form, so the sweep solves no coefficient grids.
print("\nmean_1 at (t=0.1, y=0.273) as parameters vary:")
for k1 in (0.05, 0.1, 0.2, 0.4):
    ag = (replace(agents[0], k=k1), agents[1])
    print(f"  k1 = {k1:4.2f}:  mean_1 = {eqm.closed_form_policy(0, ag, mkt, T).mean(0.1, 0.273):.4f}")
for g1 in (1.0, 2.0, 4.0, 8.0):
    ag = (replace(agents[0], gamma=g1), agents[1])
    print(f"  gamma1 = {g1:4.1f}:  mean_1 = {eqm.closed_form_policy(0, ag, mkt, T).mean(0.1, 0.273):.4f}")

# The extended-HJB residual of the assembled solution is numerically zero.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    t, xh, y = rng.uniform(0, T), rng.uniform(-2, 2), rng.uniform(-0.5, 1.0)
    for i in (0, 1):
        rw, rg = eqm.hjb_residuals(i, agents, mkt, coeffs, t, xh, y)
        worst = max(worst, abs(rw), abs(rg))
print(f"\nworst |extended-HJB residual| over 50 random states: {worst:.2e}")
