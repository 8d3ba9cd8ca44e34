"""Policy iteration with certified convergence envelopes.

Two engines find the equilibrium without ever writing down its closed form:
response iteration (one agent updates against a frozen opponent; each update
solves a pair of linear coefficient ODEs) and simultaneous mean iteration
(both agents update at once; an affine contraction).  Both come with explicit
error envelopes -- factorial (2|rho| v T)^n / n! for the response iteration,
geometric max(k1, k2)^n for the mean iteration -- and this script prints the
measured errors against the certified bounds.

Run:  python demos/02_policy_iteration_certificates.py
"""

from pathlib import Path

import numpy as np

from mvgame import equilibrium as eqm, policy_iter as pit
from mvgame.config import parse_config

# The market and preferences of configs/table1.ini.
experiment = parse_config(Path(__file__).resolve().parents[1] / "configs" / "table1.ini")
T = experiment.sim.horizon
mkt, agents = experiment.market, experiment.build_agents(T)

# ---------------------------------------------------------------------------
# Response iteration from zero initial coefficient grids.
# ---------------------------------------------------------------------------
hist = pit.run_response_iteration(agents[0], mkt, T, n_max=25, tol=1e-6)
print(f"response iteration (agent 1): converged = {hist.converged} "
      f"after {hist.n_iterations} updates")
print(f"{'n':>3} {'sup err a2':>12} {'bound a2':>12} {'sup err a1':>12} {'bound a1':>12}")
for it in hist.iterates:
    print(f"{it.n:3d} {it.sup_err_a2:12.3e} {it.bound_a2:12.3e} "
          f"{it.sup_err_a1:12.3e} {it.bound_a1:12.3e}")
print("the measured error sits below the factorial envelope at every step;")
print("the envelope peaks before the factorial wins -- convergence is not")
print("monotone in the bound, but the iterates themselves contract fast.\n")

# Every iterate is a valid sampling policy: a location-scale family over the
# distortion derivative whose std is already pinned to the equilibrium value.
it5 = hist.iterates[5]
pol5 = pit.response_policy(agents[0], mkt, T, it5.a1, it5.a2, hist.times)
std_star = eqm.equilibrium_std(agents[0], mkt)
print(f"iterate-5 policy std at t=3: {pol5.std(3.0):.4f} "
      f"(equilibrium value {std_star(3.0):.4f})\n")

# ---------------------------------------------------------------------------
# Simultaneous mean iteration: both agents at once, geometric contraction.
# ---------------------------------------------------------------------------
times = np.linspace(0.0, T, 201)
mh = pit.simultaneous_mean_iteration(agents, mkt, T,
                                     (np.zeros(201), np.zeros(201)), 8,
                                     times=times, y_value=mkt.y_bar)
print(f"simultaneous mean iteration (rate = max(k1,k2) = {mh.contraction_rate}):")
print(f"{'n':>3} {'sup err':>12} {'geometric bound':>16} {'ratio':>8}")
for it in mh.iterates:
    ratio = "" if np.isnan(it.ratio) else f"{it.ratio:8.4f}"
    print(f"{it.n:3d} {it.sup_err:12.3e} {it.bound:16.3e} {ratio:>8}")
