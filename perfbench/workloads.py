"""The three benchmark workloads: set-up, one timed operation, and checks.

Each workload is a closed loop with one caller.  ``setup`` does what a user
pays once per process (parse the config, build agents, coefficients and
policies); ``run_op`` is one timed operation; ``check`` verifies the outputs
of that operation afterwards, outside the timed region.

* ``solve_table1``: ``mvgame equilibrium`` then ``mvgame iterate`` on
  ``configs/table1.ini``.  The seed does not enter: neither command draws
  random numbers.
* ``train_table2``: ``mvgame train`` on ``configs/table2.ini`` with
  the config's 10 replications of the full protocol, ``--workers 1``.
* ``mc_objective_table2``: ``market.estimate_objective`` for both agents at
  ``MC_EPISODES`` episodes each, table2 agents and ``[sim]``, default
  ``chunk_size``; agent i draws from ``episode_generator(seed, 10_000 + i)``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
from dataclasses import dataclass, replace

MC_EPISODES = 100_000
# The tiny size used by the benchmark's own tests.
TINY = {"train_episodes": 40, "train_warmup": 20, "mc_episodes": 2_000}

HJB_TOL = 1e-5
DENSITY_TOL = 1e-6
Z_MAX = 3.0
# Fixed states (t as a share of the horizon, xhat, y) for the HJB check.
HJB_STATES = [(s, x, y) for s in (0.025, 0.25, 0.5, 0.975)
              for x in (-1.0, 1.0) for y in (-0.2, 0.273, 0.8)]

CONFIGS = {
    "solve_table1": "table1.ini",
    "train_table2": "table2.ini",
    "mc_objective_table2": "table2.ini",
}


@dataclass
class State:
    """What set-up builds, plus the run's fixed arguments."""

    workload: str
    seed: int
    tiny: bool
    config_path: str
    cfg: object
    agents: tuple
    coeffs: tuple
    policies: tuple


def setup(workload: str, root: str, seed: int | None, tiny: bool, work_dir: str) -> State:
    """Parse the config and build agents, coefficients and policies."""
    from mvgame import config as mconfig
    from mvgame import equilibrium as eqm

    config_path = os.path.join(root, "configs", CONFIGS[workload])
    cfg = mconfig.parse_config(config_path)
    if seed is None:
        seed = cfg.train.seed if workload == "train_table2" else cfg.sim.seed
    cfg = replace(cfg, sim=replace(cfg.sim, seed=seed), train=replace(cfg.train, seed=seed))
    if tiny and workload == "train_table2":
        cfg = replace(cfg, train=replace(cfg.train, episodes=TINY["train_episodes"],
                                         critic_warmup=TINY["train_warmup"]))
        config_path = os.path.join(work_dir, "train_tiny.ini")
        with open(config_path, "w") as fh:
            fh.write(mconfig.serialize_config(cfg))
    horizon = cfg.train.horizon if workload == "train_table2" else cfg.sim.horizon
    agents = cfg.build_agents(horizon)
    coeffs = eqm.solve_coefficients(agents, cfg.market, horizon)
    policies = tuple(eqm.equilibrium_policy(i, agents, cfg.market, coeffs) for i in (0, 1))
    return State(workload=workload, seed=seed, tiny=tiny,
                 config_path=config_path, cfg=cfg, agents=agents, coeffs=coeffs,
                 policies=policies)


def _cli(args: list[str]):
    """Run one ``mvgame`` command in-process; returns (exit code, stderr)."""
    from mvgame import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


def run_op(state: State, out_dir: str) -> dict:
    """One timed operation; returns its walls (s), exit codes and results."""
    common = ["--config", state.config_path, "--out", out_dir, "--seed", str(state.seed)]
    if state.workload == "solve_table1":
        t0 = time.perf_counter()
        eq_code, eq_err = _cli(["equilibrium"] + common)
        t1 = time.perf_counter()
        it_code, it_err = _cli(["iterate"] + common)
        t2 = time.perf_counter()
        return {"op_s": t2 - t0, "equilibrium_s": t1 - t0, "iterate_s": t2 - t1,
                "codes": (eq_code, it_code), "stderr": eq_err + it_err}
    if state.workload == "train_table2":
        # the config's replications (10 for table2): the learned-curve band
        # (0.1) is set for that average, and fewer miss it on some seeds
        # (seed 29 at 3 replications: 0.104; seed 101 at 5: 0.104)
        t0 = time.perf_counter()
        code, err = _cli(["train"] + common + ["--workers", "1"])
        wall = time.perf_counter() - t0
        episodes = state.cfg.replications * state.cfg.train.episodes
        return {"op_s": wall, "episodes_per_s": episodes / wall, "codes": (code,),
                "stderr": err}
    from mvgame import market as mkt

    n = TINY["mc_episodes"] if state.tiny else MC_EPISODES
    cfg = state.cfg
    rngs = [mkt.episode_generator(state.seed, 10_000 + i) for i in (0, 1)]
    t0 = time.perf_counter()
    estimates = [mkt.estimate_objective(i, state.agents, state.policies, cfg.market,
                                        cfg.sim, n, rngs[i]) for i in (0, 1)]
    wall = time.perf_counter() - t0
    with open(os.path.join(out_dir, "objective.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "value", "std_error", "n_episodes", "mean_terminal",
                         "var_terminal", "regularizer_integral"])
        for i, est in enumerate(estimates):
            writer.writerow([i + 1, repr(est.value), repr(est.std_error), est.n_episodes,
                             repr(est.mean_terminal), repr(est.var_terminal),
                             repr(est.regularizer_integral)])
    return {"op_s": wall, "episodes_per_s": 2 * n / wall, "codes": (0,), "stderr": "",
            "estimates": estimates}


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_solve(state: State, out_dir: str) -> tuple[list[str], dict]:
    import numpy as np
    from mvgame import equilibrium as eqm

    problems = []
    coeffs = []
    for i in (0, 1):
        rows = _read_rows(os.path.join(out_dir, f"coefficients_agent{i + 1}.csv"))
        grid = np.array([[float(r[k]) for k in ("t", "a0", "a1", "a2", "b0", "b1", "b2")]
                         for r in rows])
        coeffs.append(eqm.CoefficientSet(times=grid[:, 0], a=grid[:, 1:4].T,
                                         b=grid[:, 4:7].T))
    horizon = state.cfg.sim.horizon
    worst = 0.0
    for share, xhat, y in HJB_STATES:
        for i in (0, 1):
            res = eqm.hjb_residuals(i, state.agents, state.cfg.market, tuple(coeffs),
                                    share * horizon, xhat, y)
            worst = max(worst, *(abs(r) for r in res))
    if not worst <= HJB_TOL:
        problems.append(f"HJB residual {worst:.3e} > {HJB_TOL} from the written CSVs")

    worst_mass = 0.0
    curves = 0
    for i in (0, 1):
        groups: dict = {}
        for r in _read_rows(os.path.join(out_dir, f"densities_agent{i + 1}.csv")):
            key = (r["param"], r["value"], r["t"])
            groups.setdefault(key, ([], []))
            groups[key][0].append(float(r["u"]))
            groups[key][1].append(float(r["density"]))
        for u, dens in groups.values():
            worst_mass = max(worst_mass, abs(float(np.trapezoid(dens, u)) - 1.0))
            curves += 1
    if curves == 0 or not worst_mass <= DENSITY_TOL:
        problems.append(f"density mass off by {worst_mass:.3e} over {curves} curves")
    for i in (0, 1):
        if not os.path.exists(os.path.join(out_dir, f"iteration_agent{i + 1}.csv")):
            problems.append(f"iteration_agent{i + 1}.csv missing")
    return problems, {"hjb_residual_max": worst, "density_mass_err_max": worst_mass}


def _check_train(state: State, out_dir: str) -> tuple[list[str], dict]:
    path = os.path.join(out_dir, "learned_vs_true.csv")
    if not os.path.exists(path):
        return ["learned_vs_true.csv missing"], {}
    rows = _read_rows(path)
    problems = []
    want = state.cfg.train.n_steps + 1
    try:
        values = [[float(r[k]) for k in ("t", "mu_true_1", "mu_learned_1",
                                         "mu_true_2", "mu_learned_2")] for r in rows]
    except (TypeError, ValueError):
        return ["learned_vs_true.csv has incomplete rows"], {}
    if len(values) != want:
        problems.append(f"learned_vs_true.csv has {len(values)} rows, want {want}")
    rel = max((max(abs(v[2] - v[1]) / abs(v[1]), abs(v[4] - v[3]) / abs(v[3]))
               for v in values), default=float("nan"))
    return problems, {"max_rel_err": rel}


def _check_mc(state: State, result: dict) -> tuple[list[str], dict]:
    from mvgame import equilibrium as eqm

    sim, agents = state.cfg.sim, state.agents
    problems = []
    info = {}
    for i, est in enumerate(result["estimates"]):
        own, other = (sim.x1_0, sim.x2_0) if i == 0 else (sim.x2_0, sim.x1_0)
        xhat0 = own - agents[i].k * other
        value, _ = eqm.value_functions(i, 0.0, xhat0, sim.y_0, state.coeffs)
        z = (est.value - float(value)) / est.std_error
        info[f"z_agent{i + 1}"] = z
        if not abs(z) <= Z_MAX:
            problems.append(f"agent {i + 1}: |z| = {abs(z):.2f} > {Z_MAX}")
    return problems, info


def check(state: State, out_dir: str, result: dict) -> tuple[list[str], dict]:
    """Problems found in one operation's outputs (empty when correct), and
    informational figures that are not gated."""
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]], {}
    problems = [f"exit code {c}" for c in result["codes"] if c != 0]
    if problems:
        tail = result["stderr"].strip().splitlines()[-1:] or [""]
        return problems + tail, {}
    if state.workload == "solve_table1":
        return _check_solve(state, out_dir)
    if state.workload == "train_table2":
        return _check_train(state, out_dir)
    return _check_mc(state, result)


def input_sizes(state: State) -> dict:
    """Input sizes recorded with each result."""
    cfg = state.cfg
    n = cfg.sim.n_steps
    if state.workload == "mc_objective_table2":
        import inspect

        from mvgame.market import estimate_objective

        chunk = inspect.signature(estimate_objective).parameters["chunk_size"].default
        episodes = TINY["mc_episodes"] if state.tiny else MC_EPISODES
        return {"agents": 2, "episodes_per_agent": episodes, "chunk_size": chunk,
                "n_steps": n, "array_bytes": 8 * min(chunk, episodes) * (n + 1)}
    if state.workload == "train_table2":
        return {"replications": cfg.replications, "episodes": cfg.train.episodes,
                "n_steps": cfg.train.n_steps, "paths_per_sim_call": 1,
                "array_bytes": 8 * (cfg.train.n_steps + 1)}
    from mvgame.equilibrium import DEFAULT_GRID_SIZE

    return {"grid_size": DEFAULT_GRID_SIZE, "horizon": cfg.sim.horizon,
            "array_bytes": 8 * (2 * DEFAULT_GRID_SIZE - 1) * 9}

