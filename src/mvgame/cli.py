"""Command-line experiment harness.

Subcommands: ``equilibrium`` (coefficient grids and density-curve sweeps),
``iterate`` (policy-iteration error histories with certified bounds),
``train`` (actor-critic learning with learned-vs-true mean curves), and
``simulate`` (one trajectory under the equilibrium policies).  Every command
is deterministic given (config, seed) and writes CSV only; plots are left to
whatever consumes the CSVs.

Exit codes: 0 success, 2 config error, 3 certificate failure, 4 divergence
(training or simulation) or numerical failure.
"""

from __future__ import annotations

import argparse
import csv  # noqa: F401 -- unused; perfbench/tracing.py patches cli.csv
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import equilibrium as eqm
from . import market as mkt
from . import policy_iter as pit
from . import rl
from ._table import write_table
from .config import ConfigError, ExperimentConfig, parse_config

__all__ = ["main", "cmd_equilibrium", "cmd_iterate", "cmd_train", "cmd_simulate",
           "CertificateError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_DIVERGED = 4

DENSITY_POINTS = 401
SWEEP_VALUES = {
    "k1": (0.05, 0.1, 0.2, 0.4),
    "gamma1": (1.0, 2.0, 4.0, 8.0),
    "k2": (0.05, 0.2, 0.5, 0.8),
    "gamma2": (0.5, 1.0, 2.0, 4.0),
}
DENSITY_TIMES = (0.1, 18.0)
LEARNED_COLUMNS = ["t", "mu_true_1", "mu_learned_1", "mu_true_2", "mu_learned_2"]


class CertificateError(RuntimeError):
    """A certified convergence bound or tolerance band was violated."""


def _density_curve(policy, t: float, y: float, agent: int):
    """(u grid, density) of agent ``agent``'s one-instant exploration law;
    the grid spans the support so a trapezoid integral equals one up to tail
    mass.  A zero std has no density: it and a non-finite curve raise."""
    law = policy.policy_at(t, y)
    m, s = law.mean, law.scale
    family = law.distortion.family
    if not s > 0.0:
        raise FloatingPointError(f"agent {agent}: the exploration std at t = {t!r} is "
                                 f"{s!r}: no density")
    if family == "uniform":
        half = np.sqrt(3.0) * s
        u = np.linspace(m - half, m + half, DENSITY_POINTS)
        dens = np.full(DENSITY_POINTS, 1.0 / (2.0 * half))
    elif family == "normal":
        u = np.linspace(m - 8.0 * s, m + 8.0 * s, DENSITY_POINTS)
        dens = np.exp(-0.5 * ((u - m) / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    else:
        raise ValueError(f"no density for distortion family {family!r}")
    if not (np.isfinite(u).all() and np.isfinite(dens).all()):
        raise FloatingPointError(f"agent {agent}: the density at t = {t!r} is not finite "
                                 f"(mean {m!r}, std {s!r})")
    return u, dens


def _sweep_variants(agents):
    """(param, value, agent pair) for every sweep point, in output order."""
    a1, a2 = agents
    return ([("k1", v, (replace(a1, k=v), a2)) for v in SWEEP_VALUES["k1"]]
            + [("gamma1", v, (replace(a1, gamma=v), a2)) for v in SWEEP_VALUES["gamma1"]]
            + [("k2", v, (a1, replace(a2, k=v))) for v in SWEEP_VALUES["k2"]]
            + [("gamma2", v, (a1, replace(a2, gamma=v))) for v in SWEEP_VALUES["gamma2"]])


# An overflowing schedule or solve reaches inf and nan, which CoefficientSet's
# finiteness check reports as a numerical failure; numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def cmd_equilibrium(cfg: ExperimentConfig, out_dir: str) -> int:
    """Write coefficient grids and density-curve sweeps at benchmark states.

    Coefficients are solved once, for their CSVs; each sweep point's policy
    is closed-form and needs no solve."""
    os.makedirs(out_dir, exist_ok=True)
    horizon = cfg.sim.horizon
    agents = cfg.build_agents(horizon)
    y0 = cfg.market.y_bar
    times = [t for t in DENSITY_TIMES if t < horizon] or [0.1 * horizon]

    for i, coeff in enumerate(eqm.solve_coefficients(agents, cfg.market, horizon)):
        coeff.to_csv(os.path.join(out_dir, f"coefficients_agent{i + 1}.csv"))
    for i in (0, 1):
        curves = []
        for t in times:
            for param, value, pair in [("base", t, agents)] + _sweep_variants(agents):
                policy = eqm.closed_form_policy(i, pair, cfg.market, horizon)
                u, dens = _density_curve(policy, t, y0, i + 1)
                curves.append([param, value, t, u, dens])
        write_table(os.path.join(out_dir, f"densities_agent{i + 1}.csv"),
                    ["param", "value", "t", "u", "density"], curves)
    print(f"equilibrium: wrote coefficient and density CSVs to {out_dir}")
    return EXIT_OK


# Each certificate check is written to fail on a nan error or bound, so an
# overflow to inf or nan is reported by the checks, not by numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def cmd_iterate(cfg: ExperimentConfig, out_dir: str) -> int:
    """Run both convergence engines and write certified error histories."""
    os.makedirs(out_dir, exist_ok=True)
    horizon = cfg.sim.horizon
    agents = cfg.build_agents(horizon)

    failures = []
    n_mean_iters = 8
    grid = np.linspace(0.0, horizon, 201)
    mean_hist = pit.simultaneous_mean_iteration(
        agents, cfg.market, horizon, (np.zeros(201), np.zeros(201)),
        n_mean_iters, times=grid, y_value=cfg.market.y_bar)
    rate = mean_hist.contraction_rate
    # Rounding slack on errors vs bounds, at the scale of the n = 0 error.
    slack = 1e-9 * mean_hist.iterates[0].sup_err
    for it in mean_hist.iterates[1:]:
        if not (np.isnan(it.ratio) or it.ratio <= rate + 1e-9):
            failures.append(f"mean iteration ratio {it.ratio} > {rate} at n={it.n}")
        if not it.sup_err <= it.bound + slack:
            failures.append(f"mean iteration error {it.sup_err} > bound {it.bound} at n={it.n}")

    for i in (0, 1):
        try:
            hist = pit.run_response_iteration(agents[i], cfg.market, horizon,
                                              n_max=25, tol=1e-6)
        except eqm.NonFiniteCoefficientError as exc:
            raise eqm.NonFiniteCoefficientError(
                f"agent {i + 1}: response iterate: {exc}") from None
        slack = 1e-9 * max(hist.iterates[0].sup_err_a1, hist.iterates[0].sup_err_a2)
        for it in hist.iterates:
            if not it.sup_err_a2 <= it.bound_a2 + slack:
                failures.append(
                    f"agent {i + 1} a2 error {it.sup_err_a2} > factorial bound "
                    f"{it.bound_a2} at n={it.n}")
            if not it.sup_err_a1 <= it.bound_a1 + slack:
                failures.append(
                    f"agent {i + 1} a1 error {it.sup_err_a1} > factorial bound "
                    f"{it.bound_a1} at n={it.n}")
        if not hist.converged:
            failures.append(f"agent {i + 1} response iteration did not reach "
                            f"tol={hist.tol} within {len(hist.iterates) - 1} iterations")
        pit.export_history_csv(
            os.path.join(out_dir, f"iteration_agent{i + 1}.csv"), hist, mean_hist)
        status = "converged" if hist.converged else "NOT converged"
        print(f"iterate: agent {i + 1} {status} in {hist.n_iterations} iterations")

    if failures:
        for msg in failures:
            print(f"certificate FAILED: {msg}", file=sys.stderr)
        raise CertificateError("; ".join(failures))
    print(f"iterate: all certificates hold; histories in {out_dir}")
    return EXIT_OK


def _train_group(args):
    """Worker training one contiguous group of replications in one batched
    ``rl.train`` call (picklable module-level fn).

    ``args`` is (cfg, agents, frozen, reps): the built agents, and the
    closed-form opponent policy agent 1 trains against, or None when both
    learn.  Replication ``rep`` trains on seed ``seed + 1000 (rep + 1)`` from
    actors within 10% of the closed form, drawn from its own stream.
    """
    cfg, agents, frozen, reps = args
    phi_star = np.array([rl.equilibrium_actor_params(a, cfg.market) for a in agents])
    initial = []
    for rep in reps:
        init_rng = np.random.default_rng(np.random.SeedSequence((cfg.train.seed, 77, rep)))
        initial.append(phi_star * (1.0 + init_rng.uniform(-0.1, 0.1, size=(2, 4))))
    seeds = [cfg.train.seed + 1000 * (rep + 1) for rep in reps]
    return rl.train(agents, cfg.market, cfg.train,
                    initial_actors=np.stack(initial, axis=1),
                    seeds=seeds, frozen_opponent=frozen)


# An overflowing closed form or run is reported by the checks below and by
# rl.train's divergence guard; numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def cmd_train(cfg: ExperimentConfig, out_dir: str, replications: int | None = None,
              freeze_opponent: bool = False, workers: int = 1) -> int:
    """Train over replications; write metrics and learned-vs-true curves.

    All replications train as one batched program.  ``workers`` > 1 splits
    them into that many contiguous groups (never an empty one), each trained
    by one batched call in its own process.  A replication's result does not
    depend on its group, so every output is byte-identical for any
    ``workers``."""
    if replications is not None and replications < 0:
        raise ConfigError(f"--replications must be >= 0, got {replications!r}")
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers!r}")
    os.makedirs(out_dir, exist_ok=True)
    reps = cfg.replications if replications is None else replications
    horizon = cfg.train.horizon
    agents = cfg.build_agents(horizon)
    t_grid = np.linspace(0.0, horizon, cfg.train.n_steps + 1)
    y_slice = cfg.market.y_bar
    true = np.array(eqm.equilibrium_means(t_grid, y_slice, agents, cfg.market, horizon))

    if cfg.train.episodes == 0 or reps == 0:
        write_table(os.path.join(out_dir, "learned_vs_true.csv"), LEARNED_COLUMNS,
                    [[t_grid, true[0], None, true[1], None]])
        print("train: no episodes configured; wrote true curves only")
        return EXIT_OK

    frozen = eqm.closed_form_policy(1, agents, cfg.market, horizon) if freeze_opponent else None
    groups = np.array_split(np.arange(reps), min(workers, reps))
    jobs = [(cfg, agents, frozen, tuple(int(rep) for rep in group)) for group in groups]
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            runs = list(pool.map(_train_group, jobs))
    else:
        runs = [_train_group(jobs[0])]

    skipped_total = sum(r.skipped_episodes for r in runs)
    episodes_total = sum(r.episodes_run for r in runs)
    max_skip = cfg.train.max_skip_fraction
    if skipped_total > max_skip * episodes_total:
        print(f"train: {skipped_total}/{episodes_total} episodes skipped",
              file=sys.stderr)
        raise rl.TrainingDivergedError(f"more than {max_skip:.0%} of episodes diverged")

    # Average actor histories across replications (axis 1, after the agent
    # axis), then evaluate the final averaged parameters.
    avg_hist = np.concatenate([r.phi_history for r in runs], axis=1).mean(axis=1)
    with warnings.catch_warnings():
        # all-NaN loss columns (an agent that never trained) stay NaN
        warnings.simplefilter("ignore", RuntimeWarning)
        avg_losses = np.nanmean(np.concatenate([r.critic_losses for r in runs], axis=1),
                                axis=1)
    rl.write_metrics_csv(os.path.join(out_dir, "training_metrics.csv"),
                         avg_losses, avg_hist)
    first = runs[0]  # the first group starts with replication 0
    rl.save_checkpoint(os.path.join(out_dir, "checkpoint.txt"), cfg.train.episodes,
                       first.phi_history[:, 0, -1], first.theta[:, 0],
                       first.adam_states[:, 0])

    phi_final = avg_hist[:, -1]
    if freeze_opponent:
        learned = np.array([agents[0].k * true[1] + rl.actor_base_mean(
            phi_final[0], t_grid, np.full_like(t_grid, y_slice), horizon), true[1]])
    else:
        learned = np.array(rl.resolve_actor_means(
            phi_final, agents, t_grid, np.full_like(t_grid, y_slice), horizon))
    write_table(os.path.join(out_dir, "learned_vs_true.csv"), LEARNED_COLUMNS,
                [[t_grid, true[0], learned[0], true[1], learned[1]]])

    # one np.max over both curves, so a 0/0 (a true mean of 0) stays nan
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = float(np.max(np.abs(learned - true) / np.abs(true)))
    print(f"train: {reps} replications, max relative mean-curve error "
          f"{rel_err:.4f} (band {cfg.train_band})")
    if not rel_err <= cfg.train_band:
        raise CertificateError(
            "relative mean-curve error is undefined: a true mean is 0"
            if np.isnan(rel_err) else
            f"learned mean curves deviate {rel_err:.4f} > band {cfg.train_band}")
    return EXIT_OK


# The simulator's finiteness check and wealth guard report overflow.
@np.errstate(over="ignore", invalid="ignore")
def cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    """Simulate one trajectory under the equilibrium policies."""
    os.makedirs(out_dir, exist_ok=True)
    horizon = cfg.sim.horizon
    agents = cfg.build_agents(horizon)
    policies = (eqm.closed_form_policy(0, agents, cfg.market, horizon),
                eqm.closed_form_policy(1, agents, cfg.market, horizon))
    rng = mkt.episode_generator(cfg.sim.seed, 0)
    traj = mkt.simulate_game(cfg.market, agents, policies, cfg.sim, rng)
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"))
    print(f"simulate: wrote trajectory.csv to {out_dir}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvgame",
        description="Two-agent exploratory mean-variance game experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("equilibrium", "iterate", "train", "simulate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override seeds")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "train":
            p.add_argument("--freeze-opponent", action="store_true",
                           help="train agent 1 only against the fixed "
                                "closed-form opponent")
            p.add_argument("--replications", type=int, default=None)
            p.add_argument("--workers", type=int, default=1,
                           help="processes, each training one contiguous "
                                "group of replications")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, sim=replace(cfg.sim, seed=args.seed),
                          train=replace(cfg.train, seed=args.seed))
        out_dir = args.out if args.out is not None else cfg.output_dir
        if args.command == "equilibrium":
            return cmd_equilibrium(cfg, out_dir)
        if args.command == "iterate":
            return cmd_iterate(cfg, out_dir)
        if args.command == "train":
            return cmd_train(cfg, out_dir, replications=args.replications,
                             freeze_opponent=args.freeze_opponent,
                             workers=args.workers)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # Python-float overflow, underflow to a zero divisor, and non-finite
        # coefficients.  LinAlgError is a ValueError subclass, so it must be
        # caught before the clause below.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except rl.TrainingDivergedError as exc:
        print(f"training divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except mkt.SimulationDivergedError as exc:
        print(f"simulation divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
