"""The one CSV writer, ``mvgame._table.write_table``, against the bytes the
per-table writers it replaced produced: each reference below feeds
``csv.writer`` one ``repr(float(x))`` cell at a time, exactly as those
writers did."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from mvgame import cli, equilibrium as eqm, market, policy_iter as pit, rl
from mvgame._table import _CHUNK_ROWS, write_table
from mvgame.config import table1_config, table2_config


def _r(x):
    return repr(float(x))


def _csv_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


def test_coefficient_csv(tmp_path, agents_short, bench_market):
    cs = eqm.solve_coefficients(agents_short, bench_market, 1.0, 201)[0]
    cs.to_csv(tmp_path / "got.csv")
    want = _csv_bytes(tmp_path / "want.csv", ["t", "a0", "a1", "a2", "b0", "b1", "b2"],
                      ([_r(t)] + [_r(cs.a[i, j]) for i in range(3)]
                       + [_r(cs.b[i, j]) for i in range(3)]
                       for j, t in enumerate(cs.times)))
    assert (tmp_path / "got.csv").read_bytes() == want


def test_trajectory_csv(tmp_path, agents_short, bench_market, policies_short):
    cfg = market.SimConfig(horizon=1.0, n_steps=10, seed=7)
    traj = market.simulate_game(bench_market, agents_short, policies_short, cfg,
                                market.episode_generator(7, 0))
    traj.to_csv(tmp_path / "got.csv")
    states = (traj.times, traj.y, traj.s_disc, traj.x1, traj.x2)
    n = len(traj.times)
    want = _csv_bytes(tmp_path / "want.csv", ["t", "y", "s_disc", "x1", "x2", "u1", "u2"],
                      ([_r(c[i]) for c in states]
                       + [_r(a[i]) if i < n - 1 else "" for a in (traj.actions1, traj.actions2)]
                       for i in range(n)))
    assert n == 11
    assert (tmp_path / "got.csv").read_bytes() == want


def test_metrics_csv_blanks_nan_losses(tmp_path):
    cfg = table2_config()
    cfg = replace(cfg, train=replace(cfg.train, episodes=6, critic_warmup=2, n_steps=10))
    agents = cfg.build_agents(cfg.train.horizon)
    frozen = eqm.closed_form_policy(1, agents, cfg.market, cfg.train.horizon)
    run = cli._train_group((cfg, agents, frozen, (0,)))
    losses = (run.critic_losses[0][0], run.critic_losses[1][0])
    phis = (run.phi_history[0][0], run.phi_history[1][0])
    assert np.isnan(losses[1]).all() and not np.isnan(losses[0]).all()
    rl.write_metrics_csv(tmp_path / "got.csv", losses, phis)
    header = ["episode", "loss_critic1", "loss_critic2"]
    header += [f"phi{p}_1" for p in range(4)] + [f"phi{p}_2" for p in range(4)]
    want = _csv_bytes(tmp_path / "want.csv", header,
                      ([str(m + 1)]
                       + ["" if np.isnan(losses[i][m]) else _r(losses[i][m]) for i in (0, 1)]
                       + [_r(x) for i in (0, 1) for x in phis[i][m + 1]]
                       for m in range(len(losses[0]))))
    assert (tmp_path / "got.csv").read_bytes() == want


@pytest.mark.parametrize("n_response, n_mean", [(25, 3), (2, 8)])
def test_history_csv_unequal_lengths(tmp_path, agents_long, bench_market,
                                     n_response, n_mean):
    hist = pit.run_response_iteration(agents_long[0], bench_market, 20.0,
                                      n_max=n_response, tol=1e-6, grid_size=401)
    mean = pit.simultaneous_mean_iteration(
        agents_long, bench_market, 20.0, (np.zeros(21), np.zeros(21)), n_mean,
        times=np.linspace(0.0, 20.0, 21))
    pit.export_history_csv(tmp_path / "got.csv", hist, mean)
    mean_its = mean.iterates
    assert len(hist.iterates) != len(mean_its)
    rows = []
    for n in range(max(len(hist.iterates), len(mean_its))):
        row = [str(n)]
        if n < len(hist.iterates):
            it = hist.iterates[n]
            row += [_r(it.sup_err_a1), _r(it.sup_err_a2), _r(it.bound_a2)]
        else:
            row += ["", "", ""]
        row += ([_r(mean_its[n].sup_err), _r(mean_its[n].bound)]
                if n < len(mean_its) else ["", ""])
        rows.append(row)
    want = _csv_bytes(tmp_path / "want.csv", ["n", "sup_err_a1", "sup_err_a2",
                                              "factorial_bound", "sup_err_mu",
                                              "geometric_bound"], rows)
    assert (tmp_path / "got.csv").read_bytes() == want


def test_density_csv(tmp_path):
    cfg = table1_config()
    assert cli.cmd_equilibrium(cfg, str(tmp_path)) == 0
    horizon = cfg.sim.horizon
    agents = cfg.build_agents(horizon)
    for i in (0, 1):
        rows = []
        for t in cli.DENSITY_TIMES:
            for param, value, pair in [("base", t, agents)] + cli._sweep_variants(agents):
                policy = eqm.closed_form_policy(i, pair, cfg.market, horizon)
                u, dens = cli._density_curve(policy, t, cfg.market.y_bar)
                rows += [[param, _r(value), _r(t), _r(uu), _r(dd)]
                         for uu, dd in zip(u, dens)]
        want = _csv_bytes(tmp_path / "want.csv", ["param", "value", "t", "u", "density"],
                          rows)
        assert (tmp_path / f"densities_agent{i + 1}.csv").read_bytes() == want


@pytest.mark.parametrize("reps", [0, 1])
def test_learned_csv(tmp_path, reps):
    cfg = table2_config()
    cfg = replace(cfg, train=replace(cfg.train, episodes=4, critic_warmup=2, n_steps=10))
    assert cli.cmd_train(cfg, str(tmp_path), replications=reps) == 0
    horizon, y = cfg.train.horizon, cfg.market.y_bar
    agents = cfg.build_agents(horizon)
    t = np.linspace(0.0, horizon, cfg.train.n_steps + 1)
    true1, true2 = eqm.equilibrium_means(t, y, agents, cfg.market, horizon)
    l1 = l2 = None
    if reps:
        run = cli._train_group((cfg, agents, None, (0,)))
        l1, l2 = rl.resolve_actor_means((run.phi_history[0][0, -1], run.phi_history[1][0, -1]),
                                        agents, t, np.full_like(t, y), horizon)
    want = _csv_bytes(tmp_path / "want.csv",
                      ["t", "mu_true_1", "mu_learned_1", "mu_true_2", "mu_learned_2"],
                      ([_r(t[j]), _r(true1[j]), _r(l1[j]) if l1 is not None else "",
                        _r(true2[j]), _r(l2[j]) if l2 is not None else ""]
                       for j in range(len(t))))
    assert (tmp_path / "learned_vs_true.csv").read_bytes() == want


def test_edge_cells(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e300, -1e-300, np.nan, np.inf, 0.1, -2.5])
    ints = np.array([0, -7, 2 ** 62], dtype=np.int64)
    listed = [np.float64(0.1), 3, None, "x", -0.0, np.int32(4), float("nan")]
    write_table(tmp_path / "got.csv", ["f", "i", "l", "s"],
                [[floats, ints, listed, ["base", "k1"]], [None, [1.5], None, None],
                 [-0.0, np.int64(7), "k2", [1.0, 2.0]]])
    listed_text = ["0.1", "3", "", "x", "-0.0", "4", "nan"]
    rows = [[_r(floats[j]), str(ints[j]) if j < len(ints) else "",
             listed_text[j] if j < len(listed) else "", ["base", "k1"][j] if j < 2 else ""]
            for j in range(len(floats))]
    rows.append(["", "1.5", "", ""])
    # a column given as one cell fills every row of its block
    rows += [["-0.0", "7", "k2", "1.0"], ["-0.0", "7", "k2", "2.0"]]
    want = _csv_bytes(tmp_path / "want.csv", ["f", "i", "l", "s"], rows)
    assert (tmp_path / "got.csv").read_bytes() == want
    assert b"-0.0,0,0.1,base\r\n5e-324,-7,3,k1\r\n1e+300" in want


def test_block_longer_than_one_chunk(tmp_path):
    n = 2 * _CHUNK_ROWS + 5
    x = np.random.default_rng(3).standard_normal(n) * np.logspace(-150, 150, n)
    short = x[: _CHUNK_ROWS + 1]
    write_table(tmp_path / "got.csv", ["n", "x", "short"],
                [[np.arange(n), x, short], [[0], [1.0], None]])
    rows = [[str(j), _r(x[j]), _r(short[j]) if j < len(short) else ""] for j in range(n)]
    rows.append(["0", "1.0", ""])
    assert (tmp_path / "got.csv").read_bytes() == _csv_bytes(
        tmp_path / "want.csv", ["n", "x", "short"], rows)
