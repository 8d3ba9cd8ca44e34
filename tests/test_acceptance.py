"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s` to see
the report lines alongside the measured values.
"""

import csv
import time
from dataclasses import replace

import numpy as np

from mvgame import choquet, cli, equilibrium as eqm, market, policy_iter as pit, rl
from mvgame.market import episode_generator

from presets import preset_path
from test_choquet import discrete_phi, standardized_atoms


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_closed_form_vs_ode_oracle(agents_long, bench_market):
    start = time.perf_counter()
    closed = eqm.solve_a_coeffs(agents_long[0], bench_market, 20.0)
    ode = eqm.solve_a_coeffs_ode(agents_long[0], bench_market, 20.0)
    elapsed = time.perf_counter() - start
    sup = max(float(np.max(np.abs(np.asarray(c) - o)))
              for c, o in zip(closed[1:], ode[1:]))
    ok = sup <= 1e-6 and elapsed < 1.0
    report(1, ok, f"sup|closed-RK4| = {sup:.2e} (<=1e-6), runtime {elapsed:.3f}s (<1s)")


def test_criterion_02_hjb_residuals(agents_long, bench_market, coeffs_long):
    rng = np.random.default_rng(42)
    worst_w = worst_g = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 20.0)
        xh = rng.uniform(-2.0, 2.0)
        y = rng.uniform(-0.5, 1.0)
        for i in (0, 1):
            rw, rg = eqm.hjb_residuals(i, agents_long, bench_market, coeffs_long,
                                       t, xh, y)
            worst_w = max(worst_w, abs(rw))
            worst_g = max(worst_g, abs(rg))
    ok = worst_w <= 1e-5 and worst_g <= 1e-5
    report(2, ok, f"max|HJB residual| = {worst_w:.2e}, max|Lg| = {worst_g:.2e} "
                  f"over 100 random points (<=1e-5)")


def test_criterion_03_mean_system(agents_long, bench_market):
    t_grid = np.linspace(0.0, 20.0, 1001)
    worst = 0.0
    for y in (-0.5, 0.0, 0.273, 1.0):
        mus = eqm.equilibrium_means(t_grid, y, agents_long, bench_market, 20.0)
        r1, r2 = eqm.mean_system_residuals(t_grid, y, agents_long, bench_market,
                                           20.0, mus)
        worst = max(worst, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))

    # independent oracle at t = T, y = 0.273: a-coefficients vanish, so the
    # system reduces to a plain 2x2 solve
    k1, k2 = agents_long[0].k, agents_long[1].k
    base = np.array([0.273 / (2.0 * 0.15), 0.273 / (1.0 * 0.15)])
    oracle = np.linalg.solve(np.array([[1.0, -k1], [-k2, 1.0]]), base)
    mu1, mu2 = eqm.equilibrium_means(20.0, 0.273, agents_long, bench_market, 20.0)
    dev = max(abs(mu1 - oracle[0]), abs(mu2 - oracle[1]))
    named = abs(mu1 - 1.09749) < 1e-5 and abs(mu2 - 1.87487) < 1e-5
    ok = worst <= 1e-10 and dev <= 1e-10 and named
    report(3, ok, f"mean-system residual {worst:.2e} (<=1e-10); "
                  f"(mu1*, mu2*) = ({mu1:.5f}, {mu2:.5f}) vs 2x2 solve dev {dev:.1e}")


def test_criterion_04_regularizer_maximality(normal_dist, gini_dist):
    rng = np.random.default_rng(7)
    m, s = 0.8, 1.3
    details = []
    ok = True
    for dist, norm_target in ((normal_dist, 1.0), (gini_dist, 3 ** -0.5)):
        bound = s * dist.l2_norm
        worst_excess = -np.inf
        for trial in range(1000):
            if trial % 4 == 0:
                w = rng.uniform(0.02, 0.98)
                vals = [m - s * np.sqrt((1 - w) / w), m + s * np.sqrt(w / (1 - w))]
                phi = discrete_phi(dist, vals, [w, 1 - w])
            else:
                n = int(rng.integers(3, 60))
                atoms = m + s * standardized_atoms(rng, n)
                phi = discrete_phi(dist, atoms, np.full(n, 1.0 / n))
            worst_excess = max(worst_excess, phi - bound)
        attained = choquet.phi_h(dist, choquet.build_optimal_quantile(dist, m, s).quantile)
        norm_quad = dist.l2_norm_by_quadrature()
        ok = ok and worst_excess <= 1e-8 and abs(attained - bound) <= 1e-8 \
            and abs(norm_quad - norm_target) <= 1e-9
        details.append(f"{dist.name}: max excess {worst_excess:.1e}, "
                       f"|attained-bound| {abs(attained - bound):.1e}, "
                       f"|norm-quadrature dev| {abs(norm_quad - norm_target):.1e}")
    report(4, ok, "; ".join(details))


def test_criterion_05_factorial_certificate(agents_long, bench_market):
    start = time.perf_counter()
    results = []
    ok = True
    for i in (0, 1):
        hist = pit.run_response_iteration(agents_long[i], bench_market, 20.0,
                                          n_max=25, tol=1e-6)
        envelope_ok = all(it.sup_err_a2 <= it.bound_a2 + 1e-9
                          and it.sup_err_a1 <= it.bound_a1 + 1e-9
                          for it in hist.iterates)
        ok = ok and envelope_ok and hist.converged and hist.n_iterations <= 25
        results.append(f"agent{i + 1}: n={hist.n_iterations}, envelope "
                       f"{'holds' if envelope_ok else 'VIOLATED'}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(5, ok, f"{'; '.join(results)}; runtime {elapsed:.2f}s (<5s)")


def test_criterion_06_geometric_certificate(agents_long, bench_market):
    times = np.linspace(0.0, 20.0, 201)
    hist = pit.simultaneous_mean_iteration(
        agents_long, bench_market, 20.0,
        (np.zeros(201), np.zeros(201)), 8, times=times, y_value=0.273)
    rate = hist.contraction_rate
    omega = hist.iterates[0].sup_err
    ok = rate == 0.1
    worst_ratio = 0.0
    for it in hist.iterates[1:]:
        worst_ratio = max(worst_ratio, it.ratio)
        ok = ok and it.ratio <= rate + 1e-9 and it.sup_err <= omega * 10.0 ** -it.n + 1e-9
    report(6, ok, f"contraction rate {rate}, worst per-step ratio {worst_ratio:.4f} "
                  f"(<=0.1), sup error after 8 steps {hist.iterates[8].sup_err:.2e} "
                  f"<= omega*1e-8 = {omega * 1e-8:.2e}")


def test_criterion_07_monte_carlo_consistency(agents_short, bench_market,
                                              coeffs_short, policies_short):
    cfg = market.SimConfig(horizon=1.0, n_steps=250, seed=2024)
    lines = []
    ok = True

    # objective vs closed-form value function, both agents, 1e5 episodes
    for i in (0, 1):
        est = market.estimate_objective(i, agents_short, policies_short,
                                        bench_market, cfg, 100_000,
                                        episode_generator(2024, 10_000 + i))
        xh0 = cfg.x1_0 - agents_short[i].k * cfg.x2_0 if i == 0 \
            else cfg.x2_0 - agents_short[i].k * cfg.x1_0
        v, _ = eqm.value_functions(i, 0.0, xh0, cfg.y_0, coeffs_short)
        z = (est.value - v) / est.std_error
        ok = ok and abs(z) <= 3.0
        lines.append(f"agent{i + 1}: J={est.value:.5f} V={v:.5f} z={z:+.2f}")

    # per-step action residual moments over 20k episodes; 3-sigma per step
    # with a 1% multiple-comparison allowance across the 500 step-tests
    batch = market.run_episode_batch(bench_market, agents_short, policies_short,
                                     cfg, 20_000, episode_generator(2024, 50_000))
    n = batch.n_episodes
    t_steps = np.linspace(0.0, 1.0, 251)[:-1]
    bad_mean = bad_var = 0
    for i in (0, 1):
        sigma_star = np.asarray(policies_short[i].std(t_steps))
        mean_res = batch.resid_sum[i] / n
        var_res = batch.resid_sumsq[i] / n - mean_res ** 2
        se_mean = sigma_star / np.sqrt(n)
        # residual = sigma* x (standardized law); Var(S^2) = (mu4 - sigma^4)/n
        kurt = 3.0 if agents_short[i].distortion.family == "normal" else 1.8
        se_var = sigma_star ** 2 * np.sqrt((kurt - 1.0) / n)
        bad_mean += int(np.sum(np.abs(mean_res) > 3 * se_mean))
        bad_var += int(np.sum(np.abs(var_res - sigma_star ** 2) > 3 * se_var))
    allowance = int(0.01 * 2 * len(t_steps))
    ok = ok and bad_mean <= allowance and bad_var <= allowance
    lines.append(f"step tests >3SE: mean {bad_mean}/500, var {bad_var}/500 "
                 f"(allowance {allowance})")
    report(7, ok, "; ".join(lines))


def test_criterion_08_gradient_checks(agents_short):
    rng = np.random.default_rng(31)
    tg = np.linspace(0.0, 1.0, 61)
    dt = tg[1] - tg[0]
    xh = 1 + 0.1 * np.cumsum(rng.normal(size=61) * np.sqrt(dt))
    yy = 0.273 + 0.2 * np.cumsum(rng.normal(size=61) * np.sqrt(dt))
    reg = 0.01 * np.ones(60)
    theta = rl.CriticParams(v=rng.normal(size=(3, 2)), g=rng.normal(size=(3, 2)),
                            y_center=0.273)
    _, gv, gg = rl.critic_loss_and_grad(theta, agents_short[0], tg, xh, yy, dt,
                                        reg, 1.0)

    def loss_at(vflat, gflat):
        th = rl.CriticParams(v=vflat.reshape(3, 2), g=gflat.reshape(3, 2),
                             y_center=0.273)
        val, _, _ = rl.critic_loss_and_grad(th, agents_short[0], tg, xh, yy, dt,
                                            reg, 1.0)
        return val

    h = 1e-5
    v0, g0 = theta.v.reshape(-1).copy(), theta.g.reshape(-1).copy()
    worst_rel = 0.0
    for idx in range(6):
        e = np.zeros(6)
        e[idx] = h
        fd_v = (loss_at(v0 + e, g0) - loss_at(v0 - e, g0)) / (2 * h)
        fd_g = (loss_at(v0, g0 + e) - loss_at(v0, g0 - e)) / (2 * h)
        worst_rel = max(worst_rel,
                        abs(gv[idx] - fd_v) / max(1.0, abs(fd_v)),
                        abs(gg[idx] - fd_g) / max(1.0, abs(fd_g)))

    c = np.array([0.5, -1.0, 2.0, 0.0])
    phi = c + np.array([0.6, -0.4, 0.5, -0.3])
    target = 2.0 * (phi - c)

    def quad_loss(p):
        return float(np.sum((p - c) ** 2))

    sf_rng = np.random.default_rng(99)
    acc = np.zeros(4)
    n = 100_000
    for _ in range(n):
        acc += rl.sf_gradient(quad_loss, phi, sf_rng.standard_normal(4), kappa=1e-3)
    sf_rel = np.linalg.norm(acc / n - target) / np.linalg.norm(target)
    ok = worst_rel <= 1e-5 and sf_rel <= 0.01
    report(8, ok, f"critic grad vs FD rel err {worst_rel:.2e} (<=1e-5); "
                  f"SF estimator rel err {sf_rel:.4f} over {n} draws (<=0.01)")


def test_criterion_09_qualitative_monotonicity(agents_long, bench_market,
                                               tmp_path):
    y0 = bench_market.y_bar
    checks = []

    def mu1_at(agents, t):
        return eqm.equilibrium_means(t, y0, agents, bench_market, 20.0)[0]

    ok = True
    for t in (0.1, 18.0):
        k1_vals = [mu1_at((replace(agents_long[0], k=k), agents_long[1]), t)
                   for k in (0.05, 0.1, 0.2, 0.4)]
        g1_vals = [mu1_at((replace(agents_long[0], gamma=g), agents_long[1]), t)
                   for g in (1.0, 2.0, 4.0, 8.0)]
        k2_vals = [mu1_at((agents_long[0], replace(agents_long[1], k=k)), t)
                   for k in (0.05, 0.2, 0.5, 0.8)]
        g2_vals = [mu1_at((agents_long[0], replace(agents_long[1], gamma=g)), t)
                   for g in (0.5, 1.0, 2.0, 4.0)]
        up_k1 = all(b > a for a, b in zip(k1_vals, k1_vals[1:]))
        down_g1 = all(b < a for a, b in zip(g1_vals, g1_vals[1:]))
        up_k2 = all(b > a for a, b in zip(k2_vals, k2_vals[1:]))
        down_as_g2_up = all(b < a for a, b in zip(g2_vals, g2_vals[1:]))
        ok = ok and up_k1 and down_g1 and up_k2 and down_as_g2_up
        checks.append(f"t={t}: k1^ {up_k1}, gamma1v {down_g1}, k2^ {up_k2}, "
                      f"gamma2v->mu1^ {down_as_g2_up}")

    coeffs = eqm.solve_coefficients(agents_long, bench_market, 20.0, 801)
    pol = eqm.equilibrium_policy(0, agents_long, bench_market, coeffs)
    ts = np.linspace(0.0, 20.0, 60)
    stds = np.array([pol.std(t) for t in ts])
    std_decay = bool(np.all(np.diff(stds) < 0.0))
    ok = ok and std_decay
    checks.append(f"sigma* strictly decreasing: {std_decay}")

    out = tmp_path / "eq"
    assert cli.main(["equilibrium", "--config", preset_path("table1"), "--out", str(out)]) == 0
    worst_integral = 0.0
    for i in (1, 2):
        rows = list(csv.DictReader(open(out / f"densities_agent{i}.csv")))
        groups = {}
        for r in rows:
            groups.setdefault((r["param"], r["value"], r["t"]), []).append(
                (float(r["u"]), float(r["density"])))
        for pts in groups.values():
            u = np.array([p[0] for p in pts])
            d = np.array([p[1] for p in pts])
            worst_integral = max(worst_integral, abs(np.trapezoid(d, u) - 1.0))
    ok = ok and worst_integral <= 1e-6
    checks.append(f"density integrals within {worst_integral:.1e} of 1 (<=1e-6)")
    report(9, ok, "; ".join(checks))


def test_criterion_10_learning_at_desk_scale(agents_short, bench_market,
                                             coeffs_short, policies_short,
                                             tmp_path):
    start = time.perf_counter()
    lines = []

    # (a) full benchmark protocol: 10 replications, M=2000, actors started
    # within 10% of the closed-form parameters, averaged curves in-band
    out = tmp_path / "train"
    code = cli.main(["train", "--config", preset_path("table2"), "--out", str(out)])
    rows = list(csv.DictReader(open(out / "learned_vs_true.csv")))
    rel = 0.0
    for r in rows:
        rel = max(rel,
                  abs(float(r["mu_learned_1"]) - float(r["mu_true_1"]))
                  / abs(float(r["mu_true_1"])),
                  abs(float(r["mu_learned_2"]) - float(r["mu_true_2"]))
                  / abs(float(r["mu_true_2"])))
    band_ok = code == 0 and rel <= 0.10
    lines.append(f"averaged learned curves max rel err {rel:.4f} (<=0.10), "
                 f"exit code {code}")

    # (b) critics trained under the frozen true policy drive mean TD errors
    # to zero (fresh-batch evaluation, episode-clustered standard errors)
    phi_star = (rl.equilibrium_actor_params(agents_short[0], bench_market),
                rl.equilibrium_actor_params(agents_short[1], bench_market))
    train_cfg = rl.TrainConfig(episodes=2000, n_steps=250, horizon=1.0,
                               learning_rate=1e-3, kappa=0.01, seed=777,
                               critic_warmup=2000)
    res = rl.train(agents_short, bench_market, train_cfg,
                   initial_actors=(phi_star[0][None], phi_star[1][None]), seeds=[777])
    theta = (res.theta[0][0], res.theta[1][0])  # replication 0
    sim_cfg = market.SimConfig(horizon=1.0, n_steps=250, seed=777)
    td_ok = True
    for i in (0, 1):
        means1, means2 = [], []
        for m in range(100):
            rng = episode_generator(888, m)
            traj = market.simulate_game(bench_market, agents_short,
                                        policies_short, sim_cfg, rng)
            tg, y, x1, x2 = traj.times, traj.y, traj.x1, traj.x2
            xh = (x1 - agents_short[0].k * x2) if i == 0 \
                else (x2 - agents_short[1].k * x1)
            ts = tg[:-1]
            reg = (np.asarray(agents_short[i].lam(ts)) * np.ones(250)
                   * np.asarray(policies_short[i].std(ts))
                   * agents_short[i].distortion.l2_norm)
            c1, c2 = rl.td_errors(theta[i], agents_short[i], tg, xh, y,
                                  sim_cfg.dt, reg, 1.0)
            means1.append(c1.mean())
            means2.append(c2.mean())
        for name, vals in (("C1", means1), ("C2", means2)):
            vals = np.asarray(vals)
            se = vals.std(ddof=1) / np.sqrt(len(vals))
            z = vals.mean() / se
            td_ok = td_ok and abs(z) <= 3.0
            lines.append(f"agent{i + 1} mean {name} z={z:+.2f}")

    elapsed = time.perf_counter() - start
    ok = band_ok and td_ok and elapsed < 600.0
    lines.append(f"runtime {elapsed:.0f}s (<600s)")
    report(10, ok, "; ".join(lines))
