import csv
import tracemalloc

import numpy as np
import pytest

from mvgame import market
from mvgame.market import (AgentParams, MarketParams, SimConfig,
                           episode_generator, run_episode_batch, simulate_game)


class StaticPolicy:
    """Location-scale law with fixed moments, for simulator-level checks."""

    def __init__(self, mean, std, distortion):
        self._mean = mean
        self._std = std
        self.distortion = distortion

    def affine(self, t):
        return 0.0, self._mean

    def mean(self, t, y):
        return self._mean * np.ones_like(np.asarray(y, dtype=float)) \
            if np.ndim(y) else self._mean

    def std(self, t):
        return self._std * np.ones_like(np.asarray(t, dtype=float)) \
            if np.ndim(t) else self._std

    def quantile(self, t, y, p):
        hp = np.asarray(self.distortion.h_prime(1.0 - np.asarray(p, dtype=float)))
        out = self.mean(t, y) + self._std * hp / self.distortion.l2_norm
        return out


def point_mass(value, dist):
    return StaticPolicy(value, 0.0, dist)

class TestParamValidation:
    def test_market_params(self):
        with pytest.raises(ValueError):
            MarketParams(r=0.01, sigma=-0.1, iota=0.1, y_bar=0.2, v=0.1, rho=0.0)
        with pytest.raises(ValueError):
            MarketParams(r=0.01, sigma=0.1, iota=-0.1, y_bar=0.2, v=0.1, rho=0.0)
        with pytest.raises(ValueError):
            MarketParams(r=0.01, sigma=0.1, iota=0.1, y_bar=0.2, v=-0.1, rho=0.0)
        with pytest.raises(ValueError):
            MarketParams(r=0.01, sigma=0.1, iota=0.1, y_bar=0.2, v=0.1, rho=-1.5)
        # negative correlation is accepted on the full interval
        MarketParams(r=0.017, sigma=0.15, iota=0.27, y_bar=0.273, v=0.065, rho=-0.93)

    def test_agent_params(self, normal_dist):
        lam = market.Schedule(0.01)
        with pytest.raises(ValueError):
            AgentParams(gamma=0.0, k=0.1, lam=lam, distortion=normal_dist)
        with pytest.raises(ValueError):
            AgentParams(gamma=1.0, k=1.0, lam=lam, distortion=normal_dist)
        # k = 0 decouples the game and is allowed
        AgentParams(gamma=1.0, k=0.0, lam=lam, distortion=normal_dist)

    def test_sim_config(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0, n_steps=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, n_steps=0, seed=1)
        assert SimConfig(horizon=2.0, n_steps=8, seed=1).dt == 0.25

    @pytest.mark.parametrize("build, message", [
        (lambda d, x: MarketParams(r=0.01, sigma=x, iota=0.1, y_bar=0.2, v=0.1, rho=0.0),
         "sigma must be nonnegative"),
        (lambda d, x: MarketParams(r=0.01, sigma=0.1, iota=x, y_bar=0.2, v=0.1, rho=0.0),
         "iota must be nonnegative"),
        (lambda d, x: MarketParams(r=0.01, sigma=0.1, iota=0.1, y_bar=0.2, v=x, rho=0.0),
         "v must be nonnegative"),
        (lambda d, x: AgentParams(gamma=x, k=0.1, lam=market.Schedule(0.01), distortion=d),
         "gamma must be positive"),
        (lambda d, x: market.Schedule(x), "exploration weight must be positive"),
        (lambda d, x: SimConfig(horizon=x, n_steps=10, seed=1), "horizon must be positive"),
        (lambda d, x: MarketParams(r=x, sigma=0.1, iota=0.1, y_bar=0.2, v=0.1, rho=0.0),
         "r must be finite"),
        (lambda d, x: MarketParams(r=0.01, sigma=0.1, iota=0.1, y_bar=x, v=0.1, rho=0.0),
         "y_bar must be finite"),
        (lambda d, x: market.Schedule(0.01, x, 1.0), "rate must be finite"),
        (lambda d, x: market.Schedule(0.01, 0.01, x), "horizon must be finite"),
        (lambda d, x: SimConfig(horizon=1.0, n_steps=10, seed=1, x1_0=x), "x1_0 must be finite"),
        (lambda d, x: SimConfig(horizon=1.0, n_steps=10, seed=1, x2_0=x), "x2_0 must be finite"),
        (lambda d, x: SimConfig(horizon=1.0, n_steps=10, seed=1, y_0=x), "y_0 must be finite"),
    ], ids=["sigma", "iota", "v", "gamma", "lam0", "horizon", "r", "y_bar", "rate",
            "schedule_horizon", "x1_0", "x2_0", "y_0"])
    def test_nan_rejected(self, normal_dist, build, message):
        """Each range check is written as "not <valid>", so a NaN field fails
        it with the same message as an out-of-range value; a field with no
        range must be finite."""
        with pytest.raises(ValueError, match=message):
            build(normal_dist, float("nan"))
        build(normal_dist, 0.5)

    def test_weight_schedules(self):
        with pytest.raises(ValueError):
            market.Schedule(0.0)
        lam = market.Schedule(0.01, 0.01, 20.0)
        assert lam(20.0) == pytest.approx(0.01)
        assert lam(0.0) == pytest.approx(0.01 * np.exp(0.2))
        # the constant schedule is lam0 exactly, with the shape of t
        const = market.Schedule(0.015)
        assert const(0.3) == 0.015 and np.ndim(const(0.3)) == 0
        t = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert const(t).shape == (2, 3)
        assert np.all(const(t) == 0.015)


class TestStateAndPrice:
    def test_degenerate_state_is_constant(self):
        params = MarketParams(r=0.017, sigma=0.15, iota=0.0, y_bar=0.3, v=0.0, rho=0.0)
        cfg = SimConfig(horizon=1.0, n_steps=50, seed=4, y_0=0.3)
        y, _ = market._state_and_price_batch(params, cfg, 1, episode_generator(4, 0))
        assert np.all(y == 0.3)

    def test_zero_vol_price_constant_discounted(self):
        params = MarketParams(r=0.017, sigma=0.0, iota=0.27, y_bar=0.273, v=0.065, rho=0.5)
        cfg = SimConfig(horizon=1.0, n_steps=50, seed=4)
        _, s_disc = market._state_and_price_batch(params, cfg, 1, episode_generator(4, 0))
        assert np.allclose(s_disc, 1.0, atol=1e-14)

    def test_ou_transition_mean(self, bench_market):
        # oracle: exact OU mean y_bar + (y0 - y_bar) e^{-iota T}
        cfg = SimConfig(horizon=1.0, n_steps=250, seed=12, y_0=0.5)
        rng = episode_generator(12, 0)
        y, _ = market._state_and_price_batch(bench_market, cfg, 100_000, rng)
        final = y[:, -1]
        target = bench_market.y_bar + (0.5 - bench_market.y_bar) * np.exp(-bench_market.iota)
        se = final.std() / np.sqrt(len(final))
        assert abs(final.mean() - target) < 3 * se

    def test_determinism(self, bench_market):
        cfg = SimConfig(horizon=1.0, n_steps=100, seed=9)
        y1, s1 = market._state_and_price_batch(bench_market, cfg, 1, episode_generator(9, 3))
        y2, s2 = market._state_and_price_batch(bench_market, cfg, 1, episode_generator(9, 3))
        assert np.array_equal(y1, y2) and np.array_equal(s1, s2)

    def test_one_generator_per_path_matches_solo_paths(self, bench_market):
        """Path r of a batch over a sequence of generators is the one-path
        simulation on rngs[r], and each stream goes on where the solo run left it."""
        cfg = SimConfig(horizon=1.0, n_steps=40, seed=3)
        rngs = [episode_generator(seed, 2) for seed in (3, 4, 5)]
        y, s_disc = market._state_and_price_batch(bench_market, cfg, 3, rngs)
        for r, seed in enumerate((3, 4, 5)):
            solo_rng = episode_generator(seed, 2)
            y_r, s_r = market._state_and_price_batch(bench_market, cfg, 1, solo_rng)
            assert np.array_equal(y[r], y_r[0]) and np.array_equal(s_disc[r], s_r[0])
            assert rngs[r].random() == solo_rng.random()
        with pytest.raises(ValueError, match="one generator per path"):
            market._state_and_price_batch(bench_market, cfg, 2, rngs)

    @pytest.mark.parametrize("n_paths", [1, 5, 130])
    def test_in_place_matches_out_of_place_formulas(self, bench_market, n_paths):
        """Reference: the simulator written with a fresh array per operation."""
        from scipy.signal import lfilter

        cfg = SimConfig(horizon=1.0, n_steps=60, seed=17, y_0=0.4)
        params, n, dt = bench_market, cfg.n_steps, cfg.dt
        rng = episode_generator(17, n_paths)
        db = np.sqrt(dt) * rng.standard_normal((n_paths, n))
        db_tilde = np.sqrt(dt) * rng.standard_normal((n_paths, n))
        phi = 1.0 - params.iota * dt
        noise = params.v * (params.rho * db + np.sqrt(1.0 - params.rho ** 2) * db_tilde)
        forcing = params.iota * params.y_bar * dt + noise
        y_ref = np.empty((n_paths, n + 1))
        y_ref[:, 0] = cfg.y_0
        y_ref[:, 1:] = lfilter([1.0], [1.0, -phi], forcing, axis=1)
        y_ref[:, 1:] += cfg.y_0 * np.power(phi, np.arange(1, n + 1))
        dlog = (params.sigma * y_ref[:, :-1] - 0.5 * params.sigma ** 2) * dt \
            + params.sigma * db
        s_ref = np.empty((n_paths, n + 1))
        s_ref[:, 0] = 1.0
        s_ref[:, 1:] = np.exp(np.cumsum(dlog, axis=1))

        y, s_disc = market._state_and_price_batch(params, cfg, n_paths,
                                                  episode_generator(17, n_paths))
        assert np.array_equal(y, y_ref) and np.array_equal(s_disc, s_ref)

    def test_draw_uniforms_matches_clamped_draw(self):
        got = market._draw_uniforms(episode_generator(6, 0), (3, 40))
        ref = np.maximum(episode_generator(6, 0).random((3, 40)), 2.0 ** -53)
        assert np.array_equal(got, ref)


class TestSimulateGame:
    def test_point_mass_policies_keep_wealth_constant(self, bench_market, normal_dist,
                                                      gini_dist, agents_short):
        cfg = SimConfig(horizon=1.0, n_steps=100, seed=21)
        pols = (point_mass(0.0, normal_dist), point_mass(0.0, gini_dist))
        traj = simulate_game(bench_market, agents_short, pols, cfg,
                             episode_generator(21, 0))
        assert np.all(traj.x1 == cfg.x1_0)
        assert np.all(traj.x2 == cfg.x2_0)

    def test_matches_step_wealth_loop(self, bench_market, agents_short, policies_short):
        cfg = SimConfig(horizon=1.0, n_steps=50, seed=31)
        traj = simulate_game(bench_market, agents_short, policies_short, cfg,
                             episode_generator(31, 0))
        x = cfg.x1_0
        for k in range(cfg.n_steps):
            x += traj.actions1[k] * (traj.s_disc[k + 1] - traj.s_disc[k]) / traj.s_disc[k]
            # vectorized accumulation differs from the loop only in the
            # last-bit association order
            assert x == pytest.approx(traj.x1[k + 1], rel=1e-13)

    def test_initial_wealth_and_lengths(self, bench_market, agents_short, policies_short):
        cfg = SimConfig(horizon=1.0, n_steps=64, seed=3, x1_0=2.0, x2_0=0.5)
        traj = simulate_game(bench_market, agents_short, policies_short, cfg,
                             episode_generator(3, 1))
        assert len(traj.times) == len(traj.y) == len(traj.x1) == 65
        assert len(traj.actions1) == len(traj.actions2) == 64
        assert traj.x1[0] == 2.0 and traj.x2[0] == 0.5

    def test_determinism(self, bench_market, agents_short, policies_short):
        cfg = SimConfig(horizon=1.0, n_steps=50, seed=8)
        t1 = simulate_game(bench_market, agents_short, policies_short, cfg,
                           episode_generator(8, 5))
        t2 = simulate_game(bench_market, agents_short, policies_short, cfg,
                           episode_generator(8, 5))
        assert np.array_equal(t1.x1, t2.x1)
        assert np.array_equal(t1.actions2, t2.actions2)

    def test_csv_roundtrip(self, bench_market, agents_short, policies_short, tmp_path):
        cfg = SimConfig(horizon=1.0, n_steps=10, seed=8)
        traj = simulate_game(bench_market, agents_short, policies_short, cfg,
                             episode_generator(8, 5))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 11
        assert [float(r["x1"]) for r in rows] == [float(v) for v in traj.x1]
        assert rows[-1]["u1"] == "" and rows[0]["u2"] != ""


def per_step_batch(params, agents, policies, cfg, n_episodes, rng):
    """Reference: run_episode_batch with one policy call per agent and step."""
    n = cfg.n_steps
    t_grid = np.linspace(0.0, cfg.horizon, n + 1)
    y, s_disc = market._state_and_price_batch(params, cfg, n_episodes, rng)
    p1 = market._draw_uniforms(rng, (n_episodes, n))
    p2 = market._draw_uniforms(rng, (n_episodes, n))
    rel = np.diff(s_disc, axis=1) / s_disc[:, :-1]
    x0 = (cfg.x1_0, cfg.x2_0)
    x_T = []
    resid_sum = np.zeros((2, n))
    resid_sumsq = np.zeros((2, n))
    for i, (pol, p) in enumerate(zip(policies, (p1, p2))):
        u = np.empty((n_episodes, n))
        for k in range(n):
            u[:, k] = pol.quantile(t_grid[k], y[:, k], p[:, k])
            res = u[:, k] - pol.mean(t_grid[k], y[:, k])
            resid_sum[i, k] = res.sum()
            resid_sumsq[i, k] = (res * res).sum()
        x_T.append(x0[i] + np.sum(u * rel, axis=1))
    xhat = (x_T[0] - agents[0].k * x_T[1], x_T[1] - agents[1].k * x_T[0])
    return xhat, resid_sum, resid_sumsq


class TestEpisodeBatch:
    @pytest.mark.parametrize("policy_kind", ["equilibrium", "static"])
    # Literal sizes keep the test ids fixed when the block size is retuned;
    # with 128-row blocks they fall just under and over one and two blocks.
    @pytest.mark.parametrize("n_episodes", [1, 127, 131, 255, 259])
    def test_blocked_batch_matches_per_step_loop(self, bench_market, agents_short,
                                                 policies_short, normal_dist,
                                                 gini_dist, policy_kind, n_episodes):
        pols = policies_short if policy_kind == "equilibrium" else (
            StaticPolicy(1.2, 0.5, normal_dist), StaticPolicy(0.8, 0.3, gini_dist))
        cfg = SimConfig(horizon=1.0, n_steps=40, seed=23)
        engine, reference = (episode_generator(23, n_episodes) for _ in range(2))
        batch = run_episode_batch(bench_market, agents_short, pols, cfg, n_episodes,
                                  engine)
        xhat, resid_sum, resid_sumsq = per_step_batch(
            bench_market, agents_short, pols, cfg, n_episodes, reference)
        # estimate_objective feeds one generator batch after batch, so the
        # blocks' draws must leave it where whole-batch draws do
        assert np.array_equal(engine.random(8), reference.random(8))
        assert batch.n_episodes == n_episodes
        assert all(np.array_equal(a, b) for a, b in zip(batch.xhat_T, xhat))
        # the blocks add the residuals in another order; bound the round-off
        # by the sum of |residual| <= sqrt(n * sum of squares)
        np.testing.assert_allclose(batch.resid_sumsq, resid_sumsq, rtol=1e-12, atol=0)
        scale = np.sqrt(n_episodes * resid_sumsq)
        assert np.all(np.abs(batch.resid_sum - resid_sum) <= 1e-12 * scale)

    def test_peak_memory_is_two_batch_arrays(self, bench_market, agents_short,
                                            policies_short):
        """Only dB and dB~ are as large as the batch; the uniforms, prices
        and actions live one block at a time."""
        n_episodes, cfg = 4000, SimConfig(horizon=1.0, n_steps=250, seed=3)
        run_episode_batch(bench_market, agents_short, policies_short, cfg, 200,
                          episode_generator(3, 0))
        tracemalloc.start()
        try:
            run_episode_batch(bench_market, agents_short, policies_short, cfg,
                              n_episodes, episode_generator(3, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n_episodes * cfg.n_steps


class TestMomentMatching:
    def test_one_step_gap_moments(self, bench_market, normal_dist, gini_dist,
                                  agents_short):
        """Drift and quadratic variation of the wealth gap over one step match
        sigma*y*(mu1 - k1 mu2) and sigma^2 (gap^2 + s1^2 + k1^2 s2^2)."""
        mu = (1.2, 0.8)
        sd = (0.5, 0.3)
        pols = (StaticPolicy(mu[0], sd[0], normal_dist),
                StaticPolicy(mu[1], sd[1], gini_dist))
        dt = 0.01
        y0 = 0.35
        cfg = SimConfig(horizon=dt, n_steps=1, seed=44, y_0=y0)
        batch = run_episode_batch(bench_market, agents_short, pols, cfg,
                                  200_000, episode_generator(44, 0))
        k1 = agents_short[0].k
        dx = batch.xhat_T[0] - (cfg.x1_0 - k1 * cfg.x2_0)

        gap = mu[0] - k1 * mu[1]
        drift = dx / dt
        target_drift = bench_market.sigma * y0 * gap
        se = drift.std() / np.sqrt(len(drift))
        assert abs(drift.mean() - target_drift) < 3 * se

        quad = dx * dx / dt
        target_quad = bench_market.sigma ** 2 * (gap ** 2 + sd[0] ** 2
                                                 + k1 ** 2 * sd[1] ** 2)
        se_q = quad.std() / np.sqrt(len(quad))
        assert abs(quad.mean() - target_quad) < 3 * se_q


class TestEstimateObjective:
    def test_point_mass_zero_market(self, agents_short, normal_dist, gini_dist):
        params = MarketParams(r=0.0, sigma=0.0, iota=0.0, y_bar=0.0, v=0.0, rho=0.0)
        cfg = SimConfig(horizon=1.0, n_steps=20, seed=2, x1_0=1.4, x2_0=0.6, y_0=0.0)
        pols = (point_mass(0.0, normal_dist), point_mass(0.0, gini_dist))
        est = market.estimate_objective(0, agents_short, pols, params, cfg, 100,
                                        episode_generator(2, 0))
        xhat0 = 1.4 - agents_short[0].k * 0.6
        assert est.value == pytest.approx(xhat0, abs=1e-14)
        assert est.regularizer_integral == 0.0
        assert est.var_terminal == pytest.approx(0.0, abs=1e-30)

    def test_lambda_doubling_adds_analytic_regularizer(
            self, bench_market, agents_short, policies_short):
        """Same policies, same random numbers: doubling the agent's
        exploration weight shifts the objective by exactly the added
        deterministic regularizer integral."""
        cfg = SimConfig(horizon=1.0, n_steps=50, seed=13)
        base = market.estimate_objective(0, agents_short, policies_short,
                                         bench_market, cfg, 2000,
                                         episode_generator(13, 0))
        doubled_agent = AgentParams(gamma=agents_short[0].gamma,
                                    k=agents_short[0].k,
                                    lam=market.Schedule(2 * 0.015),
                                    distortion=agents_short[0].distortion)
        agents2 = (doubled_agent, agents_short[1])
        est2 = market.estimate_objective(0, agents2, policies_short,
                                         bench_market, cfg, 2000,
                                         episode_generator(13, 0))
        added = est2.regularizer_integral - base.regularizer_integral
        assert added == pytest.approx(base.regularizer_integral, rel=1e-12)
        assert est2.value - base.value == pytest.approx(added, abs=1e-12)

    def test_needs_two_episodes(self, bench_market, agents_short, policies_short):
        cfg = SimConfig(horizon=1.0, n_steps=10, seed=1)
        with pytest.raises(ValueError):
            market.estimate_objective(0, agents_short, policies_short,
                                      bench_market, cfg, 1, episode_generator(1, 0))

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_chunk_size_below_one_rejected(self, bench_market, agents_short,
                                           policies_short, chunk_size):
        cfg = SimConfig(horizon=1.0, n_steps=10, seed=1)
        with pytest.raises(ValueError, match="chunk_size"):
            market.estimate_objective(0, agents_short, policies_short, bench_market,
                                      cfg, 10, episode_generator(1, 0),
                                      chunk_size=chunk_size)

    def test_estimate_does_not_depend_on_chunk_size(self, bench_market, agents_short,
                                                    policies_short):
        """Every chunk_size reads the stream in the same 1000-episode batches,
        and the estimate is the statistics of their samples."""
        cfg, n = SimConfig(horizon=1.0, n_steps=20, seed=17), 2500
        rng = episode_generator(17, 3)
        samples = np.concatenate([
            run_episode_batch(bench_market, agents_short, policies_short, cfg,
                              min(1000, n - done), rng).xhat_T[0]
            for done in range(0, n, 1000)])
        mean_T = float(samples.mean())
        centered = samples - mean_T
        var_T = float(np.sum(centered ** 2) / (n - 1))
        mu3, mu4 = float(np.mean(centered ** 3)), float(np.mean(centered ** 4))
        g = agents_short[0].gamma
        var_est = (var_T + 0.25 * g * g * (mu4 - var_T ** 2) - g * mu3) / n
        reg = market._regularizer_integral(agents_short[0], policies_short[0],
                                           np.linspace(0.0, 1.0, 21), cfg.dt)
        reference = (reg + mean_T - 0.5 * g * var_T, float(np.sqrt(max(var_est, 0.0))),
                     mean_T, var_T)
        for chunk_size in (1, 999, 1000, 1001, 20000, None):
            kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
            est = market.estimate_objective(0, agents_short, policies_short,
                                            bench_market, cfg, n,
                                            episode_generator(17, 3), **kwargs)
            got = (est.value, est.std_error, est.mean_terminal, est.var_terminal)
            assert repr(got) == repr(reference), chunk_size

    def test_peak_memory_is_one_batch(self, bench_market, agents_short, policies_short):
        """The 1000-episode batches bound memory whatever the episode count:
        two batch arrays, half of one more for the block temporaries, and
        the samples."""
        n_episodes, cfg = 20000, SimConfig(horizon=1.0, n_steps=250, seed=3)
        market.estimate_objective(0, agents_short, policies_short, bench_market, cfg,
                                  200, episode_generator(3, 0))
        tracemalloc.start()
        try:
            market.estimate_objective(0, agents_short, policies_short, bench_market,
                                      cfg, n_episodes, episode_generator(3, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * 1000 * cfg.n_steps + 8 * n_episodes


# Monte Carlo outputs of the engine that built each episode block from
# per-block policy calls on whole-batch state and price arrays (the commit
# before the block-wise engine), on the ``agents_short`` fixtures, with
# chunk_size=1000.  That is the layout of estimate_objective's fixed
# 1000-episode batches, so every chunk_size must reproduce them; only the
# arithmetic of the policy means may move the values, by round-off.
PINNED_ESTIMATES = {  # (chunk_size, agent): value, std_error, mean_terminal, var_terminal
    (1000, 0): (0.9244927660589548, 0.0029949038932629564, 0.9413044703635743,
                0.021811704304619595),
    (1000, 1): (0.9661896519988654, 0.0018974034439156442, 0.9777948750129534,
                0.009053687770708772),
}
PINNED_RESID_SUM = [
    [13.388341068065891, -15.21922080083673, -0.1776804574052795, 0.28313575915713174,
     -2.4481961675301593, -14.272917055015768, 10.806102407219196, 6.38810636832784,
     -0.8703720605085886, -2.4279437700820496],
    [-4.758175212156564, 3.2162333764382196, -6.2337536910725895, 4.72795228008734,
     2.478513485448378, 1.4247461387084261, -3.401217827157149, 3.7859092141645196,
     2.2652723790304647, -0.5273774576532153],
]
PINNED_RESID_SUMSQ = [
    [66.5552475710508, 63.07669266524538, 64.33601225360377, 66.74937376915399,
     57.7073672360363, 66.44772003642899, 68.78258767847527, 64.64784953176664,
     69.65501777612133, 67.21572269269524],
    [18.081795911142127, 17.685022961895747, 17.347694271575982, 17.48714814981102,
     17.788688058430694, 16.539314929958465, 18.02047984111203, 17.5237734510115,
     17.236941203971064, 17.940137876752107],
]


class TestPinnedMonteCarlo:
    @pytest.mark.parametrize("chunk_size", [1000, None])
    def test_estimates_match_pinned_values(self, bench_market, agents_short,
                                           policies_short, chunk_size):
        cfg = SimConfig(horizon=1.0, n_steps=250, seed=31)
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        for i in (0, 1):
            est = market.estimate_objective(i, agents_short, policies_short,
                                            bench_market, cfg, 3000,
                                            episode_generator(31, 10_000 + i), **kwargs)
            got = (est.value, est.std_error, est.mean_terminal, est.var_terminal)
            np.testing.assert_allclose(got, PINNED_ESTIMATES[1000, i],
                                       rtol=1e-12, atol=0)

    def test_residual_moments_match_pinned_values(self, bench_market, agents_short,
                                                  policies_short):
        cfg = SimConfig(horizon=1.0, n_steps=10, seed=31)
        batch = run_episode_batch(bench_market, agents_short, policies_short, cfg,
                                  600, episode_generator(31, 7))
        np.testing.assert_allclose(batch.resid_sum, PINNED_RESID_SUM, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch.resid_sumsq, PINNED_RESID_SUMSQ,
                                   rtol=1e-12, atol=0)


class TestGuards:
    def test_wealth_guard_trips(self, bench_market, normal_dist, gini_dist,
                                agents_short):
        cfg = SimConfig(horizon=1.0, n_steps=200, seed=5)
        pols = (StaticPolicy(1e14, 0.0, normal_dist), point_mass(0.0, gini_dist))
        with pytest.raises(market.SimulationDivergedError):
            simulate_game(bench_market, agents_short, pols, cfg,
                          episode_generator(5, 0))


class TestRegularizerFallback:
    """Objective evaluation of a policy built from a different distortion
    falls back to quantile quadrature.  Oracles, for a law with std s: a
    uniform law under the normal distortion gives sqrt(3) s * 2 E[X Phi(X)] =
    sqrt(3/pi) s; a normal law under the Gini distortion gives
    s * 2 E[Z Phi(Z)] = s/sqrt(pi)."""

    @staticmethod
    def _check(agent, policy_dist, lam0, phi_per_std):
        from mvgame.market import _regularizer_integral

        s = 0.7
        t_grid = np.linspace(0.0, 1.0, 51)
        got = _regularizer_integral(agent, StaticPolicy(1.3, s, policy_dist), t_grid, 0.02)
        expected = lam0 * phi_per_std * s * 1.0  # sum lam*Phi*dt = lam*Phi*T
        assert got == pytest.approx(expected, rel=1e-10)

    def test_cross_distortion_quadrature(self, gini_dist, agents_short):
        # agent 1's h is normal, lam0 = 0.015
        self._check(agents_short[0], gini_dist, 0.015, np.sqrt(3.0 / np.pi))

    def test_cross_distortion_quadrature_gini_agent(self, normal_dist, agents_short):
        # agent 2's h is Gini, lam0 = 0.02
        self._check(agents_short[1], normal_dist, 0.02, 1.0 / np.sqrt(np.pi))

    def test_matching_distortion_uses_analytic_value(self, agents_short,
                                                     policies_short):
        from mvgame.market import _regularizer_integral

        t_grid = np.linspace(0.0, 1.0, 51)
        got = _regularizer_integral(agents_short[0], policies_short[0], t_grid, 0.02)
        # constant lam and std: integral = lam * std * ||h'||_2 * T
        expected = 0.015 * policies_short[0].std(0.0) * 1.0
        assert got == pytest.approx(expected, rel=1e-12)
