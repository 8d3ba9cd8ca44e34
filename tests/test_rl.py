import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mvgame import equilibrium as eqm, market, rl
from mvgame.market import episode_generator

from presets import preset


def ls_fit_critic(coeff_set, horizon, d=2, y_center=0.0):
    """Least-squares fit of the critic basis to the closed-form coefficient
    curves (in the centered parameterization)."""
    taus = np.linspace(0.0, horizon, 400)
    X = taus[:, None] ** np.arange(1, d + 1)

    def fit(curve):
        sol, *_ = np.linalg.lstsq(X, curve, rcond=None)
        return sol

    t = horizon - taus
    a0, a1, a2 = coeff_set.a_at(t)
    b0, b1, b2 = coeff_set.b_at(t)
    c = y_center
    # x + a2 y^2/2 + a1 y + a0 recentred at y = c + yhat
    g_rows = [fit(0.5 * a2 * c * c + a1 * c + a0), fit(a2 * c + a1), fit(0.5 * a2)]
    v_rows = [fit(0.5 * b2 * c * c + b1 * c + b0), fit(b2 * c + b1), fit(0.5 * b2)]
    return rl.CriticParams(v=np.vstack(v_rows), g=np.vstack(g_rows), y_center=c)


class TestActorQuantile:
    def test_matches_terminal_equilibrium_form(self, agents_short, bench_market):
        ag = agents_short[0]
        phi = np.array([1.0 / (ag.gamma * bench_market.sigma), 0.0, 0.3, 0.0])
        t, y, mu_j = 0.4, 0.5, 1.2
        # mean part: y/(gamma sigma) + k mu_j; scale: lam/(gamma sigma^2)
        q_mid = rl.actor_quantile(phi, ag, t, y, mu_j, 0.5, 1.0)
        assert q_mid == pytest.approx(y / (ag.gamma * bench_market.sigma)
                                      + ag.k * mu_j, abs=1e-12)
        scale = rl.actor_scale_coeff(phi, ag, t)
        assert scale == pytest.approx(float(ag.lam(t)) / (ag.gamma * bench_market.sigma ** 2),
                                      abs=1e-12)

    def test_median_is_mean_for_symmetric_distortion(self, agents_short):
        phi = np.array([0.9, 0.1, 0.2, -0.3])
        q = rl.actor_quantile(phi, agents_short[0], 0.2, 0.5, 0.7, 0.5, 1.0)
        base = rl.actor_base_mean(phi, 0.2, 0.5, 1.0)
        assert q == pytest.approx(agents_short[0].k * 0.7 + base, abs=1e-12)

    def test_decay_terms_vanish_at_horizon(self, agents_short):
        for phi13 in ((0.7, -0.4), (0.0, 0.0), (-2.0, 5.0)):
            phi = np.array([0.9, phi13[0], 0.4, phi13[1]])
            q = rl.actor_quantile(phi, agents_short[0], 1.0, 0.5, 0.7, 0.5, 1.0)
            ref = rl.actor_quantile(np.array([0.9, 0.0, 0.4, 0.0]),
                                    agents_short[0], 1.0, 0.5, 0.7, 0.5, 1.0)
            assert q == pytest.approx(ref, abs=1e-12)

    def test_phi2_zero_limit(self):
        tau = 0.7
        f1a, f2a = rl._decay_factors(0.0, tau)
        f1b, f2b = rl._decay_factors(1e-9, tau)
        assert f1a == pytest.approx(2.0 * tau, abs=1e-12)
        assert f2a == pytest.approx(tau ** 2, abs=1e-12)
        assert f1b == pytest.approx(f1a, rel=1e-8)
        assert f2b == pytest.approx(f2a, rel=1e-8)

    def test_scale_nonnegative_for_any_phi0(self, agents_short):
        for phi0 in (-3.0, -0.1, 0.0, 2.5):
            phi = np.array([phi0, 0.1, 0.2, 0.3])
            assert rl.actor_scale_coeff(phi, agents_short[0], 0.5) >= 0.0

    def test_equilibrium_actor_params_reproduce_means(self, agents_short,
                                                      bench_market):
        phis = (rl.equilibrium_actor_params(agents_short[0], bench_market),
                rl.equilibrium_actor_params(agents_short[1], bench_market))
        ts = np.linspace(0.0, 1.0, 7)
        ys = np.linspace(-0.2, 0.7, 7)
        mu1, mu2 = rl.resolve_actor_means(phis, agents_short, ts, ys, 1.0)
        e1, e2 = eqm.equilibrium_means(ts, ys, agents_short, bench_market, 1.0)
        assert np.max(np.abs(mu1 - e1)) < 1e-12
        assert np.max(np.abs(mu2 - e2)) < 1e-12


def critic_values(theta: rl.CriticParams, t, xhat, y, horizon: float):
    """(V, g) surrogate values of a (3, d) critic."""
    f = rl.critic_features(t, y, horizon, theta.d, theta.y_center)
    xhat = np.asarray(xhat, dtype=float)
    return xhat + f @ theta.v.reshape(-1), xhat + f @ theta.g.reshape(-1)


class TestCriticEval:
    """The terminal identity V(T) = g(T) = xhat holds for every theta
    because the critic basis vanishes at zero time-to-go."""

    def test_terminal_identity_any_theta(self):
        rng = np.random.default_rng(3)
        theta = rl.CriticParams(v=rng.normal(size=(3, 2)),
                                g=rng.normal(size=(3, 2)), y_center=0.273)
        v, g = critic_values(theta, 1.0, 1.7, 0.9, 1.0)
        assert v == 1.7 and g == 1.7

    def test_zero_theta_everywhere(self):
        theta = rl.CriticParams.zeros(2)
        for t in (0.0, 0.3, 0.99):
            v, g = critic_values(theta, t, -0.4, 0.5, 1.0)
            assert v == -0.4 and g == -0.4

    def test_ls_fit_residual_decreases_in_d(self, coeffs_short):
        """Richer bases approximate the closed-form V better."""
        taus = np.linspace(0.0, 1.0, 200)
        t = 1.0 - taus
        resid = []
        for d in (1, 2, 4):
            theta = ls_fit_critic(coeffs_short[0], 1.0, d=d, y_center=0.273)
            v_hat, _ = critic_values(theta, t, 0.0, 0.41 * np.ones_like(t), 1.0)
            v_true, _ = eqm.value_functions(0, t, 0.0, 0.41, coeffs_short)
            resid.append(float(np.max(np.abs(v_hat - v_true))))
        assert resid[0] > resid[1] > resid[2]


class TestTdErrors:
    def test_constant_path_zero_theta(self, agents_short):
        tg = np.linspace(0.0, 1.0, 11)
        xh = np.full(11, 1.3)
        yy = np.full(11, 0.273)
        theta = rl.CriticParams.zeros(2)
        c1, c2 = rl.td_errors(theta, agents_short[0], tg, xh, yy, 0.1,
                              np.zeros(10), 1.0)
        assert np.allclose(c1, 0.0, atol=1e-14)
        assert np.allclose(c2, 0.0, atol=1e-14)

    def test_three_term_form_matches_collapsed(self, agents_short):
        """C1 is computed as dV/dt - (gamma/2)(dg)^2/dt; verify against the
        printed three-term combination dV/dt + gamma g dg/dt - (gamma/2)
        d(g^2)/dt."""
        rng = np.random.default_rng(7)
        tg = np.linspace(0.0, 1.0, 21)
        xh = 1 + 0.05 * np.cumsum(rng.normal(size=21))
        yy = 0.273 + 0.05 * np.cumsum(rng.normal(size=21))
        theta = rl.CriticParams(v=rng.normal(size=(3, 2)),
                                g=rng.normal(size=(3, 2)), y_center=0.273)
        reg = rng.random(20)
        dt = tg[1] - tg[0]
        gam = agents_short[0].gamma
        c1, _ = rl.td_errors(theta, agents_short[0], tg, xh, yy, dt, reg, 1.0)
        v, g = critic_values(theta, tg, xh, yy, 1.0)
        three_term = (np.diff(v) / dt + gam * g[:-1] * np.diff(g) / dt
                      - 0.5 * gam * np.diff(g * g) / dt + reg)
        assert np.max(np.abs(c1 - three_term)) < 1e-10

    def test_martingale_property_at_closed_form(self, agents_short, bench_market,
                                                coeffs_short, policies_short):
        """With the critic fit to the closed-form (V, g) and the equilibrium
        actors, TD errors have zero mean (clustered by episode)."""
        theta = ls_fit_critic(coeffs_short[0], 1.0, d=2, y_center=0.273)
        cfg = market.SimConfig(horizon=1.0, n_steps=250, seed=50)
        reg_fn = policies_short[0]
        n_ep = 60
        means1, means2 = [], []
        for m in range(n_ep):
            rng = episode_generator(50, m)
            traj = market.simulate_game(bench_market, agents_short,
                                        policies_short, cfg, rng)
            tg, y, x1, x2 = traj.times, traj.y, traj.x1, traj.x2
            xh = x1 - agents_short[0].k * x2
            ts = tg[:-1]
            reg = (np.asarray(agents_short[0].lam(ts)) * np.ones(250)
                   * np.asarray(reg_fn.std(ts))
                   * agents_short[0].distortion.l2_norm)
            c1, c2 = rl.td_errors(theta, agents_short[0], tg, xh, y,
                                  cfg.dt, reg, 1.0)
            means1.append(c1.mean())
            means2.append(c2.mean())
        for vals in (means1, means2):
            vals = np.asarray(vals)
            se = vals.std(ddof=1) / np.sqrt(n_ep)
            assert abs(vals.mean()) < 3 * se


class TestCriticGradient:
    def _random_path(self, seed, n=50):
        rng = np.random.default_rng(seed)
        tg = np.linspace(0.0, 1.0, n + 1)
        dt = tg[1] - tg[0]
        xh = 1 + 0.1 * np.cumsum(rng.normal(size=n + 1) * np.sqrt(dt))
        yy = 0.273 + 0.2 * np.cumsum(rng.normal(size=n + 1) * np.sqrt(dt))
        reg = 0.01 * np.ones(n)
        return tg, xh, yy, dt, reg

    def test_analytic_gradient_matches_fd(self, agents_short):
        tg, xh, yy, dt, reg = self._random_path(11)
        rng = np.random.default_rng(12)
        theta = rl.CriticParams(v=rng.normal(size=(3, 2)),
                                g=rng.normal(size=(3, 2)), y_center=0.273)
        _, gv, gg = rl.critic_loss_and_grad(theta, agents_short[0], tg, xh, yy,
                                            dt, reg, 1.0)

        def loss_at(vflat, gflat):
            th = rl.CriticParams(v=vflat.reshape(3, 2), g=gflat.reshape(3, 2),
                                 y_center=0.273)
            val, _, _ = rl.critic_loss_and_grad(th, agents_short[0], tg, xh, yy,
                                                dt, reg, 1.0)
            return val

        h = 1e-5
        v0 = theta.v.reshape(-1).copy()
        g0 = theta.g.reshape(-1).copy()
        for idx in range(6):
            e = np.zeros(6)
            e[idx] = h
            fd_v = (loss_at(v0 + e, g0) - loss_at(v0 - e, g0)) / (2 * h)
            fd_g = (loss_at(v0, g0 + e) - loss_at(v0, g0 - e)) / (2 * h)
            assert abs(gv[idx] - fd_v) <= 1e-5 * max(1.0, abs(fd_v))
            assert abs(gg[idx] - fd_g) <= 1e-5 * max(1.0, abs(fd_g))

    def test_td_step_fixed_point_is_martingale_condition(self, agents_short,
                                                         bench_market,
                                                         coeffs_short,
                                                         policies_short):
        """At the closed-form critic the TD(0) step direction
        sum_k C2_k f(s_k) is mean-zero: the orthogonality condition E[C2 f] = 0."""
        theta = ls_fit_critic(coeffs_short[0], 1.0, d=2, y_center=0.273)
        cfg = market.SimConfig(horizon=1.0, n_steps=250, seed=60)
        updates = []
        for m in range(40):
            rng = episode_generator(60, m)
            traj = market.simulate_game(bench_market, agents_short,
                                        policies_short, cfg, rng)
            tg, y, x1, x2 = traj.times, traj.y, traj.x1, traj.x2
            xh = x1 - agents_short[0].k * x2
            ts = tg[:-1]
            reg = (np.asarray(agents_short[0].lam(ts)) * np.ones(250)
                   * np.asarray(policies_short[0].std(ts))
                   * agents_short[0].distortion.l2_norm)
            _, c2 = rl.td_errors(theta, agents_short[0], tg, xh, y, cfg.dt, reg, 1.0)
            f = rl.critic_features(tg[:-1], y[:-1], 1.0, theta.d, theta.y_center)
            updates.append(f.T @ c2)
        upd = np.asarray(updates)
        z = upd.mean(axis=0) / (upd.std(axis=0, ddof=1) / np.sqrt(len(upd)))
        assert np.max(np.abs(z)) < 4.0


class TestSmoothedFunctional:
    def test_zero_perturbation_gives_zero(self):
        grad = rl.sf_gradient(lambda p: float(np.sum(p ** 2)),
                              np.array([1.0, 2.0, 3.0, 4.0]),
                              np.zeros(4), kappa=1e-3)
        assert np.array_equal(grad, np.zeros(4))

    def test_recovers_quadratic_gradient(self):
        c = np.array([0.5, -1.0, 2.0, 0.0])
        phi = c + np.array([0.6, -0.4, 0.5, -0.3])
        target = 2.0 * (phi - c)

        def loss(p):
            return float(np.sum((p - c) ** 2))

        rng = np.random.default_rng(2024)
        acc = np.zeros(4)
        n = 100_000
        for _ in range(n):
            acc += rl.sf_gradient(loss, phi, rng.standard_normal(4), kappa=1e-3)
        est = acc / n
        assert np.linalg.norm(est - target) < 0.01 * np.linalg.norm(target)

    def test_baseline_reduces_variance(self):
        c = np.zeros(4)
        phi = np.array([0.6, -0.4, 0.5, -0.3])

        def loss(p):
            return float(np.sum((p - c) ** 2))

        rng = np.random.default_rng(7)
        kappa = 1e-3
        with_baseline, without = [], []
        for _ in range(20_000):
            z = rng.standard_normal(4)
            with_baseline.append(rl.sf_gradient(loss, phi, z, kappa)[0])
            without.append(z[0] / kappa * loss(phi + kappa * z))
        assert np.var(without) > 10.0 * np.var(with_baseline)

    def test_kappa_must_be_positive(self):
        for kappa in (0.0, np.nan):
            with pytest.raises(ValueError, match="kappa must be positive"):
                rl.sf_gradient(lambda p: 0.0, np.zeros(4), np.ones(4), kappa=kappa)
        for kappa in (-1.0, np.nan):
            with pytest.raises(ValueError, match="kappa must be positive"):
                rl.actor_gradient(np.zeros(3), np.zeros(3), np.ones(4), kappa=kappa)

    def test_actor_gradient_shapes(self):
        c1n = np.array([1.0, 2.0, 3.0])
        c1p = np.array([1.5, 2.5, 2.0])
        z_steps = np.array([[1.0, -1.0, 0.5, 2.0],
                            [0.0, 1.0, 2.0, -1.0],
                            [3.0, 0.0, -1.0, 1.0]])
        g = rl.actor_gradient(c1n, c1p, z_steps, kappa=0.5)
        # (0.5 z_0 + 0.5 z_1 - 1.0 z_2) / 0.5
        assert g.shape == (4,)
        assert np.allclose(g, [-5.0, 0.0, 4.5, -1.0])


class TestAdam:
    def test_first_step_is_sign_scaled(self):
        grad = np.array([0.3, -2.0, 0.0001, -5.0])
        state = rl.AdamState.zeros(4)
        alpha = 1e-3
        new_state, params = rl.adam_step(state, np.zeros(4), grad, alpha)
        expected = -alpha * grad / (np.abs(grad) + 1e-8)
        assert np.allclose(params, expected, atol=1e-9)
        assert new_state.step == 1

    def test_zero_gradient_never_moves(self):
        state = rl.AdamState.zeros(4)
        params = np.array([1.0, 2.0, 3.0, 4.0])
        for _ in range(10):
            state, params = rl.adam_step(state, params, np.zeros(4), 0.01)
        assert np.array_equal(params, np.array([1.0, 2.0, 3.0, 4.0]))

    def test_deterministic_sequence(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(20, 4))

        def run():
            state = rl.AdamState.zeros(4)
            params = np.zeros(4)
            for g in grads:
                state, params = rl.adam_step(state, params, g, 1e-2)
            return params

        assert np.array_equal(run(), run())


def _one_replication(phis):
    """A pair of length-4 actors as the (1, 4) arrays of one replication."""
    return tuple(np.asarray(p, dtype=float)[None, :] for p in phis)


class TestTrain:
    def _cfg(self, episodes=40, **kw):
        defaults = dict(episodes=episodes, n_steps=50, horizon=1.0,
                        learning_rate=1e-3, kappa=0.01, seed=123,
                        critic_warmup=10)
        defaults.update(kw)
        return rl.TrainConfig(**defaults)

    def _phis(self, agents, mkt):
        return _one_replication(rl.equilibrium_actor_params(a, mkt) for a in agents)

    @pytest.mark.parametrize("name", ["x1_0", "x2_0", "y_0"])
    def test_initial_state_must_be_finite(self, name):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}"):
                self._cfg(**{name: value})

    @pytest.mark.parametrize("name", ["horizon", "learning_rate", "kappa"])
    def test_positive_field_must_be_finite(self, name):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be positive, got {value!r}"):
                self._cfg(**{name: value})

    def test_is_a_sim_config(self):
        """The training run's grid and start state are SimConfig's fields,
        declared and checked there once."""
        assert issubclass(rl.TrainConfig, market.SimConfig)
        own = set(vars(rl.TrainConfig)["__annotations__"]) | set(vars(rl.TrainConfig))
        assert not own & ({f.name for f in fields(market.SimConfig)} | {"dt", "times"})

    # The cap is the fraction as written times the episodes, rounded up:
    # the float products 0.07 * 100 and 0.14 * 100 round up one too many.
    @pytest.mark.parametrize("fraction, episodes, cap", [
        (0.07, 100, 7), (0.14, 100, 14), (0.01, 50, 1), (0.01, 2000, 20),
        (0.0, 10, 0), (1.0, 7, 7)])
    def test_max_skips_rounds_the_fraction_as_written(self, fraction, episodes, cap):
        assert self._cfg(episodes=episodes, max_skip_fraction=fraction).max_skips == cap

    def test_deterministic(self, agents_short, bench_market):
        phis = self._phis(agents_short, bench_market)
        r1 = rl.train(agents_short, bench_market, self._cfg(), initial_actors=phis,
                      seeds=[123])
        r2 = rl.train(agents_short, bench_market, self._cfg(), initial_actors=phis,
                      seeds=[123])
        assert np.array_equal(r1.phi_history[0][0], r2.phi_history[0][0])
        assert np.array_equal(r1.phi_history[1][0], r2.phi_history[1][0])
        assert np.array_equal(r1.theta[0][0].g, r2.theta[0][0].g)

    def test_distinct_seeds_distinct_histories(self, agents_short, bench_market):
        phis = self._phis(agents_short, bench_market)
        r1 = rl.train(agents_short, bench_market, self._cfg(), initial_actors=phis,
                      seeds=[1])
        r2 = rl.train(agents_short, bench_market, self._cfg(), initial_actors=phis,
                      seeds=[2])
        assert not np.array_equal(r1.phi_history[0][0], r2.phi_history[0][0])
        assert np.all(np.isfinite(r1.phi_history[0][0]))
        assert np.all(np.isfinite(r2.phi_history[0][0]))

    def test_warmup_freezes_actors(self, agents_short, bench_market):
        phis = self._phis(agents_short, bench_market)
        res = rl.train(agents_short, bench_market,
                       self._cfg(episodes=10, critic_warmup=10),
                       initial_actors=phis, seeds=[123])
        # replication 0's first and last episode
        assert np.array_equal(res.phi_history[0][0, 0], res.phi_history[0][0, -1])
        # critics moved during warmup
        assert np.any(res.theta[0][0].g != 0.0)

    def test_freeze_opponent_trains_agent1_only(self, agents_short, bench_market,
                                                coeffs_short, policies_short):
        phis = self._phis(agents_short, bench_market)
        res = rl.train(agents_short, bench_market, self._cfg(),
                       initial_actors=phis, seeds=[123],
                       frozen_opponent=policies_short[1])
        assert np.array_equal(res.phi_history[1][0, 0], res.phi_history[1][0, -1])
        assert not np.array_equal(res.phi_history[0][0, 0], res.phi_history[0][0, -1])

    def test_one_feature_evaluation_per_episode(
            self, agents_short, bench_market, monkeypatch):
        calls = []
        features = rl.critic_features

        def counting(*args, **kwargs):
            calls.append(1)
            return features(*args, **kwargs)

        monkeypatch.setattr(rl, "critic_features", counting)
        phis = self._phis(agents_short, bench_market)
        res = rl.train(agents_short, bench_market,
                       self._cfg(episodes=20, critic_warmup=10), initial_actors=phis,
                       seeds=[123])
        assert res.skipped_episodes == 0
        assert len(calls) == 20

    @pytest.mark.parametrize("frozen", [False, True], ids=["joint", "freeze"])
    def test_results_carry_the_agent_axis(self, agents_short, bench_market,
                                          policies_short, frozen):
        cfg = self._cfg(episodes=12, critic_warmup=4)
        n_rep, m = 2, cfg.episodes
        initial = np.stack([np.tile(rl.equilibrium_actor_params(a, bench_market), (n_rep, 1))
                            for a in agents_short])
        res = rl.train(agents_short, bench_market, cfg, initial, seeds=[1, 2],
                       frozen_opponent=policies_short[1] if frozen else None)
        assert res.phi_history.shape == (2, n_rep, m + 1, 4)
        assert res.theta.v.shape == res.theta.g.shape == (2, n_rep, 3, 2)
        assert res.critic_losses.shape == (2, n_rep, m)
        assert res.adam_states.m.shape == res.adam_states.v.shape == (2, n_rep, 4)
        assert res.adam_states.step.shape == (2, n_rep)
        opponent_kept = np.array_equal(
            res.phi_history[1], np.broadcast_to(initial[1][:, None], (n_rep, m + 1, 4)))
        assert opponent_kept == frozen

    def test_divergence_abort(self, agents_short, bench_market):
        # replication 1 diverges; the error names its seed
        good = rl.equilibrium_actor_params(agents_short[0], bench_market)
        bad = (np.array([good, [1e13, 0.0, 0.1, 0.0]]),
               np.array([[1.0, 0.0, 0.1, 0.0]] * 2))
        with pytest.raises(rl.TrainingDivergedError) as info:
            rl.train(agents_short, bench_market,
                     self._cfg(episodes=5, max_skip_fraction=0.0),
                     initial_actors=bad, seeds=[5, 6])
        assert str(info.value) == (
            "replication with seed 6: 1 skipped episodes out of 1 exceeds the cap of 0 "
            "(max_skip_fraction = 0.0 of 5 episodes, rounded up)")


def _reference_train(agents, mkt, cfg, initial_actors, frozen_opponent=None):
    """The one-replication training loop as it was before replications were
    batched, with its np.linalg.lstsq critic solves.  Returns (phi history,
    critic params, losses, Adam states, skip count) of replication cfg.seed."""
    n, horizon, dt = cfg.n_steps, cfg.horizon, cfg.dt
    t_grid = np.linspace(0.0, horizon, n + 1)
    t_steps = t_grid[:-1]
    trained = (0,) if frozen_opponent is not None else (0, 1)
    d = 2  # the critic basis tau, tau^2
    k = 3 * d

    phi = [np.array(p, dtype=float) for p in initial_actors]
    theta = [rl.CriticParams.zeros(d, y_center=cfg.y_0) for _ in range(2)]
    adam = [rl.AdamState.zeros(4) for _ in range(2)]
    phi_hist = [np.empty((cfg.episodes + 1, 4)) for _ in range(2)]
    losses = [np.full(cfg.episodes, np.nan) for _ in range(2)]
    for i in range(2):
        phi_hist[i][0] = phi[i]

    sim = market.SimConfig(horizon=horizon, n_steps=n, seed=cfg.seed,
                           x1_0=cfg.x1_0, x2_0=cfg.x2_0, y_0=cfg.y_0)
    lam = [np.asarray(agents[i].lam(t_steps), dtype=float) * np.ones(n) for i in range(2)]
    l2sq = [agents[i].distortion.l2_norm ** 2 for i in range(2)]
    ks = (agents[0].k, agents[1].k)
    x0 = (cfg.x1_0, cfg.x2_0)
    skipped = 0
    stats = [dict(a=np.zeros((k, k)), bx=np.zeros(k), q0=np.zeros(k),
                  q1=np.zeros((k, k)), t3=np.zeros((k, k, k)), b_reg=np.zeros(k))
             for _ in range(2)]

    for m in range(cfg.episodes):
        rng = episode_generator(cfg.seed, m)
        y_path, s_disc = market._state_and_price_batch(mkt, sim, 1, rng)
        y_path, s_disc = y_path[0], s_disc[0]
        p_draws = [market._draw_uniforms(rng, n) for _ in range(2)]
        z_draws = [rng.standard_normal((n, 4)) for _ in range(2)]
        rel = np.diff(s_disc) / s_disc[:-1]
        y_steps = y_path[:-1]

        if frozen_opponent is None:
            mu1, mu2 = rl.resolve_actor_means(phi, agents, t_steps, y_steps, horizon)
            mu_opp = (mu2, mu1)
            u = [rl.actor_quantile(phi[i], agents[i], t_steps, y_steps, mu_opp[i],
                                   p_draws[i], horizon) for i in range(2)]
        else:
            mu2 = np.asarray(frozen_opponent.mean(t_steps, y_steps), dtype=float) \
                * np.ones_like(y_steps)
            mu_opp = (mu2, None)
            u = [rl.actor_quantile(phi[0], agents[0], t_steps, y_steps, mu2,
                                   p_draws[0], horizon),
                 np.asarray(frozen_opponent.quantile(t_steps, y_steps, p_draws[1]),
                            dtype=float)]
        x = [x0[i] + np.concatenate([[0.0], np.cumsum(u[i] * rel)]) for i in range(2)]
        if any(not np.all(np.isfinite(xi)) or np.max(np.abs(xi)) > market.WEALTH_GUARD
               for xi in x):
            skipped += 1
            for i in range(2):
                phi_hist[i][m + 1] = phi[i]
            continue

        new_phi = [phi[i].copy() for i in range(2)]
        new_theta = [theta[i] for i in range(2)]
        for i in trained:
            j = 1 - i
            gamma = agents[i].gamma
            xhat = x[i] - ks[i] * x[j]
            f = rl.critic_features(t_grid, y_path, horizon, d, cfg.y_0)
            f_start, df, dx = f[:-1], np.diff(f, axis=0), np.diff(xhat)
            reg = lam[i] * rl.actor_scale_coeff(phi[i], agents[i], t_steps) * l2sq[i]

            st = stats[i]
            st["a"] += f_start.T @ df
            st["bx"] += f_start.T @ dx
            st["q0"] += f_start.T @ (dx * dx)
            st["q1"] += f_start.T @ (dx[:, None] * df)
            st["t3"] += np.einsum("ni,nj,nk->ijk", f_start, df, df)
            st["b_reg"] += f_start.T @ reg
            c1, c2, _ = rl._td_residuals(theta[i], gamma, df, dx, dt, reg)
            losses[i][m] = float(np.sum(c1 * c1) + np.sum(c2 * c2))
            theta_g, *_ = np.linalg.lstsq(st["a"], -st["bx"], rcond=None)
            dg_sq = (st["q0"] + 2.0 * st["q1"] @ theta_g
                     + np.einsum("ijk,j,k->i", st["t3"], theta_g, theta_g))
            rhs = st["bx"] / dt - 0.5 * gamma * dg_sq / dt + st["b_reg"]
            theta_v, *_ = np.linalg.lstsq(st["a"] / dt, -rhs, rcond=None)
            new_theta[i] = rl.CriticParams(v=theta_v.reshape(3, -1),
                                           g=theta_g.reshape(3, -1), y_center=cfg.y_0)
            if m < cfg.critic_warmup:
                continue

            phi_bar = phi[i][None, :] + cfg.kappa * z_draws[i]
            u_bar = rl.actor_quantile(phi_bar, agents[i], t_steps, y_steps, mu_opp[i],
                                      p_draws[i], horizon)
            dx_bar = dx + (u_bar - u[i]) * rel
            reg_bar = lam[i] * rl.actor_scale_coeff(phi_bar, agents[i], t_steps) * l2sq[i]
            c1_nom, _, _ = rl._td_residuals(new_theta[i], gamma, df, dx, dt, reg)
            c1_bar, _, _ = rl._td_residuals(new_theta[i], gamma, df, dx_bar, dt, reg_bar)
            grad_phi = rl.actor_gradient(c1_nom, c1_bar, z_draws[i], cfg.kappa)
            adam[i], new_phi[i] = rl.adam_step(adam[i], phi[i], -grad_phi,
                                               cfg.learning_rate)
        phi = new_phi
        theta = new_theta
        for i in range(2):
            phi_hist[i][m + 1] = phi[i]
    return phi_hist, theta, losses, adam, skipped


def _replication(res: rl.TrainResult, r: int):
    """Replication r of a batched result, in _reference_train's layout."""
    return ([res.phi_history[i][r] for i in (0, 1)],
            [res.theta[i][r] for i in (0, 1)],
            [res.critic_losses[i][r] for i in (0, 1)],
            [res.adam_states[i][r] for i in (0, 1)])


def _assert_close_to_scale(got, want, rtol):
    """Every element of ``got`` within ``rtol`` times the largest magnitude of
    ``want``, NaN exactly where ``want`` is NaN.  Round-off in one element
    scales with the array it is computed from, not with the element: an Adam
    moment near 0.02 beside moments near 1 carries their absolute error."""
    want = np.asarray(want)
    scale = np.max(np.abs(want), initial=0.0, where=~np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * scale)


def _assert_matches_reference(res, r, ref, rtol):
    """Row r of a batched result against a _reference_train result, each
    array within ``rtol`` of its own scale; NaN where it is NaN."""
    phi_hist, theta, losses, adam = _replication(res, r)
    for i in (0, 1):
        _assert_close_to_scale(phi_hist[i], ref[0][i], rtol)
        _assert_close_to_scale(theta[i].v, ref[1][i].v, rtol)
        _assert_close_to_scale(theta[i].g, ref[1][i].g, rtol)
        _assert_close_to_scale(losses[i], ref[2][i], rtol)
        _assert_close_to_scale(adam[i].m, ref[3][i].m, rtol)
        _assert_close_to_scale(adam[i].v, ref[3][i].v, rtol)
        assert adam[i].step == ref[3][i].step


class TestCloseToScale:
    """The reference comparison's bound: tolerant of round-off relative to an
    array's scale, strict on a real change in one element."""

    WANT = np.array([[1.0, -0.8, 0.02, np.nan], [0.5, 1e-9, -0.3, 0.9]])

    def test_accepts_round_off_of_the_scale(self):
        got = self.WANT + 0.5e-12 * np.array([[1, -1, 1, 0], [-1, 1, -1, 1]])
        _assert_close_to_scale(got, self.WANT, rtol=1e-12)

    @pytest.mark.parametrize("index", [(0, 0), (0, 2), (1, 1)])
    def test_rejects_one_element_moved_by_1e10_of_the_scale(self, index):
        got = self.WANT.copy()
        got[index] += 1e-10 * np.nanmax(np.abs(self.WANT))
        with pytest.raises(AssertionError):
            _assert_close_to_scale(got, self.WANT, rtol=1e-12)

    def test_nan_must_match_nan(self):
        got = self.WANT.copy()
        got[0, 3] = 0.0
        with pytest.raises(AssertionError):
            _assert_close_to_scale(got, self.WANT, rtol=1e-12)
        got = self.WANT.copy()
        got[1, 0] = np.nan
        with pytest.raises(AssertionError):
            _assert_close_to_scale(got, self.WANT, rtol=1e-12)


class TestBatchedTrain:
    """Replications batched in one rl.train call against the one-replication
    loop, each other, and their solo runs."""

    SEEDS = (101, 202, 303)

    def _cfg(self, **kw):
        defaults = dict(episodes=40, n_steps=30, horizon=1.0, learning_rate=1e-3,
                        kappa=0.01, seed=0, critic_warmup=10)
        defaults.update(kw)
        return rl.TrainConfig(**defaults)

    def _initial(self, agents, mkt, n_rep):
        """Actors within 10% of the closed form, one row per replication."""
        rng = np.random.default_rng(5)
        return tuple(rl.equilibrium_actor_params(a, mkt)
                     * (1.0 + rng.uniform(-0.1, 0.1, size=(n_rep, 4))) for a in agents)

    @pytest.mark.parametrize("frozen", [False, True], ids=["joint", "freeze"])
    def test_matches_one_replication_loop(self, agents_short, bench_market,
                                          policies_short, frozen):
        cfg = self._cfg()
        initial = self._initial(agents_short, bench_market, len(self.SEEDS))
        opponent = policies_short[1] if frozen else None
        res = rl.train(agents_short, bench_market, cfg, initial, self.SEEDS,
                       frozen_opponent=opponent)
        skips = 0
        for r, seed in enumerate(self.SEEDS):
            ref = _reference_train(agents_short, bench_market, replace(cfg, seed=seed),
                                   (initial[0][r], initial[1][r]), opponent)
            _assert_matches_reference(res, r, ref, rtol=1e-12)
            skips += ref[4]
        assert res.skipped_episodes == skips
        assert res.episodes_run == len(self.SEEDS) * cfg.episodes

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_rank_deficient_critic_keeps_lstsq_minimum_norm(
            self, agents_short, bench_market, n_steps):
        # with 1 or 3 steps per episode A has rank below k = 6 for a while
        cfg = self._cfg(episodes=20, n_steps=n_steps, critic_warmup=5)
        seeds = self.SEEDS[:2]
        initial = self._initial(agents_short, bench_market, len(seeds))
        res = rl.train(agents_short, bench_market, cfg, initial, seeds)
        for r, seed in enumerate(seeds):
            phi_hist, theta, _, _ = _replication(res, r)
            for i in (0, 1):
                assert np.all(np.isfinite(phi_hist[i]))
                assert np.all(np.isfinite(theta[i].v)) and np.all(np.isfinite(theta[i].g))
            ref = _reference_train(agents_short, bench_market, replace(cfg, seed=seed),
                                   (initial[0][r], initial[1][r]))
            _assert_matches_reference(res, r, ref, rtol=1e-10)

    def test_replication_does_not_depend_on_its_batch(self, agents_short,
                                                      bench_market):
        cfg = self._cfg()
        initial = self._initial(agents_short, bench_market, len(self.SEEDS))
        batch = rl.train(agents_short, bench_market, cfg, initial, self.SEEDS)
        for r, seed in enumerate(self.SEEDS):
            solo = rl.train(agents_short, bench_market, cfg,
                            (initial[0][r:r + 1], initial[1][r:r + 1]), [seed])
            self._assert_rows_equal(batch, [r], solo, [0])

    def test_forced_skips_stay_in_their_replication(self, agents_short, bench_market):
        cfg = self._cfg(max_skip_fraction=1.0)
        initial = self._initial(agents_short, bench_market, len(self.SEEDS))
        initial[0][1, 0] = 1e13  # replication 1 exceeds the wealth guard every episode
        res = rl.train(agents_short, bench_market, cfg, initial, self.SEEDS)
        alone = rl.train(agents_short, bench_market, cfg,
                         (initial[0][1:2], initial[1][1:2]), self.SEEDS[1:2])
        for run, r in ((res, 1), (alone, 0)):
            for i in (0, 1):
                assert np.array_equal(run.phi_history[i][r],
                                      np.tile(initial[i][1], (cfg.episodes + 1, 1)))
                assert np.all(np.isnan(run.critic_losses[i][r]))
                assert run.adam_states[i].step[r] == 0
        assert res.skipped_episodes == alone.skipped_episodes == cfg.episodes
        keep = [0, 2]
        others = rl.train(agents_short, bench_market, cfg,
                          (initial[0][keep], initial[1][keep]),
                          [self.SEEDS[r] for r in keep])
        self._assert_rows_equal(res, keep, others, [0, 1])

    @pytest.mark.parametrize("episodes", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("frozen", [False, True], ids=["joint", "freeze"])
    def test_drawing_ahead_matches_drawing_each_episode(
            self, agents_short, bench_market, policies_short, monkeypatch, frozen,
            episodes):
        """rl.train draws the market paths of rl._DRAW_AHEAD = 8 episodes in
        one simulator call.  On both sides of each block boundary (31-33
        straddle the one at 32 = 4 x 8, and 65 = 8 x 8 + 1) its results
        equal, bit for bit, those of drawing every episode alone, and match
        the one-replication loop as closely as test_matches_one_replication_loop
        requires."""
        assert rl._DRAW_AHEAD == 8
        cfg = self._cfg(episodes=episodes)
        initial = self._initial(agents_short, bench_market, len(self.SEEDS))
        opponent = policies_short[1] if frozen else None
        res = rl.train(agents_short, bench_market, cfg, initial, self.SEEDS,
                       frozen_opponent=opponent)
        monkeypatch.setattr(rl, "_DRAW_AHEAD", 1)
        alone = rl.train(agents_short, bench_market, cfg, initial, self.SEEDS,
                         frozen_opponent=opponent)
        rows = list(range(len(self.SEEDS)))
        self._assert_rows_equal(res, rows, alone, rows)
        for r, seed in enumerate(self.SEEDS):
            ref = _reference_train(agents_short, bench_market, replace(cfg, seed=seed),
                                   (initial[0][r], initial[1][r]), opponent)
            _assert_matches_reference(res, r, ref, rtol=1e-12)

    def test_peak_memory_of_a_table2_run(self):
        """rl.train on table2's market, 10 replications x 40 episodes (the
        first 20 critic-only), keeps its traced peak under 2.75 MiB: 2.3 MiB
        with 8-episode draw-ahead blocks, 3.4 MiB with blocks of 32, which
        held the simulator's temporaries for 320 paths at once."""
        cfg = preset("table2")
        train_cfg = replace(cfg.train, episodes=40, critic_warmup=20)
        agents = cfg.build_agents(train_cfg.horizon)
        initial = self._initial(agents, cfg.market, 10)
        seeds = [cfg.train.seed + 1000 * (rep + 1) for rep in range(10)]
        # a first call makes the imports and caches that train makes once
        rl.train(agents, cfg.market, replace(train_cfg, episodes=2), initial, seeds)
        tracemalloc.start()
        try:
            rl.train(agents, cfg.market, train_cfg, initial, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 2 ** 20

    def test_diverging_state_raises(self, agents_short):
        """A state recursion that overflows stops training with
        SimulationDivergedError."""
        exploding = market.MarketParams(sigma=0.15, iota=3e12, y_bar=0.273,
                                        v=0.065, rho=-0.93)
        cfg = self._cfg(episodes=33)
        initial = self._initial(agents_short, exploding, 1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(market.SimulationDivergedError):
            rl.train(agents_short, exploding, cfg, initial, [7])

    @staticmethod
    def _assert_rows_equal(a, rows_a, b, rows_b):
        """Replications ``rows_a`` of result a equal ``rows_b`` of b bit for bit."""
        def arrays(res, rows):
            return ([res.phi_history[i][rows] for i in (0, 1)]
                    + [res.critic_losses[i][rows] for i in (0, 1)]
                    + [res.theta[i][rows].v for i in (0, 1)]
                    + [res.theta[i][rows].g for i in (0, 1)]
                    + [getattr(res.adam_states[i][rows], field)
                       for i in (0, 1) for field in ("m", "v", "step")])

        for x, y in zip(arrays(a, rows_a), arrays(b, rows_b), strict=True):
            assert np.array_equal(x, y, equal_nan=True)


PINNED_TRAINING = {  # flattened over (agent, replication, ...)
    "joint": {
        "phi": [
            3.539326847842981, -0.2161000796755045, 0.20706405773825293,
            -0.021753855363358138, 3.026073466718647, -0.1921747208352852,
            0.202446075252388, -0.015703541874271074, 3.0426757463580105,
            -0.2252857184269747, 0.2196944198973869, -0.011614062550643093,
            2.194353149490869, -0.15249930026658187, 0.22507011693688037,
            -0.023267472991887465, 2.170421002583347, -0.13029377042859397,
            0.21494076908443913, -0.013455581831024724, 2.248717875913625,
            -0.12120615736796968, 0.22799205542064796, -0.006669997065533984
        ],
        "theta_v": [
            -0.04309066200967143, 0.08114780920587991, 3.207649554111934,
            -3.0819777344232717, -2.216287741657027, 14.603618600645612,
            -0.03768960517660247, 0.038171147271131044, -0.5393480714283472,
            1.0879534991163677, -15.655683756445399, 21.797543108347167,
            -0.03532521199474138, 0.00824443958399068, -2.6113422402320587,
            2.5926664705276057, -17.651291507983373, 26.56811263880156,
            0.019164689646836958, 0.013288119306826688, 1.5836783439236073,
            -1.4466512317196485, -2.962508347472082, 12.112963467790136,
            -0.017733236944600907, 0.01777089074551915, -0.49084054848867004,
            0.8331087013904922, -10.77468742881043, 15.105423433072284,
            -0.04858661463136669, 0.017197563386023115, -1.8937525209327075,
            1.7963028983290328, -16.137998557096513, 18.89885512453793
        ],
        "theta_g": [
            -0.03766997857637196, 0.08533121127685417, 3.4166686478251664,
            -3.309291585242494, -1.8884871556844764, 14.237472785452496,
            -0.01860831153568389, 0.03279343993407431, -0.3023985045241051,
            0.95557758628412, -15.567530549436409, 21.75244122730147, -0.010051351824970443,
            0.005281389602914358, -2.1599878059520483, 2.2990000169282516,
            -17.701385342406784, 26.107031329018042, 0.023524931897624557,
            0.015820016244876937, 1.701799675129013, -1.5604191512560404,
            -2.7803958116705205, 11.970220210393098, -0.005731734747955325,
            0.01746246937552976, -0.2883885907239929, 0.6945374556164348,
            -10.686863748773739, 15.265397037837879, -0.026365480463342892,
            0.014321038687470712, -1.5809913779442564, 1.621523818983122,
            -16.67447658883752, 19.307603646737412
        ],
        "adam_m": [
            -0.8419492049713754, 1.0073388198900652, -0.019458757369047897,
            1.1224790063223296, 1.3241591996750666, -0.7650693432883879,
            -0.5732752763294698, -0.7946589117366984, -0.2874857838665278,
            -0.41146491932648666, 0.36647835019011765, -0.26901526112029467,
            -0.5775943608251108, 0.548574073787932, -0.8429345437341584, 1.562465393712503,
            -0.6429322473415088, 0.9433188478516399, -0.10533472591187298,
            -0.3925938791241377, -0.35709292843071105, -0.16244312230859637,
            -0.3742983666091766, 1.0285820114525444
        ],
        "adam_v": [
            0.2627168183047846, 0.277787239149157, 0.18504728825144107, 0.40857312624677383,
            0.15910300969704597, 0.3520359840852849, 0.18812358171573554, 0.346273340457875,
            0.2563501391671986, 0.11537517998602768, 0.1368457068576412, 0.3654600536824037,
            0.24911155984220995, 0.28701687857681984, 0.20665977481422126,
            0.6477649719615465, 0.2791451754130107, 0.2364442361912544, 0.12664134928810145,
            0.28639002150038567, 0.3220206742167304, 0.34825959427355163,
            0.23565773077677676, 0.3978037623975888
        ],
        "adam_step": [
            30, 30, 30, 30, 30, 30
        ],
        "loss_sum": [
            1607.3949784298613, 1326.500797370196, 2064.4496386666574, 560.7705675951663,
            643.8388181942972, 1036.7938274878397
        ],
        "skipped": 0,
    },
    "frozen": {
        "phi": [
            3.539326469296121, -0.21609990440575477, 0.2070641731440528,
            -0.02175376385577016, 3.0260735043712996, -0.19217464949761004,
            0.20244539686962357, -0.01570341299331211, 3.042675707906539,
            -0.22528577102134517, 0.21969431473021309, -0.011613755810516855,
            2.193310023211174, -0.14707313572556535, 0.22621666855582928,
            -0.010583405181480172, 2.174402073037679, -0.1341458851032595,
            0.21695505073524002, -0.009031949166184786, 2.2469316075203216,
            -0.1281929997750421, 0.22546118067446658, -0.009038705547215701
        ],
        "theta_v": [
            -0.043150906723058984, 0.08118418399874677, 3.2073257224565412,
            -3.081856037475236, -2.210303049481278, 14.59672026288847, -0.03769735544655656,
            0.038193788500342746, -0.5393838862179328, 1.0879894654249878,
            -15.652998853750907, 21.799854193728898, -0.03534554029768641,
            0.008258679142225629, -2.611814795117375, 2.5931935909247206,
            -17.654557834580665, 26.56695366089145, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        ],
        "theta_g": [
            -0.03772621608979783, 0.08536612035607495, 3.4163377776457975,
            -3.309188747102441, -1.8830054674626773, 14.23101067125021,
            -0.018608262479127363, 0.032810039508175945, -0.30243092983532344,
            0.9556365188731727, -15.564345881131274, 21.753990868597977,
            -0.01006819629673529, 0.005293202253532274, -2.160485013615875,
            2.2995888172020673, -17.705421368369194, 26.107059939965485, 0.0, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        ],
        "adam_m": [
            -0.8419535184911837, 1.0073538082720446, -0.019456853052437217,
            1.1224934077428494, 1.3241711865101906, -0.7651361769811297,
            -0.5732242502921424, -0.7946449415805309, -0.287465892077882,
            -0.4114742383652261, 0.3664778149670958, -0.2690811035372166, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        ],
        "adam_v": [
            0.26272176403193165, 0.27779152115214073, 0.18505166307867146,
            0.4085711490162113, 0.15910871006455782, 0.35202841135351876,
            0.18812728647765412, 0.3462780877245678, 0.2563610806978622,
            0.11537650999091893, 0.13684770826244588, 0.36546453100394977, 0.0, 0.0, 0.0,
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        ],
        "adam_step": [
            30, 30, 30, 0, 0, 0
        ],
        "loss_sum": [
            1607.696226213682, 1326.3773010949421, 2064.498728939998, np.nan, np.nan, np.nan
        ],
        "skipped": 0,
    },
}


class TestPinnedTraining:
    """Joint and frozen-opponent training reproduce pinned values bit for bit,
    so a change that reorders any floating-point operation of the learner
    shows here even where it stays inside TestBatchedTrain's tolerance."""

    @pytest.mark.parametrize("case", ["joint", "frozen"])
    def test_outputs_match_pinned_values(self, agents_short, bench_market,
                                         policies_short, case):
        cfg = rl.TrainConfig(episodes=40, n_steps=30, horizon=1.0, learning_rate=1e-3,
                             kappa=0.01, seed=0, critic_warmup=10)
        rng = np.random.default_rng(5)
        initial = tuple(rl.equilibrium_actor_params(a, bench_market)
                        * (1.0 + rng.uniform(-0.1, 0.1, size=(3, 4))) for a in agents_short)
        opponent = policies_short[1] if case == "frozen" else None
        res = rl.train(agents_short, bench_market, cfg, initial, (101, 202, 303),
                       frozen_opponent=opponent)
        got = {
            "phi": [res.phi_history[i][:, -1] for i in (0, 1)],
            "theta_v": [res.theta[i].v for i in (0, 1)],
            "theta_g": [res.theta[i].g for i in (0, 1)],
            "adam_m": [res.adam_states[i].m for i in (0, 1)],
            "adam_v": [res.adam_states[i].v for i in (0, 1)],
            "adam_step": [res.adam_states[i].step for i in (0, 1)],
            "loss_sum": [np.sum(res.critic_losses[i], axis=1) for i in (0, 1)],
        }
        pinned = PINNED_TRAINING[case]
        assert res.skipped_episodes == pinned["skipped"]
        for name, arrays in got.items():
            np.testing.assert_array_equal(np.concatenate([a.ravel() for a in arrays]),
                                          pinned[name], err_msg=name)


class TestStepAxisHelpers:
    """The learner's per-episode helpers run their arithmetic along the step
    axis.  Each equals, bit for bit, the form it replaced, written out here:
    the same floating-point operations in the same order."""

    @staticmethod
    def _critic_features(t, y, horizon, d, y_center=0.0):
        tau = np.asarray(horizon - np.asarray(t, dtype=float), dtype=float)
        yc = (np.asarray(y, dtype=float) - y_center)[..., None]
        powers = tau[..., None] ** np.arange(1, d + 1)
        shape = np.broadcast_shapes(powers.shape, yc.shape)
        blocks = [np.broadcast_to(powers, shape), powers * yc, powers * yc ** 2]
        return np.concatenate(blocks, axis=-1)

    @staticmethod
    def _decay_factors(phi2, tau):
        phi2 = np.asarray(phi2, dtype=float)
        tau = np.asarray(tau, dtype=float)
        safe = np.where(phi2 == 0.0, 1.0, phi2)
        f1 = np.where(phi2 == 0.0, 2.0 * tau, -np.expm1(-2.0 * safe * tau) / safe)
        e1 = np.expm1(-safe * tau)
        f2 = np.where(phi2 == 0.0, tau ** 2, e1 * e1 / (safe * safe))
        return f1, f2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_critic_features(self, d):
        rng = np.random.default_rng(d)
        n, horizon = 250, 1.0
        t = np.linspace(0.0, horizon, n + 1)
        paths = 0.273 + 0.05 * rng.standard_normal((10, n + 1))
        for args in ((t, paths), (t, paths[3]), (0.25, paths), (t, 0.3), (0.25, 0.3),
                     (t[:, None], paths[:4].T)):
            got = rl.critic_features(*args, horizon, d, 0.273)
            want = self._critic_features(*args, horizon, d, 0.273)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_actor_gradient(self):
        rng = np.random.default_rng(0)
        for n_agents in (1, 2):
            for n_rep in (1, 3, 10):
                for n in (1, 2, 7, 30, 250, 1000):
                    def draw(shape):
                        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)

                    diff_shape = (n_agents, n_rep, n)
                    c1n, c1p = draw(diff_shape), draw(diff_shape)
                    stacked = np.stack([draw((n_agents, n, 4)) for _ in range(n_rep)], axis=1)
                    rows = np.arange(0, n_rep, 2)
                    for z, sel in ((draw(diff_shape + (4,)), slice(None)),
                                   (stacked, slice(None)), (stacked[:, rows], rows)):
                        kappa = 10.0 ** rng.uniform(-3, 1)
                        want = (z * (c1p[:, sel] - c1n[:, sel])[..., None]).sum(axis=-2) / kappa
                        got = rl.actor_gradient(c1n[:, sel], c1p[:, sel], z, kappa)
                        assert np.array_equal(got, want), (n_agents, n_rep, n)
                    assert np.array_equal(rl.actor_gradient(c1n[0, 0], c1p[0, 0], z[0, 0], 0.1),
                                          (z[0, 0] * (c1p[0, 0] - c1n[0, 0])[:, None]).sum(
                                              axis=-2) / 0.1)

    @pytest.mark.parametrize("zeros", ["none", "zero", "negative-zero", "nan"])
    def test_decay_factors(self, zeros):
        rng = np.random.default_rng(3)
        tau = 1.0 - np.linspace(0.0, 1.0, 251)[:-1]
        phi2 = rng.uniform(-3.0, 3.0, (2, 10, 250))
        special = {"none": None, "zero": 0.0, "negative-zero": -0.0, "nan": np.nan}[zeros]
        if special is not None:
            phi2[1, 4, ::7] = special
        for p, t in ((phi2, tau), (phi2[:, :, :1], tau), (phi2[0, 0, 3], tau),
                     (phi2[1, 4, 7], 0.5)):
            got, want = rl._decay_factors(p, t), self._decay_factors(p, t)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w)
                assert np.array_equal(g, w, equal_nan=True)

    class _FullLstd:
        """The accumulator with every k^2 column of df (x) df stored."""

        def __init__(self, n_agents, n_replications, k):
            self.k = k
            self.market = np.zeros((n_replications, k + k * k, k))
            self.agent = np.zeros((n_agents, n_replications, k + 3, k))

        def add_episode(self, f_start, df, dx, reg, rows=slice(None)):
            k, n = self.k, df.shape[-2]
            dft = df.swapaxes(-1, -2)
            cols = np.empty(dx.shape[:-1] + (k + 3, n))
            np.multiply(dx[..., None, :], dft, out=cols[..., :k, :])
            cols[..., -3, :] = dx
            np.multiply(dx, dx, out=cols[..., -2, :])
            cols[..., -1, :] = reg
            self.agent[:, rows] += cols @ f_start
            cols = np.empty(df.shape[:-2] + (k + k * k, n))
            cols[..., :k, :] = dft
            np.multiply(dft[..., :, None, :], dft[..., None, :, :],
                        out=cols[..., k:, :].reshape(df.shape[:-2] + (k, k, n)))
            self.market[rows] += cols @ f_start

        def solve(self, gammas, dt, d, y_center):
            k = self.k
            market, agent = self.market.swapaxes(-1, -2), self.agent.swapaxes(-1, -2)
            a_mat, t3, q1 = market[..., :k], market[..., k:], agent[..., :k]
            bx, q0, b_reg = np.moveaxis(agent[..., k:], -1, 0)
            gamma = np.reshape(gammas, (-1, 1, 1))
            pinv = np.linalg.pinv(a_mat, rcond=k * np.finfo(float).eps)
            theta_g = (pinv @ -bx[..., None])[..., 0]
            gg = (theta_g[..., :, None] * theta_g[..., None, :]).reshape(
                *theta_g.shape[:-1], k * k)
            dg_sq = (q0 + 2.0 * (q1 @ theta_g[..., None])[..., 0]
                     + (t3 @ gg[..., None])[..., 0])
            rhs = bx / dt - 0.5 * gamma * dg_sq / dt + b_reg
            theta_v = dt * (pinv @ -rhs[..., None])[..., 0]
            shape = theta_g.shape[:-1] + (3, d)
            return theta_v.reshape(shape), theta_g.reshape(shape)

    @pytest.mark.parametrize("n_agents", [1, 2])
    def test_lstd_keeps_only_distinct_products(self, n_agents):
        """Storing the k(k+1)/2 distinct products of df (x) df solves as
        storing all k^2 of them, through skipped replications and a 2-step
        episode that leaves A rank deficient."""
        rng = np.random.default_rng(n_agents)
        d, n_rep, y_center = 2, 4, 0.273
        k = 3 * d
        lstd, full = rl.LstdAccumulator(n_agents, n_rep, k), self._FullLstd(n_agents, n_rep, k)
        assert lstd.market.shape == (n_rep, k + k * (k + 1) // 2, k)
        gammas = np.array([2.0, 3.0])[:n_agents]
        for n, rows in ((2, slice(None)), (250, [0, 2, 3]), (30, slice(None)), (7, [1]),
                        (250, slice(None))):
            n_kept = len(range(n_rep)[rows]) if isinstance(rows, slice) else len(rows)
            t = np.linspace(0.0, 1.0, n + 1)
            y = y_center + 0.05 * np.cumsum(rng.standard_normal((n_kept, n + 1)), axis=1)
            f = rl.critic_features(t, y, 1.0, d, y_center)
            df = np.diff(f, axis=1)
            dx = 1e-3 * rng.standard_normal((n_agents, n_kept, n))
            reg = rng.uniform(0.0, 1e-3, (n_agents, 1, 1)) * rng.uniform(size=(1, n_kept, n))
            for acc in (lstd, full):
                acc.add_episode(f[:, :-1], df, dx, reg, rows)
            theta = lstd.solve(gammas, 1.0 / n, d, y_center)
            want_v, want_g = full.solve(gammas, 1.0 / n, d, y_center)
            assert theta.y_center == y_center
            assert np.array_equal(theta.v, want_v) and np.array_equal(theta.g, want_g)
        assert np.array_equal(full.market[:, :k], lstd.market[:, :k])
        pairs = [k + a * k + b for a in range(k) for b in range(a, k)]
        assert np.array_equal(full.market[:, pairs], lstd.market[:, k:])


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        phi = (np.array([0.1, 0.2, 0.3, 0.4]), np.array([-1.0, 2.0, -3.0, 4.0]))
        theta = (rl.CriticParams(v=rng.normal(size=(3, 2)), g=rng.normal(size=(3, 2)),
                                 y_center=0.273),
                 rl.CriticParams(v=rng.normal(size=(3, 2)), g=rng.normal(size=(3, 2))))
        adam = (rl.AdamState(m=rng.normal(size=4), v=rng.random(4), step=17),
                rl.AdamState.zeros(4))
        path = tmp_path / "ck.txt"
        rl.save_checkpoint(path, 321, phi, theta, adam)
        state = rl.load_checkpoint(path)
        assert state["episode"] == 321
        assert np.array_equal(state["agents"][0]["phi"], phi[0])
        assert np.array_equal(state["agents"][0]["theta"].v, theta[0].v)
        assert state["agents"][0]["theta"].y_center == 0.273
        assert state["agents"][1]["theta"].y_center == 0.0
        assert np.array_equal(state["agents"][0]["adam"].m, adam[0].m)
        assert state["agents"][0]["adam"].step == 17

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(ValueError):
            rl.load_checkpoint(path)


class TestMetricsCsv:
    def test_columns_and_values(self, agents_short, bench_market, tmp_path):
        phis = (rl.equilibrium_actor_params(agents_short[0], bench_market),
                rl.equilibrium_actor_params(agents_short[1], bench_market))
        cfg = rl.TrainConfig(episodes=6, n_steps=30, horizon=1.0,
                             learning_rate=1e-3, kappa=0.01, seed=5)
        res = rl.train(agents_short, bench_market, cfg,
                       initial_actors=_one_replication(phis), seeds=[5])
        path = tmp_path / "metrics.csv"
        # replication 0
        rl.write_metrics_csv(path, (res.critic_losses[0][0], res.critic_losses[1][0]),
                             (res.phi_history[0][0], res.phi_history[1][0]))
        import csv as _csv
        rows = list(_csv.DictReader(open(path)))
        assert len(rows) == 6
        assert list(rows[0].keys()) == (
            ["episode", "loss_critic1", "loss_critic2"]
            + [f"phi{p}_1" for p in range(4)] + [f"phi{p}_2" for p in range(4)])
        assert float(rows[2]["phi0_1"]) == res.phi_history[0][0, 3, 0]


class TestSharedNoiseCoupling:
    def test_zero_perturbation_gives_identical_td_errors(self, agents_short):
        """The perturbed replay differs from the nominal one only through the
        actor perturbation: at z = 0 the one-step deviation path equals the
        nominal path and the actor gradient vanishes identically."""
        rng = np.random.default_rng(4)
        n = 30
        tg = np.linspace(0.0, 1.0, n + 1)
        dt = tg[1] - tg[0]
        xh = 1 + 0.1 * np.cumsum(rng.normal(size=n + 1) * np.sqrt(dt))
        yy = 0.273 + 0.1 * np.cumsum(rng.normal(size=n + 1) * np.sqrt(dt))
        reg = 0.01 * np.ones(n)
        theta = rl.CriticParams(v=rng.normal(size=(3, 2)),
                                g=rng.normal(size=(3, 2)), y_center=0.273)
        c1_nom, _ = rl.td_errors(theta, agents_short[0], tg, xh, yy, dt, reg, 1.0)
        c1_bar, _ = rl.td_errors_from_states(theta, agents_short[0], tg,
                                             xh[:-1], xh[1:], yy, dt, reg, 1.0)
        assert np.array_equal(c1_nom, c1_bar)
        grad = rl.actor_gradient(c1_nom, c1_bar, rng.standard_normal((n, 4)), 0.01)
        assert np.array_equal(grad, np.zeros(4))


class TestZeroExplorationCritic:
    def test_critics_converge_on_deterministic_actions(self, agents_short,
                                                       bench_market,
                                                       coeffs_short,
                                                       policies_short):
        """Actors frozen at the equilibrium mean with the exploration scale
        forced to zero: the TD-error means under the trained critics vanish
        (martingale property of the closed-form solution)."""
        class MeanOnly:
            def __init__(self, pol):
                self._pol = pol
                self.distortion = pol.distortion

            def mean(self, t, y):
                return self._pol.mean(t, y)

            def std(self, t):
                return 0.0 * np.asarray(t, dtype=float) if np.ndim(t) else 0.0

            def quantile(self, t, y, p):
                return self.mean(t, y) * np.ones_like(np.asarray(p, dtype=float))

        frozen = (MeanOnly(policies_short[0]), MeanOnly(policies_short[1]))
        cfg = market.SimConfig(horizon=1.0, n_steps=250, seed=71)
        acc = rl.LstdAccumulator(2, 1, 6)
        gammas = [a.gamma for a in agents_short]
        for m in range(800):
            rng = episode_generator(71, m)
            traj = market.simulate_game(bench_market, agents_short,
                                        frozen, cfg, rng)
            tg, y, x1, x2 = traj.times, traj.y, traj.x1, traj.x2
            xs = np.stack((x1 - agents_short[0].k * x2, x2 - agents_short[1].k * x1))
            f = rl.critic_features(tg, y, 1.0, 2, 0.273)[None]
            acc.add_episode(f[:, :-1], np.diff(f, axis=1), np.diff(xs)[:, None],
                            np.zeros((2, 1, 250)))
            theta = acc.solve(gammas, cfg.dt, 2, 0.273)[:, 0]
        for i in (0, 1):
            means1, means2 = [], []
            for m in range(60):
                rng = episode_generator(72, m)
                traj = market.simulate_game(bench_market, agents_short,
                                            frozen, cfg, rng)
                tg, y, x1, x2 = traj.times, traj.y, traj.x1, traj.x2
                xh = (x1 - agents_short[0].k * x2) if i == 0 \
                    else (x2 - agents_short[1].k * x1)
                c1, c2 = rl.td_errors(theta[i], agents_short[i], tg, xh, y,
                                      cfg.dt, np.zeros(250), 1.0)
                means1.append(c1.mean())
                means2.append(c2.mean())
            for vals in (means1, means2):
                vals = np.asarray(vals)
                se = vals.std(ddof=1) / np.sqrt(len(vals))
                assert abs(vals.mean()) <= 3 * se
