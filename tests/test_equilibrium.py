import csv
import pickle
import re

import numpy as np
import pytest

from mvgame import equilibrium as eqm
from mvgame import market
from mvgame import policy_iter as pit
from mvgame.market import AgentParams, MarketParams

from presets import preset


class TestACoefficients:
    def test_terminal_conditions(self, agents_long, bench_market):
        a0, a1, a2 = eqm.solve_a_coeffs(agents_long[0], bench_market, 20.0, 801)
        assert a0[-1] == 0.0 and a1[-1] == 0.0 and a2[-1] == 0.0

    def test_closed_form_matches_ode_oracle(self, agents_long, bench_market):
        closed = eqm.solve_a_coeffs(agents_long[0], bench_market, 20.0)
        ode = eqm.solve_a_coeffs_ode(agents_long[0], bench_market, 20.0)
        for c, o in zip(closed, ode):
            assert np.max(np.abs(np.asarray(c) - o)) < 1e-6

    def test_benchmark_values(self, agents_long, bench_market):
        # values frozen from the RK4 oracle at the benchmark parameters
        _, a1, a2 = eqm.solve_a_coeffs(agents_long[0], bench_market, 20.0)
        assert a2[0] == pytest.approx(2.3855, abs=5e-5)
        assert a1[0] == pytest.approx(0.8141, abs=5e-5)

    def test_zero_rate_limit_branch(self, normal_dist):
        # iota = 0, rho = 0: a2' = -2/gamma gives a2 = 2(T-t)/gamma exactly
        mkt = MarketParams(sigma=0.2, iota=0.0, y_bar=0.3, v=0.1, rho=0.0)
        agent = AgentParams(gamma=2.5, k=0.1, lam=market.Schedule(0.01),
                            distortion=normal_dist)
        t = np.linspace(0.0, 4.0, 101)
        a1, a2 = eqm.a_coeffs_closed_form(agent, mkt, 4.0, t)
        assert np.allclose(a2, 2.0 * (4.0 - t) / 2.5, atol=1e-14)
        assert np.allclose(a1, 0.0, atol=1e-14)

    def test_a2_nonnegative(self, agents_long, bench_market, coeffs_long):
        t = np.linspace(0.0, 20.0, 500)
        assert np.all(coeffs_long[0].a_at(t)[2] >= -1e-12)

    def test_bad_grid_size(self, agents_long, bench_market):
        with pytest.raises(ValueError):
            eqm.solve_a_coeffs(agents_long[0], bench_market, 20.0, 1)


class TestBCoefficients:
    def test_terminal_conditions(self, coeffs_long):
        for cs in coeffs_long:
            assert np.all(cs.b[:, -1] == 0.0)

    def test_rk4_order_richardson(self, agents_long, bench_market):
        vals = {}
        for n in (251, 501, 1001):
            b0, _, _ = eqm.solve_b_coeffs(agents_long[0], agents_long[1],
                                          bench_market, 20.0, n)
            vals[n] = b0[0]
        coarse = vals[251] - vals[501]
        fine = vals[501] - vals[1001]
        ratio = coarse / fine
        # RK4: halving the step shrinks the error ~16x
        assert 8.0 < ratio < 32.0


class TestEquilibriumMeans:
    def test_two_by_two_oracle(self, agents_long, bench_market):
        """Independent oracle: solve the linear system directly."""
        t, y = 20.0, 0.273
        k1, k2 = agents_long[0].k, agents_long[1].k
        base = [y / (agents_long[i].gamma * bench_market.sigma) for i in (0, 1)]
        mat = np.array([[1.0, -k1], [-k2, 1.0]])
        oracle = np.linalg.solve(mat, np.array(base))
        mu1, mu2 = eqm.equilibrium_means(t, y, agents_long, bench_market, 20.0)
        assert mu1 == pytest.approx(oracle[0], abs=1e-12)
        assert mu2 == pytest.approx(oracle[1], abs=1e-12)
        assert mu1 == pytest.approx(1.09749, abs=1e-5)
        assert mu2 == pytest.approx(1.87487, abs=1e-5)

    def test_residuals_tiny_on_grid(self, agents_long, bench_market):
        t = np.linspace(0.0, 20.0, 401)
        for y in (-0.5, 0.0, 0.273, 1.0):
            mus = eqm.equilibrium_means(t, y, agents_long, bench_market, 20.0)
            r1, r2 = eqm.mean_system_residuals(t, y, agents_long, bench_market,
                                               20.0, mus)
            assert np.max(np.abs(r1)) < 1e-10
            assert np.max(np.abs(r2)) < 1e-10

    def test_decoupled_when_k_zero(self, bench_market, normal_dist, gini_dist):
        lam = market.Schedule(0.01, 0.01, 20.0)
        agents = (AgentParams(gamma=2.0, k=0.0, lam=lam, distortion=normal_dist),
                  AgentParams(gamma=1.0, k=0.0, lam=lam, distortion=gini_dist))
        coeffs = eqm.solve_coefficients(agents, bench_market, 20.0, 801)
        t, y = 7.3, 0.4
        mu1, mu2 = eqm.equilibrium_means(t, y, agents, bench_market, 20.0)
        rv = bench_market.rho * bench_market.v
        for i, mu in enumerate((mu1, mu2)):
            a = coeffs[i].a_at(t)
            expected = y / (agents[i].gamma * bench_market.sigma) \
                - (rv / bench_market.sigma) * (a[2] * y + a[1])
            assert mu == pytest.approx(expected, abs=1e-12)

    def test_zero_state_terminal(self, agents_long, bench_market):
        mu1, mu2 = eqm.equilibrium_means(20.0, 0.0, agents_long, bench_market, 20.0)
        assert mu1 == pytest.approx(0.0, abs=1e-12)
        assert mu2 == pytest.approx(0.0, abs=1e-12)


class TestEquilibriumPolicy:
    def test_std_formula_at_terminal(self, agents_long, bench_market, coeffs_long):
        pol = eqm.equilibrium_policy(0, agents_long, bench_market, coeffs_long)
        # lam(T) = 0.01, ||h1'||_2 = 1, gamma sigma^2 = 2 * 0.0225
        assert pol.std(20.0) == pytest.approx(0.01 / (2 * 0.0225), abs=1e-12)
        assert pol.std(20.0) == pytest.approx(0.2222, abs=5e-5)

    def test_std_ignores_opponent(self, agents_long, bench_market, coeffs_long,
                                  normal_dist):
        pol = eqm.equilibrium_policy(0, agents_long, bench_market, coeffs_long)
        other_opponent = AgentParams(gamma=9.0, k=0.7,
                                     lam=market.Schedule(0.01, 0.01, 20.0),
                                     distortion=normal_dist)
        agents2 = (agents_long[0], other_opponent)
        coeffs2 = eqm.solve_coefficients(agents2, bench_market, 20.0, 801)
        pol2 = eqm.equilibrium_policy(0, agents2, bench_market, coeffs2)
        for t in (0.0, 5.0, 19.0):
            assert pol.std(t) == pol2.std(t)

    def test_std_decreasing_with_decaying_weight(self, agents_long, bench_market,
                                                 coeffs_long):
        pol = eqm.equilibrium_policy(0, agents_long, bench_market, coeffs_long)
        ts = np.linspace(0.0, 20.0, 50)
        stds = np.array([pol.std(t) for t in ts])
        assert np.all(np.diff(stds) < 0.0)

    def test_quantile_assembles_optimal_family(self, agents_long, bench_market,
                                               coeffs_long):
        pol = eqm.equilibrium_policy(1, agents_long, bench_market, coeffs_long)
        t, y = 3.0, 0.5
        law = pol.policy_at(t, y)
        for p in (0.05, 0.4, 0.77):
            assert pol.quantile(t, y, p) == pytest.approx(law.quantile(p), abs=1e-12)


def _t_grid(horizon):
    """Times on the 4001-point coefficient grid and between its nodes."""
    nodes = np.linspace(0.0, horizon, eqm.DEFAULT_GRID_SIZE)
    return np.concatenate((nodes[::97], nodes[:-1:89] + 0.37 * (nodes[1] - nodes[0]),
                           [0.1 * horizon, 0.9 * horizon]))


class TestAffinePolicies:
    """The affine (slope, intercept) policies equal the mean closures they
    replaced, on and off the coefficient grid's nodes."""

    Y = np.linspace(-1.0, 1.0, 9)

    def _check(self, pol, old_mean, horizon):
        t, y = np.meshgrid(_t_grid(horizon), self.Y, indexing="ij")
        np.testing.assert_allclose(pol.mean(t, y), old_mean(t, y), rtol=1e-12, atol=1e-15)
        slope, intercept = (np.broadcast_to(c, t.shape[:1])[:, None]
                            for c in pol.affine(t[:, 0]))
        np.testing.assert_allclose(slope * y + intercept, old_mean(t, y),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("preset", ["long", "short"])
    def test_equilibrium_policy(self, bench_market, agents_long, coeffs_long,
                                agents_short, coeffs_short, preset):
        agents, coeffs, horizon = ((agents_long, coeffs_long, 20.0) if preset == "long"
                                   else (agents_short, coeffs_short, 1.0))
        for i in (0, 1):
            pol = eqm.equilibrium_policy(i, agents, bench_market, coeffs)
            self._check(pol, lambda t, y: eqm.equilibrium_means(
                t, y, agents, bench_market, horizon)[i], horizon)

    def test_response_policy(self, bench_market, agents_long):
        from scipy.interpolate import CubicSpline

        from mvgame import policy_iter as pit

        agent = agents_long[0]
        times = np.linspace(0.0, 20.0, 801)
        a1, a2 = eqm.a_coeffs_closed_form(agent, bench_market, 20.0, times)
        a1, a2 = 0.8 * a1, 1.1 * a2  # an iterate short of the fixed point
        pol = pit.response_policy(agent, bench_market, 20.0, a1, a2, times)
        a1_sp, a2_sp = CubicSpline(times, a1), CubicSpline(times, a2)
        rv = bench_market.rho * bench_market.v
        sigma = bench_market.sigma

        def old_mean(t, y):
            return (y / (agent.gamma * sigma)
                    - (rv / sigma) * (a2_sp(t) * y + a1_sp(t)))

        self._check(pol, old_mean, 20.0)



class TestClosedFormMeans:
    """Policies and equilibrium means read the closed-form a1, a2.  They equal
    the spline of the solved 4001-point grid byte for byte at its nodes below
    T, and within the spline's interpolation error between them.  At T the
    spline evaluates its last cubic at the right end, about 1e-25 from the
    terminal a1 = a2 = 0 that the closed form returns exactly."""

    Y = np.linspace(-1.0, 1.0, 5)

    @staticmethod
    def _spline_affine(i, agents, market, coeffs, t):
        agent, other = agents[i], agents[1 - i]
        (_, a1_i, a2_i), (_, a1_j, a2_j) = coeffs[i].a_at(t), coeffs[1 - i].a_at(t)
        denom = 1.0 - agents[0].k * agents[1].k
        rv_s = market.rho * market.v / market.sigma
        slope0 = 1.0 / (agent.gamma * market.sigma) + agent.k / (other.gamma * market.sigma)
        return ((slope0 - rv_s * (a2_i + agent.k * a2_j)) / denom,
                -rv_s * (a1_i + agent.k * a1_j) / denom)

    @staticmethod
    def _spline_means(agents, market, coeffs, t, y):
        rv = market.rho * market.v
        base = []
        for agent, coeff in zip(agents, coeffs):
            _, a1, a2 = coeff.a_at(t)
            base.append(y / (agent.gamma * market.sigma)
                        - (rv / market.sigma) * (a2 * y + a1))
        k1, k2 = agents[0].k, agents[1].k
        denom = 1.0 - k1 * k2
        return (base[0] + k1 * base[1]) / denom, (base[1] + k2 * base[0]) / denom

    def _compare(self, agents, market, coeffs, horizon, t, check):
        for i in (0, 1):
            pol = eqm.closed_form_policy(i, agents, market, horizon)
            for got, want in zip(pol.affine(t), self._spline_affine(i, agents, market,
                                                                    coeffs, t)):
                check(got, want)
        ty, yy = np.meshgrid(t, self.Y, indexing="ij")
        for got, want in zip(eqm.equilibrium_means(ty, yy, agents, market, horizon),
                             self._spline_means(agents, market, coeffs, ty, yy)):
            check(got, want)

    @pytest.mark.parametrize("preset", ["long", "short"])
    def test_nodes_and_between(self, bench_market, agents_long, coeffs_long,
                               agents_short, coeffs_short, preset):
        agents, coeffs, horizon = ((agents_long, coeffs_long, 20.0) if preset == "long"
                                   else (agents_short, coeffs_short, 1.0))
        nodes = coeffs[0].times
        assert len(nodes) == eqm.DEFAULT_GRID_SIZE and nodes[-1] == horizon
        self._compare(agents, bench_market, coeffs, horizon, nodes[:-1],
                      np.testing.assert_array_equal)
        between = np.concatenate([nodes[:-1] + f * np.diff(nodes) for f in (0.25, 0.5)]
                                 + [nodes[-1:]])
        # relative to each curve's scale: the intercepts vanish like (T - t)^2
        self._compare(agents, bench_market, coeffs, horizon, between,
                      lambda got, want: np.testing.assert_allclose(
                          got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want))))


class TestNodeValues:
    """``a_at``/``b_at`` read the grid when every queried t is a node: the
    spline's values bit for bit below T, and the exact terminal zeros at T,
    where the spline leaves about 1e-19.  Off-node t still reads the spline."""

    @staticmethod
    def _pairs(cs):
        from scipy.interpolate import CubicSpline

        return [(cs.a_at, CubicSpline(cs.times, cs.a, axis=1)),
                (cs.b_at, CubicSpline(cs.times, cs.b, axis=1))]

    @pytest.mark.parametrize("preset", ["long", "short"])
    def test_nodes_read_the_grid(self, coeffs_long, coeffs_short, preset):
        for cs in coeffs_long if preset == "long" else coeffs_short:
            nodes = cs.times
            for at, spline in self._pairs(cs):
                np.testing.assert_array_equal(at(nodes[:-1]), spline(nodes[:-1]))
                for t in nodes[:-1:100]:
                    np.testing.assert_array_equal(at(t), spline(t))
                np.testing.assert_array_equal(at(nodes), np.column_stack(
                    [spline(nodes[:-1]), np.zeros(3)]))
                assert np.all(at(nodes[-1]) == 0.0) and at(nodes[-1]).shape == (3,)
                assert np.all(at(nodes[-1:]) == 0.0) and at(nodes[-1:]).shape == (3, 1)

    @pytest.mark.parametrize("preset", ["long", "short"])
    def test_off_node_reads_the_spline(self, coeffs_long, coeffs_short, preset):
        for cs in coeffs_long if preset == "long" else coeffs_short:
            nodes = cs.times
            between = nodes[:-1] + 0.37 * np.diff(nodes)
            mixed = np.concatenate([nodes[:5], between[:5]])
            for at, spline in self._pairs(cs):
                for t in (between, mixed, between[7], 0.5 * (nodes[0] + nodes[1])):
                    np.testing.assert_array_equal(at(t), spline(t))

    @pytest.mark.parametrize("preset", ["long", "short"])
    def test_value_functions_at_horizon_are_wealth(self, coeffs_long, coeffs_short,
                                                   preset):
        coeffs = coeffs_long if preset == "long" else coeffs_short
        horizon = coeffs[0].times[-1]
        for i in (0, 1):
            for x, y in ((0.0, 0.4), (-3.0, -0.8)):
                v, g = eqm.value_functions(i, horizon, x, y, coeffs)
                assert (v, g) == (x, x)


class TestValueFunctions:
    def test_terminal_identity(self, coeffs_long):
        v, g = eqm.value_functions(0, 20.0, 1.7, 0.4, coeffs_long)
        assert v == pytest.approx(1.7, abs=1e-12)
        assert g == pytest.approx(1.7, abs=1e-12)

    def test_wealth_linearity(self, coeffs_long):
        for c in (-2.0, 0.5, 3.0):
            v1, g1 = eqm.value_functions(0, 4.0, 1.0, 0.3, coeffs_long)
            v2, g2 = eqm.value_functions(0, 4.0, 1.0 + c, 0.3, coeffs_long)
            assert v2 - v1 == pytest.approx(c, abs=1e-12)
            assert g2 - g1 == pytest.approx(c, abs=1e-12)


class TestHJBResiduals:
    def test_residuals_at_random_points(self, agents_long, bench_market, coeffs_long):
        rng = np.random.default_rng(2)
        worst_w = worst_g = 0.0
        for _ in range(50):
            t = rng.uniform(0.0, 20.0)
            xh = rng.uniform(-2.0, 2.0)
            y = rng.uniform(-0.5, 1.0)
            for i in (0, 1):
                rw, rg = eqm.hjb_residuals(i, agents_long, bench_market,
                                           coeffs_long, t, xh, y)
                worst_w = max(worst_w, abs(rw))
                worst_g = max(worst_g, abs(rg))
        assert worst_w < 1e-5
        assert worst_g < 1e-5

    def test_wrong_coefficients_fail(self, agents_long, bench_market, coeffs_long):
        """Sanity check that the residual actually detects a wrong solution."""
        bad = eqm.CoefficientSet(times=coeffs_long[0].times,
                                 a=coeffs_long[0].a,
                                 b=coeffs_long[0].b * 1.05)
        rw, _ = eqm.hjb_residuals(0, agents_long, bench_market,
                                  (bad, coeffs_long[1]), 5.0, 1.0, 0.4)
        assert abs(rw) > 1e-3


class TestNashCondition:
    """Each agent's (mu*, sigma*) maximizes its own Hamiltonian

        H_i(mu, s) = L V - (gamma/2) L(g^2) + gamma g L g + lam(t) s ||h'||_2

    against the opponent's equilibrium law, the generator applied to the
    partials that ``hjb_residuals`` builds.  H_i is concave quadratic in mu
    and in s with curvature -gamma sigma^2, so a deviation loses exactly
    -(gamma sigma^2/2) times its square; a wrong mu* adds a term linear in it."""

    Y = np.array([-0.2, 0.273, 0.6])

    @staticmethod
    def _hamiltonian(i, agents, market, cs, t, y):
        """mu, s -> H_i at (t, y) against the opponent's equilibrium law."""
        agent, xhat = agents[i], 1.0
        a0, a1, a2 = cs.a_at(t)
        b0, b1, b2 = cs.b_at(t)
        da0, da1, da2 = cs.a_deriv(t)
        db0, db1, db2 = cs.b_deriv(t)
        g = xhat + 0.5 * a2 * y ** 2 + a1 * y + a0
        g_t, g_y = 0.5 * da2 * y ** 2 + da1 * y + da0, a2 * y + a1
        g_partials = (g_t, 1.0, 0.0, g_y, a2, 0.0)
        v_partials = (0.5 * db2 * y ** 2 + db1 * y + db0, 1.0, 0.0, b2 * y + b1, b2, 0.0)
        g_sq_partials = (2.0 * g * g_t, 2.0 * g, 2.0, 2.0 * g * g_y,
                         2.0 * (g_y ** 2 + g * a2), 2.0 * g_y)
        mu_j = eqm.equilibrium_means(t, y, agents, market, cs.times[-1])[1 - i]
        s_j = eqm.equilibrium_std(agents[1 - i], market)(t)

        def h(mu, s):
            def gen(partials):
                return eqm.generator_apply(market, t, y, mu, s, mu_j, s_j, agent.k, partials)
            return (gen(v_partials) - 0.5 * agent.gamma * gen(g_sq_partials)
                    + agent.gamma * g * gen(g_partials)
                    + agent.lam(t) * s * agent.distortion.l2_norm)
        return h

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_equilibrium_maximizes_hamiltonian(self, name, bench_market, agents_long,
                                               coeffs_long, agents_short, coeffs_short):
        agents, coeffs = ((agents_long, coeffs_long) if name == "table1"
                          else (agents_short, coeffs_short))
        market, horizon = bench_market, coeffs[0].times[-1]
        for i in (0, 1):
            curvature = -0.5 * agents[i].gamma * market.sigma ** 2
            for t in (0.015 * horizon, 0.355 * horizon, 0.75 * horizon):
                h = self._hamiltonian(i, agents, market, coeffs[i], t, self.Y)
                mu = eqm.equilibrium_means(t, self.Y, agents, market, horizon)[i]
                s = eqm.equilibrium_std(agents[i], market)(t)
                h_star = h(mu, s)
                for delta in (-0.3, 0.1, 1.0):
                    np.testing.assert_allclose(h(mu + delta, s) - h_star,
                                               curvature * delta ** 2, rtol=1e-10, atol=0)
                for f in (0.5, 1.5):
                    np.testing.assert_allclose(h(mu, f * s) - h_star,
                                               curvature * ((f - 1.0) * s) ** 2,
                                               rtol=1e-10, atol=0)


class TestBlackScholes:
    """The constant-parameter (Black-Scholes) market with drift a and
    volatility b is the iota = v = rho = 0 case of the Gaussian model, read at
    y = (a - r)/b with sigma = b."""

    @staticmethod
    def _market(b):
        return MarketParams(sigma=b, iota=0.0, y_bar=0.0, v=0.0, rho=0.0)

    def test_zero_premium_means_zero(self, agents_short):
        p1, p2 = (eqm.closed_form_policy(i, agents_short, self._market(0.2), 1.0)
                  for i in (0, 1))
        assert p1.mean(0.0, 0.0) == 0.0
        assert p2.mean(0.5, 0.0) == 0.0

    def test_matches_gaussian_reduction(self, agents_short):
        # means ((a - r)/b^2)(1/gamma_i + k_i/gamma_j)/(1 - k1 k2),
        # stds lam_i(t) ||h_i'||_2 / (gamma_i b^2)
        a, b, r = 0.08, 0.3, 0.02
        t = np.linspace(0.0, 1.0, 11)
        for i, j in ((0, 1), (1, 0)):
            pol = eqm.closed_form_policy(i, agents_short, self._market(b), 1.0)
            ai, aj = agents_short[i], agents_short[j]
            mean = (a - r) / b ** 2 * (1.0 / ai.gamma + ai.k / aj.gamma) / (1.0 - ai.k * aj.k)
            std = ai.lam(t) * ai.distortion.l2_norm / (ai.gamma * b ** 2)
            np.testing.assert_allclose(pol.mean(t, (a - r) / b), mean, rtol=1e-14, atol=0)
            np.testing.assert_allclose(pol.std(t), std, rtol=1e-14, atol=0)

    def test_symmetric_agents_identical(self, normal_dist):
        lam = market.Schedule(0.02)
        agents = (AgentParams(gamma=3.0, k=0.2, lam=lam, distortion=normal_dist),
                  AgentParams(gamma=3.0, k=0.2, lam=lam, distortion=normal_dist))
        p1, p2 = (eqm.closed_form_policy(i, agents, self._market(0.25), 1.0) for i in (0, 1))
        assert p1.mean(0.0, 0.24) == p2.mean(0.0, 0.24)
        assert p1.std(1.0) == p2.std(1.0)

    def test_nonpositive_vol_rejected(self, agents_short):
        with pytest.raises(ValueError, match=r"^equilibrium requires a strictly positive sigma$"):
            eqm.closed_form_policy(0, agents_short, self._market(0.0), 1.0)


class TestCoefficientShapes:
    """A coefficient set is refused unless ``times`` is 1-D of length n and
    ``a``, ``b`` are (3, n): a mismatch would write ragged CSV rows or fail
    later in numpy's broadcasting."""

    @pytest.mark.parametrize("times, a, b, got", [
        (np.arange(4.0), np.zeros((3, 3)), np.zeros((3, 4)), "times (4,), a (3, 3), b (3, 4)"),
        (np.arange(4.0), np.zeros((3, 4)), np.zeros((3, 5)), "times (4,), a (3, 4), b (3, 5)"),
        (np.arange(5.0), np.zeros((2, 5)), np.zeros((3, 5)), "times (5,), a (2, 5), b (3, 5)"),
        (np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((3, 4)),
         "times (2, 4), a (3, 4), b (3, 4)"),
    ], ids=["short-a", "wide-b", "two-rows-of-a", "2d-times"])
    def test_mismatched_shapes_rejected(self, times, a, b, got):
        with pytest.raises(ValueError, match="^" + re.escape(
                "coefficients need a 1-D times of length n and a, b of shape (3, n); "
                f"got {got}") + "$"):
            eqm.CoefficientSet(times=times, a=a, b=b)

    # Its spline readers and its CSV need strictly increasing times.
    @pytest.mark.parametrize("times, got", [
        ([0.0, 2.0, 1.0, 3.0, 4.0], "[0. 2. 1. 3. 4.]"),
        ([0.0, 1.0, 1.0, 3.0, 4.0], "[0. 1. 1. 3. 4.]"),
    ], ids=["decreasing", "repeated"])
    def test_unsorted_times_rejected(self, times, got):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"coefficient times must be strictly increasing, got {got}") + "$"):
            eqm.CoefficientSet(times=times, a=np.zeros((3, 5)), b=np.zeros((3, 5)))


class TestCsvExport:
    def test_coefficient_csv(self, coeffs_long, tmp_path):
        path = tmp_path / "coeffs.csv"
        coeffs_long[0].to_csv(path)
        rows = list(csv.DictReader(open(path)))
        assert list(rows[0].keys()) == ["t", "a0", "a1", "a2", "b0", "b1", "b2"]
        assert len(rows) == len(coeffs_long[0].times)
        assert float(rows[-1]["a2"]) == 0.0
        j = len(rows) // 3
        assert float(rows[j]["b1"]) == coeffs_long[0].b[1, j]


class TestPlainData:
    """Agents and every policy kind are data and module-level functions, so
    they pickle: the CLI sends them to its training workers."""

    @pytest.mark.parametrize("name", ["table1", "table2"],
                             ids=["table1_config", "table2_config"])
    def test_built_agents_round_trip(self, name):
        cfg = preset(name)
        agents = cfg.build_agents(cfg.sim.horizon)
        again = pickle.loads(pickle.dumps(agents))
        assert again == agents
        # a second build compares equal too: no closure makes agents distinct
        assert cfg.build_agents(cfg.sim.horizon) == agents
        t = np.linspace(0.0, cfg.sim.horizon, 11)
        for a, b in zip(agents, again):
            np.testing.assert_array_equal(a.lam(t), b.lam(t))

    @staticmethod
    def _policies():
        cfg = preset("table1")
        horizon = cfg.sim.horizon
        agents = cfg.build_agents(horizon)
        coeffs = eqm.solve_coefficients(agents, cfg.market, horizon, 401)
        t = np.linspace(0.0, horizon, 401)
        a1, a2 = eqm.a_coeffs_closed_form(agents[0], cfg.market, horizon, t)
        return {
            "closed_form": eqm.closed_form_policy(0, agents, cfg.market, horizon),
            "equilibrium": eqm.equilibrium_policy(1, agents, cfg.market, coeffs),
            "response": pit.response_policy(agents[0], cfg.market, horizon, a1, a2, t),
        }

    @pytest.mark.parametrize("kind", ["closed_form", "equilibrium", "response"])
    def test_policy_round_trip(self, kind):
        policy = self._policies()[kind]
        again = pickle.loads(pickle.dumps(policy))
        t = np.linspace(0.0, 19.5, 9)
        y = np.linspace(-0.2, 0.6, 9)
        p = np.linspace(0.05, 0.95, 9)
        np.testing.assert_array_equal(again.mean(t, y), policy.mean(t, y))
        np.testing.assert_array_equal(again.std(t), policy.std(t))
        np.testing.assert_array_equal(again.quantile(t, y, p), policy.quantile(t, y, p))
        assert again.distortion == policy.distortion
