import numpy as np
import pytest

from mvgame import equilibrium as eqm, market, policy_iter as pit
from mvgame._spline import cubic_spline
from mvgame.market import AgentParams, MarketParams

GRID = eqm.DEFAULT_GRID_SIZE


class TestIterateResponse:
    def test_closed_form_is_fixed_point(self, agents_long, bench_market):
        t, th = eqm._solve_grid(20.0, GRID)
        a1_star, a2_star = eqm.a_coeffs_closed_form(agents_long[0], bench_market,
                                                    20.0, t)
        a1n, a2n, _ = pit.iterate_response(
            eqm.a_coeffs_closed_form(agents_long[0], bench_market, 20.0, th),
            agents_long[0], bench_market, 20.0)
        assert np.max(np.abs(a1n - a1_star)) < 1e-8
        assert np.max(np.abs(a2n - a2_star)) < 1e-8

    def test_first_iterate_from_zero(self, agents_long, bench_market):
        # with zero previous grids, a2^1 solves a2' = 2*iota*a2 - 2/gamma
        t = np.linspace(0.0, 20.0, GRID)
        zeros = np.zeros(2 * GRID - 1)
        a1n, a2n, _ = pit.iterate_response((zeros, zeros), agents_long[0], bench_market, 20.0)
        iota, g = bench_market.iota, agents_long[0].gamma
        oracle = (1.0 - np.exp(-2.0 * iota * (20.0 - t))) / (g * iota)
        assert np.max(np.abs(a2n - oracle)) < 1e-9

    def test_carried_half_grid_a2_changes_no_bit(self, agents_long, bench_market):
        """The a2 half-grid values one call returns are the spline of its a2
        grid, so the iteration carries them to the next update, which it
        feeds with them and the spline of the a1 grid on the half grid."""
        from scipy.interpolate import CubicSpline

        agent = agents_long[0]
        t, th = eqm._solve_grid(20.0, GRID)
        zeros = np.zeros(len(th))
        first = pit.iterate_response((zeros, zeros), agent, bench_market, 20.0)
        assert np.array_equal(first[2], CubicSpline(t, first[1])(th))
        second = pit.iterate_response((CubicSpline(t, first[0])(th), first[2]), agent,
                                      bench_market, 20.0)
        hist = pit.run_response_iteration(agent, bench_market, 20.0, n_max=2, tol=0.0)
        for it, want in zip(hist.iterates[1:], (first, second), strict=True):
            assert np.array_equal(it.a1, want[0])
            assert np.array_equal(it.a2, want[1])

    def test_grid_mismatch_rejected(self, agents_long, bench_market):
        with pytest.raises(ValueError):
            pit.iterate_response((np.zeros(10), np.zeros(10)), agents_long[0],
                                 bench_market, 20.0, grid_size=GRID)
        with pytest.raises(ValueError, match=r"^previous half grids have length 5/21, "
                                             r"expected 21 = 2 \* grid_size - 1$"):
            pit.iterate_response((np.zeros(5), np.zeros(21)), agents_long[0],
                                 bench_market, 20.0, grid_size=11)

    # At a horizon of 1e150 the zero spline's cubic term overflows to nan.
    @pytest.mark.parametrize("horizon", [20.0, 1e150])
    def test_zero_grid_reads_as_its_fit(self, horizon):
        """An all-zero grid, whatever the signs of its zeros, reads on the
        half grid as the spline fit of that grid would, bit for bit; a grid
        holding a nan is still fitted, and rejected."""
        t, th = eqm._solve_grid(horizon, GRID)
        zeros = np.zeros(GRID)
        for grid in (zeros, -zeros, np.where(np.arange(GRID) % 3 == 0, -0.0, 0.0)):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = pit._on_half_grid("a2", t, th, grid), cubic_spline(t, grid)(th)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        with pytest.raises(eqm.NonFiniteCoefficientError,
                           match=r"^coefficient a1: spline values are not finite$"):
            pit._on_half_grid("a1", t, th, np.where(np.arange(GRID) == 7, np.nan, 0.0))

    # Each solver lays out its grid with equilibrium._solve_grid, which names
    # a grid too small for one RK4 step.
    @pytest.mark.parametrize("solve", [
        lambda agents, mkt: pit.iterate_response((np.zeros(1), np.zeros(1)), agents[0], mkt,
                                                 20.0, grid_size=1),
        lambda agents, mkt: pit.run_response_iteration(agents[0], mkt, 20.0, grid_size=1),
        lambda agents, mkt: eqm.solve_coefficients(agents, mkt, 20.0, grid_size=1),
    ], ids=["iterate_response", "run_response_iteration", "solve_coefficients"])
    def test_grid_size_below_two_rejected(self, agents_long, bench_market, solve):
        with pytest.raises(ValueError, match=r"^grid_size must be >= 2, got 1$"):
            solve(agents_long, bench_market)

    def test_rho_zero_converges_in_one_step(self, normal_dist):
        mkt = MarketParams(sigma=0.15, iota=0.27, y_bar=0.273,
                           v=0.065, rho=0.0)
        agent = AgentParams(gamma=2.0, k=0.1, lam=market.Schedule(0.01),
                            distortion=normal_dist)
        hist = pit.run_response_iteration(agent, mkt, 20.0, tol=1e-6)
        assert hist.converged
        assert hist.n_iterations == 1


class TestResponseHistory:
    def test_envelopes_and_convergence(self, agents_long, bench_market):
        for i in (0, 1):
            hist = pit.run_response_iteration(agents_long[i], bench_market, 20.0,
                                              n_max=25, tol=1e-6)
            assert hist.converged
            assert hist.n_iterations <= 25
            for it in hist.iterates:
                assert it.sup_err_a2 <= it.bound_a2 + 1e-9
                assert it.sup_err_a1 <= it.bound_a1 + 1e-9
                assert it.a1[-1] == 0.0 and it.a2[-1] == 0.0

    def test_loose_tolerance_stops_immediately(self, agents_long, bench_market):
        hist = pit.run_response_iteration(agents_long[0], bench_market, 20.0,
                                          tol=100.0)
        assert hist.converged
        assert hist.n_iterations == 0

    @pytest.mark.parametrize("row", [0, 1], ids=["a1", "a2"])
    def test_nan_error_never_converges(self, agents_long, bench_market, monkeypatch, row):
        """A nan target makes that coefficient's error nan: not converged,
        whichever of the two errors it is."""
        def with_nan(*args):
            targets = list(closed_form(*args))
            targets[row] = np.where(targets[row] > 0.0, np.nan, targets[row])
            return tuple(targets)

        closed_form = pit.a_coeffs_closed_form
        monkeypatch.setattr(pit, "a_coeffs_closed_form", with_nan)
        hist = pit.run_response_iteration(agents_long[0], bench_market, 20.0,
                                          n_max=1, tol=100.0)
        assert not hist.converged

    def test_nonconvergence_reported_not_fatal(self, agents_long, bench_market):
        hist = pit.run_response_iteration(agents_long[0], bench_market, 20.0,
                                          n_max=2, tol=1e-12)
        assert not hist.converged
        assert hist.n_iterations == 2


class TestMeanIteration:
    def test_fixed_point_stays(self, agents_long, bench_market):
        times = np.linspace(0.0, 20.0, 101)
        target = eqm.equilibrium_means(times, 0.273, agents_long, bench_market, 20.0)
        hist = pit.simultaneous_mean_iteration(agents_long, bench_market,
                                               20.0, target, 3,
                                               times=times, y_value=0.273)
        for it in hist.iterates:
            assert it.sup_err < 1e-12

    def test_contraction_and_bounds(self, agents_long, bench_market):
        times = np.linspace(0.0, 20.0, 101)
        hist = pit.simultaneous_mean_iteration(
            agents_long, bench_market, 20.0,
            (np.zeros(101), np.zeros(101)), 8, times=times, y_value=0.273)
        rate = hist.contraction_rate
        assert rate == 0.1
        omega = hist.iterates[0].sup_err
        for it in hist.iterates[1:]:
            assert it.ratio <= rate + 1e-9
            assert it.sup_err <= it.bound + 1e-9
            assert it.bound == pytest.approx(omega * rate ** it.n)
        # after 5 steps the error is below omega * 1e-5
        assert hist.iterates[5].sup_err <= omega * 1e-5

    def test_high_sensitivity_still_contracts(self, bench_market, normal_dist,
                                              gini_dist):
        lam = market.Schedule(0.01)
        agents = (AgentParams(gamma=2.0, k=0.99, lam=lam, distortion=normal_dist),
                  AgentParams(gamma=1.0, k=0.99, lam=lam, distortion=gini_dist))
        times = np.linspace(0.0, 5.0, 51)
        hist = pit.simultaneous_mean_iteration(
            agents, bench_market, 5.0, (np.zeros(51), np.zeros(51)), 8,
            times=times)
        assert hist.contraction_rate == 0.99
        for it in hist.iterates[1:]:
            assert it.ratio <= 0.99 + 1e-9


class TestFormPreservation:
    def test_iterates_are_location_scale_with_pinned_std(self, agents_long,
                                                         bench_market):
        hist = pit.run_response_iteration(agents_long[0], bench_market, 20.0,
                                          n_max=5, tol=1e-9)
        expected_std = eqm.equilibrium_std(agents_long[0], bench_market)
        for it in hist.iterates[1:]:
            pol = pit.response_policy(agents_long[0], bench_market, 20.0,
                                      it.a1, it.a2, hist.times)
            for t in (0.0, 7.5, 19.0):
                assert pol.std(t) == expected_std(t)
            # the one-instant law is the maximal-exploration family: its
            # regularizer equals std * ||h'||_2
            law = pol.policy_at(3.0, 0.4)
            assert law.phi() == pytest.approx(expected_std(3.0)
                                              * agents_long[0].distortion.l2_norm)

    def test_iterate_mean_uses_grids(self, agents_long, bench_market):
        t = np.linspace(0.0, 20.0, GRID)
        a1g = np.linspace(0.5, 0.0, GRID)
        a2g = np.linspace(1.0, 0.0, GRID)
        pol = pit.response_policy(agents_long[0], bench_market, 20.0, a1g, a2g, t)
        y = 0.4
        rv = bench_market.rho * bench_market.v
        expected = y / (agents_long[0].gamma * bench_market.sigma) \
            - (rv / bench_market.sigma) * (a2g[0] * y + a1g[0])
        assert pol.mean(0.0, y) == pytest.approx(expected, abs=1e-12)


class TestExport:
    def test_history_csv(self, agents_long, bench_market, tmp_path):
        hist = pit.run_response_iteration(agents_long[0], bench_market, 20.0,
                                          n_max=25, tol=1e-6)
        times = np.linspace(0.0, 20.0, 101)
        mh = pit.simultaneous_mean_iteration(
            agents_long, bench_market, 20.0,
            (np.zeros(101), np.zeros(101)), 8, times=times)
        path = tmp_path / "hist.csv"
        pit.export_history_csv(path, hist, mh)
        import csv as _csv
        rows = list(_csv.DictReader(open(path)))
        assert list(rows[0].keys()) == ["n", "sup_err_a1", "sup_err_a2",
                                        "factorial_bound", "sup_err_mu",
                                        "geometric_bound"]
        assert len(rows) == len(hist.iterates)
        assert float(rows[1]["sup_err_a2"]) == hist.iterates[1].sup_err_a2
        assert float(rows[3]["sup_err_mu"]) == mh.iterates[3].sup_err


@pytest.mark.parametrize("name, fits", [("table1", 38), ("table2", 16)])
def test_iterate_fits_no_zero_grid(name, fits, monkeypatch, tmp_path, capsys):
    """``iterate`` fits a2 once per response update and a1 once per update
    after the first, for both agents; the all-zero start is never fitted."""
    from mvgame import cli

    from presets import preset_path

    grids = []

    def spy(x, y):
        grids.append(np.array(y))
        return cubic_spline(x, y)

    monkeypatch.setattr(pit, "cubic_spline", spy)
    assert cli.main(["iterate", "--config", preset_path(name), "--out", str(tmp_path)]) == 0
    assert len(grids) == fits
    assert not any(np.all(g == 0.0) for g in grids)
