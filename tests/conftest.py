import pytest

from mvgame import choquet, equilibrium, market


@pytest.fixture(scope="session")
def normal_dist():
    return choquet.make_distortion_normal()


@pytest.fixture(scope="session")
def gini_dist():
    return choquet.make_distortion_gini()


@pytest.fixture(scope="session")
def bench_market():
    return market.MarketParams(r=0.017, sigma=0.15, iota=0.27, y_bar=0.273,
                               v=0.065, rho=-0.93)


@pytest.fixture(scope="session")
def agents_long(normal_dist, gini_dist):
    """Long-horizon benchmark preferences (20y, decaying exploration)."""
    return (
        market.AgentParams(gamma=2.0, k=0.1,
                           lam=market.Schedule(0.01, 0.01, 20.0),
                           distortion=normal_dist),
        market.AgentParams(gamma=1.0, k=0.05,
                           lam=market.Schedule(0.01, 0.01, 20.0),
                           distortion=gini_dist),
    )


@pytest.fixture(scope="session")
def coeffs_long(agents_long, bench_market):
    return equilibrium.solve_coefficients(agents_long, bench_market, 20.0)


@pytest.fixture(scope="session")
def agents_short(normal_dist, gini_dist):
    """Algorithm-scale preferences (1y horizon, constant exploration)."""
    return (
        market.AgentParams(gamma=2.0, k=0.1, lam=market.Schedule(0.015),
                           distortion=normal_dist),
        market.AgentParams(gamma=3.0, k=0.05, lam=market.Schedule(0.02),
                           distortion=gini_dist),
    )


@pytest.fixture(scope="session")
def coeffs_short(agents_short, bench_market):
    return equilibrium.solve_coefficients(agents_short, bench_market, 1.0)


@pytest.fixture(scope="session")
def policies_short(agents_short, bench_market, coeffs_short):
    return (equilibrium.equilibrium_policy(0, agents_short, bench_market, coeffs_short),
            equilibrium.equilibrium_policy(1, agents_short, bench_market, coeffs_short))
