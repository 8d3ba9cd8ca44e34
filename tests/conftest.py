import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from mvgame import choquet, equilibrium
from presets import preset

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces.  Hypothesis still caches the constants
# it reads from local modules; that cache lives in a directory removed at
# exit, so the suite leaves no .hypothesis/ behind.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def normal_dist():
    return choquet.make_distortion_normal()


@pytest.fixture(scope="session")
def gini_dist():
    return choquet.make_distortion_gini()


@pytest.fixture(scope="session")
def bench_market():
    """The market both shipped presets share."""
    return preset("table1").market


@pytest.fixture(scope="session")
def agents_long():
    """Long-horizon benchmark preferences (20y, decaying exploration)."""
    cfg = preset("table1")
    return cfg.build_agents(cfg.sim.horizon)


@pytest.fixture(scope="session")
def coeffs_long(agents_long, bench_market):
    return equilibrium.solve_coefficients(agents_long, bench_market, 20.0)


@pytest.fixture(scope="session")
def agents_short():
    """Algorithm-scale preferences (1y horizon, constant exploration)."""
    cfg = preset("table2")
    return cfg.build_agents(cfg.sim.horizon)


@pytest.fixture(scope="session")
def coeffs_short(agents_short, bench_market):
    return equilibrium.solve_coefficients(agents_short, bench_market, 1.0)


@pytest.fixture(scope="session")
def policies_short(agents_short, bench_market, coeffs_short):
    return (equilibrium.equilibrium_policy(0, agents_short, bench_market, coeffs_short),
            equilibrium.equilibrium_policy(1, agents_short, bench_market, coeffs_short))
