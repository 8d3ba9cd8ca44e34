"""Metamorphic relations of the equilibrium solve: exact relations between
the results of two related markets, over the parameter ranges of the CLI's
property test (``test_every_command_exits_with_a_defined_code``).

A market that overflows the arithmetic must fail in both runs of a
relation; one that solves must satisfy the relation bit for bit.  The
doubling relation fails on some markets; it is marked with the market that
fails it, and the mark goes when the relation holds.  Every relation holds
on the presets."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mvgame import equilibrium as eqm
from mvgame.choquet import make_distortion_gini, make_distortion_normal
from mvgame.market import AgentParams, Schedule

from presets import preset

# Coarser than the default grid, so each example solves in about 1 ms; the
# relations are exact on any grid.
GRID = 401
T_MEANS = np.linspace(0.0, 1.0, 11)

_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_UNIT = st.floats(0.0, 1.0, exclude_max=True)
_MARKETS = st.fixed_dictionaries({
    "sigma": _MAGNITUDE, "v": _MAGNITUDE, "rho": st.floats(-1.0, 1.0),
    "iota": st.one_of(st.just(0.0), _MAGNITUDE)})
_AGENT = st.tuples(_MAGNITUDE, _UNIT, _MAGNITUDE)  # gamma, k, lambda0

_DISTORTIONS = (make_distortion_normal(), make_distortion_gini())
_BASE = preset("table2")


def _agent(draw, index):
    """table2's agent ``index`` (normal or gini; a constant weight) with the
    drawn (gamma, k, lambda0)."""
    gamma, k, lam0 = draw
    return AgentParams(gamma=gamma, k=k, lam=Schedule(lam0), distortion=_DISTORTIONS[index])


def _run(fn, *args):
    """fn(*args), or the ArithmeticError class it raised (a numerical
    failure, as the CLI reports it)."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except ArithmeticError:
        return ArithmeticError


def _assert_same(got, want):
    if want is ArithmeticError or got is ArithmeticError:
        assert got is want
        return
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            np.testing.assert_array_equal(x, y)


def _grids(pair, market, horizon):
    return [(cs.a, cs.b) for cs in eqm.solve_coefficients(pair, market, horizon, GRID)]


def _check_swap(agents, market, horizon):
    """Swapping the agents swaps the coefficient sets."""
    want = _run(_grids, agents, market, horizon)
    got = _run(_grids, agents[::-1], market, horizon)
    _assert_same(got, want if want is ArithmeticError else want[::-1])


def _check_doubling(agents, market, horizon):
    """Doubling both gammas halves every a and b grid and both means: every
    term of their equations scales as 1/gamma, and scaling by a power of two
    commutes with rounding."""
    def solve(pair):
        means = eqm.equilibrium_means(T_MEANS * horizon, market.y_bar, pair, market, horizon)
        return _grids(pair, market, horizon) + [means]

    want = _run(solve, agents)
    got = _run(solve, tuple(replace(a, gamma=2.0 * a.gamma) for a in agents))
    if want is not ArithmeticError:
        want = [tuple(0.5 * x for x in w) for w in want]
    _assert_same(got, want)


def _check_decoupling(agent, i, opponents, market, horizon):
    """With k_i = 0, agent i's coefficient set is the same against either
    opponent."""
    agent = replace(agent, k=0.0)

    def own(opponent):
        return [(np.vstack(eqm.solve_a_coeffs(agent, market, horizon, GRID)),
                 np.vstack(eqm.solve_b_coeffs(agent, opponent, market, horizon, GRID)))]

    _assert_same(_run(own, opponents[1]), _run(own, opponents[0]))


@given(market=_MARKETS, draws=st.tuples(_AGENT, _AGENT), horizon=_MAGNITUDE)
def test_swapping_agents_swaps_coefficients(market, draws, horizon):
    _check_swap(tuple(_agent(d, i) for i, d in enumerate(draws)),
                replace(_BASE.market, **market), horizon)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "b0's opponent term 0.5 gamma_i sigma^2 k_i^2 sigma_j(t)^2 squares sigma_j "
    "first: sigma_j^2 turns subnormal (and loses bits) while the product is "
    "about 1e-97, so b halves only to 2e-11 relative"))
@example(market={"sigma": 1e58, "v": 1.0, "rho": 0.0, "iota": 0.0},
         draws=((1e38, 0.0, 1.0), (1e95, 0.5, 1.0)), horizon=1.0)
@given(market=_MARKETS, draws=st.tuples(_AGENT, _AGENT), horizon=_MAGNITUDE)
def test_doubling_both_gammas_halves_coefficients_and_means(market, draws, horizon):
    _check_doubling(tuple(_agent(d, i) for i, d in enumerate(draws)),
                    replace(_BASE.market, **market), horizon)


@example(market={"sigma": 1.0, "v": 1.0, "rho": 0.0, "iota": 0.0},
         draws=((1.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 0.0, 1e155)), horizon=1.0, i=0)
@given(market=_MARKETS, draws=st.tuples(_AGENT, _AGENT, _AGENT), horizon=_MAGNITUDE,
       i=st.sampled_from([0, 1]))
def test_zero_sensitivity_decouples_the_agent(market, draws, horizon, i):
    _check_decoupling(_agent(draws[0], i), i, [_agent(d, 1 - i) for d in draws[1:]],
                      replace(_BASE.market, **market), horizon)


@pytest.mark.parametrize("name, other", [("table1", "table2"), ("table2", "table1")],
                         ids=["table1_config", "table2_config"])
def test_relations_hold_on_the_presets(name, other):
    cfg = preset(name)
    horizon = cfg.sim.horizon
    agents = cfg.build_agents(horizon)
    other = preset(other)
    _check_swap(agents, cfg.market, horizon)
    _check_doubling(agents, cfg.market, horizon)
    for i in (0, 1):
        # the opponent as configured, and with the other preset's preferences
        opponents = [agents[1 - i], other.build_agents(horizon)[1 - i]]
        _check_decoupling(agents[i], i, opponents, cfg.market, horizon)
