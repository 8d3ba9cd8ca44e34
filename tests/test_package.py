"""The package surface: every exported name resolves, and the demos that
exercise it run to completion."""

import ast
import hashlib
import importlib
import importlib.util
import os
import pkgutil
from dataclasses import replace

import pytest

import mvgame
from mvgame.config import serialize_config

from presets import CONFIGS, SRC, preset, preset_path, run_fresh

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")
TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")

# Ends a probe script: prints the public scipy subpackages loaded, leaving
# out scipy's private modules.
_PRINT_SCIPY = ("\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy.') "
                "and m.count('.') == 1 and not m.startswith('scipy._') "
                "and m != 'scipy.version'))\n")


def scipy_loaded(script: str) -> list:
    """The sorted public scipy subpackages that a fresh process running
    ``script`` has loaded."""
    proc = run_fresh("-c", script + _PRINT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mvgame.__path__)))
def test_exported_names_resolve(name):
    module = importlib.import_module(f"mvgame.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"mvgame.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("demo", ["01_equilibrium_policies.py",
                                  "02_policy_iteration_certificates.py"])
def test_demo_runs(demo):
    proc = run_fresh(os.path.join(DEMOS, demo))
    assert proc.returncode == 0, proc.stderr


def test_output_digests_name_no_temporary_path():
    """``tools/output_digests.py`` hashes each output file, stdout, stderr and
    exit code with the temporary ``--out`` path replaced by a token, so two
    runs, each in its own temporary directory, list the same lines."""
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  os.path.join(TOOLS, "output_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = [("table1", ("simulate",))]
    first = list(tool.digests(SRC, CONFIGS, runs))
    assert list(tool.digests(SRC, CONFIGS, runs)) == first
    stdout = b"simulate: wrote trajectory.csv to <out>/table1-simulate\n"
    assert first[1:] == [f"{hashlib.md5(stdout).hexdigest()}  table1-simulate.stdout",
                         f"{hashlib.md5(b'').hexdigest()}  table1-simulate.stderr",
                         f"{hashlib.md5(b'0').hexdigest()}  table1-simulate.exit"]
    assert first[0].endswith("  table1-simulate/trajectory.csv")


def test_ndtri_timing_runs():
    """``tools/ndtri_timing.py`` times both quantiles at both sizes."""
    spec = importlib.util.spec_from_file_location("ndtri_timing",
                                                  os.path.join(TOOLS, "ndtri_timing.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows = list(tool.timings(repeat=1, number=1))
    assert [(n, name) for n, name, _, _ in rows] == [
        (2500, "in-house"), (2500, "scipy"), (32000, "in-house"), (32000, "scipy")]
    assert all(0.0 < low <= mid for _, _, low, mid in rows)


def test_cli_import_leaves_out_scipy_signal_and_stats():
    """Every command's start-up imports ``mvgame.cli``; ``scipy.signal`` and
    the ``scipy.stats`` it pulls in are most of a process's set-up time, and
    nothing in the package needs them, nor ``scipy.linalg``, which only a
    3-knot spline fit imports."""
    assert scipy_loaded("import mvgame.cli") == []


def test_cli_import_leaves_out_the_process_pool():
    """Only ``train --workers N`` with N > 1 starts a process pool, so
    ``mvgame.cli`` imports it there, and a fresh process that imports the
    package loads neither ``concurrent.futures.process`` nor
    ``multiprocessing``."""
    proc = run_fresh("-c", "import sys, mvgame.cli; print(sorted(m for m in sys.modules if "
                           "m == 'concurrent.futures.process' or m.startswith('multiprocessing')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command, loads", [
    ("import", []), ("equilibrium", []), ("iterate", []), ("simulate", []),
    ("train", [])], ids=["import", "equilibrium", "iterate", "simulate", "train"])
def test_commands_load_neither_interpolate_nor_integrate(tmp_path, command, loads):
    """Every policy and mean the commands use is closed-form, the response
    iterates are fitted by the in-house spline, and the built-in distortions
    run no quadrature, so neither ``scipy.interpolate`` nor
    ``scipy.integrate`` (each about 290 scipy modules and 26 MB resident) is
    loaded by a fresh process that runs any command.  The commands that draw
    actions take the normal quantile from the in-house ``ndtri`` (calls of at
    most 2**13 elements), so none loads ``scipy.special`` either."""
    cfg = preset("table2" if command == "train" else "table1")
    cfg = replace(cfg, replications=1,
                  train=replace(cfg.train, episodes=40, critic_warmup=5))
    path = tmp_path / "cfg.ini"
    path.write_text(serialize_config(cfg))
    run = ("" if command == "import" else
           f"assert cli.main([{command!r}, '--config', {str(path)!r}, "
           f"'--out', {str(tmp_path / 'o')!r}]) == 0; ")
    assert scipy_loaded("from mvgame import cli; " + run) == loads


@pytest.mark.parametrize("step, loads", [("setup", []), ("equilibrium", []), ("iterate", []),
                                         ("hjb", []), ("simulate", [])],
                         ids=["setup", "equilibrium", "iterate", "hjb-residuals", "simulate"])
def test_scipy_loads_where_it_is_used(tmp_path, step, loads):
    """Set-up (import, ``parse_config``, agents, coefficients and the policy
    constructors, for table1 and table2) loads no scipy subpackage, nor do
    ``equilibrium``, ``iterate`` and ``hjb_residuals`` off the grid's nodes,
    whose splines solve their tridiagonal systems in-house, nor
    ``simulate``, whose 250-step actions take the in-house normal
    quantile."""
    setup = "".join(
        f"cfg = parse_config({preset_path(name)!r}); "
        "agents = cfg.build_agents(cfg.sim.horizon); "
        "coeffs = eqm.solve_coefficients(agents, cfg.market, cfg.sim.horizon); "
        "[eqm.equilibrium_policy(i, agents, cfg.market, coeffs) for i in (0, 1)]; "
        "[eqm.closed_form_policy(i, agents, cfg.market, cfg.sim.horizon) "
        "for i in (0, 1)]; "
        for name in ("table1", "table2"))
    if step == "setup":
        run = setup
    elif step == "hjb":
        # every a_deriv and b_deriv fits a spline
        run = setup + ("assert all(all(np.isfinite(eqm.hjb_residuals("
                       "i, agents, cfg.market, coeffs, 0.37 * cfg.sim.horizon, 1.0, 0.2))) "
                       "for i in (0, 1)); ")
    else:
        run = (f"assert cli.main([{step!r}, '--config', "
               f"{preset_path('table1')!r}, "
               f"'--out', {str(tmp_path / 'o')!r}]) == 0; ")
    assert scipy_loaded("import numpy as np; from mvgame import cli, equilibrium as eqm; "
                        "from mvgame.config import parse_config; " + run) == loads


def test_objective_with_rebuilt_agents_is_bit_identical():
    """Agents from a second ``build_agents`` call carry equal distortions, so
    ``estimate_objective`` takes the analytic regularizer branch for them, as
    for the agents the policies were built from: the same bits, and no
    ``scipy.integrate`` import in a fresh process.  Its 50-episode blocks of
    20 steps (1000 elements) take the in-house normal quantile, so it loads
    no ``scipy.special`` either."""
    probe = f"""
from dataclasses import replace
from mvgame import equilibrium as eqm, market as mkt
from mvgame.config import parse_config
cfg = parse_config({preset_path("table2")!r})
sim = replace(cfg.sim, n_steps=20)
agents = cfg.build_agents(sim.horizon)
rebuilt = cfg.build_agents(sim.horizon)
policies = [eqm.closed_form_policy(i, agents, cfg.market, sim.horizon) for i in (0, 1)]
for i in (0, 1):
    want, got = (mkt.estimate_objective(i, a, policies, cfg.market, sim, 50,
                                        mkt.episode_generator(7, 10_000 + i))
                 for a in (agents, rebuilt))
    assert got == want, (got, want)
"""
    assert scipy_loaded(probe) == []


def test_value_check_loads_no_interpolate():
    """The Monte Carlo value check compares a simulated objective with V_i at
    t = 0, a grid node: with the closed-form policies, a fresh process that
    solves, estimates and reads V_i at t = 0 and t = T never loads
    ``scipy.interpolate``, nor, at 20 steps x 50 episodes, ``scipy.special``."""
    probe = f"""
from dataclasses import replace
from mvgame import equilibrium as eqm, market as mkt
from mvgame.config import parse_config
cfg = parse_config({preset_path("table2")!r})
sim = replace(cfg.sim, n_steps=20)
agents = cfg.build_agents(sim.horizon)
coeffs = eqm.solve_coefficients(agents, cfg.market, sim.horizon)
policies = [eqm.closed_form_policy(i, agents, cfg.market, sim.horizon) for i in (0, 1)]
for i in (0, 1):
    mkt.estimate_objective(i, agents, policies, cfg.market, sim, 50,
                           mkt.episode_generator(7, 10_000 + i))
    for t in (0.0, sim.horizon):
        eqm.value_functions(i, t, sim.x1_0, sim.y_0, coeffs)
"""
    assert scipy_loaded(probe) == []


def test_monte_carlo_blocks_load_scipy_special():
    """At table2's 250 steps the Monte Carlo engine's 128-episode blocks
    hold 32000 uniforms, above the in-house ``ndtri``'s 2**13, so
    ``estimate_objective`` takes scipy's and loads ``scipy.special``: the
    switch is pinned from this side as well as by the probes above."""
    probe = f"""
from mvgame import equilibrium as eqm, market as mkt
from mvgame.config import parse_config
cfg = parse_config({preset_path("table2")!r})
agents = cfg.build_agents(cfg.sim.horizon)
policies = [eqm.closed_form_policy(i, agents, cfg.market, cfg.sim.horizon) for i in (0, 1)]
mkt.estimate_objective(0, agents, policies, cfg.market, cfg.sim, 200,
                       mkt.episode_generator(7, 10_000))
"""
    assert scipy_loaded(probe) == ["scipy.special"]


def test_hjb_check_from_csv_grids_loads_no_interpolate(tmp_path):
    """The HJB residual check differentiates coefficient grids read back
    from the written CSVs; its splines are fitted in-house, so a fresh
    process running it never loads ``scipy.interpolate``."""
    probe = f"""
import csv
import numpy as np
from mvgame import equilibrium as eqm
from mvgame.config import parse_config
cfg = parse_config({preset_path("table2")!r})
horizon = cfg.sim.horizon
agents = cfg.build_agents(horizon)
coeffs = []
for i, cs in enumerate(eqm.solve_coefficients(agents, cfg.market, horizon, 401)):
    path = {str(tmp_path)!r} + f"/coefficients_agent{{i + 1}}.csv"
    cs.to_csv(path)
    with open(path) as fh:
        grid = np.array([[float(v) for v in row.values()] for row in csv.DictReader(fh)])
    coeffs.append(eqm.CoefficientSet(times=grid[:, 0], a=grid[:, 1:4].T, b=grid[:, 4:7].T))
for i in (0, 1):
    for t in (0.0, 0.37 * horizon):
        assert all(np.isfinite(eqm.hjb_residuals(i, agents, cfg.market, coeffs, t, 1.0, 0.2)))
"""
    assert scipy_loaded(probe) == []
