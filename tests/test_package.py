"""The package surface: every exported name resolves, and the demos that
exercise it run to completion."""

import importlib
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace

import pytest

import mvgame
from mvgame.config import serialize_config

from presets import preset, preset_path

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mvgame.__file__)))
DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports the package from
    this checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


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


def test_cli_import_leaves_out_scipy_signal_and_stats():
    """Every command's start-up imports ``mvgame.cli``; ``scipy.signal`` and
    the ``scipy.stats`` it pulls in are most of a process's set-up time, and
    nothing in the package needs them.  ``scipy.linalg`` is imported by a
    spline fit when it runs, not at start-up."""
    probe = ("import sys, mvgame.cli; print(sorted(m for m in "
             "('scipy.linalg', 'scipy.signal', 'scipy.stats') if m in sys.modules))")
    proc = run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["import", "equilibrium", "iterate", "simulate", "train"])
def test_commands_load_neither_interpolate_nor_integrate(tmp_path, command):
    """Every policy and mean the commands use is closed-form, the response
    iterates are fitted by the in-house spline, and the built-in distortions
    run no quadrature, so neither subpackage (each about 290 scipy modules
    and 26 MB resident) is loaded by a fresh process that runs any
    command."""
    cfg = preset("table2" if command == "train" else "table1")
    cfg = replace(cfg, replications=1,
                  train=replace(cfg.train, episodes=40, critic_warmup=5))
    path = tmp_path / "cfg.ini"
    path.write_text(serialize_config(cfg))
    run = ("" if command == "import" else
           f"assert cli.main([{command!r}, '--config', {str(path)!r}, "
           f"'--out', {str(tmp_path / 'o')!r}]) == 0; ")
    probe = ("import sys; from mvgame import cli; " + run +
             "print(sorted(m for m in ('scipy.interpolate', 'scipy.integrate') "
             "if m in sys.modules))")
    proc = run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("step, loads", [("setup", []), ("equilibrium", []),
                                         ("iterate", ["scipy.linalg"]),
                                         ("simulate", ["scipy.special"])],
                         ids=["setup", "equilibrium", "iterate", "simulate"])
def test_scipy_loads_where_it_is_used(tmp_path, step, loads):
    """Set-up (import, ``parse_config``, agents, coefficients and the policy
    constructors, for table1 and table2) loads no scipy subpackage, nor does
    ``equilibrium``; ``iterate`` loads only ``scipy.linalg``, for its spline
    fits.  ``scipy.special`` is imported at the normal distortion's first
    quantile, so ``simulate``, which draws actions, loads it."""
    if step == "setup":
        run = "".join(
            f"cfg = parse_config({preset_path(name)!r}); "
            "agents = cfg.build_agents(cfg.sim.horizon); "
            "coeffs = eqm.solve_coefficients(agents, cfg.market, cfg.sim.horizon); "
            "[eqm.equilibrium_policy(i, agents, cfg.market, coeffs) for i in (0, 1)]; "
            "[eqm.closed_form_policy(i, agents, cfg.market, cfg.sim.horizon) "
            "for i in (0, 1)]; "
            for name in ("table1", "table2"))
    else:
        run = (f"assert cli.main([{step!r}, '--config', "
               f"{preset_path('table1')!r}, "
               f"'--out', {str(tmp_path / 'o')!r}]) == 0; ")
    # prints the public subpackages loaded (not scipy's private modules)
    probe = ("import sys; from mvgame import cli, equilibrium as eqm; "
             "from mvgame.config import parse_config; " + run +
             "print(sorted(m for m in sys.modules if m.startswith('scipy.') "
             "and m.count('.') == 1 and not m.startswith('scipy._') "
             "and m != 'scipy.version'))")
    proc = run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == str(loads)


def test_objective_with_rebuilt_agents_is_bit_identical():
    """Agents from a second ``build_agents`` call carry equal distortions, so
    ``estimate_objective`` takes the analytic regularizer branch for them, as
    for the agents the policies were built from: the same bits, and no
    ``scipy.integrate`` import in a fresh process."""
    probe = f"""
import sys
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
print('scipy.integrate' in sys.modules)
"""
    proc = run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_value_check_loads_no_interpolate():
    """The Monte Carlo value check compares a simulated objective with V_i at
    t = 0, a grid node: with the closed-form policies, a fresh process that
    solves, estimates and reads V_i at t = 0 and t = T never loads
    ``scipy.interpolate``."""
    probe = f"""
import sys
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
print('scipy.interpolate' in sys.modules)
"""
    proc = run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_hjb_check_from_csv_grids_loads_no_interpolate(tmp_path):
    """The HJB residual check differentiates coefficient grids read back
    from the written CSVs; its splines are fitted in-house, so a fresh
    process running it never loads ``scipy.interpolate``."""
    probe = f"""
import csv, sys
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
print('scipy.interpolate' in sys.modules)
"""
    proc = run_fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
