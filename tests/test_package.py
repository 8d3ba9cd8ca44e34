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
from mvgame.config import serialize_config, table1_config, table2_config

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mvgame.__file__)))
DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "demos")


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mvgame.__path__)))
def test_exported_names_resolve(name):
    module = importlib.import_module(f"mvgame.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"mvgame.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("demo", ["01_equilibrium_policies.py",
                                  "02_policy_iteration_certificates.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_out_scipy_signal_and_stats():
    """Every command's start-up imports ``mvgame.cli``; ``scipy.signal`` and
    the ``scipy.stats`` it pulls in are most of a process's set-up time, and
    nothing in the package needs them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = ("import sys, mvgame.cli; "
             "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["import", "equilibrium", "simulate", "train"])
def test_commands_load_neither_interpolate_nor_integrate(tmp_path, command):
    """Every policy and mean the commands use is closed-form, and the
    built-in distortions run no quadrature, so neither subpackage (each
    about 290 scipy modules and 26 MB resident) is loaded by a fresh
    process that runs ``equilibrium``, ``simulate`` or ``train``."""
    cfg = table2_config() if command == "train" else table1_config()
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
