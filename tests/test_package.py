"""The package surface: every exported name resolves, and the demos that
exercise it run to completion."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import mvgame

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
