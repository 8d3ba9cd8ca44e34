"""The paper's two experiments, read from the shipped ``configs/*.ini``, and
a runner for scripts and commands in a fresh process."""

import os
import subprocess
import sys

import mvgame
from mvgame.config import parse_config

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(mvgame.__file__)))


def preset_path(name: str) -> str:
    """Path of the shipped config ``name`` ("table1" or "table2")."""
    return os.path.join(CONFIGS, f"{name}.ini")


def preset_text(name: str) -> str:
    """Text of the shipped config ``name``."""
    with open(preset_path(name)) as fh:
        return fh.read()


def preset(name: str):
    """The ExperimentConfig of the shipped config ``name``."""
    return parse_config(preset_path(name))


def run_fresh(*args: str, env=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports the package from
    this checkout's source.  ``env`` sets variables, and a None value
    removes one."""
    env = {k: v for k, v in {**os.environ, **(env or {})}.items() if v is not None}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
