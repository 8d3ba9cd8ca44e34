"""Which outputs depend on the CPU path.

Every command is byte-deterministic given (config, seed) on one CPU path.
numpy dispatches its loops on the CPU's features, and OpenBLAS picks its
kernels by CPU core, so another path may move the last bits of a result.
Each setting below runs the same commands in a fresh process: every number
it writes must be within 1e-10 relative of the default run's, and the test
reports, run with ``-s``, the files whose bytes moved.  The in-house normal
quantile, whose logs are libm's on every path, must keep scipy's bits.
"""

import math
import os
import platform
import re
from dataclasses import replace

import pytest

from mvgame.config import serialize_config

from presets import preset, preset_path, run_fresh

# (name, environment); the default run clears both variables.
SETTINGS = [("npy-no-avx512", {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})]
try:
    from numpy._core._multiarray_umath import __cpu_features__ as _FEATURES
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__ as _FEATURES
if platform.machine() in ("x86_64", "AMD64") and _FEATURES.get("AVX2"):
    SETTINGS.append(("openblas-haswell", {"OPENBLAS_CORETYPE": "Haswell"}))
_VARIABLES = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")

RTOL = 1e-10


def _run_commands(out, env):
    """Run ``equilibrium`` and ``simulate`` on both presets and a short
    ``train`` on table2 in one fresh process, writing under ``out``."""
    runs = [[command, "--config", preset_path(name), "--out", str(out / f"{name}-{command}")]
            for name in ("table1", "table2") for command in ("equilibrium", "simulate")]
    # 60 episodes, the last 40 of which move the actors
    cfg = preset("table2")
    config = out / "train.ini"
    config.write_text(serialize_config(
        replace(cfg, train=replace(cfg.train, episodes=60, critic_warmup=20))))
    runs.append(["train", "--config", str(config), "--out", str(out / "table2-train"),
                 "--replications", "2"])
    script = f"from mvgame import cli\nfor argv in {runs!r}:\n    assert cli.main(argv) == 0\n"
    proc = run_fresh("-c", script, env=env)
    assert proc.returncode == 0, proc.stderr
    return sorted(os.path.relpath(os.path.join(d, f), out) for d, _, files in os.walk(out)
                  for f in files if d != str(out))


def _cells(path):
    """The file's cells: numbers as floats, anything else as text."""
    with open(path) as fh:
        tokens = [t for t in re.split(r"[\s,\[\]=]+", fh.read()) if t]
    cells = []
    for t in tokens:
        try:
            cells.append(float(t))
        except ValueError:
            cells.append(t)
    return cells


def _worst(path_a, path_b):
    """Largest relative difference between the files' numbers, nan where
    only one is nan or they are infinities apart; text cells must be equal."""
    a, b = _cells(path_a), _cells(path_b)
    assert len(a) == len(b), path_b
    worst = 0.0
    for x, y in zip(a, b):
        if isinstance(x, str) or isinstance(y, str):
            assert x == y, (path_b, x, y)
        elif not (x == y or math.isnan(x) and math.isnan(y)):
            rel = abs(x - y) / max(abs(x), abs(y))
            worst = rel if math.isnan(rel) or rel > worst else worst  # nan sticks
    return worst


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default")
    return out, _run_commands(out, {v: None for v in _VARIABLES})


@pytest.mark.parametrize("name, env", SETTINGS, ids=[name for name, _ in SETTINGS])
def test_outputs_agree_across_cpu_paths(default_run, tmp_path, name, env):
    base, files = default_run
    assert _run_commands(tmp_path, env) == files
    moved = {}
    for f in files:
        if (base / f).read_bytes() != (tmp_path / f).read_bytes():
            moved[f] = _worst(base / f, tmp_path / f)
    print(f"\n{name}: " + ("no file moved" if not moved else ", ".join(
        f"{f} ({worst:.1e})" for f, worst in moved.items())))
    assert all(worst <= RTOL for worst in moved.values()), moved


_NDTRI_SCRIPT = """\
import numpy as np
from scipy.special import ndtri
from mvgame import choquet, market
p = market._draw_uniforms(market.episode_generator(7, 0), 10 ** 5)
for q in (1.0 - (1.0 - p), 1.0 - p):
    assert np.array_equal(choquet._ndtri(q).view(np.uint64), ndtri(q).view(np.uint64))
"""


@pytest.mark.parametrize("name, env", SETTINGS, ids=[name for name, _ in SETTINGS])
def test_ndtri_keeps_scipys_bits_across_cpu_paths(name, env):
    proc = run_fresh("-c", _NDTRI_SCRIPT, env=env)
    assert proc.returncode == 0, proc.stderr
