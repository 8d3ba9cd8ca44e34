"""md5 digests of every CLI output of the paper's two experiments.

    python tools/output_digests.py --src DIR --configs DIR

runs ``equilibrium``, ``iterate``, ``simulate``, ``train`` and ``train
--freeze-opponent --replications 3`` on ``table1.ini`` and ``table2.ini`` of
``--configs``, each in a fresh ``python -m mvgame.cli`` process that imports
the package from ``--src``, and prints one ``md5  name`` line for every file a
command wrote and for its stdout, stderr and exit code.  Before hashing, the
temporary output directory and the configs directory are replaced by fixed
tokens, so the listings of two checkouts compare with ``diff``.  The first
line names the CPU path that numpy's loops and OpenBLAS dispatch on, since
the output bytes are fixed only per CPU path (see ``mvgame.cli``).  The ten
commands take a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

PRESETS = ("table1", "table2")
COMMANDS = (("equilibrium",), ("iterate",), ("simulate",), ("train",),
            ("train", "--freeze-opponent", "--replications", "3"))
OUT_TOKEN, CONFIGS_TOKEN = b"<out>", b"<configs>"


def cpu_path() -> str:
    """numpy's dispatch line and the OpenBLAS core of this interpreter."""
    import numpy as np

    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    core = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return (f"numpy baseline {' '.join(simd.get('baseline', []))}, found "
            f"{' '.join(simd.get('found', []))}; OpenBLAS core {core}")


def digests(src: str, configs: str, runs=None):
    """Yield ``md5  name`` lines for each (preset, argv) of ``runs``, by
    default every command of ``COMMANDS`` on every preset."""
    configs = os.path.abspath(configs)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    runs = runs or [(preset, argv) for preset in PRESETS for argv in COMMANDS]
    with tempfile.TemporaryDirectory() as tmp:

        def line(data: bytes, name: str) -> str:
            data = data.replace(tmp.encode(), OUT_TOKEN).replace(configs.encode(),
                                                                  CONFIGS_TOKEN)
            return f"{hashlib.md5(data).hexdigest()}  {name}"

        for preset, argv in runs:
            name = "-".join((preset, *(arg.lstrip("-") for arg in argv)))
            out = os.path.join(tmp, name)
            proc = subprocess.run(
                [sys.executable, "-m", "mvgame.cli", *argv,
                 "--config", os.path.join(configs, f"{preset}.ini"), "--out", out],
                env=env, cwd=tmp, capture_output=True)
            for root, _, files in sorted(os.walk(out)):
                for file in sorted(files):
                    path = os.path.join(root, file)
                    with open(path, "rb") as fh:
                        yield line(fh.read(), os.path.relpath(path, tmp))
            yield line(proc.stdout, f"{name}.stdout")
            yield line(proc.stderr, f"{name}.stderr")
            yield line(str(proc.returncode).encode(), f"{name}.exit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the mvgame package")
    parser.add_argument("--configs", required=True, help="directory holding table1.ini "
                                                         "and table2.ini")
    args = parser.parse_args(argv)
    print(f"# {cpu_path()}", flush=True)
    for entry in digests(args.src, args.configs):
        print(entry, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
