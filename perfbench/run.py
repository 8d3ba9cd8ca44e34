"""mvgame benchmark: one workload per fresh process, outputs checked.

Run from the root of a checkout (no install needed; ``src/`` is put on the
path):

    python3 perfbench/run.py --workload solve_table1 --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, summary

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs one untraced reference operation, then installs span
wrappers (``perfbench/tracing.py``) and reports per-layer metrics of the
traced operations, whose output files must be byte-identical to the
reference's.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("solve_table1", "train_table2", "mc_objective_table2")
# BLAS threads per process: one caller on a small shared machine; a second
# thread measures the neighbours, not the program.
BLAS_THREADS = 1
# Set-up is measured in this many fresh processes; the median is reported.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
OUT_BASE = os.path.join(ROOT, ".perfbench_out")
# Scaled times are in seconds of a machine on which the yardstick takes
# this long (it took 15-17.5 ms, median, on the one README.md reports).
YARDSTICK_S = 0.019
YARDSTICK_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_scaled_s", "s"),
]


def yardstick_s() -> float:
    """Median wall of a fixed piece of numpy work that does not touch the
    program: normal draws, a cumulative sum and elementwise maths on a
    2000 x 251 array (4 MB, past the core-private caches).

    The measuring machine's speed swings by up to 2x, in phases of seconds
    to minutes, whatever runs on it.  A slow phase moves this work as it
    moves the program; a change to the program does not move it."""
    import numpy as np

    walls = []
    for _ in range(YARDSTICK_REPEATS):
        t0 = time.perf_counter()
        draws = np.random.default_rng(1).standard_normal((2000, 251))
        paths = np.cumsum(draws, axis=1)
        float((np.exp(-0.01 * np.abs(paths)) * draws).sum())
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


class Yardstick:
    """Times the yardstick in a helper process, so that its arrays do not
    count in the measuring process's peak RSS.  The helper inherits the
    measuring process's CPU (see ``main``) and waits on a pipe while
    operations run."""

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", "all", "--yardstick"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        return self

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()


def scaled(walls: list[float], sticks: list[float]) -> list[float]:
    """Each wall times YARDSTICK_S over the mean of the yardsticks timed
    just before and just after it."""
    return [w * 2 * YARDSTICK_S / (a + b) for w, a, b in zip(walls, sticks, sticks[1:])]


def _git(*args: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _l3_bytes() -> int | None:
    try:
        done = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                              text=True, timeout=10)
        return int(done.stdout.strip()) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def provenance(state, args) -> dict:
    import numpy as np
    import scipy

    from workloads import input_sizes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    sizes = input_sizes(state)
    l3 = _l3_bytes()
    return {
        "workload": args.workload, "seed": state.seed, "trace": args.trace,
        "seconds": args.seconds, "size": "tiny" if args.tiny else "full",
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "inputs": sizes, "l3_bytes": l3,
        "array_bytes_over_l3": sizes["array_bytes"] / l3 if l3 else None,
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _input_flags(args) -> list[str]:
    """The flags that fix a child process's inputs."""
    return (["--seed", str(args.seed)] if args.seed is not None else []) \
        + (["--tiny"] if args.tiny else [])


def measure_setup(args, stick: Yardstick) -> tuple[float, list[float]]:
    """Median scaled wall, over fresh processes, from process start to the
    first timed call (import, parse_config, agents, coefficients, policies);
    and the raw walls."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload] + _input_flags(args)
    walls = []
    sticks = [stick()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        walls.append(wall)
        sticks.append(stick())
    return statistics.median(scaled(walls, sticks)), walls


def run_workload(args) -> dict:
    import workloads

    os.makedirs(OUT_BASE, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_BASE)
    try:
        state = workloads.setup(args.workload, ROOT, args.seed, args.tiny, work)

        tally = {"attempted": 0, "failed": 0}
        info: dict = {}
        op_ids = itertools.count()

        def loop(st, deadline, before=None, after=None):
            """Operations until ``deadline`` (at least one); a new one starts
            only while at least half an operation's time is left.
            ``after(out, result, start, end)`` runs before the output check
            and returns further problems."""
            results = []
            while True:
                out = os.path.join(work, f"op{next(op_ids)}")
                os.makedirs(out)
                if before is not None:
                    before()
                start = time.perf_counter()
                try:
                    result = workloads.run_op(st, out)
                except Exception:  # a crash fails the operation, not the run
                    result = {"op_s": time.perf_counter() - start,
                              "error": traceback.format_exc()}
                end = time.perf_counter()
                problems = after(out, result, start, end) if after is not None else []
                found, extra = workloads.check(st, out, result)
                problems += found
                tally["attempted"] += 1
                if problems:
                    tally["failed"] += 1
                    print(f"perfbench: {args.workload}: operation failed: "
                          + "; ".join(problems), file=sys.stderr)
                info.update(extra)
                results.append((out, result))
                walls = [r["op_s"] for _, r in results]
                if time.perf_counter() > deadline - 0.5 * statistics.median(walls):
                    return results

        if not args.trace:
            with Yardstick() as stick:
                sticks = [stick()]

                def after(out, result, start, end):
                    sticks.append(stick())
                    return []

                results = loop(state, time.perf_counter() + args.seconds, after=after)
                setup_s, info["setup_walls_s"] = measure_setup(args, stick)
            walls = [r["op_s"] for _, r in results]
            metrics = {"op_scaled_s": statistics.median(scaled(walls, sticks)),
                       "peak_rss_mb": _peak_rss_mb(), "setup_s": setup_s}
            info["op_walls_s"] = walls
            info["yardsticks_s"] = sticks
            for key in ("equilibrium_s", "iterate_s", "episodes_per_s"):
                if key in results[0][1]:
                    info[key] = statistics.median(r[key] for _, r in results)
            reported = {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}
        else:
            import tracing

            deadline = time.perf_counter() + args.seconds
            # one untraced reference operation (a deadline already passed)
            (ref_out, ref), = loop(state, 0.0)
            tracer = tracing.Tracer()
            per_op = []
            with tracing.installed(tracer):
                traced_state = workloads.setup(args.workload, ROOT, state.seed, args.tiny, work)
                setup_parse = tracer.span_table().get("config.parse_config", (0, 0.0, 0.0))[1]

                def record(out, result, start, end):
                    m = tracer.layer_metrics(start, end)
                    m["config.parse_config.s"] += setup_parse
                    m["cli.output_bytes"] = float(tracing.dir_bytes(out))
                    m["trace.overhead_s"] = result["op_s"] - ref["op_s"]
                    per_op.append(m)
                    diff = tracing.same_tree(ref_out, out)
                    return ["traced outputs differ from untraced: " + ", ".join(diff)] \
                        if diff else []

                loop(traced_state, deadline, before=tracer.reset, after=record)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            reported = {name: {"value": statistics.median(m[name] for m in per_op),
                               "unit": units[name]}
                        for name, _, _ in tracing.LAYER_METRICS}
        print(json.dumps({"provenance": provenance(state, args), "info": info}))
        return {"correct": tally["failed"] == 0, **tally, "metrics": reported}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(OUT_BASE)
        except OSError:
            pass


def run_all(args) -> int:
    """Every workload, each in a fresh process of this script; prints a
    summary table of their end-to-end metrics and informational figures."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)] \
            + _input_flags(args)
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + args.seconds)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {done.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        extra = json.loads(lines[-2])["info"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
        for key, unit in (("equilibrium_s", "s"), ("iterate_s", "s"),
                          ("episodes_per_s", "1/s")):
            if key in extra:
                print(f"  {key:40s} {extra[key]:.6g} {unit}")
        code = code or (0 if result["correct"] else 1)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's seeds)")
    parser.add_argument("--seconds", type=int, default=25,
                        help="measuring time; at least one operation runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--yardstick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU for the measuring process and every process it starts: the
    # yardstick then runs where the operations run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # before numpy is first imported; set-up probes inherit them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.yardstick:
        for _ in sys.stdin:
            print(yardstick_s(), flush=True)
        return 0
    if args.setup_probe:
        import workloads

        os.makedirs(OUT_BASE, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_BASE, prefix="probe-") as work:
            workloads.setup(args.workload, ROOT, args.seed, args.tiny, work)
            print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
