"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench -q

They run the benchmark script in fresh processes, as the benchmark is run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int):
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# Counts the tiny runs must report.  solve_table1 has no tiny size: table1
# runs 69 solves in `mvgame equilibrium` and 1 in `mvgame iterate`, 13 of
# them distinct by value, 4 RK4 scans each, plus 2 per response iteration.
EXPECTED = {
    "solve_table1": {
        "equilibrium.solve_coefficients.calls": 70,
        "equilibrium.solve_coefficients.distinct": 13,
        "integrate.rk4.calls": 320,
        "policy_iter.response_iterations": 20,
        "rl.episodes_attempted": 0,
    },
    # table2's 10 replications of 40 episodes, the first 20 critic-only: 3
    # feature evaluations per agent then, 7 after.
    "train_table2": {
        "rl.critic_features.calls_per_episode": 10,
        "rl.skipped_episodes": 0,
        "equilibrium.solve_coefficients.calls": 1,
        "market.sim.paths": 40 * 10,
    },
    "mc_objective_table2": {
        "equilibrium.policy_quantile.calls": 1000,
        "equilibrium.policy_mean.calls": 1000,
        "market.sim.paths": 4000,
        "rl.episodes_attempted": 0,
    },
}


def test_spec_matches_the_script():
    import run

    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [m[0] for m in tracing.LAYER_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    units = dict(run.END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(bench(workload, trace=1)) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        assert set(res["metrics"]) == {name for name, _, _ in tracing.LAYER_METRICS}
    for name in tracing.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name, value in EXPECTED[workload].items():
        assert first["metrics"][name]["value"] == value, name


def test_untraced_run_reports_every_end_to_end_metric():
    done = bench("mc_objective_table2", trace=0)
    res = result_of(done)
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    extra = json.loads(done.stdout.strip().splitlines()[-2])
    assert extra["provenance"]["seed"] == 7 and extra["provenance"]["blas_threads"] == 1
    # a yardstick before the first operation and after each one
    assert len(extra["info"]["yardsticks_s"]) == res["attempted"] + 1


def test_scaled_divides_by_the_yardsticks_around_each_wall():
    import run

    ref = run.YARDSTICK_S
    assert run.scaled([2.0, 3.0], [ref, 3 * ref, ref]) == [1.0, 1.5]


def test_self_time_and_phases():
    tr = tracing.Tracer()
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    tr.start[:] = [0.0, 1.0]
    tr.end[:] = [4.0, 3.0]
    table = tr.span_table()
    assert table["outer"] == (1, 4.0, 2.0)
    assert table["inner"] == (1, 2.0, 2.0)

    tr.marks = [(1.0, "simulate"), (2.0, "critic"), (2.5, "actor"),
                (3.0, "simulate"), (4.0, "other")]
    assert tr.phase_times(0.0, 5.0) == {"simulate": 2.0, "critic": 0.5, "actor": 0.5,
                                        "other": 2.0}
    assert tr.episode_ms() == [2000.0, 1000.0]


def test_direct_critic_features_call_starts_the_critic_phase():
    from mvgame import rl

    tr = tracing.Tracer()
    with tracing.installed(tr):
        train = tr.open("rl.train")
        rl.critic_features([0.0, 1.0], [0.1, 0.2], 1.0, 2)
        nested = tr.open("rl.td_errors")
        rl.critic_features([0.0, 1.0], [0.1, 0.2], 1.0, 2)
        tr.close(nested)
        tr.close(train)
    assert [phase for _, phase in tr.marks] == ["critic"]
