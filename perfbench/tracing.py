"""Span tracing installed from outside the library.

The benchmark never edits ``src/``.  Instead, :func:`installed` replaces the
module attributes that callers actually resolve (``rl.episode_generator``,
``equilibrium.rk4_backward_affine``, ``EquilibriumPolicy.quantile``, ...)
with thin wrappers that record a span per call, and puts the originals back
on exit.  Each attribute is wrapped once: ``cli.eqm`` *is*
``mvgame.equilibrium``, so wrapping both would count every call twice.

Spans live in memory (parallel lists) until :meth:`Tracer.layer_metrics`
folds them into per-layer figures.  A span's self time is its duration
minus the durations of the spans opened directly inside it.
"""

from __future__ import annotations

import contextlib
import csv as _csv
import dataclasses
import functools
import os
import time

import numpy as np

# (name, unit, better) of every per-layer metric, in report order.  Layer
# names follow the modules; ``integrate`` is ``mvgame._integrate``.
LAYER_METRICS = [
    ("integrate.rk4.calls", "count", "lower"),
    ("integrate.rk4.steps", "count", "lower"),
    ("integrate.rk4.s", "s", "lower"),
    ("equilibrium.solve_coefficients.calls", "count", "lower"),
    ("equilibrium.solve_coefficients.distinct", "count", "lower"),
    ("equilibrium.solve_coefficients.s", "s", "lower"),
    ("equilibrium.solve_a_coeffs.s", "s", "lower"),
    ("equilibrium.solve_b_coeffs.s", "s", "lower"),
    ("equilibrium.coefficient_set_build.s", "s", "lower"),
    ("equilibrium.policy_quantile.calls", "count", "lower"),
    ("equilibrium.policy_quantile.s", "s", "lower"),
    ("equilibrium.policy_mean.calls", "count", "lower"),
    ("equilibrium.policy_mean.s", "s", "lower"),
    ("policy_iter.response_iterations", "count", "lower"),
    ("policy_iter.iterate_response.s", "s", "lower"),
    ("policy_iter.mean_iteration.s", "s", "lower"),
    ("market.sim.calls", "count", "lower"),
    ("market.sim.paths", "count", "lower"),
    ("market.sim.s", "s", "lower"),
    ("market.sim_bytes_computed", "B", "lower"),
    ("market.run_episode_batch.s", "s", "lower"),
    ("market.episode_generator.calls", "count", "lower"),
    ("market.episode_generator.s", "s", "lower"),
    ("choquet.h_prime.normal.s", "s", "lower"),
    ("choquet.h_prime.normal.elements", "count", "lower"),
    ("choquet.h_prime.gini.s", "s", "lower"),
    ("choquet.h_prime.gini.elements", "count", "lower"),
    ("rl.phase.simulate.s", "s", "lower"),
    ("rl.phase.critic.s", "s", "lower"),
    ("rl.phase.actor.s", "s", "lower"),
    ("rl.phase.other.s", "s", "lower"),
    ("rl.critic_features.calls_per_episode", "1/episode", "lower"),
    ("rl.critic_features.s", "s", "lower"),
    ("rl.lstd_add_episode.s", "s", "lower"),
    ("rl.lstd_solve.s", "s", "lower"),
    ("rl.td_errors.s", "s", "lower"),
    ("rl.actor_gradient.s", "s", "lower"),
    ("rl.adam_step.s", "s", "lower"),
    ("rl.episode_ms.p50", "ms", "lower"),
    ("rl.episode_ms.p99", "ms", "lower"),
    ("rl.episode_ms.samples", "count", "higher"),
    ("rl.skipped_episodes", "count", "lower"),
    ("rl.episodes_attempted", "count", "higher"),
    ("config.parse_config.s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("cli.csv_write.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Metrics that are exact counts: two traced runs of one program and seed
# must agree on them bit for bit.
COUNT_METRICS = [name for name, unit, _ in LAYER_METRICS
                 if unit == "count" and not name.startswith("trace.")] \
    + ["rl.critic_features.calls_per_episode", "market.sim_bytes_computed",
       "cli.output_bytes"]

_PHASES = ("simulate", "critic", "actor", "other")
# Spans whose self time is summed into rl.td_errors.s.
_TD_SPANS = ("rl.td_errors", "rl.td_errors_from_states")


class Tracer:
    """In-memory spans, counters and rl phase boundaries of one operation."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.solve_keys: set = set()
        # (time, phase) marks; a phase lasts until the next mark.
        self.marks: list[tuple[float, str]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def mark(self, phase: str, when: float | None = None) -> None:
        self.marks.append((time.perf_counter() if when is None else when, phase))

    # -- aggregation -------------------------------------------------------

    def span_table(self):
        """{name: (calls, total seconds, self seconds)} over recorded spans."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(dur))
        parent = np.asarray(self.parent, dtype=int)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        table: dict[str, list] = {}
        for name, d, c in zip(self.names, dur, child):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += d - c
        return {k: tuple(v) for k, v in table.items()}

    def phase_times(self, op_start: float, op_end: float) -> dict[str, float]:
        """Seconds per rl phase between consecutive marks; the time before the
        first mark and after an ``other`` mark counts as ``other``."""
        out = dict.fromkeys(_PHASES, 0.0)
        points = [(op_start, "other")] + sorted(self.marks) + [(op_end, "other")]
        for (t0, phase), (t1, _) in zip(points, points[1:]):
            out[phase] += t1 - t0
        return out

    def episode_ms(self) -> list[float]:
        """Per-episode wall in ms: from one episode's generator call to the
        next, the last episode of a run ending at ``rl.train``'s return."""
        out = []
        prev = None
        for t, phase in sorted(self.marks):
            if phase == "simulate" and prev is not None:
                out.append(1e3 * (t - prev))
            if phase == "simulate":
                prev = t
            elif phase == "other" and prev is not None:
                out.append(1e3 * (t - prev))
                prev = None
        return out

    def layer_metrics(self, op_start: float, op_end: float) -> dict[str, float]:
        """Every per-layer metric of one traced operation (0 where a layer
        did not run)."""
        spans = self.span_table()

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return spans.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return spans.get(name, (0, 0.0, 0.0))[2]

        c = self.counts
        # no marks: rl did not run, and no phase applies
        phases = self.phase_times(op_start, op_end) if self.marks else \
            dict.fromkeys(_PHASES, 0.0)
        episodes = c.get("rl.episodes_attempted", 0)
        ep_ms = self.episode_ms()
        m = {
            "integrate.rk4.calls": calls("integrate.rk4"),
            "integrate.rk4.steps": c.get("integrate.rk4.steps", 0),
            "integrate.rk4.s": total("integrate.rk4"),
            "equilibrium.solve_coefficients.calls": calls("equilibrium.solve_coefficients"),
            "equilibrium.solve_coefficients.distinct": len(self.solve_keys),
            "equilibrium.solve_coefficients.s": total("equilibrium.solve_coefficients"),
            "equilibrium.solve_a_coeffs.s": total("equilibrium.solve_a_coeffs"),
            "equilibrium.solve_b_coeffs.s": total("equilibrium.solve_b_coeffs"),
            "equilibrium.coefficient_set_build.s": total("equilibrium.coefficient_set_build"),
            "equilibrium.policy_quantile.calls": calls("equilibrium.policy_quantile"),
            "equilibrium.policy_quantile.s": total("equilibrium.policy_quantile"),
            "equilibrium.policy_mean.calls": calls("equilibrium.policy_mean"),
            "equilibrium.policy_mean.s": total("equilibrium.policy_mean"),
            "policy_iter.response_iterations": calls("policy_iter.iterate_response"),
            "policy_iter.iterate_response.s": total("policy_iter.iterate_response"),
            "policy_iter.mean_iteration.s": total("policy_iter.mean_iteration"),
            "market.sim.calls": calls("market.sim"),
            "market.sim.paths": c.get("market.sim.paths", 0),
            "market.sim.s": total("market.sim"),
            "market.sim_bytes_computed": c.get("market.sim_bytes_computed", 0),
            "market.run_episode_batch.s": total("market.run_episode_batch"),
            "market.episode_generator.calls": calls("market.episode_generator"),
            "market.episode_generator.s": total("market.episode_generator"),
            "choquet.h_prime.normal.s": total("choquet.h_prime.normal"),
            "choquet.h_prime.normal.elements": c.get("choquet.h_prime.normal.elements", 0),
            "choquet.h_prime.gini.s": total("choquet.h_prime.gini"),
            "choquet.h_prime.gini.elements": c.get("choquet.h_prime.gini.elements", 0),
            **{f"rl.phase.{phase}.s": phases[phase] for phase in _PHASES},
            "rl.critic_features.calls_per_episode":
                calls("rl.critic_features") / episodes if episodes else 0.0,
            "rl.critic_features.s": total("rl.critic_features"),
            "rl.lstd_add_episode.s": total("rl.lstd_add_episode"),
            "rl.lstd_solve.s": total("rl.lstd_solve"),
            "rl.td_errors.s": sum(self_s(name) for name in _TD_SPANS),
            "rl.actor_gradient.s": total("rl.actor_gradient"),
            "rl.adam_step.s": total("rl.adam_step"),
            "rl.episode_ms.p50": float(np.percentile(ep_ms, 50)) if ep_ms else 0.0,
            "rl.episode_ms.p99": float(np.percentile(ep_ms, 99)) if ep_ms else 0.0,
            "rl.episode_ms.samples": len(ep_ms),
            "rl.skipped_episodes": c.get("rl.skipped_episodes", 0),
            "rl.episodes_attempted": episodes,
            "config.parse_config.s": total("config.parse_config"),
            "cli.csv_write.s": total("cli.csv_write") + c.get("cli.csv_writerow.s", 0.0),
            "trace.spans": len(self.names),
        }
        return {k: float(v) for k, v in m.items()}


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span named ``name``; ``before(args, kwargs)`` and
    ``after(result)`` record counts outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result)
        return result

    return wrapper


def _lam_signature(agent, horizon):
    ts = np.linspace(0.0, horizon, 5)
    return tuple(float(agent.lam(t)) for t in ts)


def _solve_key(args, kwargs):
    """Inputs of one solve_coefficients call, compared by value."""
    agents, market, horizon = args[:3]
    grid = args[3] if len(args) > 3 else kwargs.get("grid_size")
    return (market, float(horizon), grid) + tuple(
        (a.gamma, a.k, a.distortion.name, _lam_signature(a, horizon))
        for a in agents)


class _TimedCsv:
    """Stand-in for the ``csv`` module inside ``mvgame.cli``: its writers
    time every ``writerow``, since cli writes the density and learned-curve
    rows inline.  The library's own CSV exporters are spans instead."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def writer(self, fh, *args, **kwargs):
        inner = _csv.writer(fh, *args, **kwargs)
        tracer = self._tracer

        class _Writer:
            def writerow(self, row):
                t0 = time.perf_counter()
                try:
                    return inner.writerow(row)
                finally:
                    tracer.count("cli.csv_writerow.s", time.perf_counter() - t0)

        return _Writer()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    from mvgame import choquet, cli, config, equilibrium, market, policy_iter, rl

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(owner, attr, name, before=None, after=None):
        patch(owner, attr, _span(tracer, name, getattr(owner, attr), before, after))

    def rk4_steps(args, kwargs):
        tracer.count("integrate.rk4.steps", (len(args[0]) - 1) // 2)

    def sim_sizes(args, kwargs):
        cfg, n_paths = args[1], args[2]
        n = cfg.n_steps
        tracer.count("market.sim.paths", n_paths)
        # computed, not measured: the two normal draws plus the two returned
        # (n_paths, n_steps+1) paths, 8 bytes per float64
        tracer.count("market.sim_bytes_computed", 8 * n_paths * (2 * n + 2 * (n + 1)))

    def direct_critic_features(args, kwargs):
        # rl.train computes an agent's critic features itself just before
        # add_episode; that call already belongs to the critic phase.
        if tracer.innermost() == "rl.train":
            tracer.mark("critic")

    def train_done(result):
        tracer.mark("other")
        tracer.count("rl.skipped_episodes", result.skipped_episodes)
        tracer.count("rl.episodes_attempted", result.episodes_run)

    def traced_distortion(make):
        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            dist = make(*args, **kwargs)
            name = f"choquet.h_prime.{dist.name}"
            inner = dist.h_prime

            def h_prime(p):
                tracer.count(name + ".elements", np.size(p))
                idx = tracer.open(name)
                try:
                    return inner(p)
                finally:
                    tracer.close(idx)

            return dataclasses.replace(dist, h_prime=h_prime)

        return wrapper

    for owner in (equilibrium, policy_iter):
        span(owner, "rk4_backward_affine", "integrate.rk4", before=rk4_steps)
    span(equilibrium, "solve_coefficients", "equilibrium.solve_coefficients",
         before=lambda a, k: tracer.solve_keys.add(_solve_key(a, k)))
    span(equilibrium, "solve_a_coeffs", "equilibrium.solve_a_coeffs")
    span(equilibrium, "solve_b_coeffs", "equilibrium.solve_b_coeffs")
    span(equilibrium.CoefficientSet, "__post_init__", "equilibrium.coefficient_set_build")
    span(equilibrium.CoefficientSet, "to_csv", "cli.csv_write")
    span(equilibrium.EquilibriumPolicy, "quantile", "equilibrium.policy_quantile")
    span(equilibrium.EquilibriumPolicy, "mean", "equilibrium.policy_mean")
    span(policy_iter, "iterate_response", "policy_iter.iterate_response")
    span(policy_iter, "simultaneous_mean_iteration", "policy_iter.mean_iteration")
    span(policy_iter, "export_history_csv", "cli.csv_write")
    # rl and market each resolve the simulator through their own attribute.
    span(rl, "_state_and_price_batch", "market.sim", before=sim_sizes)
    span(market, "_state_and_price_batch", "market.sim", before=sim_sizes)
    span(market, "run_episode_batch", "market.run_episode_batch")
    span(rl, "episode_generator", "market.episode_generator",
         before=lambda a, k: tracer.mark("simulate"))
    span(rl.LstdAccumulator, "add_episode", "rl.lstd_add_episode",
         before=lambda a, k: tracer.mark("critic"))
    span(rl.LstdAccumulator, "solve", "rl.lstd_solve",
         after=lambda r: tracer.mark("actor"))
    span(rl, "train", "rl.train", after=train_done)
    span(rl, "critic_features", "rl.critic_features", before=direct_critic_features)
    span(rl, "td_errors", "rl.td_errors")
    span(rl, "td_errors_from_states", "rl.td_errors_from_states")
    span(rl, "actor_gradient", "rl.actor_gradient")
    span(rl, "adam_step", "rl.adam_step")
    span(rl, "write_metrics_csv", "cli.csv_write")
    span(rl, "save_checkpoint", "cli.csv_write")
    patch(cli, "csv", _TimedCsv(tracer))
    # cli imported parse_config by name; the benchmark's own set-up calls it
    # through the config module.
    span(cli, "parse_config", "config.parse_config")
    span(config, "parse_config", "config.parse_config")
    patch(choquet, "make_distortion", traced_distortion(choquet.make_distortion))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def dir_bytes(path: str) -> int:
    """Total size of the regular files under ``path``."""
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def same_tree(a: str, b: str) -> list[str]:
    """Relative paths whose bytes differ between two output directories."""
    files_a = {os.path.relpath(os.path.join(r, f), a)
               for r, _, fs in os.walk(a) for f in fs}
    files_b = {os.path.relpath(os.path.join(r, f), b)
               for r, _, fs in os.walk(b) for f in fs}
    diff = sorted(files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        with open(os.path.join(a, rel), "rb") as fa, open(os.path.join(b, rel), "rb") as fb:
            if fa.read() != fb.read():
                diff.append(rel)
    return diff


