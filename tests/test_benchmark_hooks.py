"""The benchmark tracer in ``perfbench/tracing.py`` wraps library functions
by attribute name.  Entering it here makes a rename or deletion of any name
it patches fail in this suite, not only in a traced benchmark run."""

import importlib.util
import os

from mvgame import choquet, cli, config, equilibrium, market, policy_iter, rl

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    tracing = _load_tracing()
    owners = (choquet, cli, config, equilibrium, market, policy_iter, rl,
              rl.LstdAccumulator, equilibrium.CoefficientSet,
              equilibrium.EquilibriumPolicy)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.installed(tracing.Tracer()):
        assert rl.train is not before[owners.index(rl)]["train"]
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys(), owner
        assert all(after[name] is value for name, value in saved.items()), owner


def test_tracer_counts_rk4_scans_of_one_solve(agents_long, bench_market):
    """perfbench's ``integrate.rk4`` span wraps ``rk4_backward_affine`` in
    both modules that import it and counts steps from ``len(args[0])``: one
    solve runs one a0 quadrature and one b-system per agent."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        equilibrium.solve_coefficients(agents_long, bench_market, 20.0, 401)
    assert tracer.span_table()["integrate.rk4"][0] == 4
    assert tracer.counts["integrate.rk4.steps"] == 1600
