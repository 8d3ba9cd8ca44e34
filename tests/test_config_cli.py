import csv
import math
import os
import re
import tempfile
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mvgame import cli, rl
from mvgame.config import ConfigError, parse_config, parse_config_text, serialize_config

from presets import CONFIGS, preset, preset_path, preset_text, run_fresh


@pytest.fixture(scope="module")
def t1_text():
    return preset_text("table1")


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", ["table1", "table2"],
                             ids=["table1_config", "table2_config"])
    def test_parse_serialize_identity(self, name):
        cfg = preset(name)
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_double_round_trip_is_stable(self):
        text = serialize_config(preset("table2"))
        again = serialize_config(parse_config_text(text))
        assert text == again

    def test_reads_from_file(self, tmp_path, t1_text):
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text)
        assert parse_config(path) == parse_config_text(t1_text)


class TestConfigValidation:
    def test_unknown_key_rejected(self, t1_text):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(t1_text + "\n[market]\nbogus = 1\n"
                              if "[market]" not in t1_text else
                              t1_text.replace("[market]\n", "[market]\nbogus = 1\n"))

    def test_unknown_section_rejected(self, t1_text):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text(t1_text + "\n[mystery]\nx = 1\n")

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError, match="missing sections"):
            parse_config_text("[market]\nsigma = 0.01\n")

    def test_bad_type_rejected(self, t1_text):
        with pytest.raises(ConfigError, match="not a valid"):
            parse_config_text(t1_text.replace("sigma = 0.15", "sigma = abc"))

    def test_bad_distortion_rejected(self, t1_text):
        with pytest.raises(ConfigError):
            parse_config_text(t1_text.replace("distortion = normal",
                                              "distortion = cauchy"))

    def test_invariants_enforced(self, t1_text):
        with pytest.raises(ConfigError):
            parse_config_text(t1_text.replace("rho = -0.93", "rho = -1.5"))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "missing.ini")

    @pytest.mark.parametrize("section,key,value,message", [
        ("agent1", "gamma", "-1.0", "gamma must be positive, got -1.0"),
        ("agent2", "k", "1.5", "k must lie in [0, 1), got 1.5"),
        ("agent1", "lambda0", "-0.01", "lambda0 must be positive, got -0.01"),
    ])
    def test_agent_parameters_checked_when_parsed(self, t1_text, section, key,
                                                  value, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(_set_key(t1_text, section, key, value))
        assert str(info.value) == f"[{section}] {message}"

    @pytest.mark.parametrize("key", ["gamma", "k", "lambda0"])
    def test_nan_agent_parameter_rejected(self, key):
        agent = preset("table1").agent1
        with pytest.raises(ConfigError, match=f"^{key} must"):
            replace(agent, **{key: float("nan")})


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(CONFIGS) if n.endswith(".ini")))
def test_shipped_configs_parse(name):
    """Each shipped config is its own serialization, byte for byte, so a
    config written by ``serialize_config`` reads like the shipped file."""
    with open(os.path.join(CONFIGS, name)) as fh:
        text = fh.read()
    assert serialize_config(parse_config_text(text)) == text


def test_module_entry_point_has_no_runtime_warning():
    """``python -m mvgame.cli`` runs without the double-import warning."""
    proc = run_fresh("-W", "error::RuntimeWarning", "-m", "mvgame.cli", "--help")
    assert proc.returncode == 0, proc.stderr


def _set_key(text, section, key, value):
    """``text`` with ``key`` of ``[section]`` set to ``value``."""
    head, sep, rest = text.partition(f"[{section}]\n")
    body, nxt, tail = rest.partition("\n[")
    body, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", body, flags=re.M)
    assert n == 1, (section, key)
    return head + sep + body + nxt + tail


# One boundary case of ``mvgame command --config <file> --out <dir> *argv``.
# The file is the config text ``base`` with ``edits`` {(section, key): value}
# applied; a None base writes no file.  ``err`` is the whole of stderr (None:
# empty), or, ending in "...", the prefix of its one line.  A ``fresh`` row
# runs in a fresh process, where numpy's warnings would reach stderr.
Row = namedtuple("Row", "id base edits command code err argv fresh", defaults=((), False))

T1, T2 = preset_text("table1"), preset_text("table2")
_CFG2 = preset("table2")
TINY = serialize_config(replace(_CFG2, replications=1, train=replace(
    _CFG2.train, episodes=5, critic_warmup=1, n_steps=10)))
EVIDENCE = {"iterate": ["iteration_agent1.csv", "iteration_agent2.csv"],
            "train": ["checkpoint.txt", "learned_vs_true.csv", "training_metrics.csv"]}
ROWS = []  # every row of every test below


def _files(out):
    """The names in directory ``out``; none when it is not a directory."""
    return sorted(os.listdir(out)) if os.path.isdir(out) else []


def run_row(row, tmp_path, capsys):
    """Run ``row`` and check its exit code, its stderr and what it left in
    ``--out``: exit 2 no directory, exit 4 no file, exit 3 its evidence."""
    path, out = tmp_path / "cfg.ini", tmp_path / "o"
    if row.base is not None:
        text = row.base
        for (section, key), value in row.edits.items():
            text = _set_key(text, section, key, value)
        path.write_text(text)
    argv = [row.command, "--config", str(path), "--out", str(out), *row.argv]
    if row.fresh:
        proc = run_fresh("-m", "mvgame.cli", *argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = cli.main(argv), capsys.readouterr().err
    assert code == row.code, err
    if row.err is not None and row.err.endswith("..."):
        assert err.startswith(row.err[:-3]) and err.count("\n") == 1, err
    else:
        assert err == ("" if row.err is None else row.err + "\n")
    if code == 2:
        assert not out.exists()
    elif code in (3, 4):
        assert _files(out) == (EVIDENCE[row.command] if code == 3 else [])


def _rows(*rows):
    """A test that runs ``rows``, one case per row id, or a plain test for
    one row without an id.  The rows join ``ROWS``."""
    ROWS.extend(rows)
    if rows[0].id is None:
        def test(tmp_path, capsys):
            run_row(rows[0], tmp_path, capsys)
    else:
        @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
        def test(row, tmp_path, capsys):
            run_row(row, tmp_path, capsys)
    return staticmethod(test)


def _exit_2(section, key, value, message=None):
    """A bad ``train`` input: config ``key`` of ``[section]`` or, with no
    section, the option ``key``.  A non-finite value's message is implied."""
    edits, argv = ({}, (key, value)) if section is None else ({(section, key): value}, ())
    message = message or f"[{section}] {key} = {value!r} is not a finite number"
    return Row(f"{section}-{key}-{value}", TINY, edits, "train", 2, f"config error: {message}",
               argv)


_GAMMA = {("agent1", "gamma"): "1e-300"}
_RATE_EDITS = {**_GAMMA, ("market", "rho"): "0.0", ("market", "iota"): "1e-30"}
_RATE = "numerical failure: the rate iota + rho*v = -9.3e+199: its square overflows"
_RATE_PRODUCT = ("numerical failure: gamma = 1e-300 times the rate iota + rho*v = 1e-30: "
                 "the product underflows to 0")
_STD_PRODUCT = ("numerical failure: gamma = 1e-300 times the squared [market] sigma = 1e-20: "
                "the product underflows to 0")
_MEAN_PRODUCT = ("numerical failure: gamma = 1e-300 times the [market] sigma = 1e-30: the "
                 "product underflows to 0")
_SIGMA_SQUARE = "numerical failure: [market] sigma = 1e+200: its square overflows"
_TINY_SIGMA = "numerical failure: [market] sigma = 1e-300: its square underflows to 0"
_NO_DENSITY = "numerical failure: agent {}: the exploration std at t = 0.1 is 0.0: no density"
# A horizon whose first response iterate is finite but overflows its spline fit.
_SPLINE_OVERFLOW = {("sim", "horizon"): "1e160", ("market", "iota"): "0.0",
                    ("market", "rho"): "0.5"}
_TOL = "agent {} response iteration did not reach tol=1e-06 within 25 iterations"

# Every command divides by sigma, so sigma = 0 is rejected where the config
# is read.
test_zero_sigma_is_a_config_error = _rows(*(
    Row(command, T1, {("market", "sigma"): "0.0"}, command, 2,
        "config error: [market] sigma must be positive, got 0.0")
    for command in ("equilibrium", "iterate", "train", "simulate")))
# A negative seed is rejected where it enters, from either section or from
# --seed, which sets both, before any command creates --out.
test_negative_seed_is_a_config_error = _rows(*(
    Row(f"{source}-{command}", T1, edits, command, 2, f"config error: {message}", argv)
    for source, edits, argv, message in (
        ("sim", {("sim", "seed"): "-5"}, (), "[sim] seed must be >= 0, got -5"),
        ("train", {("train", "seed"): "-5"}, (), "[train] seed must be >= 0, got -5"),
        ("option", {}, ("--seed", "-1"), "seed must be >= 0, got -1"))
    for command in ("equilibrium", "iterate", "train", "simulate")))
# Adam's decays and guard are constants, not config keys.
test_adam_constants_are_not_config_keys = _rows(*(
    Row(key, T1.replace("[train]\n", f"[train]\n{key} = 0.9\n"), {}, "train", 2,
        f"config error: unknown key {key!r} in section [train]")
    for key in ("beta1", "beta2", "eps")))
# Wealth and prices are discounted, so the risk-free rate is not a key.
test_risk_free_rate_is_not_a_config_key = _rows(*(
    Row(command, T2.replace("[market]\n", "[market]\nr = 0.017\n"), {}, command, 2,
        "config error: unknown key 'r' in section [market]")
    for command in ("equilibrium", "iterate", "train", "simulate")))
# The critic's basis size is a constant of rl.train, not a key.
test_critic_dim_is_not_a_config_key = _rows(*(
    Row(command, T2.replace("[train]\n", "[train]\ncritic_dim = 2\n"), {}, command, 2,
        "config error: unknown key 'critic_dim' in section [train]")
    for command in ("equilibrium", "iterate", "train", "simulate")))
test_cli_boundary = _rows(
    # the last --out wins; makedirs refuses an existing file
    Row("out-is-a-file", T1, {}, "equilibrium", 2, "config error: [Errno 17] File exists: ...",
        ("--out", preset_path("table1"))),
    # At a horizon of 1e-320 the 4001-point solve grid rounds to repeated t.
    *(Row(f"{command}-subnormal-horizon", T1, {("sim", "horizon"): "1e-320"}, command, 4,
          "numerical failure: the 4001-point solve grid on [0, 1e-320] is not strictly "
          "increasing")
      for command in ("equilibrium", "iterate")),
    # agent 2's response iterates overflow after agent 1's have converged
    Row("iterate-agent-2-overflow", T1, {("agent2", "gamma"): "5e-308"}, "iterate", 4,
        "numerical failure: agent 2: response iterate: coefficient a2 is not finite"),
    # the means reach 1e51, where the response iterations cannot get to tol
    Row("iterate-certificate-failure", T1,
        {("market", "iota"): "0.01", ("market", "rho"): "-1.0", ("market", "v"): "3.0"},
        "iterate", 3, (f"certificate FAILED: {_TOL.format(1)}\n"
                       f"certificate FAILED: {_TOL.format(2)}\n"
                       f"certificate failure: {_TOL.format(1)}; {_TOL.format(2)}")))


class TestTrainInputRejected:
    """Bad training input exits 2 with a config error, before any training."""

    test_exit_2 = _rows(
        _exit_2("train", "episodes", "-1", "[train] episodes must be >= 0, got -1"),
        _exit_2("train", "n_steps", "0", "[train] n_steps must be >= 1, got 0"),
        _exit_2("train", "horizon", "0.0", "[train] horizon must be positive, got 0.0"),
        _exit_2("train", "horizon", "nan"),
        _exit_2("train", "critic_warmup", "-1", "[train] critic_warmup must be >= 0, got -1"),
        _exit_2("train", "max_skip_fraction", "2.0",
                "[train] max_skip_fraction must be in [0, 1], got 2.0"),
        _exit_2("train", "max_skip_fraction", "-0.1",
                "[train] max_skip_fraction must be in [0, 1], got -0.1"),
        _exit_2("output", "replications", "-1", "replications must be >= 0, got -1"),
        _exit_2("output", "train_band", "-1.0", "train_band must be positive, got -1.0"),
        _exit_2("output", "train_band", "0.0", "train_band must be positive, got 0.0"),
        _exit_2("market", "sigma", "nan"),
        _exit_2("agent1", "gamma", "inf"),
        _exit_2("agent2", "lambda0", "-inf"),
        _exit_2("sim", "x1_0", "nan"),
        _exit_2("train", "x2_0", "nan"),
        _exit_2("train", "y_0", "nan"),
        _exit_2(None, "--replications", "-1", "--replications must be >= 0, got -1"),
        _exit_2(None, "--workers", "0", "--workers must be >= 1, got 0"),
        _exit_2(None, "--workers", "-3", "--workers must be >= 1, got -3"))


class TestCliErrors:
    test_bad_config_exit_2 = _rows(
        Row(None, "[market]\nsigma = 0.01\n", {}, "simulate", 2,
            "config error: missing sections: agent1, agent2, sim, train, output"))
    test_missing_file_exit_2 = _rows(
        Row(None, None, {}, "iterate", 2, "config error: cannot read config file ..."))
    # An impossible tolerance band fails a run that trains.
    test_band_violation_exit_3 = _rows(
        Row(None, T1, {("train", "episodes"): "30", ("train", "critic_warmup"): "5",
                       ("sim", "n_steps"): "30", ("train", "n_steps"): "30",
                       ("output", "replications"): "1", ("output", "train_band"): "1e-09"},
            "train", 3, "certificate failure: learned mean curves deviate ..."))
    test_simulation_divergence_exit_4 = _rows(
        Row(None, T2, {("market", "v"): "50.0"}, "simulate", 4,
            "simulation divergence: wealth exceeded guard threshold"))
    # Agent 1's exploration weight (lambda0 = 60 overflows at T = 20) or risk
    # aversion drives its b-coefficients to inf.
    test_non_finite_coefficients_exit_4 = _rows(*(
        Row(f"{key}-{value}", T1, {("agent1", key): value}, "equilibrium", 4,
            "numerical failure: agent 1: coefficient b0 is not finite")
        for key, value in (("lambda0", "60"), ("gamma", "1e-300"))))
    # A huge perturbation scale drives the actors to overflow.
    test_training_divergence_prints_no_numpy_warning = _rows(
        Row(None, T2, {("output", "replications"): "1", ("train", "episodes"): "40",
                       ("train", "critic_warmup"): "5", ("train", "kappa"): "1e6"},
            "train", 4, "training divergence: ...", fresh=True))
    # Agent 1's exponential schedule overflows at T = 20 with lambda0 = 60.
    test_overflowing_schedule_prints_no_numpy_warning = _rows(
        Row("equilibrium", T1, {("agent1", "lambda0"): "60"}, "equilibrium", 4,
            "numerical failure: agent 1: coefficient b0 is not finite", fresh=True),
        Row("simulate", T1, {("agent1", "lambda0"): "60"}, "simulate", 4,
            "simulation divergence: simulation produced non-finite values", fresh=True))
    # A square that overflows, or a divisor's square that underflows to 0,
    # names its [market] key or the rate; a command that never squares the
    # parameter keeps its exit code.
    test_python_float_failure_names_the_term = _rows(
        Row("sigma-equilibrium", TINY, {("market", "sigma"): "1e200"}, "equilibrium", 4,
            _SIGMA_SQUARE),
        Row("sigma-simulate", TINY, {("market", "sigma"): "1e200"}, "simulate", 4,
            _SIGMA_SQUARE),
        Row("sigma-train", TINY, {("market", "sigma"): "1e200"}, "train", 4, _SIGMA_SQUARE),
        Row("tiny-sigma-equilibrium", TINY, {("market", "sigma"): "1e-300"}, "equilibrium", 4,
            _TINY_SIGMA),
        Row("tiny-sigma-simulate", TINY, {("market", "sigma"): "1e-300"}, "simulate", 4,
            _TINY_SIGMA),
        Row("rate-equilibrium", TINY, {("market", "v"): "1e200"}, "equilibrium", 4, _RATE),
        Row("v-equilibrium", TINY, {("market", "v"): "1e200", ("market", "rho"): "0.0"},
            "equilibrium", 4, "numerical failure: [market] v = 1e+200: its square overflows"),
        Row("sigma-iterate", TINY, {("market", "sigma"): "1e200"}, "iterate", 0, None),
        Row("tiny-sigma-iterate", TINY, {("market", "sigma"): "1e-300"}, "iterate", 0, None))
    # The same failing squares, one in-process case per key, value and
    # command; v-1e200-iterate and v-1e200-train also run fresh below.
    test_python_float_failure_exit_4 = _rows(*(
        Row(f"{key}-{value}-{command}", TINY, {("market", key): value}, command, 4, line)
        for key, value, command, line in (
            ("sigma", "1e-300", "simulate", _TINY_SIGMA),
            ("sigma", "1e-300", "equilibrium", _TINY_SIGMA),
            ("sigma", "1e200", "simulate", _SIGMA_SQUARE),
            ("sigma", "1e200", "equilibrium", _SIGMA_SQUARE),
            ("sigma", "1e200", "train", _SIGMA_SQUARE),
            ("v", "1e200", "equilibrium", _RATE),
            ("v", "1e200", "iterate", _RATE),
            ("v", "1e200", "train", _RATE))))
    # An overflowing closed form, response-iterate spline or RK4 iterate.
    test_iterate_and_train_print_no_numpy_warning = _rows(
        Row("v-iterate", TINY, {("market", "v"): "1e200"}, "iterate", 4, _RATE, fresh=True),
        Row("v-train", TINY, {("market", "v"): "1e200"}, "train", 4, _RATE, fresh=True),
        Row("horizon-iterate", T1, _SPLINE_OVERFLOW, "iterate", 4,
            "numerical failure: agent 1: response iterate: coefficient a2: ...", fresh=True),
        Row("horizon-rk4-iterate", T1, {("sim", "horizon"): "1e160"}, "iterate", 4,
            "numerical failure: agent 1: response iterate: coefficient a2 is not finite",
            fresh=True))
    # A horizon of 1e6 overflows the response iteration's RK4 iterates.
    test_non_finite_response_iterate_exit_4 = _rows(
        Row(None, T2, {("sim", "horizon"): "1e6"}, "iterate", 4,
            "numerical failure: agent 1: response iterate: coefficient a2 is not finite",
            fresh=True))
    # At a horizon of 1e160 with iota = 0, RK4 keeps the first iterate finite,
    # but its a2 grows like 2 tau / gamma, about 1e160, and the spline through
    # it overflows its slopes on the 2.5e156 grid step.
    test_overflowing_spline_fit_exit_4 = _rows(
        Row(None, T2, _SPLINE_OVERFLOW, "iterate", 4,
            "numerical failure: agent 1: response iterate: coefficient a2: ..."))
    # With agent 1's gamma = 1e-300, gamma times the rate iota + rho*v, or
    # times sigma^2, underflows to a zero divisor.  In ``iterate``, y / (gamma
    # sigma) overflows first: the mean iteration reports it as the same
    # underflow, or, with sigma = 1e-10 (gamma sigma^2 = 1e-320 is not 0), as
    # a response mean that is not finite.  With sigma = 1e-30, gamma sigma
    # itself underflows to 0, and ``iterate`` and ``train``, which start from
    # the closed-form means, name that product.
    test_underflowing_gamma_product_names_the_term = _rows(
        Row("rate-iterate", T2, _RATE_EDITS, "iterate", 4, _RATE_PRODUCT, fresh=True),
        Row("rate-equilibrium", T2, _RATE_EDITS, "equilibrium", 4, _RATE_PRODUCT, fresh=True),
        Row("rate-simulate", T2, _RATE_EDITS, "simulate", 4, _RATE_PRODUCT, fresh=True),
        Row("std-equilibrium", T2, {**_GAMMA, ("market", "sigma"): "1e-20"}, "equilibrium", 4,
            _STD_PRODUCT, fresh=True),
        Row("std-simulate", T2, {**_GAMMA, ("market", "sigma"): "1e-20"}, "simulate", 4,
            _STD_PRODUCT, fresh=True),
        Row("std-iterate", T2, {**_GAMMA, ("market", "sigma"): "1e-20"}, "iterate", 4,
            _STD_PRODUCT, fresh=True),
        Row("mean-iterate", T2, {**_GAMMA, ("market", "sigma"): "1e-10"}, "iterate", 4,
            "numerical failure: agent 1: response mean is not finite", fresh=True),
        Row("mean-divisor-iterate", T2, {**_GAMMA, ("market", "sigma"): "1e-30"}, "iterate", 4,
            _MEAN_PRODUCT, fresh=True),
        Row("mean-divisor-train", T2, {**_GAMMA, ("market", "sigma"): "1e-30"}, "train", 4,
            _MEAN_PRODUCT, fresh=True))
    # gamma = 1e100 and lambda0 = 1e-300 make the agent's exploration std
    # underflow to 0, which has no density.
    test_zero_exploration_std_exit_4 = _rows(*(
        Row(law, T1, {(section, "gamma"): "1e100", (section, "lambda0"): "1e-300"},
            "equilibrium", 4, _NO_DENSITY.format(section[-1]), fresh=True)
        for law, section in (("normal", "agent1"), ("gini", "agent2"))))
    # At k1 = 0 agent 1's value coefficients leave out agent 2's std, so
    # agent 2's overflowing exploration weight fails agent 2's set only.
    test_zero_sensitivity_failure_names_the_opponent = _rows(
        Row(None, T2, {("agent1", "k"): "0.0", ("agent2", "lambda0"): "1e155"}, "equilibrium",
            4, "numerical failure: agent 2: coefficient b0 is not finite"))

    def test_divergence_exit_4(self, tmp_path, capsys, monkeypatch):
        def always_diverge(*args, **kwargs):
            raise rl.TrainingDivergedError("forced")

        monkeypatch.setattr(rl, "train", always_diverge)
        run_row(Row(None, TINY, {}, "train", 4, "training divergence: forced"), tmp_path,
                capsys)

    # The check sums rl.train's cap on each replication, ceil(max_skip_fraction
    # * episodes): one skip in 50 episodes is within a 1% cap.
    # The exit-4 line names the cap as a count of episodes, so a cap under
    # 0.5% does not print as 0%.
    @pytest.mark.parametrize("episodes,skips,max_skip,err", [
        pytest.param(100, 3, 0.01, "3/100 episodes skipped, more than the cap of 1: 1 per "
                     "replication (max_skip_fraction = 0.01 of 100 episodes, rounded up)",
                     id="0.01-4"),
        pytest.param(100, 3, 0.05, None, id="0.05-0"),
        pytest.param(50, 1, 0.01, None, id="50-episodes-1-skip"),
        pytest.param(1000, 5, 0.004, "5/1000 episodes skipped, more than the cap of 4: 4 per "
                     "replication (max_skip_fraction = 0.004 of 1000 episodes, rounded up)",
                     id="0.004-1000-5")])
    def test_aggregate_skip_check_reads_config(self, tmp_path, capsys, monkeypatch,
                                               episodes, skips, max_skip, err):
        cfg = preset("table2")
        cfg = replace(cfg, replications=1,
                      train=replace(cfg.train, episodes=episodes,
                                    max_skip_fraction=max_skip))
        agents = cfg.build_agents(cfg.train.horizon)
        # two agents, one replication: leading axes (2, 1) on every array
        phi = np.stack([np.tile(rl.equilibrium_actor_params(a, cfg.market),
                                (1, episodes + 1, 1)) for a in agents])

        def skips_some(args):
            return rl.TrainResult(
                phi_history=phi,
                theta=rl.CriticParams(v=np.zeros((2, 1, 3, 2)), g=np.zeros((2, 1, 3, 2))),
                critic_losses=np.zeros((2, 1, episodes)),
                adam_states=rl.AdamState.zeros((2, 1, 4)),
                skipped_episodes=skips, episodes_run=episodes)

        monkeypatch.setattr(cli, "_train_group", skips_some)
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == (0 if err is None else 4)
        # an exit-4 line stands alone on stderr
        assert capsys.readouterr().err == ("" if err is None else
                                           f"training divergence: {err}\n")
        if err is not None:
            assert _files(tmp_path / "o") == []

    def test_numerical_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        def singular(self, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(rl.LstdAccumulator, "solve", singular)
        run_row(Row(None, TINY, {}, "train", 4, "numerical failure: SVD did not converge"),
                tmp_path, capsys)


def test_rows_start_every_stderr_class():
    """Each kind of line ``cli.main`` reports a failure with starts a row."""
    kinds = {row.err.partition(":")[0] for row in ROWS if row.err}
    assert kinds >= {"config error", "numerical failure", "certificate failure",
                     "training divergence", "simulation divergence"}


_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_UNIT = st.floats(0.0, 1.0, exclude_max=True)
# Valid draws of each key; one key at a time may be replaced by a bad value.
_WIDE_VALID = {
    ("market", "sigma"): _MAGNITUDE, ("market", "v"): _MAGNITUDE,
    ("market", "rho"): st.floats(-1.0, 1.0),
    ("market", "iota"): st.one_of(st.just(0.0), _MAGNITUDE),
    ("agent1", "gamma"): _MAGNITUDE, ("agent1", "k"): _UNIT,
    ("agent1", "lambda0"): _MAGNITUDE,
    ("agent2", "gamma"): _MAGNITUDE, ("agent2", "k"): _UNIT,
    ("agent2", "lambda0"): _MAGNITUDE,
    ("sim", "horizon"): _MAGNITUDE, ("train", "horizon"): _MAGNITUDE,
}
_BAD_VALUE = st.tuples(st.sampled_from(sorted(_WIDE_VALID)), st.sampled_from(
    [0.0, -1.0, 1.0, 1.5, -1.5, math.nan, math.inf, -math.inf]))


@given(values=st.fixed_dictionaries(_WIDE_VALID), bad=st.one_of(st.none(), _BAD_VALUE),
       n_steps=st.integers(1, 10))
@settings(max_examples=50, phases=(Phase.explicit, Phase.generate))
def test_every_command_exits_with_a_defined_code(values, bad, n_steps):
    """Parameters from 1e-300 to 1e300, and one invalid value at times, at
    tiny sizes: every command exits 0, 2, 3 or 4, none raises, and exits 2
    and 4 add no file to the shared ``--out``.  Each example runs four
    commands, so a failing one is reported as drawn, not shrunk."""
    cfg = replace(preset("table2"), replications=1,
                  train=replace(preset("table2").train, episodes=3, critic_warmup=1))
    if bad is not None:
        values = {**values, bad[0]: bad[1]}
    text = serialize_config(cfg)
    for (section, key), value in values.items():
        text = _set_key(text, section, key, repr(value))
    for section in ("sim", "train"):
        text = _set_key(text, section, "n_steps", str(n_steps))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w") as f:
            f.write(text)
        out = os.path.join(tmp, "o")
        for command in ("simulate", "equilibrium", "iterate", "train"):
            before = _files(out)
            code = cli.main([command, "--config", path, "--out", out])
            assert code in (0, 2, 3, 4), (command, code)
            assert code in (0, 3) or _files(out) == before, (command, code)


class TestSimulateCommand:
    def test_writes_deterministic_trajectory(self, tmp_path, t1_text):
        cfg_text = t1_text.replace("n_steps = 250", "n_steps = 40")
        path = tmp_path / "cfg.ini"
        path.write_text(cfg_text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        b1 = (out1 / "trajectory.csv").read_bytes()
        b2 = (out2 / "trajectory.csv").read_bytes()
        assert b1 == b2
        rows = list(csv.DictReader(open(out1 / "trajectory.csv")))
        assert list(rows[0].keys()) == ["t", "y", "s_disc", "x1", "x2", "u1", "u2"]

    def test_seed_override_changes_output(self, tmp_path, t1_text):
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text.replace("n_steps = 250", "n_steps = 40"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(path), "--out", str(out1)])
        cli.main(["simulate", "--config", str(path), "--out", str(out2),
                  "--seed", "99"])
        assert (out1 / "trajectory.csv").read_bytes() != \
            (out2 / "trajectory.csv").read_bytes()


class TestIterateCommand:
    def test_certificates_hold_and_csv_written(self, tmp_path, t1_text):
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text)
        out = tmp_path / "o"
        assert cli.main(["iterate", "--config", str(path), "--out", str(out)]) == 0
        for i in (1, 2):
            rows = list(csv.DictReader(open(out / f"iteration_agent{i}.csv")))
            assert list(rows[0].keys()) == ["n", "sup_err_a1", "sup_err_a2",
                                            "factorial_bound", "sup_err_mu",
                                            "geometric_bound"]
            assert float(rows[-1]["sup_err_a2"]) < 1e-6

    def test_rho_zero_certified_at_first_iteration(self, tmp_path, t1_text):
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text.replace("rho = -0.93", "rho = 0.0"))
        out = tmp_path / "o"
        assert cli.main(["iterate", "--config", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "iteration_agent1.csv")))
        # history rows: n = 0 and n = 1 for the response iteration
        resp_rows = [r for r in rows if r["sup_err_a2"] != ""]
        assert len(resp_rows) == 2
        assert float(resp_rows[1]["sup_err_a2"]) < 1e-6

    def test_slack_scales_with_large_means(self, tmp_path, t1_text, capsys):
        # c = iota + rho v < 0 drives the means to 1e51, where the mean
        # iteration's error at n = 1 equals its bound up to one ulp.
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text.replace("iota = 0.27", "iota = 0.01")
                        .replace("rho = -0.93", "rho = -1.0").replace("v = 0.065", "v = 3.0"))
        assert cli.main(["iterate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "bound" not in err
        assert "did not reach tol" in err

    @pytest.mark.parametrize("engine", ["mean", "response"])
    def test_error_above_bound_fails_at_small_scale(self, tmp_path, t1_text, capsys,
                                                    monkeypatch, engine):
        """Rescale every error and bound so that the n = 0 error is 1e-10,
        then set the last error to 10 times its bound: an absolute slack of
        1e-9 would pass it."""
        if engine == "mean":
            def scaled(*args, **kwargs):
                hist = simultaneous(*args, **kwargs)
                c = 1e-10 / hist.iterates[0].sup_err
                hist.iterates = [replace(it, sup_err=c * it.sup_err, bound=c * it.bound)
                                 for it in hist.iterates]
                hist.iterates[-1].sup_err = 10.0 * hist.iterates[-1].bound
                return hist

            simultaneous = cli.pit.simultaneous_mean_iteration
            monkeypatch.setattr(cli.pit, "simultaneous_mean_iteration", scaled)
            want = "mean iteration error"
        else:
            def scaled(*args, **kwargs):
                hist = response(*args, **kwargs)
                c = 1e-10 / max(hist.iterates[0].sup_err_a1, hist.iterates[0].sup_err_a2)
                hist.iterates = [replace(it, sup_err_a1=c * it.sup_err_a1,
                                         sup_err_a2=c * it.sup_err_a2,
                                         bound_a1=c * it.bound_a1, bound_a2=c * it.bound_a2)
                                 for it in hist.iterates]
                hist.iterates[-1].sup_err_a2 = 10.0 * hist.iterates[-1].bound_a2
                return hist

            response = cli.pit.run_response_iteration
            monkeypatch.setattr(cli.pit, "run_response_iteration", scaled)
            want = "a2 error"
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text)
        assert cli.main(["iterate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert f"{want} " in capsys.readouterr().err


    @pytest.mark.parametrize("engine", ["mean", "response"])
    def test_nan_error_fails_the_certificate(self, tmp_path, t1_text, capsys,
                                             monkeypatch, engine):
        """A nan error compares False with its bound; it must fail the
        certificate, not pass it."""
        if engine == "mean":
            def with_nan(*args, **kwargs):
                hist = simultaneous(*args, **kwargs)
                hist.iterates[-1].sup_err = math.nan
                return hist

            simultaneous = cli.pit.simultaneous_mean_iteration
            monkeypatch.setattr(cli.pit, "simultaneous_mean_iteration", with_nan)
            want = "mean iteration error nan"
        else:
            def with_nan(*args, **kwargs):
                hist = response(*args, **kwargs)
                hist.iterates[-1].sup_err_a1 = math.nan
                return hist

            response = cli.pit.run_response_iteration
            monkeypatch.setattr(cli.pit, "run_response_iteration", with_nan)
            want = "agent 1 a1 error nan"
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text)
        assert cli.main(["iterate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert f"{want} > " in capsys.readouterr().err


class TestEquilibriumCommand:
    def test_outputs_and_density_normalization(self, tmp_path, t1_text):
        path = tmp_path / "cfg.ini"
        path.write_text(t1_text)
        out = tmp_path / "o"
        assert cli.main(["equilibrium", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "coefficients_agent1.csv").exists()
        assert (out / "coefficients_agent2.csv").exists()
        for i in (1, 2):
            rows = list(csv.DictReader(open(out / f"densities_agent{i}.csv")))
            groups = {}
            for r in rows:
                groups.setdefault((r["param"], r["value"], r["t"]), []).append(
                    (float(r["u"]), float(r["density"])))
            assert len(groups) >= 30
            for pts in groups.values():
                u = np.array([p[0] for p in pts])
                d = np.array([p[1] for p in pts])
                assert abs(np.trapezoid(d, u) - 1.0) < 1e-6
        # uniform laws are exactly flat on their support
        rows2 = list(csv.DictReader(open(out / "densities_agent2.csv")))
        dens_by_curve = {}
        for r in rows2:
            dens_by_curve.setdefault((r["param"], r["value"], r["t"]), []).append(
                float(r["density"]))
        for dens in dens_by_curve.values():
            assert len(set(dens)) == 1

    @staticmethod
    def _count_solves(monkeypatch):
        from mvgame import equilibrium as eqm
        solved = []
        inner = eqm.solve_coefficients

        def counting(*args, **kwargs):
            solved.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(eqm, "solve_coefficients", counting)
        return solved

    def test_one_solve_for_the_coefficient_csvs(self, tmp_path, monkeypatch):
        solved = self._count_solves(monkeypatch)
        out = tmp_path / "o"
        assert cli.cmd_equilibrium(preset("table1"), str(out)) == 0
        assert len(solved) == 1
        params = ["base", "k1", "gamma1", "k2", "gamma2"]
        for i in (1, 2):
            groups = []
            for r in csv.DictReader(open(out / f"densities_agent{i}.csv")):
                if not groups or groups[-1] != (r["t"], r["param"]):
                    groups.append((r["t"], r["param"]))
            assert groups == [(t, p) for t in ("0.1", "18.0") for p in params]

    def test_policies_need_no_solve(self, tmp_path, monkeypatch):
        """Simulation, both iterations and a frozen-opponent training run
        build closed-form policies and means without solving coefficients."""
        solved = self._count_solves(monkeypatch)
        assert cli.cmd_simulate(preset("table1"), str(tmp_path / "sim")) == 0
        assert cli.cmd_iterate(preset("table1"), str(tmp_path / "it")) == 0
        cfg = preset("table2")
        cfg = replace(cfg, train=replace(cfg.train, episodes=4, critic_warmup=2, n_steps=10))
        assert cli.cmd_train(cfg, str(tmp_path / "tr"), replications=1,
                             freeze_opponent=True) == 0
        assert solved == []

    def test_normal_density_peaks_at_mean(self, tmp_path, t1_text):
        from mvgame import equilibrium as eqm
        cfg = preset("table1")
        agents = cfg.build_agents(20.0)
        coeffs = eqm.solve_coefficients(agents, cfg.market, 20.0)
        pol = eqm.equilibrium_policy(0, agents, cfg.market, coeffs)
        u, dens = cli._density_curve(pol, 0.1, cfg.market.y_bar, 1)
        peak_u = u[np.argmax(dens)]
        assert peak_u == pytest.approx(pol.mean(0.1, cfg.market.y_bar), abs=1e-9)


class TestTrainCommand:
    def _small_cfg_text(self):
        cfg = preset("table2")
        cfg = replace(cfg,
                      train=replace(cfg.train, episodes=60, critic_warmup=20,
                                    n_steps=40),
                      replications=2)
        return serialize_config(cfg)

    def test_writes_outputs(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self._small_cfg_text())
        out = tmp_path / "o"
        code = cli.main(["train", "--config", str(path), "--out", str(out)])
        assert code in (0, 3)  # band may or may not hold at this tiny scale
        rows = list(csv.DictReader(open(out / "learned_vs_true.csv")))
        assert list(rows[0].keys()) == ["t", "mu_true_1", "mu_learned_1",
                                        "mu_true_2", "mu_learned_2"]
        assert rows[0]["mu_learned_1"] != ""
        assert (out / "training_metrics.csv").exists()
        assert (out / "checkpoint.txt").exists()

    def test_undefined_relative_error_fails_the_band(self, tmp_path, capsys):
        """With y_bar = 0 the true mean curves on the y = y_bar slice are
        identically 0, so the relative error is undefined and fails the band."""
        cfg = preset("table2")
        cfg = replace(cfg, market=replace(cfg.market, y_bar=0.0),
                      train=replace(cfg.train, episodes=30), replications=2)
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "undefined" in capsys.readouterr().err

    def test_deterministic_outputs(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self._small_cfg_text())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["train", "--config", str(path), "--out", str(out1)])
        cli.main(["train", "--config", str(path), "--out", str(out2)])
        assert (out1 / "learned_vs_true.csv").read_bytes() == \
            (out2 / "learned_vs_true.csv").read_bytes()
        assert (out1 / "training_metrics.csv").read_bytes() == \
            (out2 / "training_metrics.csv").read_bytes()

    def test_zero_episodes_writes_true_curves_only(self, tmp_path):
        cfg = replace(preset("table2"), train=replace(preset("table2").train,
                                                     episodes=0))
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        out = tmp_path / "o"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "learned_vs_true.csv")))
        assert rows[0]["mu_learned_1"] == ""
        assert rows[0]["mu_true_1"] != ""

    def test_freeze_opponent_mode(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self._small_cfg_text())
        out = tmp_path / "o"
        code = cli.main(["train", "--config", str(path), "--out", str(out),
                         "--freeze-opponent", "--replications", "1"])
        assert code in (0, 3)
        rows = list(csv.DictReader(open(out / "learned_vs_true.csv")))
        # frozen agent 2 reports the true curve as learned
        assert [r["mu_learned_2"] for r in rows] == [r["mu_true_2"] for r in rows]


class TestParallelReplications:
    @pytest.mark.parametrize("mode", [[], ["--freeze-opponent"]],
                             ids=["joint", "freeze"])
    def test_worker_pool_matches_sequential(self, tmp_path, mode):
        cfg = replace(preset("table2"),
                      train=replace(preset("table2").train, episodes=40,
                                    critic_warmup=10, n_steps=30),
                      replications=2)
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert cli.main(["train", "--config", str(path), "--out", str(seq)] + mode) == 0
        assert cli.main(["train", "--config", str(path), "--out", str(par),
                         "--workers", "2"] + mode) == 0
        for name in ("learned_vs_true.csv", "training_metrics.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name

    def test_more_workers_than_replications(self, tmp_path):
        # 3 workers for 2 replications make two one-replication groups; an
        # empty group would fail its worker
        cfg = replace(preset("table2"),
                      train=replace(preset("table2").train, episodes=40,
                                    critic_warmup=10, n_steps=30),
                      replications=2)
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert cli.main(["train", "--config", str(path), "--out", str(seq)]) == 0
        assert cli.main(["train", "--config", str(path), "--out", str(par),
                         "--workers", "3", "--replications", "2"]) == 0
        for name in ("learned_vs_true.csv", "training_metrics.csv", "checkpoint.txt"):
            assert (seq / name).read_bytes() == (par / name).read_bytes(), name
