import csv
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mvgame
from mvgame import cli, rl
from mvgame.config import ConfigError, parse_config, parse_config_text, serialize_config

from presets import CONFIGS, preset, preset_path


@pytest.fixture(scope="module")
def t1_text():
    with open(preset_path("table1")) as fh:
        return fh.read()


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
            parse_config_text("[market]\nr = 0.01\n")

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
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvgame.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "mvgame.cli", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _set_key(text, section, key, value):
    """``text`` with ``key`` of ``[section]`` set to ``value``."""
    head, sep, rest = text.partition(f"[{section}]\n")
    body, nxt, tail = rest.partition("\n[")
    body, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", body, flags=re.M)
    assert n == 1, (section, key)
    return head + sep + body + nxt + tail


class TestTrainInputRejected:
    """Bad training input exits 2 with a config error, before any training."""

    @pytest.mark.parametrize("section,key,value", [
        ("train", "episodes", "-1"),
        ("train", "n_steps", "0"),
        ("train", "horizon", "0.0"),
        ("train", "horizon", "nan"),
        ("train", "critic_dim", "0"),
        ("train", "critic_warmup", "-1"),
        ("train", "max_skip_fraction", "2.0"),
        ("train", "max_skip_fraction", "-0.1"),
        ("output", "replications", "-1"),
        ("output", "train_band", "-1.0"),
        ("output", "train_band", "0.0"),
        ("market", "r", "nan"),
        ("market", "sigma", "nan"),
        ("agent1", "gamma", "inf"),
        ("agent2", "lambda0", "-inf"),
        ("sim", "x1_0", "nan"),
        ("train", "x2_0", "nan"),
        ("train", "y_0", "nan"),
        (None, "--replications", "-1"),
        (None, "--workers", "0"),
        (None, "--workers", "-3"),
    ])
    def test_exit_2(self, tmp_path, capsys, section, key, value):
        cfg = replace(preset("table2"), replications=1,
                      train=replace(preset("table2").train, episodes=20))
        text = serialize_config(cfg)
        argv = ["train", "--out", str(tmp_path / "o")]
        if section is None:
            argv += [key, value]
        else:
            text = _set_key(text, section, key, value)
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert cli.main(argv + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if value in ("nan", "inf", "-inf"):
            assert f"config error: [{section}] {key} = " in err


@pytest.mark.parametrize("command", ["equilibrium", "iterate", "train", "simulate"])
def test_zero_sigma_is_a_config_error(tmp_path, capsys, t1_text, command):
    """Every command divides by sigma, so sigma = 0 is rejected where the
    config is read: exit 2 and one message, not a ZeroDivisionError."""
    path = tmp_path / "cfg.ini"
    path.write_text(_set_key(t1_text, "market", "sigma", "0.0"))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: [market] sigma must be positive, got 0.0\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["beta1", "beta2", "eps"])
def test_adam_constants_are_not_config_keys(tmp_path, capsys, t1_text, key):
    """Adam's decays and guard are fixed constants; a config that still sets
    one is rejected with the key named."""
    path = tmp_path / "cfg.ini"
    path.write_text(t1_text.replace("[train]\n", f"[train]\n{key} = 0.9\n"))
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: unknown key {key!r} in section [train]\n"
    assert not (tmp_path / "o").exists()


class TestCliErrors:
    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[market]\nr = 0.01\n")
        assert cli.main(["simulate", "--config", str(bad)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["iterate", "--config", str(tmp_path / "no.ini")]) == 2

    def test_band_violation_exit_3(self, tmp_path, t1_text):
        # an impossible tolerance band turns a successful run into a
        # certificate failure
        cfg_text = t1_text.replace("episodes = 2000", "episodes = 30") \
                          .replace("critic_warmup = 250", "critic_warmup = 5") \
                          .replace("n_steps = 250", "n_steps = 30") \
                          .replace("replications = 10", "replications = 1") \
                          .replace("train_band = 0.1", "train_band = 1e-09")
        path = tmp_path / "cfg.ini"
        path.write_text(cfg_text)
        assert cli.main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 3

    def test_divergence_exit_4(self, tmp_path, t1_text, monkeypatch):
        from mvgame import rl as rl_mod

        def always_diverge(*args, **kwargs):
            raise rl_mod.TrainingDivergedError("forced")

        monkeypatch.setattr(rl_mod, "train", always_diverge)
        cfg_text = t1_text.replace("episodes = 2000", "episodes = 5") \
                          .replace("replications = 10", "replications = 1")
        path = tmp_path / "cfg.ini"
        path.write_text(cfg_text)
        assert cli.main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("max_skip,code", [(0.01, 4), (0.05, 0)])
    def test_aggregate_skip_check_reads_config(self, tmp_path, monkeypatch,
                                               max_skip, code):
        cfg = preset("table2")
        cfg = replace(cfg, replications=1,
                      train=replace(cfg.train, episodes=100,
                                    max_skip_fraction=max_skip))
        agents = cfg.build_agents(cfg.train.horizon)
        # two agents, one replication: leading axes (2, 1) on every array
        phi = np.stack([np.tile(rl.equilibrium_actor_params(a, cfg.market),
                                (1, 101, 1)) for a in agents])

        def skips_3_percent(args):
            return rl.TrainResult(
                phi_history=phi,
                theta=rl.CriticParams(v=np.zeros((2, 1, 3, 2)), g=np.zeros((2, 1, 3, 2))),
                critic_losses=np.zeros((2, 1, 100)),
                adam_states=rl.AdamState.zeros((2, 1, 4)),
                skipped_episodes=3, episodes_run=100)

        monkeypatch.setattr(cli, "_train_group", skips_3_percent)
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        assert cli.main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == code

    def test_simulation_divergence_exit_4(self, tmp_path, capsys):
        cfg = replace(preset("table2"),
                      market=replace(preset("table2").market, v=50.0))
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "simulation divergence" in err
        assert "Traceback" not in err


    def test_numerical_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        def singular(self, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(rl.LstdAccumulator, "solve", singular)
        cfg = replace(preset("table2"), replications=1,
                      train=replace(preset("table2").train, episodes=20,
                                    critic_warmup=5, n_steps=20))
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        assert cli.main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "config error" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("lambda0", "60"), ("gamma", "1e-300")])
    def test_non_finite_coefficients_exit_4(self, tmp_path, capsys, t1_text, key, value):
        """Agent 1's exploration weight (lambda0 = 60 overflows at T = 20) or
        risk aversion drives its b-coefficients to inf: a numerical failure,
        reported before any CSV is written."""
        path = tmp_path / "cfg.ini"
        path.write_text(_set_key(t1_text, "agent1", key, value))
        out = tmp_path / "o"
        assert cli.main(["equilibrium", "--config", str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numerical failure: agent 1: coefficient b0 is not finite" in err
        assert "config error" not in err
        assert not list(out.iterdir())

    def test_training_divergence_prints_no_numpy_warning(self, tmp_path):
        """A huge perturbation scale drives the actors to overflow; the run
        exits 4 with the divergence line alone on stderr."""
        cfg = preset("table2")
        cfg = replace(cfg, replications=1,
                      train=replace(cfg.train, episodes=40, critic_warmup=5, kappa=1e6))
        path = tmp_path / "cfg.ini"
        path.write_text(serialize_config(cfg))
        _assert_one_exit_4_line(tmp_path, "train", path, "training divergence: ")

    @pytest.mark.parametrize("command,line", [
        ("equilibrium", "numerical failure: agent 1: coefficient b0 is not finite"),
        ("simulate", "simulation divergence: simulation produced non-finite values")],
        ids=["equilibrium", "simulate"])
    def test_overflowing_schedule_prints_no_numpy_warning(self, tmp_path, t1_text,
                                                          command, line):
        """Agent 1's exponential schedule overflows at T = 20 with lambda0 = 60;
        the failure is reported alone, without numpy's overflow warnings."""
        path = tmp_path / "cfg.ini"
        path.write_text(_set_key(t1_text, "agent1", "lambda0", "60"))
        _assert_one_exit_4_line(tmp_path, command, path, line)

    @pytest.mark.parametrize("key,value,command", [
        ("sigma", "1e-300", "simulate"), ("sigma", "1e-300", "equilibrium"),
        ("sigma", "1e200", "simulate"), ("sigma", "1e200", "equilibrium"),
        ("sigma", "1e200", "train"),
        ("v", "1e200", "equilibrium"), ("v", "1e200", "iterate"), ("v", "1e200", "train")])
    def test_python_float_failure_exit_4(self, tmp_path, capsys, key, value, command):
        """sigma**2 underflowing to a zero divisor, or a Python float
        overflowing, is a numerical failure: exit 4 and one message."""
        cfg = replace(preset("table2"), replications=1,
                      train=replace(preset("table2").train, episodes=5, critic_warmup=1,
                                    n_steps=10))
        path = tmp_path / "cfg.ini"
        path.write_text(_set_key(serialize_config(cfg), "market", key, value))
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("numerical failure: ")
        assert "config error" not in err and "Traceback" not in err

    @pytest.mark.parametrize("market,command,code,line", [
        ({"sigma": "1e200"}, "equilibrium", 4, "[market] sigma = 1e+200: its square overflows"),
        ({"sigma": "1e200"}, "simulate", 4, "[market] sigma = 1e+200: its square overflows"),
        ({"sigma": "1e200"}, "train", 4, "[market] sigma = 1e+200: its square overflows"),
        ({"sigma": "1e-300"}, "equilibrium", 4,
         "[market] sigma = 1e-300: its square underflows to 0"),
        ({"sigma": "1e-300"}, "simulate", 4,
         "[market] sigma = 1e-300: its square underflows to 0"),
        ({"v": "1e200"}, "equilibrium", 4,
         "the rate iota + rho*v = -9.3e+199: its square overflows"),
        ({"v": "1e200", "rho": "0.0"}, "equilibrium", 4,
         "[market] v = 1e+200: its square overflows"),
        ({"sigma": "1e200"}, "iterate", 0, None),
        ({"sigma": "1e-300"}, "iterate", 0, None)],
        ids=["sigma-equilibrium", "sigma-simulate", "sigma-train", "tiny-sigma-equilibrium",
             "tiny-sigma-simulate", "rate-equilibrium", "v-equilibrium", "sigma-iterate",
             "tiny-sigma-iterate"])
    def test_python_float_failure_names_the_term(self, tmp_path, capsys, market, command,
                                                 code, line):
        """A square that overflows, or a divisor's square that underflows to
        0, names its [market] key or the rate; a command that never squares
        the parameter keeps its exit code."""
        cfg = replace(preset("table2"), replications=1,
                      train=replace(preset("table2").train, episodes=5, critic_warmup=1,
                                    n_steps=10))
        text = serialize_config(cfg)
        for key, value in market.items():
            text = _set_key(text, "market", key, value)
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err == ("" if line is None else f"numerical failure: {line}\n")

    @pytest.mark.parametrize("name,section,key,value,command,line", [
        ("table2", "market", "v", "1e200", "iterate",
         "numerical failure: the rate iota + rho*v = -9.3e+199: its square overflows"),
        ("table2", "market", "v", "1e200", "train",
         "numerical failure: the rate iota + rho*v = -9.3e+199: its square overflows"),
        ("table1", "sim", "horizon", "1e160", "iterate",
         "numerical failure: agent 1: response iterate: coefficient a2: ")],
        ids=["v-iterate", "v-train", "horizon-iterate"])
    def test_iterate_and_train_print_no_numpy_warning(self, tmp_path, name, section,
                                                      key, value, command, line):
        """An overflowing closed form or response-iterate spline is reported
        alone on stderr, without numpy's overflow warnings."""
        cfg = preset(name)
        cfg = replace(cfg, replications=1,
                      train=replace(cfg.train, episodes=5, critic_warmup=1, n_steps=10))
        path = tmp_path / "cfg.ini"
        path.write_text(_set_key(serialize_config(cfg), section, key, value))
        _assert_one_exit_4_line(tmp_path, command, path, line)

    def test_non_finite_response_iterate_exit_4(self, tmp_path):
        """A horizon of 1e6 overflows the response iteration's RK4 iterates:
        a numerical failure, not CubicSpline's complaint as a config error."""
        path = tmp_path / "cfg.ini"
        path.write_text(_set_key(serialize_config(preset("table2")), "sim", "horizon",
                                 "1e6"))
        _assert_one_exit_4_line(
            tmp_path, "iterate", path,
            "numerical failure: agent 1: response iterate: coefficient a2 is not finite")

    def test_overflowing_spline_fit_exit_4(self, tmp_path, capsys):
        """With a horizon of 1e160 the iterates stay finite, but the spline
        through them overflows its slopes on the 2.5e156 grid step."""
        path = tmp_path / "cfg.ini"
        path.write_text(_set_key(serialize_config(preset("table2")), "sim", "horizon",
                                 "1e160"))
        assert cli.main(["iterate", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: agent 1: response iterate: coefficient a2: ")
        assert "config error" not in err

    _RATE_PRODUCT = ("numerical failure: gamma = 1e-300 times the rate iota + rho*v = "
                     "1e-30: the product underflows to 0")
    _STD_PRODUCT = ("numerical failure: gamma = 1e-300 times the squared [market] "
                    "sigma = 1e-20: the product underflows to 0")
    _MEAN_PRODUCT = ("numerical failure: gamma = 1e-300 times the [market] sigma = 1e-30: "
                     "the product underflows to 0")

    @pytest.mark.parametrize("keys,command,line", [
        ({("market", "rho"): "0.0", ("market", "iota"): "1e-30"}, "iterate", _RATE_PRODUCT),
        ({("market", "rho"): "0.0", ("market", "iota"): "1e-30"}, "equilibrium",
         _RATE_PRODUCT),
        ({("market", "rho"): "0.0", ("market", "iota"): "1e-30"}, "simulate", _RATE_PRODUCT),
        ({("market", "sigma"): "1e-20"}, "equilibrium", _STD_PRODUCT),
        ({("market", "sigma"): "1e-20"}, "simulate", _STD_PRODUCT),
        ({("market", "sigma"): "1e-20"}, "iterate", _STD_PRODUCT),
        ({("market", "sigma"): "1e-10"}, "iterate",
         "numerical failure: agent 1: response mean is not finite"),
        ({("market", "sigma"): "1e-30"}, "iterate", _MEAN_PRODUCT),
        ({("market", "sigma"): "1e-30"}, "train", _MEAN_PRODUCT)],
        ids=["rate-iterate", "rate-equilibrium", "rate-simulate", "std-equilibrium",
             "std-simulate", "std-iterate", "mean-iterate", "mean-divisor-iterate",
             "mean-divisor-train"])
    def test_underflowing_gamma_product_names_the_term(self, tmp_path, keys, command, line):
        """With agent 1's gamma = 1e-300, gamma times the rate iota + rho*v,
        or times sigma^2, underflows to a zero divisor: one line naming both
        factors, exit 4, and no numpy warning.  In ``iterate``, y / (gamma
        sigma) overflows first: the mean iteration reports it as the same
        underflow, or, with sigma = 1e-10 (gamma sigma^2 = 1e-320 is not 0),
        as a response mean that is not finite.  With sigma = 1e-30, gamma
        sigma itself underflows to 0, and ``iterate`` and ``train``, which
        start from the closed-form means, name that product."""
        text = _set_key(serialize_config(preset("table2")), "agent1", "gamma", "1e-300")
        for (section, key), value in keys.items():
            text = _set_key(text, section, key, value)
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        _assert_one_exit_4_line(tmp_path, command, path, line)

    @pytest.mark.parametrize("section", ["agent1", "agent2"], ids=["normal", "gini"])
    def test_zero_exploration_std_exit_4(self, tmp_path, t1_text, section):
        """gamma = 1e100 and lambda0 = 1e-300 make the agent's exploration
        std underflow to 0, which has no density (the normal law's would be
        nan, the uniform's inf): exit 4 with one line naming the agent, and
        no numpy warning."""
        text = _set_key(_set_key(t1_text, section, "gamma", "1e100"), section, "lambda0",
                        "1e-300")
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        _assert_one_exit_4_line(
            tmp_path, "equilibrium", path,
            f"numerical failure: agent {section[-1]}: the exploration std at t = 0.1 is 0.0: "
            "no density")

    def test_zero_sensitivity_failure_names_the_opponent(self, tmp_path, capsys):
        """At k1 = 0 agent 1's value coefficients leave out agent 2's std, so
        agent 2's overflowing exploration weight fails agent 2's set only."""
        text = _set_key(serialize_config(preset("table2")), "agent1", "k", "0.0")
        path = tmp_path / "cfg.ini"
        path.write_text(_set_key(text, "agent2", "lambda0", "1e155"))
        assert cli.main(["equilibrium", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            "numerical failure: agent 2: coefficient b0 is not finite\n")


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
    tiny sizes: every command exits 0, 2, 3 or 4, and none raises.  Each
    example runs four commands, so a failing one is reported as drawn, not
    shrunk."""
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
        for command in ("simulate", "equilibrium", "iterate", "train"):
            code = cli.main([command, "--config", path, "--out", os.path.join(tmp, "o")])
            assert code in (0, 2, 3, 4), (command, code)


def _assert_one_exit_4_line(tmp_path, command, config_path, line_start):
    """Run ``python -m mvgame.cli`` in a fresh process (pytest captures
    warnings away from stderr) and check it exits 4 with one stderr line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mvgame.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "mvgame.cli", command, "--config",
                           str(config_path), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line_start), proc.stderr


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
