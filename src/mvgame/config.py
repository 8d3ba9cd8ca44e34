"""Experiment configuration: flat typed key-value sections, round-trippable.

Experiments carry ~20 parameters, so commands read them from a sectioned
key=value file rather than positional flags.  Parsing is strict: unknown
sections or keys are rejected, and parse(serialize(cfg)) == cfg.  The
paper's two experiments are the shipped files ``configs/table1.ini`` and
``configs/table2.ini``; this module defines no preset of its own.
"""

from __future__ import annotations

import configparser
import io
import math
import typing
from dataclasses import dataclass, fields

from .choquet import make_distortion_gini, make_distortion_normal
from .market import AgentParams, MarketParams, Schedule, SimConfig
from .rl import TrainConfig

__all__ = [
    "ConfigError",
    "AgentConfig",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
]

_DISTORTION_PRESETS = ("normal", "gini")
_LAMBDA_KINDS = ("constant", "exponential")


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


@dataclass(frozen=True)
class AgentConfig:
    gamma: float
    k: float
    distortion: str
    lambda_kind: str
    lambda0: float

    def __post_init__(self):
        if self.distortion not in _DISTORTION_PRESETS:
            raise ConfigError(f"unknown distortion preset {self.distortion!r}")
        if self.lambda_kind not in _LAMBDA_KINDS:
            raise ConfigError(f"unknown lambda_kind {self.lambda_kind!r}")
        # Written as "not <valid>" so that nan fails too.
        if not self.gamma > 0.0:
            raise ConfigError(f"gamma must be positive, got {self.gamma!r}")
        if not 0.0 <= self.k < 1.0:
            raise ConfigError(f"k must lie in [0, 1), got {self.k!r}")
        if not self.lambda0 > 0.0:
            raise ConfigError(f"lambda0 must be positive, got {self.lambda0!r}")

    def build(self, horizon: float) -> AgentParams:
        """Materialize preferences for a given horizon (the exponential
        schedule lam0*exp(lam0*(T-t)) is anchored at that horizon)."""
        rate = self.lambda0 if self.lambda_kind == "exponential" else 0.0
        dist = make_distortion_normal() if self.distortion == "normal" \
            else make_distortion_gini()
        return AgentParams(gamma=self.gamma, k=self.k, distortion=dist,
                           lam=Schedule(self.lambda0, rate, horizon))


@dataclass(frozen=True)
class ExperimentConfig:
    market: MarketParams
    agent1: AgentConfig
    agent2: AgentConfig
    sim: SimConfig
    train: TrainConfig
    output_dir: str = "out"
    replications: int = 10
    train_band: float = 0.10

    def __post_init__(self):
        # MarketParams accepts sigma = 0 for simulator checks; every command
        # divides by sigma.
        if not self.market.sigma > 0.0:
            raise ConfigError(f"[market] sigma must be positive, got {self.market.sigma!r}")
        if self.replications < 0:
            raise ConfigError(f"replications must be >= 0, got {self.replications!r}")
        if not self.train_band > 0.0:
            raise ConfigError(f"train_band must be positive, got {self.train_band!r}")

    def build_agents(self, horizon: float):
        return (self.agent1.build(horizon), self.agent2.build(horizon))


# Each section is read into the ExperimentConfig field of the same name; its
# keys, their order and their types are those of the section's dataclass.
_SECTIONS = (("market", MarketParams), ("agent1", AgentConfig),
             ("agent2", AgentConfig), ("sim", SimConfig), ("train", TrainConfig))


def _keys(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_SCHEMA = {name: _keys(cls) for name, cls in _SECTIONS}
_SCHEMA["output"] = {"dir": str, "replications": int, "train_band": float}


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    missing = [s for s in _SCHEMA if s not in parser]
    if missing:
        raise ConfigError(f"missing sections: {', '.join(missing)}")

    def section(name):
        out = {}
        for key, typ in _SCHEMA[name].items():
            if key not in parser[name]:
                raise ConfigError(f"missing key {key!r} in section [{name}]")
            raw = parser[name][key]
            try:
                out[key] = typ(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"[{name}] {key} = {raw!r} is not a valid {typ.__name__}"
                ) from exc
            if typ is float and not math.isfinite(out[key]):
                raise ConfigError(f"[{name}] {key} = {raw!r} is not a finite number")
        return out

    parts = {}
    for name, cls in _SECTIONS:
        values = section(name)
        try:
            parts[name] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {exc}") from exc
    out = section("output")
    return ExperimentConfig(**parts, output_dir=out["dir"],
                            replications=out["replications"],
                            train_band=out["train_band"])


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Text form of a config; parse_config_text inverts it exactly."""
    buf = io.StringIO()
    for name, _ in _SECTIONS:
        buf.write(f"[{name}]\n")
        for key in _SCHEMA[name]:
            buf.write(f"{key} = {_fmt(getattr(getattr(cfg, name), key))}\n")
        buf.write("\n")
    buf.write("[output]\n")
    buf.write(f"dir = {cfg.output_dir}\n")
    buf.write(f"replications = {cfg.replications}\n")
    buf.write(f"train_band = {_fmt(cfg.train_band)}\n")
    return buf.getvalue()

