"""The paper's two experiments, read from the shipped ``configs/*.ini``."""

import os

from mvgame.config import parse_config

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def preset_path(name: str) -> str:
    """Path of the shipped config ``name`` ("table1" or "table2")."""
    return os.path.join(CONFIGS, f"{name}.ini")


def preset(name: str):
    """The ExperimentConfig of the shipped config ``name``."""
    return parse_config(preset_path(name))
