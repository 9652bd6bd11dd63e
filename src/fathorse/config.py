"""Experiment configuration: a flat JSON object with fixed keys."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .cones import LEVEL_HARD_CAP
from .errors import ConfigError
from .fatcantor import LEVEL_MEASURE_CAP
from .horseshoe import MEASURE_DEPTH_CAP, MEASURE_RESOLUTION_FLOOR

__all__ = ["ExperimentConfig", "load_config", "validate"]


@dataclass
class ExperimentConfig:
    c: float = 1.8
    p: float = 2.0
    k_list: list[int] = field(default_factory=lambda: [2, 3, 5])
    a_list: list[float] = field(default_factory=lambda: [-0.9, -0.3, 0.0, 0.42, 0.9])
    n_max: int = 14
    level_max: int = 12
    N: int = 6
    resolution: float = 1e-3
    delta: float = 0.1
    output_dir: str = "out"
    seed: int = 1


# each real's floor and each count's cap, as the kernel that reads the key applies it;
# delta's is the runner's, since a flow box of no thickness certifies no volume
_REALS = {"c": -math.inf, "p": -math.inf, "resolution": MEASURE_RESOLUTION_FLOOR, "delta": math.ulp(0.0)}
_COUNTS = {"n_max": LEVEL_HARD_CAP, "level_max": LEVEL_MEASURE_CAP, "N": MEASURE_DEPTH_CAP}


def _number(key: str, value) -> int | float:
    """A JSON number within the binary64 range; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also false for NaN
        raise ConfigError(f"config key {key!r} must be a finite number, got {value}")
    return value


def _integer(key: str, value) -> int:
    value = _number(key, value)
    if value != int(value):
        raise ConfigError(f"config key {key!r} must be an integer, got {value}")
    return int(value)


def _nonempty_list(key: str, value, item) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key} must be a non-empty list")
    return [item(key, v) for v in value]


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check every field and return a normalized copy, or raise ConfigError.

    Reals become floats and integral numbers become ints, so a config
    built in Python is held to the same rules as one read from a file.
    """
    values = {}
    for key, value in asdict(cfg).items():
        if key in _REALS:
            value = float(_number(key, value))
            if value < _REALS[key]:
                raise ConfigError(f"config key {key!r} must be at least {_REALS[key]}, got {value}")
        elif key in _COUNTS or key == "seed":
            value = _integer(key, value)
            if key in _COUNTS and not 0 <= value <= _COUNTS[key]:
                raise ConfigError(f"config key {key!r} must be in 0..{_COUNTS[key]}, got {value}")
        elif key == "k_list":
            value = _nonempty_list(key, value, _integer)
        elif key == "a_list":
            value = [float(v) for v in _nonempty_list(key, value, _number)]
        elif not isinstance(value, str):  # output_dir, the only other key
            raise ConfigError("output_dir must be a string")
        values[key] = value
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (RecursionError, ValueError) as exc:  # malformed, too deep or not UTF-8
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return validate(ExperimentConfig(**raw))
