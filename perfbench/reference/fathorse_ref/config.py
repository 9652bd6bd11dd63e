"""Experiment configuration: a flat JSON object with fixed keys."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config", "thread_count"]


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

    def to_dict(self) -> dict:
        return asdict(self)


_NUMERIC = {"c": float, "p": float, "n_max": int, "level_max": int, "N": int,
            "resolution": float, "delta": float, "seed": int}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key in _NUMERIC:
            try:
                value = _NUMERIC[key](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r} must be numeric") from exc
        elif key == "k_list":
            if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
                raise ConfigError("k_list must be a list of integers")
        elif key == "a_list":
            if not isinstance(value, list) or not all(
                isinstance(v, (int, float)) for v in value
            ):
                raise ConfigError("a_list must be a list of numbers")
            value = [float(v) for v in value]
        elif key == "output_dir":
            if not isinstance(value, str):
                raise ConfigError("output_dir must be a string")
        setattr(cfg, key, value)
    return cfg


def thread_count() -> int:
    """Parallelism cap from FATHORSE_THREADS; sequential by default."""
    raw = os.environ.get("FATHORSE_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)
