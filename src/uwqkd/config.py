"""Run configuration: a flat JSON file whose keys and value types are the records' fields."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .channel import ChannelParams
from .optimize import OptimizerConfig


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelParams
    optimizer: OptimizerConfig
    modulation_rate_hz: float = 1e8

    def __post_init__(self):
        if not 0 < self.modulation_rate_hz < math.inf:
            raise ValueError(f"modulation_rate_hz must be finite and > 0, got {self.modulation_rate_hz}")


# field annotation -> (accepted JSON value types, how the error names them)
_KINDS = {
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number"),
    "int": ((int,), "an integer"),
    "bool": ((bool,), "true or false"),
}

_RECORDS = (ChannelParams, OptimizerConfig, RunConfig)
# every field is a key, except RunConfig's two that hold the other records
_KEY_TYPES = {f.name: f.type for r in _RECORDS for f in fields(r) if f.name not in ("channel", "optimizer")}


def _check_type(key: str, value) -> None:
    """Reject a JSON value of the wrong type before it reaches the records."""
    types, kind = _KINDS[_KEY_TYPES[key]]
    # JSON true/false are Python bools, which are also ints
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


def config_from_dict(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(_KEY_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in d.items():
        _check_type(key, value)
    channel, optimizer, run = ({f.name: d[f.name] for f in fields(r) if f.name in d} for r in _RECORDS)
    return RunConfig(ChannelParams(**channel), OptimizerConfig(**optimizer), **run)


def config_to_dict(cfg: RunConfig) -> dict:
    return {**asdict(cfg.channel), **asdict(cfg.optimizer), "modulation_rate_hz": cfg.modulation_rate_hz}


def load_config(path: str | Path | None) -> RunConfig:
    """Load a flat JSON config; a missing path gives the flume defaults."""
    if path is None:
        return config_from_dict({})
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
