"""Run configuration: flat JSON file mapped onto the parameter records."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .channel import ChannelParams
from .optimize import OptimizerConfig

_CHANNEL_KEYS = (
    "alpha_db_per_m",
    "length_m",
    "eta_detector",
    "eta_bob",
    "dark_rate_hz",
    "pulse_rate_hz",
    "detection_window_s",
    "e_det",
    "e0",
    "f_ec",
    "bob_includes_detector",
)

_OPTIMIZER_KEYS = ("nu_min", "coarse_grid", "refine_iterations", "tolerance", "mu_max")
_INT_KEYS = ("coarse_grid", "refine_iterations")


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelParams
    optimizer: OptimizerConfig
    modulation_rate_hz: float = 1e8

    def __post_init__(self):
        if not 0 < self.modulation_rate_hz < math.inf:
            raise ValueError(f"modulation_rate_hz must be finite and > 0, got {self.modulation_rate_hz}")


def _check_type(key: str, value) -> None:
    """Reject a JSON value of the wrong type before it reaches the records."""
    if key == "bob_includes_detector":
        ok, kind = isinstance(value, bool), "true or false"
    else:
        kind, types = ("an integer", int) if key in _INT_KEYS else ("a number", (int, float))
        ok = isinstance(value, types) and not isinstance(value, bool)
        ok = ok or (key == "detection_window_s" and value is None)
    if not ok:
        raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")


def config_from_dict(d: dict) -> RunConfig:
    known = set(_CHANNEL_KEYS) | set(_OPTIMIZER_KEYS) | {"modulation_rate_hz"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in d.items():
        _check_type(key, value)
    channel = ChannelParams(**{k: d[k] for k in _CHANNEL_KEYS if k in d})
    opt_kwargs = {k: d[k] for k in _OPTIMIZER_KEYS if k in d and k != "mu_max"}
    if "mu_max" in d:
        opt_kwargs["mu_range"] = (0.0, float(d["mu_max"]))
    optimizer = OptimizerConfig(**opt_kwargs)
    return RunConfig(
        channel=channel,
        optimizer=optimizer,
        modulation_rate_hz=float(d.get("modulation_rate_hz", 1e8)),
    )


def config_to_dict(cfg: RunConfig) -> dict:
    d = {k: getattr(cfg.channel, k) for k in _CHANNEL_KEYS}
    d.update(
        nu_min=cfg.optimizer.nu_min,
        coarse_grid=cfg.optimizer.coarse_grid,
        refine_iterations=cfg.optimizer.refine_iterations,
        tolerance=cfg.optimizer.tolerance,
        mu_max=cfg.optimizer.mu_range[1],
        modulation_rate_hz=cfg.modulation_rate_hz,
    )
    return d


def load_config(path: str | Path | None) -> RunConfig:
    """Load a flat JSON config; a missing path gives the flume defaults."""
    if path is None:
        return RunConfig(channel=ChannelParams(), optimizer=OptimizerConfig())
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
