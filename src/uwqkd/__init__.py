"""Decoy-state BB84 key rates and vector vortex tomography for attenuating
underwater optical channels."""

from .channel import ChannelParams, GainStats
from .decoy import DecoyEstimate, KeyRateResult, evaluate_key_rate
from .optimize import OptimizerConfig, distance_sweep, max_secure_distance, optimize_mu_nu
from .qstate import PolLabel, SpinOrbitState

__all__ = [
    "ChannelParams",
    "GainStats",
    "DecoyEstimate",
    "KeyRateResult",
    "evaluate_key_rate",
    "OptimizerConfig",
    "distance_sweep",
    "max_secure_distance",
    "optimize_mu_nu",
    "PolLabel",
    "SpinOrbitState",
]

__version__ = "0.1.0"
