"""Underwater link and detection model for weak coherent pulses.

Transmittance combines exponential (dB/m) path loss with the receiver and
detector efficiencies; gains and QBERs follow the standard asymptotic
yield model Y_n = Y0 + 1 - (1-eta)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ZeroGainError(ValueError):
    """No clicks at all (no background and no signal), so the QBER is undefined."""

    def __init__(self):
        super().__init__("undefined QBER: zero gain (no background and no signal)")


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of the channel and detection system.

    Defaults reproduce the measured flume channel: 0.57 dB/m attenuation,
    300 Hz dark counts at a 1 GHz repetition rate (1 ns window), detector
    efficiency 0.6 and receiver optics efficiency 0.188.  When
    ``bob_includes_detector`` is set, the 0.188 figure is treated as already
    containing the detector efficiency and the 0.6 factor is not applied.
    """

    alpha_db_per_m: float = 0.57
    length_m: float = 0.0
    eta_detector: float = 0.6
    eta_bob: float = 0.188
    dark_rate_hz: float = 300.0
    pulse_rate_hz: float = 1e9
    detection_window_s: float | None = None
    e_det: float = 0.0027
    f_ec: float = 1.22
    bob_includes_detector: bool = False

    def __post_init__(self):
        # each range check is written so that NaN fails it
        if not 0 < self.pulse_rate_hz < math.inf:
            raise ValueError(f"pulse_rate_hz must be finite and > 0, got {self.pulse_rate_hz}")
        if self.detection_window_s is None:
            object.__setattr__(self, "detection_window_s", 1.0 / self.pulse_rate_hz)
        for name in ("eta_detector", "eta_bob"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0,1], got {getattr(self, name)}")
        for name in ("alpha_db_per_m", "length_m", "dark_rate_hz"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 < self.detection_window_s < math.inf:
            raise ValueError("detection_window_s must be finite and > 0")
        if not self.dark_rate_hz * self.detection_window_s <= 1:  # Y0 is a probability
            raise ValueError(f"background yield dark_rate_hz * detection_window_s must be <= 1, got "
                             f"{self.dark_rate_hz} * {self.detection_window_s}")
        if not 0 <= self.e_det < 0.5:
            raise ValueError(f"e_det must be in [0,0.5), got {self.e_det}")
        if not 1 <= self.f_ec < math.inf:
            raise ValueError(f"f_ec must be finite and >= 1, got {self.f_ec}")

    def at_length(self, length_m: float) -> "ChannelParams":
        """This channel at another length; equal to ``replace(self, length_m=length_m)``.

        The other fields were validated when this channel was built, so only
        the new length is checked, and the fields are copied as they are.
        """
        if not 0 <= length_m < math.inf:
            raise ValueError(f"length_m must be finite and >= 0, got {length_m}")
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__, length_m=length_m)  # bypasses the frozen __setattr__
        return other


@dataclass(frozen=True)
class GainStats:
    """Per-pulse gains and QBERs for the signal and decoy intensities."""

    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y0: float


def transmittance(p: ChannelParams) -> float:
    """Overall single-photon transmittance (path loss x optics x detector)."""
    path = 10.0 ** (-p.alpha_db_per_m * p.length_m / 10.0)
    eta_sys = p.eta_bob if p.bob_includes_detector else p.eta_detector * p.eta_bob
    return eta_sys * path


def background_yield(p: ChannelParams) -> float:
    """Background (dark count) yield per pulse, Y0."""
    return p.dark_rate_hz * p.detection_window_s


def _gain_qber(mu, eta, y0, e_det):
    """Gain and QBER of a Poissonian source, on broadcastable arrays.

    Returns ``(q, e, s, d)``: the gain Q = Y0 + s, the QBER E, and their
    signal parts s = Q - Y0 = 1 - exp(-eta mu) and d = E Q - Y0/2 = e_det s;
    background clicks are unpolarized, so their error rate is 1/2.
    The decoy bounds take s and d directly, so Y0 is never subtracted back
    out of a gain it dominates.  s is capped at 1 - Y0 so that Q <= 1.
    """
    s = np.minimum(-np.expm1(-eta * mu), 1.0 - y0)
    q = y0 + s
    d = e_det * s
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.minimum(0.5, (0.5 * y0 + d) / q)
    return q, e, s, d


def gain_stats(p: ChannelParams, mu: float, nu: float) -> GainStats:
    """Signal/decoy gain and QBER record for one channel configuration."""
    if not 0 <= nu < mu < math.inf:
        raise ValueError(f"invalid decoy ordering: need 0 <= nu < mu < inf, got mu={mu}, nu={nu}")
    y0 = background_yield(p)
    q, e, _, _ = _gain_qber(np.array([mu, nu]), transmittance(p), y0, p.e_det)
    if q[1] == 0.0:
        raise ZeroGainError()
    return GainStats(q_mu=float(q[0]), e_mu=float(e[0]), q_nu=float(q[1]), e_nu=float(e[1]), y0=y0)
