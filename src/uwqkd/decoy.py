"""Decoy-state BB84 key rate mathematics.

Implements the asymptotic single-decoy bounds on the single-photon gain
(lower) and error rate (upper), and the secret key fraction

    K = 1/2 { -Q_mu f H(E_mu) + Q1 (1 - H(e1)) }

with a constant error-correction inefficiency f.  All clamps (negative Q1,
e1 outside [0, 1/2], negative K) set explicit flags instead of raising, so
optimization sweeps can traverse vacuous parameter regions.  A (mu, nu) at
which the bounds are NaN or infinite raises a ``NonFiniteBoundsError`` naming both.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import channel
from .channel import ChannelParams, GainStats, ZeroGainError, _gain_qber

FLAG_VACUOUS = "vacuous"
FLAG_NO_POSITIVE_KEY = "no_positive_key"


@dataclass(frozen=True)
class DecoyEstimate:
    """Single-photon gain/error bounds, with a flag when a clamp fired."""

    q1_lower: float
    e1_upper: float
    vacuous: bool = False


@dataclass(frozen=True)
class KeyRateResult:
    k_per_pulse: float
    mu: float
    nu: float
    components: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    @property
    def no_positive_key(self) -> bool:
        return FLAG_NO_POSITIVE_KEY in self.flags


def _entropy(e):
    """Binary entropy in bits on an array of error rates in [0, 1].

    The logarithms' arguments are floored at the smallest subnormal float,
    so H(0) = H(1) = 0 comes out as 0 * -1074 rather than 0 * log2(0) = NaN.
    """
    return -(e * np.log2(np.maximum(e, 5e-324)) + (1 - e) * np.log2(np.maximum(1 - e, 5e-324)))


def _check_error_rate(e: float) -> None:
    if not 0 <= e <= 1:
        raise ValueError(f"error rate must be in [0,1], got {e}")


def binary_entropy(e: float) -> float:
    """Shannon entropy H(e) in bits, with H(0) = H(1) = 0 by continuity."""
    _check_error_rate(e)
    return float(_entropy(e))


def sifted_key_fraction(e: float) -> float:
    """Key rate per sifted photon, 1 - 2H(e), floored at 0."""
    if not 0 <= e <= 0.5:
        raise ValueError(f"QBER must be in [0,0.5], got {e}")
    return max(0.0, 1 - 2 * binary_entropy(e))


def _decoy_bounds(s_mu, s_nu, d_nu, mu, nu, y0):
    """Single-photon gain and error bounds, on broadcastable arrays.

    Takes the signal parts of the gains, s = Q - Y0, and of the decoy's error
    gain, d = E Q - Y0/2 (see ``channel._gain_qber``), with Y0 folded in as
    Q e^x - Y0 = s e^x + Y0 expm1(x), so no term cancels at small nu.
    Returns ``(q1, e1, vacuous)``: Q1 clamped below at 0, e1 clamped into
    [0, 1/2] (1/2 where Q1 = 0), and where either clamp fired.
    """
    # e^mu overflows above mu ~ 709.8 and r (mu - nu) can underflow; callers screen out the NaN/inf
    with np.errstate(all="ignore"):
        exp_nu, exp_mu = np.exp(nu), np.exp(mu)
        dark_nu = y0 * np.expm1(nu)
        p1 = mu / exp_mu  # single-photon probability mu e^-mu
        r = nu / mu
        bracket = s_nu * exp_nu + dark_nu - r * r * (s_mu * exp_mu + y0 * np.expm1(mu))
        q1 = np.maximum(0.0, p1 / (r * (mu - nu)) * bracket)
        e1_raw = (d_nu * exp_nu + 0.5 * dark_nu) * p1 / (q1 * nu)
    e1 = np.where(q1 > 0, np.minimum(0.5, np.maximum(0.0, e1_raw)), 0.5)
    return q1, e1, e1 != e1_raw


def _key_fraction(q_mu, e_mu, q1, e1, f_ec):
    """Unclamped K = 1/2 [Q1 (1 - H(e1)) - f Q_mu H(E_mu)], on arrays."""
    return 0.5 * (q1 * (1 - _entropy(e1)) - f_ec * q_mu * _entropy(e_mu))


def _check_ordering(mu: float, nu: float) -> None:
    if not 0 < nu < mu < math.inf:
        raise ValueError(f"invalid decoy ordering: need 0 < nu < mu < inf, got mu={mu}, nu={nu}")


class NonFiniteBoundsError(ValueError):
    """The decoy bounds, and so K, are NaN or infinite at a (mu, nu) point."""


def _check_finite(mu, nu, *values) -> None:
    """Reject the first (mu, nu) point at which one of the values is NaN or infinite."""
    for v in values:
        if not np.isfinite(v).all():
            i = np.flatnonzero(~np.isfinite(v))[0]
            m, n = float(np.ravel(mu)[i]), float(np.ravel(nu)[i])
            raise NonFiniteBoundsError(f"decoy bounds are not finite at mu={m}, nu={n}")


def estimate_single_photon(stats: GainStats, mu: float, nu: float) -> DecoyEstimate:
    """Bound Q1 and e1 from the measured (or modeled) signal/decoy gains."""
    _check_ordering(mu, nu)
    y0 = stats.y0
    q1, e1, vacuous = _decoy_bounds(
        stats.q_mu - y0, stats.q_nu - y0, stats.e_nu * stats.q_nu - 0.5 * y0, mu, nu, y0
    )
    _check_finite(mu, nu, q1, e1)
    return DecoyEstimate(q1_lower=float(q1), e1_upper=float(e1), vacuous=bool(vacuous))


def _result(k, mu, nu, components, vacuous) -> KeyRateResult:
    flags = (FLAG_VACUOUS,) if vacuous else ()
    if k <= 0:
        flags += (FLAG_NO_POSITIVE_KEY,)
    return KeyRateResult(
        k_per_pulse=max(0.0, float(k)),
        mu=mu,
        nu=nu,
        components={name: float(v) for name, v in components.items()},
        flags=flags,
    )


def _key_rate_arrays(eta, y0, e_det, f_ec, qber, mu, nu):
    """Channel model -> decoy bounds -> key rate, on broadcastable arrays.

    Takes per-channel eta, Y0, e_det, f_ec and QBER override (NaN keeps the
    modeled QBER), then the (mu, nu) arrays.  Returns the unclamped K, the
    ``KeyRateResult.components`` as arrays and the vacuous mask; callers
    screen out points with nu >= mu or zero gain.
    """
    q_mu, e_mu, s_mu, _ = _gain_qber(mu, eta, y0, e_det)
    q_nu, e_nu, s_nu, d_nu = _gain_qber(nu, eta, y0, e_det)
    q1, e1, vacuous = _decoy_bounds(s_mu, s_nu, d_nu, mu, nu, y0)
    e_mu = np.where(np.isnan(qber), e_mu, qber)
    k = _key_fraction(q_mu, e_mu, q1, e1, f_ec)
    components = dict(
        q_mu=q_mu, e_mu=e_mu, q_nu=q_nu, e_nu=e_nu, y0=y0, q1_lower=q1, e1_upper=e1
    )
    return k, components, vacuous


def _channel_columns(ps, qber_overrides=None) -> np.ndarray:
    """Kernel inputs, one column per channel: rows eta, Y0, e_det, f_ec, QBER override.

    Computed once per channel.  ``qber_overrides`` is None or one entry per
    channel; a None entry becomes NaN (modeled QBER).
    """
    if qber_overrides is None:
        qber_overrides = [None] * len(ps)
    elif np.ndim(qber_overrides) != 1:
        raise ValueError(f"a batch of channels needs one QBER override per channel, got {qber_overrides!r}")
    for q in qber_overrides:
        if q is not None:
            _check_error_rate(q)
    # looked up on the module, where perfbench's tracer counts channel-layer calls
    rows = [
        (channel.transmittance(p), channel.background_yield(p), p.e_det, p.f_ec, math.nan if q is None else q)
        for p, q in zip(ps, qber_overrides, strict=True)
    ]
    return np.array(rows).T


def evaluate_key_rate(
    p: ChannelParams | Sequence[ChannelParams],
    mu: float | Sequence[float],
    nu: float | Sequence[float],
    qber_override: float | None | Sequence[float | None] = None,
) -> KeyRateResult | list[KeyRateResult]:
    """Full pipeline: channel model -> decoy bounds -> key rate.

    A sequence of channels takes one mu and one nu per channel (and, if
    given, one QBER override each, None keeping the modeled QBER) and gives
    a list of results.
    """
    single = isinstance(p, ChannelParams)
    ps, mu, nu, qber = ([p], [mu], [nu], [qber_override]) if single else (p, mu, nu, qber_override)
    for _, m, n in zip(ps, mu, nu, strict=True):
        _check_ordering(m, n)
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    k, components, vacuous = _key_rate_arrays(*_channel_columns(ps, qber), mu, nu)
    if np.any(components["q_nu"] == 0.0):
        raise ZeroGainError()
    # with Q_nu > 0 the gains and QBERs are finite, and a NaN or inf Q1 or e1 makes K one too
    _check_finite(mu, nu, k)
    results = [
        _result(k[i], float(mu[i]), float(nu[i]), {n: v[i] for n, v in components.items()}, vacuous[i])
        for i in range(len(k))
    ]
    return results[0] if single else results
