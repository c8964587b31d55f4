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
FLAG_GAIN_CAPPED = "gain_capped"  # signal gain capped at 1 - Y0 (see channel._gain_qber)


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


def _entropy(e):
    """Binary entropy in bits on an array of error rates in [0, 1].

    The logarithms' arguments are floored at the smallest subnormal float,
    so H(0) = H(1) = 0 comes out as 0 * -1074 rather than 0 * log2(0) = NaN.
    """
    f = 1 - e
    return -(e * np.log2(np.maximum(e, 5e-324)) + f * np.log2(np.maximum(f, 5e-324)))


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


def _decoy_nu(s_nu, d_nu, nu, y0):
    """The decoy's half of the single-photon bounds, on broadcastable arrays.

    Takes the signal parts of the decoy's gain, s = Q - Y0, and error gain,
    d = E Q - Y0/2 (see ``channel._gain_qber``), with Y0 folded in as
    Q e^x - Y0 = s e^x + Y0 expm1(x), so no term cancels at small nu.
    Returns ``(bracket_nu, e1_nu)``: s_nu e^nu + Y0 expm1(nu), the leading
    terms of Q1's bracket, and d_nu e^nu + Y0 expm1(nu) / 2, e1's numerator.
    """
    with np.errstate(all="ignore"):  # e^nu overflows above nu ~ 709.8; callers screen out the inf
        exp_nu = np.exp(nu)
        dark_nu = y0 * np.expm1(nu)
        return s_nu * exp_nu + dark_nu, d_nu * exp_nu + 0.5 * dark_nu


def _decoy_bounds(s_mu, mu, nu, y0, bracket_nu, e1_nu):
    """Single-photon gain and error bounds, on broadcastable arrays.

    Completes the decoy's half from ``_decoy_nu`` with the signal's part of
    the gain, s_mu = Q_mu - Y0.  Returns ``(q1, e1, vacuous)``: Q1 clamped
    below at 0, e1 clamped into [0, 1/2] (1/2 where Q1 = 0), and where
    either clamp fired.  e^mu overflows above mu ~ 709.8 and r (mu - nu) can
    underflow, so its callers, ``_key_rate_arrays`` and ``estimate_single_photon``,
    hold ``np.errstate(all="ignore")`` around it and screen out the NaN/inf.
    """
    exp_mu = np.exp(mu)
    p1 = mu / exp_mu  # single-photon probability mu e^-mu
    r = nu / mu
    bracket = bracket_nu - r * r * (s_mu * exp_mu + y0 * np.expm1(mu))
    q1 = np.maximum(0.0, p1 / (r * (mu - nu)) * bracket)
    e1_raw = e1_nu * p1 / (q1 * nu)
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
    bracket_nu, e1_nu = _decoy_nu(stats.q_nu - y0, stats.e_nu * stats.q_nu - 0.5 * y0, nu, y0)
    with np.errstate(all="ignore"):  # see _decoy_bounds
        q1, e1, vacuous = _decoy_bounds(stats.q_mu - y0, mu, nu, y0, bracket_nu, e1_nu)
    _check_finite(mu, nu, q1, e1)
    return DecoyEstimate(q1_lower=float(q1), e1_upper=float(e1), vacuous=bool(vacuous))


def _result(k, mu, nu, components, vacuous, gain_capped=False) -> KeyRateResult:
    """A result from the unclamped K and a dict of float components."""
    flags = (FLAG_VACUOUS,) if vacuous else ()
    if k <= 0:
        flags += (FLAG_NO_POSITIVE_KEY,)
    if gain_capped:
        flags += (FLAG_GAIN_CAPPED,)
    return KeyRateResult(
        k_per_pulse=max(0.0, float(k)),
        mu=mu,
        nu=nu,
        components=components,
        flags=flags,
    )


def _nu_stage(cols, nu) -> np.ndarray:
    """The half of the key-rate kernel that depends on the channel and nu alone.

    Takes channel columns (see ``_channel_columns``) and nu, broadcastable
    against each other; computed once per batch and nu, so that
    ``_key_rate_arrays`` does only the per-mu work.  Returns the rows eta,
    Y0, e_det, f_ec, QBER override, modeled (1.0 where the override is NaN),
    nu, Q_nu, E_nu and the two terms of ``_decoy_nu``, stacked on the first
    axis like the columns and broadcast to one shape.
    """
    eta, y0, e_det, f_ec, qber = cols
    q_nu, e_nu, s_nu, d_nu = _gain_qber(nu, eta, y0, e_det)
    rows = (*cols, np.isnan(qber), nu, q_nu, e_nu, *_decoy_nu(s_nu, d_nu, nu, y0))
    stage = np.empty((len(rows), *np.broadcast(*rows).shape))
    for out, row in zip(stage, rows):
        out[...] = row
    return stage


def _key_rate_arrays(stage, mu):
    """Channel model -> decoy bounds -> key rate, on broadcastable arrays.

    Takes the rows of ``_nu_stage`` and the mu array.  Returns the
    unclamped K, the ``KeyRateResult.components`` as arrays and the vacuous
    mask; callers screen out points with nu >= mu or zero gain.
    """
    eta, y0, e_det, f_ec, qber, modeled, nu, q_nu, e_nu, bracket_nu, e1_nu = stage
    with np.errstate(all="ignore"):  # see _decoy_bounds
        q_mu, e_mu, s_mu, _ = _gain_qber(mu, eta, y0, e_det)
        q1, e1, vacuous = _decoy_bounds(s_mu, mu, nu, y0, bracket_nu, e1_nu)
    e_mu = np.where(modeled, e_mu, qber)
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
    ps, mu_in, nu_in, qber = ([p], [mu], [nu], [qber_override]) if single else (p, mu, nu, qber_override)
    mu, nu = np.asarray(mu_in), np.asarray(nu_in)
    if not mu.shape == nu.shape == (len(ps),):
        raise ValueError(f"a batch of {len(ps)} channels needs one mu and one nu per channel, "
                         f"got shapes {mu.shape} and {nu.shape}")
    bad = ~((0 < nu) & (nu < mu) & (mu < math.inf))  # a TypeError for strings, as in _check_ordering
    if bad.any():
        i = int(np.argmax(bad))
        _check_ordering(mu_in[i], nu_in[i])
    mu, nu = mu.astype(float, copy=False), nu.astype(float, copy=False)
    cols = _channel_columns(ps, qber)
    k, components, vacuous = _key_rate_arrays(_nu_stage(cols, nu), mu)
    if np.any(components["q_nu"] == 0.0):
        raise ZeroGainError()
    # with Q_nu > 0 the gains and QBERs are finite, and a NaN or inf Q1 or e1 makes K one too
    _check_finite(mu, nu, k)
    eta, y0 = cols[:2]
    capped = -np.expm1(-eta * mu) > 1.0 - y0  # where _gain_qber capped the signal gain
    names, per_channel = list(components), zip(*(v.tolist() for v in components.values()))
    results = [
        _result(k_i, m, n, dict(zip(names, values)), vac, cap)
        for k_i, m, n, vac, cap, values in zip(
            k.tolist(), mu.tolist(), nu.tolist(), vacuous.tolist(), capped.tolist(), per_channel
        )
    ]
    return results[0] if single else results
