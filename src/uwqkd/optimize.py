"""Key rate maximization over (mu, nu) and rate-distance analysis.

The objective is smooth and unimodal in practice but cheap, so a dense
log-uniform coarse grid is evaluated first (vectorized), followed by a few
passes of coordinate-wise golden-section refinement.  Ties break toward
smaller mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .decoy import KeyRateResult, _key_rate_arrays, evaluate_key_rate

_INVPHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class OptimizerConfig:
    mu_range: tuple[float, float] = (0.0, 1.0)
    nu_min: float = 1e-4
    coarse_grid: int = 64
    refine_iterations: int = 3
    tolerance: float = 1e-6

    def __post_init__(self):
        if not 0 < self.nu_min < math.inf:
            raise ValueError(f"nu_min must be finite and > 0, got {self.nu_min}")
        if self.coarse_grid < 8:
            raise ValueError("coarse_grid must be >= 8 points per axis")
        if not 0 <= self.mu_range[0] < self.mu_range[1] < math.inf:
            raise ValueError(f"invalid mu_range {self.mu_range}")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class RatePoint:
    length_m: float
    k_per_pulse: float
    mu_opt: float
    nu_opt: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class RateCurve:
    points: tuple[RatePoint, ...]

    def __post_init__(self):
        lengths = [pt.length_m for pt in self.points]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("curve lengths must be strictly increasing")


def _k_grid(
    p: ChannelParams,
    mu: np.ndarray,
    nu: np.ndarray,
    qber_override: float | None = None,
) -> np.ndarray:
    """Key rate on broadcastable (mu, nu) arrays; invalid points -> -inf."""
    k, components, _ = _key_rate_arrays(p, mu, nu, qber_override)
    return np.where((nu < mu) & (components["q_mu"] > 0), k, -np.inf)


def _golden_max(f, a: float, b: float, tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b]; returns (x, f(x))."""
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while abs(b - a) > tol * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def optimize_mu_nu(
    p: ChannelParams,
    cfg: OptimizerConfig | None = None,
    qber_override: float | None = None,
) -> KeyRateResult:
    """Maximize the decoy key rate over nu_min <= nu < mu <= mu_max."""
    cfg = cfg or OptimizerConfig()
    mu_lo = max(cfg.mu_range[0], 2 * cfg.nu_min)
    mu_hi = cfg.mu_range[1]
    n = cfg.coarse_grid
    mus = np.geomspace(mu_lo, mu_hi, n)
    nus = np.geomspace(cfg.nu_min, mu_hi * (1 - 1e-9), n)
    k = _k_grid(p, mus[:, None], nus[None, :], qber_override)
    # first flat argmax = smallest mu (rows ascend in mu), breaking ties low
    i, j = np.unravel_index(np.argmax(k), k.shape)
    best_mu, best_nu, best_k = float(mus[i]), float(nus[j]), float(k[i, j])

    if best_k > 0:
        step = (mu_hi / mu_lo) ** (1 / (n - 1))
        for _ in range(cfg.refine_iterations):
            prev_k = best_k

            def k_of_mu(m):
                return _k_grid(p, np.asarray(m), np.asarray(best_nu), qber_override)[()]

            a = max(mu_lo, best_mu / step, best_nu * (1 + 1e-9))
            b = min(mu_hi, best_mu * step)
            if a < b:
                m, km = _golden_max(k_of_mu, a, b)
                if km >= best_k:
                    best_mu, best_k = m, km

            def k_of_nu(v):
                return _k_grid(p, np.asarray(best_mu), np.asarray(v), qber_override)[()]

            a = cfg.nu_min
            b = best_mu * (1 - 1e-9)
            if a < b:
                v, kv = _golden_max(k_of_nu, a, b)
                if kv >= best_k:
                    best_nu, best_k = v, kv

            if best_k - prev_k <= cfg.tolerance * max(prev_k, 1e-300):
                break

    return evaluate_key_rate(p, best_mu, best_nu, qber_override=qber_override)


def distance_sweep(
    p: ChannelParams,
    lengths,
    cfg: OptimizerConfig | None = None,
    qber_overrides: dict[float, float] | None = None,
) -> RateCurve:
    """Optimized key rate at each channel length, in ascending length order."""
    lengths = [float(x) for x in lengths]
    if not lengths:
        raise ValueError("length sequence must be non-empty")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly increasing")
    points = []
    for length in lengths:
        override = qber_overrides.get(length) if qber_overrides else None
        res = optimize_mu_nu(p.at_length(length), cfg, qber_override=override)
        points.append(
            RatePoint(
                length_m=length,
                k_per_pulse=res.k_per_pulse,
                mu_opt=res.mu,
                nu_opt=res.nu,
                flags=res.flags,
            )
        )
    return RateCurve(tuple(points))


def max_secure_distance(
    p: ChannelParams,
    cfg: OptimizerConfig | None = None,
    l_max: float = 200.0,
    tol_m: float = 0.1,
) -> float:
    """Largest channel length with positive optimized key rate, to +/- tol_m.

    Returns ``inf`` when no cutoff exists below ``l_max``.
    """
    cfg = cfg or OptimizerConfig()

    def k_at(length):
        return optimize_mu_nu(p.at_length(length), cfg).k_per_pulse

    if k_at(0.0) <= 0:
        raise ValueError("channel dead at zero length")
    if k_at(l_max) > 0:
        return math.inf
    lo, hi = 0.0, l_max
    while hi - lo > tol_m:
        mid = (lo + hi) / 2
        if k_at(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
