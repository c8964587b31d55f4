"""Key rate maximization over (mu, nu) and rate-distance analysis.

The objective is smooth and unimodal in practice, so a batch of channels is
optimized together: a log-uniform coarse grid in a few broadcast kernel calls,
then rounds of small zoom grids in (log mu, log nu) around each channel's best
point, vectorized over the batch.  Ties break toward smaller mu.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, ZeroGainError
from .decoy import KeyRateResult, _channel_columns, _key_rate_arrays, evaluate_key_rate

_CHUNK_POINTS = 2 * 64 * 64  # coarse-grid points per kernel call, bounding its temporaries
_ZOOM = np.linspace(-1.0, 1.0, 9)  # zoom offsets in box half-widths; 0 is the current best


class DeadChannelError(ValueError):
    """No positive key even at zero length."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Search space and effort of ``optimize_mu_nu``.

    Each of the ``refine_iterations`` passes after the coarse grid is three
    zoom rounds: a 9 x 9 grid in (log mu, log nu) around the best point, whose
    half-width starts at one coarse step and shrinks by 4x per round (0 keeps
    the coarse optimum).  The coarse mu axis runs from 2 nu_min to mu_max.
    """

    mu_max: float = 1.0
    nu_min: float = 1e-4
    coarse_grid: int = 64
    refine_iterations: int = 3

    def __post_init__(self):
        if not 0 < self.nu_min < math.inf:
            raise ValueError(f"nu_min must be finite and > 0, got {self.nu_min}")
        if self.coarse_grid < 8:
            raise ValueError("coarse_grid must be >= 8 points per axis")
        # an empty search box would give backwards axes and a mu above mu_max
        if not 2 * self.nu_min < self.mu_max < math.inf:
            raise ValueError(f"mu_max must be finite and > 2 * nu_min = {2 * self.nu_min}, got {self.mu_max}")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")


@dataclass(frozen=True)
class RatePoint:
    length_m: float
    k_per_pulse: float
    mu_opt: float
    nu_opt: float
    flags: tuple[str, ...]


def _k_grid(cols: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Key rate of channel columns (see ``_channel_columns``, reshaped to
    broadcast) on (mu, nu) arrays; invalid points and non-finite K -> -inf,
    so that ``np.argmax`` never picks a NaN."""
    k, components, _ = _key_rate_arrays(*cols, mu, nu)
    return np.where((nu < mu) & (components["q_mu"] > 0) & np.isfinite(k), k, -np.inf)


def _axes(cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """The log-uniform coarse-grid axes (mus, nus)."""
    mus = np.geomspace(2 * cfg.nu_min, cfg.mu_max, cfg.coarse_grid)
    return mus, np.geomspace(cfg.nu_min, cfg.mu_max * (1 - 1e-9), cfg.coarse_grid)


def _coarse_best(cols: np.ndarray, mus: np.ndarray, nus: np.ndarray):
    """K, mu and nu of each channel column's best coarse-grid point."""
    best, chunk = [], max(1, _CHUNK_POINTS // (mus.size * nus.size))
    for c in range(0, cols.shape[1], chunk):
        k = _k_grid(cols[:, c : c + chunk, None, None], mus[:, None], nus[None, :])
        k = k.reshape(len(k), -1)
        # first flat argmax = smallest mu (rows ascend in mu), breaking ties low
        j = np.argmax(k, axis=1)
        best.append((k[np.arange(len(k)), j], mus[j // nus.size], nus[j % nus.size]))
    return [np.concatenate(x) for x in zip(*best)]


def optimize_mu_nu(
    p: ChannelParams | Sequence[ChannelParams],
    cfg: OptimizerConfig | None = None,
    qber_override: float | None | Sequence[float | None] = None,
) -> KeyRateResult | list[KeyRateResult]:
    """Maximize the decoy key rate over nu_min <= nu < mu <= mu_max.

    A sequence of channels is optimized as one batch and gives a list of
    results; ``qber_override`` is then None or a sequence too (None entries
    keep the modeled QBER).
    """
    cfg = cfg or OptimizerConfig()
    single = isinstance(p, ChannelParams)
    ps, qber = ([p], [qber_override]) if single else (list(p), qber_override)
    if not ps:
        return []
    cols = _channel_columns(ps, qber)
    mus, nus = _axes(cfg)
    best_k, mu, nu = _coarse_best(cols, mus, nus)

    live = np.flatnonzero(best_k > 0)
    c, m, v, kb = cols[:, live, None, None], mu[live], nu[live], best_k[live]
    steps, at = np.log([mus[1] / mus[0], nus[1] / nus[0]]), np.arange(live.size)
    for half in steps / 4.0 ** np.arange(3 * cfg.refine_iterations)[:, None]:
        mz = np.clip(m[:, None] * np.exp(half[0] * _ZOOM), mus[0], mus[-1])
        vz = np.clip(v[:, None] * np.exp(half[1] * _ZOOM), nus[0], nus[-1])
        kz = _k_grid(c, mz[:, :, None], vz[:, None, :]).reshape(live.size, _ZOOM.size**2)
        j = np.argmax(kz, axis=1)
        up = kz[at, j] >= kb  # so K never falls below the coarse best
        kb = np.where(up, kz[at, j], kb)
        m, v = np.where(up, mz[at, j // _ZOOM.size], m), np.where(up, vz[at, j % _ZOOM.size], v)
    mu[live], nu[live] = m, v

    results = evaluate_key_rate(ps, mu, nu, qber)
    return results[0] if single else results


def distance_sweep(p: ChannelParams, lengths, cfg: OptimizerConfig | None = None) -> tuple[RatePoint, ...]:
    """Optimized key rate at each channel length, in ascending length order."""
    lengths = [float(x) for x in lengths]
    if not lengths:
        raise ValueError("length sequence must be non-empty")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("lengths must be strictly increasing")
    results = optimize_mu_nu([p.at_length(x) for x in lengths], cfg)
    return tuple(
        RatePoint(length_m=x, k_per_pulse=r.k_per_pulse, mu_opt=r.mu, nu_opt=r.nu, flags=r.flags)
        for x, r in zip(lengths, results)
    )


def max_secure_distance(
    p: ChannelParams,
    cfg: OptimizerConfig | None = None,
    l_max: float = 200.0,
    tol_m: float = 0.1,
) -> float:
    """Largest channel length with positive optimized key rate, to +/- tol_m.

    A probe needs only the sign of the optimized K, which is the sign of the
    coarse grid's best K (refinement never lowers it), so probes skip
    refinement; a probe with zero gain has no key.  Returns ``inf`` when no
    cutoff exists below ``l_max``; raises ``DeadChannelError`` when there is
    no key at 0 m.
    """
    if not 0 <= tol_m < math.inf:
        raise ValueError(f"tol_m must be finite and >= 0, got {tol_m}")
    if not 0 < l_max < math.inf:
        raise ValueError(f"l_max must be finite and > 0, got {l_max}")
    coarse = replace(cfg or OptimizerConfig(), refine_iterations=0)

    def has_key(length):
        try:
            return optimize_mu_nu(p.at_length(length), coarse).k_per_pulse > 0
        except ZeroGainError:
            return False

    if not has_key(0.0):
        raise DeadChannelError("channel dead at zero length")
    if has_key(l_max):
        return math.inf
    lo, hi = 0.0, l_max
    # stops at tol_m, or once no float is left strictly between lo and hi
    while hi - lo > tol_m and lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if has_key(mid) else (lo, mid)
    return (lo + hi) / 2
