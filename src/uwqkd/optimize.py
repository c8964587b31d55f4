"""Key rate maximization over (mu, nu) and rate-distance analysis.

The weakest decoy is best (Ma, Qi, Zhao and Lo, PRA 72, 012326, 2005), so a
batch of channels is optimized over mu alone at nu = nu_min (see
``OptimizerConfig``).  K depends on nu only through the bounds of
``decoy._decoy_nu`` and ``decoy._decoy_bounds``; with Poisson yields,
Q_x e^x = sum_n Y_n x^n / n!, and Y1 = Q1 e^mu / mu, they read
    Q1 = mu e^-mu [Y1 - mu nu sum_{n>=3} (Y_n / n!) sum_{k=0}^{n-3} mu^k nu^(n-3-k)],
    e1 Y1 = sum_{n>=1} [Y0/2 + e_det (Y_n - Y0)] nu^(n-1) / n!.
So Q1 falls and e1 rises with nu, clamps included, while Q_mu, E_mu and a QBER
override do not depend on nu: K = 1/2 [Q1 (1 - H(e1)) - f Q_mu H(E_mu)] never
rises with nu.  This needs Poisson yields, which a signal gain capped at 1 - Y0
by ``channel._gain_qber`` (Y0 > exp(-eta mu); such results carry the flag
``decoy.FLAG_GAIN_CAPPED``) is not, and exact arithmetic:
with nu_min <= 1e-5, where Y0 nu dwarfs the decoy's signal gain, rounding can
make K rise along nu, and below a transmittance of about 1e-300 the bounds go
subnormal; a nu_min row with no finite K raises ``NonFiniteBoundsError``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, ZeroGainError, _is_int
from .decoy import (
    KeyRateResult,
    NonFiniteBoundsError,
    _channel_columns,
    _key_rate_arrays,
    _nu_stage,
    evaluate_key_rate,
)

_CHUNK_POINTS = 2 * 64 * 64  # kernel points per call, bounding its temporaries
_ZOOM = np.linspace(-1.0, 1.0, 9)  # zoom offsets in box half-widths; 0 is the current best
_LEVELS = 4  # bisection steps of max_secure_distance decided per optimize_mu_nu batch


class DeadChannelError(ValueError):
    """No positive key even at zero length."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Search space and effort of ``optimize_mu_nu``.

    mu is searched at nu_min: a log-uniform coarse row from 2 nu_min to mu_max,
    then three zoom rounds per ``refine_iterations`` pass (0 keeps the coarse
    optimum), each 9 points in log mu around the best one, with a half-width
    of one coarse step that shrinks by 4x per round.  Ties go to the smaller mu.
    """

    mu_max: float = 1.0
    nu_min: float = 1e-4
    coarse_grid: int = 64
    refine_iterations: int = 3

    def __post_init__(self):
        if not 0 < self.nu_min < math.inf:
            raise ValueError(f"nu_min must be finite and > 0, got {self.nu_min}")
        if not (_is_int(self.coarse_grid) and self.coarse_grid >= 8):
            raise ValueError(f"coarse_grid must be an int >= 8 points per axis, got {self.coarse_grid!r}")
        # an empty search box would give a backwards axis and a mu above mu_max
        if not 2 * self.nu_min < self.mu_max < math.inf:
            raise ValueError(f"mu_max must be finite and > 2 * nu_min = {2 * self.nu_min}, got {self.mu_max}")
        if not (_is_int(self.refine_iterations) and self.refine_iterations >= 0):
            raise ValueError(f"refine_iterations must be an int >= 0, got {self.refine_iterations!r}")
        # numpy integers are stored as ints, so the record always serializes to JSON
        for name in ("coarse_grid", "refine_iterations"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True)
class RatePoint:
    length_m: float
    k_per_pulse: float
    mu_opt: float
    nu_opt: float
    flags: tuple[str, ...]


def _k_grid(stage: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Key rate on a mu array, from the rows of ``decoy._nu_stage`` reshaped to
    broadcast against it (``_row_best`` passes them at mu's shape, which makes
    each numpy call cheaper than a broadcast); invalid points and non-finite
    K -> -inf, so that ``np.argmax`` never picks a NaN.  ``_key_rate_arrays``
    holds the ``np.errstate`` of the decoy bounds."""
    k, components, _ = _key_rate_arrays(stage, mu)
    nu = stage[6]  # the nu row
    return np.where((nu < mu) & (components["q_mu"] > 0) & np.isfinite(k), k, -np.inf)


@functools.lru_cache(maxsize=16)
def _grid(cfg: OptimizerConfig) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The log-uniform coarse mu axis and, per zoom round, the factors
    exp(half-width * _ZOOM) on mu; built once per config, read-only."""
    mus = np.geomspace(2 * cfg.nu_min, cfg.mu_max, cfg.coarse_grid)
    halves = np.log(mus[1] / mus[0]) / 4.0 ** np.arange(3 * cfg.refine_iterations)
    zooms = tuple(np.exp(h * _ZOOM) for h in halves)
    for a in (mus, *zooms):
        a.flags.writeable = False
    return mus, zooms


def _row_best(stage: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best K on each channel's row of ``mu``, given the channels' ``decoy._nu_stage``
    columns, and its mu (the first maximum, so the smaller mu of an ascending row),
    in kernel calls of at most ``_CHUNK_POINTS`` points, which bounds their
    temporaries.  Each call gets the stage rows repeated to the chunk's shape
    (one copy of at most 11 x ``_CHUNK_POINTS`` floats), so that the kernel's
    numpy calls take same-shape operands and do not broadcast."""
    k_best, mu_best = np.empty(len(mu)), np.empty(len(mu))
    step = max(1, _CHUNK_POINTS // mu.shape[1])
    for c in range(0, len(mu), step):
        rows = mu[c : c + step]
        k = _k_grid(np.repeat(stage[:, c : c + step, None], rows.shape[1], axis=2), rows)
        at, j = np.arange(len(rows)), np.argmax(k, axis=1)
        k_best[c : c + step], mu_best[c : c + step] = k[at, j], rows[at, j]
    return k_best, mu_best


def optimize_mu_nu(
    p: ChannelParams | Sequence[ChannelParams],
    cfg: OptimizerConfig | None = None,
    qber_override: float | None | Sequence[float | None] = None,
) -> KeyRateResult | list[KeyRateResult]:
    """Maximize the decoy key rate over nu_min <= nu < mu <= mu_max, at nu = nu_min.

    A sequence of channels is optimized as one batch and gives a list of
    results; ``qber_override`` is then None or a sequence too (None entries
    keep the modeled QBER).
    """
    cfg = cfg or OptimizerConfig()
    single = isinstance(p, ChannelParams)
    ps, qber = ([p], [qber_override]) if single else (list(p), qber_override)
    if not ps:
        return []
    nu = float(cfg.nu_min)
    stage = _nu_stage(_channel_columns(ps, qber), nu)  # once for the coarse row and every zoom
    mus, zooms = _grid(cfg)
    best_k, mu = _row_best(stage, np.broadcast_to(mus, (len(ps), mus.size)))

    live = np.flatnonzero(best_k > 0)
    s, m, kb = stage[:, live], mu[live], best_k[live]
    for zoom in zooms:
        kz, mz = _row_best(s, np.minimum(np.maximum(m[:, None] * zoom, mus[0]), mus[-1]))
        up = kz >= kb  # so K never falls below the coarse best
        kb, m = np.where(up, kz, kb), np.where(up, mz, m)
    mu[live] = m

    results = evaluate_key_rate(ps, mu, np.full(len(ps), nu), qber)
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


def _midpoints(lo: float, hi: float, tol_m: float, levels: int) -> list[float]:
    """Every midpoint that the bisection of ``max_secure_distance`` can probe in
    its next ``levels`` steps from (lo, hi), in ascending order (at most
    2**levels - 1); it stops at tol_m, or once no float is left strictly
    between lo and hi."""
    if levels == 0 or not (hi - lo > tol_m and lo < (mid := (lo + hi) / 2) < hi):
        return []
    return [*_midpoints(lo, mid, tol_m, levels - 1), mid, *_midpoints(mid, hi, tol_m, levels - 1)]


def max_secure_distance(
    p: ChannelParams,
    cfg: OptimizerConfig | None = None,
    l_max: float = 200.0,
    tol_m: float = 0.1,
) -> float:
    """Largest channel length with positive optimized key rate.

    Bisects [0, l_max] down to a bracket at most tol_m wide and returns its
    midpoint, so the result lies within tol_m / 2 of where the coarse row's
    best K stops being positive.  A probe needs only the sign of the optimized
    K, which is the sign of the coarse row's best K (refinement never lowers
    it), so probes skip refinement; a probe with zero gain or no finite K at
    nu_min has no key.  Each ``optimize_mu_nu`` call is one batch holding every
    midpoint of the next ``_LEVELS`` bisection steps (the first also 0 m and
    l_max); a batch is exact per channel, so the bisection walks the same
    brackets as one probe per call would.  A batch raises if any of its
    channels does, so the lengths of a raising batch are probed one at a time
    when the bisection reaches them.
    Returns ``inf`` when no cutoff exists below ``l_max``; raises
    ``DeadChannelError`` when there is no key at 0 m.
    """
    if not 0 <= tol_m < math.inf:
        raise ValueError(f"tol_m must be finite and >= 0, got {tol_m}")
    if not 0 < l_max < math.inf:
        raise ValueError(f"l_max must be finite and > 0, got {l_max}")
    coarse = replace(cfg or OptimizerConfig(), refine_iterations=0)

    def has_key(lengths):
        try:
            return [r.k_per_pulse > 0 for r in optimize_mu_nu([p.at_length(x) for x in lengths], coarse)]
        except (ZeroGainError, NonFiniteBoundsError):
            # None: probed alone once the bisection reaches it
            return [False] if len(lengths) == 1 else [None] * len(lengths)

    def key_at(length):
        if known[length] is None:
            known[length] = has_key([length])[0]
        return known[length]

    lo, hi = 0.0, l_max
    probes = [lo, hi, *_midpoints(lo, hi, tol_m, _LEVELS)]
    known = dict(zip(probes, has_key(probes)))
    if not key_at(lo):
        raise DeadChannelError("channel dead at zero length")
    if key_at(hi):
        return math.inf
    while hi - lo > tol_m and lo < (mid := (lo + hi) / 2) < hi:
        if mid not in known:
            probes = _midpoints(lo, hi, tol_m, _LEVELS)
            known.update(zip(probes, has_key(probes)))
        lo, hi = (mid, hi) if key_at(mid) else (lo, mid)
    return (lo + hi) / 2
