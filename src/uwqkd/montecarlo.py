"""Pulse-level BB84 session simulator.

Stochastic oracle for the analytic gain/QBER model: Poisson photon number, a
signal click with the chance 1 - (1-eta)^n that at least one of n photons
survives (so the analytic counterpart is exactly Y_n = Y0 + 1 - (1-eta)^n),
dark counts OR-ed into the detection window, and uniform basis choice on both
sides.  Double clicks (signal + dark) resolve to the signal outcome; dark-only
clicks carry a uniformly random outcome.

A block counts its pulses per photon number and keeps no pulse positions; this
samples the same process as drawing every pulse, exactly (Devroye 1986, ch.
XI).  One multinomial draw over the session's Poisson table gives the block's
count of pulses with n = 0 .. K photons, and one binomial per count, at
chance[n] = 1 - (1-eta)^n, thins it to that class's signal clicks, S in all.
The table is built once per session, outward from the mode, and stops at the
first photon number K whose tail P(N > K) is below 2**-53; that tail is folded
into K.  The D dark counts are Binomial(block size, Y0) at distinct, uniformly
placed pulses, so Hypergeometric(S, size - S, D) of them are double clicks.
Bases and outcomes are drawn for the clicks only.

Pulses are simulated in blocks of 2**16, in order on the calling thread, each
block drawing from its own stream derived from the master seed; the blocks'
integer counts are summed.  A block's draws see arrays of K + 1 entries or of
its clicks, a few thousand or fewer on the flume's channels, so their cost is
mostly call overhead under the interpreter lock, which threads cannot share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, _gain_qber, _is_int, background_yield, transmittance

BLOCK_SIZE = 2**16
_BAND_SE = 4.0  # half-width of within_model_band's band, in standard errors
_MU_MAX = 1e4  # largest mu simulated; its photon table has K = 10832


@dataclass(frozen=True)
class SessionStats:
    pulses_sent: int
    detections: int
    sifted: int
    errors: int
    q_hat: float
    e_hat: float | None
    q_se: float
    e_se: float | None
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def _photon_pmf(mu: float) -> np.ndarray:
    """Poisson(mu) table of a session's blocks: P(N = k) for k = 0 .. K-1, and P(N >= K) at K.

    K is the first k with P(N > k) below 2**-53, and at least 1: the mass above it, which
    a double next to 1 cannot hold, is folded into K.
    """
    k = np.arange(1.0, int(mu + 40 * math.sqrt(mu) + 40))  # the tail beyond is far below 2**-53
    # P(N = k) / P(N = mode), from 1 at the mode floor(mu) by P(k) = P(k-1) mu / k both ways, so
    # nothing starts from exp(-mu), which underflows near mu = 745; each step rounds about once,
    # where exp(k log mu - lgamma(k + 1)) would lose ~k log(mu) ulps to cancellation
    mode = int(mu)
    pmf = np.concatenate((np.cumprod(k[:mode][::-1] / mu)[::-1],  # P(k-1) = P(k) k / mu below it
                          np.cumprod(np.append(1.0, mu / k[mode:]))))
    pmf /= pmf.sum()
    tail = np.cumsum(pmf[::-1])[::-1]  # P(N >= k), summed from the far tail
    n = max(1, int(np.argmax(tail[1:] < 2.0**-53)))
    return np.append(pmf[:n], tail[n])


def _click_chance(eta: float, size: int) -> np.ndarray:
    """chance[n] = 1 - (1 - eta)**n, as -expm1(n log1p(-eta)), for n = 1 .. size - 1, with chance[0] = 0."""
    log_miss = math.log1p(-eta) if eta < 1 else -math.inf  # log1p(-1) raises
    return np.append(0.0, -np.expm1(np.arange(1, size) * log_miss))  # never 0 * log1p(-1)


def _photons(rng: np.random.Generator, size: int, pmf: np.ndarray) -> np.ndarray:
    """The count of a block's ``size`` pulses with n = 0 .. K photons: one multinomial draw."""
    return rng.multinomial(size, pmf)


def _signal(rng: np.random.Generator, photons: np.ndarray, chance: np.ndarray) -> int:
    """Signal clicks of a block with photons[n] pulses of n photons: Binomial(photons[n], chance[n]) each."""
    return int(rng.binomial(photons, chance).sum())


def _dark_only(rng: np.random.Generator, size: int, y0: float, signal: int) -> int:
    """Dark-only clicks of a block of ``size`` pulses with ``signal`` signal clicks: of the
    Binomial(size, y0) dark counts at distinct, uniformly placed pulses (i.i.d. Bernoulli(y0)),
    Hypergeometric(signal, size - signal, dark) fall on a signal click, drawn if both are > 0."""
    dark = int(rng.binomial(size, y0))
    return dark - (int(rng.hypergeometric(signal, size - signal, dark)) if signal and dark else 0)


def _sift(rng: np.random.Generator, signal: int, dark_only: int, e_det: float) -> tuple[int, int, int]:
    """(detections, sifted, errors) of a block's clicks, the signal clicks first: Alice's and
    Bob's bases and an outcome flip per click, wrong with probability e_det on a signal click
    and 1/2 on a dark-only click."""
    clicks = signal + dark_only
    sift = rng.integers(0, 2, clicks) == rng.integers(0, 2, clicks)
    flip = rng.random(clicks)
    wrong = flip < e_det
    wrong[signal:] = flip[signal:] < 0.5
    return clicks, int(np.count_nonzero(sift)), int(np.count_nonzero(sift & wrong))


def _block_counts(rng: np.random.Generator, size: int, pmf: np.ndarray, chance: np.ndarray,
                  y0: float, e_det: float) -> tuple[int, int, int]:
    """(detections, sifted, errors) of one block of ``size`` pulses.

    Draw order: the count of pulses per photon number (``_photons``), the signal clicks of
    each count in photon-number order (``_signal``), the dark count and, unless it or the
    signal clicks are 0, the double clicks (``_dark_only``), then bases and outcome flips for
    the clicks, the signal clicks first (``_sift``).
    """
    signal = _signal(rng, _photons(rng, size, pmf), chance)
    return _sift(rng, signal, _dark_only(rng, size, y0, signal), e_det)


def simulate_session(p: ChannelParams, mu: float, n_pulses: int, seed: int) -> SessionStats:
    """Simulate a BB84 session of n_pulses weak coherent pulses."""
    if not (math.isfinite(mu) and 0 <= mu <= _MU_MAX):
        raise ValueError(f"mu must be finite, >= 0 and <= {_MU_MAX!r}, got {mu!r}")
    if not (_is_int(n_pulses) and n_pulses >= 1):
        raise ValueError(f"n_pulses must be an int >= 1, got {n_pulses!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    n_pulses, seed = int(n_pulses), int(seed)
    y0, pmf = background_yield(p), _photon_pmf(mu)
    chance = _click_chance(transmittance(p), pmf.size)
    # one generator per block, dropped when its block returns
    blocks = [_block_counts(_block_rng(seed, b), min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE), pmf, chance,
                            y0, p.e_det)
              for b in range((n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE)]
    detections, sifted, errors = (sum(col) for col in zip(*blocks))

    q_hat = detections / n_pulses
    q_se = math.sqrt(q_hat * (1 - q_hat) / n_pulses)
    if sifted > 0:
        e_hat = errors / sifted
        e_se = math.sqrt(e_hat * (1 - e_hat) / sifted)
    else:
        e_hat = e_se = None
    return SessionStats(
        pulses_sent=n_pulses,
        detections=detections,
        sifted=sifted,
        errors=errors,
        q_hat=q_hat,
        e_hat=e_hat,
        q_se=q_se,
        e_se=e_se,
        seed=seed,
    )


def within_model_band(stats: SessionStats, p: ChannelParams, mu: float) -> bool:
    """True when the analytic gain/QBER lie within ``_BAND_SE`` standard errors.

    The standard error is floored at the model-based binomial SE so that
    channels with near-zero observed error counts do not degenerate the
    band; one count of discreteness slack is allowed on the QBER.
    """
    q_model, e_model, _, _ = _gain_qber(mu, transmittance(p), background_yield(p), p.e_det)
    q_se = max(stats.q_se, math.sqrt(q_model * (1 - q_model) / stats.pulses_sent))
    ok = abs(stats.q_hat - q_model) <= _BAND_SE * q_se
    if stats.sifted > 0 and stats.e_hat is not None:
        e_se = max(stats.e_se or 0.0, math.sqrt(e_model * (1 - e_model) / stats.sifted))
        ok = ok and abs(stats.e_hat - e_model) <= _BAND_SE * e_se + 1.0 / stats.sifted
    return ok

