"""Pulse-level BB84 session simulator.

Stochastic oracle for the analytic gain/QBER model: Poisson photon number, a
signal click with the chance 1 - (1-eta)^n that at least one of n photons
survives (so the analytic counterpart is exactly Y_n = Y0 + 1 - (1-eta)^n),
dark counts OR-ed into the detection window, and uniform basis choice on both
sides.  Double clicks (signal + dark) resolve to the signal outcome; dark-only
clicks carry a uniformly random outcome.

Each block draws one uniform per pulse and turns it into a photon number by
inversion against a Poisson CDF table built once per session.  The table stops
at the first photon number K whose tail P(N > K) is below 2**-53, the spacing
of the uniforms, and that tail is folded into K.  Above mu = 50
(``_INVERSION_MU_MAX``; numpy's Poisson sampler is the faster one from about
mu = 60 on) the photon numbers come from ``rng.poisson`` instead.  Signal
clicks are drawn for the pulses with photons only, one uniform each against
1 - (1-eta)^n, and dark counts sparsely: their number from
Binomial(block size, Y0), then that many distinct positions.  Bases and
outcomes are drawn only for the pulses that click; no other pulse's draws
could reach a count.

Pulses are simulated in blocks of 2**16, each block drawing from its own stream
derived from the master seed.  The blocks run on min(usable CPUs, 4, number of
blocks) threads, the calling thread included; numpy releases the interpreter
lock inside its array calls (the draws, the table search, the click chances'
``expm1`` and the nonzero scans) but not between them, and on the flume's
channels the calls after the signal draw see a few thousand values or fewer, so
their cost is mostly call overhead under the lock.  Each thread takes the next
block and makes its generator under one lock, so each thread holds one
generator at a time.  Each block's counts are integers and are summed exactly,
so results are reproducible and independent of the number of threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, _gain_qber, _is_int, background_yield, transmittance

BLOCK_SIZE = 2**16
_MAX_THREADS = 4
_BAND_SE = 4.0  # half-width of within_model_band's band, in standard errors
_MU_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)  # numpy's Poisson limit
# Largest mu whose photon numbers are drawn by inversion.  On a 2-core x86-64 host
# (numpy 2.4) a 2**16-pulse row costs less by inversion than by rng.poisson up to
# mu ~ 60 (20: 57 against 80 ns per pulse; 50: 64 against 67) and more above it
# (100: 70 against 62), where the table holds ~130 entries and every pulse is lit.
_INVERSION_MU_MAX = 50.0


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _photon_cdf(mu: float) -> np.ndarray | None:
    """Inversion table of Poisson(mu): P(N <= k) for k = 0 .. K-1, or None above
    ``_INVERSION_MU_MAX``.

    K is the first k with P(N > k) below 2**-53, the spacing of ``rng.random``'s
    uniforms, and at least 1.  K is the largest photon number the table gives:
    the mass above it, below 2**-53, is folded into K.
    """
    if mu > _INVERSION_MU_MAX:
        return None
    k = np.arange(1.0, int(mu + 40 * math.sqrt(mu) + 40))  # the tail beyond is far below 2**-53
    # P(N = k) = P(N = k-1) mu / k rounds about once a step; exp(k log mu - lgamma(k + 1))
    # would lose ~k log(mu) ulps to cancellation
    pmf = math.exp(-mu) * np.cumprod(np.concatenate(([1.0], mu / k)))
    below = np.cumsum(pmf)  # P(N <= k), summed from the head
    above = np.cumsum(pmf[::-1])[::-1][1:]  # P(N > k), summed from the far tail
    n = max(1, int(np.argmax(above < 2.0**-53)))
    # each entry from whichever sum is the smaller, so it is within a few ulps
    return np.where(below[:n] < 0.5, below[:n], 1.0 - above[:n])


def _photons(rng: np.random.Generator, size: int, mu: float,
             cdf: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(indices of the pulses with photons, their photon numbers) of one block.

    One uniform u per pulse: u < P(N = 0) = ``cdf[0]`` leaves the pulse empty, and
    every other pulse's photon number is the count of table entries <= u.  Without
    a table (mu above ``_INVERSION_MU_MAX``) the numbers come from ``rng.poisson``.
    """
    if cdf is None:
        photons = rng.poisson(mu, size)
        lit = np.flatnonzero(photons)
        return lit, photons[lit]
    u = rng.random(size)
    lit = np.flatnonzero(u >= cdf[0])
    return lit, np.searchsorted(cdf, u[lit], side="right")


def _dark(rng: np.random.Generator, size: int, y0: float) -> np.ndarray:
    """Positions of the pulses with a dark count in one block, in no given order.

    Their number is Binomial(size, y0) and they are distinct and uniformly placed,
    so the block's dark indicators are i.i.d. Bernoulli(y0) for any y0 in [0, 1].
    """
    return rng.choice(size, rng.binomial(size, y0), replace=False, shuffle=False)


def _signal(rng: np.random.Generator, size: int, lit: np.ndarray, photons: np.ndarray,
            eta: float) -> np.ndarray:
    """Signal-click row of one block: a uniform per lit pulse below 1 - (1 - eta)**n."""
    log_miss = math.log1p(-eta) if eta < 1 else -math.inf  # log1p(-1) raises
    signal = np.zeros(size, dtype=bool)
    signal[lit] = rng.random(lit.size) < -np.expm1(photons * log_miss)
    return signal


def _sift(rng: np.random.Generator, signal: np.ndarray, dark: np.ndarray,
          e_det: float) -> tuple[int, int, int]:
    """(detections, sifted, errors) of a block's clicks, its signal clicks first.

    Alice's bases, Bob's bases and an outcome flip per click: a signal click is
    wrong with probability e_det, a dark-only click with probability 1/2.
    """
    n_signal = int(np.count_nonzero(signal))
    clicks = n_signal + dark.size - int(np.count_nonzero(signal[dark]))
    sift = rng.integers(0, 2, clicks) == rng.integers(0, 2, clicks)
    flip = rng.random(clicks)
    wrong = flip < e_det
    wrong[n_signal:] = flip[n_signal:] < 0.5
    return clicks, int(np.count_nonzero(sift)), int(np.count_nonzero(sift & wrong))


def _block_counts(rng: np.random.Generator, size: int, mu: float, cdf: np.ndarray | None,
                  eta: float, y0: float, e_det: float) -> tuple[int, int, int]:
    """(detections, sifted, errors) of one block.

    Draw order: photon numbers (``_photons``: one uniform per pulse inverted
    against ``cdf``, cut off where the tail falls below 2**-53, or ``rng.poisson``
    where mu > ``_INVERSION_MU_MAX`` and ``cdf`` is None), one click uniform per pulse
    with photons, in pulse order (``_signal``), dark-count positions (``_dark``), then bases
    and outcome flips for the clicks only (``_sift``): the signal clicks first,
    then the dark-only clicks.
    """
    lit, photons = _photons(rng, size, mu, cdf)
    signal = _signal(rng, size, lit, photons, eta)
    dark = _dark(rng, size, y0)
    return _sift(rng, signal, dark, e_det)


def simulate_session(p: ChannelParams, mu: float, n_pulses: int, seed: int) -> SessionStats:
    """Simulate a BB84 session of n_pulses weak coherent pulses."""
    if not (math.isfinite(mu) and 0 <= mu <= _MU_MAX):
        raise ValueError(f"mu must be finite, >= 0 and <= {_MU_MAX!r}, got {mu!r}")
    if not (_is_int(n_pulses) and n_pulses >= 1):
        raise ValueError(f"n_pulses must be an int >= 1, got {n_pulses!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    n_pulses, seed = int(n_pulses), int(seed)
    eta = transmittance(p)
    y0 = background_yield(p)
    cdf = _photon_cdf(mu)

    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_workers = min(_usable_cpus(), _MAX_THREADS, n_blocks)
    # a block is taken and its generator made under the lock, so _block_rng runs once per
    # block, in block order, one call at a time; the generator is dropped after its block
    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    block_counts: list[tuple[int, int, int] | None] = [None] * n_blocks
    failures: list[BaseException] = []

    def work() -> None:
        # each worker takes the next block until none is left; all stop once one has failed
        try:
            while True:
                with lock:
                    b = None if failures else next(blocks, None)
                    if b is None:
                        return
                    rng = _block_rng(seed, b)
                size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
                block_counts[b] = _block_counts(rng, size, mu, cdf, eta, y0, p.e_det)
                del rng
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=work) for _ in range(n_workers - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    detections, sifted, errors = (sum(col) for col in zip(*block_counts))

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

