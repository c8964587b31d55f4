"""Pulse-level BB84 session simulator.

Stochastic oracle for the analytic gain/QBER model: Poisson photon number, a
signal click with the chance 1 - (1-eta)^n that at least one of n photons
survives (so the analytic counterpart is exactly Y_n = Y0 + 1 - (1-eta)^n),
dark counts OR-ed into the detection window, and uniform basis choice on both
sides.  Double clicks (signal + dark) resolve to the signal outcome; dark-only
clicks carry a uniformly random outcome.

A block draws only its pulses with photons and keeps no pulse positions; both
substitutions sample the same process exactly (Devroye 1986, ch. X-XI).  The
lit count is Binomial(block size, 1 - P(N=0)), and each lit pulse's uniform v
gives w = P(N=0) + (1 - P(N=0)) v, inverted against a Poisson CDF table built
once per session, outward from the mode, by indexed search (Chen & Asau 1974): a
guide table over 2**12 equal cells answers all but the w whose cell also holds
an entry at or below them.  The table stops at the first photon number K whose
tail P(N > K) is below 2**-53, the spacing of the uniforms, and that tail is
folded into K.  A second uniform per lit pulse, against the session's table of
1 - (1-eta)^n for n = 1 .. K, gives the S signal clicks.  The D dark counts are
Binomial(block size, Y0) at distinct, uniformly placed pulses, so
Hypergeometric(S, size - S, D) of them are double clicks.  Bases and outcomes
are drawn for the clicks only.

Pulses are simulated in blocks of 2**16, each block drawing from its own stream
derived from the master seed.  The blocks run on min(usable CPUs, 4, number of
blocks) threads, the calling thread included; a block allocates arrays for its
lit pulses only (~39 % of it at mu = 0.5).  numpy releases the interpreter lock
inside its array calls (the uniform draws, the table lookups and comparisons)
but not between them; the counts and double clicks are scalar draws, and the
sift sees a few thousand clicks or fewer on the flume's channels, so their cost
is mostly call overhead under the lock.  Each thread takes the next block and makes its generator under
one lock, so it holds one generator at a time.  The blocks' integer counts are
summed exactly, so results do not depend on the number of threads.
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
_MU_MAX = 1e4  # largest mu simulated; its photon table has K = 10832 entries
_CELLS = 2**12  # cells of _photons' guide table; a power of two, so w * _CELLS is exact


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


def _photon_cdf(mu: float) -> np.ndarray:
    """Inversion table of Poisson(mu): P(N <= k) for k = 0 .. K-1.

    K is the first k with P(N > k) below 2**-53, the spacing of ``rng.random``'s
    uniforms, and at least 1.  K is the largest photon number the table gives:
    the mass above it, below 2**-53, is folded into K.
    """
    k = np.arange(1.0, int(mu + 40 * math.sqrt(mu) + 40))  # the tail beyond is far below 2**-53
    # P(N = k) / P(N = mode), from 1 at the mode floor(mu) by P(k) = P(k-1) mu / k both ways, so
    # nothing starts from exp(-mu), which underflows near mu = 745; each step rounds about once,
    # where exp(k log mu - lgamma(k + 1)) would lose ~k log(mu) ulps to cancellation
    mode = int(mu)
    pmf = np.concatenate((np.cumprod(k[:mode][::-1] / mu)[::-1],  # P(k-1) = P(k) k / mu below it
                          np.cumprod(np.append(1.0, mu / k[mode:]))))
    pmf /= pmf.sum()
    below = np.cumsum(pmf)  # P(N <= k), summed from the head
    above = np.cumsum(pmf[::-1])[::-1][1:]  # P(N > k), summed from the far tail
    n = max(1, int(np.argmax(above < 2.0**-53)))
    # each entry from whichever sum is the smaller, so it is within a few ulps
    return np.where(below[:n] < 0.5, below[:n], 1.0 - above[:n])


def _table(cdf: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A session's block table of ``cdf``: guide[j], the number of entries <= j / ``_CELLS``
    for j = 0 .. ``_CELLS`` (the last for a w that rounds to 1.0), ``cdf`` with +inf appended,
    and chance[n] = 1 - (1 - eta)**n, as -expm1(n log1p(-eta)), for n = 1 .. K, with chance[0] = 0."""
    log_miss = math.log1p(-eta) if eta < 1 else -math.inf  # log1p(-1) raises
    return (np.searchsorted(cdf, np.arange(_CELLS + 1) / _CELLS, side="right"), np.append(cdf, np.inf),
            np.append(0.0, -np.expm1(np.arange(1, cdf.size + 1) * log_miss)))  # never 0 * log1p(-1)


def _photons(rng: np.random.Generator, size: int, table: tuple) -> np.ndarray:
    """Photon numbers of the pulses with photons in a block of ``size``, in no given order.

    Their number is Binomial(size, 1 - P(N=0)).  Each draws a uniform v, and its photon
    number is the count of CDF entries <= w = P(N=0) + (1 - P(N=0)) v:
    guide[floor(w * _CELLS)] counts those <= the start of w's cell, and only w with the next
    entry <= w too are searched.
    """
    guide, padded, _ = table
    w = rng.random(rng.binomial(size, 1 - padded[0]))
    w *= 1 - padded[0]
    w += padded[0]
    photons = guide[(w * _CELLS).astype(np.intp)]
    search = np.flatnonzero(w >= padded[photons])
    photons[search] = np.searchsorted(padded, w[search], side="right")
    return photons


def _signal(rng: np.random.Generator, photons: np.ndarray, chance: np.ndarray) -> int:
    """Signal clicks among a block's lit pulses: a uniform each below chance[n] of its n photons."""
    return int(np.count_nonzero(rng.random(photons.size) < chance[photons]))


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


def _block_counts(rng: np.random.Generator, size: int, table: tuple, y0: float,
                  e_det: float) -> tuple[int, int, int]:
    """(detections, sifted, errors) of one block of ``size`` pulses.

    Draw order: the lit count and a uniform per lit pulse (``_photons``), a click uniform per
    lit pulse (``_signal``), the dark count and, unless it or the signal clicks are 0, the
    double clicks (``_dark_only``), then bases and outcome flips for the clicks, the signal
    clicks first (``_sift``).
    """
    photons = _photons(rng, size, table)
    signal = _signal(rng, photons, table[2])
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
    eta, y0 = transmittance(p), background_yield(p)
    table = _table(_photon_cdf(mu), eta)

    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_workers = min(_usable_cpus(), _MAX_THREADS, n_blocks)
    # a block is taken and its generator made under the lock, so _block_rng runs once per
    # block, in block order, one call at a time; the generator is dropped after its block
    blocks = iter(range(n_blocks))
    lock = threading.Lock()
    block_counts: list[tuple[int, int, int] | None] = [None] * n_blocks
    failures: list[BaseException] = []

    def work() -> None:
        # each worker draws blocks until none is left; all stop once one has failed
        try:
            while True:
                with lock:
                    b = None if failures else next(blocks, None)
                    if b is None:
                        return
                    rng = _block_rng(seed, b)
                size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
                block_counts[b] = _block_counts(rng, size, table, y0, p.e_det)
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

