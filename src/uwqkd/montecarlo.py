"""Pulse-level BB84 session simulator.

Stochastic oracle for the analytic gain/QBER model: Poisson photon number,
per-photon binomial survival (so the analytic counterpart is exactly
Y_n = Y0 + 1 - (1-eta)^n), dark counts OR-ed into the detection window, and
uniform basis choice on both sides.  Double clicks (signal + dark) resolve
to the signal outcome; dark-only clicks carry a uniformly random outcome.

Pulses are simulated in blocks of 2**16, each block drawing from its own
stream derived from the master seed.  The blocks run on
min(usable CPUs, 4, number of blocks) threads, the calling thread included;
numpy releases the interpreter lock for the draws and the reductions.  Each
thread takes the next block in turn, and the calling thread makes the
blocks' generators a few per thread ahead of the next one taken, so the
number alive at once does not grow with the session.  Each
block's counts are integers and are summed exactly, so results are
reproducible and independent of the number of threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, _gain_qber, background_yield, transmittance

BLOCK_SIZE = 2**16
_MAX_THREADS = 4
_ROUNDS_AHEAD = 2  # generators made ahead of the next block to be taken, per worker
_BAND_SE = 4.0  # half-width of within_model_band's band, in standard errors


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


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _block_counts(rng: np.random.Generator, size: int, mu: float, eta: float, y0: float,
                  e_det: float) -> tuple[int, int, int]:
    """(detections, sifted, errors) of one block.

    The draws are made in a fixed order -- photon numbers, survivors, dark
    counts, Alice's and Bob's bases, outcome flips -- and each drawn array is
    dropped as soon as it has been compared, which keeps a thread's peak
    memory at a few of one block's arrays.
    """
    signal = rng.binomial(rng.poisson(mu, size), eta) > 0
    click = signal | (rng.random(size) < y0)
    sift = click & (rng.integers(0, 2, size) == rng.integers(0, 2, size))
    flip = rng.random(size)
    wrong = np.where(signal, flip < e_det, flip < 0.5)
    return tuple(int(np.count_nonzero(a)) for a in (click, sift, sift & wrong))


def simulate_session(p: ChannelParams, mu: float, n_pulses: int, seed: int) -> SessionStats:
    """Simulate a BB84 session of n_pulses weak coherent pulses."""
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError(f"mu must be finite and >= 0, got {mu!r}")
    if not (_is_int(n_pulses) and n_pulses >= 1):
        raise ValueError(f"n_pulses must be an int >= 1, got {n_pulses!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    n_pulses, seed = int(n_pulses), int(seed)
    eta = transmittance(p)
    y0 = background_yield(p)

    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_workers = min(_usable_cpus(), _MAX_THREADS, n_blocks)
    # every generator is made on the calling thread, so a tracer wrapping _block_rng counts
    # blocks without sharing a counter across threads; it makes them each time it takes a
    # block, up to `ahead` past the next block to be taken, so few are alive at once
    ahead = _ROUNDS_AHEAD * n_workers
    rngs: dict[int, np.random.Generator] = {}  # made and not yet taken, by block
    made = taken = 0  # blocks whose generator has been made; blocks handed to a worker
    ready = threading.Condition()
    block_counts: list[tuple[int, int, int] | None] = [None] * n_blocks
    failures: list[BaseException] = []

    def work(w: int) -> None:
        # each worker takes the next block until none is left; all stop once one has failed
        nonlocal made, taken
        try:
            while True:
                with ready:
                    b, taken = taken, taken + 1
                    if w == 0:
                        while made < min(n_blocks, taken + ahead):
                            rngs[made] = _block_rng(seed, made)
                            made += 1
                        ready.notify_all()
                    if b >= n_blocks:
                        return
                    ready.wait_for(lambda: made > b or failures)
                    if failures:
                        return
                    rng = rngs.pop(b)
                size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
                block_counts[b] = _block_counts(rng, size, mu, eta, y0, p.e_det)
                del rng
        except BaseException as exc:
            with ready:
                failures.append(exc)
                ready.notify_all()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, n_workers)]
    for t in threads:
        t.start()
    work(0)
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

