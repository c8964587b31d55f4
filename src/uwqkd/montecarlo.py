"""Pulse-level BB84 session simulator.

Stochastic oracle for the analytic gain/QBER model: Poisson photon number,
per-photon binomial survival (so the analytic counterpart is exactly
Y_n = Y0 + 1 - (1-eta)^n), dark counts OR-ed into the detection window, and
uniform basis choice on both sides.  Double clicks (signal + dark) resolve
to the signal outcome; dark-only clicks carry a uniformly random outcome.
Survivors are drawn only for pulses with photons, and bases and outcomes
only for pulses that click; no other pulse's draws could reach a count.

Pulses are simulated in blocks of 2**16, each block drawing from its own
stream derived from the master seed.  The blocks run on
min(usable CPUs, 4, number of blocks) threads, the calling thread included;
numpy releases the interpreter lock for the draws and the reductions.  Each
thread takes the next block and makes its generator under one lock, so each
thread holds one generator at a time.  Each block's counts are integers and
are summed exactly, so results are reproducible and independent of the
number of threads.
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


def _block_counts(rng: np.random.Generator, size: int, mu: float, eta: float, y0: float,
                  e_det: float) -> tuple[int, int, int]:
    """(detections, sifted, errors) of one block.

    Draw order: photon numbers, then survivors for pulses with photons only
    (``binomial(0, eta)`` draws nothing), dark counts, then Alice's bases,
    Bob's bases and outcome flips for the pulses that click only.
    """
    photons = rng.poisson(mu, size)
    lit = np.flatnonzero(photons > 0)
    signal = np.zeros(size, dtype=bool)
    signal[lit] = rng.binomial(photons[lit], eta) > 0
    click = np.flatnonzero(signal | (rng.random(size) < y0))
    sift = rng.integers(0, 2, click.size) == rng.integers(0, 2, click.size)
    flip = rng.random(click.size)
    wrong = np.where(signal[click], flip < e_det, flip < 0.5)
    return click.size, int(np.count_nonzero(sift)), int(np.count_nonzero(sift & wrong))


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
                block_counts[b] = _block_counts(rng, size, mu, eta, y0, p.e_det)
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

