"""Pulse-level BB84 session simulator.

Stochastic oracle for the analytic gain/QBER model: Poisson photon number,
per-photon binomial survival (so the analytic counterpart is exactly
Y_n = Y0 + 1 - (1-eta)^n), dark counts OR-ed into the detection window, and
uniform basis choice on both sides.  Double clicks (signal + dark) resolve
to the signal outcome; dark-only clicks carry a uniformly random outcome.

Pulses are simulated in blocks of 2**16, each block drawing from its own
stream derived from the master seed, so results are reproducible and
independent of any block-level parallelism.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelParams, _gain_qber, background_yield, transmittance

BLOCK_SIZE = 2**16


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

    def to_json_dict(self) -> dict:
        return asdict(self)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def simulate_session(p: ChannelParams, mu: float, n_pulses: int, seed: int) -> SessionStats:
    """Simulate a BB84 session of n_pulses weak coherent pulses."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if mu < 0:
        raise ValueError("mean photon number must be >= 0")
    eta = transmittance(p)
    y0 = background_yield(p)

    detections = sifted = errors = 0
    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
        rng = _block_rng(seed, b)
        n_phot = rng.poisson(mu, size)
        survivors = rng.binomial(n_phot, eta)
        signal = survivors > 0
        dark = rng.random(size) < y0
        click = signal | dark
        basis_match = rng.integers(0, 2, size) == rng.integers(0, 2, size)
        flip = rng.random(size)
        wrong = np.where(signal, flip < p.e_det, flip < 0.5)
        sift = click & basis_match
        detections += int(click.sum())
        sifted += int(sift.sum())
        errors += int((sift & wrong).sum())

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


def within_model_band(stats: SessionStats, p: ChannelParams, mu: float, n_se: float = 4.0) -> bool:
    """True when the analytic gain/QBER lie inside the n_se-sigma band.

    The standard error is floored at the model-based binomial SE so that
    channels with near-zero observed error counts do not degenerate the
    band; one count of discreteness slack is allowed on the QBER.
    """
    q_model, e_model, _, _ = _gain_qber(mu, transmittance(p), background_yield(p), p.e_det, p.e0)
    q_se = max(stats.q_se, math.sqrt(q_model * (1 - q_model) / stats.pulses_sent))
    ok = abs(stats.q_hat - q_model) <= n_se * q_se
    if stats.sifted > 0 and stats.e_hat is not None:
        e_se = max(stats.e_se or 0.0, math.sqrt(e_model * (1 - e_model) / stats.sifted))
        ok = ok and abs(stats.e_hat - e_model) <= n_se * e_se + 1.0 / stats.sifted
    return ok

