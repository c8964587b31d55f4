#!/usr/bin/env python3
"""Median cost per pulse of each Monte Carlo block stage, and of whole sessions.

Times, in one process, on the default flume channel at each ``--lengths`` and
at ``--mu``:

- the stages of one 2**16-pulse block, in the order ``montecarlo._block_counts``
  draws them: the lit count with its photon numbers (``_photons``), the signal
  click count with its click chances (``_signal``), the dark count with the
  double clicks (``_dark_only``) and sift/outcome (``_sift``), then the whole
  block (``_block_counts``), each over ``--blocks`` blocks of their own seeded
  streams, all drawn in one reused buffer as each of ``simulate_session``'s
  workers does;
- ``simulate_session`` at ``--n-pulses`` pulses (default 10**7), ``--repeats``
  times.

The cases are interleaved: each round times one block (or one session) per
length, so that drift on a shared host hits every length alike.  Prints the
median and the quartiles in ns per pulse.  Imports uwqkd from this
checkout's ``src/``.

    python3 scripts/mc_cost.py
    python3 scripts/mc_cost.py --lengths 0.5 --mu 0.1 --repeats 9
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uwqkd import montecarlo  # noqa: E402
from uwqkd.channel import ChannelParams, background_yield, transmittance  # noqa: E402

STAGES = ("lit photon numbers", "signal clicks", "dark/double clicks", "sift/outcome", "whole block")


def block_stages(seed: int, block: int, u: np.ndarray, mu: float, table, eta: float, y0: float,
                 e_det: float) -> list[float]:
    """Seconds spent in each of ``STAGES`` on one full block drawn in the buffer ``u``; the
    whole block is ``_block_counts`` on a second generator of the same stream."""
    rng = montecarlo._block_rng(seed, block)
    t0 = time.perf_counter()
    photons = montecarlo._photons(rng, u, mu, table)
    t1 = time.perf_counter()
    signal = montecarlo._signal(rng, u, photons, table, eta)
    t2 = time.perf_counter()
    dark_only = montecarlo._dark_only(rng, u.size, y0, signal)
    t3 = time.perf_counter()
    montecarlo._sift(rng, signal, dark_only, e_det)
    t4 = time.perf_counter()
    rng = montecarlo._block_rng(seed, block)
    t5 = time.perf_counter()
    montecarlo._block_counts(rng, u, mu, table, eta, y0, e_det)
    t6 = time.perf_counter()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5]


def row(name: str, ns: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(ns, n=4) if len(ns) > 1 else ns * 3
    return f"{name:<28} {med:>10.2f} {q1:>10.2f} {q3:>10.2f}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--lengths", type=float, nargs="+", default=[0.5, 10.5, 20.5], help="channel lengths [m]")
    ap.add_argument("--mu", type=float, default=0.5, help="mean photon number (default 0.5)")
    ap.add_argument("--blocks", type=int, default=300, help="timed blocks per length (default 300)")
    ap.add_argument("--repeats", type=int, default=5, help="timed sessions per length (default 5)")
    ap.add_argument("--n-pulses", type=int, default=10**7, help="pulses per session (default 10**7)")
    args = ap.parse_args(argv)
    for name in ("blocks", "repeats", "n_pulses"):
        if getattr(args, name) < 1:
            ap.error(f"--{name.replace('_', '-')} must be >= 1")

    channels = {length: ChannelParams().at_length(length) for length in args.lengths}
    cdf = montecarlo._photon_cdf(args.mu)
    tables = {length: montecarlo._table(cdf, transmittance(p)) for length, p in channels.items()}
    u = np.empty(montecarlo.BLOCK_SIZE)
    stages = {length: [[] for _ in STAGES] for length in channels}
    for b in range(args.blocks):
        for length, p in channels.items():
            for out, s in zip(stages[length], block_stages(1, b, u, args.mu, tables[length],
                                                             transmittance(p), background_yield(p),
                                                             p.e_det)):
                out.append(s / montecarlo.BLOCK_SIZE * 1e9)
    sessions = {length: [] for length in channels}
    for r in range(args.repeats):
        for length, p in channels.items():
            start = time.perf_counter()
            montecarlo.simulate_session(p, args.mu, args.n_pulses, r)
            sessions[length].append((time.perf_counter() - start) / args.n_pulses * 1e9)

    print(f"mu = {args.mu}, {args.blocks} blocks of {montecarlo.BLOCK_SIZE} pulses and "
          f"{args.repeats} sessions of {args.n_pulses} pulses per length")
    print(f"{'case [ns per pulse]':<28} {'median':>10} {'q1':>10} {'q3':>10}")
    for length in channels:
        for name, ns in zip(STAGES, stages[length]):
            print(row(f"{length:g} m {name}", ns))
        print(row(f"{length:g} m simulate_session", sessions[length]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
