#!/usr/bin/env python3
"""Median cost per call of the key-rate kernel and the optimizer layers above it.

Times, in one process and on the flume channel (one channel at 30 m, or 31
channels at 0, 3, ..., 90 m, as in a 3 m ``uwqkd sweep``):

- ``optimize._row_best`` on 1 x 9, 31 x 9 and 31 x 64 mu points (a zoom row
  and the coarse row), one ``_k_grid`` call each;
- ``decoy.evaluate_key_rate`` on 1 and on 31 channels;
- ``optimize.optimize_mu_nu`` on 1 and on 31 channels;
- one default ``optimize.max_secure_distance``.

The cases are interleaved: each repeat times every case once, over enough
back-to-back calls to last about 2 ms, so that drift on a shared host hits all
cases alike.  Prints the median and the quartiles of the per-call time over
the repeats.  Imports uwqkd from this checkout's ``src/``.

    python3 scripts/kernel_cost.py                # 200 repeats
    python3 scripts/kernel_cost.py --repeats 50
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from uwqkd.channel import ChannelParams  # noqa: E402
from uwqkd.decoy import _channel_columns, _nu_stage, evaluate_key_rate  # noqa: E402
from uwqkd.optimize import OptimizerConfig, _grid, _row_best, max_secure_distance, optimize_mu_nu  # noqa: E402

SAMPLE_S = 2e-3  # wall time of one timed sample


def cases() -> dict:
    """Name -> zero-argument call."""
    cfg = OptimizerConfig()
    p = ChannelParams(length_m=30.0)
    ps = [ChannelParams(length_m=x) for x in np.linspace(0.0, 90.0, 31)]
    mus, zooms = _grid(cfg)
    stage1, stage31 = (_nu_stage(_channel_columns(batch), cfg.nu_min) for batch in ([p], ps))
    zoom1, zoom31 = (np.full((n, 1), 0.3) * zooms[0] for n in (1, 31))
    coarse31 = np.broadcast_to(mus, (31, mus.size))
    mu31, nu31 = np.full(31, 0.3), np.full(31, cfg.nu_min)
    return {
        "_row_best 1x9": lambda: _row_best(stage1, zoom1),
        "_row_best 31x9": lambda: _row_best(stage31, zoom31),
        "_row_best 31x64": lambda: _row_best(stage31, coarse31),
        "evaluate_key_rate 1 ch": lambda: evaluate_key_rate(p, 0.3, cfg.nu_min),
        "evaluate_key_rate 31 ch": lambda: evaluate_key_rate(ps, mu31, nu31),
        "optimize_mu_nu 1 ch": lambda: optimize_mu_nu(p, cfg),
        "optimize_mu_nu 31 ch": lambda: optimize_mu_nu(ps, cfg),
        "max_secure_distance": lambda: max_secure_distance(ChannelParams(), cfg),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=200, help="timed samples per case (default 200)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    calls = cases()
    inner = {}
    for name, f in calls.items():  # warm up, and size each sample
        start = time.perf_counter()
        f()
        inner[name] = max(1, round(SAMPLE_S / (time.perf_counter() - start)))
    samples = {name: [] for name in calls}
    for _ in range(args.repeats):
        for name, f in calls.items():
            start = time.perf_counter()
            for _ in range(inner[name]):
                f()
            samples[name].append((time.perf_counter() - start) / inner[name] * 1e6)

    print(f"{'case':<26} {'median [us]':>12} {'q1 [us]':>10} {'q3 [us]':>10}")
    for name, times in samples.items():
        q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{name:<26} {med:>12.1f} {q1:>10.1f} {q3:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
