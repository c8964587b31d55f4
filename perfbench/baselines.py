"""Re-measure the ad-hoc seed baselines quoted in ROADMAP.md.

    python3 perfbench/baselines.py

Run from the root of a checkout.  Each figure is timed REPEATS times (after
one untimed call) in this process, BLAS pinned to one thread, and reported as
the median and the fastest call.  A figure "reproduces" when it is within
25 % of the quoted value.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_k] = "1"

TOLERANCE = 0.25
REPEATS = 5


def _times(fn, repeats: int) -> list[float]:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    if not Path("src/uwqkd/cli.py").is_file():
        print("baselines: run from the root of a uwqkd checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    from uwqkd import cli
    from uwqkd.channel import ChannelParams
    from uwqkd.montecarlo import simulate_session
    from uwqkd.optimize import distance_sweep, max_secure_distance, optimize_mu_nu

    p = ChannelParams()
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        tomo = ["tomography", "--kind", "radial", "--n", "1024", "--format", "csv",
                "--out", str(Path(tmp) / "t")]
        rows = [
            ("optimize_mu_nu per channel (L = 10.5 m)", 7.8e-3,
             lambda: optimize_mu_nu(p.at_length(10.5)), 10 * REPEATS),
            ("distance_sweep 0-90 m", 0.835, lambda: distance_sweep(p, range(91)), REPEATS),
            ("max_secure_distance", 0.065, lambda: max_secure_distance(p), REPEATS),
            ("simulate_session 1e7 pulses", 0.82,
             lambda: simulate_session(p.at_length(10.5), 0.5, 10**7, 42), REPEATS),
            ("uwqkd tomography n=1024 CSV", 9.5, lambda: cli.main(tomo), max(2, REPEATS // 2)),
        ]
        print(f"{'baseline':42s} {'ROADMAP':>9s} {'median':>9s} {'fastest':>9s}  verdict (median, fastest)")
        for name, quoted, fn, repeats in rows:
            times = _times(fn, repeats)
            med, best = statistics.median(times), min(times)
            verdict = ", ".join("reproduces" if abs(t / quoted - 1) <= TOLERANCE else
                                f"does not reproduce ({t / quoted:.2f}x)" for t in (med, best))
            print(f"{name:42s} {quoted:8.4g}s {med:8.4g}s {best:8.4g}s  {verdict}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
