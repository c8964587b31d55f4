#!/usr/bin/env python3
"""Cross-check the analytic gain/QBER model against the pulse-level Monte Carlo.

For a few channel lengths, simulates a session and compares the empirical gain
and QBER against the Poisson-photon-number model, in units of standard errors.
"""

import argparse
import sys

from uwqkd.channel import ChannelParams, gain_stats
from uwqkd.montecarlo import _MU_MAX, simulate_session, within_model_band


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-pulses", type=int, default=10**6)
    ap.add_argument("--mu", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--e-det", type=float, default=0.0027)
    args = ap.parse_args(argv)
    if not 0 < args.mu <= _MU_MAX:
        ap.error(f"--mu must be > 0 and <= {_MU_MAX:g}, got {args.mu}")
    if args.n_pulses < 1:
        ap.error(f"--n-pulses must be >= 1, got {args.n_pulses}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    if not 0 <= args.e_det < 0.5:
        ap.error(f"--e-det must be >= 0 and < 0.5, got {args.e_det}")

    base = ChannelParams(e_det=args.e_det)
    print(f"{'L [m]':>6} {'Q_hat':>10} {'Q_model':>10} {'dQ/SE':>7} "
          f"{'E_hat':>8} {'E_model':>8} {'dE/SE':>7}  band")
    ok = True
    for length in (0.5, 5.0, 10.5, 15.0, 20.5):
        p = base.at_length(length)
        s = simulate_session(p, args.mu, args.n_pulses, args.seed)
        model = gain_stats(p, args.mu, 0.0)
        q_m, e_m = model.q_mu, model.e_mu
        dq = abs(s.q_hat - q_m) / s.q_se if s.q_se else 0.0
        de = abs(s.e_hat - e_m) / s.e_se if s.e_se else 0.0
        band = within_model_band(s, p, args.mu)
        ok &= band
        e_hat = "n/a" if s.e_hat is None else f"{s.e_hat:.4f}"  # nothing sifted
        print(f"{length:6.1f} {s.q_hat:10.3e} {q_m:10.3e} {dq:7.2f} "
              f"{e_hat:>8} {e_m:8.4f} {de:7.2f}  {'ok' if band else 'FAIL'}")
    print("all within band" if ok else "DISAGREEMENT FOUND")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
