#!/usr/bin/env python3
"""Rate-distance study: optimized decoy-state key rate vs channel length.

Writes the optimized curve as CSV, reports the maximum secure distance under
both detector-efficiency conventions, and evaluates the four measured-QBER
operating points against the dark-count-only model curve.
"""

import argparse
import csv
import math
import sys

import numpy as np

from uwqkd.channel import ChannelParams
from uwqkd.optimize import distance_sweep, max_secure_distance, optimize_mu_nu

MEASURED_QBER = {0.5: 0.0027, 10.5: 0.0074, 20.5: 0.037, 30.5: 0.0096}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--l-max", type=float, default=90.0)
    ap.add_argument("--step", type=float, default=1.0)
    ap.add_argument("--out", default="rate_distance.csv")
    args = ap.parse_args(argv)
    if not (math.isfinite(args.l_max) and args.l_max >= 0):
        ap.error(f"--l-max must be finite and >= 0, got {args.l_max}")
    if not (math.isfinite(args.step) and args.step > 0):
        ap.error(f"--step must be finite and > 0, got {args.step}")

    p = ChannelParams(e_det=0.0)  # dark-count-limited channel
    lengths = list(np.arange(0.0, args.l_max + args.step / 2, args.step))
    curve = distance_sweep(p, lengths)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["length_m", "k_per_pulse", "bps_1ghz", "mu_opt", "nu_opt"])
        for pt in curve:
            w.writerow(
                [
                    f"{pt.length_m:.9g}",
                    f"{pt.k_per_pulse:.9g}",
                    f"{pt.k_per_pulse * 1e9:.9g}",
                    f"{pt.mu_opt:.9g}",
                    f"{pt.nu_opt:.9g}",
                ]
            )
    print(f"wrote {len(curve)} points to {args.out}")

    d_sep = max_secure_distance(p)
    d_inc = max_secure_distance(ChannelParams(e_det=0.0, bob_includes_detector=True))
    print(f"max secure distance (eta = detector x bob): {d_sep:.2f} m")
    print(f"max secure distance (bob-inclusive eta):    {d_inc:.2f} m")

    print("\nmeasured-QBER operating points vs dark-count-only model:")
    points = [p.at_length(length) for length in MEASURED_QBER]  # one batch per QBER source
    models = optimize_mu_nu(points)
    measured = optimize_mu_nu(points, qber_override=list(MEASURED_QBER.values()))
    for (length, qber), model, meas in zip(MEASURED_QBER.items(), models, measured):
        print(
            f"  L = {length:5.1f} m  QBER = {qber:.4f}  "
            f"K_meas = {meas.k_per_pulse:.4e}  K_model = {model.k_per_pulse:.4e}  "
            f"ratio = {meas.k_per_pulse / model.k_per_pulse:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
