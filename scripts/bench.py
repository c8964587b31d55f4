#!/usr/bin/env python3
"""Benchmark the working tree against a base revision and write BENCH_<label>.json.

For each of the four workloads and each of the seeds 101-110, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each of two checkouts: the base revision, exported with ``git archive``
into a scratch directory, and the working tree.  The two runs of a seed form a
pair, and the side that runs first alternates from seed to seed.  One
``--trace 1`` run per workload and side records the per-module metrics.  The
JSON result line of every run is kept, with each end-to-end metric's median and
quartiles per side, the change/base ratio of the medians, and the number of
pairs the change won.  ``T`` is BENCHMARK.json's ``run_seconds``, so every
BENCH file compares runs of the benchmark's own length.

    python3 scripts/bench.py --label mychange --base HEAD~1 --workdir /tmp/bench

Run from the root of the repository.  Each run takes about ``T`` + 15 s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rate_sweep", "channel_queries", "mc_session", "tomography_maps")
SEEDS = tuple(range(101, 111))


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "x"], cwd=dest, input=archive, check=True)
    return sha


def run(side: str, checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; returns its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    shown = "traced" if trace else ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
    print(f"bench: {side} {workload} seed {seed}: {shown}", file=sys.stderr)
    return result


def quartiles(results: list[dict]) -> dict:
    """(lower quartile, median, upper quartile) of each metric over the runs."""
    out = {}
    for n in results[0]["metrics"]:
        values = [r["metrics"][n]["value"] for r in results]
        out[n] = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="names the output file, BENCH_<label>.json")
    ap.add_argument("--base", required=True, help="git revision to compare the working tree with")
    ap.add_argument("--workdir", help="where to export the base revision (default: a temporary directory)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sign = {m["name"]: 1 if m["better"] == "higher" else -1 for m in spec["end_to_end"]}
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="uwqkd-bench-"))
    base_sha = export(args.base, workdir / "base")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()
    sides = {"base": workdir / "base", "change": ROOT}

    out = {
        "label": args.label,
        "base": base_sha,
        "change": f"working tree on {head}",
        "seconds": seconds,
        "seeds": list(SEEDS),
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": len(os.sched_getaffinity(0))},
        "workloads": {},
    }
    for w in WORKLOADS:
        runs = {side: [] for side in sides}
        for seed in SEEDS:
            order = list(sides) if seed % 2 else list(sides)[::-1]
            for side in order:
                runs[side].append(run(side, sides[side], w, seed, seconds, trace=0))
        q = {side: quartiles(rs) for side, rs in runs.items()}
        traced = {side: run(side, path, w, SEEDS[0], seconds, trace=1)["metrics"]
                  for side, path in sides.items()}
        out["workloads"][w] = {
            "quartiles": q,
            "change_over_base": {n: q["change"][n][1] / q["base"][n][1] for n in sign},
            "change_wins": {
                n: sum(sign[n] * (c["metrics"][n]["value"] - b["metrics"][n]["value"]) > 0
                       for b, c in zip(runs["base"], runs["change"]))
                for n in sign
            },
            "correct": all(r["correct"] for rs in runs.values() for r in rs),
            "runs": runs,
            "traced": {side: {n: m["value"] for n, m in t.items()} for side, t in traced.items()},
        }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"bench: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
