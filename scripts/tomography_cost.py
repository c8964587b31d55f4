#!/usr/bin/env python3
"""Wall time and peak RSS of one-shot ``uwqkd tomography`` commands.

Runs one fresh ``python -m uwqkd.cli tomography`` child per (grid size,
format), with a seeded random Zernike screen, and prints each child's wall
time and peak resident set size.  The peak is the child's own ``ru_maxrss``,
read with ``os.wait4``; ``RUSAGE_CHILDREN`` would give the running maximum over
every child so far.  The child imports uwqkd from this checkout's ``src/``.
The children share a fresh bytecode cache (``PYTHONPYCACHEPREFIX``) in a
temporary directory, filled by one untimed child per format, so a stale
``src/uwqkd/__pycache__`` cannot make a child compile a module.

    python3 scripts/tomography_cost.py                      # n = 256 and 1024, CSV and JSON
    python3 scripts/tomography_cost.py --n 1024 --format json
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(cache: Path) -> dict:
    """Environment of a child: uwqkd from ``SRC``, bytecode read from and written to ``cache``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def run_once(n: int, fmt: str, out: Path, env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MiB) of one tomography child."""
    argv = [sys.executable, "-m", "uwqkd.cli", "tomography", "--kind", "vortex_cw", "--random-aberration",
            "--seed", "7", "--length", "10", "--n", str(n), "--format", fmt, "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait
    if proc.returncode != 0:
        raise SystemExit(f"tomography_cost: {' '.join(argv)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0  # KiB -> MiB


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, nargs="+", default=[256, 1024], help="grid points per side")
    ap.add_argument("--format", nargs="+", choices=("csv", "json"), default=["csv", "json"])
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="tomography-cost-") as tmp:
        env = child_env(Path(tmp) / "pycache")
        for fmt in args.format:
            run_once(32, fmt, Path(tmp) / "maps", env)
        print(f"{'n':>5} {'format':>6} {'wall [s]':>9} {'peak RSS [MB]':>14}")
        for n in args.n:
            for fmt in args.format:
                wall, rss = run_once(n, fmt, Path(tmp) / "maps", env)
                print(f"{n:>5} {fmt:>6} {wall:>9.3f} {rss:>14.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
