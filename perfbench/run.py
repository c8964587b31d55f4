"""uwqkd benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; uwqkd is imported from ``./src``.  The
timed loop runs in a fresh worker process (worker.py) with BLAS pinned to
one thread; this process checks every op's outputs between ops, untimed,
and measures ``setup_s`` with fresh interpreters.  Human-readable lines go
first; the last line of stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-module ones from a traced rerun of the same ops.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from calibrate import CAL_REF_S, calibrate  # noqa: E402
from checks import Checker  # noqa: E402

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_QBER = 0.0074


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(BLAS_ENV, PYTHONPATH=str(Path("src").resolve()))
    return env


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != Path.cwd().resolve():
        return None
    return lines[1]


class SetupTimer:
    """Wall time of fresh `python -m uwqkd.cli sifted 0.0074` processes.

    The first process fills the bytecode cache and is not timed.  The timed
    ones are spread over the run (``tick`` between ops), so their median
    covers the run's whole span rather than one moment of it.  Each is
    bracketed by two calibrations; ``scaled`` holds the times at the
    calibration's reference speed.
    """

    def __init__(self, env: dict, runs: int, seconds: float):
        self.env, self.runs, self.spacing = env, runs, seconds / runs
        self.want = f"{ref.sifted_fraction(SETUP_QBER):.4f}\n"
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.errors: list[str] = []
        self._sample()
        self.times.clear()
        self.scaled.clear()
        self._last = time.perf_counter()

    def _sample(self) -> None:
        cal_before = calibrate()
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-m", "uwqkd.cli", "sifted", str(SETUP_QBER)],
                           env=self.env, capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        cal = (cal_before + calibrate()) / 2
        self.times.append(dt)
        self.scaled.append(dt * CAL_REF_S / cal)
        if p.returncode != 0 or p.stdout != self.want:
            self.errors.append(f"setup: exit {p.returncode}, printed {p.stdout!r}, expected {self.want!r}")

    def tick(self) -> None:
        if len(self.times) < self.runs and time.perf_counter() - self._last >= self.spacing:
            self._sample()
            self._last = time.perf_counter()

    def finish(self) -> None:
        while len(self.times) < self.runs:
            self._sample()


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 samples beyond it.

    Below 21 samples that percentile would fall under the median, so the
    median is used instead.
    """
    v = sorted(values)
    if len(v) < 21:
        return 50.0, statistics.median(v)
    k = len(v) - 11
    return 100.0 * (k + 1) / len(v), v[k]


def scaled_throughput(ops: list[dict]) -> tuple[float, float]:
    """(work per scaled second, mean scaled op time) over the run's op cost classes.

    An op's scaled time is its time x CAL_REF_S / its calibration time.  Each
    class contributes its work and the median scaled time of its ops; runs
    hold whole cycles, so every class of a workload is weighted alike.
    """
    by_class: dict[str, tuple[float, list[float]]] = {}
    for m in ops:
        by_class.setdefault(json.dumps(m["key"]), (m["work"], []))[1].append(
            m["seconds"] * CAL_REF_S / m["cal_s"])
    work = sum(w for w, _ in by_class.values())
    seconds = sum(statistics.median(v) for _, v in by_class.values())
    return work / seconds, seconds / len(by_class)


def run_worker(args, outdir: Path, env: dict, checker: Checker, between_ops=None):
    deadline_s = 3 * args.seconds + 60  # a hung op fails the run instead of outliving it
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(outdir), "--scale", args.scale]
    if args.inject_failure:
        cmd.append("--inject-failure")
    ops, done = [], None
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(deadline_s, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if msg.get("done"):
                done = msg
                break
            op = (wl.failing_op(msg["op"], outdir) if msg["injected"]
                  else wl.make_op(args.workload, args.seed, msg["op"], outdir, args.scale, msg["like"]))
            try:
                msg["errors"] = checker.check(op, msg["rc"])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                msg["errors"] = [f"output unreadable: {type(exc).__name__}: {exc}"]
            for e in msg["errors"][:3]:
                print(f"perfbench: op {msg['op']} ({msg['phase']}) failed: {e}", file=sys.stderr)
            shutil.rmtree(outdir / f"op{msg['op']:05d}", ignore_errors=True)
            msg["key"], msg["work"] = list(op.key), op.work
            ops.append(msg)
            if between_ops:
                between_ops()
            proc.stdin.write("\n")
            proc.stdin.flush()
    finally:
        proc.stdin.close()
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0 or done is None:
        raise SystemExit(f"perfbench: worker exited with status {proc.returncode}")
    return ops, done, usage.ru_maxrss / 1024.0  # KiB -> MiB


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=tuple(wl.SIZES), default="full",
                    help="'smoke' shrinks every op (smoke test only)")
    ap.add_argument("--inject-failure", action="store_true",
                    help="add one op the CLI rejects (smoke test only)")
    args = ap.parse_args(argv)

    if not Path("src/uwqkd/cli.py").is_file():
        print("perfbench: run from the root of a uwqkd checkout (no src/uwqkd/cli.py here)",
              file=sys.stderr)
        return 2
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        print("perfbench: no BENCHMARK.json beside this directory", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    outdir = Path(".bench_out") / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    env = child_env()
    checker = Checker()
    setup = None if args.trace else SetupTimer(env, wl.SIZES[args.scale]["setup_runs"], args.seconds)
    ops, done, peak_rss_mb = run_worker(args, outdir, env, checker, setup and setup.tick)
    if setup:
        setup.finish()
    setup_errs = setup.errors if setup else []

    failed = sum(bool(m["errors"]) for m in ops)
    attempted = len(ops)
    for e in setup_errs:
        print(f"perfbench: {e}", file=sys.stderr)
    timed_ops = [m for m in ops if m["phase"] == "untraced" and not m["injected"]]
    untraced = [m["seconds"] for m in timed_ops]
    prov = dict(done["provenance"], git_commit=git_commit(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, scale=args.scale, ops=len(untraced))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = done["per_layer"]
        report = {k: (v, units[k]) for k, v in values.items()}
    else:
        pct, tail_s = tail(untraced)
        work_per_s, scaled = scaled_throughput(timed_ops)
        values = {
            "work_per_s": work_per_s,  # one client, closed loop
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup.scaled),
        }
        report = {k: (v, units[k]) for k, v in values.items()}
        # the gated throughput, under the workload's own name
        report[wl.WORK_UNIT[args.workload]] = report.pop("work_per_s")
        report["op_scaled_s"] = (scaled, "s")
        report["cal_p50_s"] = (statistics.median(m["cal_s"] for m in timed_ops), "s")
        report["setup_raw_s"] = (statistics.median(setup.times), "s")
        report["op_p50_s"] = (statistics.median(untraced), "s")
        report["op_tail_s"] = (tail_s, "s")
        report["op_tail_percentile"] = (pct, "%")
        report["failed_frac"] = (failed / attempted, "ratio")
        if args.workload in ("rate_sweep", "channel_queries"):
            report["k_shortfall_max"] = (checker.k_shortfall_max, "ratio")

    print(f"# uwqkd benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# ops={attempted} failed={failed} samples={len(untraced)}")
    for k, (v, u) in report.items():
        print(f"{k:40s} {v:.6g} {u}")
    result_metrics = {}
    names = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    for name in names:
        v = float(values[name])
        if not math.isfinite(v):
            raise SystemExit(f"perfbench: metric {name} is {v}")
        result_metrics[name] = {"value": v, "unit": units[name]}
    result = {"correct": failed == 0 and not setup_errs, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    (outdir / "result.json").write_text(json.dumps(dict(result, provenance=prov, report={
        k: {"value": v, "unit": u} for k, (v, u) in report.items()}, ops=ops), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
