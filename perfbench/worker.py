"""Timed loop of one workload, run in a fresh process by run.py.

One client, closed loop: each op is one or more ``uwqkd.cli.main(argv)``
calls, and the next op starts after the previous one has been checked.
After every op the worker writes one JSON line to the parent and waits for
a line back, so the parent's checks never overlap a timed op.  The process
imports uwqkd from the checkout's ``src`` and nothing else of the package,
so its peak RSS is the program's own.

Every op is bracketed by two runs of ``calibrate.calibrate()``, and the
worker reports their mean with the op's time (see calibrate.py).

For the workloads in ``REPEAT_CHECKED`` the worker then reruns the inputs
of op 0 once more (phase ``repeat``, not timed into any metric) so that the
parent can compare the two outputs byte for byte.

With ``--trace 1`` the worker first runs ops untraced for half the time,
then runs the same ops again with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from calibrate import CAL_REF_S, calibrate


def _run(cli, op: wl.Op) -> tuple[int | str, float]:
    """Run the op's commands; returns (exit status or error, seconds)."""
    for path, cfg in op.configs.items():  # inputs, written before the clock starts
        Path(path).write_text(json.dumps(cfg))
    rc: int | str = 0
    t0 = time.perf_counter()
    for argv in op.argvs:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the op failed; the parent counts it
            rc = f"raised {type(exc).__name__}: {exc}"
        if rc != 0:
            break
    return rc, time.perf_counter() - t0


def _bytes_under(d: Path) -> int:
    return sum(f.stat().st_size for f in d.iterdir() if f.is_file()) if d.is_dir() else 0


def provenance(uwqkd) -> dict:
    blas = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        from threadpoolctl import threadpool_info
        blas["threadpools"] = [(p.get("internal_api"), p.get("num_threads")) for p in threadpool_info()]
    except ImportError:
        pass
    return {
        "uwqkd_version": getattr(uwqkd, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--scale", choices=tuple(wl.SIZES), default="full")
    ap.add_argument("--inject-failure", action="store_true")
    args = ap.parse_args(argv)

    # protocol on the original stdout; anything the package prints goes to stderr
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import uwqkd
    import uwqkd.cli as cli

    if Path(uwqkd.__file__).resolve().parent != src / "uwqkd":
        raise SystemExit(f"perfbench: imported uwqkd from {uwqkd.__file__}, not {src}")

    outdir = Path(args.outdir)
    # warm-up: one cycle of small ops, untimed and unchecked, so that lazy
    # imports and first-call costs stay out of the timed ops
    warm = outdir / "warmup"
    for i in range(wl.CYCLE[args.workload]):
        op = wl.make_op(args.workload, args.seed, i, warm, "smoke")
        for path in [*op.configs, *(a[-1] for a in op.argvs)]:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        _run(cli, op)
        calibrate()
    shutil.rmtree(warm, ignore_errors=True)

    def send(msg):
        proto.write(json.dumps(msg) + "\n")
        if sys.stdin.readline() == "":
            raise SystemExit("perfbench: parent went away")

    def run_op(op, phase, like=None) -> tuple[float, float, float, int]:
        """Runs one op; returns its seconds, scaled seconds, wall seconds with
        calibrations, and bytes written."""
        d = outdir / f"op{op.index:05d}"
        d.mkdir(parents=True, exist_ok=True)
        cal_before = calibrate()
        rc, dt = _run(cli, op)
        cal_after = calibrate()
        nbytes = _bytes_under(d)
        send({"op": op.index, "like": like, "phase": phase, "injected": op.workload == "injected",
              "rc": rc, "seconds": dt, "cal_s": (cal_before + cal_after) / 2, "bytes": nbytes})
        scaled = dt * 2 * CAL_REF_S / (cal_before + cal_after)
        return dt, scaled, dt + cal_before + cal_after, nbytes

    cycle = wl.CYCLE[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    timed, spent, n = 0.0, 0.0, 0  # scaled op seconds, wall seconds, ops
    while n < cycle or spent < budget or n % cycle:
        _, scaled, wall, _ = run_op(wl.make_op(args.workload, args.seed, n, outdir, args.scale), "untraced")
        timed, spent, n = timed + scaled, spent + wall, n + 1
    extra = n
    if args.inject_failure:
        run_op(wl.failing_op(extra, outdir), "untraced")
        extra += 1
    if args.workload in wl.REPEAT_CHECKED:
        run_op(wl.make_op(args.workload, args.seed, extra, outdir, args.scale, like=0), "repeat", like=0)

    done = {"done": True, "provenance": provenance(uwqkd)}
    if args.trace:
        from tracing import Tracer, metrics, self_time_by_span

        tracer = Tracer()
        tracer.install()
        traced, traced_scaled, bytes_out = 0.0, 0.0, 0
        for i in range(n):
            tracer.op = i
            op = wl.make_op(args.workload, args.seed, i, outdir, args.scale)
            dt, scaled, _, nbytes = run_op(op, "traced")
            traced, traced_scaled, bytes_out = traced + dt, traced_scaled + scaled, bytes_out + nbytes
        tracer.uninstall()
        m = metrics(tracer.spans, tracer.counters, traced, bytes_out)
        m["trace.overhead_frac"] = traced_scaled / timed - 1
        (outdir / "spans.json").write_text(json.dumps({
            "spans": tracer.span_records(),
            "counters": tracer.counters,
            "self_s_by_span": self_time_by_span(tracer.spans),
            "missing_entry_points": tracer.missing,
        }))
        done["per_layer"] = m
    proto.write(json.dumps(done) + "\n")
    proto.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
