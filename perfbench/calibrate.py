"""A fixed calibration task that measures how fast the machine runs right now.

On a shared host the same op can take 1.3-2x longer for stretches of seconds
to minutes, because of load the benchmark cannot see.  The benchmark times
this task right before and right after every op and every set-up process,
and reports each time scaled by ``CAL_REF_S / calibration time``: the time
the op would have taken while the calibration ran at its reference speed.

The task does not import uwqkd and does not change with it, so a change to
the program moves the scaled times exactly as it moves the raw ones.  It mixes
the kinds of work the workloads do, in about equal shares of time: a pure
Python loop, small numpy arrays in a Python loop (the key-rate formula of
``reference.py`` on zoomed grids), RNG draws with reductions, and
float-to-text formatting.
"""

from __future__ import annotations

import io
import time

import numpy as np

import reference as ref

# about the calibration's time on the measurement machine in its fast phases
CAL_REF_S = 0.030

_CHANNEL = ref.channel()
_LENGTHS = (5.0, 35.0, 65.0)
_TABLE = np.random.default_rng(2).random((110, 110))


def _python_loop() -> int:
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def _small_arrays() -> float:
    return sum(ref.best_key_rate(_CHANNEL, length, n=128, zooms=2) for length in _LENGTHS)


def _rng_reduce() -> int:
    rng = np.random.default_rng(1)  # in blocks, so the worker's peak RSS stays the program's
    return sum(int((rng.random(250_000) < 0.3).sum()) for _ in range(6))


def _format() -> int:
    buf = io.StringIO()
    buf.write("\n".join(",".join(f"{v:.6g}" for v in row) for row in _TABLE))
    return buf.tell()


def calibrate() -> float:
    """Seconds the fixed task took."""
    t0 = time.perf_counter()
    _python_loop()
    _small_arrays()
    _rng_reduce()
    _format()
    return time.perf_counter() - t0
