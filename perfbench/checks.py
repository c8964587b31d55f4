"""Correctness checks on each op's outputs, run by the parent process untimed.

``Checker.check(op)`` returns a list of problems (empty when the op is
correct).  Key rates are compared with :mod:`reference`, which does not
import uwqkd; Monte Carlo JSON must repeat byte for byte for a repeated seed;
tomography Stokes maps must match the ideal mode, since the Zernike screen
is a common phase; PGM files must parse (plain P2 or binary P5) with the
grid's dimensions.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

import reference as ref

# |K(mu, nu) - K_reported| / K_reported: the package's scalar path and the
# expm1 form here differ by cancellation in the Q1 bound at nu ~ 1e-4.
K_CONSISTENCY_RTOL = 1e-4
# (K_grid - K_reported) / K_grid above this is a false optimum
K_SHORTFALL_TOL = 1e-3
# metres either side of a reported cutoff where the grid must agree
CUTOFF_MARGIN_M = 0.5
STOKES_ATOL = 1e-6
MC_BAND_SE = 5.0


class Checker:
    def __init__(self):
        self.k_shortfall_max = -math.inf
        self._mc_bytes: dict[tuple, bytes] = {}
        self._grid_best: dict[tuple[str, float], float] = {}

    def _best(self, channel_key: str, length: float) -> float:
        """Grid-optimum K, cached: a run repeats its channels and lengths."""
        k = (channel_key, length)
        if k not in self._grid_best:
            self._grid_best[k] = ref.best_key_rate(ref.channel(json.loads(channel_key)), length)
        return self._grid_best[k]

    def check(self, op, rc) -> list[str]:
        if op.workload == "injected" or rc != 0:
            return [f"exit status {rc}"]
        return getattr(self, f"_check_{op.workload}")(op)

    # -- key rates ---------------------------------------------------------

    def _check_point(self, ch, length, k, mu, nu, flags, best) -> list[str]:
        errs = []
        if not (math.isfinite(k) and k >= 0):
            return [f"L={length}: K={k} is not a finite rate >= 0"]
        if (k == 0) != ("no_positive_key" in flags):
            errs.append(f"L={length}: K={k} with flags {flags}")
        if k > 0:
            k_at = float(ref.key_rate(ch, length, mu, nu))
            if abs(k_at - k) > K_CONSISTENCY_RTOL * k:
                errs.append(f"L={length}: K={k} but the formula gives {k_at} at mu={mu}, nu={nu}")
        if best > 0:
            shortfall = (best - k) / best
            self.k_shortfall_max = max(self.k_shortfall_max, shortfall)
            if shortfall > K_SHORTFALL_TOL:
                errs.append(f"L={length}: K={k} is {shortfall:.2e} below the grid optimum {best}")
        return errs

    def _check_rate_sweep(self, op) -> list[str]:
        ch = ref.channel(op.meta["channel"])
        key = json.dumps(op.meta["channel"], sort_keys=True)
        want = [float(L) for L in op.meta["lengths"]]
        rows = list(csv.DictReader(Path(op.argvs[0][-1]).open()))
        if [float(r["length_m"]) for r in rows] != want:
            return [f"sweep lengths are not {want[0]:g}, {want[1]:g}, ..., {want[-1]:g} m"]
        errs = []
        for r in rows:
            L = float(r["length_m"])
            flags = tuple(f for f in r["flags"].split(";") if f)
            errs += self._check_point(ch, L, float(r["k_per_pulse"]), float(r["mu_opt"]),
                                      float(r["nu_opt"]), flags, self._best(key, L))
        return errs

    def _check_channel_queries(self, op) -> list[str]:
        ch = ref.channel(op.meta["channel"])
        key = json.dumps(op.meta["channel"], sort_keys=True)
        length = op.meta["length_m"]
        out = json.loads(Path(op.argvs[0][-1]).read_text())
        errs = self._check_point(ch, length, out["k_per_pulse"], out["mu"], out["nu"],
                                 tuple(out["flags"]), self._best(key, length))
        d = out["max_secure_distance_m"]
        l_max = op.meta["l_max"]
        if isinstance(d, str):
            if self._best(key, l_max - CUTOFF_MARGIN_M) <= 0:
                errs.append(f"no cutoff reported, but the grid finds no key at {l_max} m")
        elif d is None:
            if self._best(key, 0.0) > 0:
                errs.append("channel reported dead at 0 m, but the grid finds key there")
        else:
            if d > CUTOFF_MARGIN_M and self._best(key, d - CUTOFF_MARGIN_M) <= 0:
                errs.append(f"cutoff {d} m, but the grid finds no key at {d - CUTOFF_MARGIN_M} m")
            if self._best(key, d + CUTOFF_MARGIN_M) > 0:
                errs.append(f"cutoff {d} m, but the grid finds key at {d + CUTOFF_MARGIN_M} m")
        return errs

    # -- Monte Carlo -------------------------------------------------------

    def _check_mc_session(self, op) -> list[str]:
        m = op.meta
        raw = Path(op.argvs[0][-1]).read_bytes()
        s = json.loads(raw)
        errs = []
        if s["pulses_sent"] != m["n_pulses"] or s["seed"] != m["seed"]:
            errs.append(f"pulses_sent/seed {s['pulses_sent']}/{s['seed']} != {m['n_pulses']}/{m['seed']}")
        if not 0 <= s["errors"] <= s["sifted"] <= s["detections"] <= s["pulses_sent"]:
            errs.append("counts are not ordered errors <= sifted <= detections <= pulses")
        if s["q_hat"] != s["detections"] / s["pulses_sent"]:
            errs.append("q_hat != detections / pulses_sent")
        eta, y0 = ref.eta_y0(ref.channel(), m["length_m"])
        q = y0 - math.expm1(-eta * m["mu"])
        if abs(s["q_hat"] - q) > MC_BAND_SE * math.sqrt(q * (1 - q) / s["pulses_sent"]):
            errs.append(f"gain {s['q_hat']} outside {MC_BAND_SE} SE of the model gain {q}")
        first = self._mc_bytes.setdefault((m["length_m"], m["seed"], m["n_pulses"]), raw)
        if first != raw:
            errs.append("same seed gave different Monte Carlo JSON")
        return errs

    # -- tomography --------------------------------------------------------

    def _check_tomography_maps(self, op) -> list[str]:
        errs = []
        for prefix, n, fmt in op.meta["outputs"]:
            if fmt == "json":
                d = json.loads(Path(f"{prefix}_stokes.json").read_text())
                if d["n"] != n or d["kind"] != op.meta["kind"]:
                    errs.append(f"{prefix}: header n={d['n']} kind={d['kind']}")
                    continue
                x, y = ref.grid_axes(n)
                cols = [np.asarray(d[k], float) for k in ("intensity", "s1", "s2", "s3", "valid")]
            else:
                path = Path(f"{prefix}_stokes.csv")
                with path.open() as fh:
                    head = fh.readline().rstrip("\n")
                if head != "x,y,intensity,s1,s2,s3,valid":
                    errs.append(f"{prefix}: CSV header {head!r}")
                    continue
                a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                if a.shape != (n * n, 7):
                    errs.append(f"{prefix}: CSV of shape {a.shape}, expected {(n * n, 7)}")
                    continue
                a = a.reshape(n, n, 7)
                x, y = ref.grid_axes(n)
                if not (np.allclose(a[..., 0], x, atol=1e-8) and np.allclose(a[..., 1], y, atol=1e-8)):
                    errs.append(f"{prefix}: pixel coordinates are not the grid axes")
                cols = [a[..., k] for k in range(2, 7)]
            errs += _check_stokes(prefix, op.meta["kind"], x, y, *cols)
            for lab in "HVDALR":
                errs += _check_pgm(Path(f"{prefix}_I{lab}.pgm"), n)
        return errs


def _check_stokes(prefix, kind, x, y, intensity, s1, s2, s3, valid) -> list[str]:
    n = x.shape[0]
    if any(c.shape != (n, n) for c in (intensity, s1, s2, s3, valid)):
        return [f"{prefix}: Stokes maps are not {n}x{n}"]
    v = valid.astype(bool)
    if v.sum() < 0.05 * n * n or not np.all(intensity[v] > 0):
        return [f"{prefix}: {int(v.sum())} valid pixels of {n * n}"]
    worst = max(float(np.max(np.abs(got[v] - want[v])))
                for got, want in zip((s1, s2, s3), ref.ideal_stokes(kind, x, y)))
    return [] if worst <= STOKES_ATOL else [f"{prefix}: Stokes off the ideal {kind} mode by {worst:.3g}"]


def _check_pgm(path: Path, n: int) -> list[str]:
    raw = path.read_bytes()
    m = re.match(rb"(P[25])\s+(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if not m:
        return [f"{path.name}: not a P2/P5 PGM"]
    w, h, maxval = (int(g) for g in m.groups()[1:])
    data = raw[m.end():]
    if (w, h) != (n, n):
        return [f"{path.name}: {w}x{h}, expected {n}x{n}"]
    if m.group(1) == b"P5":
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        if len(data) != n * n * dtype.itemsize:
            return [f"{path.name}: {len(data)} bytes of P5 data for {n}x{n} pixels"]
        px = np.frombuffer(data, dtype=dtype).astype(np.int64)
    else:
        px = np.array(data.split(), dtype=np.int64)
        if px.size != n * n:
            return [f"{path.name}: {px.size} P2 values for {n}x{n} pixels"]
    if px.min() < 0 or px.max() != maxval:
        return [f"{path.name}: pixel range {px.min()}..{px.max()} with maxval {maxval}"]
    return []
