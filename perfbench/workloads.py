"""Seeded op generators for the four workloads.

An op is one or more ``uwqkd`` command lines run through ``uwqkd.cli.main``
plus the config files they read.  ``make_op(workload, seed, i, ...)`` is a
pure function of its arguments, so the worker that runs op ``i`` and the
parent that checks it build the same op independently.

The ``smoke`` scale shrinks every op so the smoke test runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import MODE_KINDS

WORKLOADS = ("rate_sweep", "channel_queries", "mc_session", "tomography_maps")

MC_LENGTHS = (0.5, 10.5, 20.5)
# a 0..l_max m curve at 1 m is swept in this many interleaved passes, one per op
SWEEP_PASSES = 3
# channels per run, Latin-hypercube stratified; each recurs ~4 times in a run
QUERY_POOL = 32
QUERY_L_MAX = 200.0

# Ops are run in whole cycles so that a run's mix of cost classes does not
# depend on where the clock stopped.
CYCLE = {"rate_sweep": 2 * SWEEP_PASSES, "channel_queries": 1, "mc_session": 1, "tomography_maps": 1}
# workloads whose output must repeat byte for byte: after the timed ops the
# worker reruns the inputs of op 0 once more, untimed, and the check compares
REPEAT_CHECKED = ("mc_session",)

WORK_UNIT = {
    "rate_sweep": "rate_points_per_s",
    "channel_queries": "queries_per_s",
    "mc_session": "pulses_per_s",
    "tomography_maps": "pixels_per_s",
}

SIZES = {
    "full": {"l_max": 90, "n_pulses": 10_000_000, "n_json": 256, "n_csv": 256, "setup_runs": 15},
    "smoke": {"l_max": 8, "n_pulses": 200_000, "n_json": 32, "n_csv": 48, "setup_runs": 1},
}


@dataclass
class Op:
    workload: str
    index: int
    argvs: list[list[str]]
    configs: dict[str, dict] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    work: float = 1.0
    key: tuple = ()  # the op's cost class: ops with equal keys do equal work


def _run_rng(seed: int, workload: str, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), *more])


def query_pool(seed: int) -> list[dict]:
    """Random channels, each axis split into QUERY_POOL strata (Latin hypercube)."""
    rng = _run_rng(seed, "channel_queries")
    u = (np.array([rng.permutation(QUERY_POOL) for _ in range(4)]).T
         + rng.random((QUERY_POOL, 4))) / QUERY_POOL
    return [
        {
            "alpha_db_per_m": 0.3 + 0.9 * a,
            "e_det": 0.03 * e,
            "dark_rate_hz": 30.0 * 100.0**d,
            "length_m": 40.0 * ell,
        }
        for a, e, d, ell in u.tolist()
    ]


def make_op(workload: str, seed: int, i: int, outdir: Path, scale: str = "full",
            like: int | None = None) -> Op:
    """Op ``i``, writing under ``outdir/op<i>``, with the inputs of op ``like`` (default ``i``)."""
    size = SIZES[scale]
    d = outdir / f"op{i:05d}"
    index, i = i, (i if like is None else like)
    if workload == "rate_sweep":
        # configs alternate op by op; each config's passes p = 0, 1, 2 sweep
        # p, p + 3, ... m, so one cycle covers 0..l_max m at 1 m twice
        dark_limited = (i + seed) % 2 == 1
        first = (i // 2) % SWEEP_PASSES
        lengths = list(range(first, size["l_max"] + 1, SWEEP_PASSES))
        argv = ["sweep", "--l-min", str(first), "--l-max", str(lengths[-1]),
                "--step", str(SWEEP_PASSES), "--out", str(d / "curve.csv")]
        configs = {}
        if dark_limited:
            configs[str(d / "config.json")] = {"e_det": 0.0}
            argv[1:1] = ["--config", str(d / "config.json")]
        return Op(workload, index, [argv], configs,
                  {"channel": {"e_det": 0.0} if dark_limited else {}, "lengths": lengths},
                  work=len(lengths), key=(dark_limited, first))
    if workload == "channel_queries":
        pool = query_pool(seed)
        ch = dict(pool[i % QUERY_POOL])
        length = ch.pop("length_m")
        cfg = str(d / "config.json")
        argv = ["optimize", "--config", cfg, "--length", repr(length), "--max-distance",
                "--l-max", repr(QUERY_L_MAX), "--out", str(d / "query.json")]
        return Op(workload, index, [argv], {cfg: ch},
                  {"channel": ch, "length_m": length, "l_max": QUERY_L_MAX},
                  key=(i % QUERY_POOL,))
    if workload == "mc_session":
        # a fresh seed every op; one length per run, cycling with the seed,
        # so all of a run's ops are one cost class
        mc_seed = int(_run_rng(seed, workload, i).integers(0, 2**31))
        length = MC_LENGTHS[seed % len(MC_LENGTHS)]
        argv = ["montecarlo", "--length", repr(length), "--mu", "0.5",
                "--n-pulses", str(size["n_pulses"]), "--seed", str(mc_seed), "--check",
                "--out", str(d / "session.json")]
        return Op(workload, index, [argv], {},
                  {"length_m": length, "mu": 0.5, "n_pulses": size["n_pulses"], "seed": mc_seed},
                  work=size["n_pulses"], key=(length,))
    if workload == "tomography_maps":
        # a fresh aberration seed every op; one kind per run, cycling with
        # the seed, so all of a run's ops are one cost class
        kind = MODE_KINDS[seed % len(MODE_KINDS)]
        ab_seed = int(_run_rng(seed, workload, i).integers(0, 2**31))
        common = ["tomography", "--kind", kind, "--random-aberration", "--length", "10",
                  "--seed", str(ab_seed)]
        n_j, n_c = size["n_json"], size["n_csv"]
        argvs = [
            common + ["--n", str(n_j), "--format", "json", "--out", str(d / "maps_json")],
            common + ["--n", str(n_c), "--format", "csv", "--out", str(d / "maps_csv")],
        ]
        return Op(workload, index, argvs, {},
                  {"kind": kind, "outputs": [(str(d / "maps_json"), n_j, "json"),
                                             (str(d / "maps_csv"), n_c, "csv")]},
                  work=n_j * n_j + n_c * n_c, key=(kind,))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def failing_op(i: int, outdir: Path) -> Op:
    """An op the CLI rejects (l_min >= l_max); the smoke test injects it."""
    d = outdir / f"op{i:05d}"
    return Op("injected", i, [["sweep", "--l-min", "5", "--l-max", "1", "--step", "1",
                               "--out", str(d / "curve.csv")]], {}, {})
