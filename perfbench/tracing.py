"""Span tracing of uwqkd from outside the package.

``Tracer.install()`` replaces each public entry point with a wrapper in every
module where callers look it up (``uwqkd.optimize.evaluate_key_rate`` as well
as ``uwqkd.decoy.evaluate_key_rate``), so the package itself is unchanged.
Each call records a span ``[name, start, end, parent, op]`` in memory; a few
wrappers also count work from the returned value.  ``metrics()`` turns the
spans into the per-module numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, attribute) pairs where callers look the function up
SPANS = {
    "cli.main": [("uwqkd.cli", "main")],
    "cli.write_pgm": [("uwqkd.cli", "write_pgm")],
    "config.load_config": [("uwqkd.cli", "load_config"), ("uwqkd.config", "load_config")],
    "optimize.distance_sweep": [("uwqkd.cli", "distance_sweep"), ("uwqkd.optimize", "distance_sweep"),
                                ("uwqkd", "distance_sweep")],
    "optimize.max_secure_distance": [("uwqkd.cli", "max_secure_distance"),
                                     ("uwqkd.optimize", "max_secure_distance"),
                                     ("uwqkd", "max_secure_distance")],
    "optimize.optimize_mu_nu": [("uwqkd.cli", "optimize_mu_nu"), ("uwqkd.optimize", "optimize_mu_nu"),
                                ("uwqkd", "optimize_mu_nu")],
    # the vectorised key-rate kernel the optimiser calls
    "optimize.kernel": [("uwqkd.optimize", "_k_grid")],
    "decoy.evaluate_key_rate": [("uwqkd.decoy", "evaluate_key_rate"),
                                ("uwqkd.optimize", "evaluate_key_rate"), ("uwqkd", "evaluate_key_rate")],
    "channel.gain_stats": [("uwqkd.channel", "gain_stats"), ("uwqkd.decoy", "gain_stats")],
    "channel.transmittance": [("uwqkd.channel", "transmittance"), ("uwqkd.optimize", "transmittance"),
                              ("uwqkd.montecarlo", "transmittance")],
    "channel.background_yield": [("uwqkd.channel", "background_yield"),
                                 ("uwqkd.optimize", "background_yield"),
                                 ("uwqkd.montecarlo", "background_yield")],
    "montecarlo.simulate_session": [("uwqkd.montecarlo", "simulate_session")],
    "montecarlo.within_model_band": [("uwqkd.montecarlo", "within_model_band")],
    "tomography.make_vector_mode": [("uwqkd.cli", "make_vector_mode"),
                                    ("uwqkd.tomography", "make_vector_mode")],
    "tomography.apply_aberration": [("uwqkd.cli", "apply_aberration"),
                                    ("uwqkd.tomography", "apply_aberration")],
    "tomography.project_all": [("uwqkd.cli", "project_all"), ("uwqkd.tomography", "project_all")],
    "tomography.reconstruct_stokes": [("uwqkd.cli", "reconstruct_stokes"),
                                      ("uwqkd.tomography", "reconstruct_stokes")],
}
# counted without a span: one call per Monte Carlo block
COUNTED = {"montecarlo.blocks": [("uwqkd.montecarlo", "_block_rng")]}


def _count_result(counters, name, res):
    if name == "optimize.optimize_mu_nu":
        results = res if isinstance(res, (list, tuple)) else [res]
        counters["optimize.rate_points"] += len(results)
        for r in results:
            flags = getattr(r, "flags", ())
            counters["optimize.flag_no_positive_key"] += "no_positive_key" in flags
            counters["optimize.flag_vacuous"] += "vacuous" in flags
    elif name == "optimize.kernel":
        counters["optimize.kernel_points"] += getattr(res, "size", 1)
    elif name == "montecarlo.simulate_session":
        counters["montecarlo.pulses"] += getattr(res, "pulses_sent", 0)
    elif name == "tomography.make_vector_mode":
        counters["tomography.pixels"] += getattr(getattr(res, "eh", None), "size", 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            _count_result(counters, name, res)
            return res

        return wrapper

    def _counter(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for name, sites in table.items():
                self.counters.setdefault(name, 0)
                wrapped = {}
                for mod_name, attr in sites:
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        continue
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = make(name, fn)
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapped[id(fn)])
                if not wrapped:
                    self.missing.append(name)
                    print(f"perfbench: trace: no entry point found for {name}", file=sys.stderr)
        for key in ("optimize.rate_points", "optimize.flag_no_positive_key", "optimize.flag_vacuous",
                    "optimize.kernel_points", "montecarlo.pulses", "tomography.pixels"):
            self.counters.setdefault(key, 0)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            child[parent] += e - s
    return [(e - s) - c for (_, s, e, _, _), c in zip(spans, child)]


def metrics(spans: list[list], counters: dict, op_wall_s: float, bytes_out: int) -> dict:
    """Per-module metrics (value only) from the spans of the traced ops."""
    dur = [e - s for _, s, e, _, _ in spans]
    self_s = self_times(spans)
    names = [sp[0] for sp in spans]

    def layer(i):
        return names[i].split(".")[0]

    def total(name, outermost_layer=False):
        out = 0.0
        for i, n in enumerate(names):
            if not n.startswith(name):
                continue
            p = spans[i][3]
            if outermost_layer and p >= 0 and layer(p) == layer(i):
                continue
            out += dur[i]
        return out

    def self_total(*prefixes):
        return sum(t for n, t in zip(names, self_s) if n in prefixes)

    def count(name):
        return sum(n == name for n in names)

    def has_ancestor(i, name):
        p = spans[i][3]
        while p >= 0:
            if names[p] == name:
                return True
            p = spans[p][3]
        return False

    c = counters
    kernel_s = total("optimize.kernel")
    tomo_s = [total(f"tomography.{f}") for f in
              ("make_vector_mode", "apply_aberration", "project_all", "reconstruct_stokes")]
    cli_self = self_total("cli.main")
    pgm_s = total("cli.write_pgm")
    root_s = sum(d for d, sp in zip(dur, spans) if sp[3] < 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "optimize.calls": count("optimize.optimize_mu_nu"),
        "optimize.s": total("optimize.optimize_mu_nu"),
        "optimize.self_s": self_total("optimize.optimize_mu_nu", "optimize.distance_sweep",
                                      "optimize.max_secure_distance"),
        "optimize.sweep_s": total("optimize.distance_sweep"),
        "optimize.cutoff_s": total("optimize.max_secure_distance"),
        "optimize.cutoff_calls": sum(n == "optimize.optimize_mu_nu"
                                     and has_ancestor(i, "optimize.max_secure_distance")
                                     for i, n in enumerate(names)),
        "optimize.kernel_calls": count("optimize.kernel"),
        "optimize.kernel_s": kernel_s,
        "optimize.kernel_points": c["optimize.kernel_points"],
        "optimize.kernel_ns_per_point": per(kernel_s, c["optimize.kernel_points"], 1e9),
        "optimize.kernel_points_per_rate_point": per(c["optimize.kernel_points"],
                                                     c["optimize.rate_points"]),
        "optimize.flag_no_positive_key": c["optimize.flag_no_positive_key"],
        "optimize.flag_vacuous": c["optimize.flag_vacuous"],
        "decoy.evaluate_calls": count("decoy.evaluate_key_rate"),
        "decoy.evaluate_s": total("decoy.evaluate_key_rate", outermost_layer=True),
        "channel.calls": sum(n.startswith("channel.") for n in names),
        "channel.s": total("channel.", outermost_layer=True),
        "config.load_calls": count("config.load_config"),
        "config.load_s": total("config.load_config"),
        "montecarlo.simulate_s": total("montecarlo.simulate_session"),
        "montecarlo.ns_per_pulse": per(total("montecarlo.simulate_session"),
                                       c["montecarlo.pulses"], 1e9),
        "montecarlo.blocks": c["montecarlo.blocks"],
        "montecarlo.check_s": total("montecarlo.within_model_band"),
        "tomography.synth_s": tomo_s[0],
        "tomography.aberration_s": tomo_s[1],
        "tomography.project_s": tomo_s[2],
        "tomography.stokes_s": tomo_s[3],
        "tomography.ns_per_pixel": per(sum(tomo_s), c["tomography.pixels"], 1e9),
        "cli.self_s": cli_self,
        "cli.pgm_s": pgm_s,
        "cli.bytes_out": bytes_out,
        "cli.ns_per_byte": per(cli_self + pgm_s, bytes_out, 1e9),
        "trace.coverage_frac": per(root_s, op_wall_s),
    }


def self_time_by_span(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name; the values add up to the root spans' time."""
    out: dict[str, float] = {}
    for sp, t in zip(spans, self_times(spans)):
        out[sp[0]] = out.get(sp[0], 0.0) + t
    return out
