"""Command-line interface.

Subcommands: keyrate, sweep, sifted, montecarlo, tomography, optimize.
All output is deterministic given the full argument list (seeds included);
floats are emitted with shortest round-trip representation in JSON and 9
significant digits in the sweep and Stokes CSVs.

Exit statuses: 0 success, 1 usage/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import decoy, montecarlo
from .config import load_config
from .optimize import DeadChannelError, RatePoint, distance_sweep, max_secure_distance, optimize_mu_nu
from .qstate import PolLabel
from .tomography import (
    MODE_KINDS,
    AberrationSpec,
    GridSpec,
    StokesField,
    make_vector_mode,
    project_all,
    reconstruct_stokes,
)


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _result_payload(res: decoy.KeyRateResult, modulation_rate_hz: float) -> dict:
    # both candidate source rates reported side by side: the 1 GHz repetition
    # rate and the 100 MHz modulation figure
    return {
        "k_per_pulse": res.k_per_pulse,
        "mu": res.mu,
        "nu": res.nu,
        "bits_per_second": res.k_per_pulse * modulation_rate_hz,
        "bits_per_second_1ghz": res.k_per_pulse * 1e9,
        "bits_per_second_100mhz": res.k_per_pulse * 1e8,
        "components": res.components,
        "flags": list(res.flags),
    }


def _cmd_keyrate(args) -> int:
    """Both ``keyrate`` and ``optimize``: fixed (mu, nu) or optimized, optionally the cutoff."""
    cfg = load_config(args.config)
    p = cfg.channel if args.length is None else cfg.channel.at_length(args.length)
    if (args.mu is None) != (args.nu is None):
        raise ValueError("give both --mu and --nu, or neither (optimize)")
    if args.mu is not None:
        res = decoy.evaluate_key_rate(p, args.mu, args.nu, qber_override=args.qber)
    else:
        res = optimize_mu_nu(p, cfg.optimizer, qber_override=args.qber)
    payload = _result_payload(res, cfg.modulation_rate_hz)
    if args.max_distance:
        try:
            d = max_secure_distance(p, cfg.optimizer, l_max=args.l_max)
        except DeadChannelError:
            payload["max_secure_distance_m"] = None
        else:
            payload["max_secure_distance_m"] = (
                d if d != float("inf") else f"no cutoff below {args.l_max} m"
            )
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _curve_csv(curve: tuple[RatePoint, ...]) -> str:
    lines = ["length_m,k_per_pulse,mu_opt,nu_opt,flags"]
    for pt in curve:
        flags = ";".join(pt.flags)
        lines.append(
            f"{pt.length_m:.9g},{pt.k_per_pulse:.9g},{pt.mu_opt:.9g},{pt.nu_opt:.9g},{flags}"
        )
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> int:
    for flag, value in (("--l-min", args.l_min), ("--l-max", args.l_max), ("--step", args.step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.l_min < 0:
        raise ValueError(f"--l-min must be >= 0, got {args.l_min}")
    if args.l_min >= args.l_max:
        raise ValueError("need l_min < l_max")
    if args.step <= 0:
        raise ValueError("step must be > 0")
    cfg = load_config(args.config)
    lengths = list(np.arange(args.l_min, args.l_max + args.step / 2, args.step))
    if args.step > args.l_max - args.l_min:
        lengths = [args.l_min]
    curve = distance_sweep(cfg.channel, lengths, cfg.optimizer)
    if args.format == "json":
        _emit(json.dumps([asdict(pt) for pt in curve], indent=2) + "\n", args.out)
    else:
        _emit(_curve_csv(curve), args.out)
    return 0


def _cmd_sifted(args) -> int:
    rate = decoy.sifted_key_fraction(args.qber)
    _emit(f"{rate:.4f}\n", args.out)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    p = cfg.channel if args.length is None else cfg.channel.at_length(args.length)
    stats = montecarlo.simulate_session(p, args.mu, args.n_pulses, args.seed)
    _emit(json.dumps(asdict(stats), indent=2) + "\n", args.out)
    if args.check and not montecarlo.within_model_band(stats, p, args.mu):
        print("analytic model outside 4 standard errors", file=sys.stderr)
        return 2
    return 0


def write_pgm(path: str | Path, arr: np.ndarray) -> None:
    """Binary 16-bit PGM (P5), intensity scaled to the array peak."""
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("PGM intensities must be finite and >= 0")
    peak = float(arr.max())
    scaled = (np.zeros(arr.shape, dtype=">u2") if peak == 0
              else np.round(arr / peak * 65535).astype(">u2"))
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode())
        f.write(scaled.tobytes())


_CHUNK_ROWS = 2**14  # Stokes CSV table rows formatted per chunk, bounding the strings held


def _format_distinct(values: np.ndarray, fmt: str | None = None) -> np.ndarray:
    """The text of each element of the 1-D ``values``, as an object array.

    Each distinct bit pattern is formatted once: with the printf format ``fmt``
    (``%`` of Python's float or int), or with ``json.dumps`` when ``fmt`` is None.
    Deduplicating bits rather than values keeps -0.0 apart from 0.0.  The bits are
    sorted stably, which is faster than ``np.unique``'s quicksort on the long runs of
    equal values in a mostly-zero Stokes map; the text is then gathered once by index.
    """
    bits = values.view(f"u{values.itemsize}")
    order = np.argsort(bits, kind="stable")
    bits = bits[order]
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    v = bits[new].view(values.dtype).tolist()
    del bits
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new)
    inverse -= 1
    del order, new  # as np.unique's, only the inverse outlives the dedupe
    text = json.dumps(v)[1:-1] if fmt is None else ((fmt + "\0") * len(v) % tuple(v))[:-1]
    del v  # the strings below are the largest temporaries
    return np.array(text.split(", " if fmt is None else "\0"), dtype=object)[inverse]


def _write_stokes_csv(path: str, grid: GridSpec, stokes: StokesField) -> None:
    """The ``np.savetxt`` table byte for byte (``%.9g`` x6, then ``%d``, comma-separated).

    ``_CHUNK_ROWS`` rows at a time, each column's distinct values are formatted
    once, separators included, and the chunk is written as one string.
    """
    cols = [c.ravel() for c in (*grid.axes(), stokes.intensity, stokes.s1, stokes.s2, stokes.s3,
                                 stokes.valid)]
    fmts = ["%.9g,"] * 6 + ["%d\n"]
    with open(path, "w") as f:
        f.write("x,y,intensity,s1,s2,s3,valid\n")
        for start in range(0, len(cols[0]), _CHUNK_ROWS):
            table = np.column_stack([_format_distinct(c[start:start + _CHUNK_ROWS], fmt)
                                     for c, fmt in zip(cols, fmts)])
            f.write("".join(table.ravel().tolist()))


def _write_json_object(path: str, payload: dict) -> None:
    r"""``json.dumps(payload) + "\n"`` byte for byte, one key at a time.

    A 2-D array value is formatted with each distinct value once over the whole
    map, and written one row at a time, so no map-sized string is built.
    """
    with open(path, "w") as f:
        f.write("{")
        for i, (key, value) in enumerate(payload.items()):
            f.write((", " if i else "") + json.dumps(key) + ": ")
            if isinstance(value, np.ndarray):
                f.write("[")
                f.writelines((", [" if j else "[") + ", ".join(row.tolist()) + "]" for j, row
                             in enumerate(_format_distinct(value.ravel()).reshape(value.shape)))
                f.write("]")
            else:
                f.write(json.dumps(value))
        f.write("}\n")


def _cmd_tomography(args) -> int:
    grid = GridSpec(n=args.n, extent_waists=args.extent)
    if args.random_aberration:
        spec = AberrationSpec.random(args.seed, args.length or 0.0, args.rms_per_m)
    else:
        spec = AberrationSpec(tip=args.tip, tilt=args.tilt, astig_oblique=args.astig_oblique,
                              astig_vertical=args.astig_vertical, defocus=args.defocus)
    intensities = project_all(make_vector_mode(args.kind, grid))  # no field held, and no screen: it cancels
    stokes = reconstruct_stokes(intensities)
    prefix = Path(args.out) if args.out else Path(f"tomography_{args.kind}")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for lab in PolLabel:  # each image dies once written: only `stokes` outlives this loop
        write_pgm(f"{prefix}_I{lab.value}.pgm", intensities.pop(lab))
    if args.format == "json":
        _write_json_object(f"{prefix}_stokes.json", {
            "kind": args.kind,
            "n": grid.n,
            "extent_waists": grid.extent_waists,
            "aberration": spec.coefficients(),
            "s1": stokes.s1,
            "s2": stokes.s2,
            "s3": stokes.s3,
            "intensity": stokes.intensity,
            "valid": stokes.valid.astype(int),
        })
    else:
        _write_stokes_csv(f"{prefix}_stokes.csv", grid, stokes)
    return 0


@functools.cache  # one parser per process; handlers look their callees up when they run
def build_parser() -> _Parser:
    parser = _Parser(prog="uwqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(sp):
        sp.add_argument("--config", help="flat JSON config file (defaults: flume channel)")
        sp.add_argument("--out", help="output file (default: stdout)")

    sp = sub.add_parser("keyrate", help="decoy key rate at fixed or optimized (mu, nu)")
    add_common(sp)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--length", type=float, help="channel length in m (overrides config)")
    sp.add_argument("--qber", type=float, help="measured QBER replacing the modeled E_mu")
    sp.set_defaults(func=_cmd_keyrate, max_distance=False)

    sp = sub.add_parser("optimize", help="optimal (mu, nu) and key rate for one channel")
    add_common(sp)
    sp.add_argument("--length", type=float)
    sp.add_argument("--qber", type=float)
    sp.add_argument("--max-distance", action="store_true", help="also bisect the cutoff; it ignores --qber")
    sp.add_argument("--l-max", type=float, default=200.0)
    sp.set_defaults(func=_cmd_keyrate, mu=None, nu=None)

    sp = sub.add_parser("sweep", help="optimized rate-distance curve")
    add_common(sp)
    sp.add_argument("--l-min", type=float, required=True)
    sp.add_argument("--l-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("sifted", help="key rate per sifted photon from a QBER")
    sp.add_argument("qber", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_sifted)

    sp = sub.add_parser("montecarlo", help="pulse-level BB84 session simulation")
    add_common(sp)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--n-pulses", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--length", type=float)
    sp.add_argument("--check", action="store_true", help="exit 2 unless analytic model within 4 SE")
    sp.set_defaults(func=_cmd_montecarlo)

    sp = sub.add_parser("tomography", help="vector mode synthesis and Stokes reconstruction")
    sp.add_argument("--kind", required=True, choices=MODE_KINDS)
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--extent", type=float, default=8.0)
    sp.add_argument("--tip", type=float, default=0.0)
    sp.add_argument("--tilt", type=float, default=0.0)
    sp.add_argument("--astig-oblique", type=float, default=0.0)
    sp.add_argument("--astig-vertical", type=float, default=0.0)
    sp.add_argument("--defocus", type=float, default=0.0)
    sp.add_argument("--random-aberration", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--length", type=float, help="channel length for random aberration scaling")
    sp.add_argument("--rms-per-m", type=float, default=0.05)
    sp.add_argument("--out", help="output path prefix")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_tomography)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"uwqkd: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"uwqkd: failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
