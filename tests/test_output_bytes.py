"""Byte-level pins of the CLI's output files.

``tests/data/cli_output_sha256.json`` holds the SHA-256 of every file that
``COMMANDS`` writes.  The sweep, keyrate, optimize and Monte Carlo hashes were
recorded with the per-pixel writers that ``cli.py`` used before it wrote whole
arrays; the PGM hashes were recorded when ``write_pgm`` became a binary 16-bit
P5 writer, after every P5 file was decoded to the pixels the earlier plain P2
writer produced.  The Stokes CSV and JSON hashes were recorded when
``uwqkd.tomography`` began to sample fields and Zernike screens from Cartesian
pixel coordinates instead of (r, phi), after each Stokes map was checked to lie
within 1e-14 of the polar sampling's, with the same ``valid`` mask and the same
PGMs.  The sweep, keyrate (optimized) and optimize hashes were re-recorded when
the optimizer's zoom rounds gave way to interpolation, after each moved K was
checked to be at least the best K of a 200 001-point mu row, and each mu to
lie within half a step of that row's best; every cutoff stayed the same.  The
Monte Carlo hash was last re-recorded when a block began to draw only its
pulses with photons (a binomial lit count, click chances from a per-session
table, double clicks by one hypergeometric draw), after the pinned session was
checked to pass ``--check``.  The 24 aberrated Stokes CSV and JSON hashes were
re-recorded when ``uwqkd tomography`` stopped building the Zernike screen, a
phase common to H and V that cancels in every analyzer intensity, after each
of those maps was checked to lie within 5.9e-16 of the earlier one in s1, s2
and s3 and 8.7e-18 in the intensity, with the same ``valid`` mask and the same
PGMs.  Each aberrated run now writes its flat twin's PGMs and CSV byte for
byte, and a JSON that differs from its twin's only in ``aberration``.

The writers under test: ``write_pgm`` writes the P5 header and the scaled
pixels as big-endian ``u2``; the Stokes CSV formats each distinct bit pattern
of a column once per chunk of ``cli._CHUNK_ROWS`` rows and must equal
``np.savetxt`` byte for byte, across chunk boundaries too; the Stokes JSON
formats each distinct bit pattern of a map once, writes the map one row at a
time, and must equal ``json.dumps`` of the whole payload.  Both must keep -0.0
apart from 0.0.  The per-pixel CSV and PGM loops stay here as oracles.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import uwqkd.cli
from uwqkd.cli import main, write_pgm
from uwqkd.tomography import (
    AberrationSpec,
    GridSpec,
    make_vector_mode,
    project_all,
    reconstruct_stokes,
)

HASHES = Path(__file__).parent / "data" / "cli_output_sha256.json"

# name -> (argv, output file suffixes); each command runs with
# --out <workdir>/<name>, and "{cfg}" stands for a file holding CONFIG_TEXT
CONFIG_TEXT = '{"dark_rate_hz": 0, "e_det": 0}'
_PGMS = [f"_I{lab}.pgm" for lab in "HVDALR"]


def _commands() -> dict[str, tuple[list[str], list[str]]]:
    cmds = {
        "sweep_csv": (["sweep", "--l-min", "0", "--l-max", "90", "--step", "1"], [""]),
        "sweep_json": (["sweep", "--l-min", "0", "--l-max", "90", "--step", "1", "--format", "json"], [""]),
        "keyrate_opt": (["keyrate", "--length", "30"], [""]),
        "keyrate_fixed": (["keyrate", "--length", "30", "--mu", "0.5", "--nu", "0.05"], [""]),
        "keyrate_qber": (["keyrate", "--length", "12", "--qber", "0.02"], [""]),
        "optimize": (["optimize", "--length", "10"], [""]),
        "optimize_cutoff": (["optimize", "--length", "10", "--max-distance"], [""]),
        "optimize_no_cutoff": (["optimize", "--max-distance", "--l-max", "50"], [""]),
        "optimize_cutoff_cfg": (
            ["optimize", "--config", "{cfg}", "--length", "1", "--max-distance", "--l-max", "6000"],
            [""],
        ),
        "montecarlo": (["montecarlo", "--mu", "0.5", "--n-pulses", "100000", "--seed", "3",
                        "--length", "20"], [""]),
    }
    for kind in ("radial", "azimuthal", "vortex_cw", "vortex_ccw"):
        for n in (33, 64, 101):
            for aberr, extra in (("flat", []), ("aberr", ["--random-aberration", "--seed", "11",
                                                          "--length", "30"])):
                for fmt in ("csv", "json"):
                    argv = ["tomography", "--kind", kind, "--n", str(n), "--format", fmt] + extra
                    cmds[f"tomo_{kind}_{n}_{aberr}_{fmt}"] = (argv, _PGMS + [f"_stokes.{fmt}"])
    return cmds


COMMANDS = _commands()


def output_hashes(workdir: Path) -> dict[str, str]:
    """Run every command of ``COMMANDS`` in ``workdir``; SHA-256 per output file."""
    cfg = workdir / "config.json"
    cfg.write_text(CONFIG_TEXT)
    out = {}
    for name, (argv, suffixes) in COMMANDS.items():
        prefix = workdir / name
        argv = [str(cfg) if a == "{cfg}" else a for a in argv] + ["--out", str(prefix)]
        assert main(argv) == 0, name
        for suffix in suffixes:
            path = Path(f"{prefix}{suffix}")
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_output_bytes_match_pinned_hashes(tmp_path):
    expected = json.loads(HASHES.read_text())
    got = output_hashes(tmp_path)
    assert sorted(got) == sorted(expected)
    assert {k for k in got if got[k] != expected[k]} == set()


# -- oracles: the per-pixel writers the array writers replaced ---------------


def _csv_oracle(stokes, grid: GridSpec) -> str:
    x, y = grid.axes()
    lines = ["x,y,intensity,s1,s2,s3,valid"]
    for i in range(grid.n):
        for j in range(grid.n):
            row = (x[i, j], y[i, j], stokes.intensity[i, j], stokes.s1[i, j], stokes.s2[i, j],
                   stokes.s3[i, j], int(stokes.valid[i, j]))
            lines.append(",".join(f"{v:.9g}" if not isinstance(v, int) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _pgm_oracle(arr: np.ndarray) -> str:
    peak = float(arr.max())
    scaled = np.zeros_like(arr, dtype=int) if peak == 0 else np.round(arr / peak * 65535).astype(int)
    text = f"P2\n{arr.shape[1]} {arr.shape[0]}\n65535\n"
    for row in scaled:
        text += " ".join(str(v) for v in row) + "\n"
    return text


_ABERR = ["--random-aberration", "--seed", "11", "--length", "30"]


@pytest.mark.parametrize("n", [48, 67])
@pytest.mark.parametrize("kind,flags", [("radial", []), ("vortex_cw", []), ("radial", _ABERR),
                                        ("vortex_cw", _ABERR)],
                         ids=["radial", "vortex_cw", "radial-aberr", "vortex_cw-aberr"])
def test_stokes_csv_matches_per_pixel_oracle(n, kind, flags, tmp_path):
    # the screen cancels in every intensity, so the aberrated run has the flat oracle too
    grid = GridSpec(n=n)
    assert main(["tomography", "--kind", kind, "--n", str(n), *flags, "--out", str(tmp_path / "t")]) == 0
    stokes = reconstruct_stokes(project_all(make_vector_mode(kind, grid)))
    assert (tmp_path / "t_stokes.csv").read_text() == _csv_oracle(stokes, grid)


def test_aberrated_run_equals_flat_twin_but_for_its_record(tmp_path):
    # the CSV's equality follows from the per-pixel oracle above, which both runs match
    argv = ["tomography", "--kind", "vortex_cw", "--n", "67", "--format", "json"]
    assert main([*argv, "--out", str(tmp_path / "flat")]) == 0
    assert main([*argv, *_ABERR, "--out", str(tmp_path / "aberr")]) == 0
    for suffix in _PGMS:
        assert (tmp_path / f"aberr{suffix}").read_bytes() == (tmp_path / f"flat{suffix}").read_bytes(), suffix
    flat, aberr = (json.loads((tmp_path / f"{side}_stokes.json").read_text()) for side in ("flat", "aberr"))
    assert flat.pop("aberration") == [0.0] * 5
    assert aberr.pop("aberration") == list(AberrationSpec.random(11, 30.0, 0.05).coefficients())
    assert aberr == flat


def _assert_p5_matches_oracle(path: Path, arr: np.ndarray) -> None:
    # the P5 file must carry exactly the pixels of the plain P2 oracle
    h, w = arr.shape
    header = f"P5\n{w} {h}\n65535\n".encode()
    raw = path.read_bytes()
    assert raw[:len(header)] == header
    assert len(raw) == len(header) + 2 * w * h
    want = np.array(_pgm_oracle(arr).split()[4:], dtype=np.int64).reshape(h, w)
    np.testing.assert_array_equal(np.frombuffer(raw[len(header):], dtype=">u2").reshape(h, w), want)


@pytest.mark.parametrize("n", [48, 67])
def test_pgm_matches_per_pixel_oracle(n, tmp_path):
    for lab, arr in project_all(make_vector_mode("azimuthal", GridSpec(n=n))).items():
        write_pgm(tmp_path / "i.pgm", arr)
        _assert_p5_matches_oracle(tmp_path / "i.pgm", arr)
    rect = np.random.default_rng(n).random((n, n + 5))
    write_pgm(tmp_path / "r.pgm", rect)
    _assert_p5_matches_oracle(tmp_path / "r.pgm", rect)


def test_all_zero_pgm_matches_oracle(tmp_path):
    arr = np.zeros((48, 67))
    write_pgm(tmp_path / "z.pgm", arr)
    _assert_p5_matches_oracle(tmp_path / "z.pgm", arr)


# -- the Stokes writers against the whole-payload calls they replaced --------


@pytest.fixture
def planted_stokes(monkeypatch):
    """The CLI's Stokes maps, with a negative zero planted if none occurs."""
    got = []

    def capture(intensities):
        stokes = reconstruct_stokes(intensities)
        if not np.any((stokes.s1 == 0) & np.signbit(stokes.s1)):
            stokes.s1[0, 0] = -0.0
        got.append(stokes)
        return stokes

    monkeypatch.setattr(uwqkd.cli, "reconstruct_stokes", capture)
    return got


@pytest.mark.parametrize("n", [48, 67])
def test_stokes_json_matches_whole_payload_dumps(n, planted_stokes, tmp_path):
    assert main(["tomography", "--kind", "vortex_cw", "--n", str(n), "--format", "json", *_ABERR,
                 "--out", str(tmp_path / "t")]) == 0
    (stokes,) = planted_stokes
    payload = {
        "kind": "vortex_cw",
        "n": n,
        "extent_waists": GridSpec(n=n).extent_waists,
        "aberration": AberrationSpec.random(11, 30.0, 0.05).coefficients(),
        "s1": stokes.s1.tolist(),
        "s2": stokes.s2.tolist(),
        "s3": stokes.s3.tolist(),
        "intensity": stokes.intensity.tolist(),
        "valid": stokes.valid.astype(int).tolist(),
    }
    text = (tmp_path / "t_stokes.json").read_text()
    assert text == json.dumps(payload) + "\n"
    assert "-0.0" in text


def test_stokes_csv_matches_savetxt(planted_stokes, tmp_path):
    # 33 * 33 rows: not a multiple of any power of two; 131 * 131 = 17161 rows: more
    # than one of the writer's chunks of cli._CHUNK_ROWS, and not a multiple of one
    assert 131 * 131 > uwqkd.cli._CHUNK_ROWS and 131 * 131 % uwqkd.cli._CHUNK_ROWS
    for n in (33, 131):
        grid = GridSpec(n=n)
        assert main(["tomography", "--kind", "radial", "--n", str(n), *_ABERR,
                     "--out", str(tmp_path / "t")]) == 0
        stokes = planted_stokes[-1]
        cols = (*grid.axes(), stokes.intensity, stokes.s1, stokes.s2, stokes.s3, stokes.valid)
        np.savetxt(tmp_path / "want.csv", np.column_stack([c.ravel() for c in cols]),
                   fmt=["%.9g"] * 6 + ["%d"], delimiter=",",
                   header="x,y,intensity,s1,s2,s3,valid", comments="")
        got = (tmp_path / "t_stokes.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes(), n
        assert b",-0," in got


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_pgm_rejects_invalid_intensity(bad, tmp_path):
    arr = np.ones((4, 4))
    arr[1, 2] = bad
    with pytest.raises(ValueError, match="finite and >= 0"):
        write_pgm(tmp_path / "bad.pgm", arr)
    assert not (tmp_path / "bad.pgm").exists()
