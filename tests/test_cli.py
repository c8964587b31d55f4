import gc
import importlib
import json
import weakref
from dataclasses import fields

import numpy as np
import pytest

from uwqkd import cli
from uwqkd.channel import ChannelParams
from uwqkd.cli import build_parser, main
from uwqkd.config import (
    _KINDS,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from uwqkd.optimize import OptimizerConfig
from uwqkd.tomography import project_all


@pytest.fixture
def config_file(tmp_path):
    cfg = RunConfig(
        channel=ChannelParams(e_det=0.0),
        optimizer=OptimizerConfig(coarse_grid=24, refine_iterations=1),
        modulation_rate_hz=1e8,
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return str(path)


# a value of the wrong JSON type for each of the 15 config keys
WRONG_TYPE = [
    ('{"alpha_db_per_m": "0.57"}', "alpha_db_per_m"),
    ('{"length_m": true}', "length_m"),
    ('{"eta_detector": null}', "eta_detector"),
    ('{"eta_bob": [0.188]}', "eta_bob"),
    ('{"dark_rate_hz": {}}', "dark_rate_hz"),
    ('{"pulse_rate_hz": "1e9"}', "pulse_rate_hz"),
    ('{"detection_window_s": false}', "detection_window_s"),
    ('{"e_det": "0.01"}', "e_det"),
    ('{"f_ec": true}', "f_ec"),
    ('{"bob_includes_detector": 1}', "bob_includes_detector"),
    ('{"mu_max": null}', "mu_max"),
    ('{"nu_min": "1e-4"}', "nu_min"),
    ('{"coarse_grid": 24.5}', "coarse_grid"),
    ('{"refine_iterations": true}', "refine_iterations"),
    ('{"modulation_rate_hz": "1e8"}', "modulation_rate_hz"),
]


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig(
            channel=ChannelParams(alpha_db_per_m=0.8, e_det=0.01),
            optimizer=OptimizerConfig(nu_min=5e-4),
            modulation_rate_hz=1e9,
        )
        path = tmp_path / "c.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(cfg)

    def test_numpy_integer_counts_round_trip(self, tmp_path):
        # numpy integer counts are stored as ints, which json.dumps can write
        opt = OptimizerConfig(coarse_grid=np.int64(48), refine_iterations=np.int32(2))
        assert type(opt.coarse_grid) is int and type(opt.refine_iterations) is int
        path = tmp_path / "c.json"
        save_config(RunConfig(ChannelParams(), opt), path)
        assert load_config(path).optimizer == OptimizerConfig(coarse_grid=48, refine_iterations=2)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # tolerance and e0 were removed: old configs that set them fail loudly
        path = tmp_path / "old.json"
        for key, value in (("alpha_db_per_km", 0.5), ("tolerance", 1e-6), ("e0", 0.5)):
            with pytest.raises(ValueError, match=key):
                config_from_dict({key: value})
            path.write_text(json.dumps({key: value}))
            assert main(["optimize", "--config", str(path)]) == 1
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [-5.0, 0.0, float("nan"), float("inf")])
    def test_modulation_rate_validated(self, rate):
        with pytest.raises(ValueError, match="modulation_rate_hz"):
            config_from_dict({"modulation_rate_hz": rate})

    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.channel.alpha_db_per_m == 0.57
        assert cfg == config_from_dict({})

    def test_record_fields_are_schema_kinds(self):
        # the loader maps exactly these annotations onto JSON types
        annotations = {f.name: f.type for r in (ChannelParams, OptimizerConfig) for f in fields(r)}
        annotations["modulation_rate_hz"] = RunConfig.__dataclass_fields__["modulation_rate_hz"].type
        assert set(annotations.values()) <= set(_KINDS)
        assert sorted(annotations) == sorted(config_to_dict(load_config(None)))
        assert len(annotations) == 15
        # test_bad_value_exits_1 gives every key a value of the wrong type
        assert {key for _, key in WRONG_TYPE} == set(annotations)

    @pytest.mark.parametrize(
        "text,key",
        WRONG_TYPE + [
            ('{"coarse_grid": null}', "coarse_grid"),
            ('{"alpha_db_per_m": NaN}', "alpha_db_per_m"),
            ('{"modulation_rate_hz": -5}', "modulation_rate_hz"),
            ('{"modulation_rate_hz": NaN}', "modulation_rate_hz"),
            ('{"mu_max": 1e-4}', "mu_max"),
            ('{"nu_min": 2.0}', "mu_max"),
            ('{"dark_rate_hz": 3e9}', "detection_window_s"),
            ('{"pulse_rate_hz": 2.2250738585072014e-308}', "dark_rate_hz"),
            # a top level that is not an object
            ("5", "config must be a JSON object"),
            ("null", "config must be a JSON object"),
            ('"abc"', "config must be a JSON object"),
            ("[]", "config must be a JSON object"),
        ],
    )
    def test_bad_value_exits_1(self, text, key, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["keyrate", "--config", str(path), "--mu", "0.5", "--nu", "0.1"]) == 1
        assert key in capsys.readouterr().err


class TestKeyrate:
    def test_fixed_mu_nu(self, config_file, capsys):
        rc = main(["keyrate", "--config", config_file, "--length", "10.5", "--mu", "0.5", "--nu", "0.1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_per_pulse"] > 0
        assert payload["bits_per_second"] == payload["k_per_pulse"] * 1e8
        assert payload["bits_per_second_1ghz"] == payload["k_per_pulse"] * 1e9
        assert payload["bits_per_second_100mhz"] == payload["k_per_pulse"] * 1e8

    def test_qber_override_point_below_model(self, config_file, capsys):
        main(["keyrate", "--config", config_file, "--length", "0.5"])
        model = json.loads(capsys.readouterr().out)
        main(["keyrate", "--config", config_file, "--length", "0.5", "--qber", "0.0027"])
        measured = json.loads(capsys.readouterr().out)
        assert 0 < measured["k_per_pulse"] <= model["k_per_pulse"]

    def test_saturated_override_flagged_zero(self, config_file, capsys):
        rc = main(["keyrate", "--config", config_file, "--length", "0.5", "--qber", "0.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_per_pulse"] == 0.0
        assert "no_positive_key" in payload["flags"]

    def test_capped_signal_gain_flagged(self, tmp_path, capsys):
        # Y0 = 0.8 > exp(-eta mu): the gains fit no Poisson channel, yet K > 0
        path = tmp_path / "capped.json"
        path.write_text('{"dark_rate_hz": 8e8, "eta_bob": 1, "eta_detector": 0.6}')
        assert main(["keyrate", "--config", str(path), "--length", "0", "--qber", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_per_pulse"] > 0 and payload["components"]["q_mu"] == 1.0
        assert payload["flags"] == ["gain_capped"]
        assert main(["keyrate", "--length", "0", "--qber", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["flags"] == []

    def test_bad_ordering_exits_1(self, config_file):
        rc = main(["keyrate", "--config", config_file, "--mu", "0.1", "--nu", "0.5"])
        assert rc == 1

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keyrate", "--frobnicate"])
        assert exc.value.code == 1


class TestSweep:
    def test_csv_output(self, config_file, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(
            ["sweep", "--config", config_file, "--l-min", "0", "--l-max", "20", "--step", "5", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "length_m,k_per_pulse,mu_opt,nu_opt,flags"
        assert len(lines) == 6  # 0,5,10,15,20
        ks = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_empty_range_exits_1(self, config_file, capsys):
        assert main(["sweep", "--config", config_file, "--l-min", "5", "--l-max", "5", "--step", "1"]) == 1
        # non-finite flags are named, before numpy sizes the length grid (the last flag given wins)
        for flag, value in (("--l-min", "nan"), ("--l-max", "inf"), ("--step", "inf"), ("--step", "nan")):
            argv = ["sweep", "--config", config_file, "--l-min", "0", "--l-max", "10", "--step", "1"]
            assert main([*argv, flag, value]) == 1
            assert f"error: {flag} must be finite" in capsys.readouterr().err
        # a negative start is named by its flag, not by the ChannelParams field
        argv = ["sweep", "--config", config_file, "--l-min", "-1", "--l-max", "2", "--step", "1"]
        assert main(argv) == 1
        assert "error: --l-min must be >= 0" in capsys.readouterr().err

    def test_step_larger_than_range(self, config_file, capsys):
        rc = main(["sweep", "--config", config_file, "--l-min", "1", "--l-max", "2", "--step", "10"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_deterministic_bytes(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", config_file, "--l-min", "0", "--l-max", "10", "--step", "5"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSifted:
    @pytest.mark.parametrize(
        "qber,printed",
        [("0.0074", "0.8740"), ("0.034", "0.5719"), ("0", "1.0000")],
    )
    def test_values(self, qber, printed, capsys):
        assert main(["sifted", qber]) == 0
        assert capsys.readouterr().out.strip() == printed

    def test_out_of_range_exits_1(self):
        assert main(["sifted", "0.7"]) == 1


class TestMonteCarlo:
    def test_check_passes_on_flume(self, config_file, tmp_path):
        out = tmp_path / "mc.json"
        rc = main(
            [
                "montecarlo",
                "--config",
                config_file,
                "--length",
                "10.5",
                "--mu",
                "0.5",
                "--n-pulses",
                "200000",
                "--seed",
                "42",
                "--check",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "pulses_sent",
            "detections",
            "sifted",
            "errors",
            "q_hat",
            "e_hat",
            "q_se",
            "e_se",
            "seed",
        }
        assert payload["seed"] == 42

    def test_pinned_session_passes_check(self, tmp_path):
        # the session whose output tests/data/cli_output_sha256.json pins
        argv = ["montecarlo", "--mu", "0.5", "--n-pulses", "100000", "--seed", "3", "--length", "20"]
        assert main(argv + ["--check", "--out", str(tmp_path / "mc.json")]) == 0

    def test_byte_identical_reruns(self, config_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "montecarlo", "--config", config_file, "--mu", "0.3",
            "--n-pulses", "50000", "--seed", "7",
        ]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_pulses_exits_1(self, config_file):
        assert main(["montecarlo", "--config", config_file, "--mu", "0.5", "--n-pulses", "0"]) == 1

    @pytest.mark.parametrize(
        "flags,field",
        [(["--mu", "nan"], "mu"), (["--mu", "inf"], "mu"), (["--mu", "0.5", "--seed", "-1"], "seed")],
    )
    def test_bad_input_exits_1(self, flags, field, capsys):
        assert main(["montecarlo", "--n-pulses", "1000", *flags]) == 1
        assert f"error: {field} must be" in capsys.readouterr().err


class TestTomography:
    def test_radial_outputs(self, tmp_path):
        prefix = tmp_path / "radial"
        rc = main(["tomography", "--kind", "radial", "--n", "48", "--out", str(prefix)])
        assert rc == 0
        csv = (tmp_path / "radial_stokes.csv").read_text().splitlines()
        assert csv[0] == "x,y,intensity,s1,s2,s3,valid"
        assert len(csv) == 48 * 48 + 1
        header = b"P5\n48 48\n65535\n"
        for lab in "HVDALR":
            pgm = (tmp_path / f"radial_I{lab}.pgm").read_bytes()
            assert pgm.startswith(header)
            assert len(pgm) - len(header) == 2 * 48 * 48

    def test_seeded_aberration_reproducible(self, tmp_path):
        args = [
            "tomography", "--kind", "radial", "--n", "48", "--random-aberration",
            "--seed", "5", "--length", "10", "--format", "json",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a_stokes.json").read_bytes() == (tmp_path / "b_stokes.json").read_bytes()

    def test_unknown_kind_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["tomography", "--kind", "spiral"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_field_and_images_freed_before_stokes_writer(self, fmt, monkeypatch, tmp_path):
        refs = []  # weak references to the projected field and to each analyzer image

        def tracked_project_all(f):
            images = project_all(f)
            refs.extend(weakref.ref(a) for a in (f, f.eh, f.ev, *images.values()))
            return images

        alive = []  # per writer call: which of them are still alive when it starts

        def checked(writer):
            def wrapper(*args):
                gc.collect()
                alive.append([r() is not None for r in refs])
                return writer(*args)
            return wrapper

        monkeypatch.setattr(cli, "project_all", tracked_project_all)
        monkeypatch.setattr(cli, "_write_stokes_csv", checked(cli._write_stokes_csv))
        monkeypatch.setattr(cli, "_write_json_object", checked(cli._write_json_object))
        assert main(["tomography", "--kind", "vortex_cw", "--n", "32", "--random-aberration", "--seed", "7",
                     "--length", "10", "--format", fmt, "--out", str(tmp_path / "t")]) == 0
        assert alive == [[False] * 9]

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--random-aberration", "--length", "5", "--rms-per-m", "nan"], "rms_rad_per_m"),
            (["--random-aberration", "--length", "-1"], "length_m"),
            (["--extent", "nan"], "extent_waists"),
            (["--tip", "nan"], "tip"),
            (["--defocus", "inf"], "defocus"),
            (["--random-aberration", "--length", "5", "--seed", "-1"], "seed"),
        ],
    )
    def test_bad_input_exits_1(self, flags, field, tmp_path, capsys):
        assert main(["tomography", "--kind", "radial", "--n", "32", *flags,
                     "--out", str(tmp_path / "t")]) == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestOptimizeCmd:
    def test_reports_optimum(self, config_file, capsys):
        rc = main(["optimize", "--config", config_file, "--length", "10.5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k_per_pulse"] > 0
        assert payload["nu"] < payload["mu"]

    def _cutoff(self, tmp_path, capsys, text, l_max):
        path = tmp_path / "c.json"
        path.write_text(text)
        argv = ["optimize", "--config", str(path), "--length", "1", "--max-distance", "--l-max", l_max]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["max_secure_distance_m"]

    def test_zero_gain_probe_gives_numeric_cutoff(self, tmp_path, capsys):
        # the transmittance underflows to 0 before 6000 m: no key there, but
        # the channel is live at 0 m, so the cutoff is a number, not null
        d = self._cutoff(tmp_path, capsys, '{"dark_rate_hz": 0, "e_det": 0}', "6000")
        assert isinstance(d, float) and 5000 < d < 6000

    def test_non_finite_optimum_exits_1(self, tmp_path, capsys):
        # at 5589.84 m the transmittance is subnormal and K is non-finite on the whole nu_min row
        path = tmp_path / "c.json"
        path.write_text('{"dark_rate_hz": 0, "e_det": 0}')
        assert main(["optimize", "--config", str(path), "--length", "5589.84"]) == 1
        assert "error: decoy bounds are not finite at mu=0.0002, nu=0.0001" in capsys.readouterr().err

    def test_dead_channel_gives_null(self, tmp_path, capsys):
        text = '{"dark_rate_hz": 1e9, "detection_window_s": 1e-9}'
        assert self._cutoff(tmp_path, capsys, text, "50") is None

    def test_zero_l_max_exits_1(self, capsys):
        assert main(["optimize", "--max-distance", "--l-max", "0"]) == 1
        assert "error: l_max must be" in capsys.readouterr().err

    def test_qber_does_not_enter_cutoff(self, capsys):
        # --qber replaces E_mu in K at --length only; the cutoff is the modelled channel's
        got = []
        for extra in ([], ["--qber", "0.03"], ["--qber", "0.2"]):
            assert main(["optimize", "--length", "10", "--max-distance", *extra]) == 0
            got.append(json.loads(capsys.readouterr().out))
        assert [g["max_secure_distance_m"] for g in got] == [78.466796875] * 3
        assert got[0]["k_per_pulse"] > got[1]["k_per_pulse"] > got[2]["k_per_pulse"] > 0


# every subcommand with the callee its handler hands the work to
HANDLER_CALLEES = {
    "keyrate": (["keyrate", "--mu", "0.5", "--nu", "0.1"], "uwqkd.decoy", "evaluate_key_rate"),
    "optimize": (["optimize"], "uwqkd.cli", "optimize_mu_nu"),
    "sweep": (["sweep", "--l-min", "0", "--l-max", "2", "--step", "1"], "uwqkd.cli", "distance_sweep"),
    "sifted": (["sifted", "0.01"], "uwqkd.decoy", "sifted_key_fraction"),
    "montecarlo": (["montecarlo", "--mu", "0.5", "--n-pulses", "1000"], "uwqkd.montecarlo",
                   "simulate_session"),
    "tomography": (["tomography", "--kind", "radial", "--n", "32"], "uwqkd.cli", "make_vector_mode"),
}


def test_every_subcommand_has_an_exit_code_case():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(sub.choices) == set(HANDLER_CALLEES)


@pytest.mark.parametrize("exc,rc", [(ValueError, 1), (RuntimeError, 2), (KeyError, 2)])
@pytest.mark.parametrize("command", sorted(HANDLER_CALLEES))
def test_handler_exception_exit_code(command, exc, rc, monkeypatch, tmp_path, capsys):
    argv, module, name = HANDLER_CALLEES[command]

    def boom(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(importlib.import_module(module), name, boom)
    assert main([*argv, "--out", str(tmp_path / "out")]) == rc
    assert "injected" in capsys.readouterr().err


# a usage error, then each output-writing subcommand, all in one process
PARSER_SEQUENCE = [
    ["optimize", "--l-max", "x"],
    ["optimize", "--max-distance"],
    ["keyrate", "--mu", "0.5", "--nu", "0.1"],
    ["sweep", "--l-min", "0", "--l-max", "2", "--step", "1"],
    ["tomography", "--kind", "radial", "--n", "32"],
]


def _run_sequence(out_dir, capsys):
    """Exit code and stderr of each argv in PARSER_SEQUENCE, and the bytes of every output file."""
    out_dir.mkdir()
    runs = []
    for i, argv in enumerate(PARSER_SEQUENCE):
        try:
            rc = main([*argv, "--out", str(out_dir / str(i))])
        except SystemExit as exc:
            rc = exc.code
        runs.append((rc, capsys.readouterr().err))
    return runs, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_cached_parser_leaks_no_state(tmp_path, monkeypatch, capsys):
    assert build_parser() is build_parser()
    cached = _run_sequence(tmp_path / "cached", capsys)
    monkeypatch.setattr("uwqkd.cli.build_parser", build_parser.__wrapped__)  # a new parser per call
    fresh = _run_sequence(tmp_path / "fresh", capsys)
    assert cached == fresh
    runs, files = cached
    assert [rc for rc, _ in runs] == [1, 0, 0, 0, 0]
    assert "invalid float value: 'x'" in runs[0][1]
    assert "max_secure_distance_m" in json.loads(files["1"])
    assert "max_secure_distance_m" not in json.loads(files["2"])  # --max-distance did not carry over
    assert {"3", "4_stokes.csv", "4_IH.pgm"} <= set(files)
