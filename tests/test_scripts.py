"""Each script under scripts/ runs to completion at a reduced size."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from uwqkd import montecarlo, optimize

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        # 200 000 pulses are 4 blocks, a short last one included
        ("mc_crosscheck.py", ["--n-pulses", "200000"]),
        ("rate_distance.py", ["--l-max", "10", "--step", "5", "--out", "{tmp}/rate_distance.csv"]),
        ("tomography_demo.py", ["--n", "32"]),
        # no length sifts anything, so there is no QBER to print
        ("mc_crosscheck.py", ["--n-pulses", "1000", "--mu", "0.001"]),
        ("tomography_cost.py", ["--n", "32"]),
        ("kernel_cost.py", ["--repeats", "3"]),
        # a mode above 0, so the photon table is built both ways from it
        ("mc_cost.py", ["--mu", "60", "--blocks", "3", "--repeats", "1", "--n-pulses", "200000"]),
        ("mc_cost.py", ["--mu", "1e4", "--lengths", "20.5", "--blocks", "2", "--repeats", "1",
                        "--n-pulses", "70000"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("args", [["--mu", "0"], ["--mu", "-0.5"], ["--mu", "nan"], ["--n-pulses", "0"],
                                  ["--mu", "2e4"], ["--seed", "-1"], ["--e-det", "2"], ["--e-det", "0.5"],
                                  ["--e-det", "-0.1"], ["--e-det", "nan"]])
def test_mc_crosscheck_bad_input_is_a_usage_error(args, capsys, monkeypatch):
    """Rejected before any session runs."""

    def no_session(*a, **k):
        raise AssertionError("a session ran before the input was checked")

    monkeypatch.setattr(montecarlo, "simulate_session", no_session)
    main = runpy.run_path(str(ROOT / "scripts" / "mc_crosscheck.py"))["main"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"error: {args[0]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--mu", "2e4"], ["--mu", "nan"], ["--mu", "-0.5"], ["--lengths", "-1"]])
def test_mc_cost_bad_input_is_a_usage_error(args, capsys, monkeypatch):
    """Rejected before any photon table is built."""
    main = runpy.run_path(str(ROOT / "scripts" / "mc_cost.py"))["main"]

    def no_table(mu):
        raise AssertionError("a photon table was built before the input was checked")

    monkeypatch.setattr(montecarlo, "_photon_pmf", no_table)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"error: {args[0]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--step", "0"], ["--step", "-1"], ["--step", "nan"], ["--step", "inf"],
                                  ["--l-max", "-5"], ["--l-max", "nan"], ["--l-max", "inf"]])
def test_rate_distance_bad_input_is_a_usage_error(args, capsys, monkeypatch, tmp_path):
    """Rejected before any sweep runs or any file is written."""

    def no_sweep(*a, **k):
        raise AssertionError("a sweep ran before the input was checked")

    monkeypatch.setattr(optimize, "distance_sweep", no_sweep)
    main = runpy.run_path(str(ROOT / "scripts" / "rate_distance.py"))["main"]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "rate_distance.csv")])
    assert exc.value.code == 2
    assert f"error: {args[0]} must be" in capsys.readouterr().err
    assert not (tmp_path / "rate_distance.csv").exists()
