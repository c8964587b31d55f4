"""Each script under scripts/ runs to completion at a reduced size."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from uwqkd import montecarlo

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        # 200 000 pulses are 4 blocks, so the threaded block path runs
        ("mc_crosscheck.py", ["--n-pulses", "200000"]),
        ("rate_distance.py", ["--l-max", "10", "--step", "5", "--out", "{tmp}/rate_distance.csv"]),
        ("tomography_demo.py", ["--n", "32"]),
        # no length sifts anything, so there is no QBER to print
        ("mc_crosscheck.py", ["--n-pulses", "1000", "--mu", "0.001"]),
        ("tomography_cost.py", ["--n", "32"]),
        ("kernel_cost.py", ["--repeats", "3"]),
        # a mode above 0, so the photon table is built both ways from it
        ("mc_cost.py", ["--mu", "60", "--blocks", "3", "--repeats", "1", "--n-pulses", "200000"]),
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
                                  ["--mu", "2e4"]])
def test_mc_crosscheck_bad_input_is_a_usage_error(args, capsys):
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

    monkeypatch.setattr(montecarlo, "_photon_cdf", no_table)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"error: {args[0]} must be" in capsys.readouterr().err
