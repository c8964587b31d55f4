"""Each script under scripts/ runs to completion at a reduced size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        # 200 000 pulses are 4 blocks, so the threaded block path runs
        ("mc_crosscheck.py", ["--n-pulses", "200000"]),
        ("rate_distance.py", ["--l-max", "10", "--step", "5", "--out", "{tmp}/rate_distance.csv"]),
        ("tomography_demo.py", ["--n", "32"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
