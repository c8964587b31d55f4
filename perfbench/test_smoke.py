"""Smoke test of the benchmark itself: every workload once at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the root of a checkout.  It checks that each run prints every
metric BENCHMARK.json names with its unit (plus the report-only metrics the
README lists), that an injected failing op is counted, and that the
benchmark refuses to run where there is no uwqkd source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import REPEAT_CHECKED, WORK_UNIT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


def report_of(workload, trace):
    path = ROOT / ".bench_out" / f"{workload}-seed3-trace{trace}" / "result.json"
    return json.loads(path.read_text())["report"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result_of(bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    report = report_of(workload, 0)
    names = {"op_scaled_s", "cal_p50_s", "setup_raw_s", "op_p50_s", "op_tail_s", "op_tail_percentile",
             "failed_frac", "peak_rss_mb", "setup_s", WORK_UNIT[workload]}
    if workload in ("rate_sweep", "channel_queries"):
        names.add("k_shortfall_max")
    assert names <= set(report)
    assert all(report[k]["unit"] for k in names)
    assert report["failed_frac"]["value"] == 0
    ops = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace0" / "result.json").read_text())["ops"]
    assert all(m["cal_s"] > 0 for m in ops)  # every op was bracketed by calibrations
    if workload in REPEAT_CHECKED:  # the rerun whose output must repeat byte for byte
        assert [m["like"] for m in ops if m["phase"] == "repeat"] == [0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    res = result_of(bench(workload, 1))
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # the command spans account for the op's wall time
    assert 0.9 < m["trace.coverage_frac"] <= 1.0
    assert m["cli.bytes_out"] > 0 and m["cli.self_s"] > 0
    busy = {
        "rate_sweep": ["optimize.sweep_s", "optimize.kernel_calls", "decoy.evaluate_calls"],
        "channel_queries": ["optimize.cutoff_calls", "config.load_calls", "channel.calls"],
        "mc_session": ["montecarlo.simulate_s", "montecarlo.blocks", "montecarlo.check_s"],
        "tomography_maps": ["tomography.synth_s", "tomography.project_s", "cli.pgm_s"],
    }[workload]
    assert all(m[k] > 0 for k in busy)
    spans = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace1" / "spans.json").read_text())
    assert spans["missing_entry_points"] == []
    assert {"name", "start", "end", "parent", "op"} == set(spans["spans"][0])


def test_injected_failure_raises_failed_frac():
    res = result_of(bench("channel_queries", 0, "--inject-failure"))
    assert res["failed"] == 1 and not res["correct"]
    assert report_of("channel_queries", 0)["failed_frac"]["value"] == 1 / res["attempted"]


def test_refuses_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rate_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
