"""Smoke test of the benchmark harness at each workload's smallest valid mesh.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the real code path of every workload, untraced and traced, in a few
seconds, and checks that every metric BENCHMARK.json names is reported
with its unit and that the correctness gate passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, check_level, load_reference  # noqa: E402

with open(HERE.parent / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    record = run.run_workload(workload, 0, trace == 1, levels=WORKLOADS[workload]["smoke_levels"])
    assert record["problems"] == []
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert record["metrics"]["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        got = record["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    env = record["env"]
    assert env["threads"] == dict.fromkeys(run.THREAD_VARS, "1")
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "numpy_blas"):
        assert env[key]


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_gate_rejects_a_changed_result():
    reference = load_reference()
    ref = reference["p2_var"]["1"]
    good = dict(ref, n=1, saddle_residual=1e-15)
    assert check_level("p2_var", good, ref) == []
    assert check_level("p2_var", dict(good, e_W1=ref["e_W1"] * (1 + 1e-4)), ref)
    assert check_level("p2_var", dict(good, saddle_residual=1e-3), ref)
    assert check_level("p2_var", good, None)
    ref = reference["p1_const"]["1"]
    good = {"n": 1, "converged": True, "stop_reason": "residual", "r3": 0.0,
            "residual_tol": 1e-8, "objective": ref["objective"]}
    assert check_level("p1_const", good, ref) == []
    assert check_level("p1_const", dict(good, converged=False, stop_reason="max_iters"), ref)
    assert check_level("p1_const", dict(good, r3=1e-6), ref)
    assert check_level("p1_const", dict(good, objective=ref["objective"] * 1.001), ref)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p2_var", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
