"""Benchmark harness for pdwg.

    python3 perfbench/run.py --workload p2_var --seed 1 --seconds 40 --trace 0 [--out FILE]

Each sample is a fresh, single-threaded Python process (worker.py) that
imports pdwg, builds the case and runs one `run_study`, as one
`pdwg solve` call would. Samples run back to back from one caller (a
closed loop) and never in parallel. Samples start while the next one is
expected to finish within --seconds; at least one always runs. The rest
of the time goes to set-up samples, which only import pdwg and build the
case.

--trace 0 reports the end-to-end metrics of untraced samples. --trace 1
alternates untraced and traced samples and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

The workloads have no random input: --seed is recorded in the result and
selects nothing. Every mesh level of every sample passes the correctness
gate in workloads.py or counts as failed. The last line of output is one
JSON object with the keys correct, attempted, failed and metrics. Exit
status: 0 when the gate passes, 1 when it fails, 2 when a sample could
not run (then no result is printed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BASELINE_DIR = HERE / "baseline"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
SAMPLE_TIMEOUT_S = 170


class SampleError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({key: "1" for key in THREAD_VARS})
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(workload, *flags):
    """Run worker.py once and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, repr(time.monotonic()), *flags]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=REPO, text=True)
    try:
        out, _ = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload} sample ran longer than {SAMPLE_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{workload} sample {' '.join(flags)} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def unit_of(name):
    if name.endswith(("_us", ".us_per_call")):
        return "us"
    if name.endswith("_s") or name == "prox.s":
        return "s"
    return "count"


def run_workload(workload, seconds, trace, levels=None):
    """Run samples for about `seconds` and return the result record."""
    level_flags = ["--levels", ",".join(map(str, levels))] if levels else []
    deadline = time.monotonic() + seconds
    modes = [False, True] if trace else [False]
    runs = {False: [], True: []}
    longest = 0.0
    while len(runs[False]) + len(runs[True]) < len(modes) or time.monotonic() + longest <= deadline:
        traced = modes[(len(runs[False]) + len(runs[True])) % len(modes)]
        t0 = time.monotonic()
        runs[traced].append(spawn(workload, *level_flags, *(["--trace"] if traced else [])))
        longest = max(longest, time.monotonic() - t0)
    probes = []
    longest = 0.0
    while len(probes) < MIN_SETUP_SAMPLES or time.monotonic() + longest <= deadline:
        t0 = time.monotonic()
        probes.append(spawn(workload, "--setup-only"))
        longest = max(longest, time.monotonic() - t0)

    untraced, traced = runs[False], runs[True]
    checked = [level for s in untraced + traced for level in s["levels"]]
    problems = [f"n={lvl['n']}: {p}" for lvl in checked for p in lvl["problems"]]
    problems += [p for s in traced for p in s["span_problems"]]
    failed = sum(1 for lvl in checked if lvl["problems"])
    study = [s["study_s"] for s in untraced]
    metrics = {
        "study_s": statistics.median(study),
        "setup_s": statistics.median(s["setup_s"] for s in untraced + traced + probes),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        "fail_frac": failed / len(checked),
    }
    units = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio"}
    if traced:
        for name in traced[0]["layers"]:
            units[name] = unit_of(name)
            values = [s["layers"][name] for s in traced]
            # counts repeat exactly (checked below with the deterministic fields)
            metrics[name] = values[0] if units[name] == "count" else statistics.median(values)
        metrics["trace.overhead_s"] = metrics["trace.study_s"] - metrics["study_s"]
        units["trace.overhead_s"] = "s"
    samples = traced or untraced
    deterministic = samples[0]["deterministic"]
    if any(s["deterministic"] != deterministic for s in samples):
        problems.append("deterministic fields differ between samples of one run")
    return {
        "workload": workload,
        "config": dict(WORKLOADS[workload], levels=levels or WORKLOADS[workload]["levels"]),
        "trace": int(trace),
        "env": probes[0]["env"],
        "deterministic": deterministic,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "attempted": len(checked),
        "failed": failed,
        "problems": problems,
        "samples": {
            "study_s": study,
            "traced_study_s": [s["study_s"] for s in traced],
            "setup_s": [s["setup_s"] for s in untraced + traced + probes],
            "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        },
        "spans": traced[0]["spans"] if traced else [],
    }


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(_flatten(item, f"{prefix}{key}."))
        return out
    return {prefix.rstrip("."): value}


def baseline_changes(record):
    """Deterministic fields that differ from the checked-in baseline of the same run kind."""
    path = BASELINE_DIR / f"{record['workload']}{'.trace' if record['trace'] else ''}.json"
    if not path.exists():
        return []
    with open(path) as fh:
        base = json.load(fh)
    if base["config"] != record["config"]:
        return []
    old, new = _flatten(base["deterministic"]), _flatten(record["deterministic"])
    return [
        f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]


def report(record, names):
    """Human-readable summary; the JSON result line follows it."""
    env = record["env"]
    print(
        f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas={env['numpy_blas']} / {env['scipy_blas']}"
    )
    s = record["samples"]
    print(
        f"{record['workload']}: {len(s['study_s'])} untraced and {len(s['traced_study_s'])} traced "
        f"study samples, {len(s['setup_s'])} set-up samples, "
        f"{record['attempted']} levels checked, {record['failed']} failed"
    )
    for name in names:
        m = record["metrics"][name]
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if record["trace"]:
        m = {name: metric["value"] for name, metric in record["metrics"].items()}
        study = m["trace.study_s"]
        assembly = m["fe_space.disc_s"] + m["weak_assembly.assemble_A_s"] + m["stabilizer.assemble_S2_s"]
        loop = m["solver.step_s"] + m["prox.s"] + m["solver.loop_other_s"]
        print(
            f"  shares of trace.study_s: assembly {100 * assembly / study:.1f}%, "
            f"factor {100 * m['solver.factor_s'] / study:.1f}%, p=1 loop {100 * loop / study:.1f}%"
        )
        for row in record["spans"]:
            print(f"  span {row['path']:70s} calls={row['calls']:<7d} total={row['total_s']:.4f}s "
                  f"self={row['self_s']:.4f}s ({100 * row['total_s'] / study:.1f}%)")
    print("deterministic: " + json.dumps(record["deterministic"], sort_keys=True))
    for change in baseline_changes(record):
        print(f"changed vs baseline: {change}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="pdwg benchmark harness")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "pdwg").is_dir():
        print(f"run.py: no pdwg sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seconds, args.trace == 1)
    except SampleError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    record["seed"] = args.seed
    with open(REPO / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    report(record, names + ([] if args.trace else ["fail_frac"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    correct = not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: record["metrics"][name] for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
