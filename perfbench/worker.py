"""One benchmark sample, run as a fresh process by run.py.

    python3 perfbench/worker.py WORKLOAD SPAWN_TIME [--levels 16,32] [--trace] [--setup-only]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process. CLOCK_MONOTONIC is shared by every process on the machine, so
setup_s below includes interpreter start-up, `import pdwg` and
`builtin_case`. The sample then runs one `run_study` over the levels and
prints one JSON object as its last line of output.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

from tracer import ROOT, Tracer, check_spans, layer_metrics
from workloads import WORKLOADS, check_level, load_reference


def environment():
    """Machine and library versions, recorded next to the timings."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_sample(workload, levels, trace):
    """Run one study; returns (study_s, per-level values, tracer or None)."""
    import numpy as np

    import pdwg.analysis as analysis
    from pdwg.solver import SolverConfig

    wl = WORKLOADS[workload]
    case = analysis.builtin_case(wl["case"])
    cfg = SolverConfig(alpha=wl["alpha"], prox_method=wl["prox"]) if wl["p"] == 1 else None

    # Keep each p=1 solve's jump matrix and result for the objective; this
    # runs once per level, so it costs nothing measurable.
    solved = []
    solve_p1 = analysis.solve_p1

    def keep_p1(system, bmat, k, cfg, g=None):
        out = solve_p1(system, bmat, k, cfg, g)
        solved.append((bmat.B, out[0], out[2]))
        return out

    analysis.solve_p1 = keep_p1
    tracer = Tracer() if trace else None
    uninstall = tracer.install() if trace else None
    try:
        t0 = time.perf_counter()
        if trace:
            table = tracer.call(ROOT, analysis.run_study, case, wl["p"], levels, k=wl["k"], cfg=cfg)
        else:
            table = analysis.run_study(case, wl["p"], levels, k=wl["k"], cfg=cfg)
        study_s = time.perf_counter() - t0
    finally:
        if uninstall:
            uninstall()
        analysis.solve_p1 = solve_p1

    values = []
    for i, rep in enumerate(table.reports):
        if wl["p"] == 2:
            values.append({
                "n": rep.n, "e_L": float(rep.e_L), "e_W1": float(rep.e_W1),
                "e_W2": float(rep.e_W2), "saddle_residual": float(rep.residuals[0]),
            })
        else:
            B, u, diag = solved[i]
            values.append({
                "n": rep.n, "converged": bool(rep.converged), "stop_reason": diag.stop_reason,
                "iterations": int(rep.iterations), "r3": float(rep.residuals[2]),
                "residual_tol": cfg.residual_tol,
                # the wl1 surrogate: sum over (k+1)-blocks of sum_j |(Bu)_j| / (j+1)
                "objective": float(np.sum(
                    np.abs(B @ u).reshape(-1, wl["k"] + 1) / np.arange(1, wl["k"] + 2)
                )),
            })
    return study_s, values, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("spawn_time", type=float)
    parser.add_argument("--levels", help="comma-separated mesh sizes (default: the workload's)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import pdwg.analysis

    pdwg.analysis.builtin_case(WORKLOADS[args.workload]["case"])
    out = {"setup_s": time.monotonic() - args.spawn_time}
    if args.setup_only:
        out["env"] = environment()
    else:
        levels = (
            [int(n) for n in args.levels.split(",")] if args.levels
            else WORKLOADS[args.workload]["levels"]
        )
        study_s, values, tracer = run_sample(args.workload, levels, args.trace)
        reference = load_reference()[args.workload]
        out["study_s"] = study_s
        out["levels"] = [
            {"n": v["n"], "problems": check_level(args.workload, v, reference.get(str(v["n"]))), "values": v}
            for v in values
        ]
        iterations = sum(v.get("iterations", 0) for v in values)
        deterministic = {
            "levels": levels,
            "iterations": [v["iterations"] for v in values if "iterations" in v],
            "stop_reason": [v["stop_reason"] for v in values if "stop_reason" in v],
        }
        if tracer is not None:
            rows = tracer.table()
            out["spans"] = rows
            out["span_problems"] = check_spans(rows, study_s)
            out["layers"] = layer_metrics(rows, tracer.counts, iterations)
            deterministic["counts"] = tracer.counts
            deterministic["calls"] = {row["path"]: row["calls"] for row in rows}
        out["deterministic"] = deterministic
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
