"""Span tracing from outside the library, for the traced benchmark run.

The wrappers replace module-level names that pdwg looks up at call time,
so the library itself is unchanged. Spans are aggregated per call path
(count and total time) instead of being kept one record per call: a p=1
study makes tens of thousands of calls to the step and the prox.
"""

import importlib
import time

# (module, attribute, span name, counts taken from the return value)
TRACED = [
    ("pdwg.analysis", "build_uniform", "mesh.build_uniform", None),
    ("pdwg.analysis", "Discretization", "fe_space.Discretization",
     lambda d: {"fe_space.N": d.layout.N, "fe_space.M": d.layout.M}),
    ("pdwg.analysis", "assemble_A", "weak_assembly.assemble_A",
     lambda s: {"weak_assembly.nnz_A": s.A.nnz}),
    ("pdwg.analysis", "assemble_S2", "stabilizer.assemble_S2",
     lambda s: {"stabilizer.nnz_S2": s[0].nnz}),
    ("pdwg.analysis", "assemble_B", "stabilizer.assemble_B",
     lambda b: {"stabilizer.nnz_B": b.B.nnz}),
    ("pdwg.analysis", "solve_p2", "solver.solve_p2", None),
    ("pdwg.analysis", "solve_p1", "solver.solve_p1", None),
    ("pdwg.analysis", "error_lp", "analysis.error_lp", None),
    ("pdwg.analysis", "error_w1p", "analysis.error_w1p", None),
    ("pdwg.analysis", "error_w2ph", "analysis.error_w2ph", None),
    ("pdwg.solver", "splu", "solver.splu",
     lambda lu: {"solver.lu_nnz": lu.L.nnz + lu.U.nnz}),
    ("pdwg.solver", "assemble_S", "solver.assemble_S", None),
    ("pdwg.solver", "fixed_point_step", "solver.fixed_point_step", None),
    ("pdwg.solver", "prox_phi_weighted_l1", "prox.prox_phi_weighted_l1", None),
]

ROOT = "analysis.run_study"


class Tracer:
    """Aggregated span tree: call path -> [calls, total seconds]."""

    def __init__(self):
        self.stack = []
        self.spans = {}
        self.counts = {}  # count name -> one value per call, in call order

    def call(self, name, fn, *args, **kwargs):
        self.stack.append(name)
        path = tuple(self.stack)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            rec = self.spans.get(path)
            if rec is None:
                self.spans[path] = [1, dt]
            else:
                rec[0] += 1
                rec[1] += dt

    def install(self):
        """Swap a timing wrapper onto every name in TRACED; returns a function that undoes it."""
        saved = []
        for module_name, attr, name, counter in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn, counter))

        def uninstall():
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

        return uninstall

    def _wrapper(self, name, fn, counter):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                for key, value in counter(out).items():
                    self.counts.setdefault(key, []).append(int(value))
            return out

        return traced

    def table(self):
        """Spans as rows with self time (total minus the time of direct children)."""
        child_time = {}
        for path, (_, total) in self.spans.items():
            if len(path) > 1:
                child_time[path[:-1]] = child_time.get(path[:-1], 0.0) + total
        return [
            {
                "path": "/".join(path),
                "calls": calls,
                "total_s": total,
                "self_s": total - child_time.get(path, 0.0),
            }
            for path, (calls, total) in sorted(self.spans.items())
        ]


def _total(rows, name, parent=None):
    """Summed total of spans named name, optionally only those directly under parent."""
    out = 0.0
    for row in rows:
        parts = row["path"].split("/")
        if parts[-1] == name and (parent is None or (len(parts) > 1 and parts[-2] == parent)):
            out += row["total_s"]
    return out


def _calls(rows, name):
    return sum(row["calls"] for row in rows if row["path"].split("/")[-1] == name)


def layer_metrics(rows, counts, iterations):
    """Per-layer metrics of one traced study. Times sum over levels; counts are the finest level's."""
    t = lambda name, parent=None: _total(rows, name, parent)  # noqa: E731
    study = t(ROOT)
    p1_loop = t("solver.solve_p1") - t("solver.assemble_S", "solver.solve_p1")
    prox_calls = _calls(rows, "prox.prox_phi_weighted_l1")
    errors = t("analysis.error_lp") + t("analysis.error_w1p") + t("analysis.error_w2ph")
    root_children = sum(
        row["total_s"] for row in rows if row["path"].count("/") == 1
    )
    finest = lambda key: counts[key][-1] if counts.get(key) else 0  # noqa: E731
    return {
        "mesh.build_s": t("mesh.build_uniform"),
        "fe_space.disc_s": t("fe_space.Discretization"),
        "fe_space.N": finest("fe_space.N"),
        "fe_space.M": finest("fe_space.M"),
        "weak_assembly.assemble_A_s": t("weak_assembly.assemble_A"),
        "weak_assembly.nnz_A": finest("weak_assembly.nnz_A"),
        "stabilizer.assemble_S2_s": t("stabilizer.assemble_S2"),
        "stabilizer.assemble_B_s": t("stabilizer.assemble_B"),
        "stabilizer.nnz_S2": finest("stabilizer.nnz_S2"),
        "stabilizer.nnz_B": finest("stabilizer.nnz_B"),
        "solver.factor_s": t("solver.splu"),
        "solver.lu_nnz": finest("solver.lu_nnz"),
        "solver.backsolve_s": t("solver.solve_p2") - t("solver.splu", "solver.solve_p2"),
        "solver.iterations": iterations,
        "solver.iter_us": 1e6 * p1_loop / iterations if iterations else 0.0,
        "solver.step_s": t("solver.fixed_point_step"),
        "solver.loop_other_s": p1_loop
        - t("solver.fixed_point_step", "solver.solve_p1")
        - t("prox.prox_phi_weighted_l1", "solver.solve_p1"),
        "prox.calls": prox_calls,
        "prox.s": t("prox.prox_phi_weighted_l1"),
        "prox.us_per_call": 1e6 * t("prox.prox_phi_weighted_l1") / prox_calls if prox_calls else 0.0,
        "analysis.errors_s": errors,
        "analysis.error_w2ph_s": t("analysis.error_w2ph"),
        "analysis.self_s": study - root_children,
        "trace.study_s": study,
    }


def check_spans(rows, study_s):
    """Consistency problems of a span table; an empty list means the tree adds up.

    Self times of all spans must be non-negative and must add up to the
    traced study time, which the caller measured around run_study. The
    slack covers the root wrapper's own entry and exit.
    """
    problems = []
    slack = 1e-3
    for row in rows:
        if row["self_s"] < -slack:
            problems.append(f"negative self time {row['self_s']!r} for {row['path']}")
    total_self = sum(row["self_s"] for row in rows)
    if abs(total_self - study_s) > slack:
        problems.append(f"self times add up to {total_self!r}, traced study_s is {study_s!r}")
    return problems
