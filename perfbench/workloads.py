"""What the benchmark runs, and what counts as a correct result.

Every workload is a manufactured-solution study from
`pdwg.analysis.builtin_case`; none has a random input. NOTES.md says why
each one exists and which layer it is meant to expose.
"""

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = {
    "p2_var": {"case": "var", "p": 2, "k": 2, "levels": [16, 32], "smoke_levels": [1]},
    "p2_disc_k3": {"case": "disc", "p": 2, "k": 3, "levels": [8, 16, 32], "smoke_levels": [2]},
    "p1_const": {
        "case": "const", "p": 1, "k": 2, "alpha": 16.0, "prox": "wl1",
        "levels": [3], "smoke_levels": [1],
    },
}

# Tolerances of the correctness gate; NOTES.md gives the reasoning.
ERROR_RTOL = 1e-6          # e_L, e_W1, e_W2 of a p=2 level against the reference
SADDLE_RESIDUAL_MAX = 1e-8  # sup-norm of K z - rhs returned by solve_p2
OBJECTIVE_RTOL = 1e-5      # wl1 surrogate objective of a p=1 level against the reference


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _rel_close(value, ref, rtol):
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def check_level(workload, values, reference):
    """Problems found in one mesh level's result; an empty list means it passed.

    values holds what the sample measured for the level (see worker.run_sample);
    reference is the entry for this workload and level from reference.json, or None.
    """
    if reference is None:
        return [f"no reference for n={values['n']}"]
    problems = []
    if WORKLOADS[workload]["p"] == 2:
        for key in ("e_L", "e_W1", "e_W2"):
            if not _rel_close(values[key], reference[key], ERROR_RTOL):
                problems.append(f"{key}={values[key]!r} differs from reference {reference[key]!r}")
        if not values["saddle_residual"] <= SADDLE_RESIDUAL_MAX:
            problems.append(f"saddle residual {values['saddle_residual']!r} > {SADDLE_RESIDUAL_MAX}")
    else:
        if not values["converged"]:
            problems.append(f"did not converge ({values['stop_reason']})")
        if not values["r3"] <= values["residual_tol"]:
            problems.append(f"constraint residual r3={values['r3']!r} > {values['residual_tol']}")
        if not _rel_close(values["objective"], reference["objective"], OBJECTIVE_RTOL):
            problems.append(
                f"objective {values['objective']!r} differs from reference {reference['objective']!r}"
            )
    return problems
