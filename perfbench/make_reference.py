"""Regenerate reference.json, the values the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every workload's study once, over its benchmark levels and its
smoke-test levels, and stores per level the p=2 error norms or the p=1
wl1 objective. Only regenerate on a commit whose results are trusted:
the gate then holds every later commit to them.
"""

import json
import os
import sys

from workloads import REFERENCE_FILE, WORKLOADS

for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"
sys.path.insert(0, str(REFERENCE_FILE.parent.parent / "src"))

from worker import run_sample  # noqa: E402  (needs the environment above)


def main():
    reference = {}
    for name, wl in WORKLOADS.items():
        levels = sorted(set(wl["levels"]) | set(wl["smoke_levels"]))
        _, values, _ = run_sample(name, levels, trace=False)
        keep = ("e_L", "e_W1", "e_W2") if wl["p"] == 2 else ("objective",)
        reference[name] = {str(v["n"]): {key: v[key] for key in keep} for v in values}
        print(name, json.dumps(reference[name]))
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
