"""Record the reference outputs that the correctness checks compare against.

Run from the repository root with the library on the path:

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

It runs each workload's call once per seed of the pool (once in total for
figure3_persist, whose config is fixed) and rewrites the named entries of
perfbench/reference.json.  Re-record only when a change is meant to alter
these outputs, and say so where the change is described.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import workloads

ROOT = os.path.dirname(workloads.HERE)
WORKDIR = os.path.join(ROOT, ".perfbench", "record")


def observe(name: str, seed: int) -> dict:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    wl = workloads.WORKLOADS[name]
    prepared = wl.prepare(seed, WORKDIR)
    return wl.observe(prepared, wl.call(prepared))


def record(name: str) -> dict:
    if name == "figure3_persist":
        return {"panels": observe(name, 0)["panels"]}
    if name == "ensemble_wide":
        obs = [observe(name, k) for k in range(workloads.SEED_POOL)]
        return {str(o["seed"]): o["summary"] for o in obs}
    if name == "run_long":
        obs = [observe(name, k) for k in range(workloads.SEED_POOL)]
        return {str(o["seed"]): o["final_x"] for o in obs}
    raise ValueError(f"{name} has no recorded reference")


def main(names: list[str]) -> int:
    names = names or ["figure3_persist", "ensemble_wide", "run_long"]
    ref = {}
    if os.path.exists(workloads.REFERENCE_PATH):
        ref = workloads.load_reference()
    for name in names:
        ref[name] = record(name)
        print(f"recorded {name}", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
