"""One benchmark iteration in a fresh process.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        --launch-ns T [--iteration K] [--trace]

Set-up runs from process launch (`--launch-ns`, CLOCK_MONOTONIC taken by
the parent just before it started this process) until the inputs are
built.  Then the workload's call is timed, peak RSS is read, and the
correctness checks run outside the timed region.  The last line of
standard output is one JSON object with the measurements.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import workloads
from tracer import TRACED, Tracer

# spans whose self time is reported as `<span>.s` and count as `<span>.calls`
LAYER_SPANS = sorted({name for _, _, name, _ in TRACED})


def artifact_size(out_dir: str) -> tuple[int, int]:
    total = files = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
            files += 1
    return total, files


def layer_values(summary: dict, facts: dict, extra: dict) -> dict:
    """Every per-layer value of one traced iteration, keyed by metric name."""
    spans, counts = summary["spans"], summary["counts"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    values = {}
    for name in LAYER_SPANS:
        values[name + ".calls"] = get(name, "calls")
        values[name + ".s"] = get(name, "self_s")
    for key, value in counts.items():
        values[key] = value
    points = counts.get("certifier.points", 0)
    values["certifier.s_per_point"] = rate(get("certifier.region_scan", "incl_s"), points)
    values["certifier.pass_frac"] = rate(counts.get("certifier.passed", 0), points)
    values["optimizer.sgd_run.steps_per_s"] = rate(
        counts.get("optimizer.sgd_run.steps", 0), get("optimizer.sgd_run", "incl_s"))
    values["pipeline.run_lockstep_ensemble.trial_steps_per_s"] = rate(
        counts.get("pipeline.run_lockstep_ensemble.trial_steps", 0),
        get("pipeline.run_lockstep_ensemble", "incl_s"))
    grad_samples = counts.get("smoothing.smoothed_grad_mc.samples", 0)
    useful = facts.get("useful_samples", 0)
    values["pipeline.calibrate_noise.wasted_sample_frac"] = (
        1.0 - useful / grad_samples if grad_samples else 0.0)
    for key in ("certifier.samples_to_certify", "certifier.certified_c",
                "pipeline.calibrate_noise.radii_tried", "theory.eta_valid",
                "theory.stay_radius2_slack", "theory.delta2_slack"):
        values[key] = facts.get(key, 0)
    values["optimizer.shadow_check.s"] = extra.get("shadow_check_s", 0.0)
    root = spans["bench.call"]
    values["trace.unattributed_frac"] = root["self_s"] / root["incl_s"]
    return values


def run(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    prepared = wl.prepare(args.seed, args.workdir, args.iteration)
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9

    call = functools.partial(wl.call, prepared)
    if tracer is not None:
        call = tracer.wrap("bench.call", call)
        tracer.active = True
    t0 = time.perf_counter()
    output = call()
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    art_bytes, art_files = artifact_size(os.path.join(args.workdir, "out"))
    obs = wl.observe(prepared, output)
    reference = workloads.load_reference().get(args.workload, {})
    checks = wl.check(obs, reference)
    facts = wl.facts(obs)
    facts["artifact.bytes"] = art_bytes
    facts["artifact.files"] = art_files
    result = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "facts": facts,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
    }
    if tracer is not None:
        values = layer_values(tracer.summary(), facts, obs)
        values["artifact_mb"] = art_bytes / 1e6
        values["artifact.files"] = art_files
        result["layers"] = values
        tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--iteration", type=int, default=0, help="index of this iteration in the run")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except Exception:  # reported to the parent as a failed operation
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
