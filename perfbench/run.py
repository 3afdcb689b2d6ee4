"""sgdsmooth benchmark: run one workload for a fixed time and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop with one client: each iteration starts a fresh
single-threaded worker process (perfbench/worker.py) that builds the
workload's inputs from the seed, times one end-to-end call, and checks
the outputs; the next iteration starts when it has exited.  Iterations
repeat until S seconds have passed.

With --trace 0 the result reports the end-to-end metrics of BENCHMARK.json
(medians over the iterations).  With --trace 1 iterations alternate
between untraced and traced; the traced ones give the per-layer metrics
and the pair gives the tracing overhead.  Counts must repeat exactly
across the iterations of a run; a mismatch is reported as a benchmark
defect.  The last line of standard output is the result object; the line
before it and .perfbench/results/ hold the details (sample counts, tail
percentiles, per-iteration values and the environment stamp).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKDIR = STATE / "work"

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}
# A run must end within 180 s of its start; no worker may push it past this.
HARD_LIMIT_S = 170.0
TIMING_UNITS = ("s", "1/s")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def warm_up(env: dict) -> None:
    """Import everything once so bytecode caches exist before timing."""
    subprocess.run(
        [sys.executable, "-c", "import workloads, tracer"],
        cwd=HERE, env=env, check=True, capture_output=True, timeout=120,
    )


def run_worker(workload: str, seed: int, iteration: int, traced: bool, env: dict,
               timeout: float) -> dict:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(WORKDIR), "--iteration", str(iteration)]
    if traced:
        cmd.append("--trace")
    cmd += ["--launch-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"error": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    if proc.returncode != 0 and "error" not in rec:
        rec["error"] = f"exit code {proc.returncode}"
    rec["traced"] = traced
    spans = WORKDIR / "spans.jsonl"
    if spans.exists():
        (STATE / "traces").mkdir(parents=True, exist_ok=True)
        shutil.move(spans, STATE / "traces" / f"{workload}-seed{seed}.spans.jsonl")
    return rec


def failed(rec: dict) -> bool:
    return "error" in rec or not all(ok for _, ok, _ in rec["checks"])


def tail(values: list[float]):
    """Highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(n * p / 100.0)
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1]}
    return None


def stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "tail": tail(values), "samples": len(values),
            "values": values}


def repeat_mismatches(values: list[dict], names=None) -> list[str]:
    """Names whose value differs between iterations (must be identical)."""
    if not values:
        return []
    names = names if names is not None else sorted(values[0])
    return [n for n in names if any(v.get(n) != values[0].get(n) for v in values[1:])]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(records: list[dict], seed: int) -> dict:
    versions = next((r["versions"] for r in records if "versions" in r), {})
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy", "unknown"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "config_seed": next((r["facts"].get("config_seed") for r in records if "facts" in r), None),
    }


def summarise(args, spec: dict, records: list[dict]) -> tuple[dict, dict]:
    ok = [r for r in records if "error" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    n_failed = sum(failed(r) for r in records)
    checks_failed = sum(not good for r in ok for _, good, _ in r["checks"])
    mismatches = repeat_mismatches([r["facts"] for r in ok])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(records, args.seed), "metrics": {}}
    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            if plain:
                s = stats([r[m["name"]] for r in plain])
                detail["metrics"][m["name"]] = s
                metrics[m["name"]] = {"value": s["median"], "unit": m["unit"]}
    elif plain and traced:
        exact = [m["name"] for m in spec["per_layer"]
                 if m["unit"] not in TIMING_UNITS and not m["name"].startswith("trace.")]
        # a counter that was never incremented belongs to a layer that did not run
        layers = [{m["name"]: r["layers"].get(m["name"], 0) for m in spec["per_layer"]}
                  for r in traced]
        mismatches += repeat_mismatches(layers, exact)
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0)
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                value = overhead
            elif name == "checks_failed":
                value = checks_failed
            elif name in exact:
                value = layers[0][name]
            else:
                s = stats([v[name] for v in layers])
                detail["metrics"][name] = s
                value = s["median"]
            metrics[name] = {"value": value, "unit": m["unit"]}
    detail["iterations"] = [
        {k: r.get(k) for k in ("traced", "setup_s", "wall_s", "peak_rss_mb", "error")}
        | {"failed_checks": [c for c in r.get("checks", []) if not c[1]]}
        for r in records
    ]
    detail["facts"] = ok[0]["facts"] if ok else None
    detail["repeat_mismatches"] = mismatches
    complete = {m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    result = {
        "correct": n_failed == 0 and not mismatches and set(metrics) == complete,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    spec = load_spec()
    parser = argparse.ArgumentParser(description="sgdsmooth benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgdsmooth" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'sgdsmooth'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    env = worker_env()
    warm_up(env)

    start = time.monotonic()
    records: list[dict] = []
    min_iterations = 2 if args.trace else 1
    while True:
        elapsed = time.monotonic() - start
        if len(records) >= min_iterations and elapsed >= args.seconds:
            break
        remaining = hard_deadline - time.monotonic()
        if remaining < 10:
            break
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_worker(args.workload, args.seed, len(records), traced, env,
                                  remaining))
        last = records[-1]
        if "error" in last:
            print(f"perfbench: iteration {len(records)} failed: {last['error']}", file=sys.stderr)
        for name, good, info in last.get("checks", []):
            if not good:
                print(f"perfbench: check failed: {name}: {info}", file=sys.stderr)
    shutil.rmtree(WORKDIR, ignore_errors=True)

    result, detail = summarise(args, spec, records)
    if detail["repeat_mismatches"]:
        print("perfbench: benchmark defect, counts differ between runs of the same code: "
              + ", ".join(detail["repeat_mismatches"]), file=sys.stderr)
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    brief = {k: v for k, v in detail.items() if k != "iterations"}
    print(json.dumps({"detail": brief}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
