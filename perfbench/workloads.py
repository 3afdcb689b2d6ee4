"""The benchmark's workloads: inputs made from a seed, the timed call, and
correctness checks that run after the timed call.

Each workload exposes ``prepare(seed, workdir, iteration)`` (set-up:
inputs, config load, objective/schedule build), ``call(prepared)`` (the timed end-to-end
call), ``observe(prepared, output)`` (plain data read back from the run)
and ``check(observation, reference)``, which returns ``(name, ok, detail)``
triples.  ``facts(observation)`` holds the deterministic outputs that must
repeat exactly across runs of the same code.

Library functions are looked up as module attributes at call time
(``pipeline.calibrate_noise``, ``theory.constants``) so the tracer's
patches apply to the benchmark's own calls too.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from sgdsmooth import noise, objectives, optimizer, smoothing, theory
from sgdsmooth.expcli import cli, config, pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# --seed n selects config seed BASE_SEED + n % SEED_POOL; reference.json
# holds the expected outputs for every seed of the pool.
BASE_SEED = 20240
SEED_POOL = 64

# The README / acceptance-4 three-stage schedule.
README_STAGES = (
    (0.2, 1000, 3.1416),
    (0.1, 1500, 3.1),
    (0.04, 2000, 2.0),
)


def config_seed(seed: int) -> int:
    return BASE_SEED + seed % SEED_POOL


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(name: str, ok, detail="") -> tuple[str, bool, str]:
    return (name, bool(ok), str(detail))


def write_config(path: str, stages, **fields) -> config.ExperimentConfig:
    """Write a spiky 1-d experiment config and load it back, as set-up."""
    doc = {
        "objective": {"kind": "spiky", "dimension": 1},
        "stages": [
            {"eta": eta, "steps": steps, "kernel": {"kind": "uniform-ball", "radius": r}}
            for eta, steps, r in stages
        ],
        **fields,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    cfg = config.ExperimentConfig.load(path)
    cfg.build_objective()
    cfg.build_schedule()
    return cfg


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Capture:
    """Pass-through wrapper that keeps the last return value of a function
    the CLI looks up in its module, so checks can read results that the
    command itself only prints."""

    def __init__(self, module, attr: str):
        self.value = None
        inner = getattr(module, attr)

        def keep(*args, **kwargs):
            self.value = inner(*args, **kwargs)
            return self.value

        setattr(module, attr, keep)


def canonical(summary: dict) -> dict:
    """JSON-stable form of a summary dict (nan becomes the string 'nan')."""
    return {
        k: ("nan" if isinstance(v, float) and math.isnan(v) else v)
        for k, v in sorted(summary.items())
    }


def split_at_gaps_count(points, tol: float) -> int:
    """Single-linkage cluster count in 1-d: sort, split where a gap > tol."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 2:
        if arr.shape[1] != 1:
            raise ValueError("the sort-and-split oracle is 1-d only")
        arr = arr[:, 0]
    if arr.size == 0:
        return 0
    return 1 + int(np.sum(np.diff(np.sort(arr)) > tol))


def csv_data_rows(out_dir: str) -> int:
    rows = 0
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name)) as fh:
                rows += sum(1 for _ in fh) - 1
    return rows


# ---------------------------------------------------------------------------


class CalibrateStay:
    """Acceptance-2 path as time to a certificate: calibrate_noise on a
    geometric ladder of per-point sample budgets, the first rung that
    certifies feeds theory.constants and a hit-and-stay ensemble."""

    ETA = 5e-5
    C_MIN = 0.26
    CONFIDENCE = 0.99
    # 10 grid points: the 40-point grid needs about 21 s per attempt over
    # the ladder, which does not fit the run budget.
    GRID = np.linspace(-3.0, 3.0, 10)
    LADDER = tuple(4096 * 2**k for k in range(11))   # 4096 .. 4,194,304
    TRIALS = 200
    T2 = 500
    Y0_DIST2 = 9.0
    CLOSED_FORM_MIN_FRAC = 0.95
    HIT_AND_STAY_MIN = 0.5

    def prepare(self, seed: int, workdir: str, iteration: int = 0) -> dict:
        s = config_seed(seed)
        params = objectives.SpikyParams()
        return {
            "seed": s,
            "obj": objectives.make_spiky(params),
            "radii": pipeline.default_window_candidates(params, self.ETA),
            "x0s": np.random.default_rng(s).uniform(-3.0, 3.0, size=(self.TRIALS, 1)),
        }

    def call(self, p: dict) -> dict:
        obj = p["obj"]
        for n in self.LADDER:
            try:
                cal = pipeline.calibrate_noise(
                    obj, self.ETA, self.C_MIN, self.GRID, p["radii"], n=n,
                    seed=p["seed"], confidence=self.CONFIDENCE,
                )
                break
            except ValueError as exc:
                if not str(exc).startswith("no candidate radius certified"):
                    raise
        else:
            raise RuntimeError("no rung of the sample ladder certified")
        cons = theory.constants(
            cal.certified_c, self.ETA, obj.smoothness, cal.radius, self.Y0_DIST2, self.T2
        )
        kernel = noise.NoiseKernel("uniform-ball", cal.radius, 1)
        sched = optimizer.StepSchedule((optimizer.Stage(self.ETA, cons.T1_min + self.T2, kernel),))
        result = pipeline.run_lockstep_ensemble(obj, sched, p["x0s"], p["seed"])
        return {
            "n": n,
            "cal": cal,
            "cons": cons,
            "yd2": result.y_dist2_history(obj.target),
            "diverged": int(result.diverged.sum()),
        }

    def observe(self, p: dict, out: dict) -> dict:
        cal, cons, yd2 = out["cal"], out["cons"], out["yd2"]
        T, T2 = cons.T1_min, self.T2
        window = yd2[T : T + T2 + 1]
        hit = yd2[T] <= cons.stay_radius2
        stay = np.all(window <= cons.delta2, axis=0)
        certs = [
            (float(c.y[0]), float(c.inner), float(c.ci_halfwidth), float(r))
            for r, rep in zip(cal.tried, cal.reports)
            for c in rep.certificates
            if not c.degenerate
        ]
        return {
            "seed": p["seed"],
            "certified_c": float(cal.certified_c),
            "certs": certs,
            "hit_and_stay": float(np.mean(hit & stay)),
            "diverged": out["diverged"],
            "samples_to_certify": out["n"],
            "radius": float(cal.radius),
            "radii_tried": len(cal.tried),
            "useful_samples": len(cal.reports[-1].certificates) * out["n"],
            "eta_valid": bool(cons.eta_valid),
            "stay_radius2_slack": float(yd2[T].max() / cons.stay_radius2),
            "delta2_slack": float(window.max() / cons.delta2),
        }

    def check(self, obs: dict, ref: dict) -> list:
        params = objectives.SpikyParams()
        inside = 0
        for y, inner, ci, r in obs["certs"]:
            # target is the origin: inner = <-grad g(y), 0 - y> = grad g(y) * y
            closed = smoothing.smoothed_grad_closed(params, r, self.ETA, [y]) * y
            inside += abs(inner - closed) <= ci
        total = len(obs["certs"])
        return [
            check("certified c >= c_min", obs["certified_c"] >= self.C_MIN,
                  f"c {obs['certified_c']:.4f}, c_min {self.C_MIN}"),
            check("closed-form inner product inside the certificate CI at >= 95% of certificates",
                  total > 0 and inside >= self.CLOSED_FORM_MIN_FRAC * total,
                  f"{inside}/{total}"),
            check("hit-and-stay fraction >= 0.5", obs["hit_and_stay"] >= self.HIT_AND_STAY_MIN,
                  f"{obs['hit_and_stay']:.3f}"),
            check("no diverged trials", obs["diverged"] == 0, f"{obs['diverged']} diverged"),
        ]

    def facts(self, obs: dict) -> dict:
        return {
            "config_seed": obs["seed"],
            "certifier.samples_to_certify": obs["samples_to_certify"],
            "certifier.certified_c": obs["certified_c"],
            "pipeline.calibrate_noise.radii_tried": obs["radii_tried"],
            "useful_samples": obs["useful_samples"],
            "radius": obs["radius"],
            "hit_and_stay": obs["hit_and_stay"],
            "theory.eta_valid": int(obs["eta_valid"]),
            "theory.stay_radius2_slack": obs["stay_radius2_slack"],
            "theory.delta2_slack": obs["delta2_slack"],
        }


class Figure3Persist:
    """`sgdsmooth figure3 --out` on the README config (100 trials, seed
    20240).  The config carries its own seed, so --seed does not change
    the inputs: at 100 trials the row-3 medians fail to decrease strictly
    at 2 of the 64 pool seeds, so the claim is checked where the README
    makes it."""

    TRIALS = 100
    SEED = 20240
    PANELS = tuple(f"row2_level{j}" for j in range(4)) + tuple(f"row3_stage{k}" for k in range(3))
    ROW3 = PANELS[4:]
    SUMMARY_KEYS = ("cluster_count", "diverged_count", "median_abs_final")

    def prepare(self, seed: int, workdir: str, iteration: int = 0) -> dict:
        path = os.path.join(workdir, "config.json")
        write_config(path, README_STAGES, noise_levels=[3.1416, 3.1, 2.0],
                     n_trials=self.TRIALS, seed=self.SEED)
        return {"config": path, "out": os.path.join(workdir, "out"), "seed": self.SEED}

    def call(self, p: dict):
        return run_cli(["figure3", "--config", p["config"], "--out", p["out"]])

    def observe(self, p: dict, out) -> dict:
        panels = {}
        for name in self.PANELS:
            path = os.path.join(p["out"], name, "summary.json")
            if os.path.exists(path):
                with open(path) as fh:
                    summary = json.load(fh)
                panels[name] = {k: summary.get(k) for k in self.SUMMARY_KEYS}
            else:
                panels[name] = None
        return {"seed": p["seed"], "rc": out[0], "panels": panels}

    def check(self, obs: dict, ref: dict) -> list:
        panels = obs["panels"]
        present = all(panels[name] is not None for name in self.PANELS)
        row3 = [panels[name] for name in self.ROW3]
        meds = [p["median_abs_final"] for p in row3 if p is not None]
        expected = ref["panels"]
        mismatched = [n for n in self.PANELS if panels[n] != expected[n]]
        return [
            check("exit code 0", obs["rc"] == 0, f"rc {obs['rc']}"),
            check("every panel has summary.json", present,
                  [n for n in self.PANELS if panels[n] is None]),
            check("row-3 medians strictly decrease",
                  len(meds) == len(self.ROW3) and all(a > b for a, b in zip(meds, meds[1:])),
                  meds),
            check("per-panel clusters, diverged counts and medians equal the reference",
                  not mismatched, mismatched),
        ]

    def facts(self, obs: dict) -> dict:
        return {"config_seed": obs["seed"], "panels": obs["panels"]}


class EnsembleWide:
    """`sgdsmooth ensemble` without --out: 500 trials of the README
    schedule, so clustering, the lockstep engine and the history arrays
    carry the cost and nothing is persisted.  Each iteration replays one
    of three sampled trials with sgd_run, in turn, so every run of three
    or more iterations replays all three."""

    TRIALS = 500
    CLUSTER_TOL = 0.05

    def prepare(self, seed: int, workdir: str, iteration: int = 0) -> dict:
        s = config_seed(seed)
        path = os.path.join(workdir, "config.json")
        cfg = write_config(path, README_STAGES, n_trials=self.TRIALS, seed=s,
                           cluster_tol=self.CLUSTER_TOL)
        middle = int(np.random.default_rng(s).integers(1, self.TRIALS - 1))
        picks = (0, middle, self.TRIALS - 1)
        return {
            "config": path,
            "seed": s,
            "cfg": cfg,
            "replay": picks[iteration % len(picks)],
            "capture": Capture(cli, "ensemble"),
        }

    def call(self, p: dict):
        return run_cli(["ensemble", "--config", p["config"]])

    def observe(self, p: dict, out) -> dict:
        captured = p["capture"].value
        obs = {"seed": p["seed"], "rc": out[0], "captured": captured is not None}
        if captured is None:
            return obs
        result, report = captured
        cfg = p["cfg"]
        obj, schedule = cfg.build_objective(), cfg.build_schedule()
        # initial points drawn independently of the engine, from the
        # documented init stream (seed, 0)
        gen = np.random.Generator(np.random.Philox(key=[p["seed"], 0]))
        x0s = gen.uniform(cfg.init_box[0], cfg.init_box[1], size=(self.TRIALS, 1))
        i = p["replay"]
        traj = optimizer.sgd_run(
            obj, schedule, x0s[i], noise.RngStream(p["seed"], pipeline.TRIAL_STREAM_BASE + i)
        )
        replays = [{
            "trial": i,
            "sequential": traj.final_x.tolist(),
            "lockstep": result.finals_x[i].tolist(),
            "diverged": [bool(traj.diverged), bool(result.diverged[i])],
        }]
        obs.update(
            cluster_count=int(report.cluster_count),
            oracle_count=split_at_gaps_count(result.finals_x, self.CLUSTER_TOL),
            replays=replays,
            summary=canonical(report.summary_dict()),
        )
        return obs

    def check(self, obs: dict, ref: dict) -> list:
        if not obs["captured"]:
            return [check("exit code 0 and ensemble result captured", False, f"rc {obs['rc']}")]
        bad = [r["trial"] for r in obs["replays"]
               if r["sequential"] != r["lockstep"] or r["diverged"][0] != r["diverged"][1]]
        expected = ref.get(str(obs["seed"]))
        return [
            check("exit code 0", obs["rc"] == 0, f"rc {obs['rc']}"),
            check("cluster_count equals the sort-and-split oracle",
                  obs["cluster_count"] == obs["oracle_count"],
                  f"{obs['cluster_count']} vs {obs['oracle_count']}"),
            check("sampled trials replay bitwise with sgd_run", not bad, bad),
            check("summary equals the reference", obs["summary"] == expected,
                  f"{obs['summary']} vs {expected}"),
        ]

    def facts(self, obs: dict) -> dict:
        return {"config_seed": obs["seed"], "summary": obs.get("summary")}


class RunLong:
    """`sgdsmooth run --out` over 30,000 steps: the sequential sgd_run loop
    with scalar oracles, plus one CSV."""

    STAGES = ((0.2, 8000, 3.1416), (0.1, 10000, 3.1), (0.04, 12000, 2.0))
    STEPS = sum(s[1] for s in STAGES)
    SHADOW_TOL = 1e-10
    FINAL_TOL = 1e-12

    def prepare(self, seed: int, workdir: str, iteration: int = 0) -> dict:
        s = config_seed(seed)
        path = os.path.join(workdir, "config.json")
        cfg = write_config(path, self.STAGES, seed=s)
        return {
            "config": path,
            "out": os.path.join(workdir, "out"),
            "seed": s,
            "obj": cfg.build_objective(),
            "capture": Capture(cli, "sgd_run"),
        }

    def call(self, p: dict):
        return run_cli(["run", "--config", p["config"], "--out", p["out"]])

    def observe(self, p: dict, out) -> dict:
        traj = p["capture"].value
        obs = {"seed": p["seed"], "rc": out[0], "captured": traj is not None}
        if traj is None:
            return obs
        t0 = time.perf_counter()
        residual = optimizer.shadow_check(traj, p["obj"])
        obs.update(
            shadow_check_s=time.perf_counter() - t0,
            residual=float(residual),
            rows=csv_data_rows(p["out"]),
            final_x=traj.final_x.tolist(),
            diverged=bool(traj.diverged),
        )
        return obs

    def check(self, obs: dict, ref: dict) -> list:
        if not obs["captured"]:
            return [check("exit code 0 and trajectory captured", False, f"rc {obs['rc']}")]
        expected = ref.get(str(obs["seed"]))
        close = expected is not None and len(expected) == len(obs["final_x"]) and all(
            abs(a - b) <= self.FINAL_TOL for a, b in zip(obs["final_x"], expected)
        )
        return [
            check("exit code 0", obs["rc"] == 0, f"rc {obs['rc']}"),
            check("CSV has steps + 1 rows", obs["rows"] == self.STEPS + 1, obs["rows"]),
            check("shadow_check residual <= 1e-10", obs["residual"] <= self.SHADOW_TOL,
                  obs["residual"]),
            check("final x equals the reference within 1e-12", close,
                  f"{obs['final_x']} vs {expected}"),
        ]

    def facts(self, obs: dict) -> dict:
        return {"config_seed": obs["seed"], "final_x": obs.get("final_x"),
                "rows": obs.get("rows"), "diverged": obs.get("diverged")}


WORKLOADS = {
    "calibrate_stay": CalibrateStay(),
    "figure3_persist": Figure3Persist(),
    "ensemble_wide": EnsembleWide(),
    "run_long": RunLong(),
}
