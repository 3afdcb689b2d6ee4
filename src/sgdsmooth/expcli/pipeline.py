"""Ensemble experiments, noise calibration and the smoothing-demo pipeline.

Ensembles run on the library's one SGD engine, `optimizer.lockstep_run`,
with trial i on its own Philox stream (key = (seed, TRIAL_STREAM_BASE +
index)).  `optimizer.sgd_run` is a one-trial run of the same engine, so
a lockstep trial replays `sgd_run` for the same stream by construction,
divergence flag included.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..certifier import ScanReport, region_scan
from ..noise import NoiseKernel, RngStream
from ..objectives import Objective, SpikyParams, make_spiky
from ..optimizer import EnsembleResult, StepSchedule, lockstep_run
from ..smoothing import smoothed_value_closed, smoothed_value_mc
from .cluster import cluster_count
from .config import ExperimentConfig, KernelSpec, StageSpec
from .svg import emit_svg_histogram

__all__ = [
    "EnsembleResult",
    "EnsembleReport",
    "run_lockstep_ensemble",
    "ensemble",
    "CalibrationResult",
    "calibrate_noise",
    "default_window_candidates",
    "Figure3Report",
    "figure3",
    "smoothing_curve",
]

TRIAL_STREAM_BASE = 1000
INIT_STREAM = 0


def run_lockstep_ensemble(
    obj: Objective, schedule: StepSchedule, x0s: np.ndarray, seed: int
) -> EnsembleResult:
    """Advance n trials together with `optimizer.lockstep_run`; trial i
    draws noise from stream (seed, TRIAL_STREAM_BASE + i)."""
    streams = [RngStream(seed, TRIAL_STREAM_BASE + i) for i in range(len(x0s))]
    return lockstep_run(obj, schedule, x0s, streams)


@dataclass(frozen=True)
class EnsembleReport:
    finals_x: np.ndarray
    finals_y: np.ndarray
    dist2: np.ndarray               # squared y-distance to target (nan without one)
    success_fraction: float         # at the given stay radius (nan without one)
    stay_radius2: Optional[float]
    cluster_count: int
    cluster_tol: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    diverged_count: int

    def summary_dict(self) -> dict:
        return {
            "n_trials": int(self.finals_x.shape[0]),
            "success_fraction": self.success_fraction,
            "stay_radius2": self.stay_radius2,
            "cluster_count": self.cluster_count,
            "cluster_tol": self.cluster_tol,
            "diverged_count": self.diverged_count,
            "median_abs_final": float(np.median(np.linalg.norm(self.finals_x, axis=1))),
        }


def summarize_ensemble(
    result: EnsembleResult,
    target,
    cluster_tol: float,
    stay_radius2: Optional[float] = None,
    bins: int = 40,
) -> EnsembleReport:
    finals_x = result.finals_x
    finals_y = result.finals_y
    if target is not None:
        diff = finals_y - np.asarray(target, dtype=float)[None, :]
        dist2 = np.einsum("ij,ij->i", diff, diff)
    else:
        dist2 = np.full(finals_y.shape[0], np.nan)
    if stay_radius2 is not None:
        success = float(np.mean(dist2 <= stay_radius2))
    else:
        success = math.nan
    counts, edges = np.histogram(_histogram_scalars(finals_x), bins=bins)
    return EnsembleReport(
        finals_x=finals_x,
        finals_y=finals_y,
        dist2=dist2,
        success_fraction=success,
        stay_radius2=stay_radius2,
        cluster_count=cluster_count(finals_x, cluster_tol),
        cluster_tol=cluster_tol,
        histogram_counts=counts,
        histogram_edges=edges,
        diverged_count=int(result.diverged.sum()),
    )


def _histogram_scalars(finals_x: np.ndarray) -> np.ndarray:
    """What the finals histogram bins: the coordinate in 1-d, else the norm."""
    return finals_x[:, 0] if finals_x.shape[1] == 1 else np.linalg.norm(finals_x, axis=1)


def draw_inits(n: int, dimension: int, box: tuple[float, float], seed: int) -> np.ndarray:
    gen = RngStream(seed, INIT_STREAM).generator()
    return gen.uniform(box[0], box[1], size=(n, dimension))


def ensemble(
    config: ExperimentConfig,
    stay_radius2: Optional[float] = None,
    persist: bool = True,
) -> tuple[EnsembleResult, EnsembleReport]:
    """Run the configured ensemble; persist per-trial CSVs and a summary
    when the config names an output directory."""
    obj = config.build_objective()
    schedule = config.build_schedule()
    x0s = draw_inits(config.n_trials, obj.dimension, config.init_box, config.seed)
    result = run_lockstep_ensemble(obj, schedule, x0s, config.seed)
    report = summarize_ensemble(
        result, obj.target, config.cluster_tol, stay_radius2, config.histogram_bins
    )
    if persist and config.out_dir is not None:
        persist_ensemble(config.out_dir, obj, result, report)
    return result, report


def persist_ensemble(out_dir, obj: Objective, result: EnsembleResult, report: EnsembleReport) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i in range(result.n_trials):
        result.trajectory(obj, i).write_csv(os.path.join(out_dir, f"trial_{i}.csv"))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(report.summary_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_svg_histogram(
        _histogram_scalars(report.finals_x), len(report.histogram_counts), os.path.join(out_dir, "finals.svg"),
        title="final iterates",
    )


# ---------------------------------------------------------------------------
# noise calibration


@dataclass(frozen=True)
class CalibrationResult:
    radius: float
    certified_c: float
    eta: float
    tried: tuple[float, ...]
    reports: tuple[ScanReport, ...]


def default_window_candidates(params: SpikyParams, eta: float) -> list[float]:
    """Kernel radii whose smoothing window h = eta*r steps through quarter
    multiples of the spike half-period pi/B.  At h = pi/B the kernel
    support spans one full spike period, so the averaged spike term
    cancels exactly; the ladder lets the sweep find the smallest radius
    that certifies."""
    half_period = math.pi / params.freq
    return [k * half_period / (4.0 * eta) for k in (1, 2, 3, 4, 5)]


def calibrate_noise(
    obj: Objective,
    eta: float,
    c_min: float,
    grid,
    r_candidates,
    n: int,
    seed: int = 0,
    confidence: float = 0.99,
) -> CalibrationResult:
    """Pick the smallest candidate radius whose region scan certifies
    c >= c_min over the grid at the given confidence."""
    if obj.target is None:
        raise ValueError("calibration needs an objective with a target")
    tried: list[float] = []
    reports: list[ScanReport] = []
    for j, r in enumerate(r_candidates):
        kernel = NoiseKernel("uniform-ball", r, obj.dimension)
        report = region_scan(
            obj, kernel, eta, obj.target, [np.atleast_1d(g) for g in np.atleast_1d(grid)],
            c_min=c_min, n=n,
            rng=RngStream(seed, 500_000 + 1000 * j),
            confidence=confidence, stop_on_fail=True,
        )
        tried.append(r)
        reports.append(report)
        if report.certified_c >= c_min:
            return CalibrationResult(r, report.certified_c, eta, tuple(tried), tuple(reports))
    raise ValueError(
        f"no candidate radius certified c >= {c_min}; "
        f"best was {max(rep.certified_c for rep in reports):.4g}"
    )


# ---------------------------------------------------------------------------
# smoothing-demo pipeline (three-row figure)


def smoothing_curve(
    params: SpikyParams,
    eta: float,
    r: float,
    ys: np.ndarray,
    n: int,
    seed: int,
    confidence: float = 0.99,
) -> dict[str, np.ndarray]:
    """Columns for one smoothed-curve panel: raw f, MC estimate of the
    convolved value, its closed form and the Hoeffding halfwidth."""
    obj = make_spiky(params)
    kernel = NoiseKernel("uniform-ball", r, 1)
    f = np.empty_like(ys)
    g_mc = np.empty_like(ys)
    g_closed = np.empty_like(ys)
    ci = np.empty_like(ys)
    for i, y in enumerate(ys):
        est = smoothed_value_mc(
            obj, kernel, eta, [y], n=n,
            rng=RngStream(seed, 900_000 + i), confidence=confidence,
        )
        f[i] = obj.value_at([y])
        g_mc[i] = est.mean
        g_closed[i] = smoothed_value_closed(params, r, eta, [y])
        ci[i] = est.confidence_halfwidth
    return {"y": ys, "f": f, "g_mc": g_mc, "g_closed": g_closed, "ci_halfwidth": ci}


def write_curve_csv(path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(columns[c] for c in names)):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass(frozen=True)
class Figure3Report:
    noise_levels: tuple[float, ...]
    row2_reports: tuple[EnsembleReport, ...]   # index 0 is the zero-noise panel
    row3_reports: tuple[EnsembleReport, ...]
    row3_medians: tuple[float, ...]            # median |final - x*| per stage
    out_dir: Optional[str]


def figure3(config: ExperimentConfig, persist: bool = True) -> Figure3Report:
    """Reproduce the three-row smoothing demonstration at desk scale.

    Row 1: smoothed curves per noise level (MC + closed form).
    Row 2: one ensemble per noise level, plus the zero-noise baseline.
    Row 3: the configured multi-stage schedule, each stage re-initialized
    inside the [q10, q90] spread of the previous stage's finals.  The
    default stage ladder halves the noise level per stage, echoing the
    0.3 -> 0.15 shrink of the original demonstration.
    """
    if len(config.noise_levels) < 3:
        raise ValueError("figure3 needs at least 3 noise levels")
    if len(config.stages) < 2:
        raise ValueError("figure3 needs at least 2 shrink stages")
    obj = config.build_objective()
    out = config.out_dir if persist else None
    if out is not None:
        os.makedirs(out, exist_ok=True)

    base = config.stages[0]

    # Row 1: smoothed curves (closed form needs the 1-d spiky landscape)
    if config.objective.kind == "spiky" and obj.dimension == 1:
        params = config.objective.spiky_params()
        ys = np.linspace(config.cert_grid.lo, config.cert_grid.hi, 121)
        for j, r in enumerate(config.noise_levels):
            cols = smoothing_curve(
                params, base.eta, r, ys, n=10_000, seed=config.seed,
                confidence=config.confidence,
            )
            if out is not None:
                write_curve_csv(os.path.join(out, f"row1_level{j}.csv"), cols)

    # Row 2: ensembles across noise levels, zero-noise baseline first
    row2: list[EnsembleReport] = []
    for j, r in enumerate((0.0, *config.noise_levels)):
        stage = StageSpec(base.eta, base.steps, KernelSpec(base.kernel.kind, r))
        panel_cfg = _replace_stages(config, (stage,), None)
        result, report = ensemble(panel_cfg, persist=False)
        row2.append(report)
        if out is not None:
            panel_dir = os.path.join(out, f"row2_level{j}")
            persist_ensemble(panel_dir, obj, result, report)
    # Row 3: staged shrink with re-initialization in the previous spread
    row3: list[EnsembleReport] = []
    medians: list[float] = []
    x0s = draw_inits(config.n_trials, obj.dimension, config.init_box, config.seed)
    for k, stage in enumerate(config.stages):
        stage_cfg = _replace_stages(config, (stage,), None)
        schedule = stage_cfg.build_schedule()
        result = run_lockstep_ensemble(obj, schedule, x0s, config.seed + k)
        report = summarize_ensemble(
            result, obj.target, config.cluster_tol, None, config.histogram_bins
        )
        row3.append(report)
        medians.append(float(np.median(np.linalg.norm(
            report.finals_x - (obj.target if obj.target is not None else 0.0), axis=1
        ))))
        if out is not None:
            persist_ensemble(os.path.join(out, f"row3_stage{k}"), obj, result, report)
        lo = np.quantile(report.finals_x, 0.10, axis=0)
        hi = np.quantile(report.finals_x, 0.90, axis=0)
        span = np.maximum(hi - lo, 1e-9)
        gen = RngStream(config.seed + k + 1, INIT_STREAM).generator()
        x0s = lo + span * gen.uniform(size=(config.n_trials, obj.dimension))

    return Figure3Report(
        noise_levels=tuple(config.noise_levels),
        row2_reports=tuple(row2),
        row3_reports=tuple(row3),
        row3_medians=tuple(medians),
        out_dir=out,
    )


def _replace_stages(config: ExperimentConfig, stages, out_dir) -> ExperimentConfig:
    return replace(config, stages=tuple(stages), out_dir=out_dir)
