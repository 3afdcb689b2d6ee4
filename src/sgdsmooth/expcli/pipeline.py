"""Ensemble experiments, noise calibration and the smoothing-demo pipeline.

Philox stream ids under the seed: INIT_STREAM for the initial points,
TRIAL_STREAM_BASE + i for trial i, CERT_STREAM + 1000*j for calibration
radius j (`certify` is j = 0), CURVE_STREAM + i for curve point i.
Ensembles run on the library's one SGD engine, `optimizer.lockstep_run`,
of which `optimizer.sgd_run` is a one-trial run, so a lockstep trial
replays `sgd_run` for the same stream, divergence flag included.

Every ensemble, `figure3`'s row-2 and row-3 panels included, runs
finals-only through `ensemble()`, with the same finals, flags and
summary whether or not it is persisted.  An ensemble with an output
directory persists three artifacts there: `trajectories.npy`, every
trial's record as one table streamed from the run (see
`table.table_writer`), `summary.json` (strict JSON: a non-finite
value is written as null) and `finals.svg`, the histogram of the finals
that did not diverge.  The summary's median is `np.median`'s, bit for
bit, taken without the `numpy.ma` import that `np.median` makes.
`figure3` writes one ensemble directory per row-2 and row-3 panel, next
to its row-1 curve CSVs.  A row-2 panel whose stage spec equals row
3's first stage is that stage's ensemble, so row 3 reuses its report
and finals and copies its files.  Row 3's median and quantiles are
numpy's, bit for bit, again without importing `numpy.ma`.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from ..certifier import ScanReport, region_scan
from ..noise import NoiseKernel, RngStream
from ..objectives import Objective, SpikyParams, make_spiky
from ..optimizer import EnsembleResult, StepSchedule, lockstep_run, write_csv_columns
from ..smoothing import smoothed_value_closed, smoothed_value_mc
from ..table import table_writer
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

INIT_STREAM = 0
TRIAL_STREAM_BASE = 1000
CERT_STREAM = 500_000
CURVE_STREAM = 900_000
_ENSEMBLE_FILES = ("trajectories.npy", "summary.json", "finals.svg")


def run_lockstep_ensemble(
    obj: Objective, schedule: StepSchedule, x0s: np.ndarray, seed: int,
    keep_history: bool = True, table=None,
) -> EnsembleResult:
    """Advance n trials together with `optimizer.lockstep_run`; trial i
    draws noise from stream (seed, TRIAL_STREAM_BASE + i).  Without
    `keep_history` the result holds only the finals and flags.  A `table`
    path gets every trial's record (`table.table_writer`)."""
    streams = [RngStream(seed, TRIAL_STREAM_BASE + i) for i in range(len(x0s))]
    with contextlib.nullcontext() if table is None else table_writer(table, obj, schedule, len(x0s)) as observe:
        return lockstep_run(obj, schedule, x0s, streams, keep_history, observe)


@dataclass(frozen=True)
class EnsembleReport:
    """An ensemble's summary: its fields and two fixed keys are the keys of
    `summary.json`.  The per-trial arrays stay on the `EnsembleResult` it
    summarizes; `theory.stay_validate` is the hit-and-stay check."""

    n_trials: int
    cluster_count: int
    cluster_tol: float
    diverged_count: int
    median_abs_final: float         # over the trials that did not diverge (nan if none)

    def summary_dict(self) -> dict:
        # success_fraction and stay_radius2 are the keys of a removed
        # final-row hit test; the benchmark reference still pins them
        return {**asdict(self), "success_fraction": math.nan, "stay_radius2": None}


def _median(a: np.ndarray) -> float:
    """`np.median` of a non-empty 1-d float array, bit for bit.

    It partitions at the same indices as `np.median` (the middle one or
    two, and the last) and takes `np.mean` of the middle, or the last
    value if it is NaN; it skips only the masked-array check, whose
    first call imports `numpy.ma`."""
    half = a.size // 2
    middle = [half] if a.size % 2 else [half - 1, half]
    part = np.partition(a, [*middle, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[middle[0] : half + 1]))


def _quantile(a: np.ndarray, q: float) -> np.ndarray:
    """`np.quantile(a, q, axis=0)` of a 2-d float array, bit for bit, for
    a Python float q in [0, 1]: numpy's linear-method steps, without the
    `np.unique` call that imports `numpy.ma`."""
    n = a.shape[0]
    v = (n - 1) * q
    if v >= n - 1:
        below = above = -1
    else:
        below = math.floor(v)
        above = below + 1
    t = v - below
    part = np.partition(a, sorted({0, -1, below, above}), axis=0)
    diff = part[above] - part[below]
    out = part[above] - diff * (1 - t) if t >= 0.5 else part[below] + diff * t
    np.copyto(out, part[-1], where=np.isnan(part[-1]))
    return out


def summarize_ensemble(result: EnsembleResult, cluster_tol: float) -> EnsembleReport:
    """Summarize `result`: its clusters of finals at `cluster_tol`, its
    diverged trials and the median final norm of the rest."""
    norms = np.linalg.norm(result.finals_x[~result.diverged], axis=1)
    return EnsembleReport(
        n_trials=result.n_trials,
        cluster_count=cluster_count(result.finals_x, cluster_tol),
        cluster_tol=cluster_tol,
        diverged_count=int(result.diverged.sum()),
        median_abs_final=_median(norms) if norms.size else math.nan,
    )


def _histogram_scalars(result: EnsembleResult) -> np.ndarray:
    """What the finals histogram bins: the coordinate in 1-d, else the norm,
    of each trial that did not diverge, so within the divergence cutoff."""
    finals_x = result.finals_x[~result.diverged]
    return finals_x[:, 0] if finals_x.shape[1] == 1 else np.linalg.norm(finals_x, axis=1)


def draw_inits(n: int, dimension: int, box: tuple[float, float], seed: int) -> np.ndarray:
    gen = RngStream(seed, INIT_STREAM).generator()
    return gen.uniform(box[0], box[1], size=(n, dimension))


def ensemble(
    config: ExperimentConfig,
    x0s: Optional[np.ndarray] = None,
) -> tuple[EnsembleResult, EnsembleReport]:
    """Run the configured ensemble finals-only from `x0s`, or from
    `draw_inits` at the config's seed.  With an output directory the run
    streams its trajectory table there, then the summary and finals
    histogram are written; the result and report are the same either way.
    """
    obj = config.build_objective()
    schedule = config.build_schedule()
    if x0s is None:
        x0s = draw_inits(config.n_trials, obj.dimension, config.init_box, config.seed)
    table = None
    if config.out_dir is not None:
        os.makedirs(config.out_dir, exist_ok=True)
        table = os.path.join(config.out_dir, _ENSEMBLE_FILES[0])
    result = run_lockstep_ensemble(obj, schedule, x0s, config.seed, keep_history=False, table=table)
    report = summarize_ensemble(result, config.cluster_tol)
    if table is not None:
        persist_ensemble(config.out_dir, result, report, config.histogram_bins)
    return result, report


def _shrink_inits(finals_x: np.ndarray, seed: int) -> np.ndarray:
    """As many starts as `finals_x` rows, uniform on the [q10, q90] box of
    its columns (each side at least 1e-9), from stream (seed, INIT_STREAM)."""
    lo = _quantile(finals_x, 0.10)
    hi = _quantile(finals_x, 0.90)
    span = np.maximum(hi - lo, 1e-9)
    gen = RngStream(seed, INIT_STREAM).generator()
    return lo + span * gen.uniform(size=finals_x.shape)


def strict_json(data: dict) -> str:
    """`data` as indented, key-sorted strict JSON: a non-finite float
    value is written as null, never as NaN or Infinity."""
    data = {
        key: None if isinstance(val, float) and not math.isfinite(val) else val
        for key, val in data.items()
    }
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False)


def persist_ensemble(out_dir, result: EnsembleResult, report: EnsembleReport, bins: int) -> None:
    """Write `summary.json` and `finals.svg` (`bins` bars) to out_dir,
    next to the table the run streamed.

    `summary.json` is strict JSON: a non-finite value, such as the
    always-nan `success_fraction`, is written as null.
    """
    _, summary, histogram = (os.path.join(out_dir, name) for name in _ENSEMBLE_FILES)
    with open(summary, "w") as fh:
        fh.write(strict_json(report.summary_dict()) + "\n")
    emit_svg_histogram(_histogram_scalars(result), bins, histogram, title="final iterates")


# ---------------------------------------------------------------------------
# noise calibration


@dataclass(frozen=True)
class CalibrationResult:
    radius: float
    certified_c: float
    eta: float
    tried: tuple[float, ...]
    reports: tuple[ScanReport, ...]
    confidence: float   # family-wise over every candidate radius and grid point


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
    c >= c_min over the grid.

    Each of the m candidates' scans runs at 1 - (1 - confidence)/m
    (Bonferroni over the radii that may be tried), so the returned c
    holds at the family-wise `confidence` whichever radius is picked.
    In 1-d the scans are exact (`region_scan`) and `n` draws nothing.
    """
    if obj.target is None:
        raise ValueError("calibration needs an objective with a target")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    r_candidates = list(r_candidates)
    if not r_candidates:
        raise ValueError("r_candidates must be non-empty")
    scan_confidence = 1.0 - (1.0 - confidence) / len(r_candidates)
    tried: list[float] = []
    reports: list[ScanReport] = []
    for j, r in enumerate(r_candidates):
        kernel = NoiseKernel("uniform-ball", r, obj.dimension)
        report = region_scan(
            obj, kernel, eta, obj.target, [np.atleast_1d(g) for g in np.atleast_1d(grid)],
            c_min=c_min, n=n,
            rng=RngStream(seed, CERT_STREAM + 1000 * j),
            confidence=scan_confidence, stop_on_fail=True,
        )
        tried.append(r)
        reports.append(report)
        if report.certified_c >= c_min:
            return CalibrationResult(
                r, report.certified_c, eta, tuple(tried), tuple(reports), confidence
            )
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
    f = obj.values_at(np.reshape(ys, (-1, 1)))
    g_mc = np.empty_like(ys)
    g_closed = np.empty_like(ys)
    ci = np.empty_like(ys)
    for i, y in enumerate(ys):
        est = smoothed_value_mc(
            obj, kernel, eta, [y], n=n,
            rng=RngStream(seed, CURVE_STREAM + i), confidence=confidence,
        )
        g_mc[i] = est.mean
        g_closed[i] = smoothed_value_closed(params, r, eta, [y])
        ci[i] = est.confidence_halfwidth
    return {"y": ys, "f": f, "g_mc": g_mc, "g_closed": g_closed, "ci_halfwidth": ci}


@dataclass(frozen=True)
class Figure3Report:
    noise_levels: tuple[float, ...]
    row2_reports: tuple[EnsembleReport, ...]   # index 0 is the zero-noise panel
    row3_reports: tuple[EnsembleReport, ...]
    row3_medians: tuple[float, ...]            # median |final - x*| per stage
    out_dir: Optional[str]


def figure3(config: ExperimentConfig) -> Figure3Report:
    """Reproduce the three-row smoothing demonstration at desk scale.

    Row 1: smoothed curves per noise level (MC + closed form).
    Row 2: one ensemble per noise level, plus the zero-noise baseline.
    Row 3: the configured multi-stage schedule, each stage re-initialized
    inside the [q10, q90] spread of the previous stage's finals.  The
    default stage ladder halves the noise level per stage, echoing the
    0.3 -> 0.15 shrink of the original demonstration.  Without an
    output directory row 1 is skipped and every ensemble runs
    finals-only.
    """
    if len(config.noise_levels) < 3:
        raise ValueError("figure3 needs at least 3 noise levels")
    if len(config.stages) < 2:
        raise ValueError("figure3 needs at least 2 shrink stages")
    obj = config.build_objective()
    out = config.out_dir
    if out is not None:
        os.makedirs(out, exist_ok=True)

    base = config.stages[0]

    # Row 1: smoothed curves (closed form needs the 1-d spiky landscape),
    # only written, never reported
    if out is not None and config.objective.kind == "spiky" and obj.dimension == 1:
        params = config.objective.spiky_params()
        ys = np.linspace(config.cert_grid.lo, config.cert_grid.hi, 121)
        for j, r in enumerate(config.noise_levels):
            cols = smoothing_curve(
                params, base.eta, r, ys, n=10_000, seed=config.seed,
                confidence=config.confidence,
            )
            write_csv_columns(os.path.join(out, f"row1_level{j}.csv"), cols)

    # Row 2: ensembles across noise levels, zero-noise baseline first;
    # each persists to its own panel directory
    row2: list[EnsembleReport] = []
    shared = None
    for j, r in enumerate((0.0, *config.noise_levels)):
        stage = StageSpec(base.eta, base.steps, KernelSpec(base.kernel.kind, r))
        panel_dir = None if out is None else os.path.join(out, f"row2_level{j}")
        result, report = ensemble(replace(config, stages=(stage,), out_dir=panel_dir))
        row2.append(report)
        if shared is None and stage == base:
            shared = (result, report, panel_dir)
    # Row 3: staged shrink; stage k runs at seed + k
    row3: list[EnsembleReport] = []
    medians: list[float] = []
    center = obj.target if obj.target is not None else 0.0
    x0s = None
    for k, stage in enumerate(config.stages):
        stage_dir = None if out is None else os.path.join(out, f"row3_stage{k}")
        if k == 0 and shared is not None:
            result, report, panel_dir = shared
            if stage_dir is not None:
                os.makedirs(stage_dir, exist_ok=True)
                for name in _ENSEMBLE_FILES:
                    shutil.copyfile(os.path.join(panel_dir, name), os.path.join(stage_dir, name))
        else:
            result, report = ensemble(
                replace(config, stages=(stage,), seed=config.seed + k, out_dir=stage_dir), x0s
            )
        row3.append(report)
        medians.append(_median(np.linalg.norm(result.finals_x - center, axis=1)))
        x0s = _shrink_inits(result.finals_x, config.seed + k + 1)

    return Figure3Report(
        noise_levels=tuple(config.noise_levels),
        row2_reports=tuple(row2),
        row3_reports=tuple(row3),
        row3_medians=tuple(medians),
        out_dir=out,
    )
