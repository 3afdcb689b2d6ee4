"""Staged SGD / GD engine with shadow-sequence bookkeeping.

The iterate update is split exactly as x_{t+1} = y_t - eta*omega_t with
y_t = x_t - eta*grad f(x_t), so the recorded shadow sequence satisfies
the one-step identity

    y_{t+1} = y_t - eta*omega_t - eta*grad f(y_t - eta*omega_t)

bitwise within any constant-eta stage.

`lockstep_run` is the only stepping loop.  It advances n trials together
with batched oracle calls, and each trial pre-draws its noise from its
own stream, one batch per stage.  `sgd_run` is a one-trial lockstep run,
so a lockstep trial replays `sgd_run` for the same stream by
construction.  One predicate flags divergence at every recorded iterate,
the final one included, and `EnsembleResult.trajectory` is the one place
a `Trajectory` record is built.
"""
from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import NoiseKernel, RngStream
from .objectives import Objective, as_point

__all__ = [
    "Stage", "StepSchedule", "Trajectory", "EnsembleResult",
    "lockstep_run", "sgd_run", "gd_run", "shadow_check",
]

DIVERGENCE_CUTOFF = 1e6


@dataclass(frozen=True)
class Stage:
    eta: float
    steps: int
    kernel: NoiseKernel

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


@dataclass(frozen=True)
class StepSchedule:
    """Ordered (eta, steps, kernel) stages; later stages warm-start from
    the previous stage's final iterate."""

    stages: tuple[Stage, ...]

    def __post_init__(self):
        if len(self.stages) == 0:
            raise ValueError("schedule needs at least one stage")
        dims = {s.kernel.dimension for s in self.stages}
        if len(dims) != 1:
            raise ValueError(f"stages disagree on dimension: {dims}")

    @property
    def total_steps(self) -> int:
        return sum(s.steps for s in self.stages)

    @property
    def dimension(self) -> int:
        return self.stages[0].kernel.dimension


@dataclass
class Trajectory:
    """Full record of one run: iterates, shadow points, losses and noise.

    Arrays have length T+1 (T = recorded steps); `omegas[t]` is the noise
    applied when leaving step t, with a zero row at the end.  `etas[t]`
    and `stage_idx[t]` describe the stage the point belongs to (the final
    point inherits the last stage).
    """

    xs: np.ndarray          # (T+1, d)
    ys: np.ndarray          # (T+1, d), y_t = x_t - eta_t * grad f(x_t)
    omegas: np.ndarray      # (T+1, d)
    fs: np.ndarray          # (T+1,)
    grad_norms: np.ndarray  # (T+1,)
    noise_norms: np.ndarray # (T+1,)
    dist2: np.ndarray       # (T+1,) squared x-distance to target (nan if unknown)
    y_dist2: np.ndarray     # (T+1,) squared y-distance to target (nan if unknown)
    stage_idx: np.ndarray   # (T+1,) int
    etas: np.ndarray        # (T+1,)
    out_of_box: np.ndarray  # (T+1,) bool
    diverged: bool = False
    target: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def final_x(self) -> np.ndarray:
        return self.xs[-1]

    @property
    def final_y(self) -> np.ndarray:
        return self.ys[-1]

    def csv_header(self) -> list[str]:
        d = self.dimension
        return (
            ["t", "stage"]
            + [f"x_{i}" for i in range(d)]
            + ["f", "grad_norm", "noise_norm", "dist2", "out_of_box"]
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.csv_header())
            for t in range(len(self)):
                row = [t, int(self.stage_idx[t])]
                row += [repr(float(v)) for v in self.xs[t]]
                row += [
                    repr(float(self.fs[t])),
                    repr(float(self.grad_norms[t])),
                    repr(float(self.noise_norms[t])),
                    repr(float(self.dist2[t])),
                    int(self.out_of_box[t]),
                ]
                writer.writerow(row)


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a persisted trajectory back into column arrays, losslessly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return cols


def _bounded(xs: np.ndarray) -> np.ndarray:
    """Divergence predicate over the last axis: True where every coordinate
    is finite and at most DIVERGENCE_CUTOFF in absolute value (a NaN
    maximum compares False)."""
    return np.max(np.abs(xs), axis=-1) <= DIVERGENCE_CUTOFF


@dataclass
class EnsembleResult:
    """Raw lockstep history: axis 0 is the step index, axis 1 the trial.

    `omegas[t]` is the noise applied when leaving step t, with a zero row
    at the end, so the three histories share one (T+1, n, d) layout.  A
    diverged trial stays frozen at its first iterate beyond the cutoff.
    """

    x_hist: np.ndarray      # (T+1, n, d)
    y_hist: np.ndarray      # (T+1, n, d)
    omegas: np.ndarray      # (T+1, n, d)
    etas: np.ndarray        # (T+1,)
    stage_idx: np.ndarray   # (T+1,)
    diverged: np.ndarray    # (n,) bool
    target: Optional[np.ndarray]

    @property
    def n_trials(self) -> int:
        return self.x_hist.shape[1]

    @property
    def finals_x(self) -> np.ndarray:
        return self.x_hist[-1]

    @property
    def finals_y(self) -> np.ndarray:
        return self.y_hist[-1]

    def y_dist2_history(self, target) -> np.ndarray:
        """(T+1, n) squared distances of the shadow points to `target`."""
        diff = self.y_hist - np.asarray(target, dtype=float)[None, None, :]
        return np.einsum("tnd,tnd->tn", diff, diff)

    def trajectory(self, obj: Objective, i: int) -> Trajectory:
        """Materialize trial i as a Trajectory record.

        The iterate, shadow, noise, eta and stage arrays are views of the
        history.  A diverged trial's record ends at the iterate that froze
        it, its first one beyond the cutoff.
        """
        xs = self.x_hist[:, i]
        end = int(np.argmin(_bounded(xs))) + 1 if self.diverged[i] else len(xs)
        xs, ys, omegas = xs[:end], self.y_hist[:end, i], self.omegas[:end, i]
        lo, hi = obj.domain_box
        # an unknown target is NaN, so both distances come out NaN
        target = np.full(obj.dimension, np.nan) if obj.target is None else obj.target
        dx, dy = xs - target, ys - target
        return Trajectory(
            xs=xs,
            ys=ys,
            omegas=omegas,
            fs=obj.values_at(xs),
            grad_norms=np.linalg.norm(obj.grads_at(xs), axis=1),
            noise_norms=np.linalg.norm(omegas, axis=1),
            dist2=np.einsum("ij,ij->i", dx, dx),
            y_dist2=np.einsum("ij,ij->i", dy, dy),
            stage_idx=self.stage_idx[:end],
            etas=self.etas[:end],
            out_of_box=np.any((xs < lo) | (xs > hi), axis=1),
            diverged=bool(self.diverged[i]),
            target=obj.target,
        )


def lockstep_run(
    obj: Objective, schedule: StepSchedule, x0s: np.ndarray, streams: Sequence[RngStream]
) -> EnsembleResult:
    """Advance n trials of staged SGD together with batched oracle calls.

    Trial i pre-draws its noise from `streams[i]`, one `sample_batch` per
    stage.  Iterates are never projected.  Every recorded iterate, the
    final one included, goes through the divergence predicate; a trial
    that fails it freezes in place and is flagged rather than aborting
    the others.
    """
    x0s = np.asarray(x0s, dtype=float)
    n, d = x0s.shape
    if d != obj.dimension or schedule.dimension != d:
        raise ValueError("initial points or schedule do not match objective dimension")
    if len(streams) != n:
        raise ValueError(f"need one stream per trial, got {len(streams)} for {n} trials")
    stages = schedule.stages
    total = schedule.total_steps
    rows = [s.steps for s in stages]
    rows[-1] += 1  # the final point inherits the last stage
    etas = np.repeat([s.eta for s in stages], rows)
    stage_idx = np.repeat(np.arange(len(stages)), rows)

    omegas = np.zeros((total + 1, n, d))
    for i, stream in enumerate(streams):
        gen = stream.generator()
        t0 = 0
        for stage in stages:
            omegas[t0 : t0 + stage.steps, i] = stage.kernel.sample_batch(stage.steps, gen)
            t0 += stage.steps

    x_hist = np.empty((total + 1, n, d))
    y_hist = np.empty((total + 1, n, d))
    active = np.ones(n, dtype=bool)
    x = x0s
    for t, eta in enumerate(etas):
        y = x - eta * obj.grads_at(x)
        x_hist[t], y_hist[t] = x, y
        active &= _bounded(x)
        # the step leaving the final point uses its zero noise row and is discarded
        x = np.where(active[:, None], y - eta * omegas[t], x)

    return EnsembleResult(
        x_hist=x_hist,
        y_hist=y_hist,
        omegas=omegas,
        etas=etas,
        stage_idx=stage_idx,
        diverged=~active,
        target=obj.target,
    )


def sgd_run(obj: Objective, schedule: StepSchedule, x0, rng: RngStream = RngStream(0)) -> Trajectory:
    """Run staged SGD from x0 and record the full trajectory.

    This is a one-trial `lockstep_run`, so an ensemble trial on the same
    stream replays it bit for bit.  Leaving the domain box only sets the
    out_of_box flag.  An iterate that is non-finite or has a coordinate
    beyond DIVERGENCE_CUTOFF, the final one included, ends the record
    and marks it diverged.
    """
    x0 = as_point(x0, obj.dimension)
    return lockstep_run(obj, schedule, x0[None, :], [rng]).trajectory(obj, 0)


def gd_run(obj: Objective, eta: float, steps: int, x0) -> Trajectory:
    """Noiseless gradient descent: sgd_run with the zero kernel."""
    kernel = NoiseKernel("zero", 0.0, obj.dimension)
    schedule = StepSchedule((Stage(eta, steps, kernel),))
    return sgd_run(obj, schedule, x0)


def shadow_check(traj: Trajectory, obj: Objective) -> float:
    """Max residual of the shadow update identity over constant-eta pairs.

    Stage-boundary indices (where eta changes) are skipped: the identity
    is only defined within a stage.  NaN residuals are ignored.
    """
    t = np.flatnonzero(traj.etas[1:] == traj.etas[:-1])
    eta = traj.etas[t, None]
    inner = traj.ys[t] - eta * traj.omegas[t]
    predicted = inner - eta * obj.grads_at(inner)
    residuals = np.linalg.norm(traj.ys[t + 1] - predicted, axis=1)
    return float(np.fmax.reduce(residuals, initial=0.0))
