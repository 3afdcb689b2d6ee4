"""Staged SGD / GD engine with shadow-sequence bookkeeping.

The iterate update is split exactly as x_{t+1} = y_t - eta*omega_t with
y_t = x_t - eta*grad f(x_t), so the recorded shadow sequence satisfies
the one-step identity

    y_{t+1} = y_t - eta*omega_t - eta*grad f(y_t - eta*omega_t)

bitwise within any constant-eta stage.

`lockstep_run` is the only stepping loop.  It advances n trials together
with batched oracle calls.  When a stage starts, each trial draws that
stage's noise from its own stream, so `sgd_run` is a one-trial run of
the same loop and a lockstep trial replays `sgd_run` for the same stream
by construction.  One predicate flags divergence at every recorded
iterate, the final one included.  The loop applies it once per block of
`_BLOCK` rows rather than once per step; blocks start at each stage
start.  A trial first beyond the cutoff at row k has its rows after k in
that block rewritten to the frozen x_k and y = x_k - eta_t * grad f(x_k),
so every history is bitwise the one a per-step freeze gives.  Stepping
past the cutoff until the block ends may overflow; those rows are
overwritten and the overflow is not reported.

A run keeps the (T+1, n, d) iterate, shadow and noise histories, or,
with `keep_history=False`, only the final iterates and the divergence
flags: the rows of a block then go to two reused block buffers and the
noise to one stage buffer, so memory is O(n*d) plus one stage's noise.
The finals and flags are bitwise the same either way.
`EnsembleResult.trajectory` is the one place a `Trajectory` record is
built.  A record is persisted either alone, as a CSV
(`Trajectory.write_csv`, through the package's one CSV writer,
`write_csv_columns`), or
with every trial of an ensemble, as one streamed `.npy` trajectory table
(`EnsembleResult.write_table`).
"""
from __future__ import annotations

import csv
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import NoiseKernel, RngStream
from .objectives import Objective, as_point

__all__ = [
    "Stage", "StepSchedule", "Trajectory", "EnsembleResult", "table_dtype",
    "lockstep_run", "sgd_run", "gd_run", "shadow_check", "write_csv_columns",
]

DIVERGENCE_CUTOFF = 1e6

# rows stepped between two divergence checks in lockstep_run
_BLOCK = 64
# rows formatted at a time in write_csv_columns
_CSV_CHUNK = 1024


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


def table_dtype(dimension: int) -> np.dtype:
    """Row type of the trajectory table: the trial index, then the columns
    of `Trajectory.write_csv` (x as one (d,) field), in fixed little-endian
    types."""
    return np.dtype([
        ("trial", "<i8"), ("t", "<i8"), ("stage", "<i8"), ("x", "<f8", (dimension,)),
        ("f", "<f8"), ("grad_norm", "<f8"), ("noise_norm", "<f8"), ("dist2", "<f8"),
        ("out_of_box", "|b1"),
    ])


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
    stage_idx: np.ndarray   # (T+1,) int
    etas: np.ndarray        # (T+1,)
    out_of_box: np.ndarray  # (T+1,) bool
    diverged: bool = False

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def final_x(self) -> np.ndarray:
        return self.xs[-1]

    def write_csv(self, path) -> None:
        """Write the record as CSV, one row per point, with `write_csv_columns`."""
        xs = {f"x_{i}": x for i, x in enumerate(self.xs.T)}
        write_csv_columns(path, {
            "t": range(len(self)), "stage": self.stage_idx, **xs, "f": self.fs,
            "grad_norm": self.grad_norms, "noise_norm": self.noise_norms,
            "dist2": self.dist2, "out_of_box": self.out_of_box,
        })

    def table_rows(self, trial: int) -> np.ndarray:
        """This record as `table_dtype` rows labelled with `trial`; each field
        holds the same values as the matching CSV column."""
        rows = np.empty(len(self), table_dtype(self.dimension))
        rows["trial"] = trial
        rows["t"] = np.arange(len(self))
        rows["stage"] = self.stage_idx
        rows["x"] = self.xs
        rows["f"] = self.fs
        rows["grad_norm"] = self.grad_norms
        rows["noise_norm"] = self.noise_norms
        rows["dist2"] = self.dist2
        rows["out_of_box"] = self.out_of_box
        return rows


def write_csv_columns(path, columns: Mapping[str, Sequence]) -> None:
    """Write equal-length columns, each anything that slices into an array
    (a `range`, say), as CSV under a header of their names: floats as
    `repr`, integers and booleans as `str` of the integer, so the values
    read back losslessly.  Rows are formatted `_CSV_CHUNK` at a time."""
    lengths = {len(col) for col in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"need columns of one length, got lengths {sorted(lengths)}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for c0 in range(0, lengths.pop(), _CSV_CHUNK):
            cells = [_csv_cells(np.asarray(col[c0 : c0 + _CSV_CHUNK])) for col in columns.values()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _csv_cells(col: np.ndarray):
    if col.dtype.kind == "f":
        return map(repr, col.tolist())
    return map(str, col.astype(int).tolist())


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
    is finite and at most DIVERGENCE_CUTOFF in absolute value (NaN
    compares False)."""
    return np.all((xs >= -DIVERGENCE_CUTOFF) & (xs <= DIVERGENCE_CUTOFF), axis=-1)


@dataclass
class EnsembleResult:
    """A lockstep run: its histories, if kept, and its finals and flags.

    In the histories axis 0 is the step index and axis 1 the trial.
    `omegas[t]` is the noise applied when leaving step t, with a zero row
    at the end, so the three histories share one (T+1, n, d) layout.  A
    diverged trial stays frozen at its first iterate beyond the cutoff.
    A run without history (`lockstep_run(..., keep_history=False)`) has
    `x_hist`, `y_hist` and `omegas` None, and the methods that read them
    raise ValueError.  `finals_x` holds the final iterates, a copy even
    with a history, so a report that keeps them does not pin the
    histories.  The objective's target is not stored; methods that need
    it take the objective or the target as an argument.
    """

    x_hist: Optional[np.ndarray]   # (T+1, n, d)
    y_hist: Optional[np.ndarray]   # (T+1, n, d)
    omegas: Optional[np.ndarray]   # (T+1, n, d)
    etas: np.ndarray               # (T+1,)
    stage_idx: np.ndarray          # (T+1,)
    diverged: np.ndarray           # (n,) bool
    finals_x: np.ndarray           # (n, d)

    @property
    def n_trials(self) -> int:
        return self.finals_x.shape[0]

    def _require_history(self) -> None:
        if self.x_hist is None:
            raise ValueError(
                "this run kept no history; run lockstep_run with keep_history=True"
            )

    def y_dist2_history(self, target) -> np.ndarray:
        """(T+1, n) squared distances of the shadow points to `target`."""
        self._require_history()
        diff = self.y_hist - np.asarray(target, dtype=float)[None, None, :]
        return np.einsum("tnd,tnd->tn", diff, diff)

    def record_end(self, i: int) -> int:
        """Row count of trial i's record.  A diverged trial's record ends at
        the iterate that froze it, its first one beyond the cutoff."""
        self._require_history()
        if not self.diverged[i]:
            return self.x_hist.shape[0]
        return int(np.argmin(_bounded(self.x_hist[:, i]))) + 1

    def trajectory(self, obj: Objective, i: int) -> Trajectory:
        """Materialize trial i as a Trajectory record of `record_end(i)` rows.

        The iterate, shadow, noise, eta and stage arrays are views of the
        history.
        """
        end = self.record_end(i)
        xs, ys, omegas = self.x_hist[:end, i], self.y_hist[:end, i], self.omegas[:end, i]
        lo, hi = obj.domain_box
        # an unknown target is NaN, so the distance comes out NaN
        target = np.full(obj.dimension, np.nan) if obj.target is None else obj.target
        dx = xs - target
        # a diverged trial's last row lies past the cutoff, where f and the
        # gradient norm may overflow to inf
        with np.errstate(over="ignore", invalid="ignore"):
            fs = obj.values_at(xs)
            grad_norms = np.linalg.norm(obj.grads_at(xs), axis=1)
        return Trajectory(
            xs=xs,
            ys=ys,
            omegas=omegas,
            fs=fs,
            grad_norms=grad_norms,
            noise_norms=np.linalg.norm(omegas, axis=1),
            dist2=np.einsum("ij,ij->i", dx, dx),
            stage_idx=self.stage_idx[:end],
            etas=self.etas[:end],
            out_of_box=np.any((xs < lo) | (xs > hi), axis=1),
            diverged=bool(self.diverged[i]),
        )

    def write_table(self, obj: Objective, path) -> None:
        """Write every trial's record to `path` as one `.npy` table of
        `table_dtype` rows, trials in order.

        The header states the total row count, summed over `record_end`;
        the rows then follow one trial at a time, each built by
        `trajectory`, so only one trial's record is in memory at once.
        """
        fmt = np.lib.format
        rows = sum(self.record_end(i) for i in range(self.n_trials))
        dtype = table_dtype(self.x_hist.shape[2])
        header = {"descr": fmt.dtype_to_descr(dtype), "fortran_order": False, "shape": (rows,)}
        with open(path, "wb") as fh:
            fmt.write_array_header_1_0(fh, header)
            for i in range(self.n_trials):
                fh.write(self.trajectory(obj, i).table_rows(i).tobytes())


def lockstep_run(
    obj: Objective,
    schedule: StepSchedule,
    x0s: np.ndarray,
    streams: Sequence[RngStream],
    keep_history: bool = True,
) -> EnsembleResult:
    """Advance n trials of staged SGD together with batched oracle calls.

    When a stage starts, trial i draws that stage's noise with one
    `sample_batch` call on its generator from `streams[i]`, created at
    its first draw and dropped after the last stage.  Iterates are never
    projected.  Every recorded iterate, the final one included, goes
    through the divergence predicate; a trial that fails it freezes in
    place and is flagged rather than aborting the others.

    Steps run in blocks of at most `_BLOCK` rows, which start at each
    stage start, with the predicate applied once per block.  A trial
    that first fails it at row k of a block has the rest of that block
    rewritten to the frozen x_k, with y = x_k - eta_t * grad f(x_k) at
    each row t, and continues from x_k, so the histories and flags are
    bitwise those of a per-step freeze.  The steps it took past the
    cutoff raise no overflow or invalid-value warning.

    With `keep_history` the result holds the (T+1, n, d) iterate, shadow
    and noise histories.  Without it, the noise goes to one buffer sized
    for the longest stage and a block's rows to two reused block
    buffers, and the result holds only the finals, flags, etas and stage
    indices, bitwise equal to those of a history run.
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

    if keep_history:
        omegas = np.empty((total + 1, n, d))
        x_hist = np.empty((total + 1, n, d))
        y_hist = np.empty((total + 1, n, d))
    else:
        omegas = x_hist = y_hist = None
        stage_noise = np.empty((max(rows), n, d))
        x_block = np.empty((_BLOCK, n, d))
        y_block = np.empty((_BLOCK, n, d))
    gens = [None] * n
    active = np.ones(n, dtype=bool)
    grads_at = obj.grads_at
    x = x0s
    t0 = 0
    # a trial past the cutoff keeps stepping to the end of its block, where
    # its rows are overwritten, so its overflow is not reported
    with np.errstate(over="ignore", invalid="ignore"):
        for stage, t1 in zip(stages, np.cumsum(rows).tolist()):
            noise = omegas[t0:t1] if keep_history else stage_noise[: t1 - t0]
            last = t1 > total  # only the last stage holds the final row
            for i, stream in enumerate(streams):
                gen = stream.generator() if gens[i] is None else gens[i]
                noise[: stage.steps, i] = stage.kernel.sample_batch(stage.steps, gen)
                gens[i] = None if last else gen
            # the step leaving the final point uses a zero noise row and is discarded
            noise[stage.steps :] = 0.0
            for b0 in range(t0, t1, _BLOCK):
                b1 = min(b0 + _BLOCK, t1)
                xb = x_hist[b0:b1] if keep_history else x_block[: b1 - b0]
                yb = y_hist[b0:b1] if keep_history else y_block[: b1 - b0]
                # the same products as eta * omegas[t] row by row, each held in
                # its x row until the iterate is recorded there
                kicks = np.multiply(etas[b0:b1, None, None], noise[b0 - t0 : b1 - t0], out=xb)
                # frozen trials stay in place; np.where is needed only once one is
                keep = None if active.all() else active[:, None]
                for j, (eta, kick) in enumerate(zip(etas[b0:b1].tolist(), kicks)):
                    y = x - eta * grads_at(x)
                    x_next = y - kick if keep is None else np.where(keep, y - kick, x)
                    xb[j], yb[j] = x, y
                    x = x_next
                ok = _bounded(xb)
                for i in np.flatnonzero(active & ~ok.all(axis=0)):
                    # freeze trial i at its first iterate k beyond the cutoff,
                    # as a per-step check would have
                    k = int(np.argmin(ok[:, i]))
                    xk = xb[k, i]
                    if k + 1 < b1 - b0:
                        xb[k + 1 :, i] = xk
                        yb[k + 1 :, i] = xk - etas[b0 + k + 1 : b1, None] * grads_at(xk[None, :])
                    x[i] = xk
                    active[i] = False
            t0 = t1

    return EnsembleResult(
        x_hist=x_hist,
        y_hist=y_hist,
        omegas=omegas,
        etas=etas,
        stage_idx=stage_idx,
        diverged=~active,
        # the final point is the last row of the last block
        finals_x=xb[-1].copy(),
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
