"""Staged SGD / GD engine with shadow-sequence bookkeeping.

The iterate update is split exactly as x_{t+1} = y_t - eta*omega_t with
y_t = x_t - eta*grad f(x_t), so the shadow sequence satisfies the
one-step identity

    y_{t+1} = y_t - eta*omega_t - eta*grad f(y_t - eta*omega_t)

bitwise within any constant-eta stage.  No shadow row is stored:
`_shadow` derives them from the iterates, in row chunks (`_chunks`)
with the bits of a whole-array pass, as every oracle is row-wise.

`lockstep_run` is the only stepping loop.  A run keeps its schedule and
either its (T+1, n, d) iterates with the trials' streams or only the
finals and flags, bitwise the same, with one piece of noise (`_noise`)
at a time.  Its observer gets each block's iterates, gradients and raw
noise: `sgd_run` copies one trial's into a record, and
`table.table_writer` streams an ensemble's into one `.npy` table.
`_record_columns` is the one builder of the derived columns.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import NoiseKernel, RngStream, _require_integer
from .objectives import Objective, as_point

__all__ = [
    "Stage", "StepSchedule", "Trajectory", "EnsembleResult", "table_dtype",
    "lockstep_run", "sgd_run", "gd_run", "shadow_check", "write_csv_columns",
]

DIVERGENCE_CUTOFF = 1e6

# rows stepped between two divergence checks in lockstep_run
_BLOCK = 64
# noise rows lockstep_run draws at a time, 4 blocks
_NOISE_ROWS = 4 * _BLOCK
# rows formatted at a time by the CSV writers
_CSV_CHUNK = 1024
# rows built at a time by table.table_writer and _shadow
_TABLE_ROWS = 4096


@dataclass(frozen=True)
class Stage:
    eta: float
    steps: int
    kernel: NoiseKernel

    def __post_init__(self):
        if not self.eta > 0:  # NaN fails too
            raise ValueError(f"eta must be positive, got {self.eta}")
        _require_integer("steps", self.steps)
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

    def row_stages(self, t0: int, t1: int) -> np.ndarray:
        """Stage index of a run's rows t0..t1-1: a stage owns the rows its
        steps leave, and the final row T inherits the last stage."""
        ends = np.cumsum([s.steps for s in self.stages[:-1]])
        return np.searchsorted(ends, np.arange(t0, t1), side="right")


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
    """Record of one run: its objective, iterates and noise, from which
    `columns` derives the columns and `shadow_check` the shadow points.

    Arrays have length T+1 (T = recorded steps); `omegas[t]` is the noise
    applied when leaving step t, with a zero row at the end, and
    `schedule.row_stages` gives each row's stage.
    """

    objective: Objective
    xs: np.ndarray          # (T+1, d)
    omegas: np.ndarray      # (T+1, d)
    schedule: StepSchedule
    diverged: bool = False

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def final_x(self) -> np.ndarray:
        return self.xs[-1]

    def columns(self) -> dict:
        """The derived columns of every row, by `table_dtype` field name."""
        return _record_columns(self.objective, self.xs, np.linalg.norm(self.omegas, axis=1))

    def write_csv(self, path) -> None:
        """Write the record as CSV, one row per point: the bytes
        `write_csv_columns` writes for `{"t", "stage", x_0.., **columns()}`,
        with the columns derived `_CSV_CHUNK` rows at a time as each chunk
        is formatted, so no whole-record column is built."""

        def chunks():
            for t0, t1 in _chunks(len(self), _CSV_CHUNK):
                xs = self.xs[t0:t1]
                yield {
                    "t": range(t0, t1), "stage": self.schedule.row_stages(t0, t1),
                    **{f"x_{i}": x for i, x in enumerate(xs.T)},
                    **_record_columns(self.objective, xs, np.linalg.norm(self.omegas[t0:t1], axis=1)),
                }

        _write_csv(path, chunks())


def write_csv_columns(path, columns: Mapping[str, Sequence]) -> None:
    """Write equal-length columns, each anything that slices into an array
    (a `range`, say), as CSV under a header of their names: floats as
    `repr`, integers and booleans as `str` of the integer, so the values
    read back losslessly.  Rows are formatted `_CSV_CHUNK` at a time."""
    lengths = {len(col) for col in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"need columns of one length, got lengths {sorted(lengths)}")
    # one chunk even of no rows, which writes the header alone
    starts = range(0, max(1, lengths.pop()), _CSV_CHUNK)
    _write_csv(path, ({name: col[t0 : t0 + _CSV_CHUNK] for name, col in columns.items()} for t0 in starts))


def _write_csv(path, chunks) -> None:
    """Write each chunk, a dict of equal-length columns, as CSV rows under
    a header of the first chunk's names; every chunk has those names in
    that order."""
    chunks = iter(chunks)
    first = next(chunks)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(first) + "\n")
        for chunk in itertools.chain([first], chunks):
            cells = [_csv_cells(np.asarray(col)) for col in chunk.values()]
            rows = "\n".join(map(",".join, zip(*cells)))
            if rows:
                fh.write(rows + "\n")


def _csv_cells(col: np.ndarray):
    if col.dtype.kind == "f":
        return map(repr, col.tolist())
    return map(str, col.astype(int).tolist())


def _record_columns(obj: Objective, xs: np.ndarray, noise_norms: np.ndarray, grads=None) -> dict:
    """The derived columns of the (m, d) record rows `xs`, whose noise has
    the norms `noise_norms` and, if given, gradients `grads`, by
    `table_dtype` field name; a row's values depend on it alone."""
    lo, hi = obj.domain_box
    # an unknown target is NaN, so the distance comes out NaN
    target = np.full(obj.dimension, np.nan) if obj.target is None else obj.target
    dx = xs - target
    # a diverged trial's last row lies past the cutoff, where f and the
    # gradient norm may overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        fs = obj.values_at(xs)
        grad_norms = np.linalg.norm(obj.grads_at(xs) if grads is None else grads, axis=1)
    return {
        "f": fs,
        "grad_norm": grad_norms,
        "noise_norm": noise_norms,
        "dist2": np.einsum("ij,ij->i", dx, dx),
        "out_of_box": np.any((xs < lo) | (xs > hi), axis=1),
    }


def _bounded(xs: np.ndarray) -> np.ndarray:
    """Divergence predicate over the last axis: True where every coordinate
    is finite and at most DIVERGENCE_CUTOFF in absolute value (NaN
    compares False)."""
    return np.all((xs >= -DIVERGENCE_CUTOFF) & (xs <= DIVERGENCE_CUTOFF), axis=-1)


def _chunks(rows: int, size: int, overlap: int = 0):
    """(start, stop) of consecutive chunks of at most `size` rows that
    cover range(rows), each after the first starting `overlap` rows
    before the previous one stops: the one row-chunk pass of every
    derived pass over a history."""
    for start in range(0, rows - overlap, size - overlap):
        yield start, min(start + size, rows)


def _shadow(obj: Objective, schedule: StepSchedule, xs: np.ndarray, overlap: int = 0):
    """(t0, eta, ys) per chunk of the (m, k, d) rows `xs` of a run on
    `schedule`: each row's eta and shadow row y = x - eta * grad f(x),
    the step's bits, from row t0 on, about `_TABLE_ROWS` rows per oracle
    call, each chunk after the first overlapping the last by `overlap`."""
    per = max(overlap + 1, _TABLE_ROWS // max(1, xs.shape[1]))  # steps per call
    stage_eta = np.array([s.eta for s in schedule.stages])
    for t0, t1 in _chunks(len(xs), per, overlap):
        x = xs[t0:t1]
        eta = stage_eta[schedule.row_stages(t0, t1)]
        # frozen rows past the cutoff may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            g = obj.grads_at(x.reshape(-1, x.shape[2])).reshape(x.shape)
            g *= eta[:, None, None]
            np.subtract(x, g, out=g)
        yield t0, eta, g


@dataclass
class EnsembleResult:
    """A lockstep run: objective, schedule, history if kept, finals, flags.

    In `x_hist` axis 0 is the step index and axis 1 the trial.  No noise
    or shadow row is stored: `trajectory` reruns a trial on its stream,
    and `y_dist2_history` derives the shadow rows from `x_hist`.  A
    diverged trial stays frozen at its first iterate beyond the cutoff.
    A finals-only run has `x_hist` and `streams` None, and the methods
    that read them raise ValueError.  `finals_x` is a copy, so a report
    that keeps it does not pin the history.
    """

    objective: Objective
    x_hist: Optional[np.ndarray]             # (T+1, n, d)
    streams: Optional[tuple]                 # (n,) RngStream
    schedule: StepSchedule
    diverged: np.ndarray                     # (n,) bool
    finals_x: np.ndarray                     # (n, d)

    @property
    def n_trials(self) -> int:
        return self.finals_x.shape[0]

    def _require_history(self) -> None:
        if self.x_hist is None:
            raise ValueError(
                "this run kept no history; run lockstep_run with keep_history=True"
            )

    def y_dist2_history(self, target) -> np.ndarray:
        """(T+1, n) squared distances of the shadow points y_t = x_t -
        eta_t * grad f(x_t), frozen rows included, to `target`, filled from
        `_shadow` chunks: beyond the result it holds one chunk of shadow
        rows, never the whole shadow history."""
        self._require_history()
        target = np.asarray(target, dtype=float)
        d2 = np.empty(self.x_hist.shape[:2])
        for t0, _, ys in _shadow(self.objective, self.schedule, self.x_hist):
            ys -= target
            np.einsum("tnd,tnd->tn", ys, ys, out=d2[t0 : t0 + len(ys)])
        return d2

    def trajectory(self, i: int) -> Trajectory:
        """Trial i as a Trajectory record: the `sgd_run` of it alone on its
        stream, whose rows are bit for bit its rows here."""
        self._require_history()
        return _record(self.objective, self.schedule, self.x_hist[0, i], self.streams[i])


def lockstep_run(
    obj: Objective,
    schedule: StepSchedule,
    x0s: np.ndarray,
    streams: Sequence[RngStream],
    keep_history: bool = True,
    observe=None,
) -> EnsembleResult:
    """Advance n trials of staged SGD together with batched oracle calls.

    It takes exactly the T steps that leave rows 0..T-1, then records
    the final iterate, row T.  Trial i's noise comes from `streams[i]`,
    a piece at a time (`_noise`), each piece scaled by its eta once, in
    place.  A trial whose recorded iterate, the final one included,
    fails the divergence predicate freezes there and is flagged.

    Steps run in blocks of at most `_BLOCK` rows, which start at each
    stage start, with the predicate applied once per block.  A trial
    that first fails it at row k of a block has the rest of that block
    rewritten to x_k and continues from x_k, bitwise a per-step freeze;
    its steps past the cutoff raise no overflow warning.

    With `keep_history` the result holds the (T+1, n, d) iterates and
    the streams; without it, only the finals and flags, bitwise the
    same.  `observe(t0, xs, grads, noise, ends)`, if given, gets each
    block's (m, n, d) iterates from row t0 after its check, the m (n, d)
    gradient arrays `obj.grads_at` returned for them, so a grad oracle
    must return a new array on each call, their (m, n, d) noise before
    the eta scaling and each trial's record end, then row T with its
    zero noise.
    """
    x0s = np.asarray(x0s, dtype=float)
    n, d = x0s.shape
    if d != obj.dimension or schedule.dimension != d:
        raise ValueError("initial points or schedule do not match objective dimension")
    if len(streams) != n:
        raise ValueError(f"need one stream per trial, got {len(streams)} for {n} trials")

    T = schedule.total_steps
    x_hist = np.empty((T + 1, n, d)) if keep_history else None
    x_block = None if keep_history else np.empty((_BLOCK, n, d))
    ends = np.full(n, T + 1)
    active = np.ones(n, dtype=bool)
    grads_at = obj.grads_at
    x = x0s
    with np.errstate(over="ignore", invalid="ignore"):
        for stage, p0, noise in _noise(schedule, streams):
            eta = stage.eta
            raw = None if observe is None else noise.transpose(1, 0, 2).copy()
            noise *= eta
            kicks = noise.transpose(1, 0, 2)
            p2 = p0 + len(kicks)
            # pieces start at a stage start or _NOISE_ROWS rows on, so the
            # blocks still start at each stage start
            for b0 in range(p0, p2, _BLOCK):
                b1 = min(b0 + _BLOCK, p2)
                xb = x_block[: b1 - b0] if x_hist is None else x_hist[b0:b1]
                # the block's kicks, step-major, each held in its x row until
                # the iterate is recorded there
                xb[...] = kicks[b0 - p0 : b1 - p0]
                # frozen trials stay in place; np.where is needed only once one is
                keep = None if active.all() else active[:, None]
                grads = None if observe is None else []
                for j, kick in enumerate(xb):
                    g = grads_at(x)
                    if grads is not None:
                        grads.append(g)
                    y = x - eta * g
                    x_next = y - kick if keep is None else np.where(keep, y - kick, x)
                    xb[j] = x
                    x = x_next
                ok = _bounded(xb)
                for i in np.flatnonzero(active & ~ok.all(axis=0)):
                    # freeze trial i at its first iterate k beyond the cutoff,
                    # as a per-step check would have
                    k = int(np.argmin(ok[:, i]))
                    xb[k + 1 :, i] = xb[k, i]
                    x[i] = xb[k, i]
                    active[i] = False
                    ends[i] = b0 + k + 1
                if observe is not None:
                    observe(b0, xb, grads, raw[b0 - p0 : b1 - p0], ends)
        # the final iterate, which no step leaves
        if x_hist is not None:
            x_hist[-1] = x
        active &= _bounded(x)
        if observe is not None:
            observe(T, x[None], [grads_at(x)], np.zeros((1, n, d)), ends)

    return EnsembleResult(
        objective=obj,
        x_hist=x_hist,
        streams=tuple(streams) if keep_history else None,
        schedule=schedule,
        diverged=~active,
        finals_x=x.copy(),
    )


def _pieces(schedule: StepSchedule):
    """Yield a run's pieces (stage, p0, p1) stage by stage: each draws and
    steps rows p0..p1-1, `_NOISE_ROWS` of them or the whole stage where
    its kernel does not split by row; a 0-step stage gives none."""
    t0 = 0
    for stage in schedule.stages:
        size = _NOISE_ROWS if stage.kernel.splits_by_row else max(1, stage.steps)
        end = t0 + stage.steps
        for p0 in range(t0, end, size):
            yield stage, p0, min(p0 + size, end)
        t0 = end


def _noise(schedule: StepSchedule, streams: Sequence[RngStream]):
    """Yield (stage, p0, noise) per piece of `_pieces(schedule)`:
    the trial-major (k, m, d) noise of the piece's m rows from p0 on, of
    the trials on `streams`, a C-contiguous view of one buffer (an
    in-place product over it is unbuffered).  A zero stage makes no
    generator, so a later one's starts at the same position."""
    k, d = len(streams), schedule.dimension
    buf = np.empty(k * d * max((p1 - p0 for _, p0, p1 in _pieces(schedule)), default=0))
    gens = [None] * k
    for stage, p0, p1 in _pieces(schedule):
        noise = buf[: k * (p1 - p0) * d].reshape(k, p1 - p0, d)
        if stage.kernel.is_zero:
            noise.fill(0.0)
        else:
            stage.kernel.sample_trials(_generators(streams, gens, p1 == schedule.total_steps), noise)
        yield stage, p0, noise


def _generators(streams: Sequence[RngStream], gens: list, last: bool):
    """Each trial's generator for one piece, in trial order: made from its
    stream at its first draw, kept in `gens` for the next piece, and
    dropped from it after the `last` piece, the one that ends the run."""
    for i, stream in enumerate(streams):
        gen = stream.generator() if gens[i] is None else gens[i]
        gens[i] = None if last else gen
        yield gen


def sgd_run(obj: Objective, schedule: StepSchedule, x0, rng: RngStream = RngStream(0)) -> Trajectory:
    """Run staged SGD from x0 and record the full trajectory.

    This is a one-trial finals-only `lockstep_run`, so an ensemble trial
    on the same stream replays it bit for bit; its observer copies the
    iterates and the noise the run draws into the record.  Leaving the
    domain box only sets the out_of_box flag.  An iterate that is
    non-finite or has a coordinate beyond DIVERGENCE_CUTOFF, the final
    one included, ends the record and marks it diverged.
    """
    return _record(obj, schedule, as_point(x0, obj.dimension), rng)


def _record(obj: Objective, schedule: StepSchedule, x0: np.ndarray, stream: RngStream) -> Trajectory:
    """`sgd_run` from the (d,) point x0, which may be non-finite, as an
    ensemble's start may be."""
    xs = np.empty((schedule.total_steps + 1, obj.dimension))
    omegas = np.empty_like(xs)
    end = len(xs)

    def observe(t0, xb, grads, noise, ends):
        nonlocal end
        xs[t0 : t0 + len(xb)] = xb[:, 0]
        omegas[t0 : t0 + len(xb)] = noise[:, 0]
        end = int(ends[0])

    result = lockstep_run(obj, schedule, x0[None], [stream], keep_history=False, observe=observe)
    return Trajectory(obj, xs[:end], omegas[:end], schedule, bool(result.diverged[0]))


def gd_run(obj: Objective, eta: float, steps: int, x0) -> Trajectory:
    """Noiseless gradient descent: sgd_run with the zero kernel."""
    kernel = NoiseKernel("zero", 0.0, obj.dimension)
    schedule = StepSchedule((Stage(eta, steps, kernel),))
    return sgd_run(obj, schedule, x0)


def shadow_check(traj: Trajectory, obj: Objective) -> float:
    """Max residual of the shadow update identity over constant-eta pairs.

    The shadow points y_t = x_t - eta_t * grad f(x_t) are derived from
    `traj.xs` in `_shadow` chunks with one row of overlap, so each pair
    (t, t+1) lies in one chunk and is checked once; they are checked
    against `obj`.
    Stage-boundary indices (where eta changes) are skipped: the identity
    is only defined within a stage.  NaN residuals are ignored.
    """
    worst = 0.0
    for t0, eta, ys in _shadow(traj.objective, traj.schedule, traj.xs[:, None], overlap=1):
        ys = ys[:, 0]
        t = np.flatnonzero(eta[1:] == eta[:-1])
        eta = eta[t, None]
        inner = ys[t] - eta * traj.omegas[t0 + t]
        predicted = inner - eta * obj.grads_at(inner)
        residuals = np.linalg.norm(ys[t + 1] - predicted, axis=1)
        worst = np.fmax.reduce(residuals, initial=worst)
    return float(worst)
