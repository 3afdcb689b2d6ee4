"""Runner semantics: contraction, shadow identity, persistence, divergence."""
import csv
import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sgdsmooth import (
    NoiseKernel,
    RngStream,
    SpikyParams,
    Stage,
    StepSchedule,
    gd_run,
    make_quadratic,
    make_spiky,
    sgd_run,
    shadow_check,
)
import sgdsmooth.optimizer as optimizer_module
from sgdsmooth.optimizer import (
    _BLOCK,
    _CSV_CHUNK,
    _NOISE_ROWS,
    _TABLE_ROWS,
    DIVERGENCE_CUTOFF,
    EnsembleResult,
    Trajectory,
    _bounded,
    lockstep_run,
    write_csv_columns,
)
from sgdsmooth.table import table_writer

from conftest import bisect_root, read_csv_columns, shadow_rows


def _zero_schedule(eta, steps, d=1):
    return StepSchedule((Stage(eta, steps, NoiseKernel("zero", 0.0, d)),))


def _bounded_reference(xs):
    """Reference: the divergence predicate as a NaN-propagating maximum."""
    return np.max(np.abs(xs), axis=-1) <= DIVERGENCE_CUTOFF


def _per_step(schedule):
    """Reference: the (T+1,) eta and stage index of every row, as one
    `np.repeat` each over the stage lengths; the final row inherits the
    last stage."""
    rows = [s.steps for s in schedule.stages]
    rows[-1] += 1
    return np.repeat([s.eta for s in schedule.stages], rows), np.repeat(np.arange(len(rows)), rows)


def _reference_noise(schedule, streams):
    """Reference: each trial's noise as one `sample_batch` per stage on a
    generator of its own, then the zero final row, as (T+1, n, d)."""
    omegas = np.zeros((schedule.total_steps + 1, len(streams), schedule.dimension))
    for i, stream in enumerate(streams):
        gen = stream.generator()
        t0 = 0
        for stage in schedule.stages:
            omegas[t0 : t0 + stage.steps, i] = stage.kernel.sample_batch(stage.steps, gen)
            t0 += stage.steps
    return omegas


def _observed(obj, schedule, x0s, streams, keep_history=True):
    """A `lockstep_run` whose observer keeps what its calls hand it: the
    result and a dict of the (T+1, n, d) iterate, noise and gradient
    rows and the record ends of the last call."""
    x0s = np.asarray(x0s, dtype=float)
    shape = (schedule.total_steps + 1, *x0s.shape)
    seen = {"xs": np.empty(shape), "noise": np.empty(shape), "grads": np.empty(shape)}

    def observe(t0, xs, grads, noise, ends):
        assert len(xs) == len(grads) == len(noise)
        for name, rows in (("xs", xs), ("grads", grads), ("noise", noise)):
            seen[name][t0 : t0 + len(rows)] = rows
        seen["ends"] = ends.copy()

    return lockstep_run(obj, schedule, x0s, streams, keep_history, observe), seen


def _streamed(path, obj, schedule, x0s, streams, keep_history=False):
    """A `lockstep_run` that streams its table to `path` through
    `table_writer`: its result and the table, loaded."""
    with table_writer(path, obj, schedule, len(x0s)) as observe:
        result = lockstep_run(obj, schedule, x0s, streams, keep_history, observe)
    return result, np.load(path)


def _reference_lockstep(obj, schedule, x0s, streams):
    """Reference: the per-step engine that `lockstep_run` replaced, with
    the divergence predicate applied at every step.  Returns its result,
    the (T+1, n, d) shadow rows it stepped through and its noise."""
    x0s = np.asarray(x0s, dtype=float)
    n, d = x0s.shape
    total = schedule.total_steps
    etas, _ = _per_step(schedule)
    omegas = _reference_noise(schedule, streams)

    x_hist = np.empty((total + 1, n, d))
    y_hist = np.empty((total + 1, n, d))
    active = np.ones(n, dtype=bool)
    x = x0s
    for t, eta in enumerate(etas):
        y = x - eta * obj.grads_at(x)
        x_hist[t], y_hist[t] = x, y
        active &= _bounded_reference(x)
        # the step leaving the final point uses its zero noise row and is discarded
        x = np.where(active[:, None], y - eta * omegas[t], x)

    return EnsembleResult(
        objective=obj,
        x_hist=x_hist,
        x0s=x0s.copy(),
        streams=tuple(streams),
        schedule=schedule,
        diverged=~active,
        finals_x=x_hist[-1].copy(),
    ), y_hist, omegas


def _reference_write_csv(traj, path):
    """Reference: the row-wise `csv.writer` body that `write_csv` replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "stage", *(f"x_{i}" for i in range(traj.xs.shape[1])),
                         "f", "grad_norm", "noise_norm", "dist2", "out_of_box"])
        cols = traj.columns()
        _, stage_idx = _per_step(traj.schedule)
        for t in range(len(traj)):
            row = [t, int(stage_idx[t])]
            row += [repr(float(v)) for v in traj.xs[t]]
            row += [
                repr(float(cols["f"][t])),
                repr(float(cols["grad_norm"][t])),
                repr(float(cols["noise_norm"][t])),
                repr(float(cols["dist2"][t])),
                int(cols["out_of_box"][t]),
            ]
            writer.writerow(row)


def _bits(a):
    """The bytes of `a` with every NaN made the same NaN."""
    a = np.asarray(a)
    if a.dtype.kind == "f":
        a = np.where(np.isnan(a), np.nan, a)
    return a.dtype.str, a.shape, a.tobytes()


def _shadow_check_loop(traj, obj):
    """Reference: the per-step loop over constant-eta pairs, one-row oracle
    calls (not `grad_at`, which rejects the non-finite points of diverged
    runs)."""
    worst = 0.0
    ys = shadow_rows(traj.objective, traj.schedule, traj.xs)
    etas, _ = _per_step(traj.schedule)
    for t in range(len(traj) - 1):
        if etas[t + 1] != etas[t]:
            continue
        eta = etas[t]
        inner = ys[t] - eta * traj.omegas[t]
        predicted = inner - eta * obj.grads_at(inner[None, :])[0]
        residual = float(np.linalg.norm(ys[t + 1] - predicted))
        worst = max(worst, residual)
    return worst


class TestGd:
    def test_quadratic_geometric_contraction(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.1, 30, [1.0])
        expect = 0.9 ** np.arange(31)
        assert np.allclose(traj.xs[:, 0], expect, rtol=0, atol=1e-14)

    def test_shadow_equals_next_iterate_without_noise(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.1, 20, [1.0])
        assert np.array_equal(shadow_rows(quadratic_1d, traj.schedule, traj.xs)[:-1], traj.xs[1:])

    def test_full_step_converges_in_one(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 1.0, 3, [2.5])
        assert np.all(traj.xs[1:] == 0.0)

    def test_expansion_above_threshold(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 2.1, 10, [1.0])
        norms = np.abs(traj.xs[:, 0])
        assert np.all(norms[1:] > norms[:-1])

    def test_spiky_traps_in_a_side_basin(self, spiky_default):
        traj = gd_run(spiky_default, 0.01, 10_000, [2.0])
        assert traj.columns()["grad_norm"][-1] < 1e-6
        assert abs(traj.final_x[0]) > 0.3
        # independent oracle: the stationary point in the basin containing 2.0
        root = bisect_root(lambda x: x + 10 * math.cos(10 * x), 1.6, 1.8)
        assert traj.final_x[0] == pytest.approx(root, abs=1e-6)

    def test_monotone_distance_below_critical_step(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.5, 50, [3.0])
        assert np.all(np.diff(traj.columns()["dist2"]) < 0)


class TestSgd:
    def test_shadow_identity_constant_eta(self, spiky_default):
        sched = StepSchedule(
            (Stage(0.01, 500, NoiseKernel("uniform-ball", 2.0, 1)),)
        )
        traj = sgd_run(spiky_default, sched, [1.0], RngStream(21, 1000))
        assert shadow_check(traj, spiky_default) <= 1e-10

    def test_shadow_identity_across_stages(self, spiky_default):
        sched = StepSchedule(
            (
                Stage(0.01, 200, NoiseKernel("uniform-ball", 2.0, 1)),
                Stage(0.005, 200, NoiseKernel("uniform-ball", 1.0, 1)),
            )
        )
        traj = sgd_run(spiky_default, sched, [1.0], RngStream(22, 1000))
        # the boundary index is skipped, the rest must satisfy the identity
        assert shadow_check(traj, spiky_default) <= 1e-10
        assert traj.schedule.row_stages(199, 201).tolist() == [0, 1]

    def test_zero_kernel_residual_is_zero(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.1, 50, [1.0])
        assert shadow_check(traj, quadratic_1d) == 0.0

    def test_update_split_is_exact(self, spiky_default):
        sched = StepSchedule((Stage(0.02, 300, NoiseKernel("uniform-ball", 3.0, 1)),))
        traj = sgd_run(spiky_default, sched, [0.5], RngStream(23, 1000))
        # x_{t+1} = y_t - eta * omega_t bitwise
        rebuilt = shadow_rows(spiky_default, sched, traj.xs)[:-1] - 0.02 * traj.omegas[:-1]
        assert np.array_equal(rebuilt, traj.xs[1:])

    def test_determinism(self, spiky_default):
        sched = StepSchedule((Stage(0.01, 200, NoiseKernel("uniform-ball", 2.0, 1)),))
        a = sgd_run(spiky_default, sched, [1.0], RngStream(24, 5))
        b = sgd_run(spiky_default, sched, [1.0], RngStream(24, 5))
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.omegas.tobytes() == b.omegas.tobytes()

    def test_divergence_truncates_and_flags(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 3.0, 200, [1.0])
        assert traj.diverged
        assert len(traj) < 201
        assert np.all(np.abs(traj.xs) <= 1e6 * 2.0)  # last recorded point may exceed once

    def test_out_of_box_flagging(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 2.1, 40, [1.0])
        out_of_box = traj.columns()["out_of_box"]
        assert out_of_box.any()
        assert not out_of_box[0]

    @pytest.mark.parametrize(
        "kind, d", [(kind, d) for kind in ("zero", "uniform-cube", "uniform-ball") for d in (1, 2, 3)]
    )
    def test_replayed_noise_is_the_per_trial_draws(self, tmp_path, kind, d):
        # the observer is handed the per-trial draws before the eta
        # scaling, and records and the table hold them.  Stages around a
        # piece, with a cube stage between, so a zero kind makes its
        # generator late; a d > 1 ball stage is drawn whole.  On x^2/2
        # eta = 2 keeps |x| and eta = 3 doubles it.  The noise radius,
        # whose square is still a normal double, is far too small to move
        # trial 1, which first passes the cutoff at row 900, in the last
        # stage, or to take the others past it
        radius = 2.0**-510
        kernel, cube = NoiseKernel(kind, radius, d), NoiseKernel("uniform-cube", radius, d)
        sched = StepSchedule(tuple(Stage(eta, steps, k) for eta, steps, k in (
            (2.0, 255, kernel), (2.0, 0, kernel), (2.0, 256, cube), (2.0, 257, kernel), (2.0, 0, cube),
            (3.0, 513, kernel),
        )))
        x0s = np.zeros((3, d))
        x0s[1, 0] = _start_beyond_at(900 - 768)
        streams = [RngStream(12, i) for i in range(3)]
        result, seen = _observed(make_quadratic(d), sched, x0s, streams)
        expected = _reference_noise(sched, streams)
        assert _bits(seen["noise"]) == _bits(expected)
        assert result.diverged.tolist() == [False, True, False]
        _, tab = _streamed(tmp_path / "t.npy", make_quadratic(d), sched, x0s, streams)
        for i in range(3):
            omegas = result.trajectory(i).omegas
            assert len(omegas) == (901 if i == 1 else 1282)
            assert _bits(omegas) == _bits(expected[: len(omegas), i])
            norms = np.linalg.norm(omegas, axis=1)
            assert _bits(tab["noise_norm"][tab["trial"] == i]) == _bits(norms)
            # every drawn row has a positive norm, which scaling would move
            assert (norms[:-1] > 0.0).all() or kind == "zero"
        # one stage of each length, run and observed
        for steps in (0, 255, 256, 257, 513):
            _run_both(make_quadratic(d), StepSchedule((Stage(0.01, steps, NoiseKernel(kind, 2.0, d)),)),
                      np.ones((3, d)), seed=12)

    def test_dimension_mismatch(self, spiky_default):
        sched = _zero_schedule(0.1, 10, d=2)
        with pytest.raises(ValueError):
            sgd_run(spiky_default, sched, [1.0, 1.0], RngStream(0))


class TestShadowCheck:
    """The vectorized check against the per-step reference loop.  Checking
    against a perturbed landscape makes the residuals nonzero."""

    def _cases(self, d):
        params = SpikyParams(dimension=d)
        obj = make_spiky(params)
        other = make_spiky(SpikyParams(amp=0.9, dimension=d))
        staged = StepSchedule(
            (
                Stage(0.01, 200, NoiseKernel("uniform-ball", 2.0, d)),
                Stage(0.005, 200, NoiseKernel("uniform-cube", 1.0, d)),
            )
        )
        traj = sgd_run(obj, staged, np.ones(d), RngStream(41, 1000))
        diverged = gd_run(make_quadratic(d), 3.0, 200, np.ones(d))
        poisoned = replace(traj, xs=traj.xs.copy())
        # a NaN iterate gives a NaN shadow row, whose residuals are skipped,
        # as in the loop
        poisoned.xs[5] = np.nan
        return [
            (poisoned, other),
            (traj, obj),
            (traj, other),
            (traj, make_quadratic(d)),
            (diverged, make_quadratic(d)),
            (diverged, obj),
            (gd_run(obj, 0.01, 1, np.ones(d)), other),
        ]

    def test_exact_in_1d(self):
        for traj, obj in self._cases(1):
            assert shadow_check(traj, obj) == _shadow_check_loop(traj, obj)

    def test_within_4_ulp_in_2d(self):
        # np.linalg.norm(axis=1) sums in a different order than the 1-d norm
        for traj, obj in self._cases(2):
            loop = _shadow_check_loop(traj, obj)
            assert abs(shadow_check(traj, obj) - loop) <= 4 * np.spacing(loop)


class TestRecord:
    """A `Trajectory` is one trial's iterates and the noise its run drew,
    copied by `sgd_run`'s observer; its shadow rows and columns are
    derived where they are read."""

    def test_sgd_run_makes_one_generator(self, monkeypatch):
        # one gradient row per step and row T's, which the record's
        # observer is handed; no f value, as no column is derived
        made = []
        generator = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda stream: made.append(stream) or generator(stream))
        obj = make_spiky(SpikyParams(dimension=2))
        rows, values = [], []
        obj = replace(obj, grad=lambda xs, grad=obj.grad: rows.append(len(xs)) or grad(xs),
                      value=lambda xs, value=obj.value: values.append(len(xs)) or value(xs))
        sched = StepSchedule((
            Stage(0.1, 300, NoiseKernel("uniform-ball", 1.0, 2)),
            Stage(0.05, 0, NoiseKernel("uniform-cube", 1.0, 2)),
            Stage(0.05, 130, NoiseKernel("uniform-cube", 1.0, 2)),
        ))
        traj = sgd_run(obj, sched, [1.0, -0.5], RngStream(8, 3))
        assert made == [RngStream(8, 3)]
        assert sum(rows) == len(traj) == sched.total_steps + 1 and set(rows) == {1}
        assert values == []

    def test_y_history_is_the_ensemble_rows_bitwise(self):
        # a record is its trial's rows and noise bit for bit, so its shadow
        # rows are the ensemble's; a record ends at its first row beyond
        # the cutoff
        result, seen = self._expanding_run()
        for i, end in enumerate([21, 41, 31]):
            self._check_trajectory(result, seen, i, end)
        # a negative index is the trial it counts back to, noise included
        assert _bits(result.trajectory(-1).omegas) == _bits(result.trajectory(2).omegas)
        # the spiky gradient in 2-d, over two stages
        obj = make_spiky(SpikyParams(dimension=2))
        sched = StepSchedule((
            Stage(0.1, 150, NoiseKernel("uniform-cube", 1.0, 2)),
            Stage(0.05, 150, NoiseKernel("uniform-ball", 0.5, 2)),
        ))
        result, seen = _observed(obj, sched, np.ones((3, 2)), [RngStream(9, i) for i in range(3)])
        for i in range(result.n_trials):
            self._check_trajectory(result, seen, i, 301)

    def _expanding_run(self):
        # |x_t| = 2**t |x_0|: trial 0 passes the cutoff at row 20 and trial
        # 2 at row 30, while trial 1 sits at the minimum for all 41 rows
        streams = [RngStream(8, i) for i in range(3)]
        return _observed(make_quadratic(1), _zero_schedule(3.0, 40), np.array([[1.0], [0.0], [1e-3]]), streams)

    @staticmethod
    def _check_trajectory(result, seen, i, end):
        traj = result.trajectory(i)
        assert len(traj) == end and traj.diverged == result.diverged[i]
        assert _bits(traj.xs) == _bits(result.x_hist[:end, i])
        assert _bits(traj.omegas) == _bits(seen["noise"][:end, i])
        ys = shadow_rows(result.objective, result.schedule, result.x_hist)
        assert _bits(shadow_rows(traj.objective, traj.schedule, traj.xs)) == _bits(ys[:end, i])


def _whole_record_csv(traj, path):
    """Reference: `write_csv` as one `write_csv_columns` call over the
    whole record's columns."""
    xs = {f"x_{i}": x for i, x in enumerate(traj.xs.T)}
    stage_idx = _per_step(traj.schedule)[1][: len(traj)]
    write_csv_columns(path, {"t": range(len(traj)), "stage": stage_idx, **xs, **traj.columns()})


def _shadow_check_whole(traj, obj):
    """Reference: `shadow_check` over the whole shadow history at once."""
    etas = _per_step(traj.schedule)[0][: len(traj)]
    t = np.flatnonzero(etas[1:] == etas[:-1])
    ys = shadow_rows(traj.objective, traj.schedule, traj.xs)
    eta = etas[t, None]
    inner = ys[t] - eta * traj.omegas[t]
    predicted = inner - eta * obj.grads_at(inner)
    residuals = np.linalg.norm(ys[t + 1] - predicted, axis=1)
    return float(np.fmax.reduce(residuals, initial=0.0))


def _traced_peak(call):
    """Peak bytes that tracemalloc sees allocated while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedPasses:
    """The passes that derive rows from a history read it in chunks; each
    gives the bits of the same pass over the whole history at once."""

    # 4 trials make _TABLE_ROWS // 4 steps per shadow chunk
    PER = _TABLE_ROWS // 4

    @pytest.mark.parametrize("rows", [PER - 1, PER, PER + 1])
    @pytest.mark.parametrize("d", [1, 3])
    def test_y_dist2_history_is_the_whole_history_formula(self, d, rows):
        obj = make_spiky(SpikyParams(dimension=d))
        sched = StepSchedule((Stage(0.05, rows - 1, NoiseKernel("uniform-ball", 2.0, d)),))
        x0s = np.linspace(-3.0, 3.0, 4 * d).reshape(4, d)
        result = lockstep_run(obj, sched, x0s, [RngStream(12, i) for i in range(4)])
        self._check_y_dist2(result, obj.target)

    def test_y_dist2_history_of_a_trial_frozen_at_inf(self):
        # eta = 1e308 on x^2/2: the trial from 2 freezes at -inf (its
        # shadow row is NaN), the ones from 1 and 1e-300 beyond the cutoff
        # (an inf distance), and the one at 0 stays there
        sched = StepSchedule((Stage(1e308, 6, NoiseKernel("zero", 0.0, 1)),))
        x0s = np.array([[2.0], [1.0], [0.0], [1e-300]])
        result = lockstep_run(make_quadratic(1), sched, x0s, [RngStream(13, i) for i in range(4)])
        assert result.diverged.tolist() == [True, True, False, True]
        assert np.isneginf(result.x_hist[-1, 0, 0])
        d2 = self._check_y_dist2(result, [0.0])
        assert np.isnan(d2[-1, 0]) and np.isinf(d2[-1, [1, 3]]).all() and d2[-1, 2] == 0.0

    @staticmethod
    def _check_y_dist2(result, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d2 = result.y_dist2_history(target)
        diff = shadow_rows(result.objective, result.schedule, result.x_hist) - np.asarray(target, dtype=float)
        assert _bits(d2) == _bits(np.einsum("tnd,tnd->tn", diff, diff))
        return d2

    # with 64 rows per chunk the chunks are [0, 64), [63, 127), ...: a first
    # stage of s steps puts the stage edge at the pair (s - 1, s), the last
    # pair of the first chunk for s = 63 and the first of the second for 64
    @pytest.mark.parametrize("steps", [62, 63, 64, 65])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("poison", [None, "nan", "kick"])
    def test_shadow_check_is_the_whole_history_formula(self, monkeypatch, steps, d, poison):
        monkeypatch.setattr(optimizer_module, "_TABLE_ROWS", 64)
        obj = make_spiky(SpikyParams(dimension=d))
        other = make_spiky(SpikyParams(amp=0.9, dimension=d))
        sched = StepSchedule((
            Stage(0.01, steps, NoiseKernel("uniform-ball", 2.0, d)),
            Stage(0.005, 150, NoiseKernel("uniform-cube", 1.0, d)),
        ))
        traj = sgd_run(obj, sched, np.ones(d), RngStream(42, steps))
        # row 63 is the one both chunks hold: a NaN there gives NaN
        # residuals, skipped, and a kick there the largest residual, at
        # the pair (63, 64) that only the second chunk holds whole
        if poison == "nan":
            traj = replace(traj, xs=traj.xs.copy())
            traj.xs[63] = np.nan
        elif poison == "kick":
            traj = replace(traj, omegas=traj.omegas.copy())
            traj.omegas[63] += 1.0
        for check in (obj, other):
            residual = shadow_check(traj, check)
            assert residual == _shadow_check_whole(traj, check)
        assert residual > 0.0
        # against its own objective only the kicked pair leaves a residual;
        # at steps = 64 that pair is the stage edge
        assert (shadow_check(traj, obj) > 0.0) == (poison == "kick" and steps != 64)

    def test_shadow_check_across_full_size_chunks(self, quadratic_1d):
        # the stage edge is the pair (4095, 4096), the first pair of the
        # second chunk [4095, 8191)
        sched = StepSchedule((
            Stage(0.01, _TABLE_ROWS, NoiseKernel("uniform-ball", 0.5, 1)),
            Stage(0.02, 500, NoiseKernel("uniform-ball", 0.5, 1)),
        ))
        traj = sgd_run(quadratic_1d, sched, [1.0], RngStream(43, 0))
        other = make_quadratic(1, 1.5)
        assert shadow_check(traj, other) == _shadow_check_whole(traj, other) > 0.0

    def test_write_csv_peak_memory(self, tmp_path, spiky_default):
        # whole-record columns peak at about 1.4 MiB here
        rows = 30_000
        rng = np.random.default_rng(14)
        traj = Trajectory(
            spiky_default, rng.uniform(-3.0, 3.0, (rows, 1)), rng.uniform(-2.0, 2.0, (rows, 1)),
            _zero_schedule(0.01, rows - 1),
        )
        peak = _traced_peak(lambda: traj.write_csv(tmp_path / "long.csv"))
        assert peak < 2**20

    def test_y_dist2_history_peak_memory(self):
        steps, n, d = 2001, 100, 3
        x_hist = np.random.default_rng(15).uniform(-3.0, 3.0, (steps, n, d))
        result = EnsembleResult(
            make_spiky(SpikyParams(dimension=d)), x_hist, x_hist[0].copy(),
            tuple(RngStream(15, i) for i in range(n)), _zero_schedule(0.05, steps - 1, d),
            np.zeros(n, dtype=bool), x_hist[-1].copy(),
        )
        peak = _traced_peak(lambda: result.y_dist2_history(np.zeros(d)))
        assert peak < steps * n * 8 + 2**20


def _run_both(obj, schedule, x0s, seed=5):
    """(lockstep_run, reference) on the same streams, checked field by
    field for bitwise equality, NaN equal to NaN, with the rows its
    observer is handed: the iterates and noise against the reference's,
    and the gradients, which step the reference's shadow rows up to each
    record's end.  A finals-only run on the same streams must give the
    same finals, flags and observed rows, and both keep the schedule
    they ran."""
    x0s = np.asarray(x0s, dtype=float)
    streams = [RngStream(seed, 1000 + i) for i in range(len(x0s))]
    got, seen = _observed(obj, schedule, x0s, streams)
    # the reference's frozen non-finite trials warn at every step
    with np.errstate(all="ignore"):
        ref, ref_y, ref_noise = _reference_lockstep(obj, schedule, x0s, streams)
        ys = got.x_hist - _per_step(schedule)[0][:, None, None] * seen["grads"]
    for field in ("x_hist", "diverged", "finals_x"):
        assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), field
    assert _bits(seen["xs"]) == _bits(ref.x_hist) and _bits(seen["noise"]) == _bits(ref_noise)
    recorded = np.arange(len(ys))[:, None] < seen["ends"]
    assert _bits(ys[recorded]) == _bits(ref_y[recorded])
    assert got.schedule is ref.schedule and got.streams == ref.streams
    assert _bits(got.x0s) == _bits(x0s) and got.x0s is not x0s
    # deriving the shadow rows of frozen non-finite trials must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d2 = got.y_dist2_history(np.zeros(x0s.shape[1]))
    with np.errstate(all="ignore"):
        assert _bits(d2) == _bits(np.einsum("tnd,tnd->tn", ref_y, ref_y))
    finals, finals_seen = _observed(obj, schedule, x0s, streams, keep_history=False)
    assert finals.x_hist is None and finals.streams == got.streams
    assert _bits(finals.x0s) == _bits(got.x0s)
    for field in ("finals_x", "diverged"):
        assert _bits(getattr(finals, field)) == _bits(getattr(got, field)), field
    for name in ("xs", "noise", "grads", "ends"):
        assert _bits(finals_seen[name]) == _bits(seen[name]), name
    assert finals.schedule is got.schedule
    return got


def _first_beyond(result, i):
    """Row at which trial i first fails the divergence predicate, or None:
    the last row of its record."""
    return len(result.trajectory(i)) - 1 if result.diverged[i] else None


# 130 steps make rows 0..130: blocks [0, 64), [64, 128) and [128, 131)
LAST_ROW = 130


def _expanding(eta=3.0, steps=LAST_ROW, d=1, radius=2.0**-300):
    """A quadratic run at eta = 3, where each step doubles |x| (the noise
    is far too small to matter)."""
    kernel = NoiseKernel("uniform-ball", radius, d)
    return make_quadratic(d), StepSchedule((Stage(eta, steps, kernel),))


def _start_beyond_at(k):
    """A 1-d start whose iterate under `_expanding` first exceeds the
    cutoff at row k: |x_k| = 1.5e6, |x_{k-1}| = 7.5e5."""
    return 1.5e6 * 2.0**-k


class TestBlockwiseDivergence:
    """`lockstep_run` checks divergence once per block of rows; every
    field must equal the per-step reference bit for bit."""

    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("k", [0, 63, 64, 65, LAST_ROW])
    def test_first_divergence_at_row(self, k, n):
        obj, sched = _expanding()
        gen = np.random.Generator(np.random.Philox(key=[91, k]))
        # the other trials stay far below the cutoff
        x0s = gen.uniform(-1, 1, size=(n, 1)) * 2.0**-200
        x0s[n // 2, 0] = _start_beyond_at(k)
        result = _run_both(obj, sched, x0s)
        assert _first_beyond(result, n // 2) == k
        assert result.diverged.sum() == 1

    @pytest.mark.parametrize("start", [np.inf, -np.inf, np.nan])
    def test_non_finite_start(self, spiky_default, start):
        kernel = NoiseKernel("uniform-ball", 2.0, 1)
        sched = StepSchedule((Stage(0.01, 100, kernel),))
        x0s = np.linspace(-2, 2, 40)[:, None]
        x0s[[0, 21]] = start
        result = _run_both(spiky_default, sched, x0s)
        assert np.flatnonzero(result.diverged).tolist() == [0, 21]
        assert len(result.trajectory(0)) == len(result.trajectory(21)) == 1

    def test_mixed_rows_across_blocks(self):
        obj, sched = _expanding()
        rows = [0, 1, 30, 62, 63, 64, 65, 100, 127, 128, 129, LAST_ROW]
        # the last start reaches exactly 1e6 at row 40, which is not beyond
        x0s = np.array([[_start_beyond_at(k)] for k in rows] + [[0.0], [2.0**-200], [1e6 * 2.0**-40]])
        result = _run_both(obj, sched, x0s)
        assert result.x_hist[40, -1, 0] == 1e6
        assert [_first_beyond(result, i) for i in range(len(x0s))] == rows + [None, None, 41]

    def test_predicate_matches_reference(self):
        edge = [1e6, -1e6, np.nextafter(1e6, np.inf), -np.nextafter(1e6, np.inf),
                np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0]
        xs = np.array(np.meshgrid(edge, edge)).reshape(2, -1).T
        assert np.array_equal(_bounded(xs), _bounded_reference(xs))
        assert np.array_equal(_bounded(xs[:, :1]), _bounded_reference(xs[:, :1]))

    def test_stage_change_inside_a_block(self):
        # the stage changes at row 100, inside block [64, 128); after it
        # each step multiplies |x| by 1.5 instead of 2
        kernel = NoiseKernel("uniform-ball", 2.0**-300, 1)
        sched = StepSchedule((Stage(3.0, 100, kernel), Stage(2.5, 40, kernel)))
        x0s = 1.2e6 * 2.0**-100 * 1.5 ** -np.arange(0, 40, 3.0)[:, None]
        result = _run_both(make_quadratic(1), sched, x0s)
        first = [_first_beyond(result, i) for i in range(len(x0s))]
        assert first[0] == 100
        assert any(100 < k < 128 for k in first)
        assert any(k >= 128 for k in first)

    def test_noisy_spiky_ensemble(self, spiky_default):
        # eta = 2.5 expands the quadratic part: trials leave at noise-driven rows
        kernel = NoiseKernel("uniform-ball", 1.0, 1)
        sched = StepSchedule((Stage(2.5, 200, kernel),))
        x0s = np.linspace(-3, 3, 40)[:, None]
        result = _run_both(spiky_default, sched, x0s, seed=17)
        # many trials leave inside one block, each at its own row
        assert result.diverged.all()
        assert len({_first_beyond(result, i) for i in range(40)}) > 5

    def test_two_dimensions(self):
        obj, sched = _expanding(d=2)
        x0s = np.array([
            [_start_beyond_at(63), 0.5 * 2.0**-100],
            [-0.25 * 2.0**-100, -_start_beyond_at(65)],
            [_start_beyond_at(64), _start_beyond_at(64)],
            [2.0**-200, 0.0],
            [np.nan, 1.0],
        ])
        result = _run_both(obj, sched, x0s)
        assert [_first_beyond(result, i) for i in range(5)] == [63, 65, 64, None, 0]

    def test_two_dimensions_noisy_spiky(self):
        obj = make_spiky(SpikyParams(dimension=2))
        sched = StepSchedule((
            Stage(0.01, 90, NoiseKernel("uniform-ball", 2.0, 2)),
            Stage(2.5, 60, NoiseKernel("uniform-cube", 1.0, 2)),
        ))
        x0s = np.random.Generator(np.random.Philox(key=[92, 0])).uniform(-3, 3, size=(40, 2))
        result = _run_both(obj, sched, x0s, seed=18)
        # every trial leaves in the second stage, at rows spread over a block
        assert result.diverged.all()
        assert len({_first_beyond(result, i) for i in range(40)}) > 3

    def test_overflow_past_the_cutoff_is_not_reported(self):
        # row 1 is -1e100; stepped on, the trial overflows at row 4 and
        # turns NaN at row 5, all inside the first block
        obj = make_quadratic(1)
        sched = _zero_schedule(1e100, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lockstep_run(obj, sched, np.ones((1, 1)), [RngStream(0)])
            lockstep_run(obj, sched, np.ones((1, 1)), [RngStream(0)], keep_history=False)
            traj = sgd_run(obj, sched, [1.0])
        result = _run_both(obj, sched, np.ones((1, 1)))
        assert _bits(got.x_hist) == _bits(result.x_hist)
        assert _first_beyond(result, 0) == 1
        assert traj.diverged and len(traj) == 2
        assert np.all(result.x_hist[1:, 0, 0] == -1e100)


class _CountedGenerator:
    """A generator that counts how many of its kind are alive, and records
    that count in `seen` at each draw it makes."""

    def __init__(self, gen, live, seen):
        self._gen, self._live, self._seen = gen, live, seen
        live.append(None)

    def __getattr__(self, name):
        self._seen.append(len(self._live))
        return getattr(self._gen, name)

    def __del__(self):
        self._live.pop()


class _CountedStream:
    def __init__(self, stream, live, seen):
        self._stream, self._live, self._seen = stream, live, seen

    def generator(self):
        return _CountedGenerator(self._stream.generator(), self._live, self._seen)


def _listed_pieces(schedule):
    """The pieces (stage, p0, p1) of a run, as `lockstep_run` once listed
    them whole before stepping, none for a 0-step stage: the reference
    for `_pieces`."""
    pieces = []
    t0 = 0
    for stage in schedule.stages:
        size = _NOISE_ROWS if stage.kernel.splits_by_row else max(1, stage.steps)
        end = t0 + stage.steps
        pieces += [(stage, p0, min(p0 + size, end)) for p0 in range(t0, end, size)]
        t0 = end
    return pieces


def _draws(monkeypatch, obj, schedule, x0s):
    """Row counts of each trial's draws in the `sample_trials` calls a run
    on the streams of `_run_both` makes, in call order, the same with and
    without history."""
    sample_trials = NoiseKernel.sample_trials
    streams = [RngStream(5, 1000 + i) for i in range(len(x0s))]
    runs = []
    for keep_history in (False, True):
        sizes = []

        def counted(kernel, gens, out):
            sizes.extend([out.shape[1]] * out.shape[0])
            return sample_trials(kernel, gens, out)

        monkeypatch.setattr(NoiseKernel, "sample_trials", counted)
        lockstep_run(obj, schedule, np.asarray(x0s, dtype=float), streams, keep_history)
        monkeypatch.setattr(NoiseKernel, "sample_trials", sample_trials)
        runs.append(sizes)
    assert runs[0] == runs[1]
    return runs[0]


class TestFinalsOnly:
    """`keep_history=False` keeps the finals and flags of a history run,
    bit for bit, on stage layouts that move the block edges; `_run_both`
    checks each case against the per-step reference too.  Either run
    draws a stage's noise `_NOISE_ROWS` rows at a time where the kernel
    splits by row and the whole stage at once for the d > 1 ball; the
    tests with `small_pieces` patch `_NOISE_ROWS` to `ROWS`."""

    ROWS = 128

    @pytest.fixture
    def small_pieces(self, monkeypatch):
        monkeypatch.setattr(optimizer_module, "_NOISE_ROWS", self.ROWS)

    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("layout", ["middle", "last", "both"])
    def test_zero_step_stages(self, spiky_default, layout, n):
        ball = NoiseKernel("uniform-ball", 2.0, 1)
        stages = [Stage(0.01, 90, ball), Stage(0.5, 0, ball),
                  Stage(2.5, 50, NoiseKernel("uniform-ball", 1.0, 1)), Stage(0.02, 0, ball)]
        if layout == "middle":
            stages = stages[:3]
        elif layout == "last":
            stages = [stages[0], stages[2], stages[3]]
        x0s = np.linspace(-3, 3, n)[:, None]
        result = _run_both(spiky_default, StepSchedule(tuple(stages)), x0s, seed=19)
        # the final row belongs to the last stage, even a 0-step one
        total = result.schedule.total_steps
        (last,) = result.schedule.row_stages(total, total + 1)
        assert last == len(stages) - 1 and stages[last].eta == stages[-1].eta
        # eta = 2.5 expands the quadratic part: every trial leaves in it
        assert result.diverged.all()

    def test_three_stage_uniform_ball_2d(self):
        obj = make_spiky(SpikyParams(dimension=2))
        sched = StepSchedule(tuple(
            Stage(eta, steps, NoiseKernel("uniform-ball", r, 2))
            for eta, steps, r in ((0.2, 100, 3.1416), (0.1, 150, 3.1), (0.04, 200, 2.0))
        ))
        x0s = np.random.Generator(np.random.Philox(key=[93, 0])).uniform(-3, 3, size=(40, 2))
        x0s[7] = [1.5e6, 0.0]
        result = _run_both(obj, sched, x0s, seed=20)
        assert np.flatnonzero(result.diverged).tolist() == [7]

    def test_history_methods_raise(self, spiky_default):
        # a finals-only run replays any trial; only the shadow distances
        # read the history it did not keep
        kernel = NoiseKernel("uniform-ball", 2.0, 1)
        sched = StepSchedule((Stage(0.01, 30, kernel),))
        x0s = np.linspace(-1.0, 1.0, 3)[:, None]
        streams = [RngStream(4, i) for i in range(3)]
        result = lockstep_run(spiky_default, sched, x0s, streams, keep_history=False)
        assert result.n_trials == 3 and result.finals_x.shape == (3, 1)
        # the starts are a copy: changing the caller's array changes no replay
        x0s[:] = 5.0
        for i in range(3):
            traj = result.trajectory(i)
            ref = sgd_run(spiky_default, sched, np.linspace(-1.0, 1.0, 3)[i], streams[i])
            assert _bits(traj.xs) == _bits(ref.xs) and _bits(traj.omegas) == _bits(ref.omegas)
            assert _bits(traj.final_x) == _bits(result.finals_x[i])
        with pytest.raises(ValueError, match="kept no history"):
            result.y_dist2_history(spiky_default.target)

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_one_generator_per_trial_while_its_stages_last(self, monkeypatch, keep_history):
        # the 1-d ball draws once per trial and piece, and each draw records
        # how many generators are alive as that trial's is used
        live, seen = [], []
        kernel = NoiseKernel("uniform-ball", 2.0, 1)
        streams = [_CountedStream(RngStream(6, i), live, seen) for i in range(5)]
        one = StepSchedule((Stage(0.01, 30, kernel),))
        lockstep_run(make_spiky(SpikyParams()), one, np.zeros((5, 1)), streams, keep_history)
        # a one-stage run holds one generator at each draw, and so does one
        # whose last stage takes no step
        assert seen == [1] * 5 and live == []
        seen.clear()
        then_none = StepSchedule((Stage(0.01, 30, kernel), Stage(0.02, 0, kernel)))
        lockstep_run(make_spiky(SpikyParams()), then_none, np.zeros((5, 1)), streams, keep_history)
        assert seen == [1] * 5 and live == []
        seen.clear()
        three = StepSchedule((Stage(0.01, 30, kernel),) * 3)
        lockstep_run(make_spiky(SpikyParams()), three, np.zeros((5, 1)), streams, keep_history)
        # the first stage creates them, the last drops each after its draw
        assert seen == [1, 2, 3, 4, 5] + [5] * 5 + [5, 4, 3, 2, 1] and live == []
        seen.clear()
        monkeypatch.setattr(optimizer_module, "_NOISE_ROWS", self.ROWS)
        long = StepSchedule((Stage(0.01, 3 * self.ROWS, kernel),))
        lockstep_run(make_spiky(SpikyParams()), long, np.zeros((5, 1)), streams, keep_history)
        # its three pieces share one generator per trial
        assert seen == [1, 2, 3, 4, 5] + [5] * 5 + [5, 4, 3, 2, 1]
        assert live == []

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_zero_stages_make_no_generator(self, monkeypatch, tmp_path, keep_history):
        made = []
        generator = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda stream: made.append(stream) or generator(stream))
        zero, cube = NoiseKernel("zero", 0.0, 1), NoiseKernel("uniform-cube", 1.0, 1)
        streams = [RngStream(7, i) for i in range(5)]
        x0s = np.zeros((5, 1))
        zeros = StepSchedule((Stage(0.1, 300, zero), Stage(0.05, 20, zero)))
        result, _ = _streamed(tmp_path / "t.npy", make_quadratic(1), zeros, x0s, streams, keep_history)
        if keep_history:
            result.trajectory(0)
        assert made == []
        # a generator made at the cube stage's first draw starts where one
        # made before the zero stage would be: the stream's first draw
        mixed = StepSchedule((Stage(0.1, 300, zero), Stage(0.05, 20, cube)))
        result = _run_both(make_quadratic(1), mixed, x0s, seed=7)
        made.clear()
        lockstep_run(make_quadratic(1), mixed, x0s, streams, keep_history)
        assert made == streams
        if keep_history:
            made.clear()
            result.trajectory(3)
            assert made == [RngStream(7, 1003)]

    @pytest.mark.parametrize("keep_history", [True, False])
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_zero_step_stage_draws_nothing(self, monkeypatch, tmp_path, at, keep_history):
        # a 0-step cube stage among zero stages: no generator and no
        # `sample_trials` call, in the run, its table or the replay
        made, drawn = [], []
        generator, sample_trials = RngStream.generator, NoiseKernel.sample_trials
        monkeypatch.setattr(RngStream, "generator", lambda stream: made.append(stream) or generator(stream))
        monkeypatch.setattr(NoiseKernel, "sample_trials",
                            lambda kernel, gens, out: drawn.append(out.shape) or sample_trials(kernel, gens, out))
        zero = NoiseKernel("zero", 0.0, 1)
        stages = [Stage(0.1, 40, zero), Stage(0.05, 30, zero)]
        stages.insert(["first", "middle", "last"].index(at), Stage(0.2, 0, NoiseKernel("uniform-cube", 1.0, 1)))
        streams = [RngStream(5, i) for i in range(4)]
        sched = StepSchedule(tuple(stages))
        result, _ = _streamed(tmp_path / "t.npy", make_quadratic(1), sched, np.ones((4, 1)), streams, keep_history)
        if keep_history:
            result.trajectory(0)
        assert made == [] and drawn == []

    @pytest.mark.parametrize("keep_history", [True, False])
    @pytest.mark.parametrize("steps", [(0,), (1,), (_BLOCK,), (130, 0, 300), (0, 2 * _NOISE_ROWS)])
    def test_takes_exactly_T_steps(self, keep_history, steps):
        # n gradient rows per step, none for a step that would leave the
        # final iterate
        rows = []
        obj = make_spiky(SpikyParams(dimension=2))
        obj = replace(obj, grad=lambda xs, grad=obj.grad: rows.append(len(xs)) or grad(xs))
        sched = StepSchedule(tuple(Stage(0.01, m, NoiseKernel("uniform-ball", 0.5, 2)) for m in steps))
        lockstep_run(obj, sched, np.ones((3, 2)), [RngStream(2, i) for i in range(3)], keep_history)
        assert sum(rows) == 3 * sched.total_steps and set(rows) <= {3}

    @pytest.mark.parametrize("flat, steps", [
        (0, 0), (0, 1), (0, _BLOCK), (0, 2 * _BLOCK), (0, LAST_ROW),
        (_TABLE_ROWS - 1 - LAST_ROW, LAST_ROW), (_TABLE_ROWS - LAST_ROW, LAST_ROW),
    ])
    def test_final_noise_row_is_zero(self, tmp_path, flat, steps):
        # on x^2/2, eta = 2 keeps |x| and eta = 3 doubles it (the noise is
        # far too small to matter), so trial 0 first passes the cutoff at
        # the final row T = flat + steps, and only there
        kernel = NoiseKernel("uniform-ball", 2.0**-300, 1)
        sched = StepSchedule((Stage(2.0, flat, kernel), Stage(3.0, steps, kernel)))
        total = flat + steps
        x0s = np.array([[_start_beyond_at(steps)], [2.0**-400], [0.0]])
        streams = [RngStream(29, i) for i in range(3)]
        result = lockstep_run(make_quadratic(1), sched, x0s, streams)
        finals, tab = _streamed(tmp_path / "t.npy", make_quadratic(1), sched, x0s, streams)
        assert result.diverged.tolist() == finals.diverged.tolist() == [True, False, False]
        assert _bits(result.finals_x) == _bits(finals.finals_x) == _bits(result.x_hist[-1])
        assert abs(result.x_hist[-1, 0, 0]) == 1.5e6 and len(result.trajectory(0)) == total + 1
        for i in range(3):
            omegas = result.trajectory(i).omegas
            norms = tab["noise_norm"][tab["trial"] == i]
            assert len(omegas) == len(norms) == total + 1
            assert omegas[-1].tolist() == [0.0] and norms[-1] == 0.0
            assert (norms[:-1] > 0.0).all()

    @pytest.mark.usefixtures("small_pieces")
    @pytest.mark.parametrize("steps", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    @pytest.mark.parametrize("followed", [False, True])
    def test_stage_lengths_around_a_piece(self, monkeypatch, spiky_default, steps, followed):
        ball = NoiseKernel("uniform-ball", 2.0, 1)
        stages = (Stage(0.01, steps, ball),) + ((Stage(0.05, 70, ball),) if followed else ())
        sched = StepSchedule(stages)
        x0s = np.linspace(-3.0, 3.0, 6)[:, None]
        _run_both(spiky_default, sched, x0s, seed=21)
        pieces = [self.ROWS] * (steps // self.ROWS) + [steps % self.ROWS] * (steps % self.ROWS > 0)
        if followed:
            pieces.append(70)
        assert _draws(monkeypatch, spiky_default, sched, x0s) == [
            m for m in pieces for _ in range(6)
        ]

    @pytest.mark.usefixtures("small_pieces")
    @pytest.mark.parametrize("layout", ["middle", "last", "both"])
    def test_zero_step_stages_in_pieces(self, monkeypatch, spiky_default, layout):
        ball = NoiseKernel("uniform-ball", 2.0, 1)
        stages = [Stage(0.01, 300, ball), Stage(0.5, 0, ball), Stage(0.02, 2 * self.ROWS, ball),
                  Stage(0.03, 0, ball)]
        if layout == "middle":
            stages = stages[:3]
        elif layout == "last":
            stages = [stages[0], stages[2], stages[3]]
        sched = StepSchedule(tuple(stages))
        x0s = np.linspace(-3.0, 3.0, 4)[:, None]
        result = _run_both(spiky_default, sched, x0s, seed=22)
        total = result.schedule.total_steps
        assert result.schedule.row_stages(total, total + 1).tolist() == [len(stages) - 1]
        # a 0-step stage makes no draw
        draws = _draws(monkeypatch, spiky_default, sched, x0s)[::4]
        pieces = {300: [128, 128, 44], 256: [128, 128], 0: []}
        assert draws == [m for stage in stages for m in pieces[stage.steps]]

    @pytest.mark.usefixtures("small_pieces")
    def test_divergence_inside_a_later_piece(self):
        # each step doubles |x|: the trials first pass the cutoff at rows
        # 127, 128, 129 and 300, in the first, second, second and third
        # piece of rows 0..316; the last stays far below it
        obj, sched = _expanding(steps=2 * self.ROWS + 60)
        x0s = np.array([[_start_beyond_at(k)] for k in (127, 128, 129, 300)] + [[2.0**-400]])
        result = _run_both(obj, sched, x0s)
        assert [_first_beyond(result, i) for i in range(5)] == [127, 128, 129, 300, None]

    @pytest.mark.usefixtures("small_pieces")
    def test_cube_3d_draws_in_pieces(self, monkeypatch):
        obj = make_spiky(SpikyParams(dimension=3))
        sched = StepSchedule(tuple(
            Stage(eta, steps, NoiseKernel("uniform-cube", r, 3))
            for eta, steps, r in ((0.2, 200, 3.1416), (0.1, 129, 3.1), (0.04, 256, 2.0))
        ))
        x0s = np.random.Generator(np.random.Philox(key=[94, 0])).uniform(-3, 3, size=(20, 3))
        x0s[3] = [0.0, -1.5e6, 0.0]
        result = _run_both(obj, sched, x0s, seed=23)
        assert np.flatnonzero(result.diverged).tolist() == [3]
        draws = _draws(monkeypatch, obj, sched, x0s)[::20]
        assert draws == [128, 72, 128, 1, 128, 128]

    @pytest.mark.usefixtures("small_pieces")
    def test_ball_2d_draws_whole_stages(self, monkeypatch):
        obj = make_spiky(SpikyParams(dimension=2))
        sched = StepSchedule(tuple(
            Stage(eta, steps, NoiseKernel("uniform-ball", r, 2))
            for eta, steps, r in ((0.2, 300, 3.1416), (0.04, 129, 2.0))
        ))
        x0s = np.random.Generator(np.random.Philox(key=[95, 0])).uniform(-3, 3, size=(20, 2))
        _run_both(obj, sched, x0s, seed=24)
        assert _draws(monkeypatch, obj, sched, x0s)[::20] == [300, 129]

    def test_long_run_keeps_nothing_per_step(self):
        # 2 trials x 200,000 steps in 1-d: the noise buffer is 2 x 256
        # float64 and the run peaks at about 13 KB, while a per-step eta and
        # stage would be 3.2 MB and a list of its 782 pieces about 118 KB
        kernel = NoiseKernel("uniform-ball", 0.5, 1)
        streams = [RngStream(10, i) for i in range(2)]

        def run(steps):
            sched = StepSchedule((Stage(0.1, steps, kernel),))
            return lockstep_run(make_quadratic(1), sched, np.ones((2, 1)), streams, keep_history=False)

        run(10)  # one-time allocations of a first call are not the run's
        assert _traced_peak(lambda: run(200_000)) < 2**16

    @pytest.mark.parametrize("keep_history", [False, True])
    @pytest.mark.parametrize("steps", [
        (5,), (0,), (0, 0), (0, 7), (7, 0), (0, 300, 0), (300, 0, 256), (256, 513), (1, 0, 0, 1),
    ])
    @pytest.mark.parametrize("kind, d", [("uniform-ball", 1), ("uniform-cube", 3), ("uniform-ball", 2)])
    def test_pieces_are_the_listed_ones(self, monkeypatch, kind, d, steps, keep_history):
        # the pieces are yielded stage by stage; they must be the list the
        # run used to build whole before stepping, and a run with or
        # without history must draw them, the final row drawn by none
        sched = StepSchedule(tuple(Stage(0.01, m, NoiseKernel(kind, 1.0, d)) for m in steps))
        listed = _listed_pieces(sched)
        assert list(optimizer_module._pieces(sched)) == listed
        drawn = []
        sample_trials = NoiseKernel.sample_trials

        def counted(kernel, gens, out):
            drawn.append(out.shape)
            return sample_trials(kernel, gens, out)

        monkeypatch.setattr(NoiseKernel, "sample_trials", counted)
        lockstep_run(make_quadratic(d), sched, np.ones((2, d)), [RngStream(3, i) for i in range(2)], keep_history)
        assert drawn == [(2, p1 - p0, d) for _, p0, p1 in listed]

    @pytest.mark.parametrize("steps", [_NOISE_ROWS - 1, _NOISE_ROWS, _NOISE_ROWS + 1, 2 * _NOISE_ROWS + 1])
    def test_unpatched_stage_lengths_around_a_piece(self, monkeypatch, spiky_default, steps):
        cube = NoiseKernel("uniform-cube", 2.0, 1)
        sched = StepSchedule((Stage(0.01, steps, cube),))
        x0s = np.linspace(-3.0, 3.0, 4)[:, None]
        _run_both(spiky_default, sched, x0s, seed=28)
        pieces = [_NOISE_ROWS] * (steps // _NOISE_ROWS) + [steps % _NOISE_ROWS] * (steps % _NOISE_ROWS > 0)
        assert _draws(monkeypatch, spiky_default, sched, x0s)[::4] == pieces

    def test_unpatched_pieces(self, monkeypatch, spiky_default):
        ball = NoiseKernel("uniform-ball", 2.0, 1)
        # the second stage is shorter than a piece, so it is drawn whole
        sched = StepSchedule((Stage(0.02, 2 * _NOISE_ROWS + 1, ball), Stage(0.01, 200, ball)))
        x0s = np.linspace(-3.0, 3.0, 3)[:, None]
        _run_both(spiky_default, sched, x0s, seed=25)
        draws = _draws(monkeypatch, spiky_default, sched, x0s)[::3]
        assert draws == [_NOISE_ROWS, _NOISE_ROWS, 1, 200]


class TestTableWriter:
    """`table_writer`, the observer that streams a run's table, apart
    from the records it holds (see `tests/test_expcli.py`)."""

    def _run(self, path, steps=99, trials=10):
        # on x^2/2, eta = 3 doubles |x|: trial 0 first passes the cutoff
        # at row steps - 1, so its record loses one of the n*(T+1) rows
        obj, sched = make_quadratic(1), StepSchedule((Stage(3.0, steps, NoiseKernel("zero", 0.0, 1)),))
        x0s = np.zeros((trials, 1))
        x0s[0] = _start_beyond_at(steps - 1)
        streams = [RngStream(3, i) for i in range(trials)]
        return _streamed(path, obj, sched, x0s, streams)

    def test_header_patched_when_the_count_loses_a_digit(self, tmp_path):
        result, tab = self._run(tmp_path / "t.npy")
        assert result.diverged.tolist() == [True] + [False] * 9
        assert len(tab) == 999 and tab["t"][tab["trial"] == 0].max() == 98
        # the bytes np.save writes for the rows it read back
        saved = tmp_path / "saved.npy"
        np.save(saved, tab)
        assert saved.read_bytes() == (tmp_path / "t.npy").read_bytes()

    def test_shorter_header_is_padded(self, tmp_path, monkeypatch):
        # a numpy that reserves no room for the count to grow, and pads to
        # no alignment, writes the 999-row header one byte shorter
        names = np.lib.format.write_array_header_1_0.__globals__
        if "GROWTH_AXIS_MAX_DIGITS" not in names:
            pytest.skip("this numpy reserves no room in the header")
        monkeypatch.setitem(names, "GROWTH_AXIS_MAX_DIGITS", 0)
        monkeypatch.setitem(names, "ARRAY_ALIGN", 1)
        _, tab = self._run(tmp_path / "t.npy")
        reserved = io.BytesIO()
        np.lib.format.write_array_header_1_0(reserved, {
            "descr": np.lib.format.dtype_to_descr(tab.dtype), "fortran_order": False, "shape": (1000,),
        })
        raw = (tmp_path / "t.npy").read_bytes()
        size = 10 + int.from_bytes(raw[8:10], "little")
        # the 1,000-row header's length, one alignment space and one of padding
        assert size == len(reserved.getvalue())
        assert len(tab) == 999 and raw[:size].endswith(b"(999,), }  \n")
        assert len(raw) == size + 999 * tab.dtype.itemsize

    def test_no_trials_give_an_empty_table(self, tmp_path):
        result, tab = _streamed(tmp_path / "t.npy", make_quadratic(2), _zero_schedule(0.1, 70, d=2), np.zeros((0, 2)), [])
        assert result.finals_x.shape == (0, 2) and tab.shape == (0,)

    def test_raising_run_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.npy"
        with pytest.raises(OverflowError):
            with table_writer(path, make_quadratic(1), _zero_schedule(0.1, 5), 2):
                assert path.exists()
                raise OverflowError("Range exceeds valid bounds")
        assert not path.exists()


class TestStageMap:
    """`StepSchedule.row_stages`, the one map from a run's rows to their
    stages, against one `np.repeat` over the stage lengths (`_per_step`),
    and the records that read it."""

    @pytest.mark.parametrize("steps", [
        (5,), (0,), (0, 0), (0, 7), (0, 0, 7), (7, 0, 4), (7, 0, 0, 4), (7, 0), (7, 4, 0), (3, 0, 5, 0),
    ])
    def test_is_the_per_step_repeat(self, steps):
        kernel = NoiseKernel("zero", 0.0, 1)
        sched = StepSchedule(tuple(Stage(0.1 * (k + 1), m, kernel) for k, m in enumerate(steps)))
        _, expected = _per_step(sched)
        rows = len(expected)
        assert _bits(sched.row_stages(0, rows)) == _bits(expected)
        for t0 in range(rows + 1):
            for t1 in range(t0, rows + 1):
                assert sched.row_stages(t0, t1).tolist() == expected[t0:t1].tolist()

    @staticmethod
    def _check_records(result, tmp_path):
        """Every trial's CSV is the reference writer's bytes, and the stage
        column of the table the same run streams and the shadow rows'
        distances are those of the per-step stages."""
        _, tab = _streamed(tmp_path / "t.npy", result.objective, result.schedule, result.x_hist[0], result.streams)
        _, stage_idx = _per_step(result.schedule)
        for i in range(result.n_trials):
            traj = result.trajectory(i)
            traj.write_csv(tmp_path / "new.csv")
            _reference_write_csv(traj, tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
            assert _bits(tab["stage"][tab["trial"] == i]) == _bits(stage_idx[: len(traj)])
            assert _bits(traj.xs) == _bits(result.x_hist[: len(traj), i])
        ys = shadow_rows(result.objective, result.schedule, result.x_hist)
        assert _bits(result.y_dist2_history(np.zeros(1))) == _bits(np.einsum("tnd,tnd->tn", ys, ys))

    @pytest.mark.parametrize("steps", [(0, 60), (30, 0, 40), (30, 40, 0), (0, 30, 0, 40, 0)])
    def test_records_of_zero_step_stages(self, tmp_path, spiky_default, steps):
        ball = NoiseKernel("uniform-ball", 2.0, 1)
        sched = StepSchedule(tuple(Stage(0.01 * (k + 1), m, ball) for k, m in enumerate(steps)))
        result = _run_both(spiky_default, sched, np.linspace(-2.0, 2.0, 3)[:, None], seed=26)
        self._check_records(result, tmp_path)

    def test_records_that_end_mid_stage(self, tmp_path):
        # on x^2/2, eta = 3 doubles |x| and eta = 2.5 multiplies it by 1.5:
        # the trial from 1 first passes the cutoff at row 20, inside stage
        # 0, and the one from 2**-25 at row 56, inside stage 1 (rows 30..70)
        kernel = NoiseKernel("zero", 0.0, 1)
        sched = StepSchedule((Stage(3.0, 30, kernel), Stage(2.5, 40, kernel)))
        result = _run_both(make_quadratic(1), sched, np.array([[1.0], [2.0**-25], [0.0]]))
        assert [_first_beyond(result, i) for i in range(3)] == [20, 56, None]
        self._check_records(result, tmp_path)

    def test_adjacent_equal_eta_stages(self, tmp_path, spiky_default):
        # stages 0 and 2 share eta = 0.01 across the 0-step stage 1, so rows
        # 0..179 have one eta and the pair (99, 100) that crosses their edge
        # is checked; the pair (179, 180), where eta changes, is not
        ball, cube = NoiseKernel("uniform-ball", 2.0, 1), NoiseKernel("uniform-cube", 1.0, 1)
        sched = StepSchedule((
            Stage(0.01, 100, ball), Stage(0.5, 0, ball), Stage(0.01, 80, cube), Stage(0.005, 60, ball),
        ))
        result = _run_both(spiky_default, sched, np.linspace(-2.0, 2.0, 3)[:, None], seed=27)
        self._check_records(result, tmp_path)
        traj = result.trajectory(0)
        assert shadow_check(traj, spiky_default) == 0.0
        for t, checked in ((50, True), (99, True), (100, True), (179, False)):
            kicked = replace(traj, omegas=traj.omegas.copy())
            kicked.omegas[t] += 1.0
            residual = shadow_check(kicked, spiky_default)
            assert residual == _shadow_check_loop(kicked, spiky_default)
            assert (residual > 0.0) == checked, t


class TestScheduleValidation:
    def test_empty_schedule(self):
        with pytest.raises(ValueError):
            StepSchedule(())

    def test_nonpositive_eta(self):
        for eta in (0.0, -0.1, math.nan):  # NaN fails too
            with pytest.raises(ValueError):
                Stage(eta, 10, NoiseKernel("zero", 0.0, 1))

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            Stage(0.1, -1, NoiseKernel("zero", 0.0, 1))

    def test_steps_must_be_an_integer(self):
        kernel = NoiseKernel("zero", 0.0, 1)
        # 2.5 would fail inside the engine; a bool is no step count
        for steps in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="steps must be an integer"):
                Stage(0.1, steps, kernel)
        assert Stage(0.1, np.int64(4), kernel).steps == 4

    def test_dimension_disagreement(self):
        with pytest.raises(ValueError):
            StepSchedule(
                (
                    Stage(0.1, 10, NoiseKernel("zero", 0.0, 1)),
                    Stage(0.1, 10, NoiseKernel("zero", 0.0, 2)),
                )
            )

    def test_total_steps(self):
        sched = StepSchedule(
            (
                Stage(0.1, 10, NoiseKernel("zero", 0.0, 1)),
                Stage(0.05, 15, NoiseKernel("zero", 0.0, 1)),
            )
        )
        assert sched.total_steps == 25


class TestPersistence:
    def test_csv_round_trip_lossless(self, tmp_path, spiky_default):
        sched = StepSchedule((Stage(0.01, 100, NoiseKernel("uniform-ball", 2.0, 1)),))
        traj = sgd_run(spiky_default, sched, [1.0], RngStream(31, 1000))
        path = tmp_path / "trial_0.csv"
        traj.write_csv(path)
        cols = read_csv_columns(path)
        derived = traj.columns()
        assert np.array_equal(cols["x_0"], traj.xs[:, 0])
        assert np.array_equal(cols["f"], derived["f"])
        assert np.array_equal(cols["grad_norm"], derived["grad_norm"])
        assert np.array_equal(cols["dist2"], derived["dist2"])

    def test_csv_header(self, tmp_path, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.1, 5, [1.0])
        path = tmp_path / "t.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,stage,x_0,f,grad_norm,noise_norm,dist2,out_of_box"

    def test_csv_bytes_deterministic(self, tmp_path, spiky_default):
        sched = StepSchedule((Stage(0.01, 60, NoiseKernel("uniform-ball", 2.0, 1)),))
        for name in ("a.csv", "b.csv"):
            traj = sgd_run(spiky_default, sched, [1.0], RngStream(33, 2))
            traj.write_csv(tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _csv_cases():
    """(name, trajectory) pairs covering the chunk edges and odd values."""
    spiky = make_spiky(SpikyParams())
    ball = NoiseKernel("uniform-ball", 2.0, 1)

    def noisy(steps, obj=spiky, kernel=ball, x0=(1.0,)):
        sched = StepSchedule((Stage(0.01, steps, kernel),))
        return sgd_run(obj, sched, list(x0), RngStream(35, steps))

    staged = StepSchedule((
        Stage(0.2, 700, NoiseKernel("uniform-ball", 3.1416, 1)),
        Stage(0.04, 700, NoiseKernel("uniform-ball", 2.0, 1)),
    ))
    cases = [(f"rows-{steps + 1}", noisy(steps)) for steps in (0, 1023, 1024, 2048)]
    cases += [
        ("staged", sgd_run(spiky, staged, [1.0], RngStream(36, 0))),
        ("d2", noisy(300, make_spiky(SpikyParams(dimension=2)),
                     NoiseKernel("uniform-ball", 2.0, 2), (1.0, -0.5))),
        ("no-target", noisy(50, replace(spiky, target=None))),
        ("out-of-box", gd_run(make_quadratic(1), 2.1, 40, [1.0])),
        ("diverged", gd_run(make_quadratic(1), 3.0, 200, [1.0])),
        ("negative-zero", gd_run(make_quadratic(2), 0.5, 3, [-0.0, 1.0])),
    ]
    return cases


CSV_CASES = _csv_cases()


class TestCsvBytes:
    """The chunked writer against the row-wise `csv.writer` body it
    replaced and against one `write_csv_columns` call over the whole
    record's columns."""

    @pytest.mark.parametrize("traj", [pytest.param(t, id=name) for name, t in CSV_CASES])
    def test_bytes_equal_reference(self, tmp_path, traj):
        traj.write_csv(tmp_path / "new.csv")
        _reference_write_csv(traj, tmp_path / "ref.csv")
        _whole_record_csv(traj, tmp_path / "whole.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert new.count(b"\n") == len(traj) + 1

    def test_cases_cover_the_odd_values(self):
        cases = dict(CSV_CASES)
        assert {1, _CSV_CHUNK, _CSV_CHUNK + 1} <= {len(t) for t in cases.values()}
        assert np.isnan(cases["no-target"].columns()["dist2"]).all()
        assert cases["out-of-box"].columns()["out_of_box"].any()
        assert cases["diverged"].diverged
        assert np.signbit(cases["negative-zero"].xs[0, 0])
        staged = cases["staged"]
        assert set(staged.schedule.row_stages(0, len(staged)).tolist()) == {0, 1}
