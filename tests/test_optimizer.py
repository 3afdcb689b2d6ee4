"""Runner semantics: contraction, shadow identity, persistence, divergence."""
import csv
import math
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
from sgdsmooth.optimizer import (
    DIVERGENCE_CUTOFF,
    EnsembleResult,
    _bounded,
    lockstep_run,
    read_trajectory_csv,
)

from conftest import bisect_root


def _zero_schedule(eta, steps, d=1):
    return StepSchedule((Stage(eta, steps, NoiseKernel("zero", 0.0, d)),))


def _bounded_reference(xs):
    """Reference: the divergence predicate as a NaN-propagating maximum."""
    return np.max(np.abs(xs), axis=-1) <= DIVERGENCE_CUTOFF


def _reference_lockstep(obj, schedule, x0s, streams):
    """Reference: the per-step engine that `lockstep_run` replaced, with
    the divergence predicate applied at every step."""
    x0s = np.asarray(x0s, dtype=float)
    n, d = x0s.shape
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
        active &= _bounded_reference(x)
        # the step leaving the final point uses its zero noise row and is discarded
        x = np.where(active[:, None], y - eta * omegas[t], x)

    return EnsembleResult(
        x_hist=x_hist,
        y_hist=y_hist,
        omegas=omegas,
        etas=etas,
        stage_idx=stage_idx,
        diverged=~active,
        finals_x=x_hist[-1].copy(),
    )


def _reference_write_csv(traj, path):
    """Reference: the row-wise `csv.writer` body that `write_csv` replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "stage", *(f"x_{i}" for i in range(traj.dimension)),
                         "f", "grad_norm", "noise_norm", "dist2", "out_of_box"])
        for t in range(len(traj)):
            row = [t, int(traj.stage_idx[t])]
            row += [repr(float(v)) for v in traj.xs[t]]
            row += [
                repr(float(traj.fs[t])),
                repr(float(traj.grad_norms[t])),
                repr(float(traj.noise_norms[t])),
                repr(float(traj.dist2[t])),
                int(traj.out_of_box[t]),
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
    for t in range(len(traj) - 1):
        if traj.etas[t + 1] != traj.etas[t]:
            continue
        eta = traj.etas[t]
        inner = traj.ys[t] - eta * traj.omegas[t]
        predicted = inner - eta * obj.grads_at(inner[None, :])[0]
        residual = float(np.linalg.norm(traj.ys[t + 1] - predicted))
        worst = max(worst, residual)
    return worst


class TestGd:
    def test_quadratic_geometric_contraction(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.1, 30, [1.0])
        expect = 0.9 ** np.arange(31)
        assert np.allclose(traj.xs[:, 0], expect, rtol=0, atol=1e-14)

    def test_shadow_equals_next_iterate_without_noise(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.1, 20, [1.0])
        assert np.array_equal(traj.ys[:-1], traj.xs[1:])

    def test_full_step_converges_in_one(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 1.0, 3, [2.5])
        assert np.all(traj.xs[1:] == 0.0)

    def test_expansion_above_threshold(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 2.1, 10, [1.0])
        norms = np.abs(traj.xs[:, 0])
        assert np.all(norms[1:] > norms[:-1])

    def test_spiky_traps_in_a_side_basin(self, spiky_default):
        traj = gd_run(spiky_default, 0.01, 10_000, [2.0])
        assert traj.grad_norms[-1] < 1e-6
        assert abs(traj.final_x[0]) > 0.3
        # independent oracle: the stationary point in the basin containing 2.0
        root = bisect_root(lambda x: x + 10 * math.cos(10 * x), 1.6, 1.8)
        assert traj.final_x[0] == pytest.approx(root, abs=1e-6)

    def test_monotone_distance_below_critical_step(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.5, 50, [3.0])
        assert np.all(np.diff(traj.dist2) < 0)


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
        assert traj.etas[199] != traj.etas[200]

    def test_zero_kernel_residual_is_zero(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 0.1, 50, [1.0])
        assert shadow_check(traj, quadratic_1d) == 0.0

    def test_update_split_is_exact(self, spiky_default):
        sched = StepSchedule((Stage(0.02, 300, NoiseKernel("uniform-ball", 3.0, 1)),))
        traj = sgd_run(spiky_default, sched, [0.5], RngStream(23, 1000))
        # x_{t+1} = y_t - eta * omega_t bitwise
        rebuilt = traj.ys[:-1] - 0.02 * traj.omegas[:-1]
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
        assert traj.out_of_box.any()
        assert not traj.out_of_box[0]

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
        poisoned = replace(traj, ys=traj.ys.copy())
        poisoned.ys[5] = np.nan  # its NaN residuals are skipped, as in the loop
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


def _run_both(obj, schedule, x0s, seed=5):
    """(lockstep_run, reference) on the same streams, checked field by
    field for bitwise equality, NaN equal to NaN.  A finals-only run on
    the same streams must give the same finals, flags, etas and stages."""
    x0s = np.asarray(x0s, dtype=float)
    streams = [RngStream(seed, 1000 + i) for i in range(len(x0s))]
    got = lockstep_run(obj, schedule, x0s, streams)
    # the reference's frozen non-finite trials warn at every step
    with np.errstate(all="ignore"):
        ref = _reference_lockstep(obj, schedule, x0s, streams)
    for field in ("x_hist", "y_hist", "omegas", "etas", "stage_idx", "diverged", "finals_x"):
        assert _bits(getattr(got, field)) == _bits(getattr(ref, field)), field
    finals = lockstep_run(obj, schedule, x0s, streams, keep_history=False)
    assert finals.x_hist is None and finals.y_hist is None and finals.omegas is None
    for field in ("finals_x", "diverged", "etas", "stage_idx"):
        assert _bits(getattr(finals, field)) == _bits(getattr(got, field)), field
    return got


def _first_beyond(result, i):
    """Row at which trial i first fails the divergence predicate, or None."""
    return result.record_end(i) - 1 if result.diverged[i] else None


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
        assert result.record_end(0) == result.record_end(21) == 1

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
        assert _bits(got.y_hist) == _bits(result.y_hist)
        assert _first_beyond(result, 0) == 1
        assert traj.diverged and len(traj) == 2
        assert np.all(result.x_hist[1:, 0, 0] == -1e100)


class _CountedGenerator:
    """A generator that counts how many of its kind are alive."""

    def __init__(self, gen, live):
        self._gen, self._live = gen, live
        live.append(None)

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def __del__(self):
        self._live.pop()


class _CountedStream:
    def __init__(self, stream, live):
        self._stream, self._live = stream, live

    def generator(self):
        return _CountedGenerator(self._stream.generator(), self._live)


class TestFinalsOnly:
    """`keep_history=False` keeps the finals and flags of a history run,
    bit for bit, on stage layouts that move the block edges; `_run_both`
    checks each case against the per-step reference too."""

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
        assert result.stage_idx[-1] == len(stages) - 1
        assert result.etas[-1] == stages[-1].eta
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

    def test_history_methods_raise(self, spiky_default, tmp_path):
        kernel = NoiseKernel("uniform-ball", 2.0, 1)
        sched = StepSchedule((Stage(0.01, 30, kernel),))
        result = lockstep_run(spiky_default, sched, np.zeros((3, 1)),
                              [RngStream(4, i) for i in range(3)], keep_history=False)
        assert result.n_trials == 3 and result.finals_x.shape == (3, 1)
        calls = [
            lambda: result.trajectory(spiky_default, 0),
            lambda: result.record_end(0),
            lambda: result.write_table(spiky_default, tmp_path / "t.npy"),
            lambda: result.y_dist2_history(spiky_default.target),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="kept no history"):
                call()
        assert not (tmp_path / "t.npy").exists()

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_one_generator_per_trial_while_its_stages_last(self, monkeypatch, keep_history):
        live, seen = [], []
        sample_batch = NoiseKernel.sample_batch

        def counted(kernel, steps, gen):
            seen.append(len(live))
            return sample_batch(kernel, steps, gen)

        monkeypatch.setattr(NoiseKernel, "sample_batch", counted)
        kernel = NoiseKernel("uniform-ball", 2.0, 1)
        streams = [_CountedStream(RngStream(6, i), live) for i in range(5)]
        one = StepSchedule((Stage(0.01, 30, kernel),))
        lockstep_run(make_spiky(SpikyParams()), one, np.zeros((5, 1)), streams, keep_history)
        # a one-stage run holds one generator at each draw
        assert seen == [1] * 5 and live == []
        seen.clear()
        three = StepSchedule((Stage(0.01, 30, kernel),) * 3)
        lockstep_run(make_spiky(SpikyParams()), three, np.zeros((5, 1)), streams, keep_history)
        # the first stage creates them, the last drops each after its draw
        assert seen == [1, 2, 3, 4, 5] + [5] * 5 + [5, 4, 3, 2, 1] and live == []


class TestScheduleValidation:
    def test_empty_schedule(self):
        with pytest.raises(ValueError):
            StepSchedule(())

    def test_nonpositive_eta(self):
        with pytest.raises(ValueError):
            Stage(0.0, 10, NoiseKernel("zero", 0.0, 1))

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            Stage(0.1, -1, NoiseKernel("zero", 0.0, 1))

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
        cols = read_trajectory_csv(path)
        assert np.array_equal(cols["x_0"], traj.xs[:, 0])
        assert np.array_equal(cols["f"], traj.fs)
        assert np.array_equal(cols["grad_norm"], traj.grad_norms)
        assert np.array_equal(cols["dist2"], traj.dist2)

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
    """The column-wise writer against the row-wise `csv.writer` body it
    replaced."""

    @pytest.mark.parametrize("traj", [pytest.param(t, id=name) for name, t in CSV_CASES])
    def test_bytes_equal_reference(self, tmp_path, traj):
        traj.write_csv(tmp_path / "new.csv")
        _reference_write_csv(traj, tmp_path / "ref.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.count(b"\n") == len(traj) + 1

    def test_cases_cover_the_odd_values(self):
        cases = dict(CSV_CASES)
        assert np.isnan(cases["no-target"].dist2).all()
        assert cases["out-of-box"].out_of_box.any()
        assert cases["diverged"].diverged
        assert np.signbit(cases["negative-zero"].xs[0, 0])
        assert set(cases["staged"].stage_idx.tolist()) == {0, 1}
