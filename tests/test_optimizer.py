"""Runner semantics: contraction, shadow identity, persistence, divergence."""
import math
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
from sgdsmooth.optimizer import read_trajectory_csv

from conftest import bisect_root


def _zero_schedule(eta, steps, d=1):
    return StepSchedule((Stage(eta, steps, NoiseKernel("zero", 0.0, d)),))


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
