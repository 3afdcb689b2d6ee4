"""Derived constants, drift inequality and ensemble stay validation."""
import math

import numpy as np
import pytest

from sgdsmooth import (
    NoiseKernel,
    RngStream,
    Stage,
    StepSchedule,
    constants,
    divergence_threshold,
    drift_check,
    gd_run,
    make_quadratic,
    sgd_run,
    stay_validate,
)

from conftest import poisoned


class TestConstants:
    def test_hand_values(self):
        cons = constants(1.0, 0.1, 1.0, 1.0, 1.0, 10)
        assert cons.lam == pytest.approx(0.19, rel=1e-12)
        assert cons.b == pytest.approx(0.0121, rel=1e-12)
        assert cons.stay_radius2 == pytest.approx(0.242 / 0.19, rel=1e-12)

    def test_zero_noise_degenerate(self):
        cons = constants(1.0, 0.1, 1.0, 0.0, 1.0, 10)
        assert cons.b == 0.0
        assert cons.stay_radius2 == 0.0
        assert cons.T1_min == 0

    def test_eta_validity_flag(self):
        assert not constants(1.0, 0.6, 1.0, 1.0, 1.0, 10).eta_valid
        assert constants(1.0, 0.4, 1.0, 1.0, 1.0, 10).eta_valid

    def test_t1_positive_case(self):
        # lam = 0.19, b = 1.21e-4, y0 = 100:
        # ceil(ln(0.19 * 100 / 1.21e-4) / 0.19) = 63 by hand
        cons = constants(1.0, 0.1, 1.0, 0.1, 100.0, 10)
        assert cons.T1_min == 63

    def test_t1_clamps_to_zero_inside_floor(self):
        cons = constants(1.0, 0.1, 1.0, 1.0, 0.01, 10)
        assert cons.T1_min == 0

    def test_mu_floor_and_log_regime(self):
        small = constants(1.0, 0.1, 1.0, 1.0, 1.0, 0)
        assert small.mu == 8.0
        big = constants(1.0, 0.1, 1.0, 1.0, 1.0, 500)
        assert big.mu == pytest.approx(42.0 * math.sqrt(math.log(9 * 500 / 4)), rel=1e-12)

    def test_delta2_dominates_stay_radius(self):
        for T2 in (0, 10, 500, 10_000):
            cons = constants(0.7, 0.05, 2.0, 1.5, 4.0, T2)
            assert cons.delta2 >= cons.stay_radius2

    def test_lambda_exceeds_eta_c_in_valid_regime(self):
        for eta in np.linspace(1e-4, 0.24, 20):
            cons = constants(1.0, float(eta), 2.0, 1.0, 1.0, 10)
            if eta < 1.0 / 4.0:  # c / L^2
                assert cons.lam > eta * 1.0

    def test_negative_lambda_gives_infinite_radii(self):
        cons = constants(0.1, 0.1, 10.0, 1.0, 1.0, 10)
        assert cons.lam < 0
        assert math.isinf(cons.stay_radius2)
        assert math.isinf(cons.delta2)

    def test_stay_radius_monotonicity(self):
        etas = np.linspace(0.01, 0.2, 8)
        rs = np.linspace(0.5, 2.0, 8)
        cs = np.linspace(0.5, 2.0, 8)
        base = constants(1.0, 0.1, 1.0, 1.0, 1.0, 10).stay_radius2
        grew = [constants(1.0, float(e), 1.0, 1.0, 1.0, 10).stay_radius2 for e in etas]
        assert np.all(np.diff(grew) > 0)
        grew = [constants(1.0, 0.1, 1.0, float(r), 1.0, 10).stay_radius2 for r in rs]
        assert np.all(np.diff(grew) > 0)
        shrank = [constants(float(c), 0.1, 1.0, 1.0, 1.0, 10).stay_radius2 for c in cs]
        assert np.all(np.diff(shrank) < 0)
        assert base == constants(1.0, 0.1, 1.0, 1.0, 1.0, 10).stay_radius2  # pure

    def test_staged_shrink(self):
        first = constants(0.5, 0.1, 1.0, 1.0, 1.0, 10)
        second = constants(0.8, 0.05, 1.0, 1.0, 1.0, 10)
        assert second.stay_radius2 < first.stay_radius2

    def test_as_dict_round_trip(self):
        cons = constants(1.0, 0.1, 1.0, 1.0, 1.0, 10)
        d = cons.as_dict()
        assert d["lambda"] == cons.lam and d["T1_min"] == cons.T1_min

    def test_validation(self):
        with pytest.raises(ValueError):
            constants(0.0, 0.1, 1.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            constants(1.0, 0.0, 1.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            constants(1.0, 0.1, -1.0, 1.0, 1.0, 10)


class TestDivergenceThreshold:
    def test_quadratic_hand_value(self):
        assert divergence_threshold(1.0, 1.0, 1.0) == 2.0

    def test_above_threshold_expands(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 2.1, 20, [1.0])
        norms = np.abs(traj.xs[:, 0])
        assert np.all(norms[1:] > norms[:-1])
        assert norms[1] == pytest.approx(1.1, rel=1e-12)

    def test_below_threshold_contracts(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 1.9, 20, [1.0])
        norms = np.abs(traj.xs[:, 0])
        assert np.all(norms[1:] < norms[:-1])

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            divergence_threshold(1.0, 1.0, 0.0)


class TestDriftCheck:
    def test_noiseless_quadratic_equality(self, quadratic_1d):
        eta = 0.1
        kz = NoiseKernel("zero", 0.0, 1)
        rep = drift_check(
            quadratic_1d, kz, eta, 1.0, 1.0, [1.7], [0.0], n=100, rng=RngStream(61)
        )
        # (1 - eta)^2 = 1 - (2 eta - eta^2) exactly
        assert abs(rep.estimate - rep.rhs) <= 1e-12
        assert rep.passed

    def test_at_target_noise_floor_only(self, quadratic_1d):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        rep = drift_check(
            quadratic_1d, k, 0.1, 1.0, 1.0, [0.0], [0.0], n=20_000, rng=RngStream(62)
        )
        cons = constants(1.0, 0.1, 1.0, 1.0, 0.0, 1)
        assert rep.estimate <= cons.b + rep.ci_halfwidth
        assert rep.passed

    def test_validation(self, quadratic_1d):
        k = NoiseKernel("zero", 0.0, 1)
        with pytest.raises(ValueError):
            drift_check(quadratic_1d, k, 0.1, 1.0, 1.0, [1.0], [0.0], n=1)

    def test_understated_smoothness_raises(self, spiky_default):
        # L = 1 (the spiky objective's is 101) understates the reach bound
        k = NoiseKernel("uniform-ball", 1.0, 1)
        with pytest.raises(ValueError, match="declared range"):
            drift_check(
                spiky_default, k, 0.1, 0.3, 1.0, [0.4], spiky_default.target,
                n=5000, rng=RngStream(63),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_raises(self, spiky_default, bad):
        obj = poisoned(spiky_default, bad)
        k = NoiseKernel("uniform-ball", 1.0, 1)
        with pytest.raises(ValueError, match="declared range"):
            drift_check(obj, k, 0.1, 0.3, obj.smoothness, [0.4], obj.target, n=100, rng=RngStream(64))


class TestStayValidate:
    def _ensemble(self, obj, eta, steps, kernel, n, seed):
        sched = StepSchedule((Stage(eta, steps, kernel),))
        return [
            sgd_run(obj, sched, [1.0 + 0.1 * i], RngStream(seed, 1000 + i))
            for i in range(n)
        ]

    def test_noiseless_quadratic_all_hit_and_stay(self, quadratic_1d):
        kz = NoiseKernel("zero", 0.0, 1)
        cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 20)
        trajs = self._ensemble(quadratic_1d, 0.1, cons.T1_min + 21, kz, 10, 71)
        rep = stay_validate(trajs, cons, [0.0])
        assert rep.hit_fraction == 1.0
        assert rep.stay_fraction == 1.0
        assert rep.hit_and_stay_fraction == 1.0

    def test_expanding_regime_misses(self):
        obj = make_quadratic(1)
        k = NoiseKernel("uniform-ball", 0.1, 1)
        # constants computed at a sane eta, trajectories run at an
        # expanding one: nothing should remain inside the radii
        cons = constants(1.0, 0.1, 1.0, 0.1, 1e-4, 5)
        assert cons.T1_min == 0
        sched = StepSchedule((Stage(2.5, cons.T1_min + 6, k),))
        trajs = [sgd_run(obj, sched, [1.0], RngStream(72, 1000 + i)) for i in range(5)]
        rep = stay_validate(trajs, cons, [0.0])
        assert rep.hit_and_stay_fraction == 0.0

    def test_empty_ensemble_rejected(self):
        cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 20)
        with pytest.raises(ValueError, match="at least one trajectory"):
            stay_validate([], cons, [0.0])

    def test_short_trajectory_rejected(self, quadratic_1d):
        kz = NoiseKernel("zero", 0.0, 1)
        cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 50)
        trajs = self._ensemble(quadratic_1d, 0.1, 10, kz, 1, 73)
        with pytest.raises(ValueError):
            stay_validate(trajs, cons, [0.0])
