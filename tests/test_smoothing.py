"""Convolved-objective estimators against closed forms and hand values."""
import math
from dataclasses import replace

import numpy as np
import pytest

from sgdsmooth import (
    NoiseKernel,
    RngStream,
    SpikyParams,
    hoeffding_halfwidth,
    hoeffding_tail,
    make_quadratic,
    make_spiky,
    smoothed_grad_closed,
    smoothed_grad_mc,
    smoothed_value_closed,
    smoothed_value_mc,
)

from conftest import poisoned


class TestHoeffding:
    def test_tail_at_zero_threshold(self):
        assert hoeffding_tail(10, 1.0, 0.0) == 1.0

    def test_tail_hand_value(self):
        assert hoeffding_tail(100, 2.0, 0.5) == pytest.approx(math.exp(-12.5), rel=1e-12)

    def test_doubling_n_squares_the_bound(self):
        t1 = hoeffding_tail(50, 2.0, 0.3)
        t2 = hoeffding_tail(100, 2.0, 0.3)
        assert t2 == pytest.approx(t1**2, rel=1e-12)

    def test_halfwidth_formula(self):
        n, rng, conf = 400, 3.0, 0.95
        expect = math.sqrt(rng**2 * math.log(2 / 0.05) / (2 * n))
        assert hoeffding_halfwidth(n, rng, conf) == pytest.approx(expect, rel=1e-12)

    def test_halfwidth_inverts_tail(self):
        # two-sided coverage: 2 * tail(halfwidth) == alpha
        hw = hoeffding_halfwidth(123, 1.7, 0.99)
        assert 2 * hoeffding_tail(123, 1.7, hw) == pytest.approx(0.01, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            hoeffding_tail(0, 1.0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_tail(10, 0.0, 0.1)
        with pytest.raises(ValueError):
            hoeffding_halfwidth(10, 1.0, 1.5)
        with pytest.raises(ValueError):
            hoeffding_halfwidth(0, 1.0, 0.99)
        with pytest.raises(ValueError):
            hoeffding_halfwidth(10, -1.0, 0.99)


class TestValueMc:
    def test_eta_zero_is_exact(self, spiky_default):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        est = smoothed_value_mc(spiky_default, k, 0.0, [1.3], n=1, rng=RngStream(3))
        assert est.mean == spiky_default.value_at([1.3])
        assert est.confidence_halfwidth == 0.0

    def test_quadratic_closed_form(self):
        obj = make_quadratic(1)
        k = NoiseKernel("uniform-ball", 1.0, 1)
        eta, y = 0.5, 2.0
        est = smoothed_value_mc(obj, k, eta, [y], n=100_000, rng=RngStream(4))
        expect = 0.5 * (y**2 + eta**2 * (1 / 3))
        assert abs(est.mean - expect) <= est.confidence_halfwidth

    def test_spiky_cross_oracle(self, spiky_default):
        params = SpikyParams()
        k = NoiseKernel("uniform-ball", 1.0, 1)
        est = smoothed_value_mc(spiky_default, k, 0.2, [0.0], n=100_000, rng=RngStream(5))
        closed = smoothed_value_closed(params, 1.0, 0.2, [0.0])
        assert abs(est.mean - closed) <= est.confidence_halfwidth

    def test_grid_coverage(self, spiky_default):
        params = SpikyParams()
        k = NoiseKernel("uniform-ball", 1.0, 1)
        inside = 0
        ys = np.linspace(-3, 3, 100)
        for i, y in enumerate(ys):
            est = smoothed_value_mc(
                spiky_default, k, 0.2, [y], n=10_000, rng=RngStream(6, i)
            )
            closed = smoothed_value_closed(params, 1.0, 0.2, [y])
            inside += abs(est.mean - closed) <= est.confidence_halfwidth
        assert inside >= 97

    def test_validation(self, spiky_default):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        with pytest.raises(ValueError):
            smoothed_value_mc(spiky_default, k, 0.1, [0.0], n=0)
        with pytest.raises(ValueError):
            smoothed_value_mc(spiky_default, k, -0.1, [0.0], n=10)


class TestGradMc:
    def test_eta_zero_is_exact(self, spiky_default):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        est = smoothed_grad_mc(spiky_default, k, 0.0, [0.7], n=1, rng=RngStream(7))
        assert np.all(est.mean == spiky_default.grad_at([0.7]))

    def test_quadratic_noise_cancels(self):
        obj = make_quadratic(2, center=(1.0, -1.0))
        k = NoiseKernel("uniform-ball", 1.0, 2)
        y = np.array([2.0, 0.5])
        est = smoothed_grad_mc(obj, k, 0.3, y, n=50_000, rng=RngStream(8))
        expect = y - np.array([1.0, -1.0])
        assert np.all(np.abs(np.asarray(est.mean) - expect) <= est.confidence_halfwidth)

    def test_spiky_sinc_attenuation(self, spiky_default):
        params = SpikyParams()
        k = NoiseKernel("uniform-ball", 1.0, 1)
        eta, y = 0.2, 0.4
        est = smoothed_grad_mc(spiky_default, k, eta, [y], n=100_000, rng=RngStream(9))
        closed = smoothed_grad_closed(params, 1.0, eta, [y])
        assert abs(float(np.asarray(est.mean)[0]) - closed) <= float(
            np.asarray(est.confidence_halfwidth)[0]
        )


class TestBoundedMean:
    def test_understated_smoothness_raises(self, spiky_default):
        # L = 1 declares a range of 0.2; the spiky gradients spread over ~13
        k = NoiseKernel("uniform-ball", 1.0, 1)
        understated = replace(spiky_default, smoothness=1.0)
        with pytest.raises(ValueError, match="declared range"):
            smoothed_grad_mc(understated, k, 0.1, [0.4], n=5000, rng=RngStream(10))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("estimator", [smoothed_value_mc, smoothed_grad_mc])
    def test_non_finite_sample_raises(self, spiky_default, estimator, bad):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        with pytest.raises(ValueError, match="declared range"):
            estimator(poisoned(spiky_default, bad), k, 0.1, [0.4], n=100, rng=RngStream(11))

    def test_bonferroni_across_coordinates(self):
        obj = make_quadratic(3)
        k = NoiseKernel("uniform-cube", 1.0, 3)
        n, eta = 2000, 0.3
        est = smoothed_grad_mc(obj, k, eta, [0.5, -1.0, 2.0], n=n, rng=RngStream(12))
        expect = hoeffding_halfwidth(n, 2.0 * obj.smoothness * eta * k.radius, 1 - (1 - 0.99) / 3)
        assert np.array_equal(est.confidence_halfwidth, np.full(3, expect))

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_confidence_checked_before_the_split(self, confidence):
        # with d = 3 the per-coordinate level 1 - (1 - 0)/3 = 2/3 is valid,
        # so a check after the Bonferroni split lets confidence 0 through
        k = NoiseKernel("uniform-ball", 1.0, 3)
        with pytest.raises(ValueError, match="confidence"):
            smoothed_grad_mc(make_quadratic(3), k, 0.1, [0.5, -1.0, 2.0], n=100,
                             rng=RngStream(13), confidence=confidence)


class TestClosedForm:
    def test_eta_zero_recovers_f(self, spiky_default):
        params = SpikyParams()
        for y in np.linspace(-3, 3, 13):
            assert smoothed_value_closed(params, 1.0, 0.0, [y]) == pytest.approx(
                spiky_default.value_at([y]), abs=1e-15
            )

    def test_hand_value_at_origin(self):
        # (1/2) * (0.5^2 * 1 / 3) with the sine term vanishing at y = 0
        val = smoothed_value_closed(SpikyParams(), 1.0, 0.5, [0.0])
        assert val == pytest.approx(0.25 / 6, rel=1e-12)

    def test_full_period_window_kills_the_spikes(self):
        # window freq*eta*r = pi: the averaged sine term vanishes
        params = SpikyParams()
        for y in np.linspace(-2, 2, 21):
            val = smoothed_value_closed(params, 1.0, math.pi / 10, [y])
            quad_only = 0.5 * (y**2 + (math.pi / 10) ** 2 / 3)
            assert val == pytest.approx(quad_only, abs=1e-12)

    def test_attenuation_monotone_on_first_arch(self):
        b = 10.0
        windows = np.linspace(0.0, math.pi / b, 200)
        mult = np.array(
            [abs(np.sinc(b * w / math.pi)) for w in windows]
        )
        assert np.all(np.diff(mult) <= 1e-15)

    def test_closed_gradient_matches_finite_difference(self):
        params = SpikyParams()
        eta, r, h = 0.2, 1.0, 1e-6
        for y in np.linspace(-3, 3, 25):
            fd = (
                smoothed_value_closed(params, r, eta, [y + h])
                - smoothed_value_closed(params, r, eta, [y - h])
            ) / (2 * h)
            assert fd == pytest.approx(smoothed_grad_closed(params, r, eta, [y]), abs=1e-6)

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            smoothed_value_closed(SpikyParams(dimension=2), 1.0, 0.1, [0.0, 0.0])
