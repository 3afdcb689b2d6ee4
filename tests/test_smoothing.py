"""Convolved-objective estimators against closed forms and hand values."""
import math
from dataclasses import replace

import numpy as np
import pytest

from sgdsmooth import (
    NoiseKernel,
    drift_check,
    RngStream,
    SpikyParams,
    hoeffding_halfwidth,
    hoeffding_tail,
    interval_grad,
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


def _acceptance2_shadow_points():
    """Acceptance 2's 40 grid points moved to their shadow points at its eta."""
    xs = np.linspace(-3.0, 3.0, 40)[:, None]
    return xs - 5e-5 * make_spiky(SpikyParams()).grads_at(xs)


class TestIntervalGrad:
    """The exact 1-d smoothed gradient (f(y+h) - f(y-h)) / (2h) and its
    rounding bound, against the spiky closed form and the quadratic."""

    @pytest.mark.parametrize("eta, radii, ys", [
        # acceptance 2: its ladder of five radii over its grid's shadow points
        (5e-5, [k * math.pi / 10 / (4 * 5e-5) for k in (1, 2, 3, 4, 5)], _acceptance2_shadow_points()),
        # acceptance 5: one radius over 100 points
        (0.01, [31.4159], np.linspace(-3.0, 3.0, 100)[:, None]),
    ], ids=["acceptance2", "acceptance5"])
    def test_closed_form_within_a_tenth_of_the_bound(self, spiky_default, eta, radii, ys):
        for r in radii:
            g, bound = interval_grad(spiky_default, eta * r, ys)
            closed = np.array([smoothed_grad_closed(SpikyParams(), r, eta, y) for y in ys])
            assert g.shape == ys.shape and bound.shape == (len(ys),)
            assert np.all(np.abs(g[:, 0] - closed) <= bound / 10)

    @pytest.mark.parametrize("h", [1e-6, 0.3, 5.0])
    def test_quadratic_slope_is_y(self, h):
        ys = np.linspace(-40.0, 40.0, 81)[:, None]
        g, bound = interval_grad(make_quadratic(1), h, ys)
        assert np.all(np.abs(g - ys)[:, 0] <= bound)
        assert np.all(bound > 0)

    def test_zero_width_is_the_gradient(self, spiky_default):
        ys = np.linspace(-3.0, 3.0, 7)[:, None]
        g, bound = interval_grad(spiky_default, 0.0, ys)
        assert g.tobytes() == spiky_default.grads_at(ys).tobytes()
        assert np.all(bound == 0.0)

    @pytest.mark.parametrize("h", [0.0, 0.157, 2.0])
    def test_batch_rows_are_one_point_calls(self, spiky_default, h):
        ys = np.linspace(-3.0, 3.0, 33)[:, None]
        g, bound = interval_grad(spiky_default, h, ys)
        ones = [interval_grad(spiky_default, h, y[None, :]) for y in ys]
        assert g.tobytes() == np.concatenate([g1 for g1, _ in ones]).tobytes()
        assert bound.tobytes() == np.concatenate([b1 for _, b1 in ones]).tobytes()

    @pytest.mark.parametrize("h", [-0.1, math.nan, math.inf])
    def test_bad_width_rejected(self, spiky_default, h):
        with pytest.raises(ValueError, match="h must be"):
            interval_grad(spiky_default, h, np.zeros((1, 1)))

    def test_one_dimensional_only(self):
        with pytest.raises(ValueError, match="1-d only"):
            interval_grad(make_quadratic(2), 0.1, np.zeros((1, 2)))

    @pytest.mark.parametrize("h", [0.0, 0.1])
    def test_non_finite_value_raises(self, h):
        with pytest.raises(ValueError, match="non-finite"):
            interval_grad(make_quadratic(1), h, np.array([[0.0], [math.inf]]))


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


class TestStratified:
    """1-d estimators draw one sample per equal-mass stratum and take a
    Hoeffding range per stratum; d > 1 keeps the i.i.d. estimator."""

    def test_grad_halfwidth_is_per_stratum(self, spiky_default):
        n, eta, r = 4096, 0.3, 1.5
        k = NoiseKernel("uniform-ball", r, 1)
        est = smoothed_grad_mc(spiky_default, k, eta, [0.4], n=n, rng=RngStream(20))
        L = spiky_default.smoothness
        expect = hoeffding_halfwidth(n, 2.0 * L * eta * r / n, 0.99)
        assert float(est.confidence_halfwidth[0]) == pytest.approx(expect, rel=1e-12)
        assert est.range_bound == pytest.approx(2.0 * L * eta * r / n, rel=1e-12)

    def test_value_halfwidth_is_per_stratum(self, spiky_default):
        n, eta, r, y = 1000, 0.05, 1.0, 0.4
        k = NoiseKernel("uniform-cube", r, 1)
        est = smoothed_value_mc(spiky_default, k, eta, [y], n=n, rng=RngStream(21))
        slope = abs(float(spiky_default.grad_at([y])[0]))
        per_stratum = (slope + spiky_default.smoothness * eta * r) * eta * 2.0 * r / n
        assert est.confidence_halfwidth == pytest.approx(
            hoeffding_halfwidth(n, per_stratum, 0.99), rel=1e-12)

    def test_drift_halfwidth_is_per_stratum(self, spiky_default):
        n, eta, r, c, y = 2000, 1e-3, 50.0, 0.3, 1.1
        L = spiky_default.smoothness
        k = NoiseKernel("uniform-ball", r, 1)
        rep = drift_check(spiky_default, k, eta, c, L, [y], [0.0], n=n, rng=RngStream(22))
        d0 = abs(y - eta * float(spiky_default.grad_at([y])[0]))
        reach = eta * r * (1.0 + eta * L)
        per_stratum = 2.0 * (d0 + reach) * (1.0 + eta * L) * eta * 2.0 * r / n
        expect = hoeffding_halfwidth(n, per_stratum, 0.99)
        assert rep.ci_halfwidth == pytest.approx(expect, rel=1e-12)

    def test_understated_smoothness_caught_between_adjacent_strata(self, spiky_default):
        # declared L = 30 against a true 101: at eta*r = 1 the gradients spread
        # over about 21.6, inside the total range 2*30*1 = 60, but adjacent
        # strata step by up to 101 * 4/n, beyond twice the 60/n per stratum
        n = 1000
        k = NoiseKernel("uniform-ball", 1.0, 1)
        understated = replace(spiky_default, smoothness=30.0)
        w = k.sample_stratified(n, RngStream(23).generator())
        grads = spiky_default.grads_at(0.4 - w)
        assert np.ptp(grads) <= 2.0 * understated.smoothness
        with pytest.raises(ValueError, match="adjacent strata"):
            smoothed_grad_mc(understated, k, 1.0, [0.4], n=n, rng=RngStream(23))

    @pytest.mark.parametrize("shrink, covered", [(1.0, True), (10.0, False)])
    @pytest.mark.parametrize(
        "estimator, closed, eta, r",
        [(smoothed_grad_mc, smoothed_grad_closed, 0.5, 2.0),
         (smoothed_value_mc, smoothed_value_closed, 0.05, 1.0)],
    )
    def test_coverage_audit(self, spiky_default, estimator, closed, eta, r, shrink, covered):
        # the exact convolution lies inside the interval at >= the stated
        # confidence over 500 seeds; a tenth of the halfwidth does not, so
        # the audit can fail
        params, conf, seeds = SpikyParams(), 0.99, 500
        k = NoiseKernel("uniform-ball", r, 1)
        inside = 0
        for i, y in enumerate(np.linspace(-3.0, 3.0, seeds)):
            est = estimator(spiky_default, k, eta, [y], n=1000, rng=RngStream(24, i),
                            confidence=conf)
            err = abs(float(np.ravel(est.mean)[0]) - closed(params, r, eta, [y]))
            inside += err <= float(np.ravel(est.confidence_halfwidth)[0]) / shrink
        assert (inside / seeds >= conf) is covered

    @pytest.mark.parametrize("shrink, covered", [(1.0, True), (10.0, False)])
    @pytest.mark.parametrize("obj", [
        make_spiky(SpikyParams()), make_spiky(SpikyParams(amp=0.2)), make_quadratic(1),
    ], ids=["spiky", "spiky-A0.2", "quadratic"])
    def test_grad_coverage_against_the_exact_slope(self, obj, shrink, covered):
        # in 1-d `interval_grad` is an exact oracle for every f: the Monte
        # Carlo interval holds it at >= the stated confidence over 500 seeds,
        # and a tenth of the halfwidth does not
        eta, r, conf, seeds = 0.5, 2.0, 0.99, 500
        k = NoiseKernel("uniform-ball", r, 1)
        ys = np.linspace(-3.0, 3.0, seeds)[:, None]
        exact, bound = interval_grad(obj, eta * r, ys)
        inside = 0
        for i, y in enumerate(ys):
            est = smoothed_grad_mc(obj, k, eta, y, n=1000, rng=RngStream(25, i), confidence=conf)
            hw = float(est.confidence_halfwidth[0])
            assert bound[i] < hw / 1000
            inside += abs(float(est.mean[0]) - float(exact[i, 0])) <= hw / shrink
        assert (inside / seeds >= conf) is covered

    @pytest.mark.parametrize("kernel_dim, obj_dim", [(1, 2), (2, 1)])
    def test_kernel_dimension_must_match(self, kernel_dim, obj_dim):
        # a 1-d kernel used to broadcast one scalar draw over every coordinate
        k = NoiseKernel("uniform-ball", 1.0, kernel_dim)
        with pytest.raises(ValueError, match="kernel dimension"):
            smoothed_grad_mc(make_quadratic(obj_dim), k, 0.5, np.ones(obj_dim), n=5)

    # recorded from the i.i.d. estimator before 1-d draws were stratified:
    # value mean and halfwidth, gradient means and halfwidth, drift
    # estimate and halfwidth, as float.hex
    IID = {
        (2, "uniform-ball"): (
            "0x1.a73468f902631p+0", "0x1.af3fcceeaf5c1p-3",
            "-0x1.899114a4e321dp+1", "0x1.b8db1c653c74ap+1", "0x1.7c757732e070ep-2",
            "0x1.05b65041cff83p+1", "0x1.e02dbf05f551cp-9"),
        (2, "uniform-cube"): (
            "0x1.a4ff488c558e2p+0", "0x1.af3fcceeaf5c1p-3",
            "-0x1.953b2f03411cap+1", "0x1.c096d66b51138p+1", "0x1.7c757732e070ep-2",
            "0x1.05b33c5d3d2c4p+1", "0x1.e02dbf05f551cp-9"),
        (3, "uniform-ball"): (
            "0x1.18b76c5a75239p+1", "0x1.bc0546c57247fp-3",
            "-0x1.91bcc4708b983p+1", "0x1.41c711e56d0b4p+0", "0x1.b6ad4517eacb4p+1",
            "0x1.891f259d2ade4p-2",
            "0x1.10379e2cb2573p+1", "0x1.e9bd7971f5c2ep-9"),
        (3, "uniform-cube"): (
            "0x1.12edab2afff67p+1", "0x1.bc0546c57247fp-3",
            "-0x1.970b1eb1ae38bp+1", "0x1.4281009aec2f2p+0", "0x1.bb33c56f08d31p+1",
            "0x1.891f259d2ade4p-2",
            "0x1.102f3caa46744p+1", "0x1.e9bd7971f5c2ep-9"),
    }

    @pytest.mark.parametrize("d, kind", sorted(IID))
    def test_higher_dimensions_unchanged_bitwise(self, d, kind):
        obj = make_spiky(SpikyParams(quad=2.0, amp=0.5, freq=4.0, dimension=d))
        k = NoiseKernel(kind, 0.8, d)
        y = np.linspace(-0.7, 1.3, d)
        v = smoothed_value_mc(obj, k, 0.3, y, n=500, rng=RngStream(31, d))
        g = smoothed_grad_mc(obj, k, 0.3, y, n=500, rng=RngStream(32, d))
        rep = drift_check(obj, k, 0.01, 0.5, obj.smoothness, y, obj.target,
                          n=500, rng=RngStream(33, d))
        got = [v.mean, v.confidence_halfwidth, *g.mean, g.confidence_halfwidth[0],
               rep.estimate, rep.ci_halfwidth]
        assert tuple(float(x).hex() for x in got) == self.IID[(d, kind)]


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
