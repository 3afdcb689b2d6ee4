"""One-point-convexity certificates and region scans."""
import math
from dataclasses import replace

import numpy as np
import pytest

from sgdsmooth import (
    NoiseKernel,
    RngStream,
    SpikyParams,
    assumption1_estimate,
    make_quadratic,
    make_spiky,
    interval_grad,
    region_scan,
    smoothed_grad_closed,
)


class TestAssumption1:
    def test_quadratic_certifies_c_one(self, quadratic_1d):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        cert = assumption1_estimate(
            quadratic_1d, k, 0.1, [2.0], [0.0], n=50_000, rng=RngStream(41)
        )
        assert not cert.degenerate
        assert cert.c_hat == pytest.approx(1.0, abs=cert.ci_halfwidth / cert.dist2)
        assert cert.passed  # default c_min = 0

    def test_spiky_full_period_window_certifies_c_one(self, spiky_default):
        # window freq*eta*r = pi cancels the spike term of the smoothed
        # gradient, leaving exactly quad * y
        eta = 0.01
        r = math.pi / (10 * eta)
        k = NoiseKernel("uniform-ball", r, 1)
        cert = assumption1_estimate(
            spiky_default, k, eta, [1.5], [0.0], n=200_000, rng=RngStream(42)
        )
        assert cert.c_hat == pytest.approx(1.0, abs=3 * cert.ci_halfwidth / cert.dist2)

    def test_unsmoothed_spiky_fails_where_gradient_points_away(self, spiky_default):
        # at x = 0.2 the raw landscape pushes away from the origin
        k = NoiseKernel("zero", 0.0, 1)
        cert = assumption1_estimate(
            spiky_default, k, 0.01, [0.2], [0.0], n=10, rng=RngStream(43)
        )
        assert cert.inner < 0
        assert not cert.passed

    def test_degenerate_at_target(self, quadratic_1d):
        k = NoiseKernel("zero", 0.0, 1)
        cert = assumption1_estimate(
            quadratic_1d, k, 0.1, [0.0], [0.0], n=10, rng=RngStream(44)
        )
        assert cert.degenerate
        assert math.isnan(cert.c_hat)
        assert not cert.passed

    def test_validation(self, quadratic_1d):
        k = NoiseKernel("zero", 0.0, 1)
        with pytest.raises(ValueError):
            assumption1_estimate(quadratic_1d, k, 0.1, [1.0], [0.0], n=1)
        with pytest.raises(ValueError):
            assumption1_estimate(quadratic_1d, k, 0.0, [1.0], [0.0], n=10)

    def test_scaling_covariance(self, spiky_default):
        # multiplying the objective by s multiplies inner, ci and c_hat by s
        s = 3.0
        scaled = replace(
            spiky_default,
            value=lambda x: s * spiky_default.value(x),
            grad=lambda x: s * spiky_default.grad(x),
            smoothness=s * spiky_default.smoothness,
        )
        k = NoiseKernel("uniform-ball", 1.0, 1)
        # scaling moves the shadow point, so compare at a fixed shadow
        # point via the underlying smoothed-gradient estimate with matched
        # streams (identical draws)
        from sgdsmooth.smoothing import smoothed_grad_mc

        y = np.array([1.1])
        est_a = smoothed_grad_mc(spiky_default, k, 0.05, y, n=5000, rng=RngStream(46))
        est_b = smoothed_grad_mc(scaled, k, 0.05, y, n=5000, rng=RngStream(46))
        assert float(np.asarray(est_b.mean)[0]) == pytest.approx(
            s * float(np.asarray(est_a.mean)[0]), rel=1e-12
        )
        assert float(np.asarray(est_b.confidence_halfwidth)[0]) == pytest.approx(
            s * float(np.asarray(est_a.confidence_halfwidth)[0]), rel=1e-12
        )


class TestRegionScan:
    def test_quadratic_full_pass_at_high_level(self, quadratic_1d):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        grid = [np.array([g]) for g in np.linspace(-3, 3, 50)]
        report = region_scan(
            quadratic_1d, k, 0.1, [0.0], grid, c_min=0.9, n=50_000, rng=RngStream(47)
        )
        assert report.pass_fraction == 1.0
        assert report.certified_c > 0.9

    def test_unsmoothed_spiky_has_failures(self, spiky_default):
        k = NoiseKernel("zero", 0.0, 1)
        grid = [np.array([g]) for g in np.linspace(-3, 3, 80)]
        report = region_scan(
            spiky_default, k, 0.01, [0.0], grid, c_min=0.0, n=2, rng=RngStream(48)
        )
        assert report.pass_fraction < 1.0
        assert report.certified_c < 0.0

    def test_degenerate_only_grid(self, quadratic_1d):
        k = NoiseKernel("zero", 0.0, 1)
        report = region_scan(
            quadratic_1d, k, 0.1, [0.0], [np.array([0.0])], c_min=0.0, n=2
        )
        assert report.degenerate_count == 1
        assert report.pass_fraction == 0.0
        assert report.certified_c == -math.inf

    def test_stop_on_fail_short_circuits(self, spiky_default):
        k = NoiseKernel("zero", 0.0, 1)
        grid = [np.array([g]) for g in np.linspace(0.2, 3, 40)]
        report = region_scan(
            spiky_default, k, 0.01, [0.0], grid, c_min=0.5, n=2,
            rng=RngStream(49), stop_on_fail=True,
        )
        assert len(report.certificates) < len(grid)

    def test_empty_grid_rejected(self, quadratic_1d):
        k = NoiseKernel("zero", 0.0, 1)
        with pytest.raises(ValueError):
            region_scan(quadratic_1d, k, 0.1, [0.0], [], c_min=0.0, n=2)

    @pytest.mark.parametrize("stop_on_fail", [False, True])
    def test_confidence_is_family_wise(self, spiky_default, stop_on_fail):
        # each of the 10 points holds at 1 - 0.01/10, so all hold jointly at
        # 0.99; in 1-d they are exact, and the d = 2 twin below samples
        k = NoiseKernel("uniform-ball", 2.0, 1)
        grid = [np.array([g]) for g in np.linspace(-3, 3, 10)]
        report = region_scan(
            spiky_default, k, 0.05, [0.0], grid, c_min=0.0, n=500,
            rng=RngStream(55, 3), confidence=0.99, stop_on_fail=stop_on_fail,
        )
        assert report.confidence == 0.99
        for i, cert in enumerate(report.certificates):
            alone = assumption1_estimate(
                spiky_default, k, 0.05, grid[i], [0.0], n=500,
                rng=RngStream(55, 3 + i), confidence=1 - 0.01 / 10,
            )
            assert cert.ci_halfwidth == alone.ci_halfwidth
            assert cert.inner == alone.inner

    @pytest.mark.parametrize("stop_on_fail", [False, True])
    def test_monte_carlo_confidence_is_family_wise(self, stop_on_fail):
        # the d = 2 scan stays on Monte Carlo: each of the 10 points holds at
        # 1 - 0.01/10 on its own stream and draws n samples
        obj = make_spiky(SpikyParams(dimension=2))
        k = NoiseKernel("uniform-ball", 2.0, 2)
        grid = [np.array([g, -0.5 * g]) for g in np.linspace(-3, 3, 10)]
        report = region_scan(
            obj, k, 0.05, [0.0, 0.0], grid, c_min=0.0, n=500,
            rng=RngStream(55, 3), confidence=0.99, stop_on_fail=stop_on_fail,
        )
        assert report.confidence == 0.99
        if stop_on_fail:
            assert len(report.certificates) < len(grid)
        for i, cert in enumerate(report.certificates):
            alone = assumption1_estimate(
                obj, k, 0.05, grid[i], [0.0, 0.0], n=500,
                rng=RngStream(55, 3 + i), confidence=1 - 0.01 / 10,
            )
            assert cert.n == 500
            assert cert.ci_halfwidth == alone.ci_halfwidth > 0
            assert cert.inner == alone.inner

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_confidence_checked_before_the_split(self, quadratic_1d, confidence):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        grid = [np.array([g]) for g in (1.0, 2.0, 3.0)]
        with pytest.raises(ValueError, match="confidence"):
            region_scan(quadratic_1d, k, 0.1, [0.0], grid, c_min=0.0, n=10, confidence=confidence)

    def test_certificate_soundness_against_closed_form(self, spiky_default):
        # certificates vs the exact smoothed gradient: the CI should cover
        # the closed-form c in (essentially) every case.  In 1-d they are
        # exact up to rounding; test_smoothing's coverage audit against
        # `interval_grad` keeps the Monte Carlo interval honest
        params = SpikyParams()
        eta, r = 0.05, 2.0
        k = NoiseKernel("uniform-ball", r, 1)
        gen = np.random.Generator(np.random.Philox(key=[50, 0]))
        xs = gen.uniform(0.5, 3.0, size=1000) * gen.choice([-1.0, 1.0], size=1000)
        covered = 0
        for i, x in enumerate(xs):
            cert = assumption1_estimate(
                spiky_default, k, eta, [x], [0.0], n=500, rng=RngStream(51, i)
            )
            y = float(cert.y[0])
            inner_closed = smoothed_grad_closed(params, r, eta, [y]) * y
            c_closed = inner_closed / cert.dist2
            covered += abs(cert.c_hat - c_closed) <= cert.ci_halfwidth / cert.dist2
        assert covered >= 990



class TestExactOneD:
    """In 1-d a certificate comes from `interval_grad`: no samples, and a
    halfwidth of |x* - y| times the rounding bound."""

    def test_certificate_is_the_interval_slope(self, spiky_default):
        eta, r, x = 0.05, 2.0, 1.3
        k = NoiseKernel("uniform-ball", r, 1)
        cert = assumption1_estimate(spiky_default, k, eta, [x], [0.0], n=500, rng=RngStream(60))
        y = x - eta * float(spiky_default.grad_at([x])[0])
        g, bound = interval_grad(spiky_default, eta * r, np.array([[y]]))
        assert cert.n == 0 and float(cert.y[0]) == y
        assert cert.inner == float(g[0, 0]) * y
        assert cert.ci_halfwidth == abs(y) * float(bound[0])

    def test_scan_ignores_the_sample_budget_and_stream(self, spiky_default):
        k = NoiseKernel("uniform-cube", 2.0, 1)
        grid = [np.array([g]) for g in np.linspace(-3, 3, 25)]
        a = region_scan(spiky_default, k, 0.05, [0.0], grid, c_min=0.0, n=2, rng=RngStream(1))
        b = region_scan(spiky_default, k, 0.05, [0.0], grid, c_min=0.0, n=10**6, rng=RngStream(9, 9))
        assert [(c.inner, c.ci_halfwidth, c.n) for c in a.certificates] == [
            (c.inner, c.ci_halfwidth, 0) for c in b.certificates
        ]

    def test_stop_on_fail_ends_at_the_first_failure(self, spiky_default):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        grid = [np.array([g]) for g in np.linspace(-3, 3, 40)]
        full = region_scan(spiky_default, k, 0.05, [0.0], grid, c_min=0.5, n=2)
        cut = region_scan(spiky_default, k, 0.05, [0.0], grid, c_min=0.5, n=2, stop_on_fail=True)
        first = next(i for i, c in enumerate(full.certificates) if not c.degenerate and not c.passed)
        assert cut.certificates == full.certificates[: first + 1]

    @pytest.mark.parametrize("kind", ["zero", "uniform-ball"])
    def test_zero_width_certifies_the_raw_gradient(self, spiky_default, kind):
        k = NoiseKernel(kind, 0.0, 1)
        cert = assumption1_estimate(spiky_default, k, 0.01, [0.2], [0.0], n=2)
        y = cert.y
        assert cert.inner == float(-spiky_default.grad_at(y) @ (0.0 - y))
        assert cert.ci_halfwidth == 0.0

    def test_kernel_dimension_must_match(self, spiky_default):
        k = NoiseKernel("uniform-ball", 1.0, 2)
        with pytest.raises(ValueError, match="kernel dimension"):
            assumption1_estimate(spiky_default, k, 0.05, [1.0], [0.0], n=10)
        with pytest.raises(ValueError, match="kernel dimension"):
            region_scan(spiky_default, k, 0.05, [0.0], [np.array([1.0])], c_min=0.0, n=10)

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_point_confidence_is_still_validated(self, quadratic_1d, confidence):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        with pytest.raises(ValueError, match="confidence"):
            assumption1_estimate(quadratic_1d, k, 0.1, [1.0], [0.0], n=10, confidence=confidence)
