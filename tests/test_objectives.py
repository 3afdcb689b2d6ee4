"""Objective oracles: hand values, cross-oracle gradients, smoothness."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdsmooth import (
    SpikyParams,
    check_smoothness,
    finite_diff_gradient,
    make_quadratic,
    make_spiky,
)
from sgdsmooth.objectives import as_point


class TestSpiky:
    def test_pure_quadratic_when_amp_zero(self):
        obj = make_spiky(SpikyParams(quad=1.0, amp=0.0, freq=1.0))
        assert obj.value_at([2.0]) == pytest.approx(2.0, abs=0)
        assert obj.grad_at([2.0])[0] == pytest.approx(2.0, abs=0)

    def test_default_smoothness_constant(self):
        params = SpikyParams(quad=1.0, amp=1.0, freq=10.0)
        assert params.smoothness == 101.0
        assert make_spiky(params).smoothness == 101.0

    def test_default_values_at_origin(self, spiky_default):
        assert spiky_default.value_at([0.0]) == 0.0
        assert spiky_default.grad_at([0.0])[0] == pytest.approx(10.0, abs=0)

    def test_amp_zero_matches_quadratic(self, quadratic_1d):
        spiky = make_spiky(SpikyParams(quad=1.0, amp=0.0, freq=3.0))
        for x in np.linspace(-5, 5, 41):
            assert abs(spiky.value_at([x]) - quadratic_1d.value_at([x])) <= 1e-15
            assert abs(spiky.grad_at([x])[0] - quadratic_1d.grad_at([x])[0]) <= 1e-15

    def test_batch_oracles_match_scalar(self, spiky_default):
        xs = np.linspace(-4, 4, 17)[:, None]
        vals = spiky_default.values_at(xs)
        grads = spiky_default.grads_at(xs)
        for i, x in enumerate(xs):
            assert vals[i] == pytest.approx(spiky_default.value_at(x), abs=1e-14)
            assert grads[i][0] == pytest.approx(spiky_default.grad_at(x)[0], abs=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(quad=0.0), dict(quad=-1.0), dict(freq=0.0), dict(amp=-0.1), dict(dimension=0),
            dict(quad=math.nan), dict(freq=math.nan), dict(amp=math.nan),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpikyParams(**kwargs)


class TestQuadratic:
    def test_values_and_gradient_norm(self):
        obj = make_quadratic(2)
        assert obj.value_at([3.0, 4.0]) == 12.5
        assert np.linalg.norm(obj.grad_at([3.0, 4.0])) == 5.0

    def test_gradient_vanishes_at_minimizer(self):
        obj = make_quadratic(2)
        assert np.all(obj.grad_at([0.0, 0.0]) == 0.0)

    def test_shifted_center(self):
        obj = make_quadratic(2, center=(1.0, 1.0))
        assert obj.value_at([1.0, 1.0]) == 0.0
        assert np.all(obj.target == np.array([1.0, 1.0]))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            make_quadratic(0)

    def test_center_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_quadratic(2, center=(1.0, 2.0, 3.0))

    @pytest.mark.parametrize("center", [math.nan, (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            make_quadratic(2, center=center)


class TestOracleForm:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["spiky", "quadratic"])
    def test_one_point_calls_are_one_row_batches(self, kind, d):
        if kind == "spiky":
            obj = make_spiky(SpikyParams(dimension=d))
        else:
            obj = make_quadratic(d, np.linspace(-0.5, 0.5, d))
        for x in np.random.default_rng(d).uniform(-6.0, 6.0, size=(500, d)):
            assert obj.value_at(x) == obj.values_at([x])[0]
            assert np.array_equal(obj.grad_at(x), obj.grads_at([x])[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["spiky", "quadratic"])
    def test_batch_oracles_are_row_wise(self, kind, d):
        # a row's value and gradient are the same bits in any batch: the
        # shadow rows a result derives from its iterates rely on it
        if kind == "spiky":
            obj = make_spiky(SpikyParams(dimension=d))
        else:
            obj = make_quadratic(d, np.linspace(-0.5, 0.5, d))
        gen = np.random.default_rng(10 + d)
        # a (steps, trials, d) history, with rows past the divergence cutoff
        hist = gen.uniform(-6.0, 6.0, size=(300, 4, d)) * 10.0 ** gen.integers(0, 9, size=(300, 4, 1))
        hist[5, 1] = np.inf
        hist[7, 2, 0] = np.nan
        hist[9, 3] = 1e300
        xs = hist.reshape(-1, d)
        with np.errstate(over="ignore", invalid="ignore"):
            values, grads = obj.values_at(xs), obj.grads_at(xs)
            batches = {
                "trial rows": (hist[:, 1], slice(1, None, 4)),
                "every other row": (xs[::2], slice(None, None, 2)),
                "column-strided": (np.repeat(xs, 2, axis=1)[:, ::2], slice(None)),
                "fortran order": (np.asfortranarray(xs), slice(None)),
                **{f"chunk {c0}:{c0 + k}": (xs[c0 : c0 + k], slice(c0, c0 + k))
                   for k in (1, 7, 64) for c0 in range(0, len(xs), 97)},
            }
            for name, (batch, rows) in batches.items():
                assert obj.values_at(batch).tobytes() == values[rows].tobytes(), name
                assert obj.grads_at(batch).tobytes() == grads[rows].tobytes(), name

    @pytest.mark.parametrize(
        "shape",
        [lambda n: (n,), lambda n: (n, 2), lambda n: (n - 1, 1)],
        ids=["flat", "wide", "short"],
    )
    def test_wrong_gradient_shape_rejected(self, spiky_default, shape):
        broken = replace(spiky_default, grad=lambda xs: np.zeros(shape(len(xs))))
        with pytest.raises(ValueError, match="gradient oracle returned shape"):
            broken.grads_at(np.zeros((4, 1)))


class TestFiniteDiff:
    def test_exact_on_quadratic(self, quadratic_1d):
        fd = finite_diff_gradient(quadratic_1d, [3.0], h=1e-5)
        assert fd[0] == pytest.approx(3.0, abs=1e-8)

    def test_spiky_at_origin(self, spiky_default):
        fd = finite_diff_gradient(spiky_default, [0.0], h=1e-6)
        assert fd[0] == pytest.approx(10.0, abs=1e-4)

    def test_rejects_nonpositive_step(self, quadratic_1d):
        with pytest.raises(ValueError):
            finite_diff_gradient(quadratic_1d, [1.0], h=0.0)

    def test_gradient_consistency_sweep(self):
        objectives = [
            make_spiky(SpikyParams()),
            make_spiky(SpikyParams(quad=2.0, amp=0.5, freq=4.0, dimension=3)),
            make_quadratic(2, center=(0.5, -0.5)),
        ]
        gen = np.random.Generator(np.random.Philox(key=[7, 0]))
        for obj in objectives:
            pts = gen.uniform(-5, 5, size=(100, obj.dimension))
            for p in pts:
                analytic = obj.grad_at(p)
                fd = finite_diff_gradient(obj, p, h=1e-5)
                scale = max(1.0, float(np.linalg.norm(analytic)))
                assert np.linalg.norm(fd - analytic) / scale <= 1e-5


class TestSmoothness:
    def test_quadratic_always_smooth(self, quadratic_1d):
        gen = np.random.Generator(np.random.Philox(key=[11, 0]))
        for x, y in gen.uniform(-5, 5, size=(200, 2)):
            assert check_smoothness(quadratic_1d, [x], [y])

    def test_spiky_declared_constant_sweep(self, spiky_default):
        gen = np.random.Generator(np.random.Philox(key=[13, 0]))
        pairs = gen.uniform(-5, 5, size=(10_000, 2))
        assert all(check_smoothness(spiky_default, [x], [y]) for x, y in pairs)

    def test_understated_constant_fails_in_a_spike(self, spiky_default):
        from dataclasses import replace

        understated = replace(spiky_default, smoothness=1.0)
        # around x = 3*pi/20 the curvature peaks at quad + amp*freq^2
        assert not check_smoothness(understated, [0.47], [0.48])


class TestAsPoint:
    def test_scalar_promotion(self):
        p = as_point(2.0)
        assert p.shape == (1,) and p.dtype == float

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_point([np.nan])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            as_point([1.0, 2.0], dimension=3)


@given(
    q=st.floats(0.1, 5.0),
    a=st.floats(0.0, 2.0),
    b=st.floats(0.5, 12.0),
    x=st.floats(-5.0, 5.0),
    y=st.floats(-5.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_descent_lemma_property(q, a, b, x, y):
    obj = make_spiky(SpikyParams(quad=q, amp=a, freq=b))
    assert check_smoothness(obj, [x], [y])


@given(
    q=st.floats(0.1, 5.0),
    a=st.floats(0.0, 2.0),
    b=st.floats(0.5, 12.0),
    x=st.floats(-5.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_gradient_matches_finite_difference_property(q, a, b, x):
    obj = make_spiky(SpikyParams(quad=q, amp=a, freq=b))
    analytic = obj.grad_at([x])[0]
    fd = finite_diff_gradient(obj, [x], h=1e-5)[0]
    assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))
