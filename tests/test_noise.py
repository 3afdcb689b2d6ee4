"""Noise kernels: norm bounds, moments, stream determinism."""
import numpy as np
import pytest

from sgdsmooth import NoiseKernel, RngStream, sample, second_moment


class TestZeroKernel:
    def test_sample_is_zero_vector(self):
        k = NoiseKernel("zero", 0.0, 3)
        assert np.all(sample(k, [1.0, 2.0, 3.0], RngStream(1).generator()) == 0.0)

    def test_second_moment(self):
        assert second_moment(NoiseKernel("zero", 0.0, 4)) == 0.0

    def test_zero_radius_ball_is_degenerate(self):
        k = NoiseKernel("uniform-ball", 0.0, 2)
        assert k.is_zero
        assert np.all(k.sample_batch(10, RngStream(1).generator()) == 0.0)


class TestUniformBall:
    def test_norm_bound_and_mean(self):
        k = NoiseKernel("uniform-ball", 0.3, 2)
        draws = k.sample_batch(100_000, RngStream(5).generator())
        norms = np.linalg.norm(draws, axis=1)
        assert norms.max() <= 0.3
        assert np.linalg.norm(draws.mean(axis=0)) <= 4 * 0.3 / np.sqrt(100_000)

    def test_interval_variance_1d(self):
        k = NoiseKernel("uniform-ball", 0.3, 1)
        draws = k.sample_batch(100_000, RngStream(6).generator())
        assert draws[:, 0].var() == pytest.approx(0.03, abs=0.002)

    def test_second_moment_values(self):
        assert second_moment(NoiseKernel("uniform-ball", 1.0, 1)) == pytest.approx(1 / 3)
        assert second_moment(NoiseKernel("uniform-ball", 1.0, 2)) == pytest.approx(0.5)
        assert second_moment(NoiseKernel("uniform-ball", 2.0, 3)) == pytest.approx(4 * 3 / 5)

    def test_second_moment_matches_empirical(self):
        for d in (1, 2, 5):
            k = NoiseKernel("uniform-ball", 0.7, d)
            draws = k.sample_batch(200_000, RngStream(7, d).generator())
            emp = float(np.einsum("ij,ij->i", draws, draws).mean())
            assert emp == pytest.approx(second_moment(k), rel=0.02)


class TestUniformCube:
    def test_norm_bound_via_halfwidth(self):
        k = NoiseKernel("uniform-cube", 0.5, 4)
        draws = k.sample_batch(50_000, RngStream(8).generator())
        assert np.linalg.norm(draws, axis=1).max() <= 0.5

    def test_second_moment(self):
        # d coordinates each uniform with half-width r/sqrt(d)
        assert second_moment(NoiseKernel("uniform-cube", 0.9, 3)) == pytest.approx(0.27)


def test_hard_norm_bound_one_million_samples():
    k = NoiseKernel("uniform-ball", 1.0, 3)
    draws = k.sample_batch(1_000_000, RngStream(9).generator())
    assert np.all(np.einsum("ij,ij->i", draws, draws) <= 1.0 + 1e-15)


class TestStreams:
    def test_identical_keys_replay(self):
        k = NoiseKernel("uniform-ball", 1.0, 2)
        a = k.sample_batch(1000, RngStream(42, 7).generator())
        b = k.sample_batch(1000, RngStream(42, 7).generator())
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        k = NoiseKernel("uniform-ball", 1.0, 2)
        a = k.sample_batch(100, RngStream(42, 7).generator())
        b = k.sample_batch(100, RngStream(42, 8).generator())
        assert a.tobytes() != b.tobytes()

    def test_large_keys_wrap(self):
        gen = RngStream(2**70, 2**65).generator()
        assert np.isfinite(gen.uniform())


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseKernel("gaussian", 1.0, 1)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            NoiseKernel("uniform-ball", -1.0, 1)
        with pytest.raises(ValueError):
            NoiseKernel("uniform-ball", float("nan"), 1)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            NoiseKernel("zero", 0.0, 0)

    def test_sample_dimension_mismatch(self):
        k = NoiseKernel("uniform-ball", 1.0, 2)
        with pytest.raises(ValueError):
            sample(k, [1.0, 2.0, 3.0], RngStream(0).generator())
