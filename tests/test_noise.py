"""Noise kernels: norm bounds, moments, stream determinism."""
import numpy as np
import pytest

from sgdsmooth import NoiseKernel, RngStream, second_moment


class TestZeroKernel:
    def test_sample_is_zero_vector(self):
        k = NoiseKernel("zero", 0.0, 3)
        assert np.all(k.sample_batch(1, RngStream(1).generator()) == 0.0)

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


class TestStratified:
    @pytest.mark.parametrize("kind", ["uniform-ball", "uniform-cube"])
    def test_one_sample_per_stratum(self, kind):
        n, r = 1000, 0.7
        w = NoiseKernel(kind, r, 1).sample_stratified(n, RngStream(14).generator())[:, 0]
        k = np.arange(n)
        width = 2.0 * r / n
        assert np.all(-r + width * k <= w) and np.all(w <= -r + width * (k + 1))

    def test_one_generator_call_replays_bitwise(self):
        n, r = 257, 1.3
        k = NoiseKernel("uniform-ball", r, 1)
        gen = RngStream(15, 2).generator()
        w = k.sample_stratified(n, gen)
        ref = RngStream(15, 2).generator()
        u = ref.random((n, 1))
        expect = (u + np.arange(n)[:, None]) * (2.0 * r / n) - r
        assert w.tobytes() == expect.tobytes()
        # the stream moved on by exactly the one call
        assert gen.random() == ref.random()
        assert k.sample_stratified(n, RngStream(15, 2).generator()).tobytes() == w.tobytes()

    def test_ball_and_cube_agree_in_1d(self):
        a = NoiseKernel("uniform-ball", 0.4, 1).sample_stratified(50, RngStream(16).generator())
        b = NoiseKernel("uniform-cube", 0.4, 1).sample_stratified(50, RngStream(16).generator())
        assert a.tobytes() == b.tobytes()

    def test_zero_kernel_draws_nothing(self):
        gen = RngStream(17).generator()
        w = NoiseKernel("zero", 0.0, 1).sample_stratified(10, gen)
        assert w.shape == (10, 1) and np.all(w == 0.0)
        assert gen.random() == RngStream(17).generator().random()

    @pytest.mark.parametrize("kind", ["zero", "uniform-ball", "uniform-cube"])
    def test_rejects_more_than_one_dimension(self, kind):
        with pytest.raises(ValueError, match="1-d only"):
            NoiseKernel(kind, 1.0, 2).sample_stratified(10, RngStream(18).generator())


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

    def test_negative_seeds_distinct_and_keys_unchanged(self):
        # -1 and -2 wrap to keys >= 2**63, which must not pass through float64
        a = RngStream(-1, 1000).generator().uniform(size=3)
        b = RngStream(-2, 1000).generator().uniform(size=3)
        assert a.tobytes() != b.tobytes()
        ref = np.random.Generator(np.random.Philox(key=[20240, 1000])).uniform(size=3)
        assert RngStream(20240, 1000).generator().uniform(size=3).tobytes() == ref.tobytes()


def _formula_draw(kernel, n, gen):
    """Reference: the allocating formulas the in-place draw replaced."""
    d, r = kernel.dimension, kernel.radius
    if kernel.is_zero:
        return np.zeros((n, d))
    if kernel.kind == "uniform-cube":
        return gen.uniform(-r / np.sqrt(d), r / np.sqrt(d), size=(n, d))
    if d == 1:
        return gen.uniform(-r, r, size=(n, 1))
    direction = gen.standard_normal(size=(n, d))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return direction / norms * (r * gen.uniform(size=(n, 1)) ** (1.0 / d))


class TestOutBuffer:
    """The one `out` left is `sample_trials`'s slab: one trial drawn into
    it has the bytes of `sample_batch`'s new array and of the formulas."""

    @pytest.mark.parametrize("r", [0.0, 0.7, 8.9e307])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["zero", "uniform-cube", "uniform-ball"])
    def test_fills_and_returns_out(self, kind, d, r):
        k = NoiseKernel(kind, r, d)
        buf = np.full((1, 50, d), np.nan)
        assert k.sample_trials([RngStream(3, d).generator()], buf) is buf
        fresh = k.sample_batch(50, RngStream(3, d).generator())
        ref = _formula_draw(k, 50, RngStream(3, d).generator())
        assert fresh.shape == (50, d) and fresh.flags.c_contiguous
        assert buf.tobytes() == fresh.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("r", [1e308, np.inf])
    @pytest.mark.parametrize("kind", ["uniform-cube", "uniform-ball"])
    def test_infinite_width_overflows(self, kind, r):
        k = NoiseKernel(kind, r, 1)
        with pytest.raises(OverflowError):
            _formula_draw(k, 4, RngStream(0).generator())
        with pytest.raises(OverflowError):
            k.sample_batch(4, RngStream(0).generator())
        with pytest.raises(OverflowError):
            k.sample_trials([RngStream(0).generator()], np.empty((1, 4, 1)))


class TestSampleTrials:
    """`sample_trials` fills a trial-major (k, m, d) slab, block i with the
    bytes of `sample_batch` and of the allocating formulas on the i-th
    stream.  The slab is cut from a buffer with a spare final row, so its
    blocks are C-contiguous but the slab is not."""

    @pytest.mark.parametrize("m", [1, 255, 256, 257])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kind, d", [
        ("zero", 1), ("uniform-cube", 1), ("uniform-cube", 3), ("uniform-ball", 1), ("uniform-ball", 3),
    ])
    def test_blocks_are_sample_batch_draws(self, kind, d, k, m):
        kern = NoiseKernel(kind, 0.0 if kind == "zero" else 2.5, d)
        streams = [RngStream(40 + m, i) for i in range(k)]
        buf = np.full((k, m + 1, d), np.nan)
        slab = buf[:, :m]
        assert kern.sample_trials((s.generator() for s in streams), slab) is slab
        for i, stream in enumerate(streams):
            batch = kern.sample_batch(m, stream.generator())
            ref = _formula_draw(kern, m, stream.generator())
            assert buf[i, :m].tobytes() == batch.tobytes() == ref.tobytes()
        assert np.isnan(buf[:, m]).all()

    @pytest.mark.parametrize("r", [1e308, np.inf])
    @pytest.mark.parametrize("kind", ["uniform-cube", "uniform-ball"])
    def test_infinite_width_overflows(self, kind, r):
        k = NoiseKernel(kind, r, 1)
        with pytest.raises(OverflowError):
            k.sample_trials([RngStream(0, i).generator() for i in range(2)], np.empty((2, 4, 1)))

    @pytest.mark.parametrize("kind", ["zero", "uniform-cube", "uniform-ball"])
    def test_rejects_a_bad_out(self, kind):
        k = NoiseKernel(kind, 1.0, 2)
        bad = (
            np.empty((3, 4, 2), dtype=np.float32),   # wrong dtype
            np.empty((4, 2)),                        # one trial's shape, not a slab
            np.empty((3, 4, 3)),                     # wrong dimension
            np.empty((4, 3, 2)).transpose(1, 0, 2),  # step-major: blocks not C-contiguous
            np.empty((3, 2, 4)).transpose(0, 2, 1),  # blocks column-major
            np.empty((3, 4, 4))[:, :, ::2],          # blocks strided
        )
        for out in bad:
            gens = [RngStream(0, i).generator() for i in range(3)]
            with pytest.raises(ValueError, match="C-contiguous"):
                k.sample_trials(gens, out)

    @pytest.mark.parametrize("kind", ["zero", "uniform-cube", "uniform-ball"])
    def test_needs_a_generator_per_block(self, kind):
        k = NoiseKernel(kind, 1.0, 2)
        with pytest.raises(ValueError, match="need 3 generators, got 2"):
            k.sample_trials([RngStream(0, i).generator() for i in range(2)], np.empty((3, 4, 2)))


class TestSplitsByRow:
    @pytest.mark.parametrize("r", [0.0, 0.7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["zero", "uniform-cube", "uniform-ball"])
    def test_pieces_are_one_draw_exactly_when_it_splits(self, kind, d, r):
        k = NoiseKernel(kind, r, d)
        whole = k.sample_batch(1500, RngStream(19, d).generator())
        gen = RngStream(19, d).generator()
        pieces = np.concatenate([k.sample_batch(m, gen) for m in (512, 512, 0, 1, 475)])
        assert (pieces.tobytes() == whole.tobytes()) == k.splits_by_row
        # the d > 1 ball draws every normal before any radius
        if kind == "uniform-ball" and d > 1 and r > 0:
            assert not k.splits_by_row


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

    @pytest.mark.parametrize("dimension", [2.5, 2.0, True, "2", None])
    def test_dimension_must_be_an_integer(self, dimension):
        # 2.5 and True would construct and then fail inside numpy's draw
        with pytest.raises(ValueError, match="dimension must be an integer"):
            NoiseKernel("uniform-cube", 1.0, dimension)
        assert NoiseKernel("uniform-cube", 1.0, np.int64(2)).dimension == 2

    @pytest.mark.parametrize("seed, stream_id", [(0.5, 1), (0, 1.5), (1.0, 1), (0, True), ("0", 1)])
    def test_stream_keys_must_be_integers(self, seed, stream_id):
        # RngStream(0.5, 1) would replay RngStream(0, 1) draw for draw
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id", [
        (np.int64(3), np.int64(4)), (np.int64(-1), np.uint64(2**63)),
        (np.uint64(2**64 - 1), np.int32(0)), (np.int32(-7), np.int8(5)),
    ])
    def test_numpy_integer_keys_draw_as_python_ints(self, seed, stream_id):
        # a numpy integer key reduces mod 2**64 as the equal Python int does
        want = RngStream(int(seed), int(stream_id)).generator().random(4)
        got = RngStream(seed, stream_id).generator().random(4)
        assert got.tobytes() == want.tobytes()
