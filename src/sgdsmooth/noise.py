"""Zero-mean, norm-bounded gradient-noise kernels with reproducible streams.

PRNG: numpy's Philox 4x64 counter-based generator (numpy >= 1.17,
pinned in pyproject).  The 128-bit Philox key is (seed, stream_id), so
distinct stream ids give independent streams and identical pairs replay
the exact same sample sequence on any platform.

`NoiseKernel.sample_trials` draws i.i.d. samples for k trials at once,
each from its own generator, into a caller's trial-major (k, m, d)
slab.  It drives the SGD engine, which so stores each trial's noise
where it reads it, 256 rows at a time where `splits_by_row` holds.
`NoiseKernel.sample_batch`, its one-trial form, draws into a new (n, d)
array.  Every kernel draws through them in every dimension.  Philox is
counter-based: a draw depends only on its key and stream position, not
on where it lands.  In place, the interval
and cube kinds compute -h + (h - -h)*u from uniforms u = `gen.random`,
the same doubles as `gen.uniform(-h, h)` (low + (high - low)*u), with
its OverflowError for a non-finite width.  `NoiseKernel.sample_stratified`
draws one sample per equal-mass stratum of a 1-d kernel's interval
[-r, r]: with n strata of width 2r/n, w_k = -r + (2r/n)(k + u_k) for
k = 0..n-1 and one uniform u_k each.  Monte Carlo estimators of the
convolved loss use it in 1-d, where a per-stratum range makes their
Hoeffding halfwidth shrink like n^-1.5 instead of n^-1/2.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["NoiseKernel", "RngStream", "second_moment"]

KERNEL_KINDS = ("zero", "uniform-cube", "uniform-ball")


def _require_integer(name: str, value) -> None:
    # a bool is an Integral, but no count or key
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """A named, replayable random stream (Philox key = (seed, stream_id))."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        _require_integer("seed", self.seed)
        _require_integer("stream_id", self.stream_id)

    def generator(self) -> np.random.Generator:
        # a uint64 array: numpy casts a list entry >= 2**63 through float64;
        # int() first, as a numpy integer key overflows in `% 2**64`
        key = np.array([int(self.seed) % 2**64, int(self.stream_id) % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseKernel:
    """Noise distribution with a hard 2-norm bound `radius`.

    kinds:
      zero          degenerate point mass at 0
      uniform-cube  per-coordinate uniform on [-radius/sqrt(d), radius/sqrt(d)]
      uniform-ball  uniform on the solid ball of the given radius
                    (in d=1 this is the uniform interval [-radius, radius])
    """

    kind: str
    radius: float
    dimension: int

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.radius >= 0:  # NaN fails too
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        _require_integer("dimension", self.dimension)
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or self.radius == 0.0

    @property
    def splits_by_row(self) -> bool:
        """Whether draws of m then k rows give one m + k row draw's bytes:
        false for the d > 1 ball, which draws every normal first."""
        return self.is_zero or self.kind == "uniform-cube" or self.dimension == 1

    def sample_batch(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw n samples at once into a new (n, d) array, row order the
        stream order: one trial of `sample_trials`."""
        return self.sample_trials((gen,), np.empty((1, n, self.dimension)))[0]

    def sample_trials(self, gens: Iterable[np.random.Generator], out: np.ndarray) -> np.ndarray:
        """Fill a trial-major (k, m, d) float64 slab, each row block `out[i]`
        C-contiguous, and return it: block i gets the bytes
        `sample_batch(m, gen_i)` gives, gen_i the i-th of the k
        generators `gens` yields, each taken only when its block is drawn.

        The interval and cube kinds draw one `gen.random` per block, then
        scale the whole slab once; the zero kernel fills it and draws
        nothing; the d > 1 ball draws each block whole.
        """
        d = self.dimension
        if out.ndim != 3 or out.shape[2] != d or out.dtype != np.float64 or not (
            len(out) == 0 or out[0].flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a float64 (k, m, {d}) array of C-contiguous (m, {d}) "
                f"blocks, got {out.dtype} {out.shape} with strides {out.strides}"
            )
        interval = not self.is_zero and (self.kind == "uniform-cube" or d == 1)
        if interval:
            # the cube's coordinates, or the 1-d ball's interval [-r, r]:
            # one uniform u per coordinate, scaled as gen.uniform(-h, h) does
            half = float(self.radius) / math.sqrt(d)
            width = half - -half
            if not math.isfinite(width):
                raise OverflowError("Range exceeds valid bounds")
        drawn = 0
        for block, gen in zip(out, gens):
            drawn += 1
            if interval:
                gen.random(out=block)
            elif not self.is_zero:
                # uniform-ball: isotropic direction, radius ~ r * U^(1/d)
                gen.standard_normal(out=block)
                norms = np.linalg.norm(block, axis=1, keepdims=True)
                norms[norms == 0.0] = 1.0
                radii = self.radius * gen.uniform(size=(len(block), 1)) ** (1.0 / d)
                block /= norms
                block *= radii
        if drawn != len(out):
            raise ValueError(f"need {len(out)} generators, got {drawn}")
        if interval:
            out *= width
            out += -half
        elif self.is_zero:
            out.fill(0.0)
        return out

    def sample_stratified(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw one sample per equal-mass stratum, shape (n, 1), 1-d only.

        In d = 1 both uniform kinds are the interval [-radius, radius]; it
        splits into n strata of width 2*radius/n and row k is
        -radius + (2*radius/n)(k + u_k), all n uniforms u_k from one
        generator call, so row k lies in stratum k.  The zero kernel draws
        nothing.  Raises for d > 1."""
        if self.dimension != 1:
            raise ValueError(f"stratified draws are 1-d only, got dimension {self.dimension}")
        if self.is_zero:
            return np.zeros((n, 1))
        w = gen.random((n, 1))
        w += np.arange(n)[:, None]
        w *= 2.0 * self.radius / n
        w -= self.radius
        return w


def second_moment(kernel: NoiseKernel) -> float:
    """Closed-form E|omega|^2 for the analytic kernel kinds."""
    r, d = kernel.radius, kernel.dimension
    if kernel.kind == "zero":
        return 0.0
    if kernel.kind == "uniform-cube":
        # d coordinates, each uniform with half-width r/sqrt(d): d * (r^2/d)/3
        return r**2 / 3.0
    if kernel.kind == "uniform-ball":
        return r**2 * d / (d + 2.0)
    raise ValueError(f"no closed-form second moment for kind {kernel.kind!r}")
