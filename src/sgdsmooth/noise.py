"""Zero-mean, norm-bounded gradient-noise kernels with reproducible streams.

PRNG: numpy's Philox 4x64 counter-based generator (numpy >= 1.17,
pinned in pyproject).  The 128-bit Philox key is (seed, stream_id), so
distinct stream ids give independent streams and identical pairs replay
the exact same sample sequence on any platform.

`NoiseKernel.sample_batch` draws i.i.d. samples; it drives the SGD engine
and every kernel in every dimension.  Given a caller's (n, d) buffer
(`out=`), it draws in place, so the engine stores each trial's noise
where it reads it (a piece at a time where `splits_by_row` holds).
Philox is counter-based: a draw depends only on its
key and stream position, not on where it lands.  In place, the interval
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
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["NoiseKernel", "RngStream", "second_moment"]

KERNEL_KINDS = ("zero", "uniform-cube", "uniform-ball")


@dataclass(frozen=True)
class RngStream:
    """A named, replayable random stream (Philox key = (seed, stream_id))."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # a uint64 array: numpy casts a list entry >= 2**63 through float64
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
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

    def sample_batch(
        self, n: int, gen: np.random.Generator, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Draw n samples at once, shape (n, d).  Row order is the stream order.

        With `out`, a C-contiguous float64 (n, d) array, the samples are
        written into it and it is returned; without, a new array is
        allocated.  Both run the same draws and give the same bytes.
        """
        d = self.dimension
        if out is None:
            out = np.empty((n, d))
        elif out.shape != (n, d) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape {(n, d)}, "
                f"got {out.dtype} {out.shape}"
            )
        if self.is_zero:
            out.fill(0.0)
            return out
        if self.kind == "uniform-cube" or d == 1:
            # the cube's coordinates, or the 1-d ball's interval [-r, r]:
            # one uniform u per coordinate, scaled as gen.uniform(-h, h) does
            half = float(self.radius) / math.sqrt(d)
            width = half - -half
            if not math.isfinite(width):
                raise OverflowError("Range exceeds valid bounds")
            gen.random(out=out)
            out *= width
            out += -half
            return out
        # uniform-ball: isotropic direction, radius ~ r * U^(1/d)
        gen.standard_normal(out=out)
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = self.radius * gen.uniform(size=(n, 1)) ** (1.0 / d)
        out /= norms
        out *= radii
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
