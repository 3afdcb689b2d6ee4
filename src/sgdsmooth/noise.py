"""Zero-mean, norm-bounded gradient-noise kernels with reproducible streams.

PRNG: numpy's Philox 4x64 counter-based generator (numpy >= 1.17,
pinned in pyproject).  The 128-bit Philox key is (seed, stream_id), so
distinct stream ids give independent streams and identical pairs replay
the exact same sample sequence on any platform.

`NoiseKernel.sample_batch` draws i.i.d. samples; it drives the SGD engine
and every kernel in every dimension.  `NoiseKernel.sample_stratified`
draws one sample per equal-mass stratum of a 1-d kernel's interval
[-r, r]: with n strata of width 2r/n, w_k = -r + (2r/n)(k + u_k) for
k = 0..n-1 and one uniform u_k each.  Monte Carlo estimators of the
convolved loss use it in 1-d, where a per-stratum range makes their
Hoeffding halfwidth shrink like n^-1.5 instead of n^-1/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import as_point

__all__ = ["NoiseKernel", "RngStream", "sample", "second_moment"]

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

    def sample_batch(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw n samples at once, shape (n, d).  Row order is the stream order."""
        d = self.dimension
        if self.is_zero:
            return np.zeros((n, d))
        if self.kind == "uniform-cube":
            half = self.radius / np.sqrt(d)
            return gen.uniform(-half, half, size=(n, d))
        if d == 1:
            # 1-d ball is the interval [-r, r]; one uniform draw per sample
            return gen.uniform(-self.radius, self.radius, size=(n, 1))
        # uniform-ball: isotropic direction, radius ~ r * U^(1/d)
        direction = gen.standard_normal(size=(n, d))
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = self.radius * gen.uniform(size=(n, 1)) ** (1.0 / d)
        return direction / norms * radii

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


def sample(kernel: NoiseKernel, at, gen: np.random.Generator) -> np.ndarray:
    """One noise draw.  `at` is accepted (and dimension-checked) so that
    x-dependent kernels can slot in later; the built-in kinds ignore it."""
    as_point(at, kernel.dimension)
    return kernel.sample_batch(1, gen)[0]


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
