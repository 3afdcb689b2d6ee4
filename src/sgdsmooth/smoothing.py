"""Noise-convolved objective g(y) = E_w f(y - eta*w) and its gradient.

Every Monte Carlo mean, here and in `theory`, is one estimator: draws from
`perturbed_points`, then `bounded_mean`, a Hoeffding interval from a
declared sample range, Bonferroni-split across a gradient's coordinates.
A sample spread wider than that range (an understated smoothness) or a
NaN/inf sample raises.  For the 1-d spiky landscape under interval noise
the convolution has a closed form (sinc attenuation of the spike term)
used as an exact cross-oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .noise import NoiseKernel, RngStream
from .objectives import Objective, SpikyParams, as_point

__all__ = [
    "SmoothedEstimate",
    "perturbed_points",
    "bounded_mean",
    "smoothed_value_mc",
    "smoothed_grad_mc",
    "smoothed_value_closed",
    "smoothed_grad_closed",
    "hoeffding_tail",
    "hoeffding_halfwidth",
]

DEFAULT_CONFIDENCE = 0.99
DEFAULT_SAMPLES = 10_000
RANGE_RTOL = 1e-9


def hoeffding_tail(n: int, value_range: float, t: float) -> float:
    """One-sided Hoeffding tail exp(-2 n t^2 / range^2) for i.i.d. samples
    confined to an interval of the given width."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if value_range <= 0:
        raise ValueError(f"range must be positive, got {value_range}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return math.exp(-2.0 * n * t**2 / value_range**2)


def hoeffding_halfwidth(n: int, value_range: float, confidence: float) -> float:
    """Two-sided confidence halfwidth: sqrt(range^2 * ln(2/alpha) / (2n))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if value_range < 0:
        raise ValueError(f"range must be >= 0, got {value_range}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    return math.sqrt(value_range**2 * math.log(2.0 / alpha) / (2.0 * n))


@dataclass(frozen=True)
class SmoothedEstimate:
    """A Monte Carlo mean plus the Hoeffding bookkeeping behind its CI."""

    mean: Union[float, np.ndarray]
    samples: int
    range_bound: float
    confidence_halfwidth: Union[float, np.ndarray]
    confidence: float


def perturbed_points(
    obj: Objective, kernel: NoiseKernel, eta: float, y, n: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Validate n >= 1 and eta >= 0, coerce y to a point p, and return p with
    the (n, d) batch p - eta*w of n draws w from one `sample_batch` call."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    p = as_point(y, obj.dimension)
    return p, p[None, :] - eta * kernel.sample_batch(n, rng.generator())


def bounded_mean(samples: np.ndarray, value_range: float, confidence: float) -> SmoothedEstimate:
    """Mean of samples confined to an interval of width `value_range`, with its
    two-sided Hoeffding halfwidth.  Samples of shape (n, k) give k means, each
    at confidence 1 - (1 - confidence)/k (Bonferroni).  A confidence outside
    (0, 1), a column that spreads wider than the range, or a NaN or inf
    sample raises ValueError."""
    # checked before the split: for k >= 2 the per-column level of c <= 0 is still positive
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n, cols = samples.shape[0], samples[0].size
    lo, hi = samples.min(axis=0), samples.max(axis=0)
    # rounding allowance scales with the range and the samples; NaN/inf makes `over` NaN
    with np.errstate(invalid="ignore"):
        spread = hi - lo
        over = spread - RANGE_RTOL * (value_range + np.maximum(np.abs(lo), np.abs(hi)))
    if not np.all(over <= value_range):
        raise ValueError(f"samples spread over {np.max(spread):.6g}, beyond the declared range "
                         f"{value_range:.6g} (understated smoothness or a non-finite sample)")
    hw = hoeffding_halfwidth(n, value_range, 1.0 - (1.0 - confidence) / cols)
    if samples.ndim == 1:
        return SmoothedEstimate(float(samples.mean()), n, value_range, hw, confidence)
    return SmoothedEstimate(samples.mean(axis=0), n, value_range, np.full(cols, hw), confidence)


def smoothed_value_mc(
    obj: Objective,
    kernel: NoiseKernel,
    eta: float,
    y,
    n: int = DEFAULT_SAMPLES,
    rng: RngStream = RngStream(0),
    confidence: float = DEFAULT_CONFIDENCE,
) -> SmoothedEstimate:
    """Estimate g(y) = E f(y - eta*w) by averaging n noise draws.  Each sample
    lies within eta*r*|grad f(y)| + L/2 (eta*r)^2 of f(y)."""
    p, points = perturbed_points(obj, kernel, eta, y, n, rng)
    reach = eta * kernel.radius
    rb = 2.0 * (reach * float(np.linalg.norm(obj.grad_at(p))) + 0.5 * obj.smoothness * reach**2)
    return bounded_mean(obj.values_at(points), rb, confidence)


def smoothed_grad_mc(
    obj: Objective,
    kernel: NoiseKernel,
    eta: float,
    y,
    n: int = DEFAULT_SAMPLES,
    rng: RngStream = RngStream(0),
    confidence: float = DEFAULT_CONFIDENCE,
) -> SmoothedEstimate:
    """Estimate grad g(y) = E grad f(y - eta*w) coordinate-wise.

    The CI is per coordinate with Bonferroni correction across the d
    coordinates; each coordinate's sample range uses the gradient-Lipschitz
    bound |grad f(y - eta*w) - grad f(y)|_i <= L * eta * r.
    """
    _, points = perturbed_points(obj, kernel, eta, y, n, rng)
    rb = 2.0 * obj.smoothness * eta * kernel.radius
    return bounded_mean(obj.grads_at(points), rb, confidence)


def _sinc(u: float) -> float:
    return 1.0 if u == 0.0 else math.sin(u) / u


def smoothed_value_closed(params: SpikyParams, r: float, eta: float, y) -> float:
    """Exact convolution of the 1-d spiky objective with interval noise.

    E[(q/2)(y - eta*w)^2] = (q/2)(y^2 + eta^2 r^2 / 3) and
    E[sin(B(y - eta*w))] = sin(B*y) * sinc(B*eta*r) for w ~ U[-r, r].
    """
    if params.dimension != 1:
        raise ValueError("closed-form smoothing is 1-d only")
    yv = float(as_point(y, 1)[0])
    quad = 0.5 * params.quad * (yv**2 + eta**2 * r**2 / 3.0)
    spike = params.amp * math.sin(params.freq * yv) * _sinc(params.freq * eta * r)
    return quad + spike


def smoothed_grad_closed(params: SpikyParams, r: float, eta: float, y) -> float:
    """d/dy of `smoothed_value_closed`: q*y + A*B*cos(B*y)*sinc(B*eta*r)."""
    if params.dimension != 1:
        raise ValueError("closed-form smoothing is 1-d only")
    yv = float(as_point(y, 1)[0])
    return params.quad * yv + params.amp * params.freq * math.cos(
        params.freq * yv
    ) * _sinc(params.freq * eta * r)
