"""Noise-convolved objective g(y) = E_w f(y - eta*w) and its gradient.

Monte Carlo estimates come with Hoeffding confidence intervals; for the
1-d spiky landscape under interval noise the convolution has a closed
form (sinc attenuation of the spike term) used as an exact cross-oracle.
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
    "smoothed_value_mc",
    "smoothed_grad_mc",
    "smoothed_value_closed",
    "smoothed_grad_closed",
    "hoeffding_tail",
    "hoeffding_halfwidth",
]

DEFAULT_CONFIDENCE = 0.99
DEFAULT_SAMPLES = 10_000


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


def _sample_range(obj: Objective, eta: float, y: np.ndarray, radius: float) -> float:
    """Width of the interval confining f(y - eta*w) around f(y).

    Local bound: |f(y - eta*w) - f(y)| <= eta*r*|grad f(y)| + L/2 (eta*r)^2,
    so the samples live in an interval of twice that halfwidth.
    """
    reach = eta * radius
    halfwidth = reach * float(np.linalg.norm(obj.grad_at(y))) + 0.5 * obj.smoothness * reach**2
    return 2.0 * halfwidth


def smoothed_value_mc(
    obj: Objective,
    kernel: NoiseKernel,
    eta: float,
    y,
    n: int = DEFAULT_SAMPLES,
    rng: RngStream = RngStream(0),
    confidence: float = DEFAULT_CONFIDENCE,
) -> SmoothedEstimate:
    """Estimate g(y) = E f(y - eta*w) by averaging n noise draws."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    p = as_point(y, obj.dimension)
    draws = kernel.sample_batch(n, rng.generator())
    vals = obj.values_at(p[None, :] - eta * draws)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite objective value in smoothing sample")
    rb = _sample_range(obj, eta, p, kernel.radius)
    hw = hoeffding_halfwidth(n, rb, confidence) if rb > 0 else 0.0
    return SmoothedEstimate(float(vals.mean()), n, rb, hw, confidence)


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    p = as_point(y, obj.dimension)
    draws = kernel.sample_batch(n, rng.generator())
    grads = obj.grads_at(p[None, :] - eta * draws)
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient in smoothing sample")
    rb = 2.0 * obj.smoothness * eta * kernel.radius
    if rb > 0:
        per_coord_conf = 1.0 - (1.0 - confidence) / obj.dimension
        hw = np.full(obj.dimension, hoeffding_halfwidth(n, rb, per_coord_conf))
    else:
        hw = np.zeros(obj.dimension)
    return SmoothedEstimate(grads.mean(axis=0), n, rb, hw, confidence)


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
