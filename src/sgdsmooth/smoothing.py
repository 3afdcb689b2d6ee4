"""Noise-convolved objective g(y) = E_w f(y - eta*w) and its gradient.

Every Monte Carlo mean, here and in `theory`, is one estimator: draws from
`perturbed_points`, then `bounded_mean`, a Hoeffding interval from a
declared sample range, Bonferroni-split across a gradient's coordinates.
A sample spread wider than that range (an understated smoothness) or a
NaN/inf sample raises.

In 1-d the draws are stratified: sample k comes from the k-th of n
equal-mass strata of the kernel's interval [-r, r], so its perturbed point
lies in a window of width eta*2r/n.  Each sample is then confined to the
window's width times a Lipschitz bound of the sample along the
perturbation, and Hoeffding's inequality for independent samples with
per-sample ranges (Hoeffding 1963, Thm 2) gives a halfwidth that shrinks
like n^-1.5 at the same stated confidence.  The per-stratum ranges:

  value     (|grad f(y)| + L*eta*r) * eta*2r/n
  gradient  L * eta*2r/n, the i.i.d. range 2*L*eta*r divided by n
  drift     2*(d0 + reach)*(1 + eta*L) * eta*2r/n  (see `theory.drift_check`)

The total-spread check keeps the i.i.d. range, and adjacent strata must
lie within twice the per-stratum range of each other, so an understated
L raises instead of yielding a halfwidth that does not hold.  For d > 1
the draws stay i.i.d.

In 1-d the smoothed gradient needs no samples: both uniform kernels are
the interval [-r, r], and `interval_grad` returns
g'(y) = (f(y + h) - f(y - h)) / (2h), h = eta*r, from one batched value
call, with a modelled rounding bound; the certifier uses it, and the
Monte Carlo gradient stays for d > 1 and as its 1-d cross-check.  For
the 1-d spiky landscape under interval noise the convolution also has a
closed form (sinc attenuation of the spike term) used as an exact
cross-oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .noise import NoiseKernel, RngStream
from .objectives import Objective, SpikyParams, as_point

__all__ = [
    "SmoothedEstimate",
    "perturbed_points",
    "bounded_mean",
    "smoothed_value_mc",
    "smoothed_grad_mc",
    "interval_grad",
    "smoothed_value_closed",
    "smoothed_grad_closed",
    "hoeffding_tail",
    "hoeffding_halfwidth",
]

DEFAULT_CONFIDENCE = 0.99
DEFAULT_SAMPLES = 10_000
RANGE_RTOL = 1e-9
_ORACLE_ULPS = 8    # `interval_grad`'s model of one oracle value's rounding, in units u


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
    range_bound: float      # each sample's Hoeffding range (per stratum in 1-d)
    confidence_halfwidth: Union[float, np.ndarray]
    confidence: float


def perturbed_points(
    obj: Objective, kernel: NoiseKernel, eta: float, y, n: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray, Optional[float]]:
    """Validate n >= 1, eta >= 0 and the kernel's dimension, coerce y to a
    point p, and return p, the (n, d) batch p - eta*w of n draws w from one
    generator, and the width of a stratum in point space.

    A 1-d objective draws w stratified (`NoiseKernel.sample_stratified`):
    row k lies in the k-th of n equal-mass strata of [-r, r], and the width
    returned is eta*2r/n.  For d > 1 the draws are i.i.d. from
    `sample_batch` and the width is None."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if kernel.dimension != obj.dimension:
        raise ValueError(f"kernel dimension {kernel.dimension} does not match "
                         f"objective dimension {obj.dimension}")
    p = as_point(y, obj.dimension)
    gen = rng.generator()
    if obj.dimension == 1:
        return p, p[None, :] - eta * kernel.sample_stratified(n, gen), eta * 2.0 * kernel.radius / n
    return p, p[None, :] - eta * kernel.sample_batch(n, gen), None


def bounded_mean(
    samples: np.ndarray,
    value_range: float,
    confidence: float,
    stratum_range: Optional[float] = None,
) -> SmoothedEstimate:
    """Mean of samples confined to an interval of width `value_range`, with its
    two-sided Hoeffding halfwidth.  Samples of shape (n, k) give k means, each
    at confidence 1 - (1 - confidence)/k (Bonferroni).  A confidence outside
    (0, 1), a column that spreads wider than the range, or a NaN or inf
    sample raises ValueError.

    Stratified samples, row k drawn from the k-th of n equal-mass strata in
    order, pass `stratum_range`: the width of the interval each row is
    confined to.  The halfwidth then takes min(value_range, stratum_range)
    as every row's range (Hoeffding 1963, Thm 2), and two adjacent rows,
    whose strata together span twice a stratum, must differ by at most
    2 * stratum_range; a larger step raises, as an understated Lipschitz
    bound would cause."""
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
    per_sample = value_range
    if stratum_range is not None:
        step = np.abs(np.diff(samples, axis=0)).max(axis=0, initial=0.0)
        over = step - RANGE_RTOL * (2.0 * stratum_range + np.maximum(np.abs(lo), np.abs(hi)))
        if not np.all(over <= 2.0 * stratum_range):
            raise ValueError(f"adjacent strata differ by {np.max(step):.6g}, beyond twice the "
                             f"per-stratum range {stratum_range:.6g} (understated smoothness)")
        per_sample = min(value_range, stratum_range)
    hw = hoeffding_halfwidth(n, per_sample, 1.0 - (1.0 - confidence) / cols)
    if samples.ndim == 1:
        return SmoothedEstimate(float(samples.mean()), n, per_sample, hw, confidence)
    return SmoothedEstimate(samples.mean(axis=0), n, per_sample, np.full(cols, hw), confidence)


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
    lies within eta*r*|grad f(y)| + L/2 (eta*r)^2 of f(y); in 1-d a stratum's
    samples lie within (|grad f(y)| + L*eta*r) * eta*2r/n of each other."""
    p, points, width = perturbed_points(obj, kernel, eta, y, n, rng)
    reach = eta * kernel.radius
    slope = float(np.linalg.norm(obj.grad_at(p)))
    rb = 2.0 * (reach * slope + 0.5 * obj.smoothness * reach**2)
    stratum = None if width is None else (slope + obj.smoothness * reach) * width
    return bounded_mean(obj.values_at(points), rb, confidence, stratum)


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
    bound |grad f(y - eta*w) - grad f(y)|_i <= L * eta * r.  In 1-d a
    stratum's samples lie within L * eta*2r/n of each other.
    """
    _, points, width = perturbed_points(obj, kernel, eta, y, n, rng)
    rb = 2.0 * obj.smoothness * eta * kernel.radius
    stratum = None if width is None else obj.smoothness * width
    return bounded_mean(obj.grads_at(points), rb, confidence, stratum)


def interval_grad(obj: Objective, h: float, ys) -> tuple[np.ndarray, np.ndarray]:
    """The exact smoothed gradient of a 1-d objective from two value calls.

    In d = 1 both uniform kernels are the interval [-r, r], so with
    h = eta*r the smoothed slope is g'(y) = E f'(y - eta*w) =
    (f(y + h) - f(y - h)) / (2h) for every f.  For an (m, 1) batch `ys`
    this makes one `values_at` call on the 2m points ys + h, ys - h and
    returns g' as an (m, 1) array with an (m,) bound on its rounding
    error; each row's bits are those of a one-row call.  h = 0 (the zero
    kernel, or r = 0) returns `grads_at(ys)` with bound 0.

    The bound is a rounding model, first order in u = 2**-53, with h and
    y exact, f's gradient L-Lipschitz, and the computed g' in place of
    the true one in the terms below:
      - y +- h rounds by at most u(|y| + h), over which f moves by at most
        its slope there, within L*h of g'(y): u(|y| + h)(|g'| + L*h) per end;
      - each oracle value is taken to be f exact at a point within
        K = `_ORACLE_ULPS` = 8 units u (relative) of its argument, then
        rounded to within Ku of itself: K times the first term again, plus
        Ku|f| per end;
      - the subtraction rounds by u|f(y+h) - f(y-h)|, before the division
        by 2h, and the division by u|g'|.
    A non-finite value or bound raises ValueError, as a non-finite Monte
    Carlo sample does."""
    if obj.dimension != 1:
        raise ValueError(f"interval_grad is 1-d only, got dimension {obj.dimension}")
    if not (h >= 0 and math.isfinite(h)):
        raise ValueError(f"h must be finite and >= 0, got {h}")
    if h == 0.0:
        g = obj.grads_at(ys)
        bound = np.zeros(len(g))
    else:
        ys = np.asarray(ys, dtype=float)
        f = obj.values_at(np.concatenate([ys + h, ys - h]))
        fa, fb = f[: len(ys)], f[len(ys) :]
        u, k = 2.0**-53, _ORACLE_ULPS
        # a non-finite value raises below, without a warning on the way
        with np.errstate(invalid="ignore", over="ignore"):
            diff = fa - fb
            g = (diff / (2.0 * h))[:, None]
            slope = np.abs(g[:, 0]) + obj.smoothness * h
            ends = 2.0 * (1.0 + k) * (np.abs(ys[:, 0]) + h) * slope + k * (np.abs(fa) + np.abs(fb))
            bound = u * ((ends + np.abs(diff)) / (2.0 * h) + np.abs(g[:, 0]))
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(bound))):
        raise ValueError("non-finite smoothed gradient or rounding bound")
    return g, bound


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
