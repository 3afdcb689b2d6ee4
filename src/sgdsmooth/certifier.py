"""Certification of one-point convexity toward a target.

The central estimate is the inner product between the negative smoothed
gradient at the shadow point y = x - eta*grad f(x) and the direction
x* - y, with an error halfwidth propagated through the inner product.
A point certifies at level c_min when even the lower bound clears
c_min * |x* - y|^2.

In 1-d the smoothed gradient is exact (`smoothing.interval_grad`, two
value calls per point), its halfwidth is a rounding bound and no sample
is drawn: a certificate reports n = 0.  For d > 1 it is a Monte Carlo
estimate (`smoothing.smoothed_grad_mc`) with a Hoeffding interval, and a
region scan splits its confidence across the points of its grid
(Bonferroni), so every certificate of the scan holds jointly at the
stated family-wise level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseKernel, RngStream
from .objectives import Objective, as_point
from .smoothing import interval_grad, smoothed_grad_mc

__all__ = [
    "OpcCertificate",
    "ScanReport",
    "assumption1_estimate",
    "region_scan",
]

DEGENERATE_DIST2 = 1e-12


@dataclass(frozen=True)
class OpcCertificate:
    x: np.ndarray
    y: np.ndarray
    inner: float
    dist2: float
    c_hat: float            # nan when degenerate
    ci_halfwidth: float
    n: int
    c_min: float
    passed: bool
    degenerate: bool


def assumption1_estimate(
    obj: Objective,
    kernel: NoiseKernel,
    eta: float,
    x,
    target,
    n: int,
    rng: RngStream = RngStream(0),
    c_min: float = 0.0,
    confidence: float = 0.99,
) -> OpcCertificate:
    """Certify one-point convexity of the smoothed landscape at one point.

    In 1-d the certificate is exact up to rounding and draws nothing; for
    d > 1 it averages n draws from `rng` at the given confidence."""
    _check(n, eta, confidence)
    px = as_point(x, obj.dimension)
    tgt = as_point(target, obj.dimension)
    if obj.dimension == 1:
        return _interval_certificates(obj, kernel, eta, px[None, :], tgt, c_min)[0]
    y = px - eta * obj.grad_at(px)
    est = smoothed_grad_mc(obj, kernel, eta, y, n=n, rng=rng, confidence=confidence)
    return _certificate(px, y, tgt, np.asarray(est.mean), np.asarray(est.confidence_halfwidth), n, c_min)


def _check(n: int, eta: float, confidence: float) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def _interval_certificates(obj, kernel, eta, xs, tgt, c_min) -> list[OpcCertificate]:
    """Exact 1-d certificates of the (m, 1) points xs: one `grads_at` call
    for their shadow points, whose rows are those of per-point calls, and
    one `interval_grad` call; each halfwidth is |x* - y| times its bound."""
    if kernel.dimension != 1:
        raise ValueError(f"kernel dimension {kernel.dimension} does not match "
                         f"objective dimension 1")
    ys = xs - eta * obj.grads_at(xs)
    grads, bounds = interval_grad(obj, 0.0 if kernel.is_zero else eta * kernel.radius, ys)
    return [_certificate(x, y, tgt, g, b[None], 0, c_min)
            for x, y, g, b in zip(xs, ys, grads, bounds)]


def _certificate(px, y, tgt, grad, halfwidth, n, c_min) -> OpcCertificate:
    """The certificate at x with shadow point y, from the smoothed gradient
    at y and its per-coordinate halfwidth."""
    direction = tgt - y
    dist2 = float(direction @ direction)
    inner = float(-grad @ direction)
    # per-coordinate halfwidth propagated through the inner product
    ci = float(np.abs(direction) @ halfwidth)
    if dist2 < DEGENERATE_DIST2:
        return OpcCertificate(px, y, inner, dist2, math.nan, ci, n, c_min, False, True)
    passed = (inner - ci) >= c_min * dist2
    return OpcCertificate(px, y, inner, dist2, inner / dist2, ci, n, c_min, passed, False)


@dataclass(frozen=True)
class ScanReport:
    certificates: list[OpcCertificate]
    pass_fraction: float
    certified_c: float      # inf over non-degenerate points of (inner - ci)/dist2
    degenerate_count: int
    c_min: float
    confidence: float       # family-wise: every certificate's CI holds jointly at this level


def region_scan(
    obj: Objective,
    kernel: NoiseKernel,
    eta: float,
    target,
    grid,
    c_min: float,
    n: int,
    rng: RngStream = RngStream(0),
    confidence: float = 0.99,
    stop_on_fail: bool = False,
) -> ScanReport:
    """Certify every grid point; the certified c for downstream theorem
    constants is the infimum of the CI-lower-bounded ratio.

    In 1-d one `grads_at` call gives every shadow point and one
    `interval_grad` call every exact certificate; `n` and `rng` are
    validated but draw nothing.  For d > 1 each of the m grid points is
    certified by Monte Carlo at 1 - (1 - confidence)/m, so the certified
    c holds at the family-wise `confidence` (Bonferroni over the planned
    grid, also when `stop_on_fail` short-circuits).  With `stop_on_fail`
    the report ends at the first failing point, as the noise-calibration
    sweep needs, where only pass/fail matters.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    grid = [as_point(g, obj.dimension) for g in grid]
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    point_confidence = 1.0 - (1.0 - confidence) / len(grid)
    _check(n, eta, point_confidence)
    if obj.dimension == 1:
        scan = _interval_certificates(obj, kernel, eta, np.array(grid), as_point(target, 1), c_min)
    else:
        scan = (
            assumption1_estimate(
                obj, kernel, eta, x, target, n,
                rng=RngStream(rng.seed, rng.stream_id + i),
                c_min=c_min, confidence=point_confidence,
            )
            for i, x in enumerate(grid)
        )
    certs: list[OpcCertificate] = []
    for cert in scan:
        certs.append(cert)
        if stop_on_fail and not cert.degenerate and not cert.passed:
            break
    live = [c for c in certs if not c.degenerate]
    frac = sum(c.passed for c in live) / len(live) if live else 0.0
    certified = min(((c.inner - c.ci_halfwidth) / c.dist2 for c in live), default=-math.inf)
    return ScanReport(
        certificates=certs,
        pass_fraction=frac,
        certified_c=certified,
        degenerate_count=len(certs) - len(live),
        c_min=c_min,
        confidence=confidence,
    )
