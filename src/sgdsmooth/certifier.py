"""Monte Carlo certification of one-point convexity toward a target.

The central estimate is the inner product between the negative smoothed
gradient at the shadow point y = x - eta*grad f(x) and the direction
x* - y, with a Hoeffding confidence interval propagated through the
inner product.  A point certifies at level c_min when even the CI lower
bound clears c_min * |x* - y|^2.  A region scan splits its confidence
across the points of its grid (Bonferroni), so every certificate of the
scan holds jointly at the stated family-wise level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseKernel, RngStream
from .objectives import Objective, as_point
from .smoothing import smoothed_grad_mc

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
    """Certify one-point convexity of the smoothed landscape at one point."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    px = as_point(x, obj.dimension)
    tgt = as_point(target, obj.dimension)
    y = px - eta * obj.grad_at(px)
    direction = tgt - y
    dist2 = float(direction @ direction)

    est = smoothed_grad_mc(obj, kernel, eta, y, n=n, rng=rng, confidence=confidence)
    inner = float(-np.asarray(est.mean) @ direction)
    # per-coordinate CI propagated through the inner product
    ci = float(np.abs(direction) @ np.asarray(est.confidence_halfwidth))

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

    Each of the m grid points is certified at 1 - (1 - confidence)/m, so
    the certified c holds at the family-wise `confidence` (Bonferroni over
    the planned grid, also when `stop_on_fail` short-circuits after the
    first failing point, as the noise-calibration sweep does, where only
    pass/fail matters).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    grid = [as_point(g, obj.dimension) for g in grid]
    if len(grid) == 0:
        raise ValueError("grid must be non-empty")
    point_confidence = 1.0 - (1.0 - confidence) / len(grid)
    certs: list[OpcCertificate] = []
    for i, x in enumerate(grid):
        cert = assumption1_estimate(
            obj, kernel, eta, x, target, n,
            rng=RngStream(rng.seed, rng.stream_id + i),
            c_min=c_min, confidence=point_confidence,
        )
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
