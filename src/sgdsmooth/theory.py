"""Convergence/stay-bound constants and their empirical validation.

The per-step distance recursion for the shadow sequence contracts at
rate lambda = 2*eta*c - eta^2*L^2 down to a noise floor b =
eta^2*r^2*(1+eta*L)^2.  After T1_min steps the shadow point is confined
to squared radius 20*b/lambda; over the next T2 steps excursions stay
within delta^2 = mu^2*b/lambda, mu = max{8, 42*sqrt(ln zeta)},
zeta = 9*T2/4.  Everything here is a pure function of its
inputs so the constants are exactly recomputable.  `stay_validate`,
the one check of that conclusion, reads an ensemble's shadow history
(a diverged trial is a miss unless its frozen rows lie within the
radii) and reports each bound's slack.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .noise import NoiseKernel, RngStream
from .objectives import Objective, as_point
from .optimizer import EnsembleResult
from .smoothing import bounded_mean, perturbed_points

__all__ = [
    "TheoremConstants",
    "constants",
    "divergence_threshold",
    "drift_check",
    "DriftReport",
    "stay_validate",
    "StayReport",
]


@dataclass(frozen=True)
class TheoremConstants:
    # inputs
    c: float
    eta: float
    L: float
    r: float
    y0_dist2: float
    T2: int
    # derived
    lam: float
    b: float
    T1_min: int
    stay_radius2: float
    zeta: float
    mu: float
    delta2: float
    eta_valid: bool

    def as_dict(self) -> dict:
        return {("lambda" if k == "lam" else k): v for k, v in asdict(self).items()}


def constants(c: float, eta: float, L: float, r: float, y0_dist2: float, T2: int) -> TheoremConstants:
    """Compute every derived constant of the convergence/stay theorem.

    T1_min clamps to 0 when the starting shadow point already lies within
    the b/lambda floor (log argument <= 1); the degenerate noiseless case
    b = 0 clamps the same way.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if L < 0 or r < 0 or y0_dist2 < 0 or T2 < 0:
        raise ValueError("L, r, y0_dist2, T2 must be nonnegative")

    lam = 2.0 * eta * c - eta**2 * L**2
    b = eta**2 * r**2 * (1.0 + eta * L) ** 2
    if b > 0 and lam > 0 and lam * y0_dist2 / b > 1.0:
        t1 = math.ceil(math.log(lam * y0_dist2 / b) / lam)
    else:
        t1 = 0
    stay_radius2 = 20.0 * b / lam if lam > 0 else math.inf
    zeta = 9.0 * T2 / 4.0
    mu = max(8.0, 42.0 * math.sqrt(math.log(zeta))) if zeta > 1.0 else 8.0
    delta2 = mu**2 * b / lam if lam > 0 else math.inf
    limits = [1.0 / (2.0 * c)]
    if L > 0:
        limits += [1.0 / (2.0 * L), c / L**2]
    eta_valid = eta < min(limits)
    return TheoremConstants(
        c=c, eta=eta, L=L, r=r, y0_dist2=y0_dist2, T2=T2,
        lam=lam, b=b, T1_min=t1, stay_radius2=stay_radius2,
        zeta=zeta, mu=mu, delta2=delta2, eta_valid=eta_valid,
    )


def divergence_threshold(c_prime: float, dist2: float, grad_norm2: float) -> float:
    """Step size above which one full-gradient step moves away from the
    target, given <-grad f(x), x*-x> <= c'|x*-x|^2: 2*c'*dist2/|grad|^2."""
    if grad_norm2 <= 0:
        raise ValueError("threshold undefined at a zero gradient")
    return 2.0 * c_prime * dist2 / grad_norm2


@dataclass(frozen=True)
class DriftReport:
    estimate: float
    ci_halfwidth: float
    rhs: float        # (1 - lambda) * |y - target|^2 + b
    passed: bool      # estimate <= rhs + ci_halfwidth
    y_dist2: float
    samples: int


def drift_check(
    obj: Objective,
    kernel: NoiseKernel,
    eta: float,
    c: float,
    L: float,
    y,
    target,
    n: int = 10_000,
    rng: RngStream = RngStream(0),
    confidence: float = 0.99,
) -> DriftReport:
    """Monte Carlo check of the one-step drift inequality

        E |y - eta*w - eta*grad f(y - eta*w) - x*|^2
            <= (1 - lambda) |y - x*|^2 + b.

    The Hoeffding range for the squared-distance samples comes from the
    reach bound |y_next - y_next0| <= eta*r*(1 + eta*L) around the
    noiseless step y_next0, at distance d0 from x*; an understated L that
    samples exceed raises.  In 1-d the draws are stratified
    (`smoothing.perturbed_points`): y_next moves by at most (1 + eta*L)
    times the shift eta*|w - w'| of its argument, and its distance to x*
    stays within d0 + reach, so a stratum of width eta*2r/n confines its
    sample to 2*(d0 + reach)*(1 + eta*L) * eta*2r/n.  Adjacent strata
    that differ by more than twice that raise too.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p, inner, width = perturbed_points(obj, kernel, eta, y, n, rng)
    tgt = as_point(target, obj.dimension)
    y_dist2 = float((p - tgt) @ (p - tgt))
    cons = constants(c, eta, L, kernel.radius, y_dist2, 1)

    diffs = inner - eta * obj.grads_at(inner) - tgt[None, :]
    d0 = float(np.linalg.norm(p - eta * obj.grad_at(p) - tgt))
    reach = eta * kernel.radius * (1.0 + eta * L)
    rb = (d0 + reach) ** 2 - max(0.0, d0 - reach) ** 2
    stratum = None if width is None else 2.0 * (d0 + reach) * (1.0 + eta * L) * width
    est = bounded_mean(np.einsum("ij,ij->i", diffs, diffs), rb, confidence, stratum)

    rhs = (1.0 - cons.lam) * y_dist2 + cons.b
    # rounding allowance so the exact-equality (noiseless) case passes
    slack = 1e-12 * max(1.0, abs(rhs))
    hw = est.confidence_halfwidth
    return DriftReport(est.mean, hw, rhs, est.mean <= rhs + hw + slack, y_dist2, n)


@dataclass(frozen=True)
class StayReport:
    n_trials: int
    hit_fraction: float
    stay_fraction: float
    hit_and_stay_fraction: float
    T: int
    T2: int
    stay_radius2: float
    delta2: float
    stay_radius2_slack: float   # max over trials of |y_T - x*|^2 / stay_radius2
    delta2_slack: float         # max over trials and window rows of |y_t - x*|^2 / delta2


def stay_validate(result: EnsembleResult, cons: TheoremConstants, target) -> StayReport:
    """Check the theorem's conclusion on the shadow history of `result`.

    With d2[t] the squared distances of the shadow points y_t to `target`
    and T = T1_min, a trial hits when d2[T] <= 20b/lambda and stays when
    d2[t] <= delta^2 for all t in [T, T + T2].  A trial that diverges in
    that window is judged on its frozen rows, a miss unless they lie within
    the radii.  Each slack is the largest such d2 over its bound.  Raises
    ValueError for no trials, fewer than T + T2 + 1 rows, or no history."""
    if result.n_trials == 0:
        raise ValueError("stay_validate needs at least one trial")
    d2 = result.y_dist2_history(as_point(target, result.finals_x.shape[1]))
    T, T2 = cons.T1_min, cons.T2
    if d2.shape[0] < T + T2 + 1:
        raise ValueError(f"history too short: {d2.shape[0]} rows, need T + T2 + 1 = {T + T2 + 1}")
    window = d2[T : T + T2 + 1]
    hit = d2[T] <= cons.stay_radius2
    stay = np.all(window <= cons.delta2, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # radii are 0 at r = 0
        return StayReport(
            n_trials=result.n_trials,
            hit_fraction=float(np.mean(hit)),
            stay_fraction=float(np.mean(stay)),
            hit_and_stay_fraction=float(np.mean(hit & stay)),
            T=T,
            T2=T2,
            stay_radius2=cons.stay_radius2,
            delta2=cons.delta2,
            stay_radius2_slack=float(d2[T].max() / cons.stay_radius2),
            delta2_slack=float(window.max() / cons.delta2),
        )
