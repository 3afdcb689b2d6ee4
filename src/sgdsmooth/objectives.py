"""Differentiable test landscapes with known smoothness constants.

Every objective carries analytic value/gradient batch oracles over an
(n, d) array of points, a declared smoothness bound L, a rectangular
evaluation box and (when known) a canonical target point.  These serve
as ground truth for the smoothing, certification and drift checks
elsewhere in the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .noise import _require_integer

__all__ = [
    "Objective",
    "SpikyParams",
    "make_spiky",
    "make_quadratic",
    "finite_diff_gradient",
    "check_smoothness",
    "as_point",
]

DEFAULT_BOX_HALFWIDTH = 5.0


def as_point(x, dimension: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally checking its length."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"point must be 1-d, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite entries")
    if dimension is not None and p.shape[0] != dimension:
        raise ValueError(f"dimension mismatch: expected {dimension}, got {p.shape[0]}")
    return p


@dataclass(frozen=True)
class Objective:
    """A differentiable loss with analytic batch oracles.

    `value` maps an (n, d) batch of points, d = `dimension`, to n values
    and `grad` maps it to the (n, d) array of their gradients; these are
    the only oracles, and the one-point `value_at`/`grad_at` evaluate a
    one-row batch.  They are row-wise: a row's value and gradient are the
    same bits in any batch, which `values_at` and `grads_at` pass on
    C-contiguous.  `smoothness` is an upper bound L on the gradient
    Lipschitz constant, so the descent lemma
    f(y) <= f(x) + <grad f(x), y-x> + L/2 |y-x|^2 holds everywhere in
    `domain_box`.
    """

    dimension: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    smoothness: float
    domain_box: tuple[float, float] = (-DEFAULT_BOX_HALFWIDTH, DEFAULT_BOX_HALFWIDTH)
    target: Optional[np.ndarray] = None
    name: str = "objective"

    def value_at(self, x) -> float:
        return float(self.values_at(as_point(x, self.dimension)[None, :])[0])

    def grad_at(self, x) -> np.ndarray:
        return self.grads_at(as_point(x, self.dimension)[None, :])[0]

    def values_at(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.value(self._batch(xs)), dtype=float)

    def grads_at(self, xs: np.ndarray) -> np.ndarray:
        xs = self._batch(xs)
        g = np.asarray(self.grad(xs), dtype=float)
        if g.shape != xs.shape:
            raise ValueError(f"gradient oracle returned shape {g.shape}, expected {xs.shape}")
        return g

    def _batch(self, xs) -> np.ndarray:
        xs = np.ascontiguousarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dimension:
            raise ValueError(f"expected batch of shape (n, {self.dimension})")
        return xs


@dataclass(frozen=True)
class SpikyParams:
    """Parameters of the sinusoidally perturbed quadratic landscape.

    f(x) = (quad/2) |x|^2 + amp * sum_i sin(freq * x_i)

    The spikes have period 2*pi/freq and the gradient Lipschitz constant
    is quad + amp * freq**2.  With amp*freq large relative to quad the
    landscape has many spurious local minima.
    """

    quad: float = 1.0
    amp: float = 1.0
    freq: float = 10.0
    dimension: int = 1

    def __post_init__(self):
        if not self.quad > 0:  # NaN fails too
            raise ValueError(f"quad must be positive, got {self.quad}")
        if not self.freq > 0:
            raise ValueError(f"freq must be positive, got {self.freq}")
        if not self.amp >= 0:
            raise ValueError(f"amp must be nonnegative, got {self.amp}")
        _require_integer("dimension", self.dimension)
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def smoothness(self) -> float:
        return self.quad + self.amp * self.freq**2


def make_spiky(params: SpikyParams) -> Objective:
    """Build the spiky objective from its parameters.

    The stored target is the origin: the minimizer of the noise-smoothed
    landscape sits within O(amp) of it, and downstream acceptance radii
    absorb that offset.
    """
    q, a, b, d = params.quad, params.amp, params.freq, params.dimension

    def value(xs: np.ndarray) -> np.ndarray:
        return 0.5 * q * np.einsum("ij,ij->i", xs, xs) + a * np.sum(np.sin(b * xs), axis=1)

    def grad(xs: np.ndarray) -> np.ndarray:
        return q * xs + a * b * np.cos(b * xs)

    return Objective(
        dimension=d,
        value=value,
        grad=grad,
        smoothness=params.smoothness,
        target=np.zeros(d),
        name=f"spiky(q={q},A={a},B={b},d={d})",
    )


def make_quadratic(dimension: int, center=0.0) -> Objective:
    """Isotropic quadratic bowl f(x) = |x - center|^2 / 2 with L = 1."""
    _require_integer("dimension", dimension)
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.shape not in ((1,), (dimension,)):
        raise ValueError(f"center dimension does not match: shape {c.shape} for dimension {dimension}")
    c = np.broadcast_to(c, (dimension,)).copy()
    if not np.all(np.isfinite(c)):
        raise ValueError(f"center must be finite, got {center}")

    def value(xs: np.ndarray) -> np.ndarray:
        diff = xs - c
        return 0.5 * np.einsum("ij,ij->i", diff, diff)

    def grad(xs: np.ndarray) -> np.ndarray:
        return xs - c

    return Objective(
        dimension=dimension,
        value=value,
        grad=grad,
        smoothness=1.0,
        target=c,
        name=f"quadratic(d={dimension})",
    )


def finite_diff_gradient(obj: Objective, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, the independent oracle for `obj.grad`."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    p = as_point(x, obj.dimension)
    out = np.empty(obj.dimension)
    for i in range(obj.dimension):
        e = np.zeros(obj.dimension)
        e[i] = h
        out[i] = (obj.value_at(p + e) - obj.value_at(p - e)) / (2.0 * h)
        if not np.isfinite(out[i]):
            raise ValueError(f"non-finite finite difference at coordinate {i}")
    return out


def check_smoothness(obj: Objective, x, y, slack: float = 1e-12) -> bool:
    """Descent-lemma predicate for the declared smoothness constant."""
    px = as_point(x, obj.dimension)
    py = as_point(y, obj.dimension)
    diff = py - px
    bound = (
        obj.value_at(px)
        + float(obj.grad_at(px) @ diff)
        + 0.5 * obj.smoothness * float(diff @ diff)
    )
    return obj.value_at(py) <= bound + slack
