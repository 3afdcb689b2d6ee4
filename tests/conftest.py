"""Shared fixtures and independent numerical oracles for the test suite."""
from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from sgdsmooth import SpikyParams, make_quadratic, make_spiky


def bisect_root(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; assumes a sign change on [lo, hi]."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def stationary_points(params: SpikyParams, lo: float, hi: float, scan: int = 20_001):
    """All 1-d stationary points of the spiky landscape in [lo, hi], found
    by sign-change scan plus bisection.  Independent of the package's own
    gradient oracle on purpose: uses the formula directly."""
    q, a, b = params.quad, params.amp, params.freq

    def grad(x: float) -> float:
        return q * x + a * b * math.cos(b * x)

    xs = np.linspace(lo, hi, scan)
    roots = []
    prev = grad(xs[0])
    for x in xs[1:]:
        cur = grad(x)
        if prev * cur < 0.0:
            roots.append(bisect_root(grad, x - (xs[1] - xs[0]), x))
        prev = cur
    return np.array(roots)


def local_minima(params: SpikyParams, lo: float, hi: float) -> np.ndarray:
    """Stationary points with positive second derivative."""
    q, a, b = params.quad, params.amp, params.freq
    roots = stationary_points(params, lo, hi)
    curv = q - a * b**2 * np.sin(b * roots)
    return roots[curv > 0.0]


def poisoned(obj, bad: float):
    """`obj` whose oracles return `bad` in the first row of every batch of
    two or more points, as a broken oracle would; one-point calls
    (`value_at`, `grad_at`) stay intact."""

    def first_row(oracle):
        def batch(xs):
            out = np.array(oracle(xs), dtype=float)
            if len(out) > 1:
                out[0] = bad
            return out

        return batch

    return replace(obj, value=first_row(obj.value), grad=first_row(obj.grad))


def shadow_rows(obj, schedule, xs):
    """Reference: the shadow row y = x - eta * grads_at(x) of each row of
    `xs`, the leading (T+1, n, d) or (T+1, d) rows of a run on `schedule`,
    one row at a time, each with its stage's eta (the final row T with
    the last stage's)."""
    steps = [s.steps for s in schedule.stages]
    steps[-1] += 1
    etas = np.repeat([s.eta for s in schedule.stages], steps)
    ys = np.empty(np.shape(xs))
    # frozen rows past the cutoff may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for t, x in enumerate(xs):
            ys[t] = x - etas[t] * obj.grads_at(x.reshape(-1, x.shape[-1])).reshape(x.shape)
    return ys


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a CSV the package wrote back into float column arrays, losslessly."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


@pytest.fixture
def spiky_default():
    return make_spiky(SpikyParams())


@pytest.fixture
def quadratic_1d():
    return make_quadratic(1)
