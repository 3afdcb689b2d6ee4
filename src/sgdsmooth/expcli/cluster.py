"""Single-linkage clustering of converged solutions.

Two points belong to the same cluster when they are connected by a chain
of points each within Euclidean distance `tol` of the next, i.e. clusters
are the connected components of the threshold graph.  Labels number the
clusters in order of first appearance in the input.

- In 1-d the points are sorted and split wherever the gap between
  neighbours is not <= tol: O(n log n) time, O(n) memory.  This gives the
  same components as testing every pair, because float subtraction is
  monotone: for a <= b <= c, c - a <= tol implies b - a <= tol and
  c - b <= tol.
- For d > 1 the points are sorted on coordinate 0, and each point is
  tested only against the later points within (a few ulps over) tol in
  that coordinate, in blocks of `_PAIR_BLOCK` pairs with one vectorized
  norm per block.  The pairs within tol are joined by hooking each
  component's root to the smaller root and pointer jumping until nothing
  changes.  Time is O(n log n) plus the candidate pairs, memory O(n)
  plus one block.
- A row holding NaN or +-inf is its own singleton cluster: its distance
  to any row is inf or NaN, never <= a finite tol.

A pair whose distance lies within an ulp or so of `tol` may be decided
differently from `np.linalg.norm`, whose rounding depends on the BLAS.
"""
from __future__ import annotations

import numpy as np

__all__ = ["cluster_count", "cluster_labels"]

# candidate pairs per vectorized distance pass (d > 1)
_PAIR_BLOCK = 1 << 15


def _gap_roots(rows: np.ndarray, x0: np.ndarray, tol: float) -> np.ndarray:
    """For `rows` sorted by their 1-d values x0, the smallest row of each one's cluster."""
    split = np.ones(x0.size, dtype=bool)
    split[1:] = ~(np.diff(x0) <= tol)
    return np.minimum.reduceat(rows, np.flatnonzero(split))[np.cumsum(split) - 1]


def _hook(lead: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`lead` (every row points at its root, the smallest row of its
    component) with the edges (a, b) joined."""
    while True:
        ra, rb = lead[a], lead[b]
        apart = ra != rb
        if not apart.any():
            return lead
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(lead, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = lead[lead]
            if np.array_equal(jumped, lead):
                break
            lead = jumped


def _window_roots(rows: np.ndarray, xs: np.ndarray, tol: float) -> np.ndarray:
    """For `rows` with (m, d) points xs sorted on coordinate 0, the
    smallest row of each one's cluster."""
    m = xs.shape[0]
    x0 = xs[:, 0]
    # widened by a few ulps so that rounding in x0 + tol drops no pair whose
    # computed distance is <= tol; the extra candidates fail the norm test
    reach = x0 + tol + 4 * np.finfo(float).eps * (np.abs(x0) + tol)
    counts = np.searchsorted(x0, reach, side="right") - np.arange(1, m + 1)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    lead = np.arange(rows.max() + 1)
    first = 0
    while first < m:
        # positions [first, stop) hold at most _PAIR_BLOCK pairs, or one position's worth
        stop = max(int(np.searchsorted(offsets, offsets[first] + _PAIR_BLOCK, side="right")) - 1, first + 1)
        c = counts[first:stop]
        i = np.repeat(np.arange(first, stop), c)
        j = i + 1 + np.arange(i.size) - np.repeat(offsets[first:stop] - offsets[first], c)
        close = np.linalg.norm(xs[i] - xs[j], axis=1) <= tol
        lead = _hook(lead, rows[i[close]], rows[j[close]])
        first = stop
    return lead[rows]


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def cluster_labels(points, tol: float) -> np.ndarray:
    if not tol > 0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    arr = _as_points(points)
    if arr.shape[0] == 0:
        return np.empty(0, dtype=int)
    # the smallest row of each row's cluster; a non-finite row is its own
    root = np.arange(arr.shape[0])
    rows = np.flatnonzero(np.isfinite(arr).all(axis=1))
    if rows.size:
        rows = rows[np.argsort(arr[rows, 0])]
        # far-apart finite points may overflow a difference to inf: still > tol
        with np.errstate(over="ignore"):
            if arr.shape[1] == 1:
                root[rows] = _gap_roots(rows, arr[rows, 0], tol)
            else:
                root[rows] = _window_roots(rows, arr[rows], tol)
    # a cluster first appears at its root, so number the roots in row order
    return (np.cumsum(root == np.arange(root.size)) - 1)[root]


def cluster_count(points, tol: float) -> int:
    labels = cluster_labels(points, tol)
    return int(labels.max()) + 1 if labels.size else 0

