"""Euclidean projection onto boxes, its generalized-Jacobian elements, and box samplers."""

from __future__ import annotations

import numpy as np

from .model import BoxSet, as_rows, as_vector

_BIG = np.finfo(float).max


def project(k: BoxSet, x) -> np.ndarray:
    """Componentwise clamp into the box of x, a point or a (n, m) stack of
    points one per row; identity on the full space."""
    x = as_rows(x, k.dim) if np.ndim(x) == 2 else as_vector(x, k.dim)
    return np.minimum(np.maximum(x, k.lo), k.hi)


def projection_jacobian_element(k: BoxSet, x) -> np.ndarray:
    """Read-only diagonal d of a 0/1 element of the projection's generalized
    Jacobian at x: d_i = 1 strictly inside, on a bound or free, 0 strictly
    outside or fixed (lo_i == hi_i, where the projection is constant)."""
    x = as_vector(x, k.dim)
    d = np.where((x < k.lo) | (x > k.hi) | (k.lo == k.hi), 0.0, 1.0)  # 1 on a free coordinate
    d.setflags(write=False)
    return d


def draw_samples(box: BoxSet, count, seed, radius=10.0) -> np.ndarray:
    """(count, m) seeded uniform draws over the box, an infinite upper side
    replaced by max(radius, lo + radius) and an infinite lower side by
    min(-radius, hi - radius), each held within the largest double; every
    point is finite and lies in K exactly.  Each draw is lo + (hi - lo) u, as
    rng.uniform makes it, or lo (1 - u) + hi u where hi - lo overflows
    (rng.uniform raises there)."""
    if count == 0:  # no generator: every single-start multistart takes this path
        return np.empty((0, box.dim))
    u = np.random.default_rng(seed).random((count, box.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.where(np.isfinite(box.lo), box.lo,
                      np.maximum(np.minimum(-radius, box.hi - radius), -_BIG))
        hi = np.where(np.isfinite(box.hi), box.hi,
                      np.minimum(np.maximum(radius, box.lo + radius), _BIG))
        width = hi - lo
        pts = np.where(np.isfinite(width), lo + width * u, lo * (1.0 - u) + hi * u)
    return np.clip(pts, np.maximum(box.lo, -_BIG), np.minimum(box.hi, _BIG))


def box_midpoint(box: BoxSet) -> np.ndarray:
    """Midpoint of the finite coordinates; an unbounded coordinate sits at 0
    projected into K (its finite bound when 0 lies outside)."""
    both = np.isfinite(box.lo) & np.isfinite(box.hi)
    mid = (np.where(both, box.lo, 0.0) + np.where(both, box.hi, 0.0)) / 2.0
    return project(box, np.where(both, mid, 0.0))
