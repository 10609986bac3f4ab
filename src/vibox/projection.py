"""Euclidean projection onto boxes and generalized-Jacobian elements of the projection."""

from __future__ import annotations

import numpy as np

from .model import BoxSet, as_rows, as_vector


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
