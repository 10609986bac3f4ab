"""Euclidean projection onto boxes and generalized-Jacobian elements of the projection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoxSet, as_vector


def project(k: BoxSet, x) -> np.ndarray:
    """Componentwise clamp of x into the box; identity on the full space."""
    x = as_vector(x, k.dim)
    return np.minimum(np.maximum(x, k.lo), k.hi)


@dataclass(frozen=True)
class ProjectionJacobianElement:
    """Diagonal 0/1 element of the projection's generalized Jacobian at x.

    d_i = 1 strictly inside or free, 0 strictly outside; at a boundary
    coordinate d_i follows the recorded tie-break rule.
    """

    d: np.ndarray
    boundary_rule: str

    def matrix(self) -> np.ndarray:
        return np.diag(self.d)


def projection_jacobian_element(k: BoxSet, x, boundary_rule="one") -> ProjectionJacobianElement:
    if boundary_rule not in ("one", "zero"):
        raise ValueError(f"unknown boundary rule {boundary_rule!r}")
    x = as_vector(x, k.dim)
    drop = (x < k.lo) | (x > k.hi)
    if boundary_rule == "zero":
        drop |= (x == k.lo) | (x == k.hi)
    d = np.where(drop & ~(np.isinf(k.lo) & np.isinf(k.hi)), 0.0, 1.0)
    d.setflags(write=False)
    return ProjectionJacobianElement(d=d, boundary_rule=boundary_rule)


@dataclass(frozen=True)
class ConvGSample:
    """One matrix I - beta * sum_i alpha_i e_i e_i' from the convex hull of
    {I} union {I - e_i e_i'}, with its generating (beta, alpha) recorded."""

    beta: float
    alpha: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.diag(1.0 - self.beta * self.alpha)


DEFAULT_BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def convg_hull_sample(m, beta_grid=DEFAULT_BETA_GRID, alpha_samples=None, seed=0):
    """Deterministic sample of the convex hull of the coordinate-drop matrix family.

    For every beta on the grid, alpha ranges over the m simplex vertices, the
    barycenter, and seeded Dirichlet(1,...,1) draws up to ``alpha_samples``
    total alphas (default: the vertices plus barycenter only).
    """
    if alpha_samples is None:
        alpha_samples = m + 1
    if alpha_samples < m:
        raise ValueError("alpha_samples must be at least the dimension m")
    alphas = [np.eye(m)[i] for i in range(m)]
    alphas.append(np.full(m, 1.0 / m))
    rng = np.random.default_rng(seed)
    while len(alphas) < alpha_samples:
        alphas.append(rng.dirichlet(np.ones(m)))
    out = []
    for beta in beta_grid:
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta grid values must lie in [0, 1]")
        if beta == 0.0:
            out.append(ConvGSample(beta=0.0, alpha=alphas[0].copy()))
            continue
        for alpha in alphas:
            out.append(ConvGSample(beta=float(beta), alpha=alpha.copy()))
    return out
