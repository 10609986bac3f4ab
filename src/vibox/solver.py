"""Damped semismooth Newton on the normal map with a residual-merit line search."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certificates import (box_midpoint, draw_samples, hessian_block_convexity,
                           pl_condition_check)
from .model import EvaluationError, VIProblem, jacobian
from .normal_map import normal_map, normal_map_jacobian_element
from .projection import project

SOLVED = "solved"
MAX_ITERS = "max-iters"
LINE_SEARCH_STALL = "line-search-stall"
FALLBACK_EXHAUSTED = "singular-jacobian-fallback-exhausted"

VI_SOLUTION = "vi-solution"
QUASI_NASH = "quasi-nash"
NASH = "nash"
NOT_APPLICABLE = "n/a"

ARMIJO_SLOPE = 1e-4  # line search: sufficient-decrease constant,
BACKTRACK = 0.5  # step shrink factor
MAX_HALVINGS = 40  # and most halvings per Newton iteration
REG_FLOOR = 1e-8  # singularity floor of newton_direction; Levenberg weight


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 200
    tol: float = 1e-10
    start: np.ndarray | None = None

    def __post_init__(self):
        if self.max_iters < 1 or self.tol <= 0:
            raise ValueError("tol must be positive and max_iters >= 1")


@dataclass(frozen=True)
class SolveResult:
    status: str
    v: np.ndarray
    x: np.ndarray  # solution candidate P_K[v]
    residual: float
    trace: tuple[float, ...]  # residual norm per accepted iterate, initial included
    steps: tuple[str, ...]  # newton | regularized | gradient | picard
    classification: str = NOT_APPLICABLE
    iterations: int = 0

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


def newton_direction(df: np.ndarray, free: np.ndarray, r: np.ndarray, r_norm: float,
                     reg_floor: float) -> np.ndarray | None:
    """The Newton direction d solving J d = -r for J = I - D + dF D, with D the
    0/1 diagonal that is 1 on the boolean mask ``free``, or None when J is
    numerically singular: the LU solve fails, or ||r|| < reg_floor * max(c, 1)
    * ||d|| with c the largest column norm of J (NaN or inf in d fails this
    test too).

    The columns of J off ``free`` are unit vectors, so only the free block is
    factored: dF[F, F] d_F = -r_F, then d_A = -r_A - dF[A, F] d_F.  With every
    coordinate free this is the LU solve of dF itself; with none, d = -r.

    Since sigma_min(J) <= ||r|| / ||d|| and c <= sigma_max(J), this flags J
    only when the singular-value test sigma_min(J) < reg_floor *
    max(sigma_max(J), 1) flags it too; a near-singular J whose step stays
    bounded keeps its Newton step."""
    try:
        if free.all():
            d = np.linalg.solve(df, -r)
        else:
            d = -r
            if free.any():
                d_free = np.zeros_like(r)
                d_free[free] = np.linalg.solve(df[np.ix_(free, free)], d[free])
                d -= df @ d_free
                d[free] = d_free[free]
    except np.linalg.LinAlgError:
        return None
    # The active columns of J have norm 1, its free columns are those of dF.
    c = float(np.sqrt(np.max(np.einsum("ij,ij->j", df, df)[free], initial=1.0)))
    return d if r_norm >= reg_floor * c * float(np.linalg.norm(d)) else None


def merit_gradient(df: np.ndarray, free: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J^T r, the gradient of theta(v) = 1/2 ||r(v)||^2 for J = I - D + dF D:
    dF^T r on the coordinates of the mask ``free``, r on the others."""
    return np.where(free, df.T @ r, r)


def solve(p: VIProblem, cfg: SolveConfig | None = None) -> SolveResult:
    """Drive the normal-map residual to zero from a single start point.

    Newton steps on a generalized-Jacobian element J, Levenberg-regularized
    normal equations when J is numerically singular, merit-gradient and
    fixed-point fallbacks when the Newton direction is not a descent
    direction for theta(v) = 1/2 ||r(v)||^2.

    J d = -r is solved on the free coordinates of v only (those inside or on
    the bounds of K), followed by one back-substitution for the others.
    Singularity is read off that solve, without an SVD: J counts as singular
    when the LU solve fails or the step grows past ||r|| / (REG_FLOOR *
    max(c, 1)), with c the largest column norm of J (``newton_direction``).
    Only then is J itself built, for the regularized step.

    Raises EvaluationError when F is non-finite at the start point.
    """
    cfg = cfg or SolveConfig()
    v = box_midpoint(p.set) if cfg.start is None else np.array(cfg.start, dtype=float)
    ev = normal_map(p, v)
    trace = [ev.norm]
    steps = []
    status = MAX_ITERS
    for _ in range(cfg.max_iters):
        if ev.norm <= cfg.tol:
            status = SOLVED
            break
        r = ev.r
        df = jacobian(p, ev.z)
        free = (v >= p.set.lo) & (v <= p.set.hi)  # d == 1 in projection_jacobian_element
        grad = merit_gradient(df, free, r)
        kind = "newton"
        d = newton_direction(df, free, r, ev.norm, REG_FLOOR)
        if d is None:
            kind = "regularized"
            j = normal_map_jacobian_element(p, v)
            d = np.linalg.solve(j.T @ j + REG_FLOOR * np.eye(p.dim), -grad)
        slope = float(grad @ d)
        if slope >= 0.0 or not np.all(np.isfinite(d)):
            kind = "gradient"
            d = -grad
            slope = -float(grad @ grad)
        if -slope <= 1e-14 * (1.0 + ev.norm ** 2):
            # Flat merit region (e.g. constant F inside the box): fall back to
            # the fixed-point direction v - r, which targets P_K[v] - F(P_K[v]).
            kind = "picard"
            d = -r
            slope = None
        accepted = None
        t = 1.0
        theta0 = 0.5 * ev.norm ** 2
        for _ in range(MAX_HALVINGS + 1):
            try:
                trial = normal_map(p, v + t * d)
            except EvaluationError:
                t *= BACKTRACK
                continue
            theta = 0.5 * trial.norm ** 2
            if slope is not None:
                ok = theta <= theta0 + ARMIJO_SLOPE * t * slope
            else:
                ok = theta <= (1.0 - ARMIJO_SLOPE * t) * theta0
            if ok and theta < theta0:
                accepted = trial
                break
            t *= BACKTRACK
        if accepted is None:
            if kind in ("gradient", "picard") and np.linalg.norm(grad) <= 1e-12 * (1.0 + ev.norm):
                status = FALLBACK_EXHAUSTED
            else:
                status = LINE_SEARCH_STALL
            break
        v, ev = accepted.v, accepted
        trace.append(ev.norm)
        steps.append(kind)
    if ev.norm <= cfg.tol:
        status = SOLVED
    x = project(p.set, v)
    return SolveResult(status=status, v=v, x=x, residual=ev.norm, trace=tuple(trace),
                       steps=tuple(steps), iterations=len(steps))


def classify(p: VIProblem, res: SolveResult) -> str:
    """vi-solution for plain VIs; for games, quasi-nash upgraded to nash when
    the block-convexity gate or the gap-domination check passes."""
    if not res.solved:
        return NOT_APPLICABLE
    g = p.game
    if g is None:
        return VI_SOLUTION
    if hessian_block_convexity(g).verdict == "pass":
        return NASH
    try:
        if pl_condition_check(g, res.x).verdict == "pass":
            return NASH
    except ValueError:
        pass
    return QUASI_NASH


def multistart(p: VIProblem, cfg: SolveConfig | None = None, starts=8, seed=0,
               radius=10.0) -> list[SolveResult]:
    """Seeded starts across K plus the default start, solved independently;
    solved results deduplicated by solution proximity, each kept one
    classified, and sorted by residual then lexicographically by solution."""
    if starts < 1:
        raise ValueError("need at least one start")
    cfg = cfg or SolveConfig()
    start_points = [box_midpoint(p.set) if cfg.start is None else np.asarray(cfg.start, float),
                    *draw_samples(p.set, starts - 1, seed, radius).points]
    results = [solve(p, replace(cfg, start=s)) for s in start_points]
    deduped = []
    for res in results:
        if res.solved and any(other.solved and np.linalg.norm(other.x - res.x) <= 1e-6
                              for other in deduped):
            continue
        deduped.append(replace(res, classification=classify(p, res)) if res.solved else res)
    deduped.sort(key=lambda r: (not r.solved, r.residual, tuple(r.x)))
    return deduped
