"""Damped semismooth Newton on the normal map with a residual-merit line search."""

from __future__ import annotations

from dataclasses import dataclass

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
MIN_PROGRESS = 1e-3  # a start ends after two accepted steps in a row that each
                     # lower ||r|| by less than this share
REG_FLOOR = 1e-8  # singularity floor of newton_direction; Levenberg weight
ITERATION_LIMIT = 200  # accepted steps of a start; pivots of the corner-ray path


@dataclass(frozen=True)
class SolveResult:
    status: str
    v: np.ndarray
    x: np.ndarray  # solution candidate P_K[v]
    residual: float
    trace: tuple[float, ...]  # residual norm per accepted iterate, initial included
    steps: tuple[str, ...]  # newton | regularized | gradient | picard, or (path,)
    iterations: int = 0  # accepted steps; pivots for a path result

    @property
    def solved(self) -> bool:
        return self.status == SOLVED


def newton_direction(df: np.ndarray, free: np.ndarray, r: np.ndarray,
                     r_norm: float) -> np.ndarray | None:
    """The Newton direction d solving J d = -r for J = I - D + dF D, with D the
    0/1 diagonal that is 1 on the boolean mask ``free``, or None when J is
    numerically singular: the LU solve fails, or ||r|| < REG_FLOOR * max(c, 1)
    * ||d|| with c the largest column norm of J (NaN or inf in d fails this
    test too).

    The columns of J off ``free`` are unit vectors, so only the free block is
    factored: dF[F, F] d_F = -r_F, then d_A = -r_A - dF[A, F] d_F.  With every
    coordinate free this is the LU solve of dF itself; with none, d = -r.

    Since sigma_min(J) <= ||r|| / ||d|| and c <= sigma_max(J), this flags J
    only when the singular-value test sigma_min(J) < REG_FLOOR *
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
    return d if r_norm >= REG_FLOOR * c * float(np.linalg.norm(d)) else None


def merit_gradient(df: np.ndarray, free: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J^T r, the gradient of theta(v) = 1/2 ||r(v)||^2 for J = I - D + dF D:
    dF^T r on the coordinates of the mask ``free``, r on the others."""
    return np.where(free, df.T @ r, r)


def solve(p: VIProblem, start=None, tol=1e-10) -> SolveResult:
    """Drive the normal-map residual to at most tol from one start point (by
    default the box midpoint), in at most ITERATION_LIMIT accepted steps.

    Newton steps on a generalized-Jacobian element J, Levenberg-regularized
    normal equations when J is numerically singular, merit-gradient and
    fixed-point fallbacks when the Newton direction is not a descent
    direction for theta(v) = 1/2 ||r(v)||^2.

    J d = -r is solved on the free coordinates of v only (inside K or on a
    bound, but not fixed by lo == hi), then back-substituted for the others.
    Singularity is read off that solve, without an SVD: J counts as singular
    when the LU solve fails or the step grows past ||r|| / (REG_FLOOR *
    max(c, 1)), with c the largest column norm of J (``newton_direction``).
    Only then is J itself built, for the regularized step.

    The start ends as line-search-stall when the line search finds no
    decrease, or when two accepted steps in a row each lower ||r|| by less
    than MIN_PROGRESS of its value: such a start crawls along a valley of
    the merit function and has, in practice, stopped converging.

    Raises EvaluationError when F is non-finite at the start point, and
    ValueError when tol is not positive.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    v = box_midpoint(p.set) if start is None else np.array(start, dtype=float)
    movable = p.set.lo < p.set.hi
    ev = normal_map(p, v)
    trace = [ev.norm]
    steps = []
    status = MAX_ITERS
    slow = 0  # accepted steps in a row below MIN_PROGRESS
    for _ in range(ITERATION_LIMIT):
        if ev.norm <= tol:
            status = SOLVED
            break
        r = ev.r
        df = jacobian(p, ev.z)
        free = movable & (v >= p.set.lo) & (v <= p.set.hi)  # projection_jacobian_element's d
        grad = merit_gradient(df, free, r)
        kind = "newton"
        d = newton_direction(df, free, r, ev.norm)
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
        slow = slow + 1 if accepted.norm > (1.0 - MIN_PROGRESS) * ev.norm else 0
        v, ev = accepted.v, accepted
        trace.append(ev.norm)
        steps.append(kind)
        if slow == 2:
            status = LINE_SEARCH_STALL
            break
    if ev.norm <= tol:
        status = SOLVED
    x = project(p.set, v)
    return SolveResult(status=status, v=v, x=x, residual=ev.norm, trace=tuple(trace),
                       steps=tuple(steps), iterations=len(steps))


def _path_applies(p: VIProblem) -> bool:
    """The corner-ray path needs F = A x + b and a box with every bound finite."""
    return (p.mapping.kind in ("affine", "game-gradient")
            and bool(np.all(np.isfinite(p.set.lo)) and np.all(np.isfinite(p.set.hi))))


def _lexmin(ratios: np.ndarray) -> int:
    """Index of the lexicographically smallest row of ``ratios``.  Entries
    within 1e-12 (relative) of a column's minimum tie; a tie left after the
    last column goes to the smallest index."""
    rows = np.arange(ratios.shape[0])
    for col in ratios.T:
        vals = col[rows]
        low = vals.min()
        rows = rows[vals <= low + 1e-12 * max(1.0, abs(low))]
        if rows.size == 1:
            break
    return int(rows[0])


def _corner_ray_path(p: VIProblem, tol) -> SolveResult:
    """Follow F_nor(v) + mu 1 = 0 from the ray on which every coordinate sits
    at its lower bound, with mu falling to 0: Lemke's method on the box MCP.

    Coordinates with lo == hi are fixed and left out.  On the others, with
    x = lo + z, z <= u = hi - lo and F(x) + mu 1 = s - t, this is the LCP
        s = (A z + q + t) + mu 1 >= 0,  z >= 0,  s'z = 0,
        y = u - z              >= 0,    t >= 0,  y't = 0,
    q = F(lo), pivoted in a dense tableau with the lexicographic ratio test
    (Cottle, Pang & Stone 1992, Ch. 4), which also decides degenerate ties.
    On a bounded box the starting ray is the only unbounded branch, so the
    path ends where mu leaves the basis, at a solution.  The point is read
    back as v = x - F(x); if its residual is above tol, one Newton step on
    its piece follows.  At most ITERATION_LIMIT pivots (then max-iters); a
    path that ends with residual above tol reports line-search-stall.
    """
    lo, hi = p.set.lo, p.set.hi
    a, b = p.mapping.data["A"], p.mapping.data["b"]
    idx = np.flatnonzero(lo < hi)
    n = idx.size
    q = (a @ lo + b)[idx]
    # Columns: w = (s, y) 0..2n-1, their complements (z, t) 2n..4n-1, mu, rhs.
    # Rows read w - M (z, t) - (1, 0) mu = (q, u) with M = [[A_NN, I], [-I, 0]].
    tab = np.zeros((2 * n, 4 * n + 2))
    tab[:, :2 * n] = np.eye(2 * n)
    tab[:n, 2 * n:3 * n] = -a[np.ix_(idx, idx)]
    tab[:n, 3 * n:4 * n] = -np.eye(n)
    tab[n:, 2 * n:3 * n] = np.eye(n)
    tab[:n, 4 * n] = -1.0
    tab[:, -1] = np.r_[q, (hi - lo)[idx]]
    basis = np.arange(2 * n)
    mu, keys = 4 * n, np.r_[4 * n + 1, np.arange(2 * n)]  # ratio-test columns: rhs, B^-1
    pivots, status = 0, LINE_SEARCH_STALL
    if n and q.min() < 0.0:
        row, entering = _lexmin(tab[:n][:, keys]), mu  # the most negative q_i leaves
        while True:
            if pivots == ITERATION_LIMIT:
                status = MAX_ITERS
                break
            tab[row] /= tab[row, entering]
            col = tab[:, entering].copy()
            col[row] = 0.0
            tab -= np.outer(col, tab[row])
            leaving, basis[row] = basis[row], entering
            pivots += 1
            if leaving == mu:
                break
            entering = leaving + 2 * n if leaving < 2 * n else leaving - 2 * n
            col = tab[:, entering]
            rows = np.flatnonzero(col > 1e-12 * max(1.0, float(np.abs(col).max())))
            if rows.size == 0:  # a secondary ray: only by rounding on a bounded box
                break
            ratios = tab[rows][:, keys] / col[rows, None]
            row = rows[_lexmin(ratios)]
    values = np.zeros(4 * n + 1)
    values[basis] = tab[:, -1]
    x = lo.copy()
    x[idx] += values[2 * n:3 * n]
    x = np.minimum(np.maximum(x, lo), hi)
    ev = normal_map(p, x - p.F(x))
    trace = [ev.norm]
    if ev.norm > tol:
        free = (lo < hi) & (ev.v >= lo) & (ev.v <= hi)
        d = newton_direction(a, free, ev.r, ev.norm)
        trial = normal_map(p, ev.v + d) if d is not None else ev
        if trial.norm < ev.norm:
            ev = trial
            trace.append(ev.norm)
    if ev.norm <= tol:
        status = SOLVED
    return SolveResult(status=status, v=ev.v, x=ev.z, residual=ev.norm, trace=tuple(trace),
                       steps=("path",), iterations=pivots)


def classify(p: VIProblem, res: SolveResult) -> str:
    """The label of one result in the solve report (n/a when unsolved):
    vi-solution for plain VIs; for games, quasi-nash upgraded to nash when
    the block-convexity gate or the gap-domination check passes."""
    if not res.solved:
        return NOT_APPLICABLE
    if not p.is_game:
        return VI_SOLUTION
    if (hessian_block_convexity(p).verdict == "pass"
            or pl_condition_check(p, res.x).verdict == "pass"):
        return NASH
    return QUASI_NASH


def multistart(p: VIProblem, starts=8, seed=0, radius=10.0, tol=1e-10) -> list[SolveResult]:
    """The default start plus starts - 1 seeded ones across K, solved
    independently.  When none of them solves an affine or game problem on a
    box with every bound finite, the corner-ray path (``_corner_ray_path``)
    adds one result.  Solved results are deduplicated by solution proximity;
    solved results come first, ordered by solution, then the others by
    residual and solution."""
    if starts < 1:
        raise ValueError("need at least one start")
    start_points = [box_midpoint(p.set), *draw_samples(p.set, starts - 1, seed, radius)]
    results = [solve(p, start=s, tol=tol) for s in start_points]
    if not any(r.solved for r in results) and _path_applies(p):
        results.append(_corner_ray_path(p, tol))
    deduped = []
    for res in results:
        if res.solved and any(other.solved and np.linalg.norm(other.x - res.x) <= 1e-6
                              for other in deduped):
            continue
        deduped.append(res)
    deduped.sort(key=lambda r: (False, 0.0, tuple(r.x)) if r.solved
                 else (True, r.residual, tuple(r.x)))
    return deduped
