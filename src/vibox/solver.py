"""Damped semismooth Newton on the normal map with a residual-merit line search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PSD_TOL, EvaluationError, VIProblem, as_vector, jacobian, own_block_lambdas
from .normal_map import NormalMapEval, _jacobian_element, _trial, normal_map
from .projection import box_midpoint, draw_samples, project

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
REG_FLOOR = 1e-8  # singularity floor of newton_directions; Levenberg weight
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


def newton_directions(df: np.ndarray, free: np.ndarray, r: np.ndarray,
                      r_norm) -> tuple[np.ndarray, list]:
    """The Newton directions d solving J d = -r, J = I - D + dF D with D the
    0/1 diagonal that is 1 on the boolean mask ``free``, for k systems at
    once: free and r hold one per row, r_norm their k norms, and df is their
    (k, m, m) stack.  Returns the (k, m) directions and k flags, true where J
    is numerically singular and that row meaningless: the LU solve fails, or
    ||r|| < REG_FLOOR * max(c, 1) * ||d|| with c the largest column norm of
    J (NaN or inf in d fails too).

    The columns of J off ``free`` are unit vectors, so only the free block is
    factored: dF[F, F] d_F = -r_F, then d_A = -r_A - dF[A, F] d_F (with every
    coordinate free, the LU solve of dF; with none, d = -r).  Rows with the
    same number n of free coordinates are factored together as one (g, n, n)
    stack (``_solve_blocks``); each row is bit for bit its own solve.

    Since sigma_min(J) <= ||r|| / ||d|| and c <= sigma_max(J), this flags J
    only when the singular-value test sigma_min(J) < REG_FLOOR *
    max(sigma_max(J), 1) flags it too; a near-singular J whose step stays
    bounded keeps its Newton step."""
    k, m = r.shape
    d = -r
    singular = [False] * k
    counts = np.add.reduce(free, axis=1)  # per-row counts; np.count_nonzero with axis costs more
    for n in sorted(set(counts.tolist()) - {0}):
        rows = (counts == n).nonzero()[0]
        g = slice(None) if rows.size == k else rows  # a view when the group is the stack
        dfg = df[g]
        if n == m:  # every coordinate free: the LU solve of dF itself
            d[g] = _solve_blocks(dfg, d[g], rows, singular)
            continue
        fg = free[g]
        cols = fg.nonzero()[1].reshape(rows.size, n)
        sub = dfg[np.arange(rows.size)[:, None, None], cols[:, :, None], cols[:, None, :]]
        dg = d[g]
        sol = _solve_blocks(sub, dg[fg].reshape(rows.size, n), rows, singular).ravel()
        d_free = np.zeros((rows.size, m))
        d_free[fg] = sol
        dg -= np.matvec(dfg, d_free)
        dg[fg] = sol
        if rows.size < k:
            d[rows] = dg
    # The active columns of J have norm 1, its free columns are those of dF.
    col_sq = np.einsum("kij,kij->kj", df, df)
    c = np.sqrt(np.maximum.reduce(np.where(free, col_sq, 1.0), axis=1, initial=1.0)).tolist()
    d_norm = np.sqrt(np.vecdot(d, d)).tolist()
    return d, [s or not r_norm[i] >= REG_FLOOR * c[i] * d_norm[i] for i, s in enumerate(singular)]


def _solve_blocks(a: np.ndarray, b: np.ndarray, rows, singular: list) -> np.ndarray:
    """x with a[i] x[i] = b[i] for each row i of b, in one batched LU solve.
    When that raises (an exactly singular block), block by block instead: a
    singular block leaves its row of x NaN and sets singular[rows[i]]."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(len(b)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                singular[rows[i]] = True
        return x


def merit_gradient(df: np.ndarray, free: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J^T r, the gradient of theta(v) = 1/2 ||r(v)||^2 for J = I - D + dF D:
    dF^T r on the coordinates of the mask ``free``, r on the others, for the
    (k, m) stacks free and r and the (k, m, m) stack df: each row is what it
    alone would give."""
    return np.where(free, np.matvec(df.mT, r), r)


def _line_search(p: VIProblem, v: np.ndarray, d: np.ndarray, theta0, slope, picard) -> list:
    """Backtracking from t = 1 along each row of d at once: one stacked trial
    per halving round on the rows still searching, which share t.  theta0,
    slope and picard are per-row lists (picard: the test on theta0 alone,
    for a step that is no descent direction), tested on Python floats as in
    the one-start loop.  Returns per row the accepted trial (v, z, r, norm),
    or None where no decrease was found."""
    found = [None] * len(v)
    at = list(range(len(v)))
    t = 1.0
    for _ in range(MAX_HALVINGS + 1):
        trial_v = v + t * d
        trial_z, trial_r, trial_norms = _trial(p, trial_v)
        kept = []
        for row, (j, n) in enumerate(zip(at, trial_norms)):
            theta = 0.5 * n ** 2
            if picard[j]:
                ok = theta <= (1.0 - ARMIJO_SLOPE * t) * theta0[j]
            else:
                ok = theta <= theta0[j] + ARMIJO_SLOPE * t * slope[j]
            if ok and theta < theta0[j]:
                found[j] = trial_v[row], trial_z[row], trial_r[row], n
            else:
                kept.append(row)
        if len(kept) < len(at):
            if not kept:
                break
            at, v, d = [at[row] for row in kept], v[kept], d[kept]
        t *= BACKTRACK
    return found


def _solve_stack(p: VIProblem, starts: np.ndarray, tol) -> list[SolveResult]:
    """``solve`` from each row of the (k, m) stack ``starts``, all rows
    advanced together: each iteration takes one step on every row still
    running, its Newton directions in one call (``newton_directions``) and
    each halving round of its line search in one stacked normal-map
    evaluation on the rows still searching.  The rows share the step length
    t, since each starts at 1 and halves in step.  Vectors live in (k, m)
    stacks, per-row scalars (norms, step kinds, the Armijo test) in Python
    floats, as in the one-start loop.  Row i of the result is bit for bit
    what ``solve`` alone gives from row i.  Raises the EvaluationError of
    the first start at which F is non-finite."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi = p.set.lo, p.set.hi
    movable = lo < hi
    ev = normal_map(p, np.array(starts, dtype=float))
    v, z, r, norms = ev.v, ev.z, ev.r, ev.norm.tolist()  # the current iterate of every row
    k = len(norms)
    # dF of an affine or game mapping is its A at every row: a view of k copies,
    # whose first len(live) rows (a view too) serve the live rows
    dfa = np.broadcast_to(p.mapping.data["A"], (k, p.dim, p.dim)) if p.is_affine else None
    traces = [[n] for n in norms]
    steps = [[] for _ in norms]
    status = [MAX_ITERS] * k
    slow = [0] * k  # accepted steps in a row below MIN_PROGRESS
    live = [i for i, n in enumerate(norms) if not n <= tol]  # the rows still running
    for _ in range(ITERATION_LIMIT):
        if not live:
            break
        at = slice(None) if len(live) == k else live  # views while every row runs
        vl, rl, nl = v[at], r[at], [norms[i] for i in live]
        df = dfa[:len(live)] if dfa is not None else np.stack([jacobian(p, x) for x in z[at]])
        free = movable & (vl >= lo) & (vl <= hi)  # projection_jacobian_element's d
        grad = merit_gradient(df, free, rl)
        d, singular = newton_directions(df, free, rl, nl)
        for j in [j for j, flag in enumerate(singular) if flag]:
            jac = _jacobian_element(df[j], free[j])
            try:
                d[j] = np.linalg.solve(jac.T @ jac + REG_FLOOR * np.eye(p.dim), -grad[j])
            except np.linalg.LinAlgError:  # J^T J overflowed: the gradient step below
                d[j] = np.nan
        slopes, finite = np.vecdot(grad, d).tolist(), np.logical_and.reduce(np.isfinite(d), axis=1).tolist()
        kinds, theta0 = [], []
        for j, n in enumerate(nl):
            kind, slope = ("regularized" if singular[j] else "newton"), slopes[j]
            if slope >= 0.0 or not finite[j]:
                kind = "gradient"
                d[j] = -grad[j]
                slope = -float(grad[j] @ grad[j])
            if -slope <= 1e-14 * (1.0 + n ** 2):
                # Flat merit region (e.g. constant F inside the box): fall back to
                # the fixed-point direction v - r, which targets P_K[v] - F(P_K[v]).
                kind = "picard"
                d[j] = -rl[j]
            kinds.append(kind)
            slopes[j] = slope
            theta0.append(0.5 * n ** 2)
        found = _line_search(p, vl, d, theta0, slopes, [kd == "picard" for kd in kinds])
        running = []
        for j, i in enumerate(live):
            if found[j] is None:
                flat = (kinds[j] in ("gradient", "picard")
                        and np.linalg.norm(grad[j]) <= 1e-12 * (1.0 + nl[j]))
                status[i] = FALLBACK_EXHAUSTED if flat else LINE_SEARCH_STALL
                continue
            v[i], z[i], r[i], norms[i] = found[j]
            slow[i] = slow[i] + 1 if norms[i] > (1.0 - MIN_PROGRESS) * nl[j] else 0
            traces[i].append(norms[i])
            steps[i].append(kinds[j])
            if slow[i] == 2:
                status[i] = LINE_SEARCH_STALL
            elif not norms[i] <= tol:
                running.append(i)
        live = running
    return [SolveResult(status=SOLVED if n <= tol else status[i], v=v[i], x=z[i], residual=n,
                        trace=tuple(traces[i]), steps=tuple(steps[i]), iterations=len(steps[i]))
            for i, n in enumerate(norms)]


def solve(p: VIProblem, start=None, tol=1e-10) -> SolveResult:
    """Drive the normal-map residual to at most tol from one start point (by
    default the box midpoint), in at most ITERATION_LIMIT accepted steps: the
    one-row case of the stacked iteration that ``multistart`` runs.

    Newton steps on a generalized-Jacobian element J, Levenberg-regularized
    normal equations when J is numerically singular, merit-gradient and
    fixed-point fallbacks when the Newton direction is not a descent
    direction for theta(v) = 1/2 ||r(v)||^2, is not finite, or cannot be
    solved for (the regularized system overflows).

    J d = -r is solved on the free coordinates of v only (inside K or on a
    bound, but not fixed by lo == hi), then back-substituted for the others.
    Singularity is read off that solve, without an SVD: J counts as singular
    when the LU solve fails or the step grows past ||r|| / (REG_FLOOR *
    max(c, 1)), with c the largest column norm of J (``newton_directions``).
    Only then is J itself built, for the regularized step.

    The start ends as line-search-stall when the line search finds no
    decrease, or when two accepted steps in a row each lower ||r|| by less
    than MIN_PROGRESS of its value: such a start crawls along a valley of
    the merit function and has, in practice, stopped converging.

    Raises EvaluationError when F is non-finite at the start point, and
    ValueError when tol is not positive.
    """
    v = box_midpoint(p.set) if start is None else as_vector(start, p.dim)
    return _solve_stack(p, v[None], tol)[0]


def _path_applies(p: VIProblem) -> bool:
    """The corner-ray path needs F = A x + b and a box with every bound finite."""
    return p.is_affine and bool(np.all(np.isfinite(p.set.lo)) and np.all(np.isfinite(p.set.hi)))


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
    its piece follows, kept only when its residual is finite and lower.  At
    most ITERATION_LIMIT pivots (then max-iters); a path that ends with
    residual above tol reports line-search-stall.  So does a path whose
    tableau is or turns non-finite (a box about 1e308 wide), or at whose end
    point F is non-finite in the read-back, at the default start, the box
    midpoint, where F is finite.
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
    finite = bool(np.isfinite(tab).all())
    if n and finite and q.min() < 0.0:
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
            finite = bool(np.isfinite(tab).all())
            if leaving == mu or not finite:
                break
            entering = leaving + 2 * n if leaving < 2 * n else leaving - 2 * n
            col = tab[:, entering]
            rows = np.flatnonzero(col > 1e-12 * max(1.0, float(np.abs(col).max())))
            if rows.size == 0:  # a secondary ray: only by rounding on a bounded box
                break
            ratios = tab[rows][:, keys] / col[rows, None]
            row = rows[_lexmin(ratios)]
    if finite:
        values = np.zeros(4 * n + 1)
        values[basis] = tab[:, -1]
        x = lo.copy()
        x[idx] += values[2 * n:3 * n]
        x = project(p.set, x)
        try:
            ev = normal_map(p, x - p.F(x))
        except EvaluationError:  # F(x) or F(P_K[x - F(x)]) is non-finite
            finite = False
    if not finite:  # F(lo) or hi - lo overflows, or a pivot or the read-back does
        ev = normal_map(p, box_midpoint(p.set))
        return SolveResult(status=LINE_SEARCH_STALL, v=ev.v, x=ev.z, residual=ev.norm,
                           trace=(ev.norm,), steps=("path",), iterations=pivots)
    trace = [ev.norm]
    if ev.norm > tol:
        free = (lo < hi) & (ev.v >= lo) & (ev.v <= hi)
        d, singular = newton_directions(a[None], free[None], ev.r[None], [ev.norm])
        if not singular[0]:
            z, r, (norm,) = _trial(p, ev.v[None] + d)  # NaN where F is non-finite: never kept
            if norm < ev.norm:
                ev = NormalMapEval(ev.v + d[0], z[0], r[0], norm)
                trace.append(norm)
    if ev.norm <= tol:
        status = SOLVED
    return SolveResult(status=status, v=ev.v, x=ev.z, residual=ev.norm, trace=tuple(trace),
                       steps=("path",), iterations=pivots)


def classify(p: VIProblem, res: SolveResult) -> str:
    """The label of one result in the solve report: n/a when unsolved,
    vi-solution on a plain VI, and on a game nash when every own block has
    lambda_min >= -PSD_TOL (convex own costs make a VI solution a Nash
    equilibrium, Facchinei & Pang 2003, Ch. 1), else quasi-nash."""
    if not res.solved:
        return NOT_APPLICABLE
    if not p.is_game:
        return VI_SOLUTION
    return NASH if (own_block_lambdas(p) >= -PSD_TOL).all() else QUASI_NASH


def multistart(p: VIProblem, starts=8, seed=0, radius=10.0, tol=1e-10) -> list[SolveResult]:
    """The default start plus starts - 1 seeded ones across K, solved as one
    (starts, m) stack that advances together (``_solve_stack``); each start's
    result is bit for bit the one ``solve`` gives from it alone.  Raises the
    EvaluationError of the first start at which F is non-finite.  When none
    of them solves an affine or game problem on a box with every bound
    finite, the corner-ray path (``_corner_ray_path``) adds one result.
    Solved results are deduplicated by solution proximity; solved results
    come first, ordered by solution, then the others by residual and
    solution."""
    if starts < 1:
        raise ValueError("need at least one start")
    start_points = np.concatenate([box_midpoint(p.set)[None], draw_samples(p.set, starts - 1, seed, radius)])
    results = _solve_stack(p, start_points, tol)
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
