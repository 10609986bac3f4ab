"""Existence-condition checkers producing CertificateReports.

Each checker reifies one sufficient condition for solvability (P-matrix
variants, P-function searches, growth fits, the Upsilon test for games, the
maximal-rank test by vertex determinants, exact for affine F, and the PL gap
condition of games, read off their own blocks).  On affine F and games the
P-function conditions, growth and coercivity are read off A too, where their
exact rules apply.  Other conditions over all of K are verified on seeded
samples: a fail is conclusive (witness-backed), a pass is sampled evidence only.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice
from math import comb

import numpy as np

from .model import (PSD_TOL, BoxSet, ConfigurationError, VIProblem, _finite_values,
                    as_vector, block_slices, jacobian, own_block_lambdas)
from .normal_map import RAY_RADII, coercivity_probe, normal_map
from .projection import box_midpoint, draw_samples, project
from .solver import multistart

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

SAMPLED_NOTE = "sampled surrogate, not a proof"
PMATRIX_NOTE = ("exact: A[N, N] is a P-matrix, so F is a uniform P-function on K "
                "(More & Rheinboldt 1973); the margin is its least principal minor, "
                "not the modulus mu")
NOT_PMATRIX_NOTE = ("exact: A[N, N] is not a P-matrix (More & Rheinboldt 1973); the pair "
                    "runs along an eigenvector of A[index_set] for an eigenvalue <= 0; the "
                    "margin is the least principal minor, not mu")
MONOTONE_NOTE = ("exact: with one block the inequality is strong monotonicity on K, of "
                 "modulus lambda_min of the symmetric part of A[N, N], the margin "
                 "(Facchinei & Pang 2003, 2.3)")
NOT_MONOTONE_NOTE = ("exact: with one block the inequality is strong monotonicity on K, "
                     "and lambda_min of the symmetric part of A[N, N], the margin, is <= 0; "
                     "the pair runs along its eigenvector")
GROWTH_NOTE = ("exact: ||F(x) - F(y)|| <= ||A[:, N]||_2 ||x - y|| on K, with equality "
               "along A[:, N]'s top singular vector")
COERCIVE_NOTE = ("exact: no coordinate is half-bounded, so the normal map is norm coercive "
                 "iff A[Fr, Fr] is nonsingular; its sigma_min, the margin, is >= tol "
                 "(null: Fr is empty)")
NO_PAIR_NOTE = "K has no two points at least 1e-12 apart; no pair to test"
NO_GRID_PAIR_NOTE = ("every grid step x + r d (r <= 8) rounds or projects back to within "
                     "1e-12 of x; no pair to test")

MINOR_BUDGET_DIM = 20
MIN_PAIRS = 100  # pfunction, block-pfunction and growth test at least this many pairs
ETA_FLOOR = 1e-10  # least principal minor of a uniform-pmatrix mixed-row matrix
NOISE_FLOOR = 1e-12  # a minor or eigenvalue this small relative to its scale counts as 0


class BudgetError(ValueError):
    """Raised when an exhaustive enumeration would exceed its budget."""


@dataclass(frozen=True)
class CertificateReport:
    condition: str
    verdict: str
    margin: float | None
    witness: dict | None
    seed: int | None
    budget: dict
    notes: str
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)  # shallow: nested values are shared


# The running certify_problem call: (its problem, {key: shared input}).
_CALL = ContextVar("certify_call", default=None)


def _shared(key, make, p=None):
    """make(), made once per key in the running certify_problem call, whose
    checkers then share it read-only; made afresh outside a call or for a
    problem p not the call's.  The key names every argument of make but p."""
    call = _CALL.get()
    if call is None or (p is not None and p is not call[0]):
        return make()
    if key not in call[1]:
        call[1][key] = value = make()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
    return call[1][key]


def _affine_base(p: VIProblem):
    """(A, y, F(y)) with y = box_midpoint(K), the base point of every exact
    witness, when the exact rules for affine and game F apply: K has two
    distinct points and A and F(y) are finite.  None otherwise, and the
    sampled checker runs.  Shared per call."""
    if not p.is_affine or not (p.set.lo < p.set.hi).any():
        return None

    def make():
        a, y = p.mapping.data["A"], box_midpoint(p.set)
        with np.errstate(over="ignore", invalid="ignore"):
            fy = p.mapping.rows(y[None])[0]
        return (a, y, fy) if np.isfinite(a).all() and np.isfinite(fy).all() else None
    return _shared(("affine base",), make, p)


def boundary_sample_set(box: BoxSet, count, seed, radius=10.0) -> np.ndarray:
    """The rows of draw_samples plus, per finite bound (lo_0, hi_0, lo_1, ...),
    copies of the first three pinned exactly to that bound and pushed
    strictly outside it, one after the other."""
    base = draw_samples(box, count, seed, radius)
    bounds = np.column_stack([box.lo, box.hi]).ravel()
    finite = np.isfinite(bounds)
    coord = np.repeat(np.arange(box.dim), 2)[finite]
    values = np.column_stack([bounds, bounds + np.tile([-1.0, 1.0], box.dim)])[finite]
    k = min(3, count)
    extra = np.repeat(np.tile(base[:k], (coord.size, 1)), 2, axis=0)
    extra[np.arange(len(extra)), np.repeat(coord, 2 * k)] = np.repeat(values, k, axis=0).ravel()
    return np.vstack([base, extra])


# Upper bound on the bytes of one gathered stack of principal submatrices;
# larger enumerations (up to m = MINOR_BUDGET_DIM) are processed in chunks.
_STACK_BYTES = 1 << 21


@lru_cache(maxsize=None)
def _subset_table(m, r):
    """The r-subsets of range(m) in lexicographic order, as a (C(m, r), r) array."""
    table = np.array(list(combinations(range(m), r)), dtype=np.intp).reshape(-1, r)
    table.setflags(write=False)
    return table


def _subset_chunks(m, r, n=1):
    """The r-subsets of range(m) in lexicographic order, in index arrays whose
    gathered submatrices, from each of n matrices, fit in _STACK_BYTES.  Tables
    that fit in one chunk are cached: about 4 MiB for every (m, r) with
    m <= MINOR_BUDGET_DIM."""
    rows = max(1, _STACK_BYTES // (8 * n * r * r))
    if comb(m, r) <= rows:
        yield _subset_table(m, r)
        return
    it = combinations(range(m), r)
    while chunk := list(islice(it, rows)):
        yield np.array(chunk, dtype=np.intp)


def _det_stack(s):
    """Determinants of a (k, r, r) stack: exact cofactor expansion for orders
    up to 3, which keeps small integer-entry minors exact in floating point;
    larger orders use the LU-based determinant."""
    r = s.shape[-1]
    if r == 1:
        return s[:, 0, 0]
    if r == 2:
        return s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    if r == 3:
        return (s[:, 0, 0] * (s[:, 1, 1] * s[:, 2, 2] - s[:, 1, 2] * s[:, 2, 1])
                - s[:, 0, 1] * (s[:, 1, 0] * s[:, 2, 2] - s[:, 1, 2] * s[:, 2, 0])
                + s[:, 0, 2] * (s[:, 1, 0] * s[:, 2, 1] - s[:, 1, 1] * s[:, 2, 0]))
    return np.linalg.det(s)


def _principal_stacks(a):
    """Yield (index sets, stacked principal submatrices) chunk by chunk for the
    (n, m, m) stack a: orders 1..m ascending, lexicographic within an order;
    a chunk holds the submatrices of a[0] on its index sets, then of a[1], ..."""
    n, m = a.shape[:2]
    for r in range(1, m + 1):
        for idx in _subset_chunks(m, r, n):
            yield idx, a[:, idx[:, :, None], idx[:, None, :]].reshape(-1, r, r)


def _first_min(values):
    """(position, value) where a strict-< running minimum started at +inf ends
    over ``values``: the first occurrence of the least value; NaN never wins.
    (None, inf) when no value is below +inf."""
    below = values < np.inf
    if not below.any():
        return None, np.inf
    k = int(np.argmax(values == values[below].min()))
    return k, float(values[k])


def principal_minor_det(a) -> float:
    """Determinant of one matrix: exact cofactor expansion for orders up to 3,
    LU-based above (the rule of _det_stack)."""
    return float(_det_stack(np.asarray(a)[np.newaxis])[0])


def _scan(a, fn, floor=None, above=None):
    """(least value of fn, first place attaining it, first place whose value is
    <= floor or None) over the principal submatrices of each matrix of the
    (n, m, m) stack a.  A place is (k, index set) in a[k]; places are ordered
    by k, then by order, then lexicographically.  The least value is a strict-<
    running minimum from +inf, so NaN never wins.  Without a floor,
    above(stack, least) may mask the submatrices of a chunk whose value is
    certainly above the running minimum once it is finite: they can be neither
    the least value nor its first place, and fn never sees them."""
    if floor is not None and above is not None:
        raise ValueError("a floor needs every value, and above skips some")
    least, arg, first_bad = np.inf, None, None
    for idx, s in _principal_stacks(a):
        pos = np.arange(len(s))
        if above is not None and least < np.inf:
            pos = np.flatnonzero(~above(s, least))
            if not pos.size:
                continue
            s = s[pos]
        values = fn(s)
        i, v = _first_min(values)
        # a chunk's index sets follow those of every earlier chunk, so a place
        # in it comes first only when its matrix does
        if i is not None and (v < least or v == least and _place(idx, pos[i])[0] < arg[0]):
            least, arg = v, _place(idx, pos[i])
        if floor is not None:
            bad = np.flatnonzero(values <= floor)
            if bad.size and (first_bad is None or _place(idx, pos[bad[0]])[0] < first_bad[0]):
                first_bad = _place(idx, pos[bad[0]])
    return least, arg, first_bad


def _place(idx, p):
    """(k, index set) of position p of a chunk that _principal_stacks yields
    with the index sets idx: the submatrices of a[0] come first, then a[1]'s."""
    k, j = divmod(int(p), len(idx))
    return k, tuple(int(t) for t in idx[j])


def _sigma_min(a, idx) -> float:
    """sigma_min of a[idx, idx], 1.0 when idx is empty; shared by matrix
    value and index set."""
    if not idx.size:
        return 1.0
    return _shared(("sigma_min", a.shape, a.tobytes(), idx.tobytes()), lambda: float(
        np.linalg.svd(a[np.ix_(idx, idx)], compute_uv=False)[-1]))


def _check_minor_budget(m):
    """BudgetError when the 2^m - 1 principal minors of an m x m matrix are
    more than the budget allows."""
    if m > MINOR_BUDGET_DIM:
        raise BudgetError(
            f"minor enumeration over 2^{m}-1 subsets exceeds budget; use pmatrix_oracle"
        )


def _minor_values(s):
    """_det_stack(s), a NaN minor (inf - inf in its terms) read as -0.0: bad
    to a scan, as a minor <= 0 is, yet never below an earlier number <= 0."""
    d = _det_stack(s)
    d[np.isnan(d)] = -0.0  # d is new, or a view of s, a gathered copy
    return d


def _minor_scan(a, floor=0.0):
    """_scan of _minor_values, with floor, over the (n, m, m) float stack a,
    shared by floor and a's shape and bytes."""
    _check_minor_budget(a.shape[-1])
    return _shared((floor, a.shape, a.tobytes()), lambda: _scan(a, _minor_values, floor))


def _minor_report(condition, a, scan, seed, budget, witness, notes, **metrics):
    """The report of the test that every principal minor of the (n, m, m)
    stack a is positive, from scan, its _minor_scan: the first place (k, index
    set) whose minor is not decides, a nonpositive one fails with witness(k,
    {"index_set", "minor"}), a NaN one is inconclusive; the margin is the least
    minor.  notes: (pass note, fail note); the keywords are the metrics."""
    least, _, bad = scan
    if bad is None:
        return CertificateReport(condition, PASS, float(least), None, seed, budget, notes[0],
                                 metrics)
    k, alpha = bad
    minor = principal_minor_det(a[k][np.ix_(alpha, alpha)])
    if np.isnan(minor):
        return CertificateReport(condition, INCONCLUSIVE, None, None, seed, budget,
                                 f"principal minor {list(alpha)} is NaN: its terms overflow",
                                 metrics)
    return CertificateReport(condition, FAIL, float(least),
                             witness(k, {"index_set": list(alpha), "minor": minor}), seed,
                             budget, notes[1], metrics)


def pmatrix_minors(a) -> CertificateReport:
    """Exact P-matrix test: every principal minor must be positive
    (_minor_report of a as a stack of one)."""
    a = np.asarray(a, dtype=float)[None]
    return _minor_report("pmatrix", a, _minor_scan(a), None, {"minors": 2 ** a.shape[-1] - 1},
                         lambda k, w: w, ("all principal minors positive (exact enumeration)",
                                          "nonpositive principal minor found"))


def pmatrix_oracle(a, samples=100000, seed=0) -> CertificateReport:
    """Brute-force cross-check of the P-matrix property via the sign-reversal
    characterization: A is a P-matrix iff max_i w_i (A w)_i > 0 for all w != 0."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    if samples < 1000:
        raise ValueError("oracle needs at least 1000 samples")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((samples, m))
    norms = np.linalg.norm(w, axis=1)
    w = w[norms > 1e-12] / norms[norms > 1e-12, np.newaxis]
    w = np.vstack([np.eye(m), -np.eye(m), w])
    vals = np.max(w * (w @ a.T), axis=1)
    k = int(np.argmin(vals))
    margin = float(vals[k])
    budget = {"samples": samples}
    if margin <= 0.0:
        witness = {"w": w[k].tolist(), "max_component": margin}
        return CertificateReport("pmatrix-oracle", FAIL, margin, witness, seed, budget,
                                 "sign-reversing direction found")
    return CertificateReport("pmatrix-oracle", INCONCLUSIVE, margin, None, seed, budget,
                             f"no violating direction among samples; {SAMPLED_NOTE}")


def _sampled_jacobians(p: VIProblem, samples, seed, radius):
    """(points, Jacobians): the rows of draw_samples(p.set, samples, seed,
    radius) and the (samples, m, m) stack of the Jacobian at each; a sampled
    checker needs at least one point.  Every caller enumerates principal
    submatrices, so the minor budget is checked before the stack is built.
    A non-finite Jacobian entry raises EvaluationError, as a non-finite F does.
    The Jacobian of affine and game F is A at every point: the stack is then
    A alone, (1, m, m), its points still drawn for the witnesses."""
    if samples < 1:
        raise ValueError("sample set is empty")
    _check_minor_budget(p.dim)

    def make():
        pts = draw_samples(p.set, samples, seed, radius)
        if p.is_affine:
            return pts, _finite_values(p.mapping.data["A"])[None]
        return pts, _finite_values(np.array([jacobian(p, x) for x in pts]))
    return _shared(("jacobians", samples, seed, radius), make, p)


def pmatrix_sampled(p: VIProblem, samples, seed, radius) -> CertificateReport:
    """Exact minors test of the Jacobian at each of ``samples`` points of
    draw_samples, by one _minor_report of their stack; a fail's witness
    names the point."""
    pts, jacs = _sampled_jacobians(p, samples, seed, radius)
    return _minor_report("pmatrix", jacs, _minor_scan(jacs), seed, {"samples": samples},
                         lambda k, w: dict(w, point=pts[k].tolist()),
                         (f"Jacobian is a P-matrix at every sample; {SAMPLED_NOTE}",
                          "nonpositive principal minor found"))


def uniform_pmatrix_sampled(p: VIProblem, samples, seed, radius) -> CertificateReport:
    """Sampled test of the uniform P-matrix condition on the Jacobian.

    Mixed-row matrices take row i from the Jacobian at the i-th point of a
    tuple of the n = ``samples`` points of draw_samples; each must be a
    P-matrix with margin at least ETA_FLOOR.  The 2n tuples are the n
    all-same ones (one per point), then n seeded draws, which are not made
    when the stack holds one matrix: every mixed-row matrix is then that one.
    One _minor_report tests their stack; a fail names its tuple and points.
    """
    pts, jacs = _sampled_jacobians(p, samples, seed, radius)
    n, m = samples, p.dim
    budget = {"samples": n, "mixed_rows": 2 * n}
    tuples = np.zeros((1, m), dtype=int)
    if len(jacs) > 1:
        tuples = np.vstack([np.repeat(np.arange(n)[:, None], m, axis=1),
                            np.random.default_rng(seed).integers(0, n, size=(n, m))])
    mix = jacs[tuples, np.arange(m)]
    least, arg, _ = scan = _minor_scan(mix)
    rep = _minor_report("uniform-pmatrix", mix, scan, seed, budget,
                        lambda k, w: {"tuple": tuples[k].tolist(),
                                      "points": pts[tuples[k]].tolist(), **w},
                        (f"all sampled mixed-row matrices pass; {SAMPLED_NOTE}",
                         "mixed-row matrix is not a P-matrix"))
    if rep.verdict != PASS or least >= ETA_FLOOR:
        return rep
    witness = {"tuple": tuples[arg[0]].tolist(), "index_set": list(arg[1]),
               "min_minor": float(least), "eta_floor": ETA_FLOOR}
    return CertificateReport("uniform-pmatrix", FAIL, float(least), witness, seed, budget,
                             "P-matrix margin below the uniform floor")


def _sigma_above(s, tau):
    """Mask of the rows S of the (k, r, r) stack s, every entry below 1 in
    magnitude, whose sigma_min as np.linalg.svd computes it is certainly above
    tau: none when tau <= 1e-140.  A row is cleared when the Cholesky
    factorization of S^T S - t I, t = (tau (1 + 1e-10))^2 + 1e-12 r ||S||_F^2,
    has only positive pivots in floating point.  Why that suffices, with
    u = 2^-53:
    - forming S^T S, subtracting t and factoring perturb S^T S by at most about
      (r + 1)^2 u ||S||_F^2 (Higham 2002, Thm 10.3), under a hundredth of the
      1e-12 r ||S||_F^2 term for r <= 20, so the true sigma_min^2 exceeds
      (tau (1 + 1e-10))^2 + 0.99e-12 ||S||_F^2;
    - the computed sigma_min is within p u ||S||_2 of the true one (LAPACK
      Users' Guide, 4.9), and by 2xy <= 2e-10 x^2 + y^2 / 2e-10 both slack
      terms together exceed tau's distance to it for any p below 1e5;
    - entries below 1 keep every square and sum finite, and t > 1e-280 sits
      far above the absolute errors of order 1e-308 that underflow adds,
      including entries that underflowed when the stack was scaled.
    NaN or inf in S makes t NaN or inf, so no pivot is positive.  A pivot <= 0
    makes every later pivot NaN or -inf, so the last pivot alone decides."""
    k, r = s.shape[:2]
    if not tau > 1e-140:
        return np.zeros(k, dtype=bool)
    g = np.matmul(s.transpose(0, 2, 1), s)
    diag = np.arange(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        g[:, diag, diag] -= ((tau * (1 + 1e-10)) ** 2
                             + 1e-12 * r * np.trace(g, axis1=1, axis2=2))[:, None]
        for j in range(r - 1):
            col = g[:, j + 1:, j] / np.sqrt(g[:, j, j:j + 1])
            g[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :]
    return g[:, -1, -1] > 0.0


def _sigma_scan(a):
    """(least sigma_min, first place attaining it or None) over the principal
    submatrices of each matrix of the (n, m, m) stack a: _scan with one SVD
    per submatrix, except those that _sigma_above clears against the running
    minimum, on a scaled by the power of two (exact) that puts max |a| in
    [1/2, 1).  Orders run across the whole stack, so for n > 1 the minimum
    over lower orders of every matrix prunes each order."""
    e = -np.frexp(np.max(np.abs(a)))[1]
    least, arg, _ = _scan(a, lambda s: np.linalg.svd(s, compute_uv=False)[:, -1],
                          above=lambda s, v: _sigma_above(np.ldexp(s, e), np.ldexp(v, e)))
    return least, arg


def principal_submatrix_sigma_sweep(p: VIProblem, samples, seed, radius,
                                    threshold=1e-8) -> CertificateReport:
    """Minimum singular value over all principal submatrices of the Jacobian
    at each of ``samples`` points of draw_samples, by one _sigma_scan of their
    stack."""
    m = p.dim
    if m > MINOR_BUDGET_DIM:
        raise BudgetError("submatrix enumeration exceeds budget for m > 20")
    pts, jacs = _sampled_jacobians(p, samples, seed, radius)
    margin, arg = _sigma_scan(jacs)
    budget = {"samples": samples, "submatrices": 2 ** m - 1}
    metrics = {"argmin_point": pts[arg[0]].tolist(), "argmin_index_set": list(arg[1])}
    if margin > threshold:
        return CertificateReport("sigma-sweep", PASS, float(margin), None, seed, budget,
                                 f"all sampled submatrix sigma_min above threshold; "
                                 f"{SAMPLED_NOTE}", metrics)
    witness = {"point": pts[arg[0]].tolist(), "index_set": list(arg[1]),
               "sigma_min": float(margin)}
    return CertificateReport("sigma-sweep", FAIL, float(margin), witness, seed, budget,
                             "rank-deficient principal submatrix at a sample", metrics)


def _directions(m, k, extra):
    """Rows k of the direction list of R^m: the m^2 grid directions, the
    coordinate ones e_i first, then for each pair i < j in lexicographic order
    (e_i - e_j)/sqrt(2) and (e_i + e_j)/sqrt(2); then the rows of extra.
    Only the rows asked for are built."""
    out = np.zeros((k.size, m))
    at = np.arange(k.size)
    coord, pair, more = k < m, (k >= m) & (k < m * m), k >= m * m
    out[at[coord], k[coord]] = 1.0
    q, plus = np.divmod(k[pair] - m, 2)
    starts = np.cumsum(np.r_[0, np.arange(m - 1, 0, -1)])  # first pair index of each i
    i = np.searchsorted(starts, q, side="right") - 1
    s = 1.0 / np.sqrt(2.0)
    out[at[pair], i] = s
    out[at[pair], q - starts[i] + i + 1] = np.where(plus == 1, s, -s)
    out[more] = extra[k[more] - m * m]
    return out


def _separated(x, y):
    """Mask of the pairs of rows of x and y at least 1e-12 apart."""
    d = y - x
    return np.sqrt(np.vecdot(d, d)) >= 1e-12


def _pairs(box: BoxSet, bases, radii, count, extra=None):
    """(xs, ys): the first count pairs (x, P_K[x + r d]) at least 1e-12
    apart, one pair per row; x runs over the rows of bases (outermost), d
    over the directions of _directions and r over radii (innermost).  The
    grid is built in chunks, each just large enough for the pairs still
    missing and at most _STACK_BYTES per array, until count pairs are kept."""
    m = box.dim
    extra = np.empty((0, m)) if extra is None else extra
    radii = np.asarray(radii, dtype=float)
    ndirs = m * m + len(extra)
    most = max(1, _STACK_BYTES // (8 * m * radii.size))  # directions per chunk
    xs, ys, kept, start = [np.empty((0, m))], [np.empty((0, m))], 0, 0
    while kept < count and start < len(bases) * ndirs:
        step = min(most, -(-(count - kept) // radii.size))  # enough if none is skipped
        b, k = np.divmod(np.arange(start, min(start + step, len(bases) * ndirs)), ndirs)
        start += step
        d = _directions(m, k, extra)
        x = np.repeat(bases[b], radii.size, axis=0)
        y = project(box, x + (radii[:, None] * d[:, None, :]).reshape(-1, m))
        keep = _separated(x, y)
        xs.append(x[keep])
        ys.append(y[keep])
        kept += int(keep.sum())
    return np.concatenate(xs)[:count], np.concatenate(ys)[:count]


def _pair_values(F, xs, ys):
    """(F(xs), F(ys)) row by row, on one stack of the points in the order x0,
    y0, x1, y1, ..., so a non-finite F raises the error of the first such point."""
    values = F.on_rows(np.hstack([xs, ys]).reshape(-1, xs.shape[1]))
    return values[0::2], values[1::2]


def _pair_stream(box: BoxSet, pairs, seed, radius):
    """Direction-grid pairs around the box midpoint and three seeded points,
    then pairs of consecutive rows of one draw_samples call, as (xs, ys);
    pairs closer than 1e-12 are skipped, so a box without two distinct points
    gives fewer pairs."""
    bases = np.vstack([box_midpoint(box), draw_samples(box, 3, seed + 1, radius)])
    xs, ys = _pairs(box, bases, (1.0,), pairs)
    rows = draw_samples(box, 2 * (pairs - len(xs)), seed, radius)
    keep = _separated(rows[0::2], rows[1::2])
    return np.vstack([xs, rows[0::2][keep]]), np.vstack([ys, rows[1::2][keep]])


def _first_max(values):
    """The greatest value along the last axis, the first one where several tie
    (as -0.0 and 0.0 do), as a running max keeps its first value."""
    return np.take_along_axis(values, np.argmax(values, axis=-1)[..., None], axis=-1)[..., 0]


def uniform_pfunction_search(p: VIProblem, pairs=200, seed=0, radius=10.0) -> CertificateReport:
    """Search for violations of the uniform P-function inequality
    max_j [F(x)-F(y)]_j [x-y]_j >= mu ||x-y||^2 over sampled pairs in K;
    decided exactly on affine and game F (_exact_pfunction)."""
    return _pfunction_search(p, None, pairs, seed, radius, "pfunction")


def block_pfunction_search(p: VIProblem, pairs=200, seed=0, radius=10.0) -> CertificateReport:
    """Block variant: the max runs over block inner products <[F(x)-F(y)]_j, [x-y]_j>,
    with the blocks of K (one block when K has none)."""
    return _pfunction_search(p, p.set.blocks or (p.dim,), pairs, seed, radius,
                             "block-pfunction")


def _rho(d, df, blocks):
    """rho of each pair, one per row of d = x - y and df = F(x) - F(y): the
    greatest coordinate product (blocks None) or block inner product, over
    ||d||^2."""
    if blocks is None:
        top = np.max(df * d, axis=1)
    else:  # a 1-dim block's product keeps its sign of zero, which vecdot would not
        top = _first_max(np.column_stack([
            df[:, s.start] * d[:, s.start] if s.stop - s.start == 1
            else np.vecdot(df[:, s], d[:, s]) for s in block_slices(blocks)]))
    return top / np.vecdot(d, d)


def _pfunction_search(p, blocks, pairs, seed, radius, condition):
    if pairs < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs")
    exact = _exact_pfunction(p, blocks, condition)
    if exact is not None:
        return exact
    key = (pairs, seed, radius)
    xs, ys = _shared(("pairs", *key), lambda: _pair_stream(p.set, *key), p)
    budget = {"pairs": len(xs)}
    if not len(xs):
        return CertificateReport(condition, INCONCLUSIVE, None, None, seed, budget,
                                 NO_PAIR_NOTE)
    fx, fy = _shared(("pair values", *key), lambda: _pair_values(p.mapping, xs, ys), p)
    rho = _rho(xs - ys, fx - fy, blocks)
    k, min_rho = _first_min(rho)
    bad = np.flatnonzero(rho <= 0.0)
    if bad.size:
        j = bad[0]
        return CertificateReport(condition, FAIL, min_rho,
                                 {"x": xs[j].tolist(), "y": ys[j].tolist(),
                                  "rho": float(rho[j])}, seed,
                                 budget, "pair violating the P-function inequality",
                                 {"min_rho_pair": {"x": xs[k].tolist(), "y": ys[k].tolist()}})
    return CertificateReport(condition, INCONCLUSIVE, min_rho, None, seed, budget,
                             f"no violating pair; empirical mu = min rho; {SAMPLED_NOTE}")


def _exact_pfunction(p, blocks, condition):
    """The report of the P-function inequality on affine or game F, read off
    A[N, N] with N the coordinates with lo < hi: by _pmatrix_rule for
    coordinate products (blocks None or all of size 1), by _monotone_rule
    for one block.  A fail's pair is _violating_pair's, along the rule's
    direction.  None where the sampled search decides instead: F is not
    affine (_affine_base), the blocks are of another layout, the rule
    cannot decide, or the pair does not hold."""
    base = _affine_base(p)
    if base is None or not (blocks is None or len(blocks) == 1 or set(blocks) == {1}):
        return None
    n = np.flatnonzero(p.set.lo < p.set.hi)
    rule = _pmatrix_rule if blocks is None or len(blocks) > 1 else _monotone_rule
    found = rule(base[0][np.ix_(n, n)])
    if found is None:
        return None
    margin, budget, note, alpha, w = found
    if w is None:
        return CertificateReport(condition, PASS, margin, None, None, budget, note)
    direction = np.zeros(p.dim)
    direction[n[alpha]] = w
    pair = _violating_pair(p, base, direction, blocks)
    if pair is None:
        return None
    x, y, rho = pair
    return CertificateReport(condition, FAIL, margin,
                             {"x": x.tolist(), "y": y.tolist(), "rho": rho,
                              "index_set": n[alpha].tolist()}, None, budget, note)


def _pmatrix_rule(a):
    """(margin, budget, note, alpha, w) of the coordinate-product rule on
    a = A[N, N]: F is a uniform P-function on K iff a is a P-matrix (More &
    Rheinboldt 1973), by the shared _minor_scan; the margin is the least
    minor.  A pass (alpha and w None) needs it above NOISE_FLOOR h, h the
    Hadamard bound prod max(1, ||row||) of every minor.  On a fail, alpha is
    the first nonpositive minor's index set and w an eigenvector of a[alpha]
    for its least real eigenvalue, which its determinant makes <= 0.  None
    when |N| > MINOR_BUDGET_DIM, h is not below 1e300 (a minor or a term of
    it could overflow) or the least minor lies in (0, NOISE_FLOOR h]."""
    if len(a) > MINOR_BUDGET_DIM:
        return None
    with np.errstate(over="ignore"):
        h = np.prod(np.maximum(1.0, np.linalg.norm(a, axis=1)))
    if not h < 1e300:
        return None
    least, _, bad = _minor_scan(a[None])
    budget = {"minors": 2 ** len(a) - 1}
    if bad is None:
        ok = least > NOISE_FLOOR * h
        return (float(least), budget, PMATRIX_NOTE, None, None) if ok else None
    alpha = list(bad[1])
    lam, vec = np.linalg.eig(a[np.ix_(alpha, alpha)])
    real = np.flatnonzero(lam.imag == 0.0)
    k = real[np.argmin(lam.real[real])] if real.size else None
    if k is None or lam.real[k] > 0.0:  # only by rounding
        return None
    return float(least), budget, NOT_PMATRIX_NOTE, alpha, vec[:, k].real


def _monotone_rule(a):
    """(margin, budget, note, alpha, w) of the one-block rule on a = A[N, N]:
    the inequality is strong monotonicity on K, whose modulus, the margin,
    is lambda_min of the symmetric part S of a (Facchinei & Pang 2003, 2.3).
    A pass (alpha and w None) needs it above NOISE_FLOOR lambda_max(S); a
    fail has it <= 0, w its eigenvector and alpha all of N.  None otherwise,
    or when S is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = (a + a.T) / 2.0
    if not np.isfinite(s).all():
        return None
    lam, vec = np.linalg.eigh(s)
    budget = {"eigenvalues": len(a)}
    if lam[0] > NOISE_FLOOR * lam[-1]:
        return float(lam[0]), budget, MONOTONE_NOTE, None, None
    if lam[0] > 0.0:
        return None
    return float(lam[0]), budget, NOT_MONOTONE_NOTE, slice(None), vec[:, 0]


def _violating_pair(p, base, w, blocks):
    """(x, y, rho): y = box_midpoint(K), x = y + eps s in K for s = w, or
    else -w, with eps <= 1 as large as K allows, and rho that of the pair
    by _rho on F(x) and F(y), when it is <= 0; None when neither direction
    leaves y by 1e-12 or F(x) is not finite or rho > 0."""
    _, y, fy = base
    box = p.set
    for s in (w, -w):
        on = s != 0.0
        eps = min(1.0, float(((np.where(s > 0.0, box.hi, box.lo) - y)[on] / s[on]).min()))
        x = project(box, y + eps * s)
        d = x - y
        if np.sqrt(d @ d) < 1e-12:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            fx = p.mapping.rows(x[None])[0]
        rho = float(_rho(d[None], (fx - fy)[None], blocks)[0])
        return (x, y, rho) if np.isfinite(fx).all() and rho <= 0.0 else None
    return None


def growth_l0lp_fit(p: VIProblem, pairs=200, seed=0, radius=10.0) -> CertificateReport:
    """Least-max fit of ||F(x)-F(y)|| <= L0 + Lp ||x-y||^p, p = 1, over sampled pairs.

    Lp is the worst ratio over pairs with separation >= 1; L0 covers the
    residual of the shorter pairs.  Passes with margin the fitted Lp whenever
    K has a pair to fit, and is inconclusive otherwise.  On affine and game
    F (_affine_base) the fit is exact when finite: L0 = 0 and Lp = ||A[:, N]||_2,
    N the coordinates with lo < hi, the Lipschitz constant of F on K.
    """
    if pairs < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs")
    base = _affine_base(p)
    if base is not None:
        n = np.flatnonzero(p.set.lo < p.set.hi)
        lp = float(np.linalg.norm(base[0][:, n], 2))
        if np.isfinite(lp):
            return CertificateReport("growth", PASS, lp, None, None, {"columns": int(n.size)},
                                     GROWTH_NOTE, {"L0": 0.0, "Lp": lp, "p": 1.0,
                                                   "coverage": 1.0})
    rng = np.random.default_rng(seed)
    box = p.set
    bases = draw_samples(box, max(2, pairs // 40), seed, radius)
    extra = []  # seeded random directions, up to 12 directions in all
    while box.dim ** 2 + len(extra) < 12:
        d = rng.standard_normal(box.dim)
        n = np.linalg.norm(d)
        if n > 1e-12:
            extra.append(d / n)
    xs, ys = _pairs(box, bases, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0), pairs,
                    np.array(extra).reshape(-1, box.dim))
    if not len(xs):  # on a wide box every step may round back to its base
        return CertificateReport("growth", INCONCLUSIVE, None, None, seed, {"pairs": 0},
                                 NO_PAIR_NOTE if (box.lo == box.hi).all() else NO_GRID_PAIR_NOTE)
    fx, fy = _pair_values(p.mapping, xs, ys)
    df = np.sqrt(np.vecdot(fx - fy, fx - fy))
    sep = np.sqrt(np.vecdot(ys - xs, ys - xs))
    long = sep >= 1.0
    ratios = df / sep
    lp = _first_max(ratios[long] if long.any() else ratios)
    l0 = 0.0 if long.all() else _first_max(df[~long] - lp * sep[~long])
    l0 = 0.0 if l0 < 1e-12 * max(1.0, lp) else l0  # float noise below fit resolution
    covered = int(np.count_nonzero(df <= l0 + lp * sep + 1e-12))
    metrics = {"L0": float(l0), "Lp": float(lp), "p": 1.0,
               "coverage": covered / len(xs)}
    return CertificateReport("growth", PASS, float(lp), None, seed, {"pairs": len(xs)},
                             f"fitted growth envelope on sampled pairs; {SAMPLED_NOTE}",
                             metrics)


def _own_lambdas(p: VIProblem) -> np.ndarray:
    """own_block_lambdas(p), shared per call."""
    return _shared(("own lambdas",), lambda: own_block_lambdas(p), p)


def upsilon_build(p: VIProblem) -> np.ndarray:
    """The N x N comparison matrix of a game (``make_game``): diagonal inf
    lambda_min of own blocks, off-diagonal minus sup spectral norm of cross
    blocks, each block A[s_i, s_j] of the Jacobian A for the blocks s of K.

    Quadratic games have constant Jacobian blocks, so the result is exact and
    sample-independent.
    """
    if len(set(p.set.blocks)) != 1:
        raise ConfigurationError(
            "Upsilon analysis requires all player blocks of equal dimension")
    a = p.mapping.data["A"]
    sl = block_slices(p.set.blocks)
    ups = np.array([[-np.linalg.norm(a[si, sj], 2) for sj in sl] for si in sl])
    np.fill_diagonal(ups, _own_lambdas(p))
    return ups


def p_upsilon_check(p: VIProblem) -> CertificateReport:
    """Own blocks symmetric positive definite and the comparison matrix a
    P-matrix; on pass the game has a unique Nash equilibrium.  Inconclusive
    when the player blocks differ in dimension, where the test does not apply."""
    budget = {"players": len(p.set.blocks)}
    if len(set(p.set.blocks)) != 1:
        return CertificateReport("upsilon", INCONCLUSIVE, None, None, None, budget,
                                 "the Upsilon test needs player blocks of equal dimension; "
                                 f"block sizes are {list(p.set.blocks)}")
    convex = hessian_block_convexity(p)
    if convex.verdict == FAIL:
        witness = dict(convex.witness, clause="own-block-pd")
        return CertificateReport("upsilon", FAIL, convex.margin, witness, None, budget,
                                 "own-block Hessian is not positive definite")
    ups = upsilon_build(p)[None]
    return _minor_report("upsilon", ups, _minor_scan(ups), None, budget,
                         lambda k, w: {"clause": "upsilon-pmatrix", **w},
                         ("comparison matrix is a P-matrix; the game has a unique Nash "
                          "equilibrium", "comparison matrix is not a P-matrix"),
                         upsilon=ups[0].tolist())


def _face_edge(j, inside, pinned, tol):
    """(margin, edge) for the elements I - D + J D, D = 1 on the mask ``inside``,
    in [0, 1] on the mask ``pinned`` and 0 elsewhere.  Their determinant is
    multilinear in D and is det J[S, S] at the vertex D = 1 on S: all are
    nonsingular iff J[inside, inside] is (sigma_min >= tol, taken as 1 when
    empty) and its Schur complement C on ``pinned`` is a P-matrix.  margin: the
    lesser of that sigma_min and the least row-scaled minor of C.  edge: None
    on a pass, else (S, k) with J[S, S] singular (k None) or det J[S, S] and
    det J[S + k, S + k] differing in sign or including a 0 up to rounding (k
    ends the first bad set of _minor_scan, whose subsets of lower order all
    pass; a NaN minor of C is bad)."""
    fr, bd = np.flatnonzero(inside), np.flatnonzero(pinned)
    s_min = _sigma_min(j, fr)
    if s_min < tol:
        return s_min, (fr, None)
    x = np.linalg.solve(j[np.ix_(fr, fr)], j[np.ix_(fr, bd)])
    c = j[np.ix_(bd, bd)] - j[np.ix_(bd, fr)] @ x
    terms = np.abs(j[np.ix_(bd, bd)]) + np.abs(j[np.ix_(bd, fr)]) @ np.abs(x)
    # Each row of c and its terms is scaled by the power of two that puts the
    # row's largest term in [1/2, 1) (Blue 1978): the scaling is exact, no square
    # overflows, a square that underflows is below the sum's rounding, and the
    # norm itself cannot overflow.
    e = -np.frexp(np.max(terms, axis=1, initial=0.0))[1][:, None]
    norms = np.linalg.norm(np.ldexp(terms, e), axis=1)
    least, _, bad = _minor_scan(
        (np.ldexp(c, e) / np.where(norms > 0.0, norms, 1.0)[:, None])[None], NOISE_FLOOR)
    edge = None if bad is None else (np.sort(np.r_[fr, bd[list(bad[1][:-1])]]), int(bd[bad[1][-1]]))
    return min(s_min, float(least)), edge


def _face_point(box: BoxSet, s, k) -> np.ndarray:
    """A point with coordinate k on a bound, those of s inside K, the others outside."""
    v = np.where(np.isfinite(box.lo), box.lo - 1.0, box.hi + 1.0)
    v[s] = np.where(np.isfinite(box.lo) & np.isfinite(box.hi), box_midpoint(box),
                    np.clip(0.0, box.lo + 1.0, box.hi - 1.0))[s]
    if k is not None:
        v[k] = box.lo[k] if np.isfinite(box.lo[k]) else box.hi[k]
    return v


def _edge_minors(blocks) -> dict:
    """{"minors": the determinants of blocks} for a witness.  When one
    overflows, both are divided by one power of two, 2^e with e from slogdet
    so that the larger lies in [1, 2), and e is kept as "minors_exp2": the
    minors are then minors * 2^minors_exp2, and their signs stay exact."""
    minors = [principal_minor_det(a) for a in blocks]
    if not any(np.isinf(minors)):
        return {"minors": minors}
    signs, logs = np.array([np.linalg.slogdet(a) for a in blocks]).T
    e = int(np.floor(np.max(logs) / np.log(2.0)))
    return {"minors": (signs * np.exp(logs - e * np.log(2.0))).tolist(), "minors_exp2": e}


def maximal_rank_tsearch(p: VIProblem, samples, seed, radius, tol=1e-8) -> CertificateReport:
    """Whether every element of the normal map's generalized Jacobian is
    nonsingular wherever F_nor != 0, by _face_edge.  Affine and game F are
    decided exactly (J = A, D = 1 on free coordinates, 0 on fixed ones; at
    most MINOR_BUDGET_DIM others, for any F); other F on the face of each v of
    boundary_sample_set (J at P_K[v], D in [0, 1] where v is on a bound).  The
    first singular face decides: fail when ||F_nor|| > tol at its point, else
    inconclusive, as the existence theorem exempts the zeros of F_nor, and
    inconclusive where the edge's minors share one strict sign (or one is NaN)."""
    if samples < 1:
        raise ValueError("sample set is empty")
    lo, hi = p.set.lo, p.set.hi
    movable = lo < hi
    free = np.isinf(lo) & np.isinf(hi)
    bounded = int(np.count_nonzero(movable & ~free))
    if bounded > MINOR_BUDGET_DIM:
        raise BudgetError(f"{bounded} bounded coordinates exceed the budget of {MINOR_BUDGET_DIM}")
    if p.is_affine:
        faces = [(p.mapping.data["A"], free, movable & ~free, None)]
        seed, budget = None, {"vertices": 2 ** bounded}
        note = "every element is nonsingular (exact vertex test)"
    else:
        pts = boundary_sample_set(p.set, samples, seed, radius)
        faces = ((_finite_values(jacobian(p, z)), movable & (v > lo) & (v < hi),
                  movable & ((v == lo) | (v == hi)), v)
                 for v, z in zip(pts, project(p.set, pts)))
        budget = {"samples": len(pts)}
        note = f"each sample's face (at most one coordinate on a bound) passes; {SAMPLED_NOTE}"
    margin = np.inf
    for j, inside, pinned, v in faces:
        face_margin, edge = _face_edge(j, inside, pinned, tol)
        margin = min(margin, face_margin)
        if edge is None:
            continue
        s, k = edge
        v = _face_point(p.set, s, k) if v is None else v
        residual = normal_map(p, v).norm
        if residual <= tol:
            return CertificateReport("maximal-rank", INCONCLUSIVE, margin, None, seed, budget,
                                     "singular element only where F_nor = 0, which is exempt")
        ends = [] if k is None else [s, np.sort(np.r_[s, k])]  # J[S, S] singular: no edge
        minors = _edge_minors([j[np.ix_(e, e)] for e in ends])
        if ends and not np.prod(np.sign(minors["minors"])) <= 0.0:
            return CertificateReport("maximal-rank", INCONCLUSIVE, margin, None, seed, budget,
                                     f"edge S = {s.tolist()}, k = {k}: its minors "
                                     f"{minors['minors']} share one sign, so no witness holds")
        witness = {"index_set": s.tolist(), "k": k, **minors,
                   "point": v.tolist(), "residual": residual}
        return CertificateReport("maximal-rank", FAIL, margin, witness, seed, budget,
                                 "singular generalized-Jacobian element where F_nor != 0")
    return CertificateReport("maximal-rank", PASS, margin, None, seed, budget, note)


def pl_condition_check(p: VIProblem, xbar) -> CertificateReport:
    """Gap-domination check of a game (``make_game``) at a stationary
    candidate: for each player the squared own gradient must dominate a
    positive multiple mu_i of the suboptimality gap, upgrading the candidate to
    a Nash equilibrium; inconclusive where the gradient map exceeds 1e-6 in
    norm.  With own block Q_ii = A[s_i, s_i] of the Jacobian A and a finite
    inner minimum, the quadratic own cost has the exact constant mu_i = 2
    lambda_min+(Q_ii), its least eigenvalue above 1e-12 (Karimi, Nutini &
    Schmidt 2016)."""
    xbar = as_vector(xbar, p.dim)
    grad = p.F(xbar)
    grad_norm = float(np.linalg.norm(grad))
    budget = {"players": len(p.set.blocks)}
    if grad_norm > 1e-6:
        return CertificateReport("pl", INCONCLUSIVE, None, None, None, budget,
                                 "the solver's point is a boundary equilibrium, outside the "
                                 "scope of the PL check (candidate is not stationary: "
                                 f"gradient-map norm {grad_norm:.3e} > 1e-6)")
    mus = []
    for i, (sl, lam) in enumerate(zip(block_slices(p.set.blocks), _own_lambdas(p))):
        if lam <= 1e-12:  # semidefinite or worse: a minimum needs b in the range of Q_ii
            qii = p.mapping.data["A"][sl, sl]
            b = grad[sl] - qii @ xbar[sl]  # own gradient is qii @ x_i + b, others at xbar
            lams = np.linalg.eigvalsh(qii)
            if lam < -PSD_TOL:
                why = "cost is unbounded below in its own variable; no finite inner minimum exists"
            elif np.linalg.norm(qii @ np.linalg.lstsq(qii, -b, rcond=None)[0] + b) > 1e-8:
                why = ("cost decreases linearly along a flat direction; no finite inner "
                       "minimum exists")
            elif lams[-1] <= 1e-12:
                why = "own block has no positive eigenvalue"
            else:
                why, lam = None, lams[lams > 1e-12][0]
            if why:
                return CertificateReport("pl", INCONCLUSIVE, None, None, None, budget,
                                         f"exact: player {i}: {why}", {"player": i})
        mus.append(2.0 * float(lam))
    return CertificateReport("pl", PASS, min(mus), None, None, budget,
                             "exact: mu_i = 2 lambda_min+ of each own block; the candidate "
                             "is a Nash equilibrium", {"mu": mus})


def hessian_block_convexity(p: VIProblem) -> CertificateReport:
    """Smallest eigenvalue over the own-block Hessians A[s_i, s_i] of a game
    (``make_game``); positive margin means every player's cost is strongly
    convex in its own variable."""
    bad, margin = _first_min(_own_lambdas(p))
    budget = {"players": len(p.set.blocks)}
    if margin > 0.0:
        return CertificateReport("block-convexity", PASS, float(margin), None, None,
                                 budget, "every own-block Hessian is positive definite")
    return CertificateReport("block-convexity", FAIL, float(margin),
                             {"player": bad, "lambda_min": float(margin)}, None, budget,
                             "own-block Hessian with nonpositive eigenvalue")


def coercivity_check(p: VIProblem, *, tol=1e-8) -> CertificateReport:
    """Norm coercivity of the normal map.  On affine and game F
    (_affine_base) over a box with no half-bounded coordinate it holds iff
    A[Fr, Fr] is nonsingular, Fr the free coordinates: an exact pass when
    sigma_min(A[Fr, Fr]) >= tol, the margin (None when Fr is empty).
    Otherwise, from ``coercivity_probe``'s table: a ray whose last norm is
    below twice its first is a violation (fail, the first such ray the
    witness); a ray with finite norms, positive past the first four radii,
    has their log-log slope.  Pass when every ray has a slope of at least
    0.5, else inconclusive; the margin is the least slope.  The seed is None: nothing is drawn."""
    lo, hi = p.set.lo, p.set.hi
    if _affine_base(p) is not None and not (np.isinf(lo) ^ np.isinf(hi)).any():
        fr = np.flatnonzero(np.isinf(lo))
        s_min = _sigma_min(p.mapping.data["A"], fr) if fr.size else None
        if s_min is None or s_min >= tol:
            return CertificateReport("coercivity", PASS, s_min, None, None,
                                     {"free": int(fr.size)}, COERCIVE_NOTE)
    directions, norms = coercivity_probe(p)
    tail = slice(4, None)
    slopes, violation = [], None
    for d, row in zip(directions, norms):
        if not np.all(np.isfinite(row)):
            continue
        if row[-1] < 2.0 * row[0]:
            violation = violation or {"direction": d.tolist(), "norms": row.tolist(),
                                      "radii": RAY_RADII.tolist()}
        elif row[tail].min() > 0.0:
            slopes.append(float(np.polyfit(np.log(RAY_RADII[tail]), np.log(row[tail]), 1)[0]))
    margin = min(slopes) if slopes else None
    budget = {"rays": len(directions), "steps": RAY_RADII.size}
    if violation:
        return CertificateReport("coercivity", FAIL, margin, violation, None, budget,
                                 "residual norm fails to grow along a ray")
    if len(slopes) == len(directions) and margin >= 0.5:
        return CertificateReport("coercivity", PASS, margin, None, None, budget,
                                 "all rays show growing residual norms; sampled "
                                 "evidence, not a proof")
    return CertificateReport("coercivity", INCONCLUSIVE, margin, None, None, budget,
                             "slopes below the evidence threshold on some ray")


def _pl_at_solution(p: VIProblem) -> CertificateReport:
    """pl_condition_check at multistart(p, starts=1)[0]: the default start's
    point, or the corner-ray path's end where that start fails on a bounded box."""
    res = multistart(p, starts=1)[0]
    if not res.solved:
        return CertificateReport("pl", INCONCLUSIVE, None, None, None,
                                 {"players": len(p.set.blocks)},
                                 "no stationary candidate: solver did not converge")
    return pl_condition_check(p, res.x)


@dataclass(frozen=True)
class _Settings:
    """The certify options a condition's checker reads."""

    seed: int
    samples: int
    radius: float
    tol: float

    @property
    def pairs(self) -> int:
        return max(MIN_PAIRS, 4 * self.samples)


# Condition id -> (checker(p, settings), game_only), in the default order.
# Checkers are looked up as module globals at call time, never captured, so
# that a function replaced on this module (by a test or a tracer) is the one run.
CONDITIONS = {
    "pmatrix": (lambda p, s: pmatrix_sampled(p, s.samples, s.seed, s.radius), False),
    "uniform-pmatrix": (lambda p, s: uniform_pmatrix_sampled(
        p, s.samples, s.seed, s.radius), False),
    "sigma-sweep": (lambda p, s: principal_submatrix_sigma_sweep(
        p, s.samples, s.seed, s.radius, threshold=s.tol), False),
    "pfunction": (lambda p, s: uniform_pfunction_search(
        p, pairs=s.pairs, seed=s.seed, radius=s.radius), False),
    "block-pfunction": (lambda p, s: block_pfunction_search(
        p, pairs=s.pairs, seed=s.seed, radius=s.radius), False),
    "growth": (lambda p, s: growth_l0lp_fit(
        p, pairs=s.pairs, seed=s.seed, radius=s.radius), False),
    "upsilon": (lambda p, s: p_upsilon_check(p), True),
    "maximal-rank": (lambda p, s: maximal_rank_tsearch(
        p, s.samples, s.seed, s.radius, tol=s.tol), False),
    "coercivity": (lambda p, s: coercivity_check(p, tol=s.tol), False),
    "pl": (lambda p, s: _pl_at_solution(p), True),
    "block-convexity": (lambda p, s: hessian_block_convexity(p), True),
}


def certify_problem(p: VIProblem, conditions=None, seed=42, samples=30, radius=10.0,
                    tol=1e-8):
    """Run the requested checkers of CONDITIONS (default: all); returns
    (reports, skipped) in request order, game-only ids on a VI skipped.  An
    unknown or repeated id raises KeyError."""
    conditions = list(conditions) if conditions else list(CONDITIONS)
    unknown = [c for c in conditions if c not in CONDITIONS]
    if unknown:
        raise KeyError(f"unknown condition ids: {unknown}")
    repeated = sorted({c for c in conditions if conditions.count(c) > 1})
    if repeated:
        raise KeyError(f"repeated condition ids: {repeated}")
    settings = _Settings(seed, samples, radius, tol)
    reports, skipped = [], []
    call = _CALL.set((p, {}))  # the inputs its checkers share (_shared), for this call only
    try:
        for cond in conditions:
            check, game_only = CONDITIONS[cond]
            if game_only and not p.is_game:
                skipped.append(cond)
                continue
            try:
                reports.append(check(p, settings))
            except BudgetError as e:
                reports.append(CertificateReport(cond, INCONCLUSIVE, None, None, seed, {},
                                                 f"budget exceeded: {e}"))
    finally:
        _CALL.reset(call)
    return reports, skipped
