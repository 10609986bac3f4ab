import itertools
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vibox import (BoxSet, Mapping, VIProblem, affine_mapping, classify,
                   get_problem, make_game, multistart, normal_map, project, solve,
                   uniform_pfunction_search)
from vibox.registry import problem_ids
from vibox import certificates, solver
from vibox.model import EvaluationError, jacobian
from vibox.normal_map import normal_map_jacobian_element
from vibox.solver import (REG_FLOOR, SolveResult, _corner_ray_path, merit_gradient,
                          newton_directions)


def newton_step(df, free, r, r_norm):
    """newton_directions on the one system (df, free, r): d, or None where
    it flags J singular."""
    d, singular = newton_directions(df[None], free[None], r[None], [r_norm])
    return None if singular[0] else d[0]


def svd_rule_flags(j):
    """Singular-value test: sigma_min < reg_floor * max(sigma_max, 1)."""
    sv = np.linalg.svd(j, compute_uv=False)
    return sv[-1] < REG_FLOOR * max(sv[0], 1.0)


def step_rule_flags(df, free, r):
    return newton_step(df, free, r, float(np.linalg.norm(r))) is None


def element(df, free):
    """The dense element I - D + dF D with D = diag(free)."""
    d = free.astype(float)
    return np.eye(d.size) - np.diag(d) + df * d


def dense_direction(j, r, r_norm, reg_floor):
    """The step-growth rule on the full element: LU of J, c from J's columns."""
    try:
        d = np.linalg.solve(j, -r)
    except np.linalg.LinAlgError:
        return None
    c = max(float(np.sqrt(np.max(np.einsum("ij,ij->j", j, j)))), 1.0)
    return d if r_norm >= reg_floor * c * float(np.linalg.norm(d)) else None


def orthogonal(rng, m):
    return np.linalg.qr(rng.standard_normal((m, m)))[0]


@st.composite
def newton_systems(draw):
    """(dF, free, r) with dF well conditioned, near singular (trailing
    singular values 10^-4 .. 10^-16 of the largest) or an exactly singular
    integer product, scaled by a power of two, and a free mask that is all
    true, all false or drawn at random."""
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["well", "near", "exact"]))
    if kind == "exact":
        k = draw(st.integers(0, m - 1))
        df = rng.integers(-3, 4, (m, k)) @ rng.integers(-3, 4, (k, m)) * 1.0
    else:
        s = 10.0 ** rng.uniform(-1, 1, m)
        if kind == "near":
            tail = draw(st.integers(1, m))
            s[-tail:] = 10.0 ** -draw(st.floats(4, 16))
        df = (orthogonal(rng, m) * s) @ orthogonal(rng, m).T
    df = df * 2.0 ** draw(st.integers(-20, 20))
    mask = draw(st.sampled_from(["all", "none", "random"]))
    free = np.full(m, mask == "all") if mask != "random" else rng.integers(0, 2, m) == 1
    r = rng.standard_normal(m) * 10.0 ** draw(st.integers(-8, 8))
    return df, free, r


class TestSolve:
    def test_example_vi_reaches_origin(self):
        res = solve(get_problem("example-vi"))
        assert res.status == "solved"
        assert np.linalg.norm(res.x) <= 1e-8

    def test_identity_box_corner(self):
        res = solve(get_problem("identity-box"))
        assert res.status == "solved"
        np.testing.assert_allclose(res.x, [1.0, 1.0, 1.0], atol=1e-10)

    def test_constant_mapping_on_box_fast(self):
        res = solve(get_problem("constant-box"))
        assert res.status == "solved" and res.iterations <= 2
        np.testing.assert_allclose(res.x, 0.0, atol=1e-12)

    def test_spd_box_interior(self):
        res = solve(get_problem("spd-box"))
        assert res.status == "solved"
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)

    def test_cubic_free(self):
        res = solve(get_problem("cubic-free"))
        assert res.status == "solved"
        assert np.linalg.norm(res.x) <= 1e-6

    def test_line_search_backs_off_where_f_is_non_finite(self):
        # F(x) = x^3 - 1 is non-finite for |x| > 10; from 0.1 the first Newton
        # trial lands near 33.4, so the line search must halve t past the error.
        trials = []

        def f(x):
            trials.append(float(x[0]))
            return np.where(np.abs(x) > 10.0, np.inf, x ** 3 - 1.0)

        p = VIProblem(Mapping(fn=f, dim=1, jac=lambda x: np.diag(3.0 * x ** 2)),
                      BoxSet.full_space(1))
        res = solve(p, start=np.array([0.1]))
        assert res.status == "solved" and res.steps[0] == "newton"
        np.testing.assert_allclose(res.x, [1.0], atol=1e-10)
        assert trials[1] == pytest.approx(0.1 + 0.999 / 0.03)

    def test_newton_quadratic_tail_on_spd(self):
        res = solve(get_problem("spd-box"), start=np.array([5.0, -5.0]), tol=1e-12)
        assert res.status == "solved"
        tail = [r for r in res.trace if 0.0 < r < 1e-2]
        for a, b in zip(tail, tail[1:]):
            assert b <= 10.0 * a * a  # quadratic contraction once close

    def test_merit_strictly_monotone(self):
        for pid in ("example-vi", "identity-box", "spd-box", "cubic-free"):
            res = solve(get_problem(pid))
            for a, b in zip(res.trace, res.trace[1:]):
                assert b < a

    def test_solution_is_projection_of_v(self):
        for pid in ("example-vi", "identity-box", "spd-box"):
            p = get_problem(pid)
            res = solve(p)
            assert np.array_equal(res.x, project(p.set, res.v))

    def test_residual_matches_trace_tail(self):
        p = get_problem("example-vi")
        res = solve(p)
        assert res.residual == res.trace[-1]
        assert res.residual == normal_map(p, res.v).norm

    @pytest.mark.parametrize("pid", problem_ids())
    def test_result_is_the_normal_map_at_v(self, pid):
        p = get_problem(pid)
        for res in multistart(p, starts=8, seed=3):
            ev = normal_map(p, res.v)
            assert res.residual == ev.norm and np.array_equal(res.x, ev.z)

    def test_step_kinds_recorded(self):
        res = solve(get_problem("example-vi"))
        assert set(res.steps) <= {"newton", "regularized", "gradient", "picard"}
        assert len(res.steps) == res.iterations

    def test_solution_satisfies_variational_inequality(self):
        rng = np.random.default_rng(2024)
        for pid in ("example-vi", "identity-box", "constant-box", "spd-box"):
            p = get_problem(pid)
            res = solve(p)
            f = p.F(res.x)
            scale = 1.0 + np.linalg.norm(f)
            lo = np.where(np.isfinite(p.set.lo), p.set.lo, -50.0)
            hi = np.where(np.isfinite(p.set.hi), p.set.hi, 50.0)
            z = rng.uniform(lo, hi, size=(1000, p.dim))
            gaps = (z - res.x) @ f
            assert np.min(gaps) >= -1e-8 * scale

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(get_problem("spd-box"), tol=tol)

    def test_max_iters_status(self, monkeypatch):
        monkeypatch.setattr(solver, "ITERATION_LIMIT", 1)
        res = solve(get_problem("cubic-free"), start=np.array([2.0, 2.0]))
        assert res.status == "max-iters" and res.iterations == 1


class TestFixedCoordinates:
    """A coordinate with lo == hi has D_i = 0: the projection is constant there."""

    def problem(self, hi=np.inf):
        return VIProblem(affine_mapping([[2.0, 1.0], [3.0, 2.0]], [1.0, -1.0]),
                         BoxSet([0.5, -1.0], [0.5, hi]))

    def test_every_start_solves_in_one_newton_step(self):
        p = self.problem()
        res = solve(p)
        assert res.solved and res.steps == ("newton",)
        np.testing.assert_allclose(res.x, [0.5, -0.25])
        for s in certificates.draw_samples(p.set, 4, 0):
            assert solve(p, start=s).steps == ("newton",)
        assert all(r.solved for r in multistart(p, starts=5))

    def test_solver_and_path_leave_fixed_coordinates_out(self, monkeypatch):
        masks = []
        monkeypatch.setattr(solver, "newton_directions",
                            lambda df, free, r, r_norm: masks.extend(free.copy())
                            or (-r, np.zeros(len(r), dtype=bool)))
        p = self.problem(hi=3.0)
        solve(p, start=[0.5, 0.0])
        _corner_ray_path(p, -1.0)  # a negative tol: the path's Newton step always runs
        assert len(masks) >= 2 and not any(m[0] for m in masks)
        assert all(m[1] for m in masks)


class TestSingularityRule:
    @given(newton_systems())
    def test_flags_only_what_the_svd_rule_flags(self, system):
        df, free, r = system
        j = element(df, free)
        sv = np.linalg.svd(j, compute_uv=False)
        # Within rounding error of the threshold either rule may tip either
        # way; the band is far wider than that error (m * eps / reg_floor).
        assume(abs(sv[-1] / (REG_FLOOR * max(sv[0], 1.0)) - 1.0) > 1e-4)
        if step_rule_flags(df, free, r):
            assert svd_rule_flags(j)

    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1), st.integers(-20, 20),
           st.sampled_from(["product", "zero-column", "zero-row", "repeated-column"]))
    def test_exactly_singular_element_is_regularized(self, m, seed, scale, kind):
        rng = np.random.default_rng(seed)
        if kind == "product":
            j = rng.integers(-3, 4, (m, m - 1)) @ rng.integers(-3, 4, (m - 1, m)) * 1.0
        else:
            j = rng.integers(-3, 4, (m, m)) * 1.0
            i, k = rng.choice(m, 2, replace=False)
            if kind == "zero-column":
                j[:, i] = 0.0
            elif kind == "zero-row":
                j[i] = 0.0
            else:
                j[:, i] = j[:, k]
        j *= 2.0 ** scale
        r = rng.standard_normal(m)
        # A residual inside the range of J makes J d = -r consistent, and the
        # Newton step then exists; require a part of r outside the range.
        u, sv, _ = np.linalg.svd(j)
        null = u[:, sv <= 1e-12 * max(sv[0], 1e-300)]
        assume(null.shape[1] > 0 and np.linalg.norm(null.T @ r) >= 1e-3 * np.linalg.norm(r))
        assert svd_rule_flags(j)
        assert step_rule_flags(j, np.ones(m, dtype=bool), r)

    def test_solver_makes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("solve called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for pid in problem_ids():
            p = get_problem(pid)
            for start in (None, np.full(p.dim, 7.0)):
                solve(p, start=start)


class TestReducedStep:
    """newton_directions factors dF on the free coordinates only; these
    properties hold it to the dense element I - D + dF D."""

    @given(newton_systems())
    def test_direction_matches_dense_solve(self, system):
        df, free, r = system
        j = element(df, free)
        d = newton_step(df, free, r, float(np.linalg.norm(r)))
        try:
            ref = np.linalg.solve(j, -r)
        except np.linalg.LinAlgError:
            ref = None
        assume(d is not None and ref is not None)
        sv = np.linalg.svd(j, compute_uv=False)
        cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        # Both solves are backward stable for J, so each is within about
        # cond(J) * m * eps of the exact step.
        tol = 8.0 * j.shape[0] * np.finfo(float).eps * cond * np.linalg.norm(ref)
        assert np.linalg.norm(d - ref) <= tol

    @given(newton_systems())
    def test_same_singular_verdict_as_dense_solve(self, system):
        df, free, r = system
        j = element(df, free)
        r_norm = float(np.linalg.norm(r))
        # The verdict compares ||r|| with reg_floor * c * ||d||; where that
        # ratio is within rounding of 1, the two solves may tip either way.
        try:
            ref = np.linalg.solve(j, -r)
            c = max(float(np.sqrt(np.max(np.einsum("ij,ij->j", j, j)))), 1.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = r_norm / (REG_FLOOR * c * float(np.linalg.norm(ref)))
            assume(not abs(ratio - 1.0) <= 1e-4)
        except np.linalg.LinAlgError:
            pass
        reduced = newton_step(df, free, r, r_norm)
        assert (reduced is None) == (dense_direction(j, r, r_norm, REG_FLOOR) is None)

    @given(newton_systems())
    def test_gradient_is_element_transpose_times_r(self, system):
        df, free, r = system
        grad = merit_gradient(df, free, r)
        assert grad.tobytes() == (element(df, free).T @ r).tobytes()

    @given(newton_systems())
    def test_all_active_step_is_minus_r(self, system):
        df, _, r = system
        d = newton_step(df, np.zeros(r.size, dtype=bool), r,
                        float(np.linalg.norm(r)))
        assert d is not None and d.tobytes() == (-r).tobytes()

    @given(newton_systems())
    def test_all_free_step_is_the_lu_of_df(self, system):
        df, _, r = system
        d = newton_step(df, np.ones(r.size, dtype=bool), r,
                        float(np.linalg.norm(r)))
        assume(d is not None)
        assert d.tobytes() == np.linalg.solve(df, -r).tobytes()


class TestClassify:
    def test_example_game_is_nash(self):
        p = get_problem("example-game")
        res = multistart(p, starts=1)[0]
        assert res.status == "solved"
        assert classify(p, res) == "nash" == classify(p, solve(p))
        assert np.linalg.norm(res.x) <= 1e-8

    def test_pl_upgrades_a_game_that_fails_block_convexity(self, monkeypatch):
        # Q_00 = diag(1, 0) is only semidefinite, so block-convexity fails; the
        # gap-domination check then finds every solution a Nash equilibrium.
        p = make_game((2, 1), {(0, 0): np.diag([1.0, 0.0]), (1, 1): [[1.0]]},
                      (np.zeros(2), np.zeros(1)), BoxSet([-1.0] * 3, [1.0] * 3, (2, 1)))
        assert solver.hessian_block_convexity(p).verdict == "fail"
        verdicts = []

        def pl(*args):
            rep = certificates.pl_condition_check(*args)
            verdicts.append(rep.verdict)
            return rep

        monkeypatch.setattr(solver, "pl_condition_check", pl)
        solved = [r for r in multistart(p, starts=8, seed=3) if r.solved]
        assert solved and [classify(p, r) for r in solved] == ["nash"] * len(solved)
        assert verdicts == ["pass"] * len(solved)

    def test_solved_nonconvex_game_is_quasi_nash(self):
        # Player 0's own cost -x_0^2 / 2 is concave: block-convexity fails and
        # pl is inconclusive, so the stationary point stays quasi-nash.
        p = make_game((1, 1), {(0, 0): [[-1.0]], (1, 1): [[2.0]], (0, 1): [[0.5]],
                               (1, 0): [[0.5]]}, ([0.3], [-0.2]),
                      BoxSet([-1.0, -1.0], [1.0, 1.0], (1, 1)))
        results = multistart(p, starts=4)
        assert [r.status for r in results] == ["solved"]
        assert classify(p, results[0]) == "quasi-nash"

    def test_plain_vi_label(self):
        p = get_problem("example-vi")
        assert classify(p, solve(p)) == "vi-solution"

    def test_unsolved_has_no_label(self, monkeypatch):
        monkeypatch.setattr(solver, "ITERATION_LIMIT", 1)
        p = get_problem("cubic-free")
        assert classify(p, solve(p, start=np.array([2.0, 2.0]))) == "n/a"


class TestMultistart:
    def test_unique_solution_dedupes_to_singleton(self):
        results = multistart(get_problem("example-vi"), starts=8, seed=42)
        assert len(results) == 1
        assert results[0].status == "solved"
        assert np.linalg.norm(results[0].x) <= 1e-8

    def test_box_problems_dedupe(self):
        for pid in ("identity-box", "spd-box"):
            results = multistart(get_problem(pid), starts=6, seed=0)
            solved = [r for r in results if r.status == "solved"]
            assert len(solved) == 1

    def test_sorted_and_deterministic(self):
        a = multistart(get_problem("spd-box"), starts=5, seed=7)
        b = multistart(get_problem("spd-box"), starts=5, seed=7)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.x, rb.x) and ra.status == rb.status

    def test_order_solved_by_solution_then_unsolved_by_residual(self, monkeypatch):
        # solved first, by x alone whatever their residuals; then by residual and x
        fakes = iter([("solved", 2.0, 1e-12), ("solved", 1.0, 1e-11), ("max-iters", 0.5, 2.0),
                      ("max-iters", 0.25, 1.0), ("line-search-stall", 0.75, 1.0)])

        def fake(p, starts, tol):
            return [SolveResult(status, np.array([x]), np.array([x]), residual, (residual,), ())
                    for (status, x, residual), _ in zip(fakes, starts)]

        monkeypatch.setattr(solver, "_solve_stack", fake)
        p = VIProblem(affine_mapping(np.eye(1)), BoxSet.full_space(1))
        assert [float(r.x[0]) for r in multistart(p, starts=5)] == [1.0, 2.0, 0.25, 0.75, 0.5]

    def test_start_floor(self):
        with pytest.raises(ValueError):
            multistart(get_problem("example-vi"), starts=0)


class TestStartSelection:
    def test_default_start_is_box_midpoint(self):
        from vibox.certificates import box_midpoint
        p = get_problem("identity-box")
        np.testing.assert_array_equal(box_midpoint(p.set), [1.5, 1.5, 1.5])

    def test_unbounded_coordinates_start_at_zero(self):
        from vibox.certificates import box_midpoint
        p = VIProblem(affine_mapping(np.eye(2)),
                      BoxSet([0.0, -np.inf], [4.0, np.inf]))
        np.testing.assert_array_equal(box_midpoint(p.set), [2.0, 0.0])

    def test_explicit_start_respected(self):
        p = get_problem("example-vi")
        res = solve(p, start=np.array([9.0, -9.0]))
        assert res.status == "solved"


def per_start_draws(box, starts, seed, radius):
    """The seeded start points, drawn one at a time: an infinite side moves in
    to radius from 0, or to radius past the finite bound when that is further."""
    rng = np.random.default_rng(seed)
    lo = [a if np.isfinite(a) else min(-radius, b - radius) for a, b in zip(box.lo, box.hi)]
    hi = [b if np.isfinite(b) else max(radius, a + radius) for a, b in zip(box.lo, box.hi)]
    return [np.clip(rng.uniform(lo, hi), box.lo, box.hi) for _ in range(starts - 1)]


_END = st.floats(-30.0, 30.0)  # beyond the radius too: lo > radius, hi < -radius


@st.composite
def half_bounded_boxes(draw):
    """Boxes whose first coordinate is half-bounded, the others of any kind."""
    m = draw(st.integers(1, 6))
    kinds = [draw(st.sampled_from(["lower", "upper"]))]
    kinds += draw(st.lists(st.sampled_from(["lower", "upper", "both", "free"]),
                           min_size=m - 1, max_size=m - 1))
    lo, hi = [], []
    for kind in kinds:
        a, b = sorted((draw(_END), draw(_END)))
        lo.append(a if kind in ("lower", "both") else -np.inf)
        hi.append(b if kind in ("upper", "both") else np.inf)
    return BoxSet(lo, hi)


def record_starts(p, **kw):
    """The start of every solve multistart makes, with its stacked solve replaced."""
    seen = []

    def record(p, starts, tol):
        seen.extend(starts)
        return [SolveResult("max-iters", start, start, 1.0, (1.0,), ()) for start in starts]

    original = solver._solve_stack
    solver._solve_stack = record
    try:
        multistart(p, **kw)
    finally:
        solver._solve_stack = original
    return seen


class TestMultistartStarts:
    @given(half_bounded_boxes(), st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 1.0, 10.0, 25.0]))
    def test_starts_match_per_start_draws(self, box, starts, seed, radius):
        p = VIProblem(affine_mapping(np.eye(box.dim)), box)
        seen = record_starts(p, starts=starts, seed=seed, radius=radius)
        expected = per_start_draws(box, starts, seed, radius)
        assert len(seen) == starts
        assert [s.tobytes() for s in seen[1:]] == [s.tobytes() for s in expected]

    def test_lower_bound_beyond_radius_gives_distinct_starts(self):
        # [20, inf): the window is [20, 30], not the single point 20
        box = BoxSet([20.0], [np.inf])
        seen = record_starts(VIProblem(affine_mapping(np.eye(1)), box), starts=8, seed=0)
        assert len({s.tobytes() for s in seen}) == 8
        assert all(20.0 <= s[0] <= 30.0 for s in seen)
        f = affine_mapping(np.eye(1))
        rep = uniform_pfunction_search(VIProblem(Mapping(fn=f.fn, dim=1, rows=f.rows), box),
                                       pairs=100)
        assert rep.budget["pairs"] == 100


def game_matrix(rng, m):
    """Gradient matrix of a quadratic game with players of 1 or 2 coordinates,
    one own block indefinite when a 2-dim player exists, and its block sizes."""
    sizes = []
    while sum(sizes) < m:
        sizes.append(int(min(rng.integers(1, 3), m - sum(sizes))))
    a = 0.4 * rng.standard_normal((m, m))
    offs = np.cumsum([0, *sizes])
    for i, k in enumerate(sizes):
        g = rng.standard_normal((k, k))
        own = g @ g.T + 0.5 * k * np.eye(k)
        if k == 2 and i == sizes.index(2):
            u = orthogonal(rng, 2)
            own = u @ np.diag([-rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)]) @ u.T
        a[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = (own + own.T) / 2.0
    return a, tuple(sizes)


@st.composite
def bounded_affine_vis(draw):
    """(problem, A, b, lo, hi): F = A x + b on a box with every bound finite,
    m = 1..8, A indefinite, singular (an integer product of rank < m, with
    integer b and bounds, so that ties and degenerate pivots occur) or the
    gradient of a quadratic game, about a quarter of the coordinates fixed
    (lo == hi)."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["indefinite", "singular", "game"]))
    fixed = rng.random(m) < 0.25
    if kind == "singular":
        k = draw(st.integers(0, m - 1))
        a = rng.integers(-3, 4, (m, k)) @ rng.integers(-3, 4, (k, m)) * 1.0
        b = rng.integers(-3, 4, m) * 1.0
        lo = rng.integers(-3, 1, m) * 1.0
        hi = np.where(fixed, lo, lo + rng.integers(1, 4, m))
    else:
        b = rng.uniform(-3.0, 3.0, m)
        lo = rng.uniform(-3.0, 0.0, m)
        hi = np.where(fixed, lo, lo + rng.uniform(0.5, 4.0, m))
    if kind == "indefinite":
        a = 2.0 * rng.standard_normal((m, m))
    elif kind == "game":
        a, sizes = game_matrix(rng, m)
        offs = np.cumsum([0, *sizes])
        sl = [slice(offs[i], offs[i + 1]) for i in range(len(sizes))]
        q = {(i, j): a[sl[i], sl[j]] for i in range(len(sizes)) for j in range(len(sizes))}
        return make_game(sizes, q, [b[s] for s in sl], BoxSet(lo, hi, sizes)), a, b, lo, hi
    return VIProblem(affine_mapping(a, b), BoxSet(lo, hi)), a, b, lo, hi


def enumerated_solutions(a, b, lo, hi, tol=1e-9):
    """The oracle: every solution of the box VI on a piece whose free block
    A[S, S] is nonsingular, found by trying all 3^m patterns of each
    coordinate at lo, free or at hi (a fixed coordinate only at lo)."""
    found = []
    for pattern in itertools.product((-1, 0, 1), repeat=b.size):
        s = np.array(pattern)
        if np.any((s != -1) & (lo == hi)):
            continue
        free = s == 0
        x = np.where(s == 1, hi, lo)
        if free.any():
            sub = a[np.ix_(free, free)]
            if np.linalg.cond(sub) > 1e10:
                continue
            x[free] = np.linalg.solve(sub, -(b[free] + a[np.ix_(free, ~free)] @ x[~free]))
        f = a @ x + b
        slack = tol * (1.0 + np.abs(x).max() + np.abs(f).max())
        if (np.all(x >= lo - slack) and np.all(x <= hi + slack)
                and np.all(f[(s == -1) & (lo < hi)] >= -slack) and np.all(f[s == 1] <= slack)):
            found.append(x)
    return found


def failed_starts(p, starts, tol):
    """Stands in for the stacked solve: starts that do not converge."""
    v = np.zeros(p.dim)
    return [SolveResult("line-search-stall", v, project(p.set, v), 1.0, (1.0,), ())
            for _ in starts]


class TestCornerRayPath:
    @given(bounded_affine_vis())
    def test_path_ends_at_a_solution_the_enumeration_finds(self, case):
        p, a, b, lo, hi = case
        res = _corner_ray_path(p, 1e-10)
        assert res.solved and res.steps == ("path",)
        ev = normal_map(p, res.v)
        assert ev.norm == res.residual <= 1e-10 and np.array_equal(ev.z, res.x)
        natural = np.abs(res.x - np.clip(res.x - (a @ res.x + b), lo, hi)).max()
        assert natural <= 1e-8
        inside = (res.x > lo + 1e-9) & (res.x < hi - 1e-9)
        if b.size <= 6 and (not inside.any() or np.linalg.cond(a[np.ix_(inside, inside)]) < 1e8):
            # The path's piece is nonsingular, so the oracle has its point.
            dist = min(np.abs(x - res.x).max() for x in enumerated_solutions(a, b, lo, hi))
            assert dist <= 1e-6 * (1.0 + np.abs(res.x).max())

    def test_newton_step_on_the_final_piece(self):
        # Singular values down to 1e-9 on [-1e4, 1e4]^m: the tableau's
        # rounding can leave the path's end above tol (14 of these 80), and
        # one Newton step on its piece must then bring it below.
        polished = 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 7))
            a = (orthogonal(rng, m) * 10.0 ** rng.uniform(-9, 2, m)) @ orthogonal(rng, m).T
            p = VIProblem(affine_mapping(a, 1e3 * rng.standard_normal(m)),
                          BoxSet(np.full(m, -1e4), np.full(m, 1e4)))
            res = _corner_ray_path(p, 1e-10)
            assert res.solved and res.trace[-1] == res.residual
            if len(res.trace) == 2:
                polished += 1
                assert res.trace[1] <= 1e-10 < res.trace[0]
        assert polished >= 4

    def test_pivot_limit_ends_the_path_as_max_iters(self, monkeypatch):
        # The path of this 3-player game to its interior solution takes 4 pivots.
        a = [[2.2, -1.4, -0.7], [-2.0, 12.1, 2.7], [-0.6, 2.8, 2.5]]
        p = make_game((1, 1, 1), {(i, j): [[a[i][j]]] for i in range(3) for j in range(3)},
                      ([-0.9], [-2.5], [-1.2]), BoxSet([-1.0] * 3, [1.0] * 3, (1, 1, 1)))
        res = _corner_ray_path(p, 1e-10)
        assert res.solved and res.iterations == 4
        monkeypatch.setattr(solver, "ITERATION_LIMIT", 2)
        res = _corner_ray_path(p, 1e-10)
        assert (res.status, res.iterations, res.steps) == ("max-iters", 2, ("path",))

    @pytest.mark.parametrize("a, b, lo, hi", [
        ([[7.684337819423959e+307]], [-6.9305022522022e+303],
         [-0.494153906108326], [2.58142683425597]),
        ([[-4.5186998474970475e+305, -8.543174599389352e+306],
          [1.3863022007715714e+308, 2.5271023843935695e+302]],
         [1.2867094963769917e+298, -3.530210297950824e+297],
         [-0.835545931874262, -0.05719502085583472], [2.2995945412347814, 2.0879025736263443]),
    ], ids=["read-back", "newton-step"])
    def test_non_finite_f_at_the_path_end_stalls(self, a, b, lo, hi):
        # F is finite at both starts, but non-finite where the path reads its
        # end point back, which then ends at the box midpoint, or at its final
        # Newton trial, which is then rejected, as in the line search.
        p = VIProblem(affine_mapping(a, b), BoxSet(lo, hi))
        with np.errstate(over="ignore", invalid="ignore"):
            ends = [r for r in multistart(p, starts=2) if r.steps == ("path",)]
            assert [r.status for r in ends] == ["line-search-stall"]
            assert ends[0].trace == (ends[0].residual,)
            res = _corner_ray_path(p, 1e-10)
        assert bits(res) == bits(ends[0])
        if len(a) == 1:
            np.testing.assert_array_equal(res.x, certificates.box_midpoint(p.set))

    def test_runs_once_when_every_start_fails(self, monkeypatch):
        monkeypatch.setattr(solver, "_solve_stack", failed_starts)
        p = get_problem("spd-box")
        results = multistart(p, starts=4, seed=0)
        assert len(results) == 5 and [r.steps for r in results].count(("path",)) == 1
        path = results[0]  # the only solved result comes first
        assert path.steps == ("path",) and path.solved and classify(p, path) == "vi-solution"
        np.testing.assert_allclose(path.x, [1.0, 1.0], atol=1e-12)

    def test_skipped_when_a_start_solves(self, monkeypatch):
        monkeypatch.setattr(solver, "_corner_ray_path", None)  # calling it would raise
        assert multistart(get_problem("spd-box"), starts=4, seed=0)[0].solved

    @pytest.mark.parametrize("p", [
        VIProblem(affine_mapping(np.eye(2)), BoxSet([0.0, 0.0], [1.0, np.inf])),
        VIProblem(affine_mapping(np.eye(2)), BoxSet([-np.inf, 0.0], [1.0, 1.0])),
        VIProblem(Mapping(fn=lambda x: x - 0.5, dim=2, jac=lambda x: np.eye(2)),
                  BoxSet([0.0, 0.0], [1.0, 1.0])),
        get_problem("example-game"),
    ], ids=["upper-inf", "lower-inf", "builtin", "game-full-space"])
    def test_never_runs_on_an_infinite_side_or_a_builtin_mapping(self, p, monkeypatch):
        monkeypatch.setattr(solver, "_solve_stack", failed_starts)
        monkeypatch.setattr(solver, "_corner_ray_path", None)
        results = multistart(p, starts=3, seed=0)
        assert results and not any(r.steps == ("path",) for r in results)


# The one-start loop as it stood before the starts of a call were advanced as
# one stack: the oracle for _solve_stack, kept verbatim but for the names.
def oracle_direction(df, free, r, r_norm):
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
    c = float(np.sqrt(np.max(np.einsum("ij,ij->j", df, df)[free], initial=1.0)))
    return d if r_norm >= REG_FLOOR * c * float(np.linalg.norm(d)) else None


def oracle_solve(p, start, tol):
    v = np.array(start, dtype=float)
    movable = p.set.lo < p.set.hi
    ev = normal_map(p, v)
    trace = [ev.norm]
    steps = []
    status = "max-iters"
    slow = 0
    for _ in range(solver.ITERATION_LIMIT):
        if ev.norm <= tol:
            status = "solved"
            break
        r = ev.r
        df = jacobian(p, ev.z)
        free = movable & (v >= p.set.lo) & (v <= p.set.hi)
        grad = np.where(free, df.T @ r, r)
        kind = "newton"
        d = oracle_direction(df, free, r, ev.norm)
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
            kind = "picard"
            d = -r
            slope = None
        accepted = None
        t = 1.0
        theta0 = 0.5 * ev.norm ** 2
        for _ in range(solver.MAX_HALVINGS + 1):
            try:
                trial = normal_map(p, v + t * d)
            except EvaluationError:
                t *= solver.BACKTRACK
                continue
            theta = 0.5 * trial.norm ** 2
            if slope is not None:
                ok = theta <= theta0 + solver.ARMIJO_SLOPE * t * slope
            else:
                ok = theta <= (1.0 - solver.ARMIJO_SLOPE * t) * theta0
            if ok and theta < theta0:
                accepted = trial
                break
            t *= solver.BACKTRACK
        if accepted is None:
            if kind in ("gradient", "picard") and np.linalg.norm(grad) <= 1e-12 * (1.0 + ev.norm):
                status = "singular-jacobian-fallback-exhausted"
            else:
                status = "line-search-stall"
            break
        slow = slow + 1 if accepted.norm > (1.0 - solver.MIN_PROGRESS) * ev.norm else 0
        v, ev = accepted.v, accepted
        trace.append(ev.norm)
        steps.append(kind)
        if slow == 2:
            status = "line-search-stall"
            break
    if ev.norm <= tol:
        status = "solved"
    return SolveResult(status=status, v=v, x=project(p.set, v), residual=ev.norm,
                       trace=tuple(trace), steps=tuple(steps), iterations=len(steps))


def oracle_multistart(p, starts, seed, radius, tol=1e-10):
    start_points = [certificates.box_midpoint(p.set),
                    *certificates.draw_samples(p.set, starts - 1, seed, radius)]
    results = [oracle_solve(p, s, tol) for s in start_points]
    if not any(r.solved for r in results) and solver._path_applies(p):
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


def bits(res):
    """Every field of a result as bytes or exact values: signbit included."""
    return (res.status, res.v.tobytes(), res.x.tobytes(), np.float64(res.residual).tobytes(),
            np.array(res.trace, dtype=float).tobytes(), res.steps, res.iterations)


MAPPINGS = ["affine", "game", "rows+jac", "jac", "rows", "fn", "non-finite"]


@st.composite
def stacked_problems(draw):
    """A problem with m = 1..6 coordinates, each free, bounded below, bounded
    above, bounded on both sides or fixed, and F affine, a game's, or the
    builtin x -> A x + b + x^3 / 8 with and without ``rows`` and ``jac`` (the
    finite-difference Jacobian then), or that builtin made infinite where
    x_0 > c."""
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(MAPPINGS))
    kinds = rng.choice(["free", "lo", "hi", "both", "fixed"], m)
    a_lo = rng.uniform(-3.0, 0.0, m)
    lo = np.where(np.isin(kinds, ["lo", "both", "fixed"]), a_lo, -np.inf)
    hi = np.where(kinds == "fixed", a_lo,
                  np.where(np.isin(kinds, ["hi", "both"]), a_lo + rng.uniform(0.5, 4.0, m),
                           np.inf))
    b = rng.uniform(-3.0, 3.0, m)
    if kind == "game":
        a, sizes = game_matrix(rng, m)
        offs = np.cumsum([0, *sizes])
        sl = [slice(offs[i], offs[i + 1]) for i in range(len(sizes))]
        q = {(i, j): a[sl[i], sl[j]] for i in range(len(sizes)) for j in range(len(sizes))}
        return make_game(sizes, q, [b[s] for s in sl], BoxSet(lo, hi, sizes))
    a = rng.standard_normal((m, m)) * rng.choice([0.5, 2.0])
    if rng.random() < 0.2:
        a[:, rng.integers(m)] = 0.0  # a singular Jacobian on some faces
    if kind == "affine":
        return VIProblem(affine_mapping(a, b), BoxSet(lo, hi))
    cut = rng.uniform(-1.0, 3.0)

    def fn(x):
        y = a @ x + b + x ** 3 / 8.0
        return np.where(x[0] > cut, np.inf, y) if kind == "non-finite" else y

    def rows(xs):
        ys = np.matvec(a, xs) + b + xs ** 3 / 8.0
        return np.where(xs[:, :1] > cut, np.inf, ys) if kind == "non-finite" else ys

    mapping = Mapping(fn=fn, dim=m, kind="builtin",
                      jac=None if kind in ("rows", "fn") else lambda x: a + np.diag(3.0 * x ** 2 / 8.0),
                      rows=rows if kind in ("rows+jac", "rows", "non-finite") else None)
    return VIProblem(mapping, BoxSet(lo, hi))


class TestStackedSolve:
    """The starts of a call advance as one stack; each row must end exactly
    where the one-start loop ends from the same start."""

    @settings(max_examples=150, deadline=None)
    @given(stacked_problems(), st.integers(1, 12), st.integers(0, 2 ** 16),
           st.sampled_from([1.0, 3.0, 10.0]))
    def test_multistart_matches_the_one_start_loop(self, p, starts, seed, radius):
        try:
            expected = [bits(r) for r in oracle_multistart(p, starts, seed, radius)]
        except EvaluationError as e:
            with pytest.raises(EvaluationError) as got:
                multistart(p, starts=starts, seed=seed, radius=radius)
            assert (str(got.value), got.value.coordinate) == (str(e), e.coordinate)
            return
        got = multistart(p, starts=starts, seed=seed, radius=radius)
        assert [bits(r) for r in got] == expected

    @settings(deadline=None)
    @given(stacked_problems(), st.integers(0, 2 ** 16))
    def test_solve_is_the_one_row_case(self, p, seed):
        start = certificates.draw_samples(p.set, 1, seed, 10.0)[0]
        try:
            expected = bits(oracle_solve(p, start, 1e-10))
        except EvaluationError:
            with pytest.raises(EvaluationError):
                solve(p, start=start)
            return
        assert bits(solve(p, start=start)) == expected

    @pytest.mark.parametrize("m, seed, lo", [(3, 14, -np.inf), (2, 22, -1.0)],
                             ids=["full-space", "lower-bounds"])
    def test_line_search_falls_back_row_by_row(self, m, seed, lo, monkeypatch):
        # F = A x + b is infinite where x_0 > 1.5, so stacked trials raise
        # and _trial evaluates their halves, down to the rows that fail; it
        # looks normal_map up in the module vibox.normal_map (the package
        # attribute is the function).
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m)) * 2.0
        b = rng.uniform(-3.0, 3.0, m)
        mapping = Mapping(fn=lambda x: np.where(x[0] > 1.5, np.inf, a @ x + b), dim=m,
                          jac=lambda x: a,
                          rows=lambda xs: np.where(xs[:, :1] > 1.5, np.inf, np.matvec(a, xs) + b))
        p = VIProblem(mapping, BoxSet(np.full(m, lo), np.full(m, np.inf)))
        stacked_errors = []

        def counted(p, v):
            try:
                return normal_map(p, v)
            except EvaluationError:
                stacked_errors.append(np.ndim(v) == 2 and len(v) > 1)
                raise

        monkeypatch.setattr(sys.modules["vibox.normal_map"], "normal_map", counted)
        got = multistart(p, starts=8, seed=0, radius=1.0)
        assert [bits(r) for r in got] == [bits(r) for r in oracle_multistart(p, 8, 0, 1.0)]
        assert any(stacked_errors)

    @pytest.mark.parametrize("pid", problem_ids())
    def test_single_start_matches_the_one_start_loop(self, pid):
        p = get_problem(pid)
        expected = [bits(r) for r in oracle_multistart(p, 1, 0, 10.0)]
        assert [bits(r) for r in multistart(p, starts=1)] == expected

    def test_non_finite_start_raises_the_first_such_starts_error(self):
        # F is infinite in coordinate 1 where x_0 > 1; start 0 (the midpoint
        # 0.5) is finite, so the error is that of the first seeded start there.
        def fn(x):
            return np.where(np.arange(2) == 1, np.where(x[0] > 1.0, np.inf, x[1]), x[0])

        p = VIProblem(Mapping(fn=fn, dim=2, jac=lambda x: np.eye(2)),
                      BoxSet([-1.0, -1.0], [2.0, 1.0]))
        starts = certificates.draw_samples(p.set, 7, 0, 10.0)
        assert starts[:, 0].max() > 1.0
        with pytest.raises(EvaluationError) as got:
            multistart(p, starts=8, seed=0)
        assert got.value.coordinate == 1

    @given(newton_systems(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_stacked_directions_match_the_one_row_rule(self, system, k, seed):
        df, free, r = system
        rng = np.random.default_rng(seed)
        frees = np.vstack([free, rng.random((k - 1, free.size)) < 0.5])
        rs = np.vstack([r, rng.standard_normal((k - 1, r.size))])
        norms = np.sqrt(np.vecdot(rs, rs))
        for shared in (np.broadcast_to(df, (k, *df.shape)), np.stack([df] * k)):
            d, singular = solver.newton_directions(shared, frees, rs, norms)
            for i in range(k):
                ref = oracle_direction(df, frees[i], rs[i], float(norms[i]))
                assert singular[i] == (ref is None)
                if ref is not None:
                    assert d[i].tobytes() == ref.tobytes()
            assert solver.merit_gradient(shared, frees, rs).tobytes() == np.array(
                [np.where(f, df.T @ ri, ri) for f, ri in zip(frees, rs)]).tobytes()

    @given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    def test_stacked_column_norms_are_each_matrix_bit_for_bit(self, k, m, seed):
        # newton_directions' c: one einsum over the (k, m, m) stack, a copy of
        # one matrix k times (affine and game F) or k distinct ones.
        rng = np.random.default_rng(seed)
        df = rng.standard_normal((k, m, m)) * 10.0 ** rng.integers(-150, 150, (k, m, m))
        for stack in (df, np.broadcast_to(df[0], df.shape)):
            expected = np.array([np.einsum("ij,ij->j", j, j) for j in stack])
            assert np.einsum("kij,kij->kj", stack, stack).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("pid", ["spd-box", "example-vi", "cubic-free", "identity-box"])
    def test_rows_leave_the_stack_when_they_end(self, pid, monkeypatch):
        # Every start of these solves, so row i takes part in exactly its
        # res.iterations direction calls, and the loop stops with its
        # longest row.
        sizes = []
        original = solver.newton_directions
        monkeypatch.setattr(solver, "newton_directions",
                            lambda df, free, r, r_norm: sizes.append(len(r))
                            or original(df, free, r, r_norm))
        p = get_problem(pid)
        starts = np.vstack([certificates.box_midpoint(p.set),
                            certificates.draw_samples(p.set, 11, 3, 10.0)])
        results = solver._solve_stack(p, starts, 1e-10)
        assert all(r.solved for r in results)
        iterations = [r.iterations for r in results]
        assert sizes == [sum(n > i for n in iterations) for i in range(max(iterations))]
