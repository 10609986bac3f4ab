import contextlib
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vibox import certificates, solver
from vibox import (BoxSet, BudgetError, Mapping, VIProblem, affine_mapping,
                   block_pfunction_search, boundary_sample_set, box_midpoint, builtin_mapping,
                   coercivity_check, draw_samples, get_problem, growth_l0lp_fit,
                   hessian_block_convexity, make_game, maximal_rank_tsearch, normal_map,
                   p_upsilon_check, pl_condition_check, pmatrix_minors, pmatrix_oracle,
                   pmatrix_sampled, principal_submatrix_sigma_sweep, problem_ids, project,
                   uniform_pfunction_search, uniform_pmatrix_sampled, upsilon_build)
from vibox.certificates import (CONDITIONS, _det_stack, _principal_stacks, certify_problem,
                                principal_minor_det)
from vibox.model import EvaluationError

EXAMPLE_A = np.array([[1.0, 2.0], [3.0, 1.0]])


def free_box(m, blocks=None):
    return BoxSet(np.full(m, -np.inf), np.full(m, np.inf), blocks)


def opaque(p):
    """p with F behind a builtin Mapping of the same fn and rows: no exact rule
    reads its kind, so every checker samples it."""
    return VIProblem(Mapping(fn=p.mapping.fn, dim=p.dim, rows=p.mapping.rows), p.set, p.name)


def two_block_game():
    # n = 2 per player; own blocks 2I, cross blocks nilpotent with spectral norm 1
    q12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    return make_game((2, 2),
                     {(0, 0): 2.0 * np.eye(2), (1, 1): 2.0 * np.eye(2),
                      (0, 1): q12, (1, 0): q12.copy()},
                     (np.zeros(2), np.zeros(2)), free_box(4, blocks=(2, 2)))


class TestPmatrixMinors:
    def test_identity(self):
        rep = pmatrix_minors(np.eye(3))
        assert rep.verdict == "pass" and rep.margin == 1.0

    def test_example_matrix_fails_with_det(self):
        rep = pmatrix_minors(EXAMPLE_A)
        assert rep.verdict == "fail"
        assert rep.witness == {"index_set": [0, 1], "minor": -5.0}
        assert rep.margin == -5.0

    def test_tridiagonal_minors(self):
        rep = pmatrix_minors(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert rep.verdict == "pass"
        assert rep.margin == 2.0  # minors are {2, 2, 3}

    def test_budget(self):
        with pytest.raises(BudgetError):
            pmatrix_minors(np.eye(21))

    def test_nan_minor_is_inconclusive_and_an_infinite_one_keeps_its_sign(self):
        with np.errstate(over="ignore", invalid="ignore"):
            rep = pmatrix_minors([[1e200, 1e200], [1e200, 1e200]])  # inf - inf
            assert (rep.verdict, rep.margin, rep.witness) == ("inconclusive", None, None)
            assert rep.notes == "principal minor [0, 1] is NaN: its terms overflow"
            rep = pmatrix_minors([[1e200, -1e200], [1e200, 1e200]])  # +inf
            assert (rep.verdict, rep.margin) == ("pass", 1e200)
            rep = pmatrix_minors([[1e200, 1e200], [1e200, 1e-200]])  # 1 - inf
            assert (rep.verdict, rep.margin) == ("fail", -np.inf)
            assert rep.witness == {"index_set": [0, 1], "minor": -np.inf}
            a = [[-1.0, 0.0, 0.0], [0.0, 1e200, 1e200], [0.0, 1e200, 1e200]]
            rep = pmatrix_minors(a)  # the first minor, -1, decides; later NaNs move nothing
            assert (rep.verdict, rep.margin) == ("fail", -1e200)
            assert rep.witness == {"index_set": [0], "minor": -1.0}

    def test_nan_minor_leaves_every_minor_checker_inconclusive(self):
        vi = VIProblem(affine_mapping(np.full((2, 2), 1e200)), free_box(2))
        game = make_game((1, 1), {(i, j): [[1e200]] for i in range(2) for j in range(2)},
                         ([0.0], [0.0]), free_box(2, blocks=(1, 1)))  # Upsilon has inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            reports = (certify_problem(vi, ["pmatrix", "uniform-pmatrix"])[0]
                       + certify_problem(game, ["upsilon"])[0])
        assert [(r.condition, r.verdict, r.margin, r.witness) for r in reports] == [
            (c, "inconclusive", None, None) for c in ("pmatrix", "uniform-pmatrix", "upsilon")]
        assert {r.notes for r in reports} == {"principal minor [0, 1] is NaN: its terms overflow"}


class TestPmatrixOracle:
    def test_example_matrix_fails(self):
        rep = pmatrix_oracle(EXAMPLE_A, samples=5000, seed=0)
        assert rep.verdict == "fail"
        w = np.array(rep.witness["w"])
        assert np.max(w * (EXAMPLE_A @ w)) <= 0.0

    def test_identity_margin(self):
        rep = pmatrix_oracle(np.eye(4), samples=2000, seed=1)
        assert rep.verdict == "inconclusive"
        assert rep.margin >= 1.0 / 4.0

    def test_negative_diagonal(self):
        rep = pmatrix_oracle(np.diag([1.0, -1.0]), samples=1000, seed=2)
        assert rep.verdict == "fail"

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            pmatrix_oracle(np.eye(2), samples=10)


class TestUniformPmatrixSampled:
    def test_affine_collapse_matches_minors(self):
        p = get_problem("example-vi")
        for seed in (0, 99):
            rep = uniform_pmatrix_sampled(p, 10, seed, 10.0)
            assert rep.verdict == "fail"

    def test_identity_passes(self):
        p = VIProblem(affine_mapping(np.eye(2)), free_box(2))
        rep = uniform_pmatrix_sampled(p, 10, 0, 10.0)
        assert rep.verdict == "pass" and rep.margin == 1.0
        assert "sampled surrogate" in rep.notes

    def test_fail_witness_reverifies(self):
        p = get_problem("example-vi")
        rep = uniform_pmatrix_sampled(p, 10, 0, 10.0)
        idx = rep.witness["index_set"]
        a = EXAMPLE_A  # constant Jacobian
        minor = np.linalg.det(a[np.ix_(idx, idx)])
        assert abs(minor - rep.witness["minor"]) < 1e-12 and minor <= 0

    def test_margin_below_floor_fails(self):
        # every minor is positive, but the least one, 1e-11, is below ETA_FLOOR
        p = VIProblem(affine_mapping(np.diag([1e-11, 1.0])), BoxSet([-1.0] * 2, [1.0] * 2))
        rep = uniform_pmatrix_sampled(p, 10, 0, 10.0)
        assert rep.verdict == "fail" and rep.margin == 1e-11
        assert rep.witness["min_minor"] == 1e-11 < rep.witness["eta_floor"]
        assert len(rep.witness["tuple"]) == 2
        assert rep.witness["index_set"] == [0]
        assert certify_problem(p, ["uniform-pmatrix"], seed=0, samples=10)[0] == [rep]

    @given(hnp.arrays(np.float64, st.integers(1, 4).map(lambda m: (m, m)),
                      elements=st.integers(-2, 2)), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_equal_jacobians_give_the_report_of_mixing_rows(self, a, seed):
        # the same A with its zeros signed -0.0 at some points: the Jacobians are
        # not byte-equal, so the tuples are drawn and mixed, and the report must
        # be the one of byte-equal Jacobians, where no tuple is made
        signed = np.where(a == 0.0, -0.0, a)
        m = a.shape[0]
        box = BoxSet([-1.0] * m, [1.0] * m)
        mixed = VIProblem(Mapping(fn=lambda x: a @ x, dim=m,
                                  jac=lambda x: a if x[0] > 0.0 else signed), box)
        rep = uniform_pmatrix_sampled(VIProblem(affine_mapping(a), box), 12, seed, 10.0)
        assert uniform_pmatrix_sampled(mixed, 12, seed, 10.0) == rep
        assert rep.budget == {"samples": 12, "mixed_rows": 24}

    @given(st.integers(1, 5), st.integers(0, 7), st.floats(1e-14, 9e-11))
    @settings(max_examples=25, deadline=None)
    def test_below_floor_witness_names_the_first_least_minor(self, m, at, least):
        # a diagonal matrix whose least principal minor, least, is the one at
        # {at} alone (every larger set holding at has 2^k least); index_set
        # reverifies it
        diag = np.full(m, 2.0)
        diag[at % m] = least
        p = VIProblem(affine_mapping(np.diag(diag)), BoxSet([-1.0] * m, [1.0] * m))
        rep = uniform_pmatrix_sampled(p, 4, 0, 10.0)
        idx = rep.witness["index_set"]
        assert idx == [at % m]
        assert principal_minor_det(np.diag(diag)[np.ix_(idx, idx)]) == rep.witness["min_minor"]


@pytest.mark.parametrize("pid", ["spd-box", "example-vi"])  # a box, and the full space
@pytest.mark.parametrize("checker", [pmatrix_sampled, uniform_pmatrix_sampled,
                                     principal_submatrix_sigma_sweep, maximal_rank_tsearch])
def test_sampled_checkers_need_a_sample(checker, pid):
    with pytest.raises(ValueError, match="sample set is empty"):
        checker(get_problem(pid), 0, 0, 10.0)


@pytest.mark.parametrize("checker", [pmatrix_sampled, uniform_pmatrix_sampled,
                                     principal_submatrix_sigma_sweep, maximal_rank_tsearch])
def test_non_finite_sampled_jacobians_raise(checker):
    # F is finite everywhere; its Jacobian overflows past |x| = 1e154.
    p = VIProblem(Mapping(fn=lambda x: x, dim=2, jac=lambda x: np.diag(x * x + 1.0)),
                  free_box(2))
    assert checker(p, 30, 0, 10.0).verdict == "pass"
    with np.errstate(over="ignore"), pytest.raises(EvaluationError):
        checker(p, 30, 0, 1e200)


class TestSigmaSweep:
    def test_identity_margin_exact(self):
        p = VIProblem(affine_mapping(np.eye(3)), free_box(3))
        rep = principal_submatrix_sigma_sweep(p, 5, 0, 10.0)
        assert rep.verdict == "pass" and rep.margin == 1.0

    def test_example_matrix_margin_is_svd_min(self):
        p = get_problem("example-vi")
        rep = principal_submatrix_sigma_sweep(p, 5, 0, 10.0)
        expected = min(1.0, np.linalg.svd(EXAMPLE_A, compute_uv=False)[-1])
        assert rep.verdict == "pass"
        assert abs(rep.margin - expected) < 1e-12

    def test_singular_jacobian_fails(self):
        p = VIProblem(affine_mapping(np.ones((2, 2))), free_box(2))
        rep = principal_submatrix_sigma_sweep(p, 5, 0, 10.0, threshold=1e-10)
        assert rep.verdict == "fail" and rep.margin < 1e-10
        assert rep.witness is not None


class TestPfunctionSearch:
    def test_example_vi_fails_along_antidiagonal(self):
        rep = uniform_pfunction_search(opaque(get_problem("example-vi")), pairs=200, seed=42)
        assert rep.verdict == "fail"
        d = np.array(rep.witness["y"]) - np.array(rep.witness["x"])
        d /= np.linalg.norm(d)
        target = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(d - target), np.linalg.norm(d + target)) < 1e-3
        assert rep.witness["rho"] <= 0.0

    def test_identity_no_violation(self):
        p = opaque(VIProblem(affine_mapping(np.eye(3)), free_box(3)))
        rep = uniform_pfunction_search(p, pairs=150, seed=0)
        assert rep.verdict == "inconclusive"
        assert rep.margin >= 1.0 / 3.0 - 1e-12

    def test_constant_mapping_fails_with_zero_rho(self):
        p = opaque(VIProblem(affine_mapping(np.zeros((2, 2)), np.ones(2)), free_box(2)))
        rep = uniform_pfunction_search(p, pairs=100, seed=0)
        assert rep.verdict == "fail" and rep.witness["rho"] == 0.0

    def test_witness_reverifies(self):
        p = opaque(get_problem("example-vi"))
        rep = uniform_pfunction_search(p, pairs=200, seed=7)
        x = np.array(rep.witness["x"])
        y = np.array(rep.witness["y"])
        rho = np.max((p.F(x) - p.F(y)) * (x - y)) / np.sum((x - y) ** 2)
        assert abs(rho - rep.witness["rho"]) < 1e-12 and rho <= 0

    def test_pair_floor(self):
        with pytest.raises(ValueError):
            uniform_pfunction_search(opaque(get_problem("example-vi")), pairs=10)


class TestBlockPfunction:
    def test_single_block_is_monotonicity_and_identity_margin_one(self):
        p = opaque(VIProblem(affine_mapping(np.eye(2)), free_box(2)))
        rep = block_pfunction_search(p, pairs=100, seed=0)
        assert rep.verdict == "inconclusive"
        assert rep.margin == 1.0

    def test_rotation_fails_single_block(self):
        # skew mapping: <F(x)-F(y), x-y> = 0 on every pair
        p = opaque(VIProblem(affine_mapping([[0.0, -1.0], [1.0, 0.0]]), free_box(2)))
        rep = block_pfunction_search(p, pairs=100, seed=0)
        assert rep.verdict == "fail" and rep.witness["rho"] == 0.0

    def test_coordinate_blocks_match_coordinate_test(self):
        p = opaque(get_problem("example-game"))
        rep_block = block_pfunction_search(p, pairs=200, seed=42)  # blocks (1, 1)
        rep_coord = uniform_pfunction_search(p, pairs=200, seed=42)
        assert rep_block.verdict == rep_coord.verdict == "fail"
        assert rep_block.witness == rep_coord.witness


class TestGrowthFit:
    def test_affine_spectral_norm(self):
        p = get_problem("example-vi")
        rep = growth_l0lp_fit(p, pairs=200, seed=3)
        assert rep.verdict == "pass"
        assert rep.metrics["Lp"] <= np.linalg.norm(EXAMPLE_A, 2) + 1e-9
        assert rep.metrics["L0"] == 0.0
        assert rep.metrics["coverage"] == 1.0

    def test_identity(self):
        p = VIProblem(affine_mapping(np.eye(2)), free_box(2))
        rep = growth_l0lp_fit(p, pairs=150, seed=0)
        assert rep.metrics["Lp"] == 1.0 and rep.metrics["L0"] == 0.0 and rep.metrics["p"] == 1.0

    def test_cubic_on_box(self):
        from vibox import builtin_mapping
        p = VIProblem(builtin_mapping("cubic", 2), BoxSet([-2.0] * 2, [2.0] * 2))
        rep = growth_l0lp_fit(p, pairs=150, seed=1)
        assert rep.verdict == "pass" and np.isfinite(rep.metrics["Lp"])
        assert rep.metrics["coverage"] == 1.0


@pytest.mark.parametrize("checker, pair_fn", [(uniform_pfunction_search, "_pair_stream"),
                                              (block_pfunction_search, "_pair_stream"),
                                              (growth_l0lp_fit, "_pairs")])
def test_pair_checkers_raise_the_first_error_in_pair_order(checker, pair_fn, monkeypatch):
    # F is non-finite wherever a coordinate exceeds 0.5, so pairs fail at
    # different coordinates; the error is that of the first failing point
    # of x0, y0, x1, y1, ...
    p = VIProblem(Mapping(fn=lambda x: np.where(x > 0.5, np.nan, x), dim=3), free_box(3))
    ends = []
    build = getattr(certificates, pair_fn)
    monkeypatch.setattr(certificates, pair_fn,
                        lambda *a: ends.append(build(*a)) or ends[-1])
    with pytest.raises(EvaluationError) as exc:
        checker(p, pairs=120, seed=4)
    xs, ys = ends[0]
    with pytest.raises(EvaluationError) as first:
        for x, y in zip(xs, ys):
            p.F(x)
            p.F(y)
    assert str(exc.value) == str(first.value)


@pytest.mark.parametrize("checker", [uniform_pfunction_search, block_pfunction_search,
                                     growth_l0lp_fit])
@pytest.mark.parametrize("pairs", [-3, 0, 99])
def test_pair_checkers_need_100_pairs(checker, pairs):
    with pytest.raises(ValueError, match="need at least 100 pairs"):
        checker(get_problem("example-vi"), pairs=pairs)


@pytest.mark.parametrize("checker", [uniform_pfunction_search, block_pfunction_search,
                                     growth_l0lp_fit])
def test_pair_checkers_inconclusive_without_a_pair(checker):
    # a one-point box has no two points 1e-12 apart
    p = VIProblem(affine_mapping([[2.0, 0.5], [0.0, 1.0]]), BoxSet([1.0, 2.0], [1.0, 2.0]))
    rep = checker(p, pairs=120, seed=3, radius=10.0)
    assert rep.verdict == "inconclusive" and rep.margin is None and rep.witness is None
    assert rep.budget == {"pairs": 0} and rep.seed == 3 and "no two points" in rep.notes


def test_growth_on_a_wide_box_says_its_steps_round_back():
    # K has many points far apart, but every x + r d with r <= 8 rounds to x.
    p = opaque(VIProblem(affine_mapping(np.eye(1)), BoxSet([-1e160], [1e160])))
    rep = growth_l0lp_fit(p, pairs=120, seed=3)
    assert rep.verdict == "inconclusive" and rep.budget == {"pairs": 0}
    assert rep.notes == certificates.NO_GRID_PAIR_NOTE and "no two points" not in rep.notes


class TestUpsilon:
    def test_example_game(self):
        g = get_problem("example-game")
        np.testing.assert_array_equal(upsilon_build(g), [[1.0, -2.0], [-3.0, 1.0]])

    def test_decoupled_identity(self):
        g = make_game((1, 1), {(0, 0): [[1.0]], (1, 1): [[1.0]]}, ([0.0], [0.0]),
                      free_box(2, blocks=(1, 1)))
        np.testing.assert_array_equal(upsilon_build(g), np.eye(2))

    def test_two_block_game(self):
        np.testing.assert_array_equal(upsilon_build(two_block_game()),
                                      [[2.0, -1.0], [-1.0, 2.0]])

    def test_nonuniform_blocks_rejected(self):
        from vibox import ConfigurationError
        g = make_game((1, 2), {(0, 0): [[1.0]], (1, 1): np.eye(2)},
                      ([0.0], np.zeros(2)), free_box(3, blocks=(1, 2)))
        with pytest.raises(ConfigurationError):
            upsilon_build(g)


# The per-subset enumeration the stacked engine replaced, kept as its oracle.

def oracle_index_sets(m):
    for r in range(1, m + 1):
        yield from combinations(range(m), r)


def oracle_det(a):
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if n == 3:
        return float(a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                     - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                     + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))
    return float(np.linalg.det(a))


def oracle_minors(a):
    return [(idx, oracle_det(a[np.ix_(idx, idx)])) for idx in oracle_index_sets(a.shape[0])]


def oracle_minor_scan(a):
    min_minor, first_bad = np.inf, None
    for idx, d in oracle_minors(a):
        if d < min_minor:
            min_minor = d
        if d <= 0.0 and first_bad is None:
            first_bad = idx
    return min_minor, first_bad


def oracle_sigma_scan(a):
    margin, arg = np.inf, None
    for idx in oracle_index_sets(a.shape[0]):
        s = float(np.linalg.svd(a[np.ix_(idx, idx)], compute_uv=False)[-1])
        if s < margin:
            margin, arg = s, idx
    return margin, arg


def minor_scan(a):
    """(least minor, first index set whose minor is <= 0 or None) by _scan."""
    least, _, first_bad = certificates._scan(a[None], _det_stack, 0.0)
    return least, first_bad and first_bad[1]


def sigma_scan(a):
    """(least sigma_min, first index set attaining it) by the sweep's _sigma_scan."""
    least, arg = certificates._sigma_scan(a[None])
    return least, arg and arg[1]


def outcome(fn, a):
    """fn(a) with floats as float.hex, or the type of the exception it raises."""
    try:
        value, idx = fn(a)
    except Exception as e:  # the type is what is compared
        return type(e)
    return float(value).hex(), idx


@st.composite
def square_matrices(draw):
    """m = 1..12: plain floats, integer-entry singular matrices, matrices full
    of signed zeros, and matrices with NaN or inf entries."""
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["float", "integer-singular", "signed-zero", "nonfinite"]))
    if kind == "float":
        return draw(hnp.arrays(np.float64, (m, m), elements=st.floats(-8, 8)))
    if kind == "signed-zero":
        return draw(hnp.arrays(np.float64, (m, m),
                               elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])))
    if kind == "nonfinite":
        a = draw(hnp.arrays(np.float64, (m, m), elements=st.floats(-8, 8)))
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            a[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return a
    rows = draw(hnp.arrays(np.float64, (m - 1, m), elements=st.integers(-3, 3)))
    coef = draw(hnp.arrays(np.float64, m - 1, elements=st.integers(-2, 2)))
    k = draw(st.integers(0, m - 1))
    return np.insert(rows, k, coef @ rows, axis=0)


@st.composite
def skip_edge_matrices(draw):
    """m = 2..8, at the edges of sigma-sweep's skip test: A 2^k with |k| <=
    1000, A with row i scaled by 2^k_i, |k_i| <= 600 (A strictly diagonally
    dominant or not), and near ties 3I + eps B, eps in [1e-12, 1e-3] and B
    in [-1, 1]."""
    m = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["scaled", "row-scaled", "near-tie"]))
    if kind == "near-tie":
        b = draw(hnp.arrays(np.float64, (m, m), elements=st.floats(-1, 1)))
        return 3.0 * np.eye(m) + draw(st.floats(1e-12, 1e-3)) * b
    a = draw(hnp.arrays(np.float64, (m, m), elements=st.floats(-8, 8)))
    if draw(st.booleans()):
        np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    if kind == "scaled":
        return np.ldexp(a, draw(st.integers(-1000, 1000)))
    return np.ldexp(a, draw(hnp.arrays(np.int64, (m, 1), elements=st.integers(-600, 600))))


@st.composite
def matrix_stacks(draw):
    """n = 1..4 matrices of order m = 1..6: floats, entries in {-2, ..., 2}
    (exact ties within and across matrices), or an earlier matrix again."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    mats = []
    for _ in range(n):
        kind = draw(st.sampled_from(["float", "integer", "again"]))
        if kind == "again" and mats:
            mats.append(mats[draw(st.integers(0, len(mats) - 1))])
        elif kind == "integer":
            mats.append(draw(hnp.arrays(np.float64, (m, m), elements=st.integers(-2, 2))))
        else:
            mats.append(draw(hnp.arrays(np.float64, (m, m), elements=st.floats(-8, 8))))
    return np.array(mats)


def oracle_stack_scan(oracle, a):
    """(least value, (k, first index set attaining it)) of oracle over a[0],
    a[1], ... in turn, by a strict-< running minimum."""
    least, arg = np.inf, None
    for k, ak in enumerate(a):
        v, idx = oracle(ak)
        if v < least:
            least, arg = v, (k, idx)
    return least, arg


def svd_rows(fn, *args):
    """(fn(*args), the number of matrices that reach np.linalg.svd)."""
    rows = []
    svd = np.linalg.svd

    def counted(s, **kwargs):
        rows.append(len(s) if s.ndim == 3 else 1)
        return svd(s, **kwargs)
    with mock.patch.object(np.linalg, "svd", counted):
        return fn(*args), sum(rows)


# A stack budget this small splits most orders into several chunks.
TINY_STACK = mock.patch.object(certificates, "_STACK_BYTES", 1 << 12)


class TestMinorEngine:
    @settings(max_examples=80)
    @given(square_matrices())
    def test_minors_match_oracle_bit_for_bit(self, a):
        def engine_minors():
            return [(tuple(int(i) for i in row), float(d).hex())
                    for idx, s in _principal_stacks(a[None]) for row, d in zip(idx, _det_stack(s))]

        with np.errstate(all="ignore"):
            expected = [(idx, float(d).hex()) for idx, d in oracle_minors(a)]
            assert engine_minors() == expected
            with TINY_STACK:
                assert engine_minors() == expected

    @settings(max_examples=80)
    @given(square_matrices())
    def test_minor_scan_matches_oracle(self, a):
        with np.errstate(all="ignore"):
            expected = outcome(oracle_minor_scan, a)
            assert outcome(minor_scan, a) == expected
            with TINY_STACK:
                assert outcome(minor_scan, a) == expected

    @settings(max_examples=80)
    @given(square_matrices())
    def test_sigma_scan_matches_oracle(self, a):
        with np.errstate(all="ignore"):
            expected = outcome(oracle_sigma_scan, a)
            assert outcome(sigma_scan, a) == expected
            with TINY_STACK:
                assert outcome(sigma_scan, a) == expected

    @settings(max_examples=200)
    @given(skip_edge_matrices())
    def test_sigma_scan_matches_oracle_at_the_skip_edges(self, a):
        with np.errstate(all="ignore"):
            expected = outcome(oracle_sigma_scan, a)
            assert outcome(sigma_scan, a) == expected
            with TINY_STACK:
                assert outcome(sigma_scan, a) == expected

    def test_most_submatrices_of_a_dominant_matrix_skip_the_svd(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1.0, 1.0, (10, 10))
        np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, 10))
        result, rows = svd_rows(sigma_scan, a)
        assert result == oracle_sigma_scan(a)
        assert rows < 0.1 * 1023

    def test_ties_keep_the_first_index_set(self):
        # every sigma_min is 1 and every minor 0 or 1: the first subset wins
        assert sigma_scan(np.eye(6)) == (1.0, (0,))
        assert minor_scan(np.zeros((5, 5))) == (0.0, (0,))
        signed = np.diag([1.0, -0.0, 0.0])
        assert outcome(minor_scan, signed) == ((-0.0).hex(), (1,))

    @settings(max_examples=150)
    @given(matrix_stacks())
    def test_a_stack_scans_as_its_matrices_in_turn(self, a):
        # orders run across the stack, yet the least value and its place are
        # those of scanning a[0], a[1], ... one after the other
        expected = oracle_stack_scan(oracle_sigma_scan, a)
        expected = float(expected[0]).hex(), expected[1]
        for stack in (contextlib.nullcontext(), TINY_STACK):
            with stack:
                least, arg = certificates._sigma_scan(a)
                assert (float(least).hex(), arg) == expected

    def test_a_tie_goes_to_the_earlier_matrix(self):
        # a[0] reaches its least sigma_min v at order 2, a[1] at order 1: the
        # scan meets a[1]'s first, yet a[0]'s place is first
        a0 = np.array([[1.0, 1.0], [0.0, 1.0]])
        v = float(np.linalg.svd(a0, compute_uv=False)[-1])
        a1 = np.diag([v, 5.0])
        assert certificates._sigma_scan(np.array([a0, a1])) == (v, (0, (0, 1)))
        assert certificates._sigma_scan(np.array([a1, a0])) == (v, (0, (0,)))

    def test_the_first_bad_place_is_in_the_earliest_matrix(self):
        # a[0]'s first minor <= 0 has order 2, a[1]'s order 1
        a = np.array([[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]]])
        assert certificates._scan(a, _det_stack, 0.0) == (-3.0, (0, (0, 1)), (0, (0, 1)))
        assert certificates._scan(a[::-1], _det_stack, 0.0) == (-3.0, (1, (0, 1)), (0, (0,)))

    def test_a_floor_and_a_mask_are_not_combined(self):
        # a masked submatrix is never compared with the floor
        with pytest.raises(ValueError, match="floor"):
            certificates._scan(np.eye(2)[None], _det_stack, 0.0,
                               above=lambda s, v: np.ones(len(s), dtype=bool))

    def test_budget_dimension_stacks_stay_small(self):
        rows = certificates._STACK_BYTES // (8 * 10 * 10)
        chunks = certificates._subset_chunks(certificates.MINOR_BUDGET_DIM, 10)
        first = next(chunks)
        assert first.shape == (rows, 10)
        assert [tuple(r) for r in first[:2]] == [tuple(range(10)), (*range(9), 10)]


def oracle_minor_loop(mats):
    """(least minor, first (k, index set) whose minor is <= 0 or None) of
    mats[0], mats[1], ... scanned one after the other, by a strict-< running
    minimum."""
    least, first_bad = np.inf, None
    for k, a in enumerate(mats):
        v, bad = oracle_minor_scan(a)
        if v < least:
            least = v
        if first_bad is None and bad is not None:
            first_bad = k, bad
    return least, first_bad


@settings(max_examples=60, deadline=None)
@given(matrix_stacks(), st.integers(0, 99))
def test_sampled_minor_checkers_scan_as_a_loop_over_their_matrices(a, seed):
    # The Jacobian at sample k is a[k]: the one scan of the whole stack gives
    # the verdict, the first failing place and the least minor of scanning the
    # Jacobians, or the mixed-row matrices, one by one.
    n, m = a.shape[:2]
    box = BoxSet([-1.0] * m, [1.0] * m)
    pts = draw_samples(box, n, seed, 10.0)
    p = VIProblem(Mapping(fn=lambda x: x, dim=m, jac=lambda x: a[
        int(np.flatnonzero((pts == x).all(axis=1))[0])]), box)
    tuples = np.zeros((1, m), dtype=int)
    if n > 1:
        rng = np.random.default_rng(seed)
        tuples = np.array([np.full(m, k) for k in range(n)]
                          + [rng.integers(0, n, size=m) for _ in range(n)])
    for stack in (contextlib.nullcontext(), TINY_STACK):
        with stack:
            rep = pmatrix_sampled(p, n, seed, 10.0)
            least, bad = oracle_minor_loop(a)
            assert rep.verdict == ("pass" if bad is None else "fail")
            assert rep.margin.hex() == float(least).hex()
            if bad is not None:
                assert (rep.witness["point"], rep.witness["index_set"]) == (
                    pts[bad[0]].tolist(), list(bad[1]))
            rep = uniform_pmatrix_sampled(p, n, seed, 10.0)
            least, bad = oracle_minor_loop([a[t, np.arange(m)] for t in tuples])
            assert rep.verdict == ("pass" if bad is None and least >= 1e-10 else "fail")
            assert rep.margin.hex() == float(least).hex()
            if bad is not None:
                assert (rep.witness["tuple"], rep.witness["index_set"]) == (
                    tuples[bad[0]].tolist(), list(bad[1]))


def _coupled_cubic(m):
    """A builtin-kind F = A x + x^3 / 10 on [-2, 2]^m, A = 3I + uniform [-1, 1]."""
    a = 3.0 * np.eye(m) + np.random.default_rng(8).uniform(-1.0, 1.0, (m, m))
    return VIProblem(Mapping(fn=lambda x: a @ x + 0.1 * x ** 3, dim=m,
                             jac=lambda x: a + np.diag(0.3 * x ** 2)),
                     BoxSet([-2.0] * m, [2.0] * m))


@pytest.mark.parametrize("p", [_coupled_cubic(6),
                               VIProblem(builtin_mapping("cubic-plus-linear", 6),
                                         BoxSet([-2.0] * 6, [2.0] * 6))],
                         ids=["coupled-cubic", "cubic-plus-linear"])
def test_sigma_sweep_over_samples_is_each_sample_scanned_alone(p):
    # The 30 Jacobians are scanned as one stack, each order pruned against the
    # lower orders of every sample; the report is still that of scanning each
    # alone.
    pts = draw_samples(p.set, 30, 3, 10.0)
    margin, arg, alone = np.inf, None, 0
    for k, x in enumerate(pts):
        (s, idx), rows = svd_rows(sigma_scan, p.mapping.jac(x))
        assert (s, idx) == oracle_sigma_scan(p.mapping.jac(x))
        alone += rows
        if s < margin:
            margin, arg = s, (k, idx)
    rep, rows = svd_rows(principal_submatrix_sigma_sweep, p, 30, 3, 10.0)
    assert rep.margin.hex() == margin.hex()
    assert rep.metrics == {"argmin_point": pts[arg[0]].tolist(),
                           "argmin_index_set": list(arg[1])}
    assert rows < alone


class TestDistinctJacobianScan:
    """An affine problem's constant Jacobian is one matrix, scanned once."""

    def test_affine_jacobian_is_scanned_once(self):
        p = VIProblem(affine_mapping(EXAMPLE_A), BoxSet([0.0, 0.0], [1.0, 1.0]))
        with mock.patch.object(certificates, "_scan", wraps=certificates._scan) as scan:
            uniform_pmatrix_sampled(p, 10, 0, 10.0)
        assert scan.call_count == 1


class TestPUpsilonCheck:
    def test_unequal_blocks_inconclusive(self):
        g = make_game((1, 2), {(0, 0): [[1.0]], (1, 1): np.eye(2)},
                      ([0.0], np.zeros(2)), free_box(3, blocks=(1, 2)))
        rep = p_upsilon_check(g)
        assert rep.verdict == "inconclusive" and rep.margin is None
        assert "equal dimension" in rep.notes

    def test_example_game_fails(self):
        rep = p_upsilon_check(get_problem("example-game"))
        assert rep.verdict == "fail"
        assert rep.witness["minor"] == -5.0
        assert rep.metrics["upsilon"] == [[1.0, -2.0], [-3.0, 1.0]]

    def test_decoupled_identity_passes(self):
        g = make_game((1, 1), {(0, 0): [[1.0]], (1, 1): [[1.0]]}, ([0.0], [0.0]),
                      free_box(2, blocks=(1, 1)))
        assert p_upsilon_check(g).verdict == "pass"

    def test_two_block_game_passes_with_margin(self):
        rep = p_upsilon_check(two_block_game())
        assert rep.verdict == "pass" and rep.margin == 2.0  # minors {2, 2, 3}

    def test_own_block_not_positive_definite_fails(self):
        g = make_game((1, 1), {(0, 0): [[-1.0]], (1, 1): [[1.0]]}, ([0.0], [0.0]),
                      free_box(2, blocks=(1, 1)))
        rep = p_upsilon_check(g)
        assert rep.verdict == "fail" and rep.margin == -1.0
        assert rep.witness == {"player": 0, "lambda_min": -1.0, "clause": "own-block-pd"}


def exact_det(a):
    """det of an integer-valued matrix by elimination over the rationals."""
    rows = [[Fraction(int(v)) for v in row] for row in a]
    det = Fraction(1)
    for c in range(len(rows)):
        piv = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def vertex_signs_agree(a, box):
    """The oracle: the signs of det A[S, S] over free <= S <= free + bounded,
    with free the coordinates with both bounds infinite and bounded those
    with lo < hi and some finite bound, are all nonzero and equal."""
    free = [i for i in range(box.dim) if np.isinf(box.lo[i]) and np.isinf(box.hi[i])]
    bounded = [i for i in range(box.dim) if box.lo[i] < box.hi[i] and i not in free]
    signs = {np.sign(exact_det(a[np.ix_(s, s)])) for r in range(len(bounded) + 1)
             for t in combinations(bounded, r) for s in [sorted(free + list(t))]}
    return signs == {1} or signs == {-1}


def element(j, on, k=None, theta=0.0):
    """I - D + J D with D = 1 on the index set on, theta at k, 0 elsewhere."""
    d = np.zeros(j.shape[0])
    d[on] = 1.0
    if k is not None:
        d[k] = theta
    return np.eye(d.size) - np.diag(d) + j * d


def recheck_maximal_rank_witness(p, rep, tol=1e-8):
    """A maximal-rank fail witness names a singular element of the normal
    map's generalized Jacobian at its point v, where F_nor(v) != 0: v lies on
    the face of the edge (S, k), and bisecting D_k between the vertex minors
    det J[S, S] and det J[S + k, S + k] reaches an element with sigma_min ~ 0."""
    w = rep.witness
    s, k, v = w["index_set"], w["k"], np.array(w["point"])
    lo, hi = p.set.lo, p.set.hi
    inside = (v > lo) & (v < hi) & (lo < hi)
    assert inside[s].all() and np.count_nonzero(inside) == len(s)
    residual = normal_map(p, v).norm
    assert residual == w["residual"] > tol
    j = certificates.jacobian(p, project(p.set, v))
    if k is None:  # J[S, S] itself is singular
        assert w["minors"] == [] and rep.margin < tol
        assert np.linalg.svd(j[np.ix_(s, s)], compute_uv=False)[-1] < tol
        return
    assert v[k] in (lo[k], hi[k]) and lo[k] < hi[k]
    ends = [s, sorted(s + [k])]
    assert w["minors"] == [certificates.principal_minor_det(j[np.ix_(e, e)]) for e in ends]
    scale = max(1.0, float(np.abs(j).max()))
    if np.sign(w["minors"][0]) * np.sign(w["minors"][1]) < 0:
        a, b = 0.0, 1.0  # det is (1 - theta) * minors[0] + theta * minors[1]
        for _ in range(60):
            mid = (a + b) / 2.0
            same = np.sign(np.linalg.det(element(j, s, k, mid))) == np.sign(w["minors"][0])
            a, b = (mid, b) if same else (a, mid)
        theta = a
    else:  # a minor that counts as 0: its vertex is the singular element
        theta = float(abs(w["minors"][1]) < abs(w["minors"][0]))
    sigma = np.linalg.svd(element(j, s, k, theta), compute_uv=False)[-1]
    assert sigma <= 1e-9 * scale, sigma


@st.composite
def integer_affine_problems(draw):
    """Integer A and b with m <= 6 on a box whose coordinates are free,
    bounded below, bounded above, bounded on both sides or fixed."""
    m = draw(st.integers(1, 6))
    a = draw(hnp.arrays(np.float64, (m, m), elements=st.integers(-4, 4)))
    a += np.diag(draw(hnp.arrays(np.float64, m, elements=st.integers(0, 6))))
    b = draw(hnp.arrays(np.float64, m, elements=st.integers(-3, 3)))
    kinds = draw(st.lists(st.sampled_from(["free", "lo", "hi", "both", "fixed"]),
                          min_size=m, max_size=m))
    lo = [-1.0 if c in ("lo", "both", "fixed") else -np.inf for c in kinds]
    hi = [2.0 if c in ("hi", "both") else -1.0 if c == "fixed" else np.inf for c in kinds]
    return VIProblem(affine_mapping(a, b), BoxSet(lo, hi))


class TestMaximalRankTsearch:
    def test_identity_on_unit_cube_passes_exactly(self):
        p = VIProblem(affine_mapping(np.eye(3)), BoxSet([0.0] * 3, [1.0] * 3))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "pass" and rep.margin == 1.0 and rep.metrics == {}
        assert rep.seed is None and rep.budget == {"vertices": 8}
        assert "exact" in rep.notes and certificates.SAMPLED_NOTE not in rep.notes

    def test_full_space_degenerate_path(self):
        # Every coordinate free: the only element is A, and the margin its sigma_min.
        p = get_problem("example-vi")
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "pass" and rep.budget == {"vertices": 1}
        assert rep.margin == np.linalg.svd(EXAMPLE_A, compute_uv=False)[-1]

    def test_singular_jacobian_hypothesis_fails(self):
        p = VIProblem(affine_mapping(np.ones((2, 2))), BoxSet([0.0] * 2, [1.0] * 2))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "fail"
        assert rep.witness["index_set"] == [0] and rep.witness["k"] == 1
        assert rep.witness["minors"] == [1.0, 0.0]
        recheck_maximal_rank_witness(p, rep)

    def test_vanishing_minor_hypothesis_fails(self):
        # A is nonsingular, but its 1 x 1 principal minor A[1, 1] is 0
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        p = VIProblem(affine_mapping(a), BoxSet([-1.0] * 2, [1.0] * 2))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        # the margin is the least minor of A with its rows scaled to norm 1
        assert rep.verdict == "fail" and rep.margin == pytest.approx(-1.0 / np.sqrt(2.0))
        w = rep.witness
        assert w["index_set"] == [] and w["k"] == 1 and w["minors"] == [1.0, 0.0]
        assert w["point"] == [-2.0, -1.0]
        recheck_maximal_rank_witness(p, rep)

    def test_singular_free_block_fails_at_a_vertex(self):
        p = VIProblem(affine_mapping(np.ones((2, 2)), [1.0, 0.0]), free_box(2))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "fail" and rep.witness["k"] is None
        assert rep.witness["index_set"] == [0, 1] and rep.margin < 1e-8
        recheck_maximal_rank_witness(p, rep)

    def test_planted_minor_fails_on_its_edge(self):
        # The planted negative minor at {2, 5}: D = 1 on {2, 6} (6 is free) and
        # D_5 in (0, 1) give a singular element.
        from test_golden import affine_cases

        p = affine_cases()["affine-m8-planted"]
        rep = maximal_rank_tsearch(p, 30, 42, 10.0)
        assert rep.verdict == "fail"
        assert rep.witness["index_set"] == [2, 6] and rep.witness["k"] == 5
        recheck_maximal_rank_witness(p, rep)

    def test_fixed_coordinates_never_enter_s(self):
        # A[1, 1] < 0, but coordinate 1 is fixed: D_1 = 0 on every face.
        p = VIProblem(affine_mapping(np.diag([1.0, -1.0])), BoxSet([0.0, 1.0], [1.0, 1.0]))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "pass" and rep.budget == {"vertices": 2}

    def test_zero_of_the_normal_map_is_exempt(self):
        # F = 0 on [0, 1]: the element at D_0 = 1 is 0, but its face is {0, 1},
        # where F_nor vanishes.
        p = VIProblem(affine_mapping(np.zeros((1, 1))), BoxSet([0.0], [1.0]))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "inconclusive" and rep.witness is None
        assert "exempt" in rep.notes

    def test_a_nan_schur_complement_is_a_bad_minor(self):
        # A[Fr, Fr]^-1 A[Fr, B] overflows to inf and the complement reads NaN,
        # which the minor scan reads as -0.0, as it does for every minor: the
        # edge ({0}, 1) is found, where det A[{0}] = 1e-8 and det A = -1e-8
        p = VIProblem(affine_mapping(np.array([[1e-8, 1e308], [0.0, -1.0]]), np.ones(2)),
                      BoxSet([-np.inf, 0.0], [np.inf, 1.0]))
        with np.errstate(invalid="ignore"):
            rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "fail"
        w = rep.witness
        assert (w["index_set"], w["k"], w["minors"]) == ([0], 1, [1e-8, -1e-8])

    def test_budget_counts_bounded_coordinates_only(self):
        m = certificates.MINOR_BUDGET_DIM + 1
        lo = np.r_[0.0, np.full(m - 1, -np.inf)]
        rep = maximal_rank_tsearch(VIProblem(affine_mapping(np.eye(m)),
                                             BoxSet(lo, np.full(m, np.inf))), 1, 0, 10.0)
        assert rep.verdict == "pass" and rep.budget == {"vertices": 2}
        with pytest.raises(BudgetError):
            maximal_rank_tsearch(VIProblem(affine_mapping(np.eye(m)),
                                           BoxSet(np.zeros(m), np.ones(m))), 1, 0, 10.0)

    def test_builtin_mapping_is_sampled_on_each_face(self):
        rep = maximal_rank_tsearch(get_problem("cubic-free"), 10, 5, 10.0)
        assert rep.verdict == "pass" and rep.seed == 5 and rep.budget == {"samples": 10}
        assert certificates.SAMPLED_NOTE in rep.notes

    def test_builtin_mapping_fails_at_a_sample(self):
        # The affine map of test_vanishing_minor_hypothesis_fails, as a builtin.
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        p = VIProblem(Mapping(fn=lambda x: a @ x, dim=2, jac=lambda x: a),
                      BoxSet([-1.0] * 2, [1.0] * 2))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert rep.verdict == "fail" and rep.seed == 5
        pts = boundary_sample_set(p.set, 10, 5, 10.0)
        assert any(np.array_equal(rep.witness["point"], x) for x in pts)
        recheck_maximal_rank_witness(p, rep)

    @pytest.mark.parametrize("scale", [1e160, 1e305, 1e-170])
    def test_rows_whose_squares_overflow_or_underflow_keep_their_scale(self, scale):
        # A positive diagonal is a P-matrix at any scale; the squares of 1e160
        # overflow and those of 1e-170 underflow in a plain row norm.
        p = VIProblem(affine_mapping(np.diag([scale, 1.0])), BoxSet([0.0, -1.0], [5.0, 1.0]))
        rep = maximal_rank_tsearch(p, 10, 5, 10.0)
        assert (rep.verdict, rep.margin) == ("pass", 1.0)

    def test_a_row_whose_norm_overflows_is_not_zeroed(self):
        # A P-matrix whose first row has norm 2.1e308, past the largest double:
        # its rows divided by their norms have minors 1/sqrt(2), 2/sqrt(5), 1/sqrt(10).
        p = VIProblem(affine_mapping([[1.5e308, 1.5e308], [1.0, 2.0]]),
                      BoxSet([0.0, 0.0], [1.0, 1.0]))
        rep = maximal_rank_tsearch(p, 1, 0, 10.0)
        assert rep.verdict == "pass" and rep.margin == pytest.approx(1.0 / np.sqrt(10.0))

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 5).map(lambda m: (m, m)),
                      elements=st.integers(-4, 4)), st.data())
    def test_pass_is_kept_under_power_of_two_row_scaling(self, a, data):
        # Scaling row i of A by 2^k_i keeps the sign of every principal minor,
        # so on a box with every bound finite whether A passes cannot change,
        # even where the squares of a row's terms overflow or underflow (|k_i|
        # past about 510, drawn as often as the rest).
        m = a.shape[0]
        a += np.diag(data.draw(hnp.arrays(np.float64, m, elements=st.integers(0, 12))))
        k = data.draw(hnp.arrays(np.int64, m, elements=st.integers(-520, -500)
                                 | st.integers(-520, 520) | st.integers(500, 520)))
        fixed = data.draw(hnp.arrays(bool, m))
        box = BoxSet(np.full(m, -1.0), np.where(fixed, -1.0, 2.0))
        with np.errstate(over="ignore"):  # the residual at a fail's point may overflow
            passes = [maximal_rank_tsearch(VIProblem(affine_mapping(b), box), 1, 0,
                                           10.0).verdict == "pass"
                      for b in (a, np.ldexp(a, k[:, None]))]
        assert passes[0] == passes[1]

    @given(hnp.arrays(np.float64, st.integers(1, 4).map(lambda m: (m, m)),
                      elements=st.floats(-8.0, 8.0, allow_subnormal=False)),
           hnp.arrays(np.int64, 4, elements=st.integers(-520, -500) | st.integers(-520, 520)
                      | st.integers(500, 520)),
           hnp.arrays(bool, 4))
    @example(np.array([[5.164, -0.146], [0.245, 7.233]]), np.array([-513, -513, 0, 0]),
             np.zeros(4, dtype=bool))  # row norms in the band where some squares are subnormal
    def test_report_is_kept_bit_for_bit_under_power_of_two_row_scaling(self, a, k, fixed):
        # With every coordinate bounded, the rows of the Schur complement are
        # those of A, and scaling them by powers of two is exact: the scaled
        # rows divided by their norms are the same bits.  b dwarfs A x on the
        # box, so a fail's residual is far above tol (or overflows) on both sides.
        m = a.shape[0]
        scaled = np.ldexp(a, k[:m, None])
        assume(((a == 0.0) | (np.abs(scaled) >= np.finfo(float).tiny)).all())
        box = BoxSet(np.full(m, -1.0), np.where(fixed[:m], -1.0, 2.0))
        with np.errstate(over="ignore"):
            reports = [maximal_rank_tsearch(VIProblem(affine_mapping(b, np.full(m, 1e200)), box),
                                            1, 0, 10.0) for b in (a, scaled)]
        keys = [(rep.verdict, rep.margin.hex(), rep.witness and rep.witness["index_set"],
                 rep.witness and rep.witness["k"]) for rep in reports]
        assert keys[0] == keys[1]

    @given(integer_affine_problems())
    def test_exact_rule_agrees_with_vertex_enumeration(self, p):
        rep = maximal_rank_tsearch(p, 1, 0, 10.0)
        if vertex_signs_agree(p.mapping.data["A"], p.set):
            assert rep.verdict == "pass"
        elif rep.verdict == "fail":
            recheck_maximal_rank_witness(p, rep)
        else:  # the singular elements lie where F_nor vanishes
            assert rep.verdict == "inconclusive"
            lo, hi = p.set.lo, p.set.hi
            free = np.isinf(lo) & np.isinf(hi)
            _, (s, k) = certificates._face_edge(p.mapping.data["A"], free,
                                                (lo < hi) & ~free, 1e-8)
            assert normal_map(p, certificates._face_point(p.set, s, k)).norm <= 1e-8

    @settings(max_examples=150)
    @given(integer_affine_problems())
    def test_every_fail_has_minors_that_differ_in_sign_or_include_0(self, p):
        assume(p.dim <= 5)
        rep = maximal_rank_tsearch(p, 1, 0, 10.0)
        if rep.verdict == "fail" and rep.witness["k"] is not None:
            assert np.prod(np.sign(rep.witness["minors"])) <= 0.0

    def test_an_edge_whose_minors_share_a_sign_is_inconclusive(self):
        # pmatrix passes: every minor, the least 1e-13 (9.99e-14 in floating
        # point), is positive; the row-scaled complement minor is below 1e-12
        # and flags the edge ({0}, 1), whose minors 1 and 9.99e-14 hold no witness
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        p = VIProblem(affine_mapping(a, np.ones(2)), BoxSet([0.0] * 2, [1.0] * 2))
        assert pmatrix_minors(a).verdict == "pass"
        rep = maximal_rank_tsearch(p, 1, 0, 10.0)
        assert rep.verdict == "inconclusive" and rep.witness is None
        assert "edge S = [0], k = 1" in rep.notes


def fraction_pmatrix(a):
    """The oracle: every principal minor of the integer matrix a is positive,
    over the rationals."""
    return all(exact_det(a[np.ix_(s, s)]) > 0 for s in oracle_index_sets(a.shape[0]))


def recheck_pair(p, rep, blocks):
    """A pfunction or block-pfunction fail witness: x and y lie in K, and rho,
    recomputed from F(x) and F(y), is the witness's and <= 0."""
    x, y = np.array(rep.witness["x"]), np.array(rep.witness["y"])
    assert p.set.contains(x) and p.set.contains(y)
    d, df = x - y, p.F(x) - p.F(y)
    tops = ([df[i] * d[i] for i in range(p.dim)] if blocks is None
            else [np.vecdot(df[s], d[s]) for s in certificates.block_slices(blocks)])
    rho = max(tops) / float(d @ d)
    assert rho <= 0.0 and abs(rho - rep.witness["rho"]) <= 1e-12 * max(1.0, abs(rho))


def exact(rep):
    return rep.notes.startswith("exact")


def fields(rep):
    return (rep.condition, rep.verdict, rep.margin, rep.witness, rep.seed, rep.budget,
            rep.notes, rep.metrics)


PAIR_CHECKERS = [(uniform_pfunction_search, lambda p: None),
                 (block_pfunction_search, lambda p: p.set.blocks or (p.dim,))]


class TestExactRules:
    def test_pmatrix_rule_passes_with_the_least_minor(self):
        p = VIProblem(affine_mapping([[2.0, 1.0], [0.0, 3.0]]), BoxSet([-1.0, -np.inf],
                                                                       [1.0, 4.0]))
        rep = uniform_pfunction_search(p, pairs=100, seed=3)
        assert (rep.verdict, rep.margin, rep.witness, rep.seed) == ("pass", 2.0, None, None)
        assert rep.budget == {"minors": 3} and exact(rep) and "More & Rheinboldt" in rep.notes

    def test_pmatrix_rule_fails_along_an_eigenvector(self):
        p = get_problem("example-vi")
        rep = uniform_pfunction_search(p, pairs=200, seed=42)
        assert rep.verdict == "fail" and rep.margin == -5.0 and exact(rep)
        assert rep.witness["index_set"] == [0, 1] and rep.witness["y"] == [0.0, 0.0]
        recheck_pair(p, rep, None)

    def test_one_block_is_strong_monotonicity(self):
        p = VIProblem(affine_mapping([[2.0, 1.0], [-1.0, 0.5]]), free_box(2))
        rep = block_pfunction_search(p, pairs=100, seed=0)
        assert (rep.verdict, rep.margin, rep.budget) == ("pass", 0.5, {"eigenvalues": 2})
        assert exact(rep) and rep.seed is None
        rot = VIProblem(affine_mapping([[0.0, -1.0], [1.0, 0.0]]), free_box(2))
        rep = block_pfunction_search(rot, pairs=100, seed=0)
        assert rep.verdict == "fail" and rep.margin == 0.0 and rep.witness["rho"] == 0.0
        recheck_pair(rot, rep, (2,))

    def test_coordinate_blocks_use_the_pmatrix_rule(self):
        p = get_problem("example-game")  # blocks (1, 1)
        rep_block = block_pfunction_search(p, pairs=200, seed=42)
        rep_coord = uniform_pfunction_search(p, pairs=200, seed=42)
        assert rep_block.verdict == rep_coord.verdict == "fail" and exact(rep_block)
        assert rep_block.witness == rep_coord.witness and rep_block.margin == rep_coord.margin

    def test_other_block_layouts_stay_sampled(self):
        p = two_block_game()
        assert fields(block_pfunction_search(p, pairs=100, seed=1)) == fields(
            block_pfunction_search(opaque(p), pairs=100, seed=1))

    def test_growth_is_the_spectral_norm_of_the_moving_columns(self):
        a = np.array([[1.0, 2.0, 7.0], [3.0, 1.0, -7.0], [0.0, 0.0, 1.0]])
        p = VIProblem(affine_mapping(a), BoxSet([-1.0, -np.inf, 2.0], [1.0, np.inf, 2.0]))
        rep = growth_l0lp_fit(p, pairs=100, seed=2)
        lp = float(np.linalg.norm(a[:, :2], 2))
        assert (rep.verdict, rep.margin, rep.seed, rep.budget) == ("pass", lp, None,
                                                                   {"columns": 2})
        assert rep.metrics == {"L0": 0.0, "Lp": lp, "p": 1.0, "coverage": 1.0} and exact(rep)

    def test_coercivity_from_the_free_block(self):
        full = VIProblem(affine_mapping([[2.0, 1.0], [0.0, 3.0]]), free_box(2))
        rep = coercivity_check(full)
        s_min = float(np.linalg.svd([[2.0, 1.0], [0.0, 3.0]], compute_uv=False)[-1])
        assert (rep.verdict, rep.margin, rep.seed, rep.budget) == ("pass", s_min, None,
                                                                   {"free": 2})
        box = VIProblem(affine_mapping(np.zeros((2, 2))), BoxSet([0.0, 1.0], [1.0, 1.0]))
        rep = coercivity_check(box)
        assert (rep.verdict, rep.margin, rep.budget) == ("pass", None, {"free": 0})
        assert exact(rep)

    @pytest.mark.parametrize("a, lo, hi", [
        ([[1.0, 1.0], [1.0, 1.0]], [-np.inf] * 2, [np.inf] * 2),  # singular free block
        ([[2.0, 0.0], [0.0, 1.0]], [0.0, -np.inf], [np.inf, np.inf]),  # half-bounded
        ([[1e-9, 0.0], [0.0, 1.0]], [-np.inf] * 2, [np.inf] * 2),  # sigma_min < tol
    ])
    def test_coercivity_probe_decides_otherwise(self, a, lo, hi):
        p = VIProblem(affine_mapping(a), BoxSet(lo, hi))
        rep = coercivity_check(p)
        assert fields(rep) == fields(coercivity_check(opaque(p))) and not exact(rep)

    def test_maximal_rank_and_coercivity_share_one_svd(self, monkeypatch):
        p = VIProblem(affine_mapping([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 2.0]]),
                      BoxSet([-np.inf, -1.0, -np.inf], [np.inf, 1.0, np.inf]))
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        reports, _ = certify_problem(p, ["maximal-rank", "coercivity"])
        assert [r.verdict for r in reports] == ["pass", "pass"] and len(calls) == 1
        a = p.mapping.data["A"]
        assert reports[1].margin == float(svd(a[np.ix_([0, 2], [0, 2])], compute_uv=False)[-1])

    @pytest.mark.parametrize("p", [
        VIProblem(affine_mapping(np.eye(21)), free_box(21)),  # beyond MINOR_BUDGET_DIM
        VIProblem(affine_mapping(np.eye(2)), BoxSet([1.0, 2.0], [1.0, 2.0])),  # one point
        VIProblem(affine_mapping([[1e200, 0.0], [0.0, 1e200]]), free_box(2)),  # h overflows
    ], ids=["m21", "one-point", "wide-minors"])
    def test_pmatrix_rule_falls_back_to_the_search(self, p):
        rep = uniform_pfunction_search(p, pairs=100, seed=6)
        assert fields(rep) == fields(uniform_pfunction_search(opaque(p), pairs=100, seed=6))

    @pytest.mark.parametrize("a, box", [
        ([[1.0, 1e308], [1e308, 1.0]], BoxSet([0.0, 0.0], [1.0, 1.0])),
        ([[1e-13, 0.0], [0.0, 1.0]], free_box(2)),
        ([[-1.0]], BoxSet([0.0], [1e-13])),
    ], ids=["symmetric-part-overflows", "lambda-min-below-the-noise-floor",
            "no-step-leaves-the-midpoint"])
    def test_one_block_rule_falls_back_to_the_search(self, a, box):
        p = VIProblem(affine_mapping(a), box)
        rep = block_pfunction_search(p, pairs=100, seed=6)
        assert fields(rep) == fields(block_pfunction_search(opaque(p), pairs=100, seed=6))
        assert not exact(rep)

    def test_a_box_about_1e308_wide_gets_finite_margins(self):
        game = make_game((1,), {(0, 0): [[1.0]]}, ([-0.855],),
                         BoxSet([-1e308], [1.0], blocks=(1,)))
        reports, _ = certify_problem(game, ["pfunction", "block-pfunction"])
        assert [(r.verdict, r.margin) for r in reports] == [("pass", 1.0)] * 2
        p = VIProblem(affine_mapping([[-1e308]]), BoxSet([0.0], [1.0]))
        rep = growth_l0lp_fit(p, pairs=100, seed=0)
        assert rep.metrics["Lp"] == 1e308 and rep.metrics["L0"] == 0.0

    @given(integer_affine_problems())
    def test_pmatrix_rule_matches_the_fraction_oracle(self, p):
        n = np.flatnonzero(p.set.lo < p.set.hi)
        rep = uniform_pfunction_search(p, pairs=100, seed=1)
        if exact(rep):
            assert (rep.verdict == "pass") == fraction_pmatrix(p.mapping.data["A"][np.ix_(n, n)])
        else:  # the search decides, and its fail is backed by a pair
            assert rep.verdict != "pass"

    @given(integer_affine_problems(), st.sampled_from(PAIR_CHECKERS))
    def test_exact_fail_witnesses_hold(self, p, checker):
        check, blocks = checker
        rep = check(p, pairs=100, seed=1)
        if exact(rep) and rep.verdict == "fail":
            recheck_pair(p, rep, blocks(p))

    @given(integer_affine_problems(), st.sampled_from(PAIR_CHECKERS),
           st.integers(0, 2 ** 32 - 1))
    def test_the_search_never_fails_where_the_rule_passes(self, p, checker, seed):
        check, _ = checker
        if check(p, pairs=100, seed=seed).verdict == "pass":
            assert check(opaque(p), pairs=100, seed=seed).verdict != "fail"

    @given(integer_affine_problems(), st.integers(0, 2 ** 32 - 1))
    def test_sampled_growth_stays_below_the_exact_constant(self, p, seed):
        rep = growth_l0lp_fit(p, pairs=100, seed=seed)
        sampled = growth_l0lp_fit(opaque(p), pairs=100, seed=seed)
        if exact(rep) and sampled.margin is not None:
            assert sampled.metrics["Lp"] <= rep.metrics["Lp"] * (1.0 + 1e-12)

    @given(integer_affine_problems())
    def test_the_probe_decides_on_a_singular_free_block(self, p):
        a = np.array(p.mapping.data["A"])
        free = np.flatnonzero(np.isinf(p.set.lo) & np.isinf(p.set.hi))
        if free.size:
            a[free[0], free] = 0.0
        p = VIProblem(affine_mapping(a, p.mapping.data["b"]), p.set)
        rep = coercivity_check(p)
        if free.size:
            assert fields(rep) == fields(coercivity_check(opaque(p)))
        elif exact(rep):  # no half-bounded coordinate: every bounded box is coercive
            assert rep.verdict == "pass" and rep.margin is None


class TestPLCondition:
    def test_example_game_mu_exact(self):
        g = get_problem("example-game")
        rep = pl_condition_check(g, np.zeros(2))
        assert rep.verdict == "pass"
        assert rep.metrics["mu"] == [2.0, 2.0]

    def test_decoupled_identity_blocks(self):
        g = make_game((2, 2), {(0, 0): np.eye(2), (1, 1): np.eye(2)},
                      (np.zeros(2), np.zeros(2)), free_box(4, blocks=(2, 2)))
        rep = pl_condition_check(g, np.zeros(4))
        assert rep.verdict == "pass"
        assert rep.metrics["mu"] == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_indefinite_block_inconclusive(self):
        g = make_game((1, 1), {(0, 0): [[-1.0]], (1, 1): [[1.0]]}, ([0.0], [0.0]),
                      free_box(2, blocks=(1, 1)))
        rep = pl_condition_check(g, np.zeros(2))
        assert rep.verdict == "inconclusive"
        assert "unbounded below" in rep.notes

    def test_flat_direction_inconclusive(self):
        # Q_00 = 0 and an own gradient of 5e-7, below the stationarity cut:
        # player 0's cost decreases linearly without bound.
        g = make_game((1, 1), {(0, 0): [[0.0]], (1, 1): [[1.0]]}, ([5e-7], [0.0]),
                      free_box(2, blocks=(1, 1)))
        rep = pl_condition_check(g, np.zeros(2))
        assert rep.verdict == "inconclusive" and rep.metrics == {"player": 0}
        assert "flat direction" in rep.notes

    def test_zero_own_block_has_no_positive_gap(self):
        g = make_game((1, 1), {(0, 0): [[1.0]], (1, 1): [[0.0]]}, ([0.0], [0.0]),
                      free_box(2, blocks=(1, 1)))
        rep = pl_condition_check(g, np.zeros(2))
        assert rep.verdict == "inconclusive" and rep.metrics == {"player": 1}
        assert "own block has no positive eigenvalue" in rep.notes

    def test_nonstationary_candidate_rejected(self):
        rep = pl_condition_check(get_problem("example-game"), np.array([1.0, 1.0]))
        assert rep.verdict == "inconclusive" and rep.margin is None and rep.witness is None
        assert rep.seed is None and rep.budget == {"players": 2}
        assert "gradient-map norm" in rep.notes


def unsolved(p, starts, tol):
    """Stands in for the solver's stacked solve: starts that do not converge."""
    v = np.zeros(p.dim)
    return [solver.SolveResult("line-search-stall", v, project(p.set, v), 1.0, (1.0,), ())
            for _ in starts]


class TestPLAtSolution:
    def test_falls_back_to_the_path_on_a_bounded_game(self, monkeypatch):
        # interior equilibrium (5/9, -2/9) of [-3, 3]^2: with its solve failing,
        # pl checks the end of the corner-ray path and reaches the same verdict
        p = make_game((1, 1), {(0, 0): [[2.0]], (0, 1): [[0.5]], (1, 0): [[-0.5]],
                               (1, 1): [[1.0]]}, ([-1.0], [0.5]),
                      BoxSet(np.full(2, -3.0), np.full(2, 3.0), (1, 1)))
        (solved,), _ = certify_problem(p, ["pl"])
        monkeypatch.setattr(solver, "_solve_stack", unsolved)
        (path,), _ = certify_problem(p, ["pl"])
        assert solved.verdict == path.verdict == "pass"
        np.testing.assert_allclose(path.metrics["mu"], solved.metrics["mu"], rtol=1e-9)

    def test_unbounded_game_stays_inconclusive(self, monkeypatch):
        monkeypatch.setattr(solver, "_solve_stack", unsolved)
        (rep,), _ = certify_problem(get_problem("example-game"), ["pl"])
        assert rep.verdict == "inconclusive" and "did not converge" in rep.notes


def pl_mu_oracle(p, xbar, rows):
    """mu per player from a plain loop over the rows, the least ratio of squared
    own gradient to gap over the rows of gap above 1e-12; inf for a player with
    no such row.  The blocks Q_ij and c_i are read straight off A and b."""
    a, c = p.mapping.data["A"], p.mapping.data["b"]
    ends = np.cumsum(p.set.blocks)
    sls = [slice(end - size, end) for size, end in zip(p.set.blocks, ends)]
    mus = []
    for i, sl in enumerate(sls):
        qii = a[sl, sl]
        b = np.zeros(p.set.blocks[i])
        for j, sj in enumerate(sls):
            if j != i:
                b = b + a[sl, sj] @ xbar[sj]
        b = b + c[sl]
        x_opt = np.linalg.lstsq(qii, -b, rcond=None)[0]
        mu = np.inf
        for row in rows:
            dx = row[sl] - x_opt
            gap = float(0.5 * dx @ qii @ dx)
            if gap > 1e-12:
                mu = min(mu, float(np.sum((qii @ row[sl] + b) ** 2)) / gap)
        mus.append(mu)
    return mus


@st.composite
def stationary_games(draw):
    """(game's VI, stationary point): 2 or 3 players with blocks of size 1 to 3,
    own blocks positive definite or, drawn per player, semidefinite with a zero
    row and column (size 1: definite), a box mixing every kind of coordinate,
    and c chosen so that the gradient map vanishes at the point (so each c_i
    lies in the range of Q_ii).  The zero row keeps the null space exact: a
    null eigenvalue rounded to 1e-17 would lower the ratio of a row far along
    it, below the 1e-12 cut of the rule."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)))
    semidefinite = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    box = draw(mixed_boxes(st.just(sum(sizes))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = {(i, j): rng.uniform(-1.0, 1.0, (a, b))
         for i, a in enumerate(sizes) for j, b in enumerate(sizes)}
    for i, a in enumerate(sizes):
        f = q[i, i]
        if semidefinite[i] and a > 1:
            f[rng.integers(a)] = 0.0
        s = f @ f.T + (0.0 if semidefinite[i] else rng.uniform(0.1, 2.0)) * np.eye(a)
        q[i, i] = (s + s.T) / 2.0
    box = BoxSet(box.lo, box.hi, sizes)
    p = make_game(sizes, q, [np.zeros(a) for a in sizes], box)
    xbar = rng.uniform(-5.0, 5.0, p.dim)
    c = -(p.mapping.data["A"] @ xbar)
    return make_game(sizes, q, np.split(c, np.cumsum(sizes)[:-1]), box), xbar


class TestPLExact:
    @given(stationary_games(), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 10.0, 40.0]))
    def test_mu_is_twice_the_least_positive_eigenvalue(self, game, seed, radius):
        # No sampled row of positive gap has a smaller ratio than mu_i, and the
        # point xbar + v, v an eigenvector of mu_i / 2 on player i's block
        # (xbar_i minimizes the own cost), attains it.
        p, xbar = game
        rep = pl_condition_check(p, xbar)
        assert rep.verdict == "pass" and rep.seed is None
        assert rep.budget == {"players": len(p.set.blocks)} and rep.notes.startswith("exact:")
        sampled = pl_mu_oracle(p, xbar, draw_samples(p.set, 60, seed, radius))
        ends = np.cumsum(p.set.blocks)
        for i, (size, end) in enumerate(zip(p.set.blocks, ends)):
            sl = slice(end - size, end)
            qii = p.mapping.data["A"][sl, sl]
            lams = np.linalg.eigvalsh(qii)
            assert rep.metrics["mu"][i] == 2.0 * lams[lams > 1e-12][0]
            assert sampled[i] >= rep.metrics["mu"][i] * (1.0 - 1e-9)
            w, vecs = np.linalg.eigh(qii)
            x = xbar.copy()
            x[sl] += vecs[:, np.flatnonzero(w > 1e-12)[0]]
            assert pl_mu_oracle(p, xbar, [x])[i] == pytest.approx(rep.metrics["mu"][i],
                                                                  rel=1e-9)
        assert rep.margin == min(rep.metrics["mu"])


class TestHessianBlockConvexity:
    def test_example_game(self):
        rep = hessian_block_convexity(get_problem("example-game"))
        assert rep.verdict == "pass" and rep.margin == 1.0

    def test_zero_block_fails(self):
        g = make_game((1, 1), {(0, 0): [[0.0]], (1, 1): [[1.0]]}, ([0.0], [0.0]),
                      free_box(2, blocks=(1, 1)))
        rep = hessian_block_convexity(g)
        assert rep.verdict == "fail" and rep.margin == 0.0

    def test_scaled_identity_margin(self):
        g = make_game((1, 1), {(0, 0): [[2.0]], (1, 1): [[2.0]]}, ([0.0], [0.0]),
                      free_box(2, blocks=(1, 1)))
        assert hessian_block_convexity(g).margin == 2.0


def coercivity_oracle(p):
    """(verdict, margin, witness, budget) of coercivity_check, from a per-ray
    rule of its own: along each ray +-e_i the residual norms at radii 2^k,
    k = 0..11, give the ray a verdict (undecided when a norm is not finite),
    and the report follows from the ray verdicts."""
    radii = 2.0 ** np.arange(12)
    eye = np.eye(p.dim)
    rays = []  # (direction, norms, slope or None, verdict)
    for d in (s * eye[i] for i in range(p.dim) for s in (1.0, -1.0)):
        try:
            norms = np.array([normal_map(p, r * d).norm for r in radii])
        except EvaluationError:
            norms = np.full(radii.size, np.nan)
        slope, verdict = None, "undecided"
        if np.all(np.isfinite(norms)):
            if norms[-1] < 2.0 * norms[0]:
                verdict = "violation"
            else:
                with np.errstate(divide="ignore"):
                    logs = np.log(norms[4:])
                if np.all(np.isfinite(logs)):
                    slope = float(np.polyfit(np.log(radii[4:]), logs, 1)[0])
                    verdict = "coercive" if slope >= 0.5 else "undecided"
        rays.append((d, norms, slope, verdict))
    slopes = [slope for _, _, slope, _ in rays if slope is not None]
    margin = float(min(slopes)) if slopes else None
    budget = {"rays": len(rays), "steps": len(radii)}
    violations = [(d, norms) for d, norms, _, verdict in rays if verdict == "violation"]
    if violations:
        d, norms = violations[0]
        witness = {"direction": d.tolist(), "norms": norms.tolist(), "radii": radii.tolist()}
        return "fail", margin, witness, budget
    if all(verdict == "coercive" for *_, verdict in rays):
        return "pass", margin, None, budget
    return "inconclusive", margin, None, budget


RAY_KINDS = {  # coordinate i of F as a function of x_i alone
    "linear": lambda t: 2.0 * t,  # grows with slope 1
    "constant": lambda t: 1.0,  # does not grow: a violation
    "slow": lambda t: np.sign(t) * abs(t) ** 0.3,  # grows with slope 0.3 < 0.5
    "nan-past-100": lambda t: np.nan if abs(t) > 100.0 else t,  # a NaN row
    "root-16": lambda t: t - 16.0,  # norm 0 at radius 16 along +e_i
    "huge": lambda t: 1e300 * t,  # finite, but the residual norm overflows: an inf row
}


def ray_problem(kinds, box=None):
    """The VI of F(x)_i = RAY_KINDS[kinds[i]](x_i) on box (default R^m)."""
    fns = [RAY_KINDS[k] for k in kinds]
    mapping = Mapping(fn=lambda x: np.array([f(t) for f, t in zip(fns, x)]), dim=len(kinds))
    return VIProblem(mapping, box or BoxSet.full_space(len(kinds)))


@st.composite
def ray_problems(draw):
    box = draw(mixed_boxes(st.integers(1, 3)))
    kinds = draw(st.lists(st.sampled_from(sorted(RAY_KINDS)), min_size=box.dim,
                          max_size=box.dim))
    return ray_problem(kinds, box)


class TestCoercivityCheck:
    # one case per branch of the ray rule, on R^m
    @pytest.mark.parametrize("kinds, verdict", [
        (("linear", "linear"), "pass"),
        (("linear", "constant"), "fail"),  # rays 2 and 3 violate; ray 2 is the witness
        (("slow",), "inconclusive"),
        (("nan-past-100", "linear"), "inconclusive"),
        (("root-16", "linear"), "inconclusive"),
        (("huge",), "inconclusive"),
    ])
    def test_each_branch_matches_the_oracle(self, kinds, verdict):
        with np.errstate(over="ignore"):
            rep = coercivity_check(ray_problem(kinds))
            expected = coercivity_oracle(ray_problem(kinds))
        assert (rep.verdict, rep.margin, rep.witness, rep.budget) == expected
        assert rep.verdict == verdict and rep.seed is None

    def test_tol_is_keyword_only(self):
        # the probe draws nothing, so there is no seed; an old positional seed
        # raises rather than being read as tol
        with pytest.raises(TypeError):
            coercivity_check(ray_problem(("linear",)), 7)

    @given(ray_problems())
    def test_matches_the_oracle(self, p):
        with np.errstate(over="ignore"):
            rep = coercivity_check(p)
            expected = coercivity_oracle(p)
        assert (rep.verdict, rep.margin, rep.witness, rep.budget) == expected


class TestSampling:
    def test_samples_lie_in_box(self):
        box = BoxSet([0.0, -np.inf], [1.0, np.inf])
        pts = draw_samples(box, 200, 3, radius=5.0)
        assert np.all(pts[:, 0] >= 0.0) and np.all(pts[:, 0] <= 1.0)
        assert np.all(np.abs(pts[:, 1]) <= 5.0)

    def test_boundary_set_contains_pinned_and_exterior_points(self):
        box = BoxSet([0.0, 0.0], [1.0, 1.0])
        pts = boundary_sample_set(box, 5, 1)
        assert any(p[0] == 0.0 for p in pts)
        assert any(p[0] < 0.0 for p in pts)

    def test_seed_reproducible(self):
        box = BoxSet([0.0], [1.0])
        assert np.array_equal(draw_samples(box, 50, 4), draw_samples(box, 50, 4))

    def test_zero_count_is_an_empty_stack_without_a_generator(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # calling it would raise
        pts = draw_samples(BoxSet([0.0, -np.inf, 1.0], [1.0, np.inf, 1.0]), 0, 4)
        assert pts.shape == (0, 3) and pts.dtype == float

    def test_draws_are_those_of_rng_uniform(self):
        box = BoxSet([0.0, -np.inf, -3.0, 1.0], [1.0, np.inf, np.inf, 1.0])
        lo, hi = np.array([0.0, -5.0, -3.0, 1.0]), np.array([1.0, 5.0, 5.0, 1.0])
        for seed in range(20):
            expected = np.random.default_rng(seed).uniform(lo, hi, size=(40, 4))
            assert draw_samples(box, 40, seed, 5.0).tobytes() == expected.tobytes()

    @given(st.lists(st.tuples(st.sampled_from([-np.inf, -1e308, -1.0, 1.0, 1e308]),
                              st.sampled_from([-1e308, -1.0, 1.0, 1e308, np.inf])),
                    min_size=1, max_size=4),
           st.sampled_from([1.0, 10.0, 1e308, 1.7e308]), st.integers(0, 2 ** 32 - 1))
    def test_rows_are_finite_and_in_k_for_any_bounds(self, bounds, radius, seed):
        box = BoxSet(*zip(*(sorted(b) for b in bounds)))
        pts = draw_samples(box, 20, seed, radius)
        assert np.isfinite(pts).all() and all(box.contains(x) for x in pts)

    def test_intervals_wider_than_the_largest_double(self):
        # hi - lo overflows in coordinates 0 and 1, where rng.uniform raises.
        box = BoxSet([-1e308, -np.inf, 0.0], [1e308, 1.0, 1.0])
        pts = draw_samples(box, 200, 4, radius=1.7e308)
        assert np.isfinite(pts).all() and all(box.contains(x) for x in pts)
        assert (pts[:, :2] < -1e307).any(axis=0).all() and (pts[:, 0] > 1e307).any()
        assert (pts[:, 2] > 0.0).all()


def grid_directions(m):
    """The direction grid built with plain loops: e_0 ... e_{m-1}, then for
    each pair i < j (e_i - e_j)/sqrt(2) and (e_i + e_j)/sqrt(2)."""
    eye = np.eye(m)
    dirs = [eye[i] for i in range(m)]
    for i, j in combinations(range(m), 2):
        dirs += [(eye[i] - eye[j]) / np.sqrt(2.0), (eye[i] + eye[j]) / np.sqrt(2.0)]
    return dirs


def loop_pairs(box, bases, dirs, radii):
    """Every pair (x, P_K[x + r d]) at least 1e-12 apart, in order, built with
    plain loops: x over bases, d over dirs, r over radii."""
    out = []
    for x in bases:
        for d in dirs:
            for r in radii:
                y = project(box, x + r * d)
                if np.linalg.norm(y - x) >= 1e-12:
                    out.append((x, y))
    return out


def grid_pairs(box, seed, radius):
    """Every direction-grid pair of _pair_stream, in order, built with plain loops."""
    bases = [box_midpoint(box), *draw_samples(box, 3, seed + 1, radius)]
    return loop_pairs(box, bases, grid_directions(box.dim), (1.0,))


def pair_bytes(xs, ys):
    return [(x.tobytes(), y.tobytes()) for x, y in zip(xs, ys)]


_BOUND = st.floats(-30.0, 30.0)  # beyond the radius too: lo > radius, hi < -radius


@st.composite
def mixed_boxes(draw, dims=st.integers(1, 4)):
    """Boxes mixing half-bounded, bounded, one-point and free coordinates."""
    m = draw(dims)
    lo, hi = [], []
    for kind in draw(st.lists(st.sampled_from(["lower", "upper", "both", "point", "free"]),
                              min_size=m, max_size=m)):
        a, b = sorted((draw(_BOUND), draw(_BOUND)))
        b = a if kind == "point" else b
        lo.append(a if kind in ("lower", "both", "point") else -np.inf)
        hi.append(b if kind in ("upper", "both", "point") else np.inf)
    return BoxSet(lo, hi)


class TestPairStream:
    @given(mixed_boxes(), st.integers(1, 120), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.5, 1.0, 10.0, 25.0]))
    def test_grid_pairs_then_consecutive_sample_rows(self, box, pairs, seed, radius):
        xs, ys = certificates._pair_stream(box, pairs, seed, radius)
        grid = grid_pairs(box, seed, radius)[:pairs]
        rows = draw_samples(box, 2 * (pairs - len(grid)), seed, radius)
        tail = [(x, y) for x, y in zip(rows[0::2], rows[1::2])
                if np.linalg.norm(y - x) >= 1e-12]
        assert pair_bytes(xs, ys) == [(x.tobytes(), y.tobytes()) for x, y in grid + tail]
        for x, y in zip(xs, ys):
            assert box.contains(x) and box.contains(y)
            assert np.linalg.norm(y - x) >= 1e-12

    def test_sampled_pairs_respect_finite_bounds(self):
        # [0, 1] x R: the pairs after the 16 grid pairs are drawn inside [0, 1],
        # not drawn from [-radius, radius] and clamped onto a bound
        box = BoxSet([0.0, -np.inf], [1.0, np.inf])
        xs, ys = certificates._pair_stream(box, 100, 0, 10.0)
        assert len(grid_pairs(box, 0, 10.0)) == 16 and len(xs) == 100
        first = np.column_stack([xs[16:, 0], ys[16:, 0]])
        assert np.all((first > 0.0) & (first < 1.0))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_directions_match_the_loop_grid(self, m):
        extra = np.arange(2.0 * m).reshape(2, m)
        k = np.arange(m * m + 2)
        expected = np.array([*grid_directions(m), *extra])
        assert certificates._directions(m, k, extra).tobytes() == expected.tobytes()
        picked = np.array([m * m - 1, 0, m * m + 1, m - 1])
        assert certificates._directions(m, picked, extra).tobytes() == \
            expected[picked].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(mixed_boxes(), st.integers(0, 400), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([64, 1 << 10, 1 << 21]))
    def test_chunked_grid_matches_the_loop_oracle(self, box, count, seed, stack_bytes):
        # several radii and extra directions, over chunks of every size
        radii = (0.25, 1.0, 8.0)
        bases = draw_samples(box, 2, seed, 10.0)
        extra = draw_samples(BoxSet.full_space(box.dim), 2, seed, 1.0)
        expected = loop_pairs(box, bases, [*grid_directions(box.dim), *extra], radii)[:count]
        with mock.patch.object(certificates, "_STACK_BYTES", stack_bytes):
            xs, ys = certificates._pairs(box, bases, radii, count, extra)
        assert pair_bytes(xs, ys) == [(x.tobytes(), y.tobytes()) for x, y in expected]


@pytest.mark.parametrize("checker", [uniform_pfunction_search, block_pfunction_search,
                                     growth_l0lp_fit])
def test_pair_checkers_stay_small_at_m_300(checker):
    # The grid has m^2 = 90,000 directions per base; only the chunks that give
    # the 120 pairs are built.
    rng = np.random.default_rng(0)
    m = 300
    lo = np.where(np.arange(m) % 3 == 0, -np.inf, -1.0)
    p = opaque(VIProblem(affine_mapping(rng.standard_normal((m, m))), BoxSet(lo, np.ones(m))))
    tracemalloc.start()
    try:
        rep = checker(p, pairs=120, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.budget["pairs"] == 120
    assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


SCANNING_CHECKERS = {"pmatrix": pmatrix_sampled, "uniform-pmatrix": uniform_pmatrix_sampled,
                     "sigma-sweep": principal_submatrix_sigma_sweep}


@pytest.mark.parametrize("pid", [pid for pid in problem_ids()
                                 if get_problem(pid).mapping.kind != "builtin"])
@pytest.mark.parametrize("condition", list(SCANNING_CHECKERS))
def test_affine_jacobian_stack_is_a_alone(condition, pid, monkeypatch):
    # The report of one Jacobian call per sample, without evaluating one: from
    # the checker alone, and inside one certify_problem call, after the other
    # two checkers, which share the stack.
    checker = SCANNING_CHECKERS[condition]
    order = [c for c in SCANNING_CHECKERS if c != condition] + [condition]
    p = get_problem(pid)
    a = p.mapping.data["A"]
    per_point = VIProblem(Mapping(fn=p.mapping.fn, dim=p.dim, jac=lambda x: a,
                                  rows=p.mapping.rows), p.set)
    expected = checker(per_point, 30, 5, 10.0).to_dict()
    in_call = [r.to_dict() for r in certify_problem(per_point, order, seed=5, samples=30)[0]]
    monkeypatch.setattr(certificates, "jacobian", None)  # calling it would raise
    assert checker(p, 30, 5, 10.0).to_dict() == expected
    assert [r.to_dict() for r in certify_problem(p, order, seed=5, samples=30)[0]] == in_call


@pytest.mark.parametrize("checker", [pmatrix_sampled, uniform_pmatrix_sampled])
def test_minor_budget_is_checked_before_the_jacobian_stack(checker):
    # 30 Jacobians of order 400 would take 37 MiB, all for a budget error.
    m = 400
    p = VIProblem(affine_mapping(np.eye(m)), free_box(m))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as e:
            checker(p, 30, 0, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == (f"minor enumeration over 2^{m}-1 subsets exceeds budget; "
                            "use pmatrix_oracle")
    assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestImplicationChain:
    def test_uniform_pmatrix_pass_implies_downstream(self):
        # no checker pair may produce (pass, fail) along the implication arrows
        for pid in problem_ids():
            p = get_problem(pid)
            up = uniform_pmatrix_sampled(p, 20, 7, 10.0)
            if up.verdict != "pass":
                continue
            assert principal_submatrix_sigma_sweep(p, 20, 7, 10.0).margin > 0.0
            assert uniform_pfunction_search(p, pairs=150, seed=7).verdict != "fail"


# The public checker each condition id reaches through its table entry.
CHECKER_OF = {"pmatrix": "pmatrix_sampled", "uniform-pmatrix": "uniform_pmatrix_sampled",
              "sigma-sweep": "principal_submatrix_sigma_sweep",
              "pfunction": "uniform_pfunction_search", "block-pfunction": "block_pfunction_search",
              "growth": "growth_l0lp_fit", "upsilon": "p_upsilon_check",
              "maximal-rank": "maximal_rank_tsearch", "coercivity": "coercivity_check",
              "pl": "pl_condition_check", "block-convexity": "hessian_block_convexity"}


class TestConditionTable:
    def test_every_condition_has_a_checker(self):
        assert list(CONDITIONS) == list(CHECKER_OF)

    @pytest.mark.parametrize("cond", list(CHECKER_OF))
    def test_checker_replaced_on_the_module_is_run(self, cond, monkeypatch):
        # Wrappers installed on the module (tests, tracers) must see every call.
        calls = []
        checker = getattr(certificates, CHECKER_OF[cond])
        monkeypatch.setattr(certificates, CHECKER_OF[cond],
                            lambda *a, **k: calls.append(1) or checker(*a, **k))
        reports, skipped = certify_problem(get_problem("example-game"), [cond], samples=5)
        assert len(calls) == 1 and skipped == []
        assert [r.condition for r in reports] == [cond]

    def test_replaced_pmatrix_checker_report_is_returned(self, monkeypatch):
        mine = certificates.CertificateReport("pmatrix", "pass", 1.0, None, 42, {}, "replaced")
        monkeypatch.setattr(certificates, "pmatrix_sampled", lambda p, samples, seed, radius: mine)
        assert certify_problem(get_problem("spd-box"), ["pmatrix"]) == ([mine], [])

    def test_vi_skips_exactly_the_game_only_ids(self):
        game_only = [c for c, (_, only) in CONDITIONS.items() if only]
        assert game_only == ["upsilon", "pl", "block-convexity"]
        reports, skipped = certify_problem(get_problem("spd-box"), samples=5)
        assert skipped == game_only
        assert [r.condition for r in reports] == [c for c in CONDITIONS if c not in game_only]
        reports, skipped = certify_problem(get_problem("example-game"), samples=5)
        assert skipped == [] and [r.condition for r in reports] == list(CONDITIONS)

    def test_request_order_and_unknown_ids(self):
        reports, skipped = certify_problem(get_problem("spd-box"),
                                           ["growth", "pl", "pmatrix"], samples=5)
        assert [r.condition for r in reports] == ["growth", "pmatrix"] and skipped == ["pl"]
        with pytest.raises(KeyError, match="nope"):
            certify_problem(get_problem("spd-box"), ["pmatrix", "nope"])

    def test_budget_error_becomes_inconclusive(self):
        p = VIProblem(affine_mapping(np.eye(21)), free_box(21))
        reports, _ = certify_problem(p, ["sigma-sweep"], samples=2)
        assert reports[0].verdict == "inconclusive" and "budget exceeded" in reports[0].notes


@st.composite
def integer_games(draw):
    """A quadratic game with m <= 6: blocks of size 1 to 3, integer own blocks
    (symmetric, not always definite) and cross blocks, and a box of [-2, 3]
    or the full space."""
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)
                       .filter(lambda s: sum(s) <= 6)))
    ints = lambda shape: draw(hnp.arrays(np.float64, shape, elements=st.integers(-3, 3)))
    q = {(i, j): ints((a, b)) for i, a in enumerate(sizes) for j, b in enumerate(sizes)}
    for i, a in enumerate(sizes):
        q[i, i] = q[i, i] + q[i, i].T + 4.0 * np.eye(a)
    m = sum(sizes)
    box = (BoxSet([-2.0] * m, [3.0] * m, sizes) if draw(st.booleans())
           else free_box(m, blocks=sizes))
    return make_game(sizes, q, [ints(a) for a in sizes], box)


def alone(p, cond, seed, samples, radius):
    """The report of one condition's checker, run outside any certify call."""
    return CONDITIONS[cond][0](p, certificates._Settings(seed, samples, radius, 1e-8))


class TestSharedInputs:
    """certify_problem computes the inputs its checkers share once per call:
    each report equals its checker's run alone, and no store outlives a call."""

    @given(st.one_of(integer_affine_problems(), integer_games()),
           st.lists(st.sampled_from(list(CONDITIONS)), min_size=1, unique=True),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.sampled_from([1.0, 10.0]))
    @settings(max_examples=40, deadline=None)
    def test_every_report_is_its_checkers_alone(self, p, conditions, seed, samples, radius):
        reports, skipped = certify_problem(p, conditions, seed=seed, samples=samples,
                                           radius=radius)
        assert certificates._CALL.get() is None
        run = [c for c in conditions if p.is_game or not CONDITIONS[c][1]]
        assert skipped == [c for c in conditions if c not in run]
        assert [repr(r) for r in reports] == [
            repr(alone(p, c, seed, samples, radius)) for c in run]

    def test_the_store_lives_inside_the_call_only(self, monkeypatch):
        inside = []
        checker = certificates.hessian_block_convexity
        monkeypatch.setattr(certificates, "hessian_block_convexity",
                            lambda p: inside.append(certificates._CALL.get()) or checker(p))
        p = get_problem("example-game")
        certify_problem(p, ["block-convexity", "upsilon"], samples=5)
        assert len(inside) == 2 and inside[0] is inside[1] and inside[0][0] is p
        assert list(inside[0][1]) == [("own lambdas",), (0.0, (1, 2, 2), mock.ANY)]
        assert certificates._CALL.get() is None

    def test_no_store_survives_a_raising_call(self):
        nan_f = VIProblem(Mapping(fn=lambda x: x / 0.0, dim=2), free_box(2))
        with np.errstate(all="ignore"), pytest.raises(EvaluationError):
            certify_problem(nan_f, ["pmatrix", "pfunction"], samples=3)
        assert certificates._CALL.get() is None
        with pytest.raises(KeyError):
            certify_problem(get_problem("spd-box"), ["pmatrix", "nope"])
        assert certificates._CALL.get() is None
        big = VIProblem(affine_mapping(np.eye(21)), free_box(21))
        reports, _ = certify_problem(big, ["pmatrix", "uniform-pmatrix"], samples=2)
        assert [r.verdict for r in reports] == ["inconclusive"] * 2
        assert certificates._CALL.get() is None

    def test_back_to_back_calls_get_their_own_reports(self):
        # same dimension, seed, samples and radius: every key of the two calls is equal
        box = BoxSet([-1.0] * 3, [2.0] * 3)
        first = VIProblem(affine_mapping(np.diag([1.0, 2.0, 3.0])), box)
        second = VIProblem(affine_mapping(EXAMPLE_A[[0, 1, 1]][:, [0, 1, 1]]), box)
        for p in (first, second, first):
            reports, _ = certify_problem(p, samples=4, seed=7)
            assert [repr(r) for r in reports] == [
                repr(alone(p, r.condition, 7, 4, 10.0)) for r in reports]

    @pytest.mark.parametrize("change", ["problem", "seed", "count", "radius"])
    @pytest.mark.parametrize("cond, name", [("pmatrix", "pmatrix_sampled"),
                                            ("pfunction", "uniform_pfunction_search")])
    def test_a_checker_given_other_arguments_makes_its_own_inputs(self, cond, name, change,
                                                                  monkeypatch):
        # inside a call, after checkers that fill the shared Jacobians and pairs,
        # a replaced checker also runs on arguments that differ in one key (or
        # on another problem): it must get that run's own report.  On these
        # boxes each of the four changes moves the checker's margin.
        box = BoxSet([-1.0, -np.inf], [np.inf if cond == "pmatrix" else 2.0, np.inf])
        mine = VIProblem(builtin_mapping("cubic-plus-linear", 2), box)
        other = VIProblem(builtin_mapping("cubic", 2), box) if change == "problem" else mine
        n = 25 if cond == "pmatrix" else 100  # samples or pairs of the call's own run
        n, seed, radius = {"problem": (n, 1, 10.0), "seed": (n, 2, 10.0),
                           "count": (n // 5 if n < 100 else n + 20, 1, 10.0),
                           "radius": (n, 1, 3.0)}[change]
        checker, seen = getattr(certificates, name), []
        monkeypatch.setattr(certificates, name, lambda p, *a, **k: seen.append(
            checker(other, n, seed, radius)) or checker(p, *a, **k))
        reports, _ = certify_problem(mine, ["sigma-sweep", "block-pfunction", cond],
                                     samples=25, seed=1)
        assert seen[0] == checker(other, n, seed, radius) != reports[-1]
        assert reports[-1] == alone(mine, cond, 1, 25, 10.0)

    def test_shared_arrays_are_read_only(self, monkeypatch):
        got = []
        checker = certificates._sampled_jacobians
        monkeypatch.setattr(certificates, "_sampled_jacobians",
                            lambda *a: got.append(checker(*a)) or got[-1])
        certify_problem(get_problem("spd-box"), ["pmatrix", "sigma-sweep"], samples=3)
        assert got[0] is got[1]
        assert not any(a.flags.writeable for a in got[0])
