import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vibox import (BoxSet, Mapping, VIProblem, affine_mapping, coercivity_check,
                   coercivity_probe, get_problem, normal_map, normal_map_jacobian_element,
                   project, projection_jacobian_element)
from vibox.model import EvaluationError, fd_jacobian, jacobian
from vibox.normal_map import RAY_RADII, _jacobian_element


def point_form(p, v):
    """(z, r, norm) at the point v by the scalar formula: z = clip(v),
    r = v - z + fn(z) with the mapping's own fn, norm math.sqrt(r.dot(r));
    where the norm is not finite, p.F(z) raises if F(z) is non-finite."""
    v = np.asarray(v, dtype=float)
    z = np.minimum(np.maximum(v, p.set.lo), p.set.hi)
    r = v - z + np.asarray(p.mapping.fn(z), dtype=float)
    norm = math.sqrt(r.dot(r))
    if not math.isfinite(norm):
        p.F(z)
    return z, r, norm


def box_identity():
    return VIProblem(affine_mapping(np.eye(2)), BoxSet([0.0, 0.0], [1.0, 1.0]))


class TestNormalMap:
    def test_example_vi_residual(self):
        p = get_problem("example-vi")
        ev = normal_map(p, [1.0, 1.0])
        np.testing.assert_array_equal(ev.r, [3.0, 4.0])
        assert ev.norm == 5.0

    def test_full_space_coincides_with_mapping(self):
        p = get_problem("example-vi")
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.uniform(-50, 50, 2)
            ev = normal_map(p, v)
            assert np.array_equal(ev.r, p.F(v))
            assert np.array_equal(ev.z, v)

    def test_box_identity_arithmetic(self):
        p = box_identity()
        ev = normal_map(p, [2.0, 0.5])
        np.testing.assert_array_equal(ev.z, [1.0, 0.5])
        np.testing.assert_array_equal(ev.r, [2.0, 0.5])

    def test_residual_reconstructs(self):
        p = get_problem("spd-box")
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.uniform(-5, 5, 2)
            ev = normal_map(p, v)
            assert np.array_equal(ev.r, ev.v - ev.z + p.F(ev.z))

    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_formula_bit_for_bit(self, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-3, 4, (m, m))
        lo = rng.choice([-np.inf, -1.0, 0.0], m)
        hi = rng.choice([0.0, 1.0, np.inf], m)
        p = VIProblem(affine_mapping(a, rng.standard_normal(m)), BoxSet(lo, hi))
        v = rng.uniform(-3.0, 3.0, m)
        z = project(p.set, v)
        r = v - z + p.F(z)
        ev = normal_map(p, v)
        assert ev.z.tobytes() == z.tobytes() and ev.r.tobytes() == r.tobytes()
        assert float(ev.norm).hex() == float(np.linalg.norm(r)).hex()

    @pytest.mark.parametrize("v, coordinate", [([0.2, 0.7, 0.9], 1), ([2.0, 0.1, 0.3], 0)])
    def test_nonfinite_mapping_raises_with_coordinate(self, v, coordinate):
        nan_above_half = Mapping(fn=lambda x: np.where(x > 0.5, np.nan, x), dim=3)
        p = VIProblem(nan_above_half, BoxSet([0.0] * 3, [1.0] * 3))
        with pytest.raises(EvaluationError) as direct:
            p.F(project(p.set, v))
        with pytest.raises(EvaluationError) as via_normal_map:
            normal_map(p, v)
        assert via_normal_map.value.coordinate == direct.value.coordinate == coordinate
        assert str(via_normal_map.value) == str(direct.value)

    def test_overflowing_builtin_mapping_raises(self):
        p = get_problem("cubic-free")
        with np.errstate(over="ignore"), pytest.raises(EvaluationError) as exc:
            normal_map(p, [1.0, 1e200])
        assert exc.value.coordinate == 1

    def test_overflowing_norm_of_finite_residual_is_inf(self):
        p = VIProblem(affine_mapping(np.eye(2)), BoxSet.full_space(2))
        with np.errstate(over="ignore"):
            ev = normal_map(p, [1e200, -1e200])
        assert np.all(np.isfinite(ev.r)) and ev.norm == np.inf

    @given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["affine", "rows", "fn"]))
    def test_stack_is_each_row_bit_for_bit(self, m, k, seed, kind):
        # Rows beyond 2 in coordinate 0 make F infinite in coordinate m - 1, and
        # rows of size 1e200 overflow the norm while F stays finite.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m))
        lo, hi = rng.choice([-np.inf, -1.0, 0.0], m), rng.choice([0.0, 1.0, np.inf], m)

        def fn(x):
            y = a @ x
            return np.where(np.arange(m) == m - 1, np.where(x[0] > 2.0, np.inf, y), y)

        def rows(xs):
            ys = np.matvec(a, xs)
            return np.where(np.arange(m) == m - 1, np.where(xs[:, :1] > 2.0, np.inf, ys), ys)

        mapping = (affine_mapping(a, rng.standard_normal(m)) if kind == "affine"
                   else Mapping(fn=fn, dim=m, rows=rows if kind == "rows" else None))
        p = VIProblem(mapping, BoxSet(lo, hi))
        vs = rng.uniform(-3.0, 3.0, (k, m)) * rng.choice([1.0, 1e200], (k, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = []
            for v in vs:
                try:
                    expected.append(point_form(p, v))
                except EvaluationError as e:
                    for points in (vs, v):
                        with pytest.raises(EvaluationError) as got:
                            normal_map(p, points)
                        assert (str(got.value), got.value.coordinate) == (str(e), e.coordinate)
                    return
            ev = normal_map(p, vs)
            points = [normal_map(p, v) for v in vs]
        assert ev.norm.shape == (k,) and all(type(one.norm) is float for one in points)
        for i, (z, r, norm) in enumerate(expected):
            for got_z, got_r, got_norm in ((ev.z[i], ev.r[i], float(ev.norm[i])), points[i][1:]):
                assert got_z.tobytes() == z.tobytes() and got_r.tobytes() == r.tobytes()
                assert got_norm.hex() == norm.hex()

    def test_eval_is_immutable(self):
        ev = normal_map(get_problem("example-vi"), [1.0, 1.0])
        for field in ("v", "z", "r", "norm"):
            with pytest.raises(AttributeError):
                setattr(ev, field, 0.0)


class TestNormalMapJacobianElement:
    def test_full_space_is_mapping_jacobian(self):
        p = get_problem("example-vi")
        a = np.array([[1.0, 2.0], [3.0, 1.0]])
        for v in ([0.0, 0.0], [7.0, -3.0]):
            np.testing.assert_array_equal(normal_map_jacobian_element(p, v), a)

    def test_all_outside_gives_identity(self):
        p = VIProblem(affine_mapping([[1.0, 2.0], [3.0, 1.0]]),
                      BoxSet([0.0, 0.0], [1.0, 1.0]))
        np.testing.assert_array_equal(normal_map_jacobian_element(p, [2.0, -1.0]),
                                      np.eye(2))

    def test_mixed_activity(self):
        p = VIProblem(affine_mapping([[1.0, 2.0], [3.0, 1.0]]),
                      BoxSet([0.0, 0.0], [1.0, 1.0]))
        np.testing.assert_array_equal(normal_map_jacobian_element(p, [2.0, 0.5]),
                                      [[1.0, 2.0], [0.0, 1.0]])

    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_formula_bit_for_bit(self, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, (m, m)) * rng.choice([1.0, 0.5, -0.0], (m, m))
        lo = rng.choice([-np.inf, -1.0, 0.0], m)
        hi = rng.choice([0.0, 1.0, np.inf], m)
        p = VIProblem(affine_mapping(a), BoxSet(lo, hi))
        v = rng.choice([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0], m)
        d = projection_jacobian_element(p.set, v)
        dense = np.eye(m) - np.diag(d) + a * d[np.newaxis, :]
        assert normal_map_jacobian_element(p, v).tobytes() == dense.tobytes()
        free = (lo < hi) & (v >= lo) & (v <= hi)  # the solver's boolean D
        assert _jacobian_element(jacobian(p, project(p.set, v)), free).tobytes() == dense.tobytes()

    def test_matches_finite_differences(self):
        for pid in ("example-vi", "identity-box", "spd-box"):
            p = get_problem(pid)
            rng = np.random.default_rng(10)
            checked = 0
            while checked < 20:
                v = rng.uniform(-3, 3, p.dim)
                if np.any(np.abs(v - p.set.lo) < 1e-3) or np.any(np.abs(v - p.set.hi) < 1e-3):
                    continue
                checked += 1
                j = normal_map_jacobian_element(p, v)
                jfd = fd_jacobian(lambda u: normal_map(p, u).r, v)
                assert np.max(np.abs(j - jfd)) < 1e-5


class TestCoercivityProbe:
    def test_identity_slopes(self):
        for m in (2, 5):
            p = VIProblem(affine_mapping(np.eye(m)), BoxSet.full_space(m))
            directions, norms = coercivity_probe(p)
            signs = np.tile([1.0, -1.0], m)[:, None]
            np.testing.assert_array_equal(directions, np.repeat(np.eye(m), 2, axis=0) * signs)
            np.testing.assert_array_equal(norms, np.tile(RAY_RADII, (2 * m, 1)))
            slopes = np.polyfit(np.log(RAY_RADII[4:]), np.log(norms[:, 4:]).T, 1)[0]
            assert np.all(np.abs(slopes - 1.0) < 0.01)
            assert coercivity_check(p).verdict == "pass"

    def test_example_vi_coercive(self):
        assert coercivity_check(get_problem("example-vi")).verdict == "pass"

    def test_constant_mapping_violation(self):
        p = VIProblem(affine_mapping(np.zeros((3, 3)), np.ones(3)), BoxSet.full_space(3))
        _, norms = coercivity_probe(p)
        assert np.all(norms[:, -1] < 2.0 * norms[:, 0])
        rep = coercivity_check(p)
        assert rep.verdict == "fail" and rep.witness["direction"] == [1.0, 0.0, 0.0]

    def test_spd_on_box_coercive(self):
        p = VIProblem(affine_mapping([[2.0, -1.0], [-1.0, 2.0]]),
                      BoxSet([0.0, 0.0], [1.0, 1.0]))
        assert coercivity_check(p).verdict == "pass"

    def test_deterministic(self):
        p = get_problem("example-vi")
        (da, a), (db, b) = coercivity_probe(p), coercivity_probe(p)
        assert da.tobytes() == db.tobytes() and a.tobytes() == b.tobytes()

    def test_nonfinite_ray_gets_nan_row(self):
        # F is NaN past |x_0| = 100: both rays along e_0 get NaN rows, the others none
        p = VIProblem(Mapping(fn=lambda x: np.where(abs(x[0]) > 100.0, np.nan, x), dim=2),
                      BoxSet.full_space(2))
        _, norms = coercivity_probe(p)
        assert np.all(np.isnan(norms[:2])) and np.all(np.isfinite(norms[2:]))

    def test_one_overflowing_ray_costs_few_calls(self, monkeypatch):
        # A = diag(1e305, 1, ..., 1) on [0, inf) x [-1, 1]^(m-1): F overflows
        # at radius 2048 of the ray +e_0, one of the 24m ray points.  The stack
        # is split in halves down to that row, and the table equals the one of
        # evaluating every point on its own, bit for bit.
        m = 10
        p = VIProblem(affine_mapping(np.diag(np.r_[1e305, np.ones(m - 1)])),
                      BoxSet(np.r_[0.0, -np.ones(m - 1)], np.r_[np.inf, np.ones(m - 1)]))
        module, calls = sys.modules["vibox.normal_map"], []

        def counted(p, v):
            calls.append(len(v))
            return normal_map(p, v)

        with monkeypatch.context() as patch, np.errstate(over="ignore"):
            patch.setattr(module, "normal_map", counted)
            directions, norms = coercivity_probe(p)
        assert len(calls) <= 20
        rows = []
        for v in (RAY_RADII[:, None] * directions[:, None, :]).reshape(-1, m):
            try:
                with np.errstate(over="ignore"):
                    rows.append(normal_map(p, v[None]).norm[0])
            except EvaluationError:
                rows.append(np.nan)
        expected = np.array(rows).reshape(norms.shape)
        expected[np.isnan(expected).any(axis=1)] = np.nan
        assert norms.tobytes() == expected.tobytes()
        assert np.isnan(norms[0]).all() and np.isfinite(norms[1:]).all()
