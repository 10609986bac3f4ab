from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vibox import (BoxSet, ConfigurationError, EvaluationError, Mapping, VIProblem,
                   affine_mapping, builtin_mapping, get_problem, jacobian, make_game)
from vibox.model import as_vector


def example_game():
    return make_game(
        block_sizes=(1, 1),
        q={(0, 0): [[1.0]], (0, 1): [[2.0]], (1, 0): [[3.0]], (1, 1): [[1.0]]},
        c=([0.0], [0.0]),
        box=BoxSet(np.full(2, -np.inf), np.full(2, np.inf), blocks=(1, 1)),
    )


class TestGameToVI:
    def test_example_game_mapping_and_jacobian(self):
        p = example_game()
        x = np.array([1.0, 1.0])
        assert np.array_equal(p.F(x), [3.0, 4.0])
        np.testing.assert_array_equal(p.F(np.array([2.0, -1.0])), [0.0, 5.0])
        np.testing.assert_array_equal(jacobian(p, x), [[1.0, 2.0], [3.0, 1.0]])

    def test_single_player_identity(self):
        p = make_game((2,), {(0, 0): np.eye(2)}, (np.zeros(2),),
                      BoxSet(np.full(2, -np.inf), np.full(2, np.inf), blocks=(2,)))
        x = np.array([0.3, -0.7])
        np.testing.assert_array_equal(p.F(x), x)
        np.testing.assert_array_equal(jacobian(p, x), np.eye(2))

    def test_decoupled_constant_costs(self):
        p = make_game((1, 1), {(0, 0): [[0.0]], (1, 1): [[0.0]]},
                      ([2.0], [-3.0]),
                      BoxSet(np.full(2, -np.inf), np.full(2, np.inf), blocks=(1, 1)))
        for x in (np.zeros(2), np.array([5.0, -5.0])):
            np.testing.assert_array_equal(p.F(x), [2.0, -3.0])
        np.testing.assert_array_equal(jacobian(p, np.ones(2)), np.zeros((2, 2)))

    def test_block_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_game((1, 1), {(0, 0): [[1.0]], (1, 1): [[1.0]]}, ([0.0], [0.0]),
                      BoxSet(np.full(3, -np.inf), np.full(3, np.inf), blocks=(1, 2)))

    def test_asymmetric_own_block_rejected(self):
        # the second block is symmetric to within np.allclose's default rtol
        for qii in ([[1.0, 2.0], [0.0, 1.0]], [[1.0, 1.0 + 5e-6], [1.0, 1.0]]):
            with pytest.raises(ConfigurationError):
                make_game((2,), {(0, 0): qii}, (np.zeros(2),),
                          BoxSet(np.full(2, -np.inf), np.full(2, np.inf), blocks=(2,)))

    @pytest.mark.parametrize("q, c, message", [
        ({(1, 1): [[1.0]]}, ([0.0], [0.0]), "missing own-block matrix for player 0"),
        ({(0, 0): [1.0], (1, 1): [[1.0]]}, ([0.0], [0.0]), "own-block of player 0 has wrong"),
        ({(0, 0): [[1.0]], (1, 1): [[1.0]], (0, 1): [[1.0, 2.0]]}, ([0.0], [0.0]),
         r"cross block \(0,1\) has wrong shape"),
        ({(0, 0): [[1.0]], (1, 1): [[1.0]]}, ([0.0], [0.0, 1.0]),
         "linear term of player 1 has wrong length"),
        ({(0, 0): [[1.0]], (1, 1): [[1.0]]}, ([0.0],), "1 linear terms for 2 players"),
        ({(0, 0): [[1.0]], (1, 1): [[1.0]]}, ([0.0], [0.0], [0.0]),
         "3 linear terms for 2 players"),
        ({(0, 0): [[1.0]], (1, 1): [[1.0]], (0, -1): [[1.0]]}, ([0.0], [0.0]),
         r"key \(0, -1\) is outside \[0, 2\)"),
        ({(0, 0): [[1.0]], (1, 1): [[1.0]], (2, 0): [[1.0]]}, ([0.0], [0.0]),
         r"key \(2, 0\) is outside"),
    ])
    def test_malformed_game_rejected_with_its_message(self, q, c, message):
        # a negative key would otherwise wrap around to the last player's block
        with pytest.raises(ConfigurationError, match=message):
            make_game((1, 1), q, c, BoxSet([0.0, 0.0], [1.0, 1.0], (1, 1)))

    @given(st.lists(st.tuples(st.integers(1, 2), st.sampled_from(["ok", "missing", "asym"]),
                              st.booleans()), min_size=1, max_size=4))
    def test_first_player_at_fault_is_named(self, players):
        # Per player in turn: own block present, then symmetric, then c long enough.
        sizes = tuple(s for s, _, _ in players)
        q, c, expected = {}, [], None
        for i, (s, own, c_ok) in enumerate(players):
            if own != "missing":
                q[(i, i)] = np.eye(s) + (np.triu(np.ones((s, s)), 1) if own == "asym" else 0.0)
            c.append(np.zeros(s if c_ok else s + 1))
            fault = ("missing own-block matrix" if own == "missing"
                     else "not symmetric" if own == "asym" and s > 1
                     else None if c_ok else "linear term")
            if expected is None and fault:
                expected = (i, fault)
        box = BoxSet([-1.0] * sum(sizes), [1.0] * sum(sizes), sizes)
        if expected is None:
            make_game(sizes, q, c, box)
            return
        with pytest.raises(ConfigurationError) as e:
            make_game(sizes, q, c, box)
        assert f"player {expected[0]}" in str(e.value) and expected[1] in str(e.value)

    def test_caller_writes_leave_the_game_unchanged(self):
        q = {(0, 0): np.eye(2), (0, 1): np.ones((2, 1)), (1, 1): np.array([[3.0]])}
        c = [np.array([1.0, 2.0]), np.array([-1.0])]
        p = make_game((2, 1), q, c, BoxSet([-1.0] * 3, [1.0] * 3, (2, 1)))
        a, b = p.mapping.data["A"].copy(), p.mapping.data["b"].copy()
        q[(0, 0)][0, 1] = 7.0  # an asymmetric own block, had it been seen
        q[(0, 1)][:] = 5.0
        c[0][:] = 9.0
        assert all(v.flags.writeable for v in (*q.values(), *c))
        assert np.array_equal(p.mapping.data["A"], a) and np.array_equal(p.mapping.data["b"], b)
        np.testing.assert_array_equal(p.F(np.zeros(3)), [1.0, 2.0, -1.0])


class TestJacobian:
    def test_affine_is_exact_and_constant(self):
        p = get_problem("example-vi")
        a = np.array([[1.0, 2.0], [3.0, 1.0]])
        rng = np.random.default_rng(0)
        mats = [jacobian(p, rng.uniform(-5, 5, 2)) for _ in range(10)]
        for m in mats:
            assert np.array_equal(m, a)

    def test_affine_jacobian_is_read_only(self):
        a = np.array([[1.0, 2.0], [3.0, 1.0]])
        j = affine_mapping(a).jac(np.zeros(2))
        assert not j.flags.writeable
        with pytest.raises(ValueError):
            j[0, 0] = 5.0
        assert np.array_equal(j, [[1.0, 2.0], [3.0, 1.0]])

    def test_affine_mapping_leaves_caller_arrays_writable(self):
        a, b = np.eye(2), np.ones(2)
        f = affine_mapping(a, b)
        assert a.flags.writeable and b.flags.writeable
        assert not f.jac(np.zeros(2)).flags.writeable
        assert not f.data["A"].flags.writeable and not f.data["b"].flags.writeable
        assert np.shares_memory(f.data["A"], a) and np.shares_memory(f.data["b"], b)

    def test_identity_mapping(self):
        p = VIProblem(affine_mapping(np.eye(3)), BoxSet.full_space(3))
        np.testing.assert_array_equal(jacobian(p, np.array([1.0, -2.0, 0.5])), np.eye(3))

    def test_cubic_finite_difference_close_to_analytic(self):
        cubic = builtin_mapping("cubic", 1)
        p_fd = VIProblem(Mapping(fn=cubic.fn, dim=1), BoxSet.full_space(1))
        j = jacobian(p_fd, np.array([1.0]))
        assert abs(j[0, 0] - 3.0) < 1e-6

    def test_fd_matches_analytic_for_builtins(self):
        rng = np.random.default_rng(42)
        for mid in ("cubic", "cubic-plus-linear"):
            mapping = builtin_mapping(mid, 3)
            p_an = VIProblem(mapping, BoxSet.full_space(3))
            p_fd = VIProblem(Mapping(fn=mapping.fn, dim=3), BoxSet.full_space(3))
            for _ in range(10):
                x = rng.uniform(-2, 2, 3)
                err = np.max(np.abs(jacobian(p_an, x) - jacobian(p_fd, x)))
                assert err < 1e-5

    def test_game_jacobian_equals_block_assembly(self):
        p = example_game()
        expected = np.array([[1.0, 2.0], [3.0, 1.0]])
        for x in (np.zeros(2), np.array([4.0, -1.0])):
            assert np.array_equal(jacobian(p, x), expected)
            assert np.array_equal(p.mapping.data["A"], expected)

    def test_nonfinite_evaluation_reports_coordinate(self):
        bad = Mapping(fn=lambda x: np.array([x[0], np.sqrt(x[1])]), dim=2)
        p = VIProblem(bad, BoxSet.full_space(2))
        with pytest.raises(EvaluationError) as exc, np.errstate(invalid="ignore"):
            p.F(np.array([1.0, -1.0]))
        assert exc.value.coordinate == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            VIProblem(affine_mapping(np.eye(2)), BoxSet.full_space(3))


_ENTRY = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])
_POINT = st.floats(-1e120, 1e120) | st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e200])


@st.composite
def mappings(draw):
    """An affine, game-gradient (blocks of 1 and 2 coordinates) or builtin
    mapping of dimension 1 to 12, or one of them with ``rows`` removed."""
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["affine", "game", "cubic", "cubic-plus-linear"]))
    if kind == "affine":
        f = affine_mapping(draw(hnp.arrays(float, (m, m), elements=_ENTRY)),
                           draw(hnp.arrays(float, m, elements=_ENTRY)))
    elif kind == "game":
        sizes = []
        while sum(sizes) < m:
            sizes.append(min(draw(st.integers(1, 2)), m - sum(sizes)))
        a = draw(hnp.arrays(float, (m, m), elements=_ENTRY))
        a = np.tril(a) + np.tril(a, -1).T  # symmetric, so every own block is
        edges = np.cumsum([0, *sizes])
        q = {(i, j): a[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
             for i in range(len(sizes)) for j in range(len(sizes))}
        c = [draw(hnp.arrays(float, n, elements=_ENTRY)) for n in sizes]
        box = BoxSet(np.full(m, -np.inf), np.full(m, np.inf), blocks=sizes)
        f = make_game(sizes, q, c, box).mapping
    else:
        f = builtin_mapping(kind, m)
    return replace(f, rows=None) if draw(st.booleans()) else f


class TestStackedEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rows_equal_fn_bit_for_bit(self, data):
        f = data.draw(mappings())
        xs = data.draw(hnp.arrays(float, (data.draw(st.integers(0, 8)), f.dim),
                                  elements=st.floats(-1e3, 1e3)
                                  | st.sampled_from([0.0, -0.0, 1e-300])))
        ys = f.on_rows(xs)
        assert ys.shape == xs.shape
        expected = np.array([np.asarray(f.fn(x), dtype=float) for x in xs]).reshape(xs.shape)
        assert ys.tobytes() == expected.tobytes()  # signbit included
        assert np.array_equal(np.signbit(ys), np.signbit(expected))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_nonfinite_row_raises_the_first_per_point_error(self, data):
        f = data.draw(mappings())
        xs = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 6)), f.dim),
                                  elements=_POINT))
        with np.errstate(all="ignore"):
            first = None
            for x in xs:
                try:
                    f(x)
                except EvaluationError as e:
                    first = e
                    break
            if first is None:
                assert f.on_rows(xs).shape == xs.shape
                return
            with pytest.raises(EvaluationError) as exc:
                f.on_rows(xs)
        assert exc.value.coordinate == first.coordinate and str(exc.value) == str(first)

    def test_zero_rows(self):
        for f in (affine_mapping(np.eye(3)), builtin_mapping("cubic", 3),
                  replace(builtin_mapping("cubic", 3), rows=None)):
            assert f.on_rows(np.empty((0, 3))).shape == (0, 3)

    def test_stack_of_the_wrong_shape_rejected(self):
        f = affine_mapping(np.eye(3))
        for xs in (np.zeros(3), np.zeros((2, 2)), np.zeros((1, 2, 3))):
            with pytest.raises(ConfigurationError):
                f.on_rows(xs)


class TestBoxSet:
    def test_caller_bounds_stay_writable_and_unshared(self):
        lo = np.zeros(2)
        hi = lo + 1.0
        k = BoxSet(lo, hi)
        assert lo.flags.writeable and hi.flags.writeable
        assert not k.lo.flags.writeable and not k.hi.flags.writeable
        lo[0], hi[1] = 5.0, -5.0  # would give lo > hi, had the box kept the arrays
        np.testing.assert_array_equal(k.lo, [0.0, 0.0])
        np.testing.assert_array_equal(k.hi, [1.0, 1.0])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            BoxSet(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("lo, hi", [([np.nan], [1.0]), ([0.0], [np.nan]),
                                        ([0.0, -np.inf], [1.0, np.nan])])
    def test_nan_bounds_rejected(self, lo, hi):
        with pytest.raises(ConfigurationError, match="NaN"):
            BoxSet(lo, hi)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_empty_infinite_interval_rejected(self, inf):
        with pytest.raises(ConfigurationError, match="empty"):
            BoxSet([0.0, inf], [1.0, inf])

    @given(st.lists(st.tuples(*[st.sampled_from([np.nan, -np.inf, -1.0, 0.0, 1.0, np.inf])] * 2),
                    max_size=4))
    def test_first_rule_broken_is_named(self, bounds):
        # NaN anywhere first, then lo > hi anywhere, then lo = hi = +-inf.
        lo, hi = np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds])
        expected = ("NaN" if np.isnan(lo).any() or np.isnan(hi).any()
                    else "lo > hi" if (lo > hi).any()
                    else "empty" if ((lo == hi) & np.isinf(lo)).any() else None)
        if expected is None:
            assert BoxSet(lo, hi).dim == len(bounds)
            return
        with pytest.raises(ConfigurationError, match=expected):
            BoxSet(lo, hi)

    def test_contains(self):
        k = BoxSet([0.0, -np.inf], [1.0, np.inf])
        assert k.contains([0.5, 100.0])
        assert not k.contains([-0.1, 0.0])


class TestInputValidation:
    @pytest.mark.parametrize("build", [
        lambda: as_vector(np.zeros((2, 2))),
        lambda: as_vector(np.zeros(3), 2),
        lambda: BoxSet([0.0, 0.0], [1.0]),
        lambda: BoxSet(np.zeros((2, 1)), np.ones((2, 1))),
        lambda: BoxSet([0.0, 0.0], [1.0, 1.0], (1, 0, 1)),
        lambda: BoxSet([0.0, 0.0], [1.0, 1.0], (1, 2)),
        lambda: affine_mapping(np.zeros((2, 3))),
        lambda: affine_mapping(np.zeros(3)),
        lambda: make_game((), {}, (), BoxSet([0.0], [1.0], None)),
    ], ids=["vector-shape", "vector-length", "bounds-unequal", "bounds-2d", "blocks-zero",
            "blocks-sum", "affine-non-square", "affine-1d", "game-no-players"])
    def test_rejected_with_configuration_error(self, build):
        with pytest.raises(ConfigurationError):
            build()
