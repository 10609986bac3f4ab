import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vibox import BoxSet, convg_hull_sample, project, projection_jacobian_element
from vibox.model import fd_jacobian


def loop_element(k, x, boundary_rule):
    """Reference: the element coordinate by coordinate, tie-breaks spelled out."""
    boundary_d = 1.0 if boundary_rule == "one" else 0.0
    d = []
    for lo, hi, xi in zip(k.lo, k.hi, x):
        if np.isinf(lo) and np.isinf(hi):
            d.append(1.0)  # free
        elif xi < lo or xi > hi:
            d.append(0.0)  # outside
        elif xi == lo or xi == hi:
            d.append(boundary_d)  # on a bound
        else:
            d.append(1.0)  # interior
    return np.array(d)


_BOUND = st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 1.5, np.inf]) | st.floats(-5, 5)


@st.composite
def box_and_point(draw):
    m = draw(st.integers(1, 8))
    # lo = hi = +-inf is an empty interval, which BoxSet rejects.
    interval = st.tuples(_BOUND, _BOUND).filter(lambda b: not (b[0] == b[1] and np.isinf(b[0])))
    pairs = [sorted(draw(interval)) for _ in range(m)]
    k = BoxSet.bounds([a for a, _ in pairs], [b for _, b in pairs])
    # Points on a bound, at +-inf, or anywhere: every branch of the tie-break.
    x = [draw(st.sampled_from([lo, hi, -np.inf, np.inf]) | st.floats(-6, 6))
         for lo, hi in zip(k.lo, k.hi)]
    return k, np.array(x)


class TestProject:
    def test_clamp(self):
        k = BoxSet.bounds([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(project(k, [2.0, -1.0]), [1.0, 0.0])

    def test_full_space_identity(self):
        k = BoxSet.full_space(2)
        x = np.array([3.7, -2.2])
        assert np.array_equal(project(k, x), x)

    def test_mixed_bounds(self):
        k = BoxSet.bounds([0.0, 0.0], [np.inf, 1.0])
        np.testing.assert_array_equal(project(k, [-1.0, 0.5]), [0.0, 0.5])

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(3)
        k = BoxSet.bounds([-1.0, 0.0, -np.inf], [1.0, 0.5, np.inf])
        for _ in range(100):
            x = rng.uniform(-5, 5, 3)
            once = project(k, x)
            assert np.array_equal(project(k, once), once)

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        k = BoxSet.bounds([-1.0, 0.0], [2.0, 1.0])
        for _ in range(1000):
            x, y = rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)
            assert (np.linalg.norm(project(k, x) - project(k, y))
                    <= np.linalg.norm(x - y) + 1e-15)


class TestProjectionJacobianElement:
    def test_interior_is_identity(self):
        k = BoxSet.bounds([0.0, 0.0], [1.0, 1.0])
        elem = projection_jacobian_element(k, [0.5, 0.5])
        np.testing.assert_array_equal(elem.d, [1.0, 1.0])

    def test_outside_coordinate_is_zero(self):
        k = BoxSet.bounds([0.0, 0.0], [1.0, 1.0])
        elem = projection_jacobian_element(k, [2.0, 0.5])
        np.testing.assert_array_equal(elem.d, [0.0, 1.0])

    def test_boundary_rule(self):
        k = BoxSet.bounds([0.0, 0.0], [1.0, 1.0])
        one = projection_jacobian_element(k, [0.0, 0.5], boundary_rule="one")
        zero = projection_jacobian_element(k, [0.0, 0.5], boundary_rule="zero")
        np.testing.assert_array_equal(one.d, [1.0, 1.0])
        np.testing.assert_array_equal(zero.d, [0.0, 1.0])

    def test_free_coordinate(self):
        k = BoxSet.bounds([-np.inf, 0.0], [np.inf, 1.0])
        elem = projection_jacobian_element(k, [100.0, 2.0])
        np.testing.assert_array_equal(elem.d, [1.0, 0.0])

    @given(box_and_point(), st.sampled_from(["one", "zero"]))
    def test_vectorized_element_matches_loop(self, case, rule):
        k, x = case
        elem = projection_jacobian_element(k, x, boundary_rule=rule)
        assert elem.d.tobytes() == loop_element(k, x, rule).tobytes()

    def test_element_keeps_its_point(self):
        k = BoxSet.bounds([0.0], [1.0])
        x = np.array([0.0])
        elem = projection_jacobian_element(k, x, boundary_rule="zero")
        x[0] = 0.5
        assert elem.d[0] == 0.0

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            projection_jacobian_element(BoxSet.full_space(1), [0.0], boundary_rule="half")

    def test_matches_finite_differences_away_from_bounds(self):
        k = BoxSet.bounds([-1.0, 0.0, -np.inf], [1.0, 2.0, np.inf])
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 30:
            x = rng.uniform(-3, 3, 3)
            near = (np.abs(x - k.lo) < 1e-3) | (np.abs(x - k.hi) < 1e-3)
            if np.any(near[np.isfinite(k.lo) | np.isfinite(k.hi)]):
                continue
            checked += 1
            elem = projection_jacobian_element(k, x)
            jfd = fd_jacobian(lambda u: project(k, u), x)
            assert np.max(np.abs(elem.matrix() - jfd)) < 1e-6


class TestConvGSample:
    def test_beta_zero_collapses_to_identity(self):
        samples = convg_hull_sample(2, beta_grid=(0.0,))
        assert len(samples) == 1
        np.testing.assert_array_equal(samples[0].matrix(), np.eye(2))

    def test_vertex(self):
        samples = convg_hull_sample(2, beta_grid=(1.0,))
        vertex = next(s for s in samples if np.array_equal(s.alpha, [1.0, 0.0]))
        np.testing.assert_array_equal(vertex.matrix(), np.diag([0.0, 1.0]))

    def test_barycenter(self):
        samples = convg_hull_sample(3, beta_grid=(1.0,))
        bary = next(s for s in samples if np.allclose(s.alpha, 1.0 / 3.0))
        np.testing.assert_allclose(np.diag(bary.matrix()), 2.0 / 3.0)

    def test_entries_in_unit_interval_and_reconstruction(self):
        for s in convg_hull_sample(4, alpha_samples=12, seed=9):
            d = np.diag(s.matrix())
            assert np.all(d >= 0.0) and np.all(d <= 1.0)
            recon = np.eye(4) - s.beta * np.diag(s.alpha)
            assert np.array_equal(s.matrix(), recon)
            assert abs(s.alpha.sum() - 1.0) < 1e-12 and np.all(s.alpha >= 0)

    def test_deterministic_given_seed(self):
        a = convg_hull_sample(3, alpha_samples=10, seed=17)
        b = convg_hull_sample(3, alpha_samples=10, seed=17)
        assert all(np.array_equal(x.alpha, y.alpha) and x.beta == y.beta
                   for x, y in zip(a, b))
