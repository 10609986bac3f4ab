import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from vibox import BoxSet, project, projection_jacobian_element
from vibox.model import fd_jacobian


def loop_element(k, x):
    """Reference: the element coordinate by coordinate, tie-breaks spelled out."""
    d = []
    for lo, hi, xi in zip(k.lo, k.hi, x):
        if lo == hi:
            d.append(0.0)  # fixed: the projection is constant there
        elif np.isinf(lo) and np.isinf(hi):
            d.append(1.0)  # free
        elif xi < lo or xi > hi:
            d.append(0.0)  # outside
        elif xi == lo or xi == hi:
            d.append(1.0)  # on a bound
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
    k = BoxSet([a for a, _ in pairs], [b for _, b in pairs])
    # Points on a bound, at +-inf, or anywhere: every branch of the tie-break.
    x = [draw(st.sampled_from([lo, hi, -np.inf, np.inf]) | st.floats(-6, 6))
         for lo, hi in zip(k.lo, k.hi)]
    return k, np.array(x)


class TestProject:
    def test_clamp(self):
        k = BoxSet([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(project(k, [2.0, -1.0]), [1.0, 0.0])

    def test_full_space_identity(self):
        k = BoxSet.full_space(2)
        x = np.array([3.7, -2.2])
        assert np.array_equal(project(k, x), x)

    def test_mixed_bounds(self):
        k = BoxSet([0.0, 0.0], [np.inf, 1.0])
        np.testing.assert_array_equal(project(k, [-1.0, 0.5]), [0.0, 0.5])

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(3)
        k = BoxSet([-1.0, 0.0, -np.inf], [1.0, 0.5, np.inf])
        for _ in range(100):
            x = rng.uniform(-5, 5, 3)
            once = project(k, x)
            assert np.array_equal(project(k, once), once)

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        k = BoxSet([-1.0, 0.0], [2.0, 1.0])
        for _ in range(1000):
            x, y = rng.uniform(-10, 10, 2), rng.uniform(-10, 10, 2)
            assert (np.linalg.norm(project(k, x) - project(k, y))
                    <= np.linalg.norm(x - y) + 1e-15)


class TestProjectionJacobianElement:
    def test_interior_is_identity(self):
        k = BoxSet([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(projection_jacobian_element(k, [0.5, 0.5]), [1.0, 1.0])

    def test_outside_coordinate_is_zero(self):
        k = BoxSet([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(projection_jacobian_element(k, [2.0, 0.5]), [0.0, 1.0])

    def test_boundary_rule(self):
        k = BoxSet([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_array_equal(projection_jacobian_element(k, [0.0, 0.5]), [1.0, 1.0])

    def test_fixed_coordinate_is_zero(self):
        k = BoxSet([0.5, -0.0, 0.0], [0.5, 0.0, 1.0])
        np.testing.assert_array_equal(projection_jacobian_element(k, [0.5, 0.0, 0.5]),
                                      [0.0, 0.0, 1.0])

    def test_free_coordinate(self):
        k = BoxSet([-np.inf, 0.0], [np.inf, 1.0])
        np.testing.assert_array_equal(projection_jacobian_element(k, [100.0, 2.0]), [1.0, 0.0])

    @given(box_and_point())
    def test_vectorized_element_matches_loop(self, case):
        k, x = case
        assert projection_jacobian_element(k, x).tobytes() == loop_element(k, x).tobytes()

    def test_element_keeps_its_point(self):
        k = BoxSet([0.0], [1.0])
        x = np.array([0.5])
        d = projection_jacobian_element(k, x)
        x[0] = 2.0
        assert d[0] == 1.0
        assert not d.flags.writeable

    def test_matches_finite_differences_away_from_bounds(self):
        k = BoxSet([-1.0, 0.0, -np.inf], [1.0, 2.0, np.inf])
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 30:
            x = rng.uniform(-3, 3, 3)
            near = (np.abs(x - k.lo) < 1e-3) | (np.abs(x - k.hi) < 1e-3)
            if np.any(near[np.isfinite(k.lo) | np.isfinite(k.hi)]):
                continue
            checked += 1
            d = projection_jacobian_element(k, x)
            jfd = fd_jacobian(lambda u: project(k, u), x)
            assert np.max(np.abs(np.diag(d) - jfd)) < 1e-6
