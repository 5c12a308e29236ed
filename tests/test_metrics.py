"""Tests for the interval metric, trajectory metric, and cone predicates."""

import numpy as np
import pytest

from _metrics_reference import reference_d_T, reference_delta_T
from fireline.rng import RngStream
from fireline.scales import (
    Trajectory,
    cone_contains,
    cone_segment_contains,
    d_T,
    delta_interval,
    delta_T,
    uniform_grid,
)


def random_interval(stream):
    if stream.next_unit() < 0.1:
        return None
    a = stream.uniform(-5.0, 5.0)
    b = a + stream.uniform(0.0, 4.0)
    return (a, b)


def test_delta_interval_examples():
    assert delta_interval((1.0, 3.0), None) == 2.0
    assert delta_interval(None, (1.0, 3.0)) == 2.0
    assert delta_interval((0.0, 2.0), (1.0, 5.0)) == 4.0
    assert delta_interval(None, None) == 0.0


def test_delta_interval_metric_axioms():
    # delta is a metric on NONEMPTY intervals; through the empty interval it
    # is only a gauge (the triangle inequality genuinely fails there).
    s = RngStream(42, 0)

    def nonempty():
        a = s.uniform(-5.0, 5.0)
        return (a, a + s.uniform(0.0, 4.0))

    for _ in range(10_000):
        i, j, k = nonempty(), nonempty(), nonempty()
        dij = delta_interval(i, j)
        assert dij >= 0.0
        assert dij == delta_interval(j, i)
        assert delta_interval(i, i) == 0.0
        assert (dij == 0.0) == (i == j)
        assert delta_interval(i, k) <= dij + delta_interval(j, k) + 1e-12


def test_d_T_value_gap_example():
    grid = uniform_grid(2.0, 101)
    n = len(grid)
    t1 = Trajectory(grid, np.zeros(n), [None] * n)
    t2 = Trajectory(grid, np.ones(n), [None] * n)
    assert d_T(t1, t2) == pytest.approx(2.0, rel=1e-12)


def test_d_T_interval_jump_example():
    # trajectories equal except the interval differs by delta = 3 on [1, 2)
    grid = np.linspace(0.0, 2.0, 5)  # cells of width 0.5
    base = [(0.0, 1.0)] * 5
    other = [(0.0, 1.0), (0.0, 1.0), (0.0, 4.0), (0.0, 4.0), (0.0, 1.0)]
    t1 = Trajectory(grid, np.zeros(5), base)
    t2 = Trajectory(grid, np.zeros(5), other)
    assert d_T(t1, t2) == pytest.approx(3.0, rel=1e-12)
    assert delta_T(t1, t2) == pytest.approx(3.0, rel=1e-12)


def test_d_T_rejects_mismatched_grids():
    g1 = uniform_grid(1.0, 11)
    g2 = uniform_grid(1.0, 12)
    t1 = Trajectory(g1, np.zeros(11), [None] * 11)
    t2 = Trajectory(g2, np.zeros(12), [None] * 12)
    with pytest.raises(ValueError):
        d_T(t1, t2)


def test_d_T_zero_iff_equal_on_grid():
    s = RngStream(9, 9)
    grid = uniform_grid(3.0, 64)
    n = len(grid)
    vals = np.array([s.uniform(0.0, 1.0) for _ in range(n)])
    ints = [random_interval(s) for _ in range(n)]
    t1 = Trajectory(grid, vals, ints)
    t2 = Trajectory(grid, vals.copy(), list(ints))
    assert d_T(t1, t2) == 0.0
    vals2 = vals.copy()
    vals2[5] += 0.5
    assert d_T(t1, Trajectory(grid, vals2, list(ints))) > 0.0


def test_d_T_additive_over_windows():
    s = RngStream(10, 3)
    grid = uniform_grid(2.0, 41)
    n = len(grid)

    def rand_traj():
        vals = np.array([s.uniform(0.0, 2.0) for _ in range(n)])
        ints = [random_interval(s) for _ in range(n)]
        return Trajectory(grid, vals, ints)

    t1, t2 = rand_traj(), rand_traj()
    cut = 20
    left = d_T(
        Trajectory(grid[: cut + 1], t1.values[: cut + 1], t1.intervals[: cut + 1]),
        Trajectory(grid[: cut + 1], t2.values[: cut + 1], t2.intervals[: cut + 1]),
    )
    right = d_T(
        Trajectory(grid[cut:], t1.values[cut:], t1.intervals[cut:]),
        Trajectory(grid[cut:], t2.values[cut:], t2.intervals[cut:]),
    )
    assert left + right == pytest.approx(d_T(t1, t2), rel=1e-12)


@pytest.mark.parametrize("points", [2, 3, 64, 512])
def test_d_T_and_delta_T_equal_the_sequential_loops(points):
    # the array sums must keep the bits of the frozen loops, on uneven grids
    # and with empty intervals on either side
    s = RngStream(11, points)
    for _ in range(20):
        grid = np.cumsum([s.uniform(0.0, 0.5)] + [s.uniform(1e-9, 0.5) for _ in range(points - 1)])
        t1, t2 = (
            Trajectory(grid, np.array([s.uniform(-1.0, 2.0) for _ in range(points)]),
                       [random_interval(s) for _ in range(points)])
            for _ in range(2)
        )
        assert d_T(t1, t2).hex() == reference_d_T(t1, t2).hex()
        assert delta_T(t1, t2).hex() == reference_delta_T(t1, t2).hex()
        # a trajectory against itself, and both intervals empty at every point
        assert d_T(t1, t1) == reference_d_T(t1, t1) == 0.0
        empty = Trajectory(grid, t1.values, [None] * points)
        assert delta_T(empty, empty) == reference_delta_T(empty, empty) == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros(3), [None] * 3)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros(3), [None] * 2)
    with pytest.raises(ValueError):
        uniform_grid(0.0)
    # a T too small for distinct grid times
    with pytest.raises(ValueError, match="too small"):
        uniform_grid(5e-324, 64)
    assert uniform_grid(5e-324, 2).tolist() == [0.0, 5e-324]


def test_cone_membership_examples():
    assert cone_contains(1.0, (0.0, 5.0), (2.0, 3.0), "past")
    assert cone_contains(0.0, (0.0, 5.0), (7.0, 5.0), "past")
    assert not cone_contains(2.0, (0.0, 5.0), (1.0, 4.0), "past")
    # negative times are never members
    assert not cone_contains(1.0, (0.0, 1.0), (5.0, -4.0), "past")


def test_cone_membership_and_duality():
    s = RngStream(77, 0)
    checked = 0
    while checked < 2000:
        p = s.uniform(0.0, 3.0)
        x, t = s.uniform(-4.0, 4.0), s.uniform(0.0, 5.0)
        y = s.uniform(-4.0, 4.0)
        past = t - p * abs(y - x)
        if past < 0.0:
            continue
        checked += 1
        assert cone_contains(p, (x, t), (y, past), "past")
        # duality: (y,s) in past cone of (x,t) iff (x,t) in future cone of (y,s)
        assert cone_contains(p, (y, past), (x, t), "future")
        assert not cone_contains(p, (x, t), (y, past + 1e-3), "past")


def test_cone_p_zero_is_horizontal():
    assert cone_contains(0.0, (0.0, 2.0), (100.0, 2.0), "past")
    assert cone_contains(0.0, (0.0, 2.0), (-3.0, 2.0), "future")
    assert not cone_contains(0.0, (0.0, 2.0), (0.5, 2.1), "past")


def test_cone_argument_validation():
    with pytest.raises(ValueError):
        cone_contains(-1.0, (0.0, 0.0), (0.0, 0.0), "past")
    with pytest.raises(ValueError):
        cone_contains(1.0, (0.0, 0.0), (0.0, 0.0), "sideways")


def test_cone_segment_contains():
    p = 2.0
    apex = (0.0, 4.0)
    endpoint = (-1.5, 4.0 - p * 1.5)  # on the past cone, left branch
    mid = (-0.75, 4.0 - p * 0.75)
    assert cone_segment_contains(p, apex, endpoint, mid)
    assert cone_segment_contains(p, apex, endpoint, apex)
    assert cone_segment_contains(p, apex, endpoint, endpoint)
    # off the branch range
    assert not cone_segment_contains(p, apex, endpoint, (0.75, 4.0 - p * 0.75))
    # correct x but wrong time
    assert not cone_segment_contains(p, apex, endpoint, (-0.75, 1.0))
    with pytest.raises(ValueError):
        cone_segment_contains(p, apex, (-1.5, 0.0), mid)
