import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import (Branch, ContourTime, TimeGrid, ValidationError,
                      contour_compare, contour_key, contour_path)
from qcontour.contour import TIME_EPS, grid_index, same_time, same_times


def ct(t, tag):
    return ContourTime(t, Branch(tag))


class TestContourCompare:
    def test_forward_branch_follows_time(self):
        assert contour_compare(ct(1.0, "f"), ct(2.0, "f")) == -1

    def test_backward_branch_reverses_time(self):
        assert contour_compare(ct(1.0, "b"), ct(2.0, "b")) == 1

    def test_equal(self):
        assert contour_compare(ct(5.0, "f"), ct(5.0, "f")) == 0

    def test_forward_precedes_backward(self):
        assert contour_compare(ct(9.0, "f"), ct(0.0, "b")) == -1

    @given(st.lists(st.tuples(st.floats(-5, 5, allow_nan=False),
                              st.sampled_from(["f", "b"])),
                    min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_total_order(self, raw):
        points = [ct(t, tag) for t, tag in raw]
        for z1, z2 in itertools.product(points, repeat=2):
            assert contour_compare(z1, z2) == -contour_compare(z2, z1)
        for z1, z2, z3 in itertools.product(points, repeat=3):
            if contour_compare(z1, z2) <= 0 and contour_compare(z2, z3) <= 0:
                assert contour_compare(z1, z3) <= 0

    def test_branch_swap_reverses_order(self):
        # future-past symmetry: traversing the contour backwards is the same
        # as swapping every branch tag
        times = [0.0, 0.4, 1.1, 2.0]
        points = [ct(t, tag) for t in times for tag in "fb"]

        def swap(z):
            return ContourTime(z.t, z.branch.flipped())

        for z1, z2 in itertools.product(points, repeat=2):
            assert contour_compare(z1, z2) == \
                -contour_compare(swap(z1), swap(z2))

    def test_time_reflection_with_swap_maps_contour_onto_itself(self):
        # reversing the time axis and swapping tags permutes the contour
        # points without tearing adjacency: the sorted sequence maps to a
        # rotation of itself (grid chosen symmetric under the reflection)
        times = [0.0, 0.5, 1.5, 2.0]
        lo, hi = times[0], times[-1]
        points = sorted((ct(t, tag) for t in times for tag in "fb"),
                        key=contour_key)

        def reflect(z):
            return ContourTime(lo + hi - z.t, z.branch.flipped())

        images = [reflect(z) for z in points]
        half = len(points) // 2
        assert images == points[half:] + points[:half]


class TestTimeGrid:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            TimeGrid((0.0, 0.0, 1.0))

    def test_properties(self):
        g = TimeGrid((0.0, 1.0, 2.5))
        assert g.n_times == 3
        assert g.t_min == 0.0 and g.t_max == 2.5


class TestContourPath:
    def test_two_times(self):
        steps = contour_path(TimeGrid((1.0, 2.0)))
        assert steps == [
            (ct(1.0, "f"), ct(2.0, "f")),
            (ct(2.0, "b"), ct(1.0, "b")),
        ]

    def test_three_times_unrolled(self):
        # by hand: two forward steps then two backward steps
        steps = contour_path(TimeGrid((0.0, 1.0, 2.0)))
        assert steps == [
            (ct(0.0, "f"), ct(1.0, "f")),
            (ct(1.0, "f"), ct(2.0, "f")),
            (ct(2.0, "b"), ct(1.0, "b")),
            (ct(1.0, "b"), ct(0.0, "b")),
        ]

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_step_count_formula(self, n):
        grid = TimeGrid(tuple(float(i) for i in range(n)))
        assert len(contour_path(grid)) == 2 * (n - 1)

    def test_requires_two_times(self):
        with pytest.raises(ValidationError):
            contour_path(TimeGrid((1.0,)))

    def test_steps_are_adjacent_and_forward(self):
        grid = TimeGrid((0.0, 0.3, 1.0, 1.7))
        steps = contour_path(grid)
        # every step advances in contour order
        for step in steps:
            assert contour_compare(step.start, step.end) == -1
        # consecutive steps chain within a branch
        for a, b in zip(steps, steps[1:]):
            if a.end.branch == b.start.branch:
                assert a.end == b.start
        # the visited nodes, in order, are exactly the sorted contour points
        visited = [steps[0].start] + [s.end for s in steps[: grid.n_times - 1]]
        visited += [steps[grid.n_times - 1].start]
        visited += [s.end for s in steps[grid.n_times - 1:]]
        everything = [ContourTime(t, br) for br in (Branch.F, Branch.B)
                      for t in grid.times]
        assert visited == sorted(everything, key=contour_key)


class TestTimeMatching:
    def test_absolute_near_zero(self):
        assert same_time(0.0, TIME_EPS)
        assert not same_time(0.0, 3 * TIME_EPS)
        assert same_time(0.1 + 0.2, 0.3)

    def test_relative_far_from_zero(self):
        # one ulp apart at 1e4 is 1.8e-12, above the absolute tolerance
        assert same_time(1e4 + 0.1 + 0.2, 1e4 + 0.3)
        assert same_time(-1e9, -1e9 - 1e-4)
        assert not same_time(1e4, 1e4 + 1e-6)

    def test_array_matcher_makes_the_scalar_decisions(self):
        # pairs on and one ulp past the tolerance edge, absolute and
        # relative, far apart, and one infinite
        edge = 1e4 * TIME_EPS
        pairs = [(0.0, TIME_EPS), (0.0, math.nextafter(TIME_EPS, 1.0)),
                 (-TIME_EPS, 0.0), (1e4 + edge, 1e4),
                 (1e4, math.nextafter(1e4 + edge, math.inf)),
                 (0.1 + 0.2, 0.3), (1.0, 2.0), (math.inf, 1.0)]
        a, b = map(np.array, zip(*pairs))
        assert same_times(a, b).tolist() == [same_time(x, y)
                                             for x, y in pairs]
        assert same_times(a, b).tolist() != [True] * len(pairs) != \
            [False] * len(pairs)

    def test_grid_index(self):
        times = (0.0, 0.3, 1e4 + 0.3)
        assert grid_index(times, 0.1 + 0.2) == 1
        assert grid_index(times, 1e4 + 0.1 + 0.2) == 2
        assert grid_index(times, 0.5) is None
        assert grid_index((), 0.0) is None
