import math

import numpy as np
import pytest

from qcontour import ValidationError, contour_path
from qcontour.contour import TIME_EPS, grid_index, same_time, same_times


@pytest.mark.parametrize("n", range(2, 10))
def test_contour_path_is_the_doubled_walk(n):
    path = contour_path(n)
    assert len(path) == 2 * (n - 1)
    # it starts at the first slot, and each step moves one slot and
    # starts where the one before it ended
    assert path[0][0] == 0
    assert all(abs(k - l) == 1 for k, l in path)
    assert all(a[1] == b[0] for a, b in zip(path, path[1:]))
    # every forward step (k < l) comes first; each branch visits every
    # slot once
    forward = [step for step in path if step[0] < step[1]]
    backward = path[len(forward):]
    assert path[:len(forward)] == forward
    for branch in (forward, backward):
        visited = [branch[0][0]] + [l for _, l in branch]
        assert sorted(visited) == list(range(n))
    # time symmetry: the path run backwards, each step swapped, is itself
    assert [(l, k) for k, l in reversed(path)] == path


@pytest.mark.parametrize("n_times", [1, 0, True, 2.0])
def test_contour_path_takes_an_integer_count_of_at_least_two(n_times):
    with pytest.raises(ValidationError, match="^grid times must be"):
        contour_path(n_times)


@pytest.mark.parametrize("n_times", [10 ** 6 + 1, 2 ** 62])
def test_contour_path_refuses_a_grid_beyond_the_ceiling(n_times):
    # 2**62 began to build a list of 2**63 - 2 steps
    with pytest.raises(ValidationError, match="^grid times must be at most "
                                              f"1000000, got {n_times}$"):
        contour_path(n_times)


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
