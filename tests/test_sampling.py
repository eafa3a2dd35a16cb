import numpy as np
import pytest

from qcontour import ValidationError
from qcontour.sampling import (haar_unitary, random_hermitian, random_model,
                               random_schedule, random_state, rng_from_seed)


class TestDimensionIsACount:
    """Every seeded generator asks ``linalg.require_count`` for its
    dimension: at least 1, a Python or numpy integer, not a bool."""

    GENERATORS = {
        "random_state": lambda rng, dim: random_state(rng, dim),
        "random_hermitian": lambda rng, dim: random_hermitian(rng, dim),
        "haar_unitary": lambda rng, dim: haar_unitary(rng, dim),
        "random_schedule": lambda rng, dim: random_schedule(
            rng, (0.0, 1.0), dim),
        "random_model": lambda rng, dim: random_model(rng, (0.0, 1.0), dim,
                                                      1),
    }

    @pytest.mark.parametrize("name", GENERATORS)
    @pytest.mark.parametrize("dim, message", [
        # 2.5 used to fail inside numpy with TypeError; 0 gave an empty
        # state, or failed inside numpy with "zero-size array"
        (2.5, "dimension must be an integer, got 2.5"),
        (True, "dimension must be an integer, got True"),
        (0, "dimension must be at least 1, got 0"),
    ])
    def test_rejected(self, name, dim, message):
        with pytest.raises(ValidationError, match=message):
            self.GENERATORS[name](rng_from_seed(0), dim)

    @pytest.mark.parametrize("name", GENERATORS)
    def test_numpy_integer_accepted(self, name):
        a = self.GENERATORS[name](rng_from_seed(4), np.int64(3))
        b = self.GENERATORS[name](rng_from_seed(4), 3)
        if name == "random_model":
            a, b = a.bases, b.bases
        elif name == "random_schedule":
            a, b = a.segments[0][2], b.segments[0][2]
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("s_t, message", [
    # True, 1.0 and 2.0 passed ``s_t in (1, 2)``
    (True, "^s_t must be an integer, got True$"),
    (1.0, "^s_t must be an integer, got 1.0$"),
    (2.0, "^s_t must be an integer, got 2.0$"),
    (0, "^s_t must be at least 1, got 0$"),
    (3, "^s_t must be at most 2, got 3$"),
])
def test_random_model_reads_s_t_as_a_count(s_t, message):
    with pytest.raises(ValidationError, match=message):
        random_model(rng_from_seed(0), (0.0, 1.0), 2, s_t)


def test_random_model_takes_a_numpy_s_t():
    a = random_model(rng_from_seed(5), (0.0, 1.0), 2, np.int64(2))
    b = random_model(rng_from_seed(5), (0.0, 1.0), 2, 2)
    assert len(a.constraints) == len(b.constraints) == 2
    np.testing.assert_array_equal(a.constraints[1].state,
                                  b.constraints[1].state)


@pytest.mark.parametrize("times", [{0.0, 1.0}, {0.0: 1, 1.0: 0}, "01"])
def test_random_model_reads_its_times_as_a_sequence(times):
    # a set or a dict of times was read in its own order and built a model
    with pytest.raises(ValidationError,
                       match="^grid times must be a sequence of times, got "):
        random_model(rng_from_seed(0), times, 2, 1)
