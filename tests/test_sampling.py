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
