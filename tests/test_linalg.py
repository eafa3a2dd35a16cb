import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import (DimensionMismatchError, HamiltonianSchedule,
                      ValidationError, check_unitary, complete_basis, inner,
                      is_orthonormal, is_projector, projector, propagate,
                      tensor)
from qcontour.linalg import (as_square, as_state, require_count, require_dim,
                             require_orthonormal, require_tolerance)
from qcontour.sampling import random_hermitian, random_state, rng_from_seed

from toys import E0, E1, SX, SZ


class TestInner:
    def test_identity_case(self):
        assert inner(E0, E0) == pytest.approx(1.0)

    def test_orthogonality(self):
        assert inner(E0, E1) == pytest.approx(0.0)

    def test_superposition_overlap(self):
        # hand expansion: <(|0>+|1>)/sqrt2 | 0> = 1/sqrt2
        assert inner((E0 + E1) / math.sqrt(2), E0) == \
            pytest.approx(1 / math.sqrt(2))

    def test_conjugate_linear_in_first_argument(self):
        rng = rng_from_seed(1)
        psi, phi = random_state(rng, 4), random_state(rng, 4)
        a = 0.3 - 0.8j
        assert inner(a * psi, phi) == pytest.approx(np.conj(a) * inner(psi, phi))

    def test_self_overlap_is_squared_norm(self):
        rng = rng_from_seed(2)
        psi = 1.7 * random_state(rng, 5)
        assert abs(inner(psi, psi)) == pytest.approx(np.linalg.norm(psi) ** 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(E0, np.ones(3) / math.sqrt(3))


class TestTensor:
    def test_basis_case(self):
        np.testing.assert_allclose(tensor(E0, E0), [1, 0, 0, 0])

    def test_identity_case(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_kronecker_ordering(self):
        # sigma_x on the left factor maps |00> to |10>
        out = tensor(SX, np.eye(2)) @ np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(out, [0, 0, 1, 0])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValidationError):
            tensor(E0, np.eye(2))

    @given(seed=st.integers(0, 10 ** 6), da=st.integers(2, 3),
           db=st.integers(2, 3), dc=st.integers(2, 3))
    @settings(max_examples=50, deadline=None)
    def test_associative_up_to_relabeling(self, seed, da, db, dc):
        rng = rng_from_seed(seed)
        a, b, c = (random_state(rng, d) for d in (da, db, dc))
        np.testing.assert_allclose(tensor(tensor(a, b), c),
                                   tensor(a, tensor(b, c)), atol=1e-12)


def constant_propagator(h, theta):
    """exp(-i theta H) for |theta| <= 10: the propagator over theta of the
    constant generator H (for negative theta, the backward propagator)."""
    return propagate(HamiltonianSchedule.constant(h, -10.0, 10.0), 0.0, theta)


class TestHermitianExp:
    def test_zero_angle(self):
        rng = rng_from_seed(3)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(constant_propagator(h, 0.0), np.eye(4),
                                   atol=1e-14)

    def test_sigma_x_half_pi(self):
        # closed form cos(theta) I - i sin(theta) sigma_x at theta = pi/2
        np.testing.assert_allclose(constant_propagator(SX, math.pi / 2),
                                   -1j * SX, atol=1e-12)

    def test_sigma_z_pi(self):
        # per-eigenvalue exponentials: diag(e^{-i pi}, e^{+i pi}) = -I
        np.testing.assert_allclose(constant_propagator(SZ, math.pi),
                                   np.diag([-1.0, -1.0]), atol=1e-12)

    def test_matches_expm_oracle(self):
        for seed in range(25):
            rng = rng_from_seed(seed)
            h = random_hermitian(rng, 5)
            theta = float(rng.uniform(-3, 3))
            expected = scipy.linalg.expm(-1j * theta * h)
            np.testing.assert_allclose(constant_propagator(h, theta),
                                       expected, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            constant_propagator(np.array([[0, 1], [0, 0]], dtype=complex),
                                1.0)

    @given(seed=st.integers(0, 10 ** 6),
           theta=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_inverse_property(self, seed, theta):
        rng = rng_from_seed(seed)
        h = random_hermitian(rng, 3)
        product = (constant_propagator(h, theta)
                   @ constant_propagator(h, -theta))
        assert np.max(np.abs(product - np.eye(3))) < 1e-10


class TestCheckUnitary:
    def test_identity(self):
        assert check_unitary(np.eye(3), 1e-12)

    def test_scaled_identity(self):
        assert not check_unitary(2 * np.eye(3), 1e-12)

    def test_fresh_exponentials_are_unitary(self):
        for seed in range(100):
            rng = rng_from_seed(seed)
            u = constant_propagator(random_hermitian(rng, 4), 0.37)
            assert check_unitary(u, 1e-12)
            assert check_unitary(u, 1e-10)

    def test_isometry_of_inner_product(self):
        for seed in range(20):
            rng = rng_from_seed(seed)
            u = constant_propagator(random_hermitian(rng, 4), 1.1)
            psi, phi = random_state(rng, 4), random_state(rng, 4)
            assert inner(u @ psi, u @ phi) == pytest.approx(inner(psi, phi),
                                                            abs=1e-10)


class TestValidationHelpers:
    def test_as_state_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_state([np.nan, 0.0])

    def test_as_state_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            as_state([1.0, 1.0])

    def test_projector_is_projector(self):
        rng = rng_from_seed(4)
        assert is_projector(projector(random_state(rng, 3)))

    def test_complete_basis(self):
        rng = rng_from_seed(5)
        first = random_state(rng, 4)
        basis = complete_basis(first)
        assert len(basis) == 4
        np.testing.assert_allclose(basis[0], first)
        assert is_orthonormal(basis)

    def test_as_square_reads_non_contiguous_input(self):
        m = np.arange(9, dtype=complex).reshape(3, 3)
        np.testing.assert_array_equal(as_square(m.T), m.T)
        np.testing.assert_array_equal(as_square(m[:, ::2][:2]), m[:2, ::2])

    def test_as_square_rejects_non_finite_non_contiguous_input(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = np.nan
        with pytest.raises(ValidationError, match="NaN or Inf"):
            as_square(m.T)


class TestRequireTolerance:
    @pytest.mark.parametrize("tol", [0.0, -0.0, 1e-10, 1, "1e-9", math.inf])
    def test_accepts_non_negative_numbers(self, tol):
        assert require_tolerance(tol) == float(tol)

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf, "nan"])
    def test_rejects_nan_and_negative(self, tol):
        with pytest.raises(ValidationError, match="non-negative"):
            require_tolerance(tol)

    @pytest.mark.parametrize("tol", [True, np.bool_(False), None, "x", 1j,
                                     np.complex128(0.0), [1e-9]])
    def test_rejects_bools_and_non_numbers(self, tol):
        with pytest.raises(ValidationError, match="non-negative number"):
            require_tolerance(tol)

    def test_accepts_numpy_reals(self):
        assert require_tolerance(np.float32(0.5)) == 0.5
        assert require_tolerance(np.int64(0)) == 0.0


class TestRequireDim:
    def test_returns_the_shared_dimension(self):
        assert require_dim("state", 3) == 3
        assert require_dim("state", 2, 2, np.int64(2)) == 2

    def test_names_the_operands_and_the_first_two_dimensions_that_differ(
            self):
        with pytest.raises(DimensionMismatchError,
                           match="schedule dimension 3 does not match "
                                 "dimension 2: .*one dimension"):
            require_dim("schedule", 3, 3, 2, 4)

    def test_refuses_an_empty_list(self):
        with pytest.raises(DimensionMismatchError, match="no basis vector"):
            require_dim("basis vector")

    def test_ragged_set_is_not_orthonormal(self):
        # used to fail inside numpy on the inhomogeneous stack
        with pytest.raises(DimensionMismatchError):
            is_orthonormal([E0, np.array([0.0, 1.0, 0.0])])


class TestRequireCount:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.int32(1),
                                       np.uint8(2)])
    def test_accepts_python_and_numpy_integers(self, value):
        count = require_count(value, "sample count", 1)
        assert count == value and type(count) is int

    def test_least_zero_admits_zero(self):
        assert require_count(0, "seed", 0) == 0

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0,
                                       1.5, "3", None, np.float64(2.0)])
    def test_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            require_count(value, "seed", 0)

    @pytest.mark.parametrize("value, least, match", [
        (-1, 0, "seed must be non-negative, got -1"),
        (0, 1, "seed must be at least 1, got 0"),
        (np.int64(-5), 1, "seed must be at least 1, got -5"),
    ])
    def test_refuses_a_value_below_least(self, value, least, match):
        with pytest.raises(ValidationError, match=match):
            require_count(value, "seed", least)


class TestRequireOrthonormal:
    def test_accepts_within_input_tol(self):
        require_orthonormal([E0, E1 + 1e-9 * E0], "basis at time 0.5")

    def test_rejects_naming_the_set(self):
        with pytest.raises(ValidationError,
                           match="basis at time 0.5 is not orthonormal"):
            require_orthonormal([E0, E1 + 1e-7 * E0], "basis at time 0.5")

    def test_empty_set_is_orthonormal(self):
        assert is_orthonormal([]) and is_orthonormal(())
        require_orthonormal((), "basis at time 0.0")
