import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import (DimensionMismatchError, ValidationError, check_unitary,
                      complete_basis, hermitian_exp, inner, is_orthonormal,
                      is_projector, projector, tensor)
from qcontour.linalg import (as_square, as_state, require_orthonormal,
                             require_tolerance)
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


class TestHermitianExp:
    def test_zero_angle(self):
        rng = rng_from_seed(3)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(hermitian_exp(h, 0.0), np.eye(4),
                                   atol=1e-14)

    def test_sigma_x_half_pi(self):
        # closed form cos(theta) I - i sin(theta) sigma_x at theta = pi/2
        np.testing.assert_allclose(hermitian_exp(SX, math.pi / 2), -1j * SX,
                                   atol=1e-12)

    def test_sigma_z_pi(self):
        # per-eigenvalue exponentials: diag(e^{-i pi}, e^{+i pi}) = -I
        np.testing.assert_allclose(hermitian_exp(SZ, math.pi),
                                   np.diag([-1.0, -1.0]), atol=1e-12)

    def test_matches_expm_oracle(self):
        for seed in range(25):
            rng = rng_from_seed(seed)
            h = random_hermitian(rng, 5)
            theta = float(rng.uniform(-3, 3))
            expected = scipy.linalg.expm(-1j * theta * h)
            np.testing.assert_allclose(hermitian_exp(h, theta), expected,
                                       atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @given(seed=st.integers(0, 10 ** 6),
           theta=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_inverse_property(self, seed, theta):
        rng = rng_from_seed(seed)
        h = random_hermitian(rng, 3)
        product = hermitian_exp(h, theta) @ hermitian_exp(h, -theta)
        assert np.max(np.abs(product - np.eye(3))) < 1e-10


class TestCheckUnitary:
    def test_identity(self):
        assert check_unitary(np.eye(3), 1e-12)

    def test_scaled_identity(self):
        assert not check_unitary(2 * np.eye(3), 1e-12)

    def test_fresh_exponentials_are_unitary(self):
        for seed in range(100):
            rng = rng_from_seed(seed)
            u = hermitian_exp(random_hermitian(rng, 4), 0.37)
            assert check_unitary(u, 1e-12)
            assert check_unitary(u, 1e-10)

    def test_isometry_of_inner_product(self):
        for seed in range(20):
            rng = rng_from_seed(seed)
            u = hermitian_exp(random_hermitian(rng, 4), 1.1)
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

    def test_as_state_allows_unnormalized_when_flagged(self):
        v = as_state([1.0, 1.0], normalized=False)
        assert v.size == 2

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
