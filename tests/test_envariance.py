import itertools
import math

import numpy as np
import pytest

from qcontour import (BipartiteState, EnvarianceResult, ValidationError,
                      check_envariance, schmidt_decompose)
from qcontour.linalg import is_orthonormal, tensor
from qcontour.sampling import (random_orthonormal_basis, random_state,
                               rng_from_seed)

from toys import E0


def bell_state():
    return BipartiteState(2, 2, np.array([1, 0, 0, 1], dtype=complex)
                          / math.sqrt(2))


def equal_amplitude_state(rng, n):
    """C sum_k e^{i phi_k} |a_k>|b_k> with random bases and phases."""
    basis_a = random_orthonormal_basis(rng, n)
    basis_b = random_orthonormal_basis(rng, n)
    phases = rng.uniform(0, 2 * np.pi, size=n)
    amps = sum(np.exp(1j * p) * tensor(a, b)
               for p, a, b in zip(phases, basis_a, basis_b))
    return BipartiteState(n, n, amps / math.sqrt(n))


def perm_phase_on_basis(basis, perm, phases=None):
    """Unitary mapping basis[k] to e^{i phases[k]} basis[perm[k]]."""
    dim = basis[0].size
    u = np.zeros((dim, dim), dtype=complex)
    for k, j in enumerate(perm):
        phase = 1.0 if phases is None else np.exp(1j * phases[k])
        u += phase * np.outer(basis[j], basis[k].conj())
    return u


class TestBipartiteState:
    @pytest.mark.parametrize("dim_a, dim_b, match", [
        (2.0, 2, "dim_a must be an integer"),   # used to pass, then fail
        (2, True, "dim_b must be an integer"),  # in schmidt_decompose
        (0, 2, "dim_a must be at least 1"),
    ])
    def test_subsystem_dimensions_are_counts(self, dim_a, dim_b, match):
        with pytest.raises(ValidationError, match=match):
            BipartiteState(dim_a, dim_b, tensor(E0, E0))

    def test_numpy_dimensions_accepted(self):
        psi = BipartiteState(np.int64(2), np.int64(2), tensor(E0, E0))
        assert schmidt_decompose(psi).rank == 1


class TestSchmidtDecompose:
    def test_product_state_single_coefficient(self):
        psi = BipartiteState(2, 2, tensor(E0, E0))
        form = schmidt_decompose(psi)
        assert form.coefficients == pytest.approx((1.0, 0.0))
        assert form.rank == 1

    def test_bell_state_coefficients(self):
        form = schmidt_decompose(bell_state())
        assert form.coefficients == pytest.approx((1 / math.sqrt(2),
                                                   1 / math.sqrt(2)))

    def test_reconstruction_random_states(self):
        for seed in range(100):
            rng = rng_from_seed(seed)
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            psi = BipartiteState(d_a, d_b, random_state(rng, d_a * d_b))
            form = schmidt_decompose(psi)
            assert np.max(np.abs(form.reconstruct() - psi.amplitudes)) < 1e-10
            assert is_orthonormal(form.basis_a)
            assert is_orthonormal(form.basis_b)
            assert sum(c * c for c in form.coefficients) == \
                pytest.approx(1.0, abs=1e-10)
            assert list(form.coefficients) == \
                sorted(form.coefficients, reverse=True)


class TestCheckEnvariance:
    def test_identity_is_envariant(self):
        result = check_envariance(bell_state(), np.eye(2))
        assert result.envariant
        np.testing.assert_allclose(result.counter, np.eye(2), atol=1e-10)

    def test_bell_swap_has_counter_swap(self):
        form = schmidt_decompose(bell_state())
        u_a = perm_phase_on_basis(form.basis_a, (1, 0))
        result = check_envariance(bell_state(), u_a)
        assert result.envariant
        # the counter acts as the matching swap on the B Schmidt basis
        mapped = result.counter @ form.basis_b[0]
        overlap = abs(np.vdot(form.basis_b[1], mapped))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_unequal_coefficients_swap_not_envariant(self):
        psi = BipartiteState(2, 2, np.array(
            [math.sqrt(0.8), 0, 0, math.sqrt(0.2)], dtype=complex))
        form = schmidt_decompose(psi)
        u_a = perm_phase_on_basis(form.basis_a, (1, 0))
        result = check_envariance(psi, u_a)
        assert not result.envariant
        assert result.counter is None

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_rejects_nan_or_negative_tol(self, tol):
        # a NaN tol used to return envariant=True, residual 0.632, here
        psi = BipartiteState(2, 2, np.array(
            [math.sqrt(0.8), 0, 0, math.sqrt(0.2)], dtype=complex))
        u_a = perm_phase_on_basis(schmidt_decompose(psi).basis_a, (1, 0))
        with pytest.raises(ValidationError, match="tolerance"):
            check_envariance(psi, u_a, tol=tol)
        assert not check_envariance(psi, u_a, tol=1e-10).envariant

    @pytest.mark.parametrize("tol", [True, None, "x", 1j])
    def test_rejects_tol_that_is_not_a_number(self, tol):
        # True used to be taken as a tolerance of 1, None leaked TypeError
        psi = BipartiteState(2, 2, np.array(
            [math.sqrt(0.8), 0, 0, math.sqrt(0.2)], dtype=complex))
        u_a = perm_phase_on_basis(schmidt_decompose(psi).basis_a, (1, 0))
        with pytest.raises(ValidationError, match="tolerance"):
            check_envariance(psi, u_a, tol=tol)

    def test_rejects_non_unitary_transform(self):
        with pytest.raises(ValidationError):
            check_envariance(bell_state(), 2 * np.eye(2))

    def test_equal_amplitudes_envariant_under_all_permutations(self):
        for seed in range(10):
            rng = rng_from_seed(3000 + seed)
            n = int(rng.integers(2, 4))
            psi = equal_amplitude_state(rng, n)
            form = schmidt_decompose(psi)
            for perm in itertools.permutations(range(n)):
                u_a = perm_phase_on_basis(form.basis_a, perm)
                assert check_envariance(psi, u_a).envariant

    def test_schmidt_phase_rotations_always_envariant(self):
        for seed in range(10):
            rng = rng_from_seed(4000 + seed)
            n = int(rng.integers(2, 5))
            psi = BipartiteState(n, n, random_state(rng, n * n))
            form = schmidt_decompose(psi)
            phases = rng.uniform(0, 2 * np.pi, size=n)
            u_a = perm_phase_on_basis(form.basis_a, range(n), phases)
            result = check_envariance(psi, u_a)
            assert result.envariant

    def test_distinct_coefficient_permutation_never_envariant(self):
        for seed in range(10):
            rng = rng_from_seed(5000 + seed)
            n = 3
            # well separated coefficients
            raw = np.array([1.0, 0.6, 0.3])
            coeffs = raw / np.linalg.norm(raw)
            basis_a = random_orthonormal_basis(rng, n)
            basis_b = random_orthonormal_basis(rng, n)
            amps = sum(c * tensor(a, b)
                       for c, a, b in zip(coeffs, basis_a, basis_b))
            psi = BipartiteState(n, n, amps)
            form = schmidt_decompose(psi)
            u_a = perm_phase_on_basis(form.basis_a, (1, 0, 2))
            assert not check_envariance(psi, u_a).envariant

    def test_arbitrary_rotation_outside_search_family(self):
        # a Hadamard-type mixing of Schmidt vectors has no permutation-phase
        # counter even for equal amplitudes
        psi = BipartiteState(2, 2, np.array(
            [math.sqrt(0.8), 0, 0, math.sqrt(0.2)], dtype=complex))
        form = schmidt_decompose(psi)
        h = (np.outer(form.basis_a[0] + form.basis_a[1], form.basis_a[0].conj())
             + np.outer(form.basis_a[0] - form.basis_a[1],
                        form.basis_a[1].conj())) / math.sqrt(2)
        assert not check_envariance(psi, h).envariant

    def test_non_contiguous_transform(self):
        psi = BipartiteState.from_matrix(np.eye(3) / math.sqrt(3))
        u_a = np.eye(3)[:, [0, 2, 1]]
        assert not u_a.flags.c_contiguous
        result = check_envariance(psi, u_a)
        assert result.envariant
        assert result.residual <= 1e-10


class TestSupportEdge:
    """A Schmidt coefficient above the support cut but within tol of zero."""

    @pytest.mark.parametrize("dim_b", [2, 3])
    def test_counter_is_unitary_and_restores_the_state(self, dim_b):
        grid = np.zeros((3, dim_b), dtype=complex)
        grid[0, 0], grid[1, 1] = 1.0, 5e-11
        psi = BipartiteState.from_matrix(grid / np.linalg.norm(grid))
        u_a = np.eye(3, dtype=complex)[[0, 2, 1]]
        result = check_envariance(psi, u_a)
        assert isinstance(result, EnvarianceResult)
        if result.counter is not None:
            u_b = result.counter
            np.testing.assert_allclose(u_b.conj().T @ u_b, np.eye(dim_b),
                                       atol=1e-12)
            restored = tensor(np.eye(3), u_b) @ tensor(u_a, np.eye(dim_b)) \
                @ psi.amplitudes
            assert np.linalg.norm(restored - psi.amplitudes) <= 1e-10
