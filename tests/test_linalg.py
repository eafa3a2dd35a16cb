import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import (DimensionMismatchError, HamiltonianSchedule,
                      ValidationError, check_unitary, complete_basis, inner,
                      is_hermitian, is_orthonormal, is_projector, projector,
                      propagate, tensor)
from qcontour.errors import QContourError, ZeroNormalizationError
from qcontour.linalg import (DEFAULT_TOL, INPUT_TOL, STATE_MARGIN, as_basis,
                             as_square, as_state, hermitian_defect, norm,
                             normalize, require_count, require_dim,
                             require_hermitian, require_sequence,
                             require_tolerance, unitary_defect)
from qcontour.sampling import (haar_unitary, random_hermitian, random_state,
                               rng_from_seed)

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
    @pytest.mark.parametrize("check", [
        hermitian_defect, unitary_defect, is_hermitian, is_projector,
        check_unitary, require_hermitian, as_square,
        lambda m: HamiltonianSchedule([(0.0, 1.0, m)])])
    def test_an_empty_matrix_is_refused(self, check):
        # numpy's bare ValueError ("zero-size array to reduction operation
        # maximum which has no identity") leaked from the defects
        with pytest.raises(ValidationError, match=r"^expected a square "
                           r"matrix, got shape \(0, 0\)$") as info:
            check(np.zeros((0, 0)))
        assert type(info.value) is ValidationError

    def test_as_state_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_state([np.nan, 0.0])

    def test_as_state_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            as_state([1.0, 1.0])

    @pytest.mark.parametrize("vec", [["a", 1], [[1, 0], [0]], {1: 2},
                                     [10 ** 400, 0]])
    def test_as_state_refuses_what_numpy_cannot_read_as_complex(self, vec):
        # these leaked ValueError, TypeError or OverflowError from numpy
        with pytest.raises(ValidationError, match="array of numbers"):
            as_state(vec)

    @pytest.mark.parametrize("vec", [[1e300, 0.0], [0.0, -1e300j]])
    def test_as_state_refuses_an_overflowing_norm_without_a_warning(
            self, vec):
        # np.linalg.norm warned "overflow encountered in dot" first
        with pytest.raises(ValidationError,
                           match=r"not normalized \(norm = inf\)"):
            as_state(vec)

    def test_norm_is_numpys_formula_bit_for_bit(self):
        rng = rng_from_seed(9)
        for n in range(1, 9):
            for scale in (1e-3, 1.0, 1e3):
                v = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
                assert norm(v) == np.linalg.norm(v)
        m = np.asfortranarray(rng.normal(size=(4, 3)) + 1j * rng.normal(
            size=(4, 3)))
        assert norm(m) == np.linalg.norm(m)

    def test_projector_is_projector(self):
        rng = rng_from_seed(4)
        assert is_projector(projector(random_state(rng, 3)))

    @pytest.mark.parametrize("check", [is_hermitian, is_projector,
                                       check_unitary])
    @pytest.mark.parametrize("m", [[1, 2], [1, 0], 1.0, np.zeros((2, 3)),
                                   np.zeros((1, 2, 2))])
    def test_matrix_checks_refuse_what_is_not_a_square_matrix(self, check,
                                                              m):
        # is_hermitian([1, 2]) was True: a vector transposed as itself
        with pytest.raises(ValidationError, match="expected a square matrix"
                           ) as info:
            check(m)
        assert type(info.value) is ValidationError

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


def _verdict(call):
    """("ok", value) or (error class, message) of ``call()``."""
    try:
        return "ok", call()
    except QContourError as exc:
        return type(exc), str(exc)


def _row_by_row(vectors, dim):
    """What ``as_basis(vectors, "basis", dim)`` must give, from ``as_state``
    on each vector and then ``is_orthonormal``: the first refused vector's
    error (prefixed "basis: " unless a dimension mismatch), a dimension
    mismatch of states of several sizes, "basis is not orthonormal" unless
    the rows are within INPUT_TOL, or the stack of the accepted rows."""
    rows = []
    for v in vectors:
        verdict = _verdict(lambda: as_state(v, dim))
        if verdict[0] is ValidationError:
            return ValidationError, f"basis: {verdict[1]}"
        if verdict[0] != "ok":
            return verdict
        rows.append(verdict[1])
    sizes = {row.size for row in rows}
    if len(sizes) > 1:
        return _verdict(lambda: require_dim("state",
                                            *[row.size for row in rows]))
    stack = np.array(rows).reshape(len(rows), -1 if rows else dim or 0)
    if not is_orthonormal(stack, INPUT_TOL):
        return ValidationError, "basis is not orthonormal"
    return "ok", stack


#: norms of drawn vectors: mostly 1, else at the edges of the two
#: acceptance tests, DEFAULT_TOL (``as_state``'s) and STATE_MARGIN (inside
#: which a stack passes whole), or far from 1
_SCALES = (1.0,) * 6 + (1.0 + DEFAULT_TOL, 1.0 - DEFAULT_TOL,
                        1.0 + STATE_MARGIN / 2, 1.0 - STATE_MARGIN / 2, 2.0)
#: what at most one vector of a drawn set is instead
_ODD_VECTORS = (None,) * 4 + ("zero", "nan", "inf", "text", "none")


@st.composite
def _state_sets(draw):
    """(vectors, dim): vectors of norm 1, or 1 +- DEFAULT_TOL +- a few
    ulp, or 2, with at most one zero, NaN, Inf or unreadable vector, in
    empty and ragged sets, as lists or as one C- or Fortran-ordered array;
    ``dim`` is None, the drawn size or one more."""
    size = draw(st.integers(0, 4))
    ragged = draw(st.booleans())
    form = draw(st.sampled_from(["mixed", "mixed", "C", "F"]))
    count = draw(st.integers(0, 4))
    odd_at = draw(st.integers(0, max(count - 1, 0)))
    odd = draw(st.sampled_from(_ODD_VECTORS))
    vectors = []
    for i in range(count):
        n = draw(st.integers(0, 4)) if ragged else size
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n,
                              max_size=2 * n))
        v = np.array(parts[:n]) + 1j * np.array(parts[n:])
        if n and np.linalg.norm(v) <= 0.1:
            v[0] = 1.0
        if n:
            scale = draw(st.sampled_from(_SCALES))
            v = v / np.linalg.norm(v) * (
                scale + draw(st.integers(-4, 4)) * np.spacing(scale))
        if i == odd_at and odd in ("text", "none"):
            vectors.append(["a", 1] if odd == "text" else None)
            continue
        if i == odd_at and odd == "zero":
            v = np.zeros(n, dtype=complex)
        elif i == odd_at and odd in ("nan", "inf") and n:
            v[draw(st.integers(0, n - 1))] = np.nan if odd == "nan" \
                else np.inf
        vectors.append(v if form != "mixed" or draw(st.booleans())
                       else v.tolist())
    if form != "mixed" and not ragged and vectors and all(
            isinstance(v, np.ndarray) for v in vectors):
        vectors = np.array(vectors, order=form)
    return vectors, draw(st.sampled_from([None, size, size + 1]))


@st.composite
def _orthonormal_sets(draw):
    """(vectors, dim): rows of a Haar unitary, each scaled by one of
    ``_SCALES`` (+- a few ulp), the second maybe tilted towards the first
    by INPUT_TOL / 2 or 2 INPUT_TOL, as lists or (when not empty) as one
    C- or Fortran-ordered array; ``dim`` is None, the size or one more."""
    size = draw(st.integers(1, 4))
    u = haar_unitary(rng_from_seed(draw(st.integers(0, 2 ** 16))), size)
    rows = u[:draw(st.integers(0, size))].copy()
    for row in rows:
        scale = draw(st.sampled_from(_SCALES))
        row *= scale + draw(st.integers(-4, 4)) * np.spacing(scale)
    if len(rows) > 1:
        rows[1] += draw(st.sampled_from([0.0, INPUT_TOL / 2,
                                         2 * INPUT_TOL])) * rows[0]
    form = draw(st.sampled_from(["list", "C", "F"]))
    vectors = (list(rows) if form == "list" or not len(rows)
               else np.array(rows, order=form))
    return vectors, draw(st.sampled_from([None, size, size + 1]))


class TestAsBasis:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_state_sets(), _orthonormal_sets()))
    def test_agrees_with_as_state_row_by_row(self, case):
        vectors, dim = case
        expected = _row_by_row(vectors, dim)
        got = _verdict(lambda: as_basis(vectors, "basis", dim))
        assert got[0] == expected[0]
        if got[0] == "ok":
            np.testing.assert_array_equal(got[1], expected[1])
            assert got[1].shape == expected[1].shape
            assert got[1].dtype == complex and not got[1].flags.writeable
        else:
            assert got[1] == expected[1]

    def test_returns_a_read_only_stack_equal_to_as_state_rows(self):
        basis = list(haar_unitary(rng_from_seed(7), 3))
        stack = as_basis(basis, "basis", 3)
        assert stack.shape == (3, 3) and not stack.flags.writeable
        for row, v in zip(stack, basis):
            np.testing.assert_array_equal(row, as_state(v))
        assert stack[0] is not basis[0] and not np.shares_memory(stack,
                                                                  basis[0])

    def test_rows_of_a_fortran_ordered_unitary_are_checked(self):
        # u.T and u.conj().T are Fortran-ordered: the stack must still be
        # split into rows, not refused with numpy's ValueError
        u = haar_unitary(rng_from_seed(8), 4)
        for basis in (u.T, u.conj().T):
            assert basis.flags.f_contiguous and not basis.flags.c_contiguous
            stack = as_basis(basis, "basis", 4)
            assert stack.flags.c_contiguous
            for row, v in zip(stack, basis):
                np.testing.assert_array_equal(row, as_state(v))

    def test_empty_set_has_no_rows(self):
        assert as_basis([], "basis").shape == (0, 0)
        assert as_basis((), "basis", 3).shape == (0, 3)

    def test_states_of_several_sizes_are_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError,
                           match="state dimension 2 does not match "
                                 "dimension 3"):
            as_basis([E0, [1.0, 0.0, 0.0]], "basis")

    def test_first_refused_vector_names_the_error(self):
        with pytest.raises(ValidationError,
                           match=r"^basis at time 0\.5: .*norm = 2\.0"):
            as_basis([E0, [2.0, 0.0], [np.nan, 0.0]], "basis at time 0.5")

    @pytest.mark.parametrize("vectors", [5, np.array(5.0)])
    def test_refuses_what_is_not_a_sequence(self, vectors):
        # a 0-d array leaked TypeError ("len() of unsized object")
        with pytest.raises(ValidationError, match="sequence of state"):
            as_basis(vectors, "basis")

    def test_refuses_an_overflowing_squared_norm_without_a_warning(self):
        # the stacked pass must not warn "overflow encountered" before
        # as_state gives the verdict
        with pytest.raises(ValidationError,
                           match=r"not normalized \(norm = inf\)"):
            as_basis([E0, [1e300, 0.0]], "basis", 2)


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

    def test_an_integer_beyond_the_float_range_is_an_infinity(self):
        # 10**400 was refused as "not a non-negative number", though
        # math.inf passes
        assert require_tolerance(10 ** 400) == math.inf
        with pytest.raises(ValidationError,
                           match=r"^tolerance must be a non-negative number, "
                                 r"got -1000"):
            require_tolerance(-10 ** 400)


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

    @pytest.mark.parametrize("value", [4, np.int64(4)])
    def test_admits_a_value_at_most(self, value):
        assert require_count(value, "seed", 1, 4) == 4

    @pytest.mark.parametrize("value", [5, 2 ** 62, np.int64(2 ** 62),
                                       10 ** 400])
    def test_refuses_a_value_above_most(self, value):
        with pytest.raises(ValidationError,
                           match=f"^seed must be at most 4, got {value}$"):
            require_count(value, "seed", 1, 4)


class TestRequireSequence:
    """The one reading of an ordered argument: a tuple read once."""

    def test_a_tuple_is_returned_as_it_is(self):
        given = (1, 2)
        assert require_sequence(given, "times", "times") is given

    @pytest.mark.parametrize("read", [list, iter, np.array,
                                      lambda items: (x for x in items),
                                      lambda items: {0: 1, 1: 2}.values()])
    def test_an_ordered_iterable_is_read_in_order(self, read):
        assert require_sequence(read([1, 2]), "times", "times") == (1, 2)

    @pytest.mark.parametrize("value, kind", [
        (None, "NoneType"), (3, "int"), (1.5, "float"), ("ab", "str"),
        (b"ab", "bytes"), ({1, 2}, "set"), (frozenset({1}), "frozenset"),
        ({1: 2}, "dict"), ({1: 2}.keys(), "dict_keys"),
        (np.array(1.0), "ndarray")])
    def test_refuses_what_is_not_an_ordered_sequence(self, value, kind):
        with pytest.raises(ValidationError,
                           match=f"^times must be a sequence of numbers, "
                                 f"got {kind}$") as info:
            require_sequence(value, "times", "numbers")
        assert type(info.value) is ValidationError

    def test_an_error_while_iterating_is_not_a_verdict(self):
        def broken():
            yield 1
            raise TypeError("an item's own error")
        with pytest.raises(TypeError, match="an item's own error"):
            require_sequence(broken(), "times", "times")


class TestNormalize:
    """The one renormalization rule: ``np.sum``'s total, and the column
    divided by it, bit for bit."""

    @staticmethod
    def _check(column):
        total, divided = normalize(column, "unused")
        want = float(np.sum(column))
        assert type(total) is float and total == want
        assert divided.tobytes() == (column / want).tobytes()

    @pytest.mark.parametrize("column", [
        [5e-324, 1e-310, 2.5e-308, 3e-320],   # subnormal entries
        [1e-320, 0.0, 4e-321],                 # a subnormal total
        [1e300, 3.0, 1e300, 1e300],            # a total near the float range
        [0.7],                                 # one entry
        [0.0, 0.25, 0.0],
    ])
    def test_python_order_total_and_quotient(self, column):
        self._check(np.array(column))

    def test_total_is_pairwise_not_left_to_right(self):
        # a left-to-right sum rounds differently on this column
        column = rng_from_seed(3).random(1000)
        assert float(sum(column.tolist())) != float(column.sum())
        self._check(column)

    @given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40)
           .filter(lambda c: 0.0 < sum(c) < math.inf))
    @settings(max_examples=60, deadline=None)
    def test_non_negative_columns(self, column):
        self._check(np.array(column))

    def test_an_overflowing_total_is_inf_without_a_warning(self):
        # a Python-float sum gives inf here without a warning; so must the
        # numpy total (this suite turns every RuntimeWarning into an error)
        total, divided = normalize(np.array([1e308, 1e308]), "unused")
        assert total == math.inf and divided.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("column", [[0.0, 0.0, 0.0], [-0.0], []])
    def test_zero_total_raises_the_callers_message(self, column):
        with pytest.raises(ZeroNormalizationError) as info:
            normalize(np.array(column, dtype=float),
                      "post-selection has zero probability")
        assert str(info.value) == "post-selection has zero probability"


class TestBasisOrthonormality:
    def test_accepts_within_input_tol(self):
        as_basis([E0, E1 + 1e-9 * E0], "basis at time 0.5")

    def test_rejects_naming_the_set(self):
        with pytest.raises(ValidationError,
                           match="basis at time 0.5 is not orthonormal"):
            as_basis([E0, E1 + 1e-7 * E0], "basis at time 0.5")

    def test_empty_set_is_orthonormal(self):
        assert is_orthonormal([]) and is_orthonormal(())
        as_basis((), "basis at time 0.0")

    def test_a_dimension_mismatch_is_not_prefixed(self):
        with pytest.raises(DimensionMismatchError,
                           match="^state dimension 2 does not match "
                                 "dimension 3"):
            as_basis([E0, E1], "basis at time 0.5", 3)

    def test_is_orthonormal_takes_the_same_gram_defect(self):
        # the verdict of as_basis and of is_orthonormal at INPUT_TOL agree
        # on both sides of the tolerance
        for tilt in (0.5, 2.0):
            basis = [E0, E1 + tilt * INPUT_TOL * E0]
            accepted = _verdict(lambda: as_basis(basis, "b"))[0] == "ok"
            assert accepted == is_orthonormal(basis, INPUT_TOL) \
                == (tilt < 1.0)
