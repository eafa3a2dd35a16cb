import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from qcontour import (FamilySpec, FixedPoint, HistoryFamily, QuantumHistory,
                      ValidationError, chain_probability, decoherence_functional,
                      decoherence_report, enumerate_family, histories_equal,
                      history_inner, history_operator, is_decoherent_space,
                      measure_report, record_state, validate_family)
from qcontour import histories, linalg
from qcontour.errors import DimensionMismatchError, EnumerationGuardError
from toys import (E0, E1, FAMILY_SHAPES, MINUS, PLUS, computational_basis,
                  count_calls, family_variants, random_family_spec,
                  sx_schedule, zero_schedule)


def two_point(state1, state2, t1=0.0, t2=1.0):
    return QuantumHistory((FixedPoint(t1, state1), FixedPoint(t2, state2)))


class TestHistoryTypes:
    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            QuantumHistory((FixedPoint(0.0, E0),))

    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            QuantumHistory((FixedPoint(1.0, E0), FixedPoint(0.0, E1)))

    def test_fixed_point_state_must_be_normalized(self):
        with pytest.raises(ValidationError):
            FixedPoint(0.0, np.array([1.0, 1.0]))

    def test_family_shares_grid(self):
        with pytest.raises(ValidationError):
            HistoryFamily(histories=(two_point(E0, E1),
                                     two_point(E0, E1, t2=2.0)))


class TestIdentitySemantics:
    def test_fixed_points_with_equal_values_are_not_equal(self):
        fp = FixedPoint(0.0, E0)
        assert fp == fp
        assert FixedPoint(0.0, E0) != FixedPoint(0.0, E0.copy())

    def test_fixed_points_hash_by_identity(self):
        a, b = FixedPoint(0.0, E0), FixedPoint(0.0, E0)
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_histories_compare_by_identity_values_by_histories_equal(self):
        h, g = two_point(E0, PLUS), two_point(E0, PLUS)
        assert h == h and h != g
        assert len({h, g}) == 2
        assert histories_equal(h, g)


class TestHistoryInner:
    def test_self_overlap(self):
        h = two_point(E0, PLUS)
        assert history_inner(h, h) == pytest.approx(1.0)

    def test_orthogonal_at_one_time(self):
        # Kronecker delta for basis-state fixed points
        assert history_inner(two_point(E0, E0), two_point(E0, E1)) == \
            pytest.approx(0.0)

    def test_half_overlap(self):
        # single-time overlap 1/sqrt2, identical elsewhere: product of the
        # forward factor and the conjugated backward factor gives 1/2
        assert history_inner(two_point(E0, PLUS), two_point(E0, E0)) == \
            pytest.approx(0.5)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            history_inner(two_point(E0, E1), two_point(E0, E1, t2=2.0))


class TestValidateFamily:
    def test_orthonormal_bases_always_valid(self):
        for seed in range(20):
            spec, _ = random_family_spec(seed, dim=3, n_times=3, s_t=1)
            fam = enumerate_family(spec)
            assert validate_family(fam, 1e-10).valid

    def test_duplicate_history_flagged(self):
        h = two_point(E0, E1)
        report = validate_family(HistoryFamily(histories=(h, h)), 1e-10)
        assert not report.valid
        assert report.violations[0][:2] == (0, 1)

    def test_non_orthogonal_states_flagged_with_overlap(self):
        fam = HistoryFamily(histories=(two_point(E0, E0),
                                       two_point(PLUS, E0)))
        report = validate_family(fam, 1e-10)
        assert not report.valid
        assert report.violations[0][2] == pytest.approx(0.5)


def _brute_force_violations(fam, tol):
    out = []
    for i, j in itertools.combinations(range(len(fam.histories)), 2):
        overlap = abs(history_inner(fam.histories[i], fam.histories[j]))
        if overlap > tol:
            out.append((i, j, overlap))
    return out


def _brute_force_decoherence(fam, sched, psi1):
    """|D(i, j)| for every pair, in pair order."""
    chains = [history_operator(h.points, sched, fam.times[0])
              for h in fam.histories]
    return {(i, j): abs(decoherence_functional(chains[i], chains[j], psi1))
            for i, j in itertools.combinations(range(len(chains)), 2)}


class TestAgainstPairwise:
    """The family checks agree with the pairwise reference functions."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=15, deadline=None)
    def test_validate_family_matches_history_inner(self, shape):
        seed, dim, n_times, s_t = shape
        spec, _ = random_family_spec(seed, dim, n_times, s_t)
        for name, fam in family_variants(spec, seed).items():
            got = validate_family(fam, 1e-10).violations
            want = _brute_force_violations(fam, 1e-10)
            assert [v[:2] for v in got] == [v[:2] for v in want], name
            for g, w in zip(got, want):
                assert g[2] == pytest.approx(w[2], abs=1e-12)

    @given(FAMILY_SHAPES)
    @settings(max_examples=15, deadline=None)
    def test_decoherence_report_matches_functional(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        psi1 = spec.constraints[0].state
        for name, fam in family_variants(spec, seed).items():
            report = decoherence_report(fam, sched, psi1, 1e-10)
            values = _brute_force_decoherence(fam, sched, psi1)
            worst = max(values.values(), default=0.0)
            assert report.max_offdiagonal == pytest.approx(worst, abs=1e-12)
            if not report.decoherent:
                # a unique maximum gives the same pair; pairs tied up to
                # rounding, such as D(00, 10) = -D(01, 11) in a qubit
                # family, resolve by the last bit of either computation
                tied = [p for p, v in values.items() if worst - v <= 1e-12]
                assert report.worst_pair in tied, name


def _row_loop_violations(fam, tol):
    """The per-row product the blocked check must reproduce bit for bit."""
    grams = []
    for slot in fam.slots:
        states = np.array([fp.state for fp in slot])
        grams.append(np.abs(states.conj() @ states.T) ** 2)
    out = []
    for i in range(len(fam.index) - 1):
        overlap = math.prod(g[c[i], c[i + 1:]]
                            for g, c in zip(grams, fam.index.T))
        out.extend((i, i + 1 + int(j), float(overlap[j]))
                   for j in np.flatnonzero(overlap > tol))
    return tuple(out)


class TestRowBlocks:
    """The pairwise checks give the same answer at any block height."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 64, 10 ** 6])
    def test_blocks_tile_the_pairs_once_in_row_major_order(self, monkeypatch,
                                                           budget):
        monkeypatch.setattr(histories, "_PAIR_BLOCK_ENTRIES", budget)
        for n in range(1, 30):
            pairs = []
            for lo, block in histories._pair_blocks(
                    n, lambda lo, hi: np.ones((hi - lo, n - lo - 1))):
                assert block.shape[1] == n - lo - 1
                rows, cols = np.nonzero(block)
                pairs.extend(zip((rows + lo).tolist(),
                                 (cols + lo + 1).tolist()))
            assert pairs == list(itertools.combinations(range(n), 2))

    @given(FAMILY_SHAPES)
    @settings(max_examples=15, deadline=None)
    def test_one_to_three_row_blocks_match_one_block(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        psi1 = spec.constraints[0].state
        for name, fam in family_variants(spec, seed).items():
            n = len(fam.index)
            one_block = validate_family(fam, 1e-10).violations
            assert one_block == _row_loop_violations(fam, 1e-10), name
            want = _brute_force_violations(fam, 1e-10)
            values = _brute_force_decoherence(fam, sched, psi1)
            worst = max(values.values(), default=0.0)
            tied = [p for p, v in values.items() if worst - v <= 1e-12]
            for rows in (1, 2, 3):
                # the first block holds `rows` rows; n - 1 rows have pairs
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(histories, "_PAIR_BLOCK_ENTRIES",
                               rows * (n - 1))
                    got = validate_family(fam, 1e-10).violations
                    report = decoherence_report(fam, sched, psi1, 1e-10)
                assert got == one_block, (name, rows)
                assert [v[:2] for v in got] == [v[:2] for v in want]
                assert report.max_offdiagonal == pytest.approx(
                    worst, abs=1e-12)
                if not report.decoherent:
                    assert report.worst_pair in tied, (name, rows)


    @pytest.mark.parametrize("budget", [1, 10 ** 6])
    def test_exact_tie_keeps_the_first_pair(self, monkeypatch, budget):
        monkeypatch.setattr(histories, "_PAIR_BLOCK_ENTRIES", budget)
        h = two_point(E0, PLUS)
        fam = HistoryFamily(histories=(h, h, h))
        report = decoherence_report(fam, zero_schedule(2), E0)
        assert report.worst_pair == (0, 1)
        assert report.max_offdiagonal == pytest.approx(0.5)


class TestFamilyCheckCosts:
    @pytest.mark.parametrize("dim", [3, 2])
    def test_one_propagator_per_later_slot(self, monkeypatch, dim):
        spec, sched = random_family_spec(61, dim, n_times=4, s_t=1)
        fam = enumerate_family(spec)
        propagated = count_calls(monkeypatch, histories, "propagate")
        checked = count_calls(monkeypatch, histories, "_checked_projector")
        decoherence_report(fam, sched, spec.constraints[0].state)
        assert len(propagated) == 3
        assert len(checked) == sum(map(len, fam.slots[1:])) == 3 * dim

    def test_schedule_of_another_dimension_rejected(self):
        spec, _ = random_family_spec(62, dim=2, n_times=3, s_t=1)
        _, sched = random_family_spec(62, dim=3, n_times=3, s_t=1)
        with pytest.raises(DimensionMismatchError):
            decoherence_report(enumerate_family(spec), sched,
                               spec.constraints[0].state)

    def test_validate_memory_stays_flat(self):
        spec, _ = random_family_spec(63, dim=8, n_times=5, s_t=1)
        fam = enumerate_family(spec)
        assert len(fam.index) == 4096
        tracemalloc.start()
        try:
            report = validate_family(fam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.valid
        # a full H x H float64 table would take 134 MB
        assert peak < 8 * 2 ** 20


class TestTolerance:
    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
    def test_nan_or_negative_tol_rejected(self, tol):
        spec, sched = random_family_spec(64, dim=2, n_times=3, s_t=1)
        fam = family_variants(spec, 64)["duplicated"]
        psi1 = spec.constraints[0].state
        with pytest.raises(ValidationError, match="non-negative"):
            validate_family(fam, tol)
        with pytest.raises(ValidationError, match="non-negative"):
            decoherence_report(fam, sched, psi1, tol)

    def test_duplicated_family_is_invalid_at_any_finite_tol(self):
        spec, _ = random_family_spec(64, dim=2, n_times=3, s_t=1)
        fam = family_variants(spec, 64)["duplicated"]
        assert not validate_family(fam, 1e-10).valid
        assert not validate_family(fam, 0.5).valid
        assert validate_family(fam, math.inf).valid


class TestHistoryOperator:
    def test_single_projector_null_hamiltonian(self):
        sched = zero_schedule(2)
        fps = [FixedPoint(0.0, E0), FixedPoint(1.0, PLUS)]
        chain = history_operator(fps, sched, 0.0)
        assert len(chain.projectors) == 1
        np.testing.assert_allclose(chain.projectors[0],
                                   np.outer(PLUS, PLUS.conj()), atol=1e-12)

    def test_projector_count(self):
        sched = zero_schedule(2, 0.0, 2.0)
        fps = [FixedPoint(0.0, E0), FixedPoint(1.0, E0), FixedPoint(2.0, E0)]
        assert len(history_operator(fps, sched, 0.0).projectors) == 2

    def test_unordered_input_rejected(self):
        with pytest.raises(ValidationError):
            history_operator([FixedPoint(1.0, E0), FixedPoint(0.0, E1)],
                             zero_schedule(2), 0.0)

    def test_chain_applied_matches_record_state(self):
        spec, sched = random_family_spec(21, dim=3, n_times=3, s_t=1)
        fam = enumerate_family(spec)
        psi1 = spec.constraints[0].state
        for h in fam.histories:
            chain = history_operator(h.points, sched, h.times[0])
            by_matrix = chain.matrix(3) @ psi1
            np.testing.assert_allclose(record_state(chain, psi1), by_matrix,
                                       atol=1e-12)


class TestRecordState:
    def test_identity_chain(self):
        from qcontour import HistoryOperator
        chain = HistoryOperator(())
        np.testing.assert_allclose(record_state(chain, PLUS), PLUS)

    def test_orthogonal_projector_annihilates(self):
        sched = zero_schedule(2)
        chain = history_operator([FixedPoint(0.0, E0), FixedPoint(1.0, E1)],
                                 sched, 0.0)
        np.testing.assert_allclose(record_state(chain, E0),
                                   np.zeros(2), atol=1e-14)

    def test_qubit_rotation_half_weight(self):
        # prepare |0> at 0, project |0> at pi/4 under sigma_x
        sched = sx_schedule()
        chain = history_operator(
            [FixedPoint(0.0, E0), FixedPoint(math.pi / 4, E0)], sched, 0.0)
        rec = record_state(chain, E0)
        assert np.vdot(rec, rec).real == pytest.approx(0.5)


class TestDecoherenceFunctional:
    def test_identity_chain_diagonal(self):
        from qcontour import HistoryOperator
        chain = HistoryOperator(())
        assert decoherence_functional(chain, chain, E0) == pytest.approx(1.0)

    def test_orthogonal_final_projectors(self):
        sched = zero_schedule(2)
        c_a = history_operator([FixedPoint(0.0, PLUS), FixedPoint(1.0, E0)],
                               sched, 0.0)
        c_b = history_operator([FixedPoint(0.0, PLUS), FixedPoint(1.0, E1)],
                               sched, 0.0)
        assert decoherence_functional(c_a, c_b, PLUS) == pytest.approx(0.0)

    def test_diagonal_matches_chain_probability(self):
        for seed in range(10):
            spec, sched = random_family_spec(100 + seed, dim=2, n_times=3,
                                             s_t=1)
            fam = enumerate_family(spec)
            psi1 = spec.constraints[0].state
            rho1 = np.outer(psi1, psi1.conj())
            for h in fam.histories:
                chain = history_operator(h.points, sched, h.times[0])
                diag = decoherence_functional(chain, chain, psi1)
                assert abs(diag.imag) <= 1e-12
                assert diag.real == pytest.approx(
                    chain_probability(h.points, sched, rho1), abs=1e-10)

    def test_record_norm_equals_diagonal(self):
        for seed in range(10):
            spec, sched = random_family_spec(200 + seed, dim=3, n_times=3,
                                             s_t=1)
            fam = enumerate_family(spec)
            psi1 = spec.constraints[0].state
            for h in fam.histories:
                chain = history_operator(h.points, sched, h.times[0])
                rec = record_state(chain, psi1)
                diag = decoherence_functional(chain, chain, psi1)
                assert np.vdot(rec, rec).real == pytest.approx(diag.real,
                                                               abs=1e-10)


class TestChainProbability:
    def test_projector_onto_preparation(self):
        sched = zero_schedule(2)
        fps = [FixedPoint(0.0, E0), FixedPoint(1.0, E0)]
        rho = np.outer(E0, E0.conj())
        assert chain_probability(fps, sched, rho) == pytest.approx(1.0)

    def test_qubit_rotation(self):
        sched = sx_schedule()
        fps = [FixedPoint(0.0, E0), FixedPoint(math.pi / 4, E0)]
        rho = np.outer(E0, E0.conj())
        assert chain_probability(fps, sched, rho) == pytest.approx(0.5)

    def test_completeness_sums_to_one(self):
        spec, sched = random_family_spec(23, dim=4, n_times=2, s_t=1)
        psi1 = spec.constraints[0].state
        rho = np.outer(psi1, psi1.conj())
        total = sum(
            chain_probability([spec.constraints[0],
                               FixedPoint(spec.times[1], v)], sched, rho)
            for v in spec.bases[1])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_invalid_density_matrix(self):
        fps = [FixedPoint(0.0, E0), FixedPoint(1.0, E0)]
        with pytest.raises(ValidationError):
            chain_probability(fps, zero_schedule(2), 2 * np.eye(2))


class TestDecoherentSpace:
    def test_single_time_orthonormal_family(self):
        spec = FamilySpec(times=(0.0, 1.0),
                          bases=(computational_basis(2),
                                 computational_basis(2)),
                          constraints=(FixedPoint(0.0, PLUS, "prep"),))
        fam = enumerate_family(spec)
        assert is_decoherent_space(fam, zero_schedule(2), PLUS, 1e-10)

    def test_noncommuting_two_time_family_fails(self):
        # projectors onto {|+>,|->} then {|0>,|1>} with H = 0 interfere
        sched = zero_schedule(2, 0.0, 1.0)
        spec = FamilySpec(times=(0.0, 0.5, 1.0),
                          bases=(computational_basis(2), (PLUS, MINUS),
                                 computational_basis(2)),
                          constraints=(FixedPoint(0.0, E0, "prep"),))
        fam = enumerate_family(spec)
        report = decoherence_report(fam, sched, E0, 1e-10)
        assert not report.decoherent
        assert report.max_offdiagonal == pytest.approx(0.25)

    def test_single_member_family_vacuous(self):
        fam = HistoryFamily(histories=(two_point(E0, E0),))
        assert is_decoherent_space(fam, zero_schedule(2), E0, 1e-10)


class TestFamilySpec:
    def test_constraint_time_matches_grid_far_from_origin(self):
        # 1e4 + 0.1 + 0.2 and 1e4 + 0.3 differ by one ulp (1.8e-12)
        for grid_t, t in ((0.3, 0.1 + 0.2), (1e4 + 0.3, 1e4 + 0.1 + 0.2)):
            assert grid_t != t
            spec = FamilySpec(times=(0.0, grid_t),
                              bases=(computational_basis(2),) * 2,
                              constraints=(FixedPoint(t, E0),))
            assert spec.pinned == {1: spec.constraints[0]}
            assert len(enumerate_family(spec).histories) == 2

    def test_rejects_off_grid_and_duplicate_constraints(self):
        bases = (computational_basis(2),) * 2
        with pytest.raises(ValidationError, match="not a grid time"):
            FamilySpec(times=(0.0, 1.0), bases=bases,
                       constraints=(FixedPoint(0.5, E0),))
        with pytest.raises(ValidationError, match="duplicate"):
            FamilySpec(times=(0.0, 1.0), bases=bases,
                       constraints=(FixedPoint(1.0, E0), FixedPoint(1.0, E1)))


    @pytest.mark.parametrize("constraints", [(), (FixedPoint(1.0, E0),)])
    def test_unnormalized_basis_vector_names_its_time(self, constraints):
        with pytest.raises(ValidationError, match=r"^basis at time 1\.0: "
                           "state vector is not normalized"):
            FamilySpec(times=(0.0, 1.0),
                       bases=(computational_basis(2), (E0, 2 * E1)),
                       constraints=constraints)

    def test_empty_basis_at_a_pinned_time(self):
        # the constraint is the pinned slot whatever the basis there
        constraint = FixedPoint(0.0, E0)
        specs = [FamilySpec(times=(0.0, 1.0),
                            bases=(basis, computational_basis(2)),
                            constraints=(constraint,))
                 for basis in ((), computational_basis(2))]
        assert [spec.dim for spec in specs] == [2, 2]
        empty, full = map(enumerate_family, specs)
        assert empty.slots[0] == full.slots[0] == (constraint,)
        np.testing.assert_array_equal(empty.index, full.index)
        np.testing.assert_array_equal(empty.choices, full.choices)
        for a, b in zip(empty.slots[1], full.slots[1], strict=True):
            assert (a.time, a.label) == (b.time, b.label)
            np.testing.assert_array_equal(a.state, b.state)
        sched = sx_schedule(t_end=1.0)
        np.testing.assert_array_equal(measure_report(empty, sched).weights,
                                      measure_report(full, sched).weights)


class TestSlotTable:
    """A recipe builds its slot fixed points once; enumeration reuses them."""

    def test_enumeration_builds_no_fixed_points_and_validates_nothing(
            self, monkeypatch):
        spec, _ = random_family_spec(51, dim=3, n_times=4, s_t=1)
        made = count_calls(monkeypatch, FixedPoint, "__init__")
        checked = count_calls(monkeypatch, linalg, "as_state")
        fam = enumerate_family(spec)
        assert made == [] and checked == []
        assert len(fam.slots) == len(spec.slots) == 4
        assert all(a is b for a, b in zip(fam.slots, spec.slots))

    def test_two_enumerations_share_slots_but_are_distinct_families(self):
        spec, _ = random_family_spec(52, dim=2, n_times=3, s_t=2)
        first, second = enumerate_family(spec), enumerate_family(spec)
        assert first != second
        assert first.slots is second.slots is spec.slots
        assert np.array_equal(first.index, second.index)

    def test_slots_pin_constraints_and_label_basis_positions(self):
        spec, _ = random_family_spec(53, dim=3, n_times=3, s_t=1)
        assert spec.slots[0] == (spec.constraints[0],)
        for k in (1, 2):
            assert [fp.label for fp in spec.slots[k]] == ["0", "1", "2"]
            assert all(fp.time == spec.times[k] for fp in spec.slots[k])
            assert all(v is fp.state and not v.flags.writeable
                       for v, fp in zip(spec.bases[k], spec.slots[k],
                                        strict=True))
        assert spec.history_count() == 9

    def test_raw_vectors_are_validated_once_and_constraints_never(
            self, monkeypatch):
        raw = [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        constraints = (FixedPoint(0.0, E0), FixedPoint(2.0, E1))
        checked = count_calls(monkeypatch, linalg, "as_state")
        spec = FamilySpec(times=(0.0, 1.0, 2.0), bases=raw,
                          constraints=constraints)
        vectors = [v for basis in raw for v in basis]
        assert len(checked) == len(vectors)
        assert all(args[0] is v for args, v in zip(checked, vectors))
        assert spec.slots[0] == (constraints[0],)
        assert spec.slots[2] == (constraints[1],)
        np.testing.assert_array_equal(spec.slots[1][1].state, [0, 1])


class TestEnumerateFamily:
    def test_counts(self):
        spec, _ = random_family_spec(31, dim=2, n_times=2, s_t=1)
        assert len(enumerate_family(spec).histories) == 2
        spec, _ = random_family_spec(32, dim=2, n_times=3, s_t=1)
        assert len(enumerate_family(spec).histories) == 4
        spec, _ = random_family_spec(33, dim=3, n_times=4, s_t=2)
        assert len(enumerate_family(spec).histories) == 9

    def test_guard(self):
        spec, _ = random_family_spec(34, dim=4, n_times=4, s_t=1)
        with pytest.raises(EnumerationGuardError):
            enumerate_family(spec, guard=10)

    def test_incomplete_basis_at_free_slot_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_family(FamilySpec(
                times=(0.0, 1.0),
                bases=(computational_basis(2), (E0,)),
                constraints=(FixedPoint(0.0, E0),)))

    @given(FAMILY_SHAPES)
    @settings(max_examples=20, deadline=None)
    def test_members_built_on_request_match_brute_force(self, shape):
        # against the plain product enumeration the index replaces
        seed, dim, n_times, s_t = shape
        spec, _ = random_family_spec(seed, dim, n_times, s_t)
        options = []
        for i, t in enumerate(spec.times):
            if i in spec.pinned:
                options.append([(None, spec.pinned[i])])
            else:
                options.append([(k, FixedPoint(t, v, str(k)))
                                for k, v in enumerate(spec.bases[i])])
        fam = enumerate_family(spec)
        combos = list(itertools.product(*options))
        assert len(fam.histories) == len(combos)
        for h, choice, combo in zip(fam.histories, fam.choices, combos):
            want = QuantumHistory(p for _, p in combo)
            assert h.times == want.times
            assert h.labels == want.labels
            assert tuple(choice) == tuple(k for k, _ in combo
                                          if k is not None)
            assert histories_equal(h, want, tol=0.0)


class TestFamilyIndex:
    """A family is its per-slot fixed points plus an index of members."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=15, deadline=None)
    def test_hand_built_family_derives_the_enumerated_index(self, shape):
        seed, dim, n_times, s_t = shape
        fam = enumerate_family(random_family_spec(seed, dim, n_times, s_t)[0])
        rebuilt = HistoryFamily(histories=fam.histories,
                                constraint_times=fam.constraint_times)
        assert np.array_equal(rebuilt.index, fam.index)
        assert all(a is b for sa, sb in zip(rebuilt.slots, fam.slots)
                   for a, b in zip(sa, sb, strict=True))
        assert rebuilt.histories is fam.histories
        assert rebuilt.choices is None

    def test_shared_fixed_points_fill_one_slot_entry(self):
        a, b = FixedPoint(0.0, E0), FixedPoint(1.0, E1)
        c = FixedPoint(1.0, E0)
        fam = HistoryFamily(histories=(QuantumHistory((a, b)),
                                       QuantumHistory((a, c)),
                                       QuantumHistory((a, b))))
        assert fam.slots == ((a,), (b, c))
        assert fam.index.tolist() == [[0, 0], [0, 1], [0, 0]]
