import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import (FamilySpec, FixedPoint, HistoryFamily, QuantumHistory,
                      ValidationError, chain_probability, decoherence_functional,
                      decoherence_report, enumerate_family, histories_equal,
                      history_inner, history_operator, measure_report,
                      record_state, transfer_chain, validate_family)
from qcontour import dynamics, histories, linalg
from qcontour.errors import DimensionMismatchError, EnumerationGuardError
from qcontour.sampling import (random_model, random_orthonormal_basis,
                               rng_from_seed)
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

    @pytest.mark.parametrize("time", ["a", "0", None, True, math.nan,
                                      -math.inf, 1j])
    def test_fixed_point_time_must_be_a_real_finite_number(self, time):
        # "a" used to leak ValueError, and a NaN time was held until a
        # FamilySpec refused it
        with pytest.raises(ValidationError, match="^fixed-point time must"):
            FixedPoint(time, E0)

    def test_numpy_and_integer_times_become_floats(self):
        assert FixedPoint(np.float64(0.5), E0).time == 0.5
        assert type(FixedPoint(np.int64(2), E0).time) is float

    def test_family_shares_grid(self):
        with pytest.raises(ValidationError):
            HistoryFamily(histories=(two_point(E0, E1),
                                     two_point(E0, E1, t2=2.0)))

    def test_family_refuses_a_grid_time_constrained_twice(self):
        # FamilySpec refuses this case; the family used to accept it
        with pytest.raises(ValidationError, match="duplicate constraint"):
            HistoryFamily((two_point(E0, E1),), constraint_times=(0.0, 0.0))

    @pytest.mark.parametrize("t", ["a", None, 10 ** 400, True],
                             ids=["a", "None", "10**400", "True"])
    def test_family_refuses_a_constraint_time_that_is_not_a_time(self, t):
        # "a" and None used to leak TypeError from same_time, 10**400
        # OverflowError; True was taken as time 1.0
        with pytest.raises(ValidationError,
                           match="^constraint time must be real and finite"):
            HistoryFamily((two_point(E0, E1),), constraint_times=(t,))

    @pytest.mark.parametrize("times", [0.0, None, "0.0", b"\x00",
                                       iter([0.0]), np.array(0.0)],
                             ids=["float", "None", "text", "bytes",
                                  "iterator", "0-d array"])
    def test_family_refuses_constraint_times_that_are_not_a_sequence(
            self, times):
        # a float or None used to leak TypeError, text was refused time by
        # time, bytes were read as integer times and an iterator was used
        # up by the check, leaving no constraint time
        with pytest.raises(ValidationError,
                           match="^constraint times must be a sequence"):
            HistoryFamily((two_point(E0, E1),), constraint_times=times)

    @pytest.mark.parametrize("times", [(1.0, 0.0), [1.0, 0.0],
                                       np.array([1.0, 0.0])])
    def test_family_keeps_constraint_times_in_time_order(self, times):
        # enumerate_family sorted them; a hand-built family kept the order
        # it was given
        fam = HistoryFamily((two_point(E0, E1),), constraint_times=times)
        assert fam.constraint_times == (0.0, 1.0)

    @pytest.mark.parametrize("build, wanted, got", [
        (lambda: HistoryFamily(two_point(E0, E1)), "histories",
         "QuantumHistory"),
        (lambda: HistoryFamily([1]), "histories", "an entry of int"),
        (lambda: QuantumHistory(None), "fixed points", "NoneType"),
        (lambda: QuantumHistory([1, 2]), "fixed points", "an entry of int"),
    ], ids=["one history", "a number", "None", "numbers"])
    def test_constructors_refuse_what_is_not_a_sequence_of_members(
            self, build, wanted, got):
        # one history alone and None used to leak TypeError, numbers
        # AttributeError
        with pytest.raises(ValidationError,
                           match=f"must be a sequence of {wanted}, got {got}$"):
            build()


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


def _pair_table(fam, scale):
    """The whole H x H table of (|c_i| |c_j|) |<s_N(i)|s_N(j)>| over pairs
    i < j (0 on and below the diagonal), from the Gram rows the grouped
    maximum reads."""
    last = fam.index[:, -1]
    _, gram_rows = histories._slot_gram(fam.slot_states[-1], 1)
    table = scale[:, None] * scale * gram_rows(last)[:, last]
    table[np.tri(len(scale), dtype=bool)] = 0.0
    return table


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
        original, products = histories._products, []

        def recorded(fam, steps):
            products.append(original(fam, steps))
            return products[-1]
        for name, fam in family_variants(spec, seed).items():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(histories, "_products", recorded)
                report = decoherence_report(fam, sched, psi1, 1e-10)
            # given the same factors, the grouped maximum is the largest
            # entry of the whole pair table, bit for bit, and the first
            # pair attaining it in row-major order
            table = _pair_table(fam, np.hypot(*products[-1]))
            k = int(np.argmax(table))
            assert report.max_offdiagonal == table.flat[k], name
            assert report.worst_pair == (
                divmod(k, len(table)) if table.flat[k] > 0 else None), name
            values = _brute_force_decoherence(fam, sched, psi1)
            worst = max(values.values(), default=0.0)
            assert report.max_offdiagonal == pytest.approx(worst, abs=1e-12)
            if not report.decoherent:
                # a unique maximum gives the same pair; pairs tied up to
                # rounding, such as D(00, 10) = -D(01, 11) in a qubit
                # family, resolve by the last bit of either computation
                tied = [p for p, v in values.items() if worst - v <= 1e-12]
                assert report.worst_pair in tied, name

    @given(st.tuples(st.integers(0, 10 ** 6), st.integers(2, 3),
                     st.integers(2, 4), st.sampled_from([1, 2])))
    @settings(max_examples=10, deadline=None)
    def test_free_first_slot_matches_functional(self, shape):
        # the preparation is none of the first slot's states, so every
        # member's record starts from psi1 whatever its slot-0 fixed point
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        free = FamilySpec(times=spec.times, bases=spec.bases,
                          constraints=spec.constraints[1:])
        assert 0 not in free.pinned and len(free.slots[0]) == dim
        psi1 = spec.constraints[0].state
        for name, fam in family_variants(free, seed).items():
            report = decoherence_report(fam, sched, psi1, 1e-10)
            values = _brute_force_decoherence(fam, sched, psi1)
            worst = max(values.values(), default=0.0)
            assert report.max_offdiagonal == pytest.approx(worst, abs=1e-12)
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
        # n copies of one history overlap fully in every pair, so each pair
        # a row block forms is a violation, listed in the order formed; a
        # block of the wrong width would drop a pair, list one twice or
        # name a member beyond n - 1
        monkeypatch.setattr(histories, "_PAIR_BLOCK_ENTRIES", budget)
        h = two_point(E0, PLUS)
        for n in range(1, 30):
            violations = validate_family(HistoryFamily((h,) * n)).violations
            pairs = [(i, j) for i, j, _ in violations]
            assert pairs == list(itertools.combinations(range(n), 2))
            assert all(v == pytest.approx(1.0) for _, _, v in violations)

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


def _ray(angle):
    return np.array([math.cos(angle), math.sin(angle)], dtype=complex)


#: two real qubit states at 30 and 60 degrees from |0>
RAY_30, RAY_60 = _ray(math.pi / 6), _ray(math.pi / 3)


def _certificate_verdicts(monkeypatch):
    """The verdict of every certificate ``validate_family`` asks for from
    now on: False sends the family to the pair walk."""
    verdicts = []
    certified = histories._certified_orthogonal

    def spy(*args):
        verdicts.append(certified(*args))
        return verdicts[-1]
    monkeypatch.setattr(histories, "_certified_orthogonal", spy)
    return verdicts


class TestGroupedChecks:
    """The certificate and the grouped maximum give the pair blocks' answer."""

    @pytest.mark.parametrize("seed, dim, n_times, s_t",
                             [(71, 2, 3, 1), (72, 3, 4, 2), (73, 4, 3, 1)])
    def test_only_a_family_that_fails_the_certificate_forms_pairs(
            self, monkeypatch, seed, dim, n_times, s_t):
        spec, _ = random_family_spec(seed, dim, n_times, s_t)
        variants = family_variants(spec, seed)
        # rebuilt by hand: no choices, so its rows are checked by sorting
        variants["rebuilt"] = HistoryFamily(
            histories=variants["enumerated"].histories)
        verdicts = _certificate_verdicts(monkeypatch)
        entered, valid = {}, {}
        for name in ("enumerated", "rebuilt", "duplicated", "tampered"):
            valid[name] = validate_family(variants[name], 1e-10).valid
            entered[name] = not verdicts[-1]
        assert len(verdicts) == 4
        assert entered == {"enumerated": False, "rebuilt": False,
                           "duplicated": True, "tampered": True}
        # a tampered family may be valid: tampering a pinned slot leaves
        # every pair differing at a free one
        assert valid["enumerated"] and valid["rebuilt"]
        assert not valid["duplicated"]

    def test_bound_above_tol_without_a_violation_gives_the_blocks_answer(
            self, monkeypatch):
        # slot 1 holds |0> and |+>, so its bound is 1/2, but the two
        # members also differ at slot 0, where they are orthogonal
        fam = HistoryFamily(histories=(two_point(E0, E0),
                                       two_point(E1, PLUS)))
        verdicts = _certificate_verdicts(monkeypatch)
        assert validate_family(fam, 1e-10) == histories.FamilyReport(True, ())
        assert verdicts == [False]

    @pytest.mark.parametrize("budget", [1, 10 ** 6])
    @pytest.mark.parametrize("psi1, ends, pair, value", [
        # rows 0 and 1, of the last-slot groups |0> and |1>, tie against
        # member 2 (|+>)
        (PLUS, (E0, E1, PLUS), (0, 2), 0.5),
        # row 0 ties against the groups |0> and |1>
        (PLUS, (PLUS, E0, E1), (0, 1), 0.5),
        # row 0 ties against two members of one group, which share their
        # fixed point; the pair of those two is 1/4
        (E0, (RAY_30, RAY_60, RAY_60), (0, 1), 0.375),
    ])
    def test_exact_ties_keep_the_first_pair(self, monkeypatch, budget, psi1,
                                            ends, pair, value):
        monkeypatch.setattr(histories, "_PAIR_BLOCK_ENTRIES", budget)
        start, shared = FixedPoint(0.0, psi1), {}
        fam = HistoryFamily(histories=[QuantumHistory((start, shared.setdefault(
            id(end), FixedPoint(1.0, end)))) for end in ends])
        assert len(fam.slots[1]) == len(set(map(id, ends)))
        report = decoherence_report(fam, zero_schedule(2), psi1)
        assert report.worst_pair == pair
        assert report.max_offdiagonal == pytest.approx(value)


class TestFamilyCheckCosts:
    @pytest.mark.parametrize("dim", [3, 2])
    def test_one_propagator_per_later_slot(self, monkeypatch, dim):
        # one propagator per segment, and no projector built or checked:
        # every projector is rank one, so the records are scaled states
        spec, sched = random_family_spec(61, dim, n_times=4, s_t=1)
        fam = enumerate_family(spec)
        propagated = count_calls(monkeypatch, dynamics, "propagate")
        checked = count_calls(monkeypatch, linalg, "is_projector")
        decoherence_report(fam, sched, spec.constraints[0].state)
        assert len(propagated) == len(fam.times) - 1 == 3
        assert checked == []

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

    def test_certificate_reads_the_shape(self):
        # an enumerated family's rows are distinct by construction: the
        # certificate clears it without building its index or choices
        spec, _ = random_family_spec(64, dim=3, n_times=4, s_t=1)
        fam = enumerate_family(spec)
        assert validate_family(fam).valid
        assert "index" not in vars(fam) and "choices" not in vars(fam)

    def test_validate_memory_stays_flat_on_fresh_fixed_points(self):
        # every member has its own fixed points, so each slot holds H = 1024
        # states; a whole Gram table per slot peaked at 64 MB
        spec, _ = random_family_spec(63, dim=4, n_times=6, s_t=1)
        fam = family_variants(spec, 3)["fresh"]
        assert len(fam.index) == len(fam.slots[1]) == 1024
        tracemalloc.start()
        try:
            report = validate_family(fam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.valid
        assert peak < 8 * 2 ** 20

    def test_decoherence_memory_stays_flat(self):
        spec, sched = random_family_spec(65, dim=64, n_times=3, s_t=1)
        fam = enumerate_family(spec)
        assert len(fam.index) == 4096
        psi1 = spec.constraints[0].state
        tracemalloc.start()
        try:
            report = decoherence_report(fam, sched, psi1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an (H, d, d) projector gather would take 268 MB
        assert peak < 8 * 2 ** 20
        a, b = (history_operator(fam.histories[i].points, sched, fam.times[0])
                for i in report.worst_pair)
        assert report.max_offdiagonal == pytest.approx(
            abs(decoherence_functional(a, b, psi1)), abs=1e-12)


class TestTolerance:
    @pytest.mark.parametrize("tol", ["x", None, True, 1j])
    def test_tol_that_is_not_a_number_rejected(self, tol):
        # "x" used to leak ValueError, None TypeError; True was taken as 1
        spec, sched = random_family_spec(64, dim=2, n_times=3, s_t=1)
        fam = family_variants(spec, 64)["duplicated"]
        psi1 = spec.constraints[0].state
        with pytest.raises(ValidationError, match="tolerance"):
            validate_family(fam, tol)
        with pytest.raises(ValidationError, match="tolerance"):
            decoherence_report(fam, sched, psi1, tol)
        # histories_equal let "x" leak numpy's UFuncTypeError
        with pytest.raises(ValidationError, match="tolerance"):
            histories_equal(fam.histories[0], fam.histories[0], tol)

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf])
    def test_nan_or_negative_tol_rejected(self, tol):
        spec, sched = random_family_spec(64, dim=2, n_times=3, s_t=1)
        fam = family_variants(spec, 64)["duplicated"]
        psi1 = spec.constraints[0].state
        with pytest.raises(ValidationError, match="non-negative"):
            validate_family(fam, tol)
        with pytest.raises(ValidationError, match="non-negative"):
            decoherence_report(fam, sched, psi1, tol)
        # histories_equal returned False for a NaN tolerance
        with pytest.raises(ValidationError, match="non-negative"):
            histories_equal(fam.histories[0], fam.histories[0], tol)

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

    @pytest.mark.parametrize("t_0", ["0", True, math.nan])
    def test_reference_time_must_be_a_real_finite_number(self, t_0):
        # "0" was read as 0.0, and True as 1.0 (after the first point)
        with pytest.raises(ValidationError,
                           match="^reference time must be real"):
            history_operator([FixedPoint(0.0, E0), FixedPoint(1.0, E1)],
                             zero_schedule(2), t_0)

    def test_chain_applied_matches_record_state(self):
        spec, sched = random_family_spec(21, dim=3, n_times=3, s_t=1)
        fam = enumerate_family(spec)
        psi1 = spec.constraints[0].state
        for h in fam.histories:
            chain = history_operator(h.points, sched, h.times[0])
            by_matrix = chain.matrix(3) @ psi1
            np.testing.assert_allclose(record_state(chain, psi1), by_matrix,
                                       atol=1e-12)

    def test_projectors_must_share_one_dimension(self):
        # a qubit and a qutrit projector used to fail inside numpy's matmul
        p2, p3 = np.diag([1.0, 0.0]), np.diag([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError,
                           match="projector dimension 2 does not match "
                                 "dimension 3"):
            histories.HistoryOperator((p2, p3))

    @pytest.mark.parametrize("dim", [2.5, True, 0])
    def test_empty_chain_dimension_is_a_count(self, dim):
        # 2.5 used to fail inside numpy with TypeError
        with pytest.raises(ValidationError, match="dimension must be"):
            histories.HistoryOperator(()).matrix(dim)

    def test_empty_chain_is_the_identity(self):
        np.testing.assert_array_equal(
            histories.HistoryOperator(()).matrix(np.int64(3)), np.eye(3))


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
        report = decoherence_report(fam, zero_schedule(2), PLUS, 1e-10)
        assert report.decoherent

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
        assert decoherence_report(fam, zero_schedule(2), E0, 1e-10).decoherent


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


    def test_every_basis_is_judged_before_an_empty_one_is_refused(self):
        # the empty set at the free time 0.0 used to be refused first
        with pytest.raises(ValidationError,
                           match=r"^basis at time 1\.0 is not orthonormal$"):
            FamilySpec(times=(0.0, 1.0), bases=((), (E0, E0)))

    @pytest.mark.parametrize("constraints", [(), (FixedPoint(1.0, E0),)])
    def test_unnormalized_basis_vector_names_its_time(self, constraints):
        with pytest.raises(ValidationError, match=r"^basis at time 1\.0: "
                           "state vector is not normalized"):
            FamilySpec(times=(0.0, 1.0),
                       bases=(computational_basis(2), (E0, 2 * E1)),
                       constraints=constraints)

    def test_fully_pinned_recipe_takes_its_dimension_from_its_pins(self):
        # no basis vector to take a dimension from: the pins give it, and
        # the recipe weighs as the one with full bases does
        pins = (FixedPoint(0.0, E0), FixedPoint(1.0, PLUS))
        empty, full = (FamilySpec(times=(0.0, 1.0), bases=(basis, basis),
                                  constraints=pins)
                       for basis in ((), computational_basis(2)))
        assert empty.dim == full.dim == 2
        assert empty.bases == ((), ())
        sched = sx_schedule(t_end=1.0)
        reports = [measure_report(enumerate_family(spec), sched)
                   for spec in (empty, full)]
        np.testing.assert_array_equal(reports[0].weights, reports[1].weights)
        np.testing.assert_array_equal(reports[0].measures, [1.0])
        np.testing.assert_array_equal(reports[1].measures, [1.0])
        assert transfer_chain(empty, sched)[0] \
            == transfer_chain(full, sched)[0] > 0.0

    def test_pins_of_several_dimensions_are_refused_without_bases(self):
        pins = (FixedPoint(0.0, E0), FixedPoint(1.0, np.eye(3)[0]))
        with pytest.raises(DimensionMismatchError,
                           match="^constraint state dimension 2 does not "
                                 "match dimension 3"):
            FamilySpec(times=(0.0, 1.0), bases=((), ()), constraints=pins)

    def test_a_ragged_basis_is_a_state_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError,
                           match="^state dimension 2 does not match "
                                 "dimension 3"):
            FamilySpec(times=(0.0, 1.0),
                       bases=(computational_basis(2), (E0, np.eye(3)[1])))

    def test_orthonormality_is_judged_before_a_later_basis(self):
        # each basis is checked whole, in grid order
        with pytest.raises(ValidationError,
                           match=r"^basis at time 0\.0 is not orthonormal$"):
            FamilySpec(times=(0.0, 1.0), bases=((E0, E0), (2 * E0,)))
        with pytest.raises(ValidationError,
                           match=r"^basis at time 0\.0 is not orthonormal$"):
            FamilySpec(times=(0.0, 1.0),
                       bases=((E0, E0), computational_basis(3)))

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

    def test_slot_states_are_read_only_and_equal_the_checked_vectors(self):
        # every basis row, at free and pinned times, is as_state's value of
        # its raw vector, and no input array is shared
        rng = rng_from_seed(55)
        raw = [random_orthonormal_basis(rng, 3) for _ in range(3)]
        raw[1] = [v.tolist() for v in raw[1]]
        pin = FixedPoint(0.0, raw[0][1], "prep")
        spec = FamilySpec(times=(0.0, 0.5, 1.0), bases=raw,
                          constraints=(pin,))
        for k, (basis, stored) in enumerate(zip(raw, spec.bases)):
            assert len(stored) == len(basis)
            for v, row in zip(basis, stored):
                assert not row.flags.writeable and row.dtype == complex
                np.testing.assert_array_equal(row, linalg.as_state(v))
                assert not (isinstance(v, np.ndarray)
                            and np.shares_memory(row, v))
            if k:
                assert all(fp.state is row and fp.time == spec.times[k]
                           for fp, row in zip(spec.slots[k], stored,
                                              strict=True))

    def test_raw_vectors_are_validated_once_and_constraints_never(
            self, monkeypatch):
        # the bases are checked as stacks, one read of each raw vector
        raw = [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        constraints = (FixedPoint(0.0, E0), FixedPoint(2.0, E1))
        stacked = count_calls(monkeypatch, linalg, "_basis_stacks")
        read = count_calls(monkeypatch, linalg, "_as_numbers")
        per_set = count_calls(monkeypatch, linalg, "as_basis")
        single = count_calls(monkeypatch, linalg, "as_state")
        spec = FamilySpec(times=(0.0, 1.0, 2.0), bases=raw,
                          constraints=constraints)
        assert single == [] and per_set == [] and len(stacked) == 1
        assert [len(sets) for sets, _ in stacked] == [len(raw)]
        assert all(a is b for a, b in zip(stacked[0][0], raw, strict=True))
        for basis in raw:
            assert sum(any(item is basis for item in args[0])
                       for args in read if isinstance(args[0], list)) == 1
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
        with pytest.raises(EnumerationGuardError):
            enumerate_family(spec, guard=0)

    @pytest.mark.parametrize("guard", ["x", True, -1, 2.0])
    def test_guard_must_be_a_non_negative_integer(self, guard):
        # "x" used to leak TypeError; True was taken as 1
        spec, _ = random_family_spec(34, dim=2, n_times=2, s_t=1)
        with pytest.raises(ValidationError, match="^enumeration guard must"):
            enumerate_family(spec, guard=guard)

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

    @given(FAMILY_SHAPES)
    @settings(max_examples=15, deadline=None)
    def test_enumerated_members_are_the_product_of_the_slots(self, shape):
        # the members are read from the slots alone: no index is built
        seed, dim, n_times, s_t = shape
        fam = enumerate_family(random_family_spec(seed, dim, n_times, s_t)[0])
        members = fam.histories
        assert "index" not in vars(fam)
        combos = list(itertools.product(*fam.slots))
        assert len(members) == len(combos)
        for h, combo in zip(members, combos):
            assert len(h.points) == len(combo)
            assert all(a is b for a, b in zip(h.points, combo))
        # the choices are the index's free columns
        free = [k for k, t in enumerate(fam.times)
                if t not in fam.constraint_times]
        assert np.array_equal(fam.choices, fam.index[:, free])
        assert not fam.choices.flags.writeable

    def test_histories_are_a_view_built_once(self, monkeypatch):
        # a hand-built family keeps the tuple it was given; an enumerated
        # family's is the product of its slots, built on first read
        members = (two_point(E0, E1), two_point(E1, E0))
        assert HistoryFamily(members).histories is members
        fam = enumerate_family(random_family_spec(42, dim=2, n_times=3,
                                                  s_t=1)[0])
        built = count_calls(monkeypatch, QuantumHistory, "_from_points")
        assert "histories" not in vars(fam)
        first = fam.histories
        assert fam.histories is first
        assert [h.points for h in first] == list(itertools.product(
            *fam.slots))
        assert len(built) == len(first) == 4

    def test_shared_fixed_points_fill_one_slot_entry(self):
        a, b = FixedPoint(0.0, E0), FixedPoint(1.0, E1)
        c = FixedPoint(1.0, E0)
        fam = HistoryFamily(histories=(QuantumHistory((a, b)),
                                       QuantumHistory((a, c)),
                                       QuantumHistory((a, b))))
        assert fam.slots == ((a,), (b, c))
        assert fam.index.tolist() == [[0, 0], [0, 1], [0, 0]]


def _checked_arrays(obj) -> list:
    """Every checked array a fixed point, recipe or family holds: states,
    slot stacks, basis rows and, once read, a family's index and choices."""
    if isinstance(obj, FixedPoint):
        return [obj.state]
    arrays = [*obj.slot_states,
              *(fp.state for slot in obj.slots for fp in slot)]
    if isinstance(obj, FamilySpec):
        return arrays + [row for rows in obj.bases for row in rows]
    return arrays + [obj.index, obj.choices]


class TestPickledArraysStayReadOnly:
    """A pickle keeps an array's bits but not its read-only flag; an
    unpickled fixed point, model or family makes its arrays read-only
    again, as ``HamiltonianSchedule`` does by being built again."""

    def test_a_round_trip_keeps_bits_and_flags(self):
        model = random_model(rng_from_seed(8), (0.0, 0.5, 1.0), 3, 1)
        fam = enumerate_family(model)
        fam.choices  # the index and choices are built, and pickled, too
        for obj in (FixedPoint(0.5, PLUS, "p"), model, fam):
            copy = pickle.loads(pickle.dumps(obj))
            arrays = _checked_arrays(copy)
            assert [a.tobytes() for a in arrays] == [
                a.tobytes() for a in _checked_arrays(obj)]
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError, match="read-only"):
                arrays[0][0] = 0.0

    def test_an_unpickled_family_measures_as_the_original(self):
        model = random_model(rng_from_seed(9), (0.0, 0.4, 0.8, 1.2), 3, 2)
        fam = enumerate_family(model)
        want = measure_report(fam, model.schedule, steps_per_segment=2)
        got = measure_report(pickle.loads(pickle.dumps(fam)),
                             pickle.loads(pickle.dumps(model.schedule)),
                             steps_per_segment=2)
        for column in ("weights", "measures", "contour_weights"):
            assert (getattr(got, column).tobytes()
                    == getattr(want, column).tobytes())
        assert got.normalization == want.normalization
