import math
import pickle
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcontour import (HamiltonianSchedule, ValidationError, evolve_state,
                      heisenberg_projector, propagate)
from qcontour.dynamics import MEMO_ENTRIES, substep_propagators
from qcontour.linalg import MAX_ENUMERATION, TIME_EPS, is_projector
from qcontour.sampling import random_hermitian, random_state, rng_from_seed

from toys import E0, E1, SX, SZ, count_calls, sx_schedule, zero_schedule


class TestScheduleConstruction:
    def test_rejects_gap(self):
        with pytest.raises(ValidationError):
            HamiltonianSchedule([(0.0, 1.0, SX), (1.5, 2.0, SZ)])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HamiltonianSchedule.constant(np.array([[0, 1], [0, 0]]), 0.0, 1.0)

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValidationError):
            HamiltonianSchedule([(0.0, 1.0, SX), (1.0, 2.0, np.eye(3))])

    def test_every_triple_s_times_are_checked_before_any_generator(self):
        # the first generator used to be refused, as not Hermitian, before
        # the second triple's times were read
        with pytest.raises(ValidationError,
                           match=r"^segment times must increase"):
            HamiltonianSchedule([(0.0, 1.0, [[0, 1], [0, 0]]),
                                 (2.0, 1.0, SX)])

    def test_span(self):
        sched = HamiltonianSchedule([(0.0, 1.0, SX), (1.0, 2.5, SZ)])
        assert (sched.t_min, sched.t_max) == (0.0, 2.5)

    def test_a_checked_generator_cannot_be_written(self):
        # a write into the upper corner used to go through: ``propagate``
        # kept its exponential (``eigh`` reads the lower triangle), and
        # ``save_model`` wrote a model that ``load_model`` refused as not
        # Hermitian
        sched = sx_schedule()
        with pytest.raises(ValueError, match="read-only"):
            sched.segments[0][2][0, 1] = 5.0
        np.testing.assert_array_equal(sched.segments[0][2], SX)

    def test_an_array_of_segment_rows_is_read(self):
        # numpy's "truth value ... is ambiguous" ValueError leaked
        segments = [(0.0, 1.0, SX), (1.0, 2.0, SZ)]
        sched = HamiltonianSchedule(np.array(segments, dtype=object))
        for (a, b, h), (c, d, g) in zip(sched.segments, segments,
                                        strict=True):
            assert (a, b) == (c, d) and np.array_equal(h, g)

    def test_a_number_is_not_a_sequence_of_segments(self):
        # 0 read as "schedule needs at least one segment"
        with pytest.raises(ValidationError,
                           match=r"^schedule segments must be a sequence of "
                                 r"\(t_start, t_end, H\) triples, got int$"):
            HamiltonianSchedule(0)

    def test_the_eigen_cache_cannot_be_written(self):
        # every cached w, V and V^H was writable, so a write changed every
        # later propagator of the schedule without a check
        sched = HamiltonianSchedule([(0.0, 1.0, SX), (1.0, 2.0, SZ)])
        want = propagate(sched, 0.0, 0.5)
        arrays = [a for segment in sched._eigs for a in segment]
        assert len(arrays) == 6
        assert [a.flags.writeable for a in arrays] == [False] * 6
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
        np.testing.assert_array_equal(
            HamiltonianSchedule(sched.segments)._segment_exp(0, 0.25),
            sched._segment_exp(0, 0.25))
        np.testing.assert_array_equal(propagate(sched, 0.0, 0.5), want)


class TestNonContiguousInput:
    def test_transposed_hermitian_generator(self):
        h = random_hermitian(rng_from_seed(12), 3)
        sched = HamiltonianSchedule.constant(h.T, 0, 1)
        np.testing.assert_array_equal(sched.segments[0][2], h.T)
        expected = scipy.linalg.expm(-1j * 0.5 * h.T)
        np.testing.assert_allclose(propagate(sched, 0.0, 0.5), expected,
                                   atol=1e-12)


class TestTimeTolerance:
    """Interval ends match within one relative tolerance at any scale."""

    def test_contiguity_far_from_origin(self):
        sched = HamiltonianSchedule([(0.0, 1e4 + 0.1 + 0.2, SX),
                                     (1e4 + 0.3, 2e4, SZ)])
        assert len(sched.segments) == 2

    def test_span_end_far_from_origin(self):
        t_end = 1e4 + 0.3
        two_ulps = math.nextafter(math.nextafter(t_end, math.inf), math.inf)
        sched = HamiltonianSchedule.constant(SX, 0.0, t_end)
        np.testing.assert_array_equal(propagate(sched, t_end, two_ulps),
                                      np.eye(2))


class TestPropagate:
    @pytest.mark.parametrize("time", ["0", True, math.nan])
    def test_times_must_be_real_finite_numbers(self, time):
        # "0" was read as 0.0 and True as 1.0; NaN was reported as a time
        # outside the span
        sched = zero_schedule(2)
        for args in ((time, 1.0), (0.0, time)):
            with pytest.raises(ValidationError,
                               match="^propagation time must be real"):
                propagate(sched, *args)

    def test_zero_interval_is_identity(self):
        sched = sx_schedule()
        np.testing.assert_allclose(propagate(sched, 0.3, 0.3), np.eye(2))

    def test_sigma_x_closed_form(self):
        sched = HamiltonianSchedule.constant(SX, 0.0, math.pi / 2)
        np.testing.assert_allclose(propagate(sched, 0.0, math.pi / 2),
                                   -1j * SX, atol=1e-12)

    def test_noncommuting_segments_latest_leftmost(self):
        rng = rng_from_seed(7)
        h1, h2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert np.max(np.abs(h1 @ h2 - h2 @ h1)) > 1e-3
        sched = HamiltonianSchedule([(0.0, 0.7, h1), (0.7, 1.5, h2)])
        u = propagate(sched, 0.0, 1.5)
        expected = scipy.linalg.expm(-1j * 0.8 * h2) @ \
            scipy.linalg.expm(-1j * 0.7 * h1)
        np.testing.assert_allclose(u, expected, atol=1e-10)
        reverse = scipy.linalg.expm(-1j * 0.7 * h1) @ \
            scipy.linalg.expm(-1j * 0.8 * h2)
        assert np.max(np.abs(u - reverse)) > 1e-3

    def test_composition(self):
        rng = rng_from_seed(8)
        sched = HamiltonianSchedule(
            [(0.0, 0.5, random_hermitian(rng, 3)),
             (0.5, 1.2, random_hermitian(rng, 3))])
        for t_a, t_b, t_c in [(0.0, 0.4, 1.0), (0.1, 0.5, 0.6),
                              (0.0, 0.9, 1.2)]:
            full = propagate(sched, t_a, t_c)
            split = propagate(sched, t_b, t_c) @ propagate(sched, t_a, t_b)
            assert np.max(np.abs(full - split)) < 1e-10

    def test_backward_is_adjoint(self):
        rng = rng_from_seed(9)
        sched = HamiltonianSchedule(
            [(0.0, 0.6, random_hermitian(rng, 4)),
             (0.6, 1.0, random_hermitian(rng, 4))])
        forward = propagate(sched, 0.1, 0.9)
        backward = propagate(sched, 0.9, 0.1)
        assert np.max(np.abs(backward - forward.conj().T)) <= 1e-12

    def test_backward_is_the_adjoint_bit_for_bit(self):
        rng = rng_from_seed(11)
        sched = HamiltonianSchedule(
            [(0.0, 0.6, random_hermitian(rng, 3)),
             (0.6, 1.0, random_hermitian(rng, 3))])
        np.testing.assert_array_equal(propagate(sched, 0.9, 0.1),
                                      propagate(sched, 0.1, 0.9).conj().T)

    def test_product_from_the_first_factor_equals_the_identity_start(self):
        # the product starts from its first segment exponential; starting
        # from the identity, as it once did, gives equal values (the sign
        # of a zero entry may differ: -0.0 + 0.0 is +0.0)
        rng = rng_from_seed(12)
        sched = HamiltonianSchedule(
            [(0.0, 0.5, random_hermitian(rng, 3)),
             (0.5, 1.0, random_hermitian(rng, 3)),
             (1.0, 1.5, random_hermitian(rng, 3))])
        for t_lo, t_hi in [(0.1, 0.4), (0.1, 0.9), (0.1, 1.4), (0.0, 1.5)]:
            u = np.eye(3, dtype=complex)
            for s0, s1, h in sched.segments:
                lo, hi = max(t_lo, s0), min(t_hi, s1)
                if hi > lo:
                    w, v = np.linalg.eigh(h)
                    u = ((v * np.exp(-1j * (hi - lo) * w)) @ v.conj().T) @ u
            np.testing.assert_array_equal(propagate(sched, t_lo, t_hi), u)
            np.testing.assert_array_equal(propagate(sched, t_hi, t_lo),
                                          u.conj().T)

    def test_unitary_within_tolerance(self):
        rng = rng_from_seed(10)
        sched = HamiltonianSchedule.constant(random_hermitian(rng, 5), 0, 2)
        u = propagate(sched, 0.0, 1.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) <= 1e-12

    def test_outside_span_rejected(self):
        with pytest.raises(ValidationError):
            propagate(sx_schedule(), 0.0, 10.0)


#: offsets of a step end or a tick from a segment boundary: on it, and
#: within TIME_EPS either side
NEAR = (0.0, 1e-13, -1e-13, 0.5 * TIME_EPS, -0.5 * TIME_EPS)


@st.composite
def substep_cases(draw):
    """A schedule of 1-4 segments on [0, 3], 1-8 steps (t_a, t_b) and a
    sub-step count of 1-8.  Each step runs forward or backward and either
    has random ends (which often straddle a boundary), ends on or within
    TIME_EPS of boundaries, or has an interior tick within TIME_EPS of an
    interior boundary; half the cases walk their steps forward and then
    back, as the contour does."""
    rng = rng_from_seed(draw(st.integers(0, 10 ** 6)))
    dim = draw(st.integers(2, 5))
    cuts = draw(st.lists(st.floats(0.1, 2.9), max_size=3, unique=True))
    bounds = [0.0, *sorted(cuts), 3.0]
    assume(min(np.diff(bounds)) > 1e-3)
    sched = HamiltonianSchedule([(a, b, random_hermitian(rng, dim))
                                 for a, b in zip(bounds, bounds[1:])])
    sub = draw(st.integers(1, 8))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "boundaries", "tick"]))
        if kind == "tick" and sub > 1 and len(bounds) > 2:
            i = draw(st.integers(1, sub - 1))
            width = draw(st.floats(0.01, 0.5))
            t_a = (draw(st.sampled_from(bounds[1:-1])) - i * width
                   + draw(st.sampled_from(NEAR)))
            t_b = t_a + sub * width
        elif kind == "boundaries":
            t_a, t_b = (draw(st.sampled_from(bounds))
                        + draw(st.sampled_from(NEAR)) for _ in range(2))
        else:
            t_a, t_b = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        t_a, t_b = (min(max(t, 0.0), 3.0) for t in (t_a, t_b))
        steps.append((t_b, t_a) if draw(st.booleans()) else (t_a, t_b))
    if draw(st.booleans()):
        steps += [(t_b, t_a) for t_a, t_b in reversed(steps)]
    return sched, steps, sub


class TestSubstepPropagators:
    """Each step's sub-step propagators are ``propagate``'s over each
    sub-interval of ``np.linspace``'s ticks, bit for bit and in the same
    memory order (a backward one is the adjoint view), however many steps
    one call takes."""

    @given(substep_cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_propagate_per_sub_step(self, case):
        sched, steps, sub = case
        got = substep_propagators(sched, steps, sub)
        assert len(got) == len(steps)
        for (t_a, t_b), us in zip(steps, got):
            ticks = np.linspace(t_a, t_b, sub + 1)
            want = [propagate(sched, a, b) for a, b in zip(ticks, ticks[1:])]
            assert len(us) == sub
            for g, w in zip(us, want):
                np.testing.assert_array_equal(g, w)
                assert g.strides == w.strides

    def test_batched_exponentials_equal_one_call_each(self):
        sched = HamiltonianSchedule.constant(
            random_hermitian(rng_from_seed(13), 4), 0.0, 3.0)
        dts = rng_from_seed(14).uniform(0.0, 3.0, size=8)
        batch = sched._segment_exp(0, dts[:, None, None])
        assert batch.shape == (8, 4, 4)
        for dt, u in zip(dts, batch):
            np.testing.assert_array_equal(u, sched._segment_exp(0, float(dt)))

    @pytest.mark.parametrize("sub", [1, 3])
    def test_no_steps_give_no_propagators(self, sub):
        sched = HamiltonianSchedule.constant(SX, 0.0, 3.0)
        assert substep_propagators(sched, [], sub) == []

    @pytest.mark.parametrize("t_a, t_b", [
        (math.nan, 1.0), (0.0, math.nan), (True, 1.0), (0.0, False),
        (-0.5, 1.0), (0.0, 3.5), (-0.5, math.nan), (3.5, -0.5)])
    @pytest.mark.parametrize("sub", [1, 3])
    def test_times_are_checked(self, t_a, t_b, sub):
        # the first refused step is refused as ``propagate`` refuses it,
        # after steps that pass and before steps that would also fail
        sched = HamiltonianSchedule.constant(SX, 0.0, 3.0)
        with pytest.raises(ValidationError) as want:
            propagate(sched, t_a, t_b)
        with pytest.raises(ValidationError, match="propagation time|span"
                           ) as info:
            substep_propagators(
                sched, [(0.0, 1.0), (1.0, 0.5), (t_a, t_b), (4.0, 5.0)], sub)
        assert str(info.value) == str(want.value)

    @pytest.mark.parametrize("steps", [None, 1.0, [1.0], [(0.0, 1.0, 2.0)],
                                       [(0.0, 1.0), None]])
    @pytest.mark.parametrize("sub", [1, 3])
    def test_steps_must_be_pairs(self, steps, sub):
        sched = HamiltonianSchedule.constant(SX, 0.0, 3.0)
        with pytest.raises(ValidationError, match="^steps must be a sequence "
                           r"of \(t_a, t_b\) pairs, got ") as info:
            substep_propagators(sched, steps, sub)
        assert type(info.value) is ValidationError

    @pytest.mark.parametrize("sub", [0, 2.5, True])
    def test_sub_step_count_is_checked(self, sub):
        sched = HamiltonianSchedule.constant(SX, 0.0, 3.0)
        with pytest.raises(ValidationError, match="sub-step count"):
            substep_propagators(sched, [(0.0, 1.0)], sub)

    @pytest.mark.parametrize("sub", [MAX_ENUMERATION + 1, 2 ** 62,
                                     np.int64(2 ** 62)])
    def test_sub_step_count_has_a_ceiling(self, sub):
        # 2**62 leaked numpy's "array is too big" ValueError; the ceiling
        # refuses a count before any tick array is formed
        sched = HamiltonianSchedule.constant(SX, 0.0, 3.0)
        with pytest.raises(ValidationError,
                           match=f"^sub-step count must be at most "
                                 f"{MAX_ENUMERATION}, got {int(sub)}$"):
            substep_propagators(sched, [(0.0, 1.0)], sub)


@st.composite
def interval_cases(draw):
    """A schedule of 1-4 segments on [0, 3] and 1-12 intervals (t_a, t_b)
    on it, each forward or backward: random ends (which often cross a
    cut), ends on or within TIME_EPS of cuts, zero-length intervals, and
    repeats of earlier intervals."""
    rng = rng_from_seed(draw(st.integers(0, 10 ** 6)))
    dim = draw(st.integers(1, 4))
    cuts = draw(st.lists(st.floats(0.1, 2.9), max_size=3, unique=True))
    bounds = [0.0, *sorted(cuts), 3.0]
    assume(min(np.diff(bounds)) > 1e-3)
    sched = HamiltonianSchedule([(a, b, random_hermitian(rng, dim))
                                 for a, b in zip(bounds, bounds[1:])])
    intervals = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["random", "cuts", "zero", "repeat"]))
        if kind == "repeat" and intervals:
            t_a, t_b = draw(st.sampled_from(intervals))
        elif kind == "cuts":
            t_a, t_b = (draw(st.sampled_from(bounds))
                        + draw(st.sampled_from(NEAR)) for _ in range(2))
        elif kind == "zero":
            t_a = draw(st.floats(0.0, 3.0))
            t_b = t_a + draw(st.sampled_from(NEAR))
        else:
            t_a, t_b = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
        t_a, t_b = (min(max(t, 0.0), 3.0) for t in (t_a, t_b))
        intervals.append((t_b, t_a) if draw(st.booleans()) else (t_a, t_b))
    return sched, intervals


class TestPropagatorMemo:
    """A schedule forms each forward propagator once and holds it while
    its held entries fit ``MEMO_ENTRIES``; every call still checks its
    times and returns an array the caller owns."""

    @given(interval_cases())
    @settings(max_examples=200, deadline=None)
    def test_a_shared_schedule_gives_what_fresh_ones_give(self, case):
        sched, intervals = case
        for t_a, t_b in intervals:
            got = propagate(sched, t_a, t_b)
            want = propagate(HamiltonianSchedule(sched.segments), t_a, t_b)
            np.testing.assert_array_equal(got, want)
            assert got.strides == want.strides
            assert got.flags.writeable == want.flags.writeable
            got[...] = np.nan  # the caller's array, not the held product
        assert all(not u.flags.writeable for u in sched._memo.values())

    def test_each_interval_is_formed_once(self, monkeypatch):
        rng = rng_from_seed(16)
        sched = HamiltonianSchedule([(0.0, 0.6, random_hermitian(rng, 3)),
                                     (0.6, 1.0, random_hermitian(rng, 3))])
        formed = count_calls(monkeypatch, HamiltonianSchedule, "_segment_exp")
        psi = random_state(rng, 3)
        first = propagate(sched, 0.1, 0.9)
        assert len(formed) == 2  # one exponential per segment crossed
        np.testing.assert_array_equal(propagate(sched, 0.9, 0.1),
                                      first.conj().T)
        np.testing.assert_array_equal(evolve_state(psi, sched, 0.1, 0.9),
                                      first @ psi)
        heisenberg_projector(psi, sched, 0.9, 0.1)
        assert len(formed) == 2
        assert list(sched._memo) == [(0.1, 0.9)]

    def test_times_are_checked_on_every_call(self):
        sched = sx_schedule()
        propagate(sched, 0.0, 0.5)
        for args in ((0.0, math.nan), ("0", 0.5), (0.0, 10.0)):
            with pytest.raises(ValidationError):
                propagate(sched, *args)

    def test_a_zero_length_interval_is_a_fresh_identity_not_held(self):
        sched = sx_schedule()
        first = propagate(sched, 0.3, 0.3 + 1e-13)
        first[0, 0] = 5.0
        np.testing.assert_array_equal(propagate(sched, 0.3, 0.3), np.eye(2))
        assert sched._memo == {}

    def test_held_entries_stay_within_the_budget(self, monkeypatch):
        # d = 8: 64 entries a product, so the budget holds 1024 of 1100
        sched = HamiltonianSchedule.constant(
            random_hermitian(rng_from_seed(17), 8), 0.0, 2.0)
        formed = count_calls(monkeypatch, HamiltonianSchedule, "_segment_exp")
        ends = np.linspace(0.0, 2.0, 1101)[1:].tolist()
        for t in ends:
            propagate(sched, 0.0, t)
            assert sum(u.size for u in sched._memo.values()) <= MEMO_ENTRIES
        assert len(sched._memo) == MEMO_ENTRIES // 64
        # a product formed once the budget is full is formed again, with
        # the value a fresh schedule gives
        fresh = HamiltonianSchedule(sched.segments)
        formed.clear()
        for t in (ends[0], ends[-1]):
            np.testing.assert_array_equal(propagate(sched, 0.0, t),
                                          propagate(fresh, 0.0, t))
        assert len(formed) == 3

    def test_threads_sharing_a_schedule_keep_the_budget(self):
        # four threads on two cores, switching every microsecond, race to
        # fill one d = 8 schedule's 1024 places with 1100 intervals
        sched = HamiltonianSchedule.constant(
            random_hermitian(rng_from_seed(19), 8), 0.0, 2.0)
        fresh = HamiltonianSchedule(sched.segments)
        ends = np.linspace(0.0, 2.0, 1101)[1:].tolist()
        want = {t: propagate(fresh, 0.0, t) for t in ends}
        wrong = []

        def work(order):
            for t in order:
                if not np.array_equal(propagate(sched, 0.0, t), want[t]):
                    wrong.append(t)
        orders = [ends, ends[::-1], ends[::2] + ends[1::2], ends[1::2]]
        threads = [threading.Thread(target=work, args=(order,))
                   for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert sum(u.size for u in sched._memo.values()) <= MEMO_ENTRIES

    def test_a_schedule_with_held_products_pickles(self):
        sched = sx_schedule()
        u = propagate(sched, 0.0, 0.5)
        copy = pickle.loads(pickle.dumps(sched))
        np.testing.assert_array_equal(propagate(copy, 0.0, 0.5), u)
        # the copy's generators are read-only slices of its own stack
        with pytest.raises(ValueError, match="read-only"):
            copy.segments[0][2][0, 1] = 5.0

    def test_a_product_beyond_the_budget_is_not_held(self, monkeypatch):
        dim = 257  # 66 049 entries, more than the whole budget
        assert dim * dim > MEMO_ENTRIES
        sched = HamiltonianSchedule.constant(
            random_hermitian(rng_from_seed(18), dim), 0.0, 1.0)
        formed = count_calls(monkeypatch, HamiltonianSchedule, "_segment_exp")
        first = propagate(sched, 0.0, 0.5)
        assert sched._memo == {}
        np.testing.assert_array_equal(propagate(sched, 0.0, 0.5), first)
        assert len(formed) == 2


class TestEvolveState:
    def test_null_hamiltonian(self):
        np.testing.assert_allclose(
            evolve_state(E0, zero_schedule(2), 0.0, 1.0), E0)

    def test_qubit_rotation_closed_form(self):
        out = evolve_state(E0, sx_schedule(), 0.0, math.pi / 4)
        expected = math.cos(math.pi / 4) * E0 - 1j * math.sin(math.pi / 4) * E1
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_round_trip(self):
        rng = rng_from_seed(11)
        sched = HamiltonianSchedule.constant(random_hermitian(rng, 3), 0, 2)
        psi = random_state(rng, 3)
        there = evolve_state(psi, sched, 0.0, 2.0)
        back = evolve_state(there, sched, 2.0, 0.0)
        assert np.max(np.abs(back - psi)) < 1e-10

    def test_norm_preserved_over_many_random_schedules(self):
        for seed in range(1000):
            rng = rng_from_seed(seed)
            dim = int(rng.integers(2, 5))
            times = np.sort(rng.uniform(0, 2, size=3))
            while np.min(np.diff(times)) < 1e-3:
                times = np.sort(rng.uniform(0, 2, size=3))
            sched = HamiltonianSchedule(
                [(times[0], times[1], random_hermitian(rng, dim)),
                 (times[1], times[2], random_hermitian(rng, dim))])
            psi = random_state(rng, dim)
            out = evolve_state(psi, sched, times[0], times[2])
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestHeisenbergProjector:
    def test_same_time_is_plain_projector(self):
        p = heisenberg_projector(E0, sx_schedule(), 0.0, 0.0)
        np.testing.assert_allclose(p, np.outer(E0, E0.conj()), atol=1e-14)

    def test_trace_is_one(self):
        rng = rng_from_seed(12)
        sched = HamiltonianSchedule.constant(random_hermitian(rng, 4), 0, 1)
        p = heisenberg_projector(random_state(rng, 4), sched, 0.8, 0.0)
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_hermitian(self):
        rng = rng_from_seed(13)
        sched = HamiltonianSchedule.constant(random_hermitian(rng, 3), 0, 1)
        p = heisenberg_projector(random_state(rng, 3), sched, 1.0, 0.0)
        assert is_projector(p, 1e-10)

    def test_adjoint_rotation_oracle(self):
        # H = sigma_x on [0, pi/4]: the Heisenberg projector onto |0> at
        # t = pi/4 projects onto cos(pi/4)|0> + i sin(pi/4)|1>
        sched = sx_schedule()
        p = heisenberg_projector(E0, sched, math.pi / 4, 0.0)
        target = math.cos(math.pi / 4) * E0 + 1j * math.sin(math.pi / 4) * E1
        np.testing.assert_allclose(p, np.outer(target, target.conj()),
                                   atol=1e-12)
