import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontour import (DecompositionMode, DimensionMismatchError, FamilySpec,
                      FixedPoint, HamiltonianSchedule, HistoryFamily,
                      HistoryMeasure, ModelSpec, QuantumHistory, ToyBundle,
                      ValidationError, ZeroNormalizationError,
                      born_probability, decoherence_report,
                      decompose_total_measure, delta_psi,
                      delta_psi_line_integral, enumerate_family,
                      measure_report, segment_amplitude, sequential_chain,
                      transfer_chain)
from qcontour import cli, dynamics, histories, linalg, measure
from qcontour.contour import contour_path
from qcontour.dynamics import evolve_state, propagate
from qcontour.linalg import complete_basis
from qcontour.oracle import condition_on_final
from qcontour.sampling import (random_hermitian, random_orthonormal_basis,
                               random_state, random_schedule, rng_from_seed)

from toys import (E0, E1, FAMILY_SHAPES, PLUS, WIDE_SHAPES,
                  computational_basis, count_calls, family_variants,
                  random_family_spec, sx_schedule, zero_schedule)


def fp(t, state, label="fp"):
    return FixedPoint(t, state, label)


class TestSegmentAmplitude:
    def test_null_hamiltonian_same_state(self):
        amp = segment_amplitude(fp(0.0, PLUS), fp(1.0, PLUS),
                                zero_schedule(2))
        assert amp == pytest.approx(1.0)

    def test_null_hamiltonian_orthogonal(self):
        amp = segment_amplitude(fp(0.0, E0), fp(1.0, E1), zero_schedule(2))
        assert amp == pytest.approx(0.0)

    def test_qubit_rotation_magnitude(self):
        amp = segment_amplitude(fp(0.0, E0), fp(math.pi / 4, E0),
                                sx_schedule())
        assert abs(amp) == pytest.approx(math.cos(math.pi / 4))

    def test_equals_backward_matrix_element(self):
        # <a| U(t_a, t_b) |b> computed directly
        from qcontour.dynamics import propagate
        rng = rng_from_seed(41)
        sched = random_schedule(rng, (0.0, 1.0), 3)
        a, b = random_state(rng, 3), random_state(rng, 3)
        amp = segment_amplitude(fp(0.0, a), fp(1.0, b), sched)
        direct = np.vdot(a, propagate(sched, 1.0, 0.0) @ b)
        assert amp == pytest.approx(direct, abs=1e-12)

    def test_time_order_enforced(self):
        with pytest.raises(ValidationError):
            segment_amplitude(fp(1.0, E0), fp(0.0, E0), zero_schedule(2))

    def test_endpoints_of_another_dimension_rejected(self):
        # a qutrit at the later end used to fail inside numpy's reshape
        qutrit = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            segment_amplitude(fp(0.0, E0), fp(1.0, qutrit), zero_schedule(2))


class TestDeltaPsi:
    def test_trivial_identity(self):
        h = QuantumHistory((fp(0.0, E0), fp(1.0, E0)))
        assert delta_psi(h, zero_schedule(2)) == pytest.approx(1.0)

    def test_qubit_rotation_half(self):
        h = QuantumHistory((fp(0.0, E0), fp(math.pi / 4, E0)))
        assert delta_psi(h, sx_schedule()) == pytest.approx(0.5)

    def test_orthogonal_blocker_annihilates(self):
        h = QuantumHistory((fp(0.0, E0), fp(0.5, E1), fp(1.0, E0)))
        assert delta_psi(h, zero_schedule(2)) == 0.0


class TestLineIntegralRoute:
    def test_independent_of_step_count_trivial(self):
        h = QuantumHistory((fp(0.0, PLUS), fp(1.0, PLUS)))
        for steps in (1, 3, 8):
            assert delta_psi_line_integral(h, zero_schedule(2), steps) == \
                pytest.approx(1.0)

    def test_qubit_rotation_matches_closed_form(self):
        h = QuantumHistory((fp(0.0, E0), fp(math.pi / 4, E0)))
        assert delta_psi_line_integral(h, sx_schedule(), 8) == \
            pytest.approx(0.5, abs=1e-12)

    def test_route_equivalence_random_histories(self):
        for seed in range(50):
            rng = rng_from_seed(500 + seed)
            dim = int(rng.integers(2, 4))
            times = (0.0, float(rng.uniform(0.3, 0.8)),
                     float(rng.uniform(1.0, 1.6)))
            sched = random_schedule(rng, times, dim)
            h = QuantumHistory(tuple(fp(t, random_state(rng, dim))
                                     for t in times))
            closed = delta_psi(h, sched)
            for steps in (1, 8):
                walked = delta_psi_line_integral(h, sched, steps)
                assert abs(walked - closed) < 1e-10

    def test_rejects_zero_steps(self):
        h = QuantumHistory((fp(0.0, E0), fp(1.0, E0)))
        with pytest.raises(ValidationError):
            delta_psi_line_integral(h, zero_schedule(2), 0)


class TestMeasureOfExistence:
    """Each member's measure is its weight over the family's summed weight:
    the ``measures`` column of ``measure_report``."""

    def test_null_hamiltonian_deterministic(self):
        spec = FamilySpec(times=(0.0, 1.0),
                          bases=(computational_basis(2),
                                 computational_basis(2)),
                          constraints=(fp(0.0, E0, "prep"),))
        fam = enumerate_family(spec)
        values = measure_report(fam, zero_schedule(2)).measures
        assert values.tolist() == pytest.approx([1.0, 0.0])

    def test_qubit_rotation_even_split(self):
        spec = FamilySpec(times=(0.0, math.pi / 4),
                          bases=(computational_basis(2),
                                 computational_basis(2)),
                          constraints=(fp(0.0, E0, "prep"),))
        fam = enumerate_family(spec)
        values = measure_report(fam, sx_schedule()).measures
        assert values.tolist() == pytest.approx([0.5, 0.5])

    def test_two_point_with_initial_constraint_is_born_rule(self):
        for seed in range(20):
            spec, sched = random_family_spec(700 + seed, dim=3, n_times=2,
                                             s_t=1)
            fam = enumerate_family(spec)
            psi1 = spec.constraints[0].state
            measures = measure_report(fam, sched).measures
            assert len(measures) == 3
            for h, value in zip(fam.histories, measures):
                born = born_probability(psi1, spec.times[0],
                                        h.points[1].state, spec.times[1],
                                        sched)
                assert value == pytest.approx(born, abs=1e-12)

    def test_fully_constrained_single_history(self):
        h = QuantumHistory((fp(0.0, E0, "a"), fp(1.0, E0, "b")))
        fam = HistoryFamily(histories=(h,), constraint_times=(0.0, 1.0))
        assert measure_report(fam, zero_schedule(2)).measures.tolist() == \
            [1.0]

    def test_zero_normalization_is_an_error(self):
        h = QuantumHistory((fp(0.0, E0), fp(1.0, E1)))
        fam = HistoryFamily(histories=(h,), constraint_times=(0.0, 1.0))
        with pytest.raises(ZeroNormalizationError):
            measure_report(fam, zero_schedule(2))


class TestNormalization:
    @pytest.mark.parametrize("s_t", [1, 2])
    def test_measures_sum_to_one(self, s_t):
        for seed in range(10):
            spec, sched = random_family_spec(800 + seed, dim=3, n_times=3,
                                             s_t=s_t)
            report = measure_report(enumerate_family(spec), sched)
            assert report.measures.sum() == pytest.approx(1.0, abs=1e-10)

    def test_pre_and_post_selected_ratios(self):
        # both endpoints pinned, one free middle time: measures are ratios
        # of two-segment products over their sum
        spec, sched = random_family_spec(900, dim=3, n_times=3, s_t=2)
        fam = enumerate_family(spec)
        report = measure_report(fam, sched)
        weights = [delta_psi(h, sched) for h in fam.histories]
        for w, entry in zip(weights, report.entries):
            assert entry.measure == pytest.approx(w / sum(weights), abs=1e-12)
        assert report.measures.sum() == pytest.approx(1.0, abs=1e-10)


def _square(z):
    """|z|^2 as the closed form squares a product: re * re + im * im."""
    return z.real * z.real + z.imag * z.imag


def _segment_loop_weight(h, sched):
    """The weight as a plain loop over segment amplitudes."""
    product = 1 + 0j
    for a, b in zip(h.points, h.points[1:]):
        product *= segment_amplitude(a, b, sched)
    return _square(product)


def _table_loop(fam, sched, pairs, steps=1):
    """Per member of an enumerated family, its step amplitudes multiplied
    in step order as Python complexes, each read from the step's whole
    table ``slot_states[l].conj() @ carried.T``.  Row i of ``carried`` is
    slot k's state i carried with one ``propagate`` product per sub-step
    over ``np.linspace`` ticks, as ``_plain_walk`` carries it."""
    times, states = fam.slot_times, fam.slot_states
    tables = []
    for k, l in pairs:
        ticks = np.linspace(times[k], times[l], steps + 1)
        carried = []
        for state in states[k]:
            for u, v in zip(ticks, ticks[1:]):
                state = propagate(sched, u, v) @ state
            carried.append(state)
        tables.append((k, l, (states[l].conj()
                              @ np.array(carried).T).tolist()))
    products = []
    for row in fam.index.tolist():
        product = 1 + 0j
        for k, l, table in tables:
            product *= table[row[l]][row[k]]
        products.append(product)
    return products


def _plain_weights(fam, sched):
    """The closed-form weights as plain per-member loops: over segment
    amplitudes for a hand-built family, over the step tables for an
    enumerated one."""
    if fam.shape is None:
        return [_segment_loop_weight(h, sched) for h in fam.histories]
    segments = [(k, k + 1) for k in range(len(fam.slots) - 1)]
    return [_square(z) for z in _table_loop(fam, sched, segments)]


def _plain_walks(fam, sched, steps):
    """The contour-walk weights as plain per-member loops, as
    ``_plain_weights`` chooses them."""
    if fam.shape is None:
        return [_plain_walk(h, sched, steps) for h in fam.histories]
    return [abs(z) for z in _table_loop(fam, sched,
                                        contour_path(len(fam.slots)), steps)]


class TestSharedSegments:
    """Family weights reuse shared segments without changing a bit: a
    hand-built family's are the segment loop's, an enumerated family's the
    loop over its step tables, and the normalization is ``np.sum``'s."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=30, deadline=None)
    def test_weights_bit_identical_to_segment_loop(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        for name, fam in family_variants(spec, seed).items():
            report = measure_report(fam, sched)
            weights = _plain_weights(fam, sched)
            assert [e.delta_psi for e in report.entries] == weights, name
            assert report.normalization == np.sum(weights)
            if fam.shape is None:
                for h, e in zip(fam.histories, report.entries):
                    assert delta_psi(h, sched) == e.delta_psi
                    assert delta_psi(h, sched) / report.normalization == \
                        e.measure

    @given(WIDE_SHAPES)
    @example((1, 8, 3, 1))  # the family_large dimension
    @settings(max_examples=25, deadline=None)
    def test_weights_bit_identical_to_segment_loop_at_larger_d(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        for name, fam in family_variants(spec, seed).items():
            weights = measure_report(fam, sched).weights.tolist()
            assert weights == _plain_weights(fam, sched), name


def _plain_walk(h, sched, steps):
    """The contour walk with one propagate call per sub-step."""
    amp = 1.0 + 0.0j
    for k, l in contour_path(h.n_times):
        carried = h.points[k].state
        ticks = np.linspace(h.times[k], h.times[l], steps + 1)
        for u, v in zip(ticks, ticks[1:]):
            carried = propagate(sched, u, v) @ carried
        amp *= np.vdot(h.points[l].state, carried)
    return float(abs(amp))


def _cut_schedule(sched, fractions):
    """``sched`` with its span also cut at the given fractions of its
    length; each piece keeps the generator of the segment it lies in, so
    the dynamics are the same, but a sub-step across a cut joins two
    exponentials."""
    t_min, t_max = sched.t_min, sched.t_max
    cuts = sorted({t_min + f * (t_max - t_min) for f in fractions}
                  | {s0 for s0, _, _ in sched.segments} | {t_max})
    if min(np.diff(cuts)) < 1e-6:
        return sched
    return HamiltonianSchedule(
        [(a, b, next(h for s0, s1, h in sched.segments
                     if s0 <= (a + b) / 2 <= s1))
         for a, b in zip(cuts, cuts[1:])])


class TestSharedPropagators:
    """The contour walks of one report share propagators bit for bit."""

    @given(FAMILY_SHAPES, st.lists(st.floats(0.01, 0.99), min_size=1,
                                   max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_walk_over_off_grid_segments_is_the_plain_walk(self, shape,
                                                             fractions):
        # segments cut off the grid: sub-steps straddle the cuts, and the
        # walk's batched pieces are joined
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        sched = _cut_schedule(sched, fractions)
        steps = 2 + seed % 7
        for name, fam in family_variants(spec, seed).items():
            report = measure_report(fam, sched, steps_per_segment=steps)
            assert report.contour_weights.tolist() == _plain_walks(
                fam, sched, steps), name

    @given(FAMILY_SHAPES)
    @settings(max_examples=10, deadline=None)
    def test_contour_weights_bit_identical_to_plain_walk(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        steps = 1 + seed % 3
        for name, fam in family_variants(spec, seed).items():
            report = measure_report(fam, sched, steps_per_segment=steps)
            want = _plain_walks(fam, sched, steps)
            assert [e.delta_psi_contour for e in report.entries] == want, name
            if fam.shape is None:
                assert delta_psi_line_integral(fam.histories[0], sched,
                                               steps) == want[0]

    @given(WIDE_SHAPES)
    @example((1, 8, 3, 1))  # the family_large dimension
    @settings(max_examples=25, deadline=None)
    def test_contour_weights_bit_identical_to_plain_walk_at_larger_d(
            self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        steps = 1 + seed % 8
        for name, fam in family_variants(spec, seed).items():
            report = measure_report(fam, sched, steps_per_segment=steps)
            assert report.contour_weights.tolist() == _plain_walks(
                fam, sched, steps), name

    @given(FAMILY_SHAPES)
    @settings(max_examples=10, deadline=None)
    def test_single_history_walk_equals_the_report(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        steps = 1 + seed % 3
        for name, fam in family_variants(spec, seed).items():
            if fam.shape is not None:
                continue  # single histories weigh through their index
            report = measure_report(fam, sched, steps_per_segment=steps)
            for h, e in zip(fam.histories, report.entries):
                assert delta_psi_line_integral(h, sched, steps) == \
                    e.delta_psi_contour, name


class TestColumnarReport:
    """The report's columns and its ``entries`` view equal the plain
    per-history loops bit for bit."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=20, deadline=None)
    def test_columns_and_entries_equal_the_plain_loops(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        steps = 1 + seed % 3
        for name, fam in family_variants(spec, seed).items():
            report = measure_report(fam, sched, steps_per_segment=steps)
            weights = _plain_weights(fam, sched)
            walks = _plain_walks(fam, sched, steps)
            normalization = float(np.sum(weights))
            measures = [w / normalization for w in weights]
            assert report.weights.tolist() == weights, name
            assert report.contour_weights.tolist() == walks, name
            assert report.normalization == normalization, name
            assert report.measures.tolist() == measures, name
            assert report.route_max_discrepancy == max(
                abs(w - a) for w, a in zip(weights, walks)), name
            choices = ([None] * len(weights) if fam.choices is None
                       else [tuple(c) for c in fam.choices.tolist()])
            assert report.entries == tuple(
                HistoryMeasure(labels=h.labels, delta_psi=w, measure=m,
                               choices=c, delta_psi_contour=a)
                for h, w, m, c, a in zip(fam.histories, weights, measures,
                                         choices, walks)), name
            closed = measure_report(fam, sched)
            assert closed.contour_weights is None, name
            assert closed.route_max_discrepancy is None, name
            assert [e.delta_psi_contour for e in closed.entries] == \
                [None] * len(weights), name
            assert closed.measures.tolist() == measures, name

    def test_columns_are_read_only(self):
        spec, sched = random_family_spec(46, dim=2, n_times=3, s_t=1)
        report = measure_report(enumerate_family(spec), sched,
                                steps_per_segment=2)
        for column in (report.weights, report.measures,
                       report.contour_weights):
            with pytest.raises(ValueError):
                column[0] = 0.5


class TestCrossPath:
    """An enumerated family weighs by broadcast matrix-product tables, a
    hand-built one by inner products gathered per member: the enumerated
    family and a hand-built copy of it in shuffled member order agree on
    every member, on both routes, within 1e-13 relative."""

    @given(st.one_of(FAMILY_SHAPES, WIDE_SHAPES))
    @settings(max_examples=40, deadline=None)
    def test_enumerated_and_shuffled_hand_built_copy_agree(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        fam = enumerate_family(spec)
        order = rng_from_seed(seed).permutation(len(fam.histories))
        copy = HistoryFamily([fam.histories[i] for i in order],
                             constraint_times=fam.constraint_times)
        assert copy.shape is None
        steps = 1 + seed % 4
        shaped = measure_report(fam, sched, steps_per_segment=steps)
        indexed = measure_report(copy, sched, steps_per_segment=steps)
        for route in ("weights", "contour_weights"):
            a = getattr(shaped, route)[order]
            b = getattr(indexed, route)
            assert np.all(np.abs(a - b)
                          <= 1e-13 * np.maximum(np.abs(a), np.abs(b))), route


def _lookup_families(seed):
    """Hand-built families whose members share slot pairs in three
    patterns, and a schedule.

    Slot 0 holds two fixed points, slot 1 three and slot 2 one, so the
    first segment has 6 slot pairs.  ``every_pair`` joins each of them
    once (6 members), ``one_missing`` drops the pair (a1, b2) (5 members)
    and ``one_twice`` repeats (a0, b0) in its place (6 members, a pair no
    member joins).  Every member of each shares the second segment's
    pairs with others.
    """
    spec, sched = random_family_spec(seed, dim=3, n_times=3, s_t=1)
    rng = rng_from_seed(seed)
    t0, t1, t2 = spec.times
    left = [fp(t0, random_state(rng, 3), f"a{i}") for i in range(2)]
    middle = [fp(t1, random_state(rng, 3), f"b{j}") for j in range(3)]
    last = fp(t2, random_state(rng, 3), "c")
    pairs = [(a, b) for a in left for b in middle]
    members = {"every_pair": pairs, "one_missing": pairs[:-1],
               "one_twice": pairs[:-1] + pairs[:1]}
    return sched, {name: HistoryFamily(QuantumHistory((a, b, last))
                                       for a, b in joined)
                   for name, joined in members.items()}


class TestMemberGather:
    """A hand-built family's step amplitudes are gathered per member: one
    stacked inner product of each member's own two slot rows per step, in
    blocks of ``_PAIR_BLOCK_ENTRIES // d`` members, with no table of
    distinct pairs.  They give the plain loops' weights bit for bit."""

    @pytest.mark.parametrize("seed, shape", [(3, (3, 3, 3, 1)),
                                             (17, (17, 2, 5, 2)),
                                             (29, (29, 4, 4, 1))])
    def test_weights_equal_the_plain_loops(self, seed, shape):
        sched, families = _lookup_families(seed)
        cases = [(name, fam, sched) for name, fam in families.items()]
        spec, spec_sched = random_family_spec(*shape)
        cases += [(name, fam, spec_sched) for name, fam
                  in family_variants(spec, shape[0]).items()
                  if name != "enumerated"]
        for name, fam, sched in cases:
            assert fam.shape is None, name
            weights = [_segment_loop_weight(h, sched) for h in fam.histories]
            assert measure_report(fam, sched).weights.tolist() == weights, \
                name
            for steps in (1, 2):
                report = measure_report(fam, sched, steps_per_segment=steps)
                assert report.weights.tolist() == weights, name
                assert report.contour_weights.tolist() == [
                    _plain_walk(h, sched, steps) for h in fam.histories], name

    @pytest.mark.parametrize("budget", [2 ** 13, 6])
    @pytest.mark.parametrize("name", ["every_pair", "one_missing",
                                      "one_twice"])
    def test_one_inner_product_per_member_and_step(self, monkeypatch, name,
                                                   budget):
        sched, families = _lookup_families(5)
        fam = families[name]
        reference = measure_report(fam, sched, steps_per_segment=2)
        monkeypatch.setattr(histories, "_PAIR_BLOCK_ENTRIES", budget)
        # each step is one stacked inner product per block of members
        # (budget // d of them, d = 3); count its entries
        tables = count_calls(monkeypatch, linalg, "inners")
        sorts = count_calls(monkeypatch, np, "unique")
        members, block = len(fam.histories), budget // 3
        for n_steps, steps in ((2, None), (6, 2)):
            tables.clear()
            report = measure_report(fam, sched, steps_per_segment=steps)
            assert [len(bras) for bras, _ in tables] == n_steps * [
                min(block, members - lo) for lo in range(0, members, block)]
        assert sorts == []
        # the block height does not move a bit
        for route in ("weights", "contour_weights"):
            assert getattr(report, route).tolist() == \
                getattr(reference, route).tolist(), route


class TestSquaring:
    """Weights square each product as ``re * re + im * im``, with no
    magnitude taken first."""

    def test_weights_are_re_im_squares_at_the_large_family_shape(self):
        spec, sched = random_family_spec(8, dim=8, n_times=5, s_t=1)
        fam = enumerate_family(spec)
        products = _table_loop(fam, sched, [(k, k + 1) for k in range(4)])
        assert len(products) == 4096
        # the squared magnitude rounds differently somewhere in this family
        assert any(_square(z) != abs(z) ** 2 for z in products)
        assert measure_report(fam, sched).weights.tolist() == \
            [_square(z) for z in products]


class TestTransferChain:
    """The chain's normalization and per-slot marginals, computed from the
    recipe without weighing any member, against the report."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=30, deadline=None)
    def test_chain_matches_the_report(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        fam = enumerate_family(spec)
        report = measure_report(fam, sched)
        normalization, marginals = transfer_chain(spec, sched)
        assert abs(normalization / report.normalization - 1.0) <= 1e-13
        assert len(marginals) == n_times
        for k, marginal in enumerate(marginals):
            assert marginal.shape == (len(fam.slots[k]),)
            summed = np.bincount(fam.index[:, k], report.measures,
                                 minlength=marginal.size)
            np.testing.assert_allclose(marginal, summed, rtol=1e-13,
                                       atol=1e-13)

    def test_post_selected_middle_slot_is_the_abl_rule(self):
        # pre- and post-selected, one free middle slot: the marginal there
        # is the Aharonov-Bergmann-Lebowitz rule
        # |<f|U(t2,t1)|b><b|U(t1,t0)|psi>|^2 / sum over b
        for seed in range(10):
            spec, sched = random_family_spec(1600 + seed, dim=3, n_times=3,
                                             s_t=2)
            (t0, t1, t2), (psi, f) = spec.times, spec.constraints
            abl = np.array([
                abs(np.vdot(f.state, evolve_state(b, sched, t1, t2))
                    * np.vdot(b, evolve_state(psi.state, sched, t0, t1))) ** 2
                for b in spec.bases[1]])
            normalization, marginals = transfer_chain(spec, sched)
            assert normalization == pytest.approx(abl.sum(), rel=1e-13)
            np.testing.assert_allclose(marginals[1], abl / abl.sum(),
                                       rtol=1e-13, atol=1e-15)
            assert marginals[0].tolist() == pytest.approx([1.0], rel=1e-13)
            assert marginals[2].tolist() == pytest.approx([1.0], rel=1e-13)

    def test_zero_normalization_is_an_error(self):
        spec = FamilySpec(times=(0.0, 0.5, 1.0),
                          bases=(computational_basis(2),) * 3,
                          constraints=(fp(0.0, E0), fp(1.0, E1)))
        with pytest.raises(ZeroNormalizationError):
            transfer_chain(spec, zero_schedule(2))


class TestCountGuards:
    """An enumerated family is weighed from its slots and index: counts of
    objects and propagators, not timings."""

    def test_no_histories_built_to_weigh_an_enumerated_family(
            self, monkeypatch):
        spec, sched = random_family_spec(41, dim=3, n_times=4, s_t=1)
        # members are built through the unchecked constructor, from the
        # slots the recipe checked
        built = count_calls(monkeypatch, QuantumHistory, "_from_points")
        fam = enumerate_family(spec)
        measure_report(fam, sched)
        measure_report(fam, sched, steps_per_segment=2)
        assert built == []
        assert len(fam.histories) == 27
        assert built == []
        list(fam.histories)
        assert len(built) == 27

    def test_no_per_history_objects_until_entries_are_read(
            self, monkeypatch):
        spec, sched = random_family_spec(41, dim=3, n_times=4, s_t=1)
        built = count_calls(monkeypatch, QuantumHistory, "__init__")
        members = count_calls(monkeypatch, QuantumHistory, "_from_points")
        made = count_calls(monkeypatch, HistoryMeasure, "__init__")
        fam = enumerate_family(spec)
        assert isinstance(fam.index, np.ndarray)
        assert np.issubdtype(fam.index.dtype, np.integer)
        assert fam.index.shape == (27, 4)
        assert not fam.index.flags.writeable
        assert fam.choices.shape == (27, 3)
        assert not fam.choices.flags.writeable
        reports = [measure_report(fam, sched),
                   measure_report(fam, sched, steps_per_segment=2)]
        assert built == [] and made == []
        for report in reports:
            assert len(report.entries) == 27
            assert report.entries is report.entries
        assert made == []
        for report in reports:
            list(report.entries)
        assert len(made) == 54
        assert built == [] and members == []

    @pytest.mark.parametrize("steps", [None, 2])
    def test_no_member_array_of_every_slot(self, steps):
        # H = 2**15 members over N_t = 16 slots: an index would take 4 MB,
        # and an enumerated family's is built only when read
        spec, sched = random_family_spec(44, dim=2, n_times=16, s_t=1)
        tracemalloc.start()
        try:
            fam = enumerate_family(spec)
            measure_report(fam, sched, steps_per_segment=steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "index" not in vars(fam) and "choices" not in vars(fam)
        assert peak < 2 ** 15 * 15 * np.dtype(np.intp).itemsize
        assert fam.index.shape == (2 ** 15, 16)

    def test_decoherence_report_builds_no_index(self):
        # member h of an enumerated family ends at last-slot position
        # h % shape[-1]; the report used to build the whole index for it
        spec, sched = random_family_spec(3, dim=2, n_times=16, s_t=1)
        tracemalloc.start()
        try:
            fam = enumerate_family(spec)
            decoherence_report(fam, sched, spec.constraints[0].state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "index" not in vars(fam)
        assert peak < 2 ** 15 * 15 * np.dtype(np.intp).itemsize
        assert fam.index[:, -1].tolist() == [h % 2 for h in range(2 ** 15)]

    def test_closed_form_propagates_once_per_segment(self, monkeypatch):
        spec, sched = random_family_spec(42, dim=3, n_times=4, s_t=1)
        fam = enumerate_family(spec)
        calls = count_calls(monkeypatch, dynamics, "propagate", measure)
        measure_report(fam, sched)
        assert len(calls) == 3

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_contour_walk_propagates_independently_of_history_count(
            self, monkeypatch, steps):
        # every step's propagators, one per sub-step, come from the walk's
        # one call and the closed form's one call
        calls = count_calls(monkeypatch, histories, "substep_propagators")
        counts = []
        for s_t in (1, 2):  # H = 27 and H = 9 on one grid and schedule
            spec, sched = random_family_spec(43, dim=3, n_times=4, s_t=s_t)
            fam = enumerate_family(spec)
            calls.clear()
            measure_report(fam, sched, steps_per_segment=steps)
            assert len(calls) == 2
            counts.append(sum(len(walk) * sub for _, walk, sub in calls))
        assert counts[0] == counts[1] == 2 * (4 - 1) * steps + (4 - 1)

    def test_walk_propagators_come_in_bounded_batches(self, monkeypatch):
        # d = 16 and 8 sub-steps: 2048 entries a step, so a batch of
        # _PAIR_BLOCK_ENTRIES = 8192 entries holds 4 of the walk's 6 steps
        calls = count_calls(monkeypatch, histories, "substep_propagators")
        spec, sched = random_family_spec(45, dim=16, n_times=4, s_t=2)
        fam = enumerate_family(spec)
        report = measure_report(fam, sched, steps_per_segment=8)
        assert [(len(steps), sub) for _, steps, sub in calls] == [
            (4, 8), (2, 8), (3, 1)]
        assert report.contour_weights.tolist() == _plain_walks(fam, sched, 8)

    @pytest.mark.parametrize("steps", [2.5, True, "2"])
    def test_step_count_must_be_an_integer(self, steps):
        # 2.5 used to fail inside numpy's linspace
        h = QuantumHistory((fp(0.0, E0), fp(1.0, E0)))
        with pytest.raises(ValidationError, match="steps_per_segment"):
            delta_psi_line_integral(h, zero_schedule(2),
                                    steps_per_segment=steps)

    def test_numpy_step_count_accepted(self):
        h = QuantumHistory((fp(0.0, E0), fp(0.5, PLUS)))
        assert delta_psi_line_integral(h, sx_schedule(), np.int64(3)) == \
            delta_psi_line_integral(h, sx_schedule(), 3)

    @pytest.mark.parametrize("steps", [linalg.MAX_ENUMERATION + 1, 2 ** 62])
    def test_step_count_has_a_ceiling(self, monkeypatch, steps):
        # 2**62 leaked numpy's "array is too big" ValueError, 2**59 a
        # MemoryError; the ceiling refuses before any tick array is formed
        spec, sched = random_family_spec(45, dim=2, n_times=3, s_t=1)
        fam = enumerate_family(spec)
        formed = count_calls(monkeypatch, HamiltonianSchedule, "_segment_exp")
        message = (f"^steps_per_segment must be at most "
                   f"{linalg.MAX_ENUMERATION}, got {steps}$")
        with pytest.raises(ValidationError, match=message):
            measure_report(fam, sched, steps_per_segment=steps)
        with pytest.raises(ValidationError, match=message):
            delta_psi_line_integral(fam.histories[0], sched, steps)
        assert formed == []

    def test_report_rejects_zero_steps(self):
        spec, sched = random_family_spec(45, dim=2, n_times=3, s_t=1)
        with pytest.raises(ValidationError, match="steps_per_segment"):
            measure_report(enumerate_family(spec), sched, steps_per_segment=0)

    def test_decomposition_propagates_once_per_bundle_segment(
            self, monkeypatch):
        bundle, sched = random_bundle(63, dim=3, n_past=3, n_future=2)
        calls = count_calls(monkeypatch, dynamics, "propagate", measure)
        for mode in DecompositionMode:
            calls.clear()
            decompose_total_measure(bundle, sched, mode)
            assert len(calls) == 2

    @pytest.mark.parametrize("mode", ["MORW", None])
    def test_unknown_mode_refused_before_any_propagator(self, monkeypatch,
                                                        mode):
        # the refusal used to come after both bundle propagators
        bundle, sched = random_bundle(63)
        calls = count_calls(monkeypatch, dynamics, "propagate", measure)
        with pytest.raises(ValidationError,
                           match="unknown decomposition mode"):
            decompose_total_measure(bundle, sched, mode)
        assert calls == []


class TestByChoices:
    def test_keys_are_the_free_slot_choices(self):
        spec, sched = random_family_spec(44, dim=4, n_times=2, s_t=1)
        fam = enumerate_family(spec)
        report = measure_report(fam, sched)
        assert report.by_choices() == dict(zip([(k,) for k in range(4)],
                                               report.measures.tolist()))
        hand_built = HistoryFamily(histories=fam.histories,
                                   constraint_times=fam.constraint_times)
        with pytest.raises(ValidationError, match="no choice indices"):
            measure_report(hand_built, sched).by_choices()


class TestBornProbability:
    def test_evolved_state_certain(self):
        rng = rng_from_seed(51)
        sched = random_schedule(rng, (0.0, 1.0), 4)
        psi = random_state(rng, 4)
        phi = evolve_state(psi, sched, 0.0, 1.0)
        assert born_probability(psi, 0.0, phi, 1.0, sched) == \
            pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_to_evolved_state(self):
        sched = zero_schedule(2)
        assert born_probability(E0, 0.0, E1, 1.0, sched) == \
            pytest.approx(0.0, abs=1e-14)

    def test_qubit_rotation(self):
        assert born_probability(E0, 0.0, E0, math.pi / 4, sx_schedule()) == \
            pytest.approx(0.5, abs=1e-12)

    def test_matches_textbook_expression_random_unitaries(self):
        for seed in range(30):
            rng = rng_from_seed(1000 + seed)
            dim = int(rng.integers(2, 9))
            sched = random_schedule(rng, (0.0, 1.0), dim)
            psi, phi = random_state(rng, dim), random_state(rng, dim)
            expected = abs(np.vdot(phi, evolve_state(psi, sched, 0, 1))) ** 2
            assert born_probability(psi, 0.0, phi, 1.0, sched) == \
                pytest.approx(expected, abs=1e-12)


def random_bundle(seed, dim=2, n_past=2, n_future=2):
    rng = rng_from_seed(seed)
    sched = random_schedule(rng, (0.0, 1.0, 2.0), dim)
    past_basis = random_orthonormal_basis(rng, dim)[:n_past]
    future_basis = random_orthonormal_basis(rng, dim)[:n_future]
    bundle = ToyBundle(
        past=tuple(fp(0.0, v, str(k)) for k, v in enumerate(past_basis)),
        pivot=fp(1.0, random_state(rng, dim), "pivot"),
        future=tuple(fp(2.0, v, str(k)) for k, v in enumerate(future_basis)))
    return bundle, sched


class TestDecomposition:
    def test_term_counts_two_by_two(self):
        bundle, sched = random_bundle(61)
        counts = {DecompositionMode.MORW: 1, DecompositionMode.MMWF: 2,
                  DecompositionMode.MMWP: 2, DecompositionMode.MDRW: 4}
        for mode, expected in counts.items():
            assert len(decompose_total_measure(bundle, sched, mode).terms) \
                == expected

    def test_null_hamiltonian_complete_bases_total_one(self):
        sched = zero_schedule(2, 0.0, 2.0)
        bundle = ToyBundle(
            past=(fp(0.0, E0, "a"), fp(0.0, E1, "b")),
            pivot=fp(1.0, PLUS, "psi"),
            future=(fp(2.0, E0, "c"), fp(2.0, E1, "d")))
        for mode in DecompositionMode:
            assert decompose_total_measure(bundle, sched, mode).total == \
                pytest.approx(1.0, abs=1e-12)

    def test_all_modes_agree_random_schedules(self):
        for seed in range(50):
            bundle, sched = random_bundle(1100 + seed)
            totals = [decompose_total_measure(bundle, sched, mode).total
                      for mode in DecompositionMode]
            assert max(totals) - min(totals) <= 1e-12

    def test_fine_terms_reconstruct_coarse_product(self):
        # simultaneous segments add, consecutive segments multiply: the
        # fully diverging terms regroup into the single overlapping product
        bundle, sched = random_bundle(62, dim=3, n_past=3, n_future=2)
        morw = decompose_total_measure(bundle, sched, DecompositionMode.MORW)
        mdrw = decompose_total_measure(bundle, sched, DecompositionMode.MDRW)
        assert sum(mdrw.terms) == pytest.approx(morw.terms[0], abs=1e-12)
        mmwf = decompose_total_measure(bundle, sched, DecompositionMode.MMWF)
        past, _, future = bundle.slots
        n_future = len(future)
        for i in range(len(past)):
            regrouped = sum(mdrw.terms[i * n_future:(i + 1) * n_future])
            assert regrouped == pytest.approx(mmwf.terms[i], abs=1e-12)

    def test_terms_bit_identical_to_segment_amplitudes(self):
        for seed in range(20):
            bundle, sched = random_bundle(1200 + seed, dim=3, n_past=2,
                                          n_future=3)
            past, (pivot,), future = bundle.slots
            w_past = [abs(segment_amplitude(p, pivot, sched)) ** 2
                      for p in past]
            w_future = [abs(segment_amplitude(pivot, f, sched)) ** 2
                        for f in future]
            mdrw = decompose_total_measure(bundle, sched,
                                           DecompositionMode.MDRW)
            assert mdrw.terms == tuple(wp * wf for wp in w_past
                                       for wf in w_future)

    def test_non_orthonormal_branch_set_rejected(self):
        with pytest.raises(ValidationError, match="not orthonormal"):
            ToyBundle(past=(fp(0.0, E0), fp(0.0, PLUS)),
                      pivot=fp(1.0, E0),
                      future=(fp(2.0, E0), fp(2.0, E1)))


class TestBundleRecipe:
    """A bundle is the three-slot ``FamilySpec`` that
    ``decompose_total_measure`` reads."""

    def test_off_grid_pivot_is_carried_from_its_own_time(self):
        # the pivot sits 9e-13 after its grid time, inside TIME_EPS: the
        # bundle terms and both weight routes carry it from its own time,
        # as segment_amplitude does, bit for bit
        rng = rng_from_seed(66)
        sched = random_schedule(rng, (0.0, 1.0, 2.0), 3)
        spec = FamilySpec(
            times=(0.0, 1.0, 2.0),
            bases=tuple(random_orthonormal_basis(rng, 3) for _ in range(3)),
            constraints=(fp(1.0 + 9e-13, random_state(rng, 3), "pivot"),))
        past, (pivot,), future = spec.slots
        w_past = [abs(segment_amplitude(p, pivot, sched)) ** 2 for p in past]
        w_future = [abs(segment_amplitude(pivot, f, sched)) ** 2
                    for f in future]
        mdrw = decompose_total_measure(spec, sched, DecompositionMode.MDRW)
        assert mdrw.terms == tuple(wp * wf for wp in w_past
                                   for wf in w_future)
        fam = enumerate_family(spec)
        report = measure_report(fam, sched, steps_per_segment=2)
        assert report.weights.tolist() == _plain_weights(fam, sched)
        assert report.contour_weights.tolist() == _plain_walks(fam, sched, 2)

    def test_is_a_family_spec(self):
        bundle, _ = random_bundle(64, dim=3, n_past=2, n_future=1)
        assert isinstance(bundle, FamilySpec)
        assert bundle.times == (0.0, 1.0, 2.0)
        assert list(bundle.pinned) == [1]
        assert [len(slot) for slot in bundle.slots] == [2, 1, 1]

    def test_branches_are_positional_slot_fixed_points(self):
        pivot = fp(1.0, PLUS, "psi")
        bundle = ToyBundle(past=(fp(0.0, E0, "a"), fp(0.0, E1, "b")),
                           pivot=pivot, future=(fp(2.0, E1, "c"),))
        past, (slot_pivot,), future = bundle.slots
        assert slot_pivot is pivot
        assert [p.label for p in past] == ["0", "1"]
        assert [f.label for f in future] == ["0"]
        np.testing.assert_array_equal(future[0].state, E1)

    def test_equality_is_identity(self):
        first, second = (ToyBundle(past=(fp(0.0, E0),), pivot=fp(1.0, E0),
                                   future=(fp(2.0, E0),)) for _ in range(2))
        assert first == first and first != second

    def test_morw_total_is_the_transfer_chain_normalization(self):
        for seed in range(40):
            rng = rng_from_seed(1400 + seed)
            dim = int(rng.integers(2, 5))
            bundle, sched = random_bundle(
                1400 + seed, dim=dim, n_past=int(rng.integers(1, dim + 1)),
                n_future=int(rng.integers(1, dim + 1)))
            morw = decompose_total_measure(bundle, sched,
                                           DecompositionMode.MORW)
            assert transfer_chain(bundle, sched)[0] == \
                pytest.approx(morw.total, abs=1e-12)

    @pytest.mark.parametrize("past, pivot, future, match", [
        ((), fp(1.0, E0), (fp(2.0, E0),), "past and future branches"),
        ((fp(0.0, E0),), fp(1.0, E0), (), "past and future branches"),
        ((fp(0.0, E0), fp(0.5, E1)), fp(1.0, E0), (fp(2.0, E0),),
         "one time"),
        ((fp(0.0, E0),), fp(1.0, E0), (fp(2.0, np.array([1, 0, 0])),),
         "one dimension"),
        ((fp(0.0, E0),), fp(1.0, np.array([1, 0, 0])), (fp(2.0, E0),),
         "one dimension"),
        ((fp(1.0, E0),), fp(1.0, E0), (fp(2.0, E0),), "increase"),
        ((fp(0.0, E0),), fp(3.0, E0), (fp(2.0, E0),), "increase"),
    ])
    def test_rejected(self, past, pivot, future, match):
        with pytest.raises(ValidationError, match=match):
            ToyBundle(past=past, pivot=pivot, future=future)

    @pytest.mark.parametrize("n_times, pinned, match", [
        (2, (0,), "three grid times"),
        (4, (1,), "three grid times"),
        (3, (0,), "at the middle time"),
        (3, (0, 1), "at the middle time"),
        (3, (), "at the middle time"),
    ])
    def test_layout_is_checked(self, n_times, pinned, match):
        times = tuple(map(float, range(n_times)))
        spec = FamilySpec(times=times,
                          bases=(computational_basis(2),) * n_times,
                          constraints=tuple(fp(times[k], E0) for k in pinned))
        with pytest.raises(ValidationError, match=match):
            decompose_total_measure(spec, zero_schedule(2, 0.0, 3.0),
                                    DecompositionMode.MORW)


def _dimension_routes():
    """Each route that reads a recipe or history with a schedule, called
    on qubit inputs and the given schedule."""
    spec, _ = random_family_spec(47, dim=2, n_times=3, s_t=1)
    fam = enumerate_family(spec)
    h = fam.histories[0]
    bundle = random_bundle(48)[0]
    return {
        "measure_report": lambda s: measure_report(fam, s),
        "measure_report contour": lambda s: measure_report(
            fam, s, steps_per_segment=2),
        "delta_psi": lambda s: delta_psi(h, s),
        "delta_psi_line_integral": lambda s: delta_psi_line_integral(h, s),
        "segment_amplitude": lambda s: segment_amplitude(
            h.points[0], h.points[1], s),
        "transfer_chain": lambda s: transfer_chain(spec, s),
        "decompose_total_measure": lambda s: decompose_total_measure(
            bundle, s, DecompositionMode.MORW),
        "decoherence_report": lambda s: decoherence_report(
            fam, s, spec.constraints[0].state),
        "ModelSpec": lambda s: ModelSpec(
            times=spec.times, bases=spec.bases,
            constraints=spec.constraints, schedule=s),
    }


class TestEmptyFreeSlot:
    """A recipe with an empty set at an unconstrained time is refused
    where it is built: a slot with no fixed point made ``transfer_chain``
    fail inside numpy and ``decompose_total_measure`` with IndexError."""

    @pytest.mark.parametrize("route", [
        transfer_chain,
        lambda spec, sched: decompose_total_measure(spec, sched,
                                                    DecompositionMode.MDRW)])
    def test_refused_before_the_route_runs(self, route):
        basis = computational_basis(2)
        with pytest.raises(ValidationError,
                           match="unconstrained time 0.0 is empty"):
            spec = FamilySpec(times=(0.0, 1.0, 2.0), bases=((), basis, basis),
                              constraints=(fp(1.0, E0),))
            route(spec, zero_schedule(2, 0.0, 2.0))


class TestScheduleDimension:
    """One rule, ``linalg.require_dim``, refuses a schedule of another
    dimension on every route, before any matrix product."""

    @pytest.mark.parametrize("route", list(_dimension_routes()))
    def test_every_route_refuses_a_mismatched_schedule(self, route):
        call = _dimension_routes()[route]
        call(zero_schedule(2, 0.0, 2.0))
        with pytest.raises(DimensionMismatchError,
                           match="schedule dimension 3 does not match"):
            call(zero_schedule(3, 0.0, 2.0))


def _schedule_routes():
    """Each entry point that takes a schedule, called on qubit inputs and
    the given schedule: the dimension routes, and the propagation, chain
    and projector routes."""
    bases = (computational_basis(2),) * 2
    points = (fp(0.0, E0), fp(1.0, E1))
    return {
        **_dimension_routes(),
        "propagate": lambda s: dynamics.propagate(s, 0.0, 1.0),
        "substep_propagators": lambda s: dynamics.substep_propagators(
            s, [(0.0, 1.0)], 2),
        "evolve_state": lambda s: dynamics.evolve_state(E0, s, 0.0, 1.0),
        "heisenberg_projector": lambda s: dynamics.heisenberg_projector(
            E0, s, 1.0, 0.0),
        "born_probability": lambda s: born_probability(E0, 0.0, E1, 1.0, s),
        "sequential_chain": lambda s: sequential_chain(
            E0, bases, (1.0, 2.0), s, 0.0),
        "history_operator": lambda s: histories.history_operator(
            points, s, 0.0),
        "chain_probability": lambda s: histories.chain_probability(
            points, s, np.outer(E0, E0)),
    }


class TestScheduleType:
    """One rule, ``dynamics.require_schedule``, refuses a schedule that is
    not a ``HamiltonianSchedule`` on every entry point; each leaked
    AttributeError."""

    @pytest.mark.parametrize("bad", [
        None, 3, [(0.0, 2.0, np.zeros((2, 2)))]],
        ids=["None", "int", "segment list"])
    @pytest.mark.parametrize("route", list(_schedule_routes()))
    def test_every_entry_point_refuses_a_non_schedule(self, route, bad):
        call = _schedule_routes()[route]
        call(zero_schedule(2, 0.0, 2.0))
        with pytest.raises(ValidationError, match="^schedule must be a "
                           "HamiltonianSchedule, got ") as info:
            call(bad)
        assert type(info.value) is ValidationError


class TestPhysicalInvariances:
    def test_weights_ignore_fixed_point_phases(self):
        # multiplying any fixed-point state by a phase leaves both weight
        # routes and the measures unchanged
        for seed in range(10):
            rng = rng_from_seed(1300 + seed)
            spec, sched = random_family_spec(1300 + seed, dim=3, n_times=3,
                                             s_t=1)
            fam = enumerate_family(spec)
            h = fam.histories[0]
            phases = rng.uniform(0, 2 * np.pi, size=h.n_times)
            rotated = QuantumHistory(tuple(
                FixedPoint(p.time, np.exp(1j * a) * p.state, p.label)
                for p, a in zip(h.points, phases)))
            assert delta_psi(rotated, sched) == \
                pytest.approx(delta_psi(h, sched), abs=1e-12)
            assert delta_psi_line_integral(rotated, sched, 4) == \
                pytest.approx(delta_psi_line_integral(h, sched, 4), abs=1e-12)

    def test_weights_survive_segment_refinement(self):
        # splitting a schedule segment in half with the same generator is
        # exactly the same dynamics
        rng = rng_from_seed(1400)
        h1, h2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        coarse = HamiltonianSchedule([(0.0, 1.0, h1), (1.0, 2.0, h2)])
        fine = HamiltonianSchedule([(0.0, 0.5, h1), (0.5, 1.0, h1),
                                    (1.0, 1.5, h2), (1.5, 2.0, h2)])
        h = QuantumHistory(tuple(
            FixedPoint(t, random_state(rng, 3)) for t in (0.0, 0.8, 2.0)))
        assert delta_psi(h, fine) == pytest.approx(delta_psi(h, coarse),
                                                   abs=1e-12)
        assert delta_psi_line_integral(h, fine, 8) == \
            pytest.approx(delta_psi_line_integral(h, coarse, 8), abs=1e-12)

    def test_measures_are_probabilities(self):
        for seed in range(10):
            spec, sched = random_family_spec(1500 + seed, dim=2, n_times=4,
                                             s_t=1)
            report = measure_report(enumerate_family(spec), sched)
            assert all(0.0 <= e.measure <= 1.0 + 1e-12
                       for e in report.entries)


class TestShiftedGrids:
    """Far from zero the time matcher's tolerance is relative, so a recipe
    shifted there must keep every route in agreement."""

    @given(FAMILY_SHAPES, st.floats(1e3, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_routes_agree_on_a_shifted_grid(self, shape, offset):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        spec = FamilySpec(
            times=[t + offset for t in spec.times], bases=spec.bases,
            constraints=tuple(fp(c.time + offset, c.state, c.label)
                              for c in spec.constraints))
        sched = HamiltonianSchedule([(a + offset, b + offset, h)
                                     for a, b, h in sched.segments])
        fam = enumerate_family(spec)
        report = measure_report(fam, sched, steps_per_segment=3)
        assert report.route_max_discrepancy <= 1e-10
        normalization, marginals = transfer_chain(spec, sched)
        assert abs(normalization / report.normalization - 1.0) <= 1e-10
        for marginal, column in zip(marginals, fam.index.T):
            summed = np.bincount(column, report.measures,
                                 minlength=marginal.size)
            assert np.max(np.abs(marginal - summed)) <= 1e-10
        psi1, bases = spec.pinned[0].state, list(spec.bases[1:])
        if s_t == 2:
            bases[-1] = complete_basis(spec.pinned[n_times - 1].state)
        dist = sequential_chain(psi1, bases, spec.times[1:], sched,
                                t_prep=spec.times[0])
        if s_t == 2:
            dist = condition_on_final(dist, 0)
        by_choices = report.by_choices()
        assert len(dist.outcomes) == len(by_choices)
        for choices, p in dist.outcomes:
            assert abs(by_choices[choices] - p) <= 1e-10

    def test_born_probability_forms_one_propagator_per_basis(
            self, monkeypatch):
        # every basis vector reads the one U(t1, t2) the schedule holds
        rng = rng_from_seed(64)
        sched = random_schedule(rng, (0.0, 1.0), 5)
        psi = random_state(rng, 5)
        formed = count_calls(monkeypatch, HamiltonianSchedule, "_segment_exp")
        total = sum(born_probability(psi, 0.0, phi, 1.0, sched)
                    for phi in random_orthonormal_basis(rng, 5))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert len(formed) == 1

    def test_four_decompositions_form_each_bundle_propagator_once(
            self, monkeypatch):
        bundle, sched = random_bundle(63, dim=3, n_past=3, n_future=2)
        formed = count_calls(monkeypatch, HamiltonianSchedule, "_segment_exp")
        totals = [decompose_total_measure(bundle, sched, mode).total
                  for mode in DecompositionMode]
        assert max(totals) - min(totals) <= linalg.ROUNDING_TOL
        assert len(formed) == 2

    def test_verify_forms_each_propagator_once(self, monkeypatch):
        # a verify_cli-shaped model (d = 4, N_t = 5, both ends pinned, one
        # segment per grid interval): the closed form forms one product per
        # segment, which the transfer chain and the collapse chain read
        # again, and the walk one stack of exponentials per segment
        n_times = 5
        spec, sched = random_family_spec(46, dim=4, n_times=n_times, s_t=2)
        assert len(sched.segments) == n_times - 1
        formed = count_calls(monkeypatch, HamiltonianSchedule, "_segment_exp")
        row = cli._verify_one("m", spec, 1000, 0, 8, linalg.DEFAULT_TOL)
        assert row["pass"]
        assert len(formed) == 2 * (n_times - 1)
