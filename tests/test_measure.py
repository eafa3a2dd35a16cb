import math

import numpy as np
import pytest
from hypothesis import given, settings

from qcontour import (DecompositionMode, FamilySpec, FixedPoint,
                      HamiltonianSchedule, HistoryFamily, HistoryMeasure,
                      QuantumHistory, ToyBundle, ValidationError,
                      ZeroNormalizationError, born_probability,
                      decompose_total_measure, delta_psi,
                      delta_psi_line_integral, enumerate_family,
                      measure_report, segment_amplitude, transfer_chain)
from qcontour import dynamics, measure
from qcontour.contour import TimeGrid, contour_path
from qcontour.dynamics import evolve_state, propagate
from qcontour.sampling import (random_hermitian, random_orthonormal_basis,
                               random_state, random_schedule, rng_from_seed)

from toys import (E0, E1, FAMILY_SHAPES, PLUS, computational_basis,
                  count_calls, family_variants, random_family_spec,
                  sx_schedule, zero_schedule)


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


def _segment_loop_weight(h, sched):
    """The weight as a plain loop over segment amplitudes."""
    product = 1 + 0j
    for a, b in zip(h.points, h.points[1:]):
        product *= segment_amplitude(a, b, sched)
    return abs(product) ** 2


class TestSharedSegments:
    """Family weights reuse shared segments without changing a bit."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=30, deadline=None)
    def test_weights_bit_identical_to_segment_loop(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        for name, fam in family_variants(spec, seed).items():
            report = measure_report(fam, sched)
            weights = [_segment_loop_weight(h, sched) for h in fam.histories]
            assert [e.delta_psi for e in report.entries] == weights, name
            assert report.normalization == sum(weights)
            for h, e in zip(fam.histories, report.entries):
                assert delta_psi(h, sched) == e.delta_psi
                assert delta_psi(h, sched) / report.normalization == e.measure


def _plain_walk(h, sched, steps):
    """The contour walk with one propagate call per sub-step."""
    states = {p.time: p.state for p in h.points}
    amp = 1.0 + 0.0j
    for step in contour_path(TimeGrid(h.times)):
        carried = states[step.start.t]
        ticks = np.linspace(step.start.t, step.end.t, steps + 1)
        for u, v in zip(ticks, ticks[1:]):
            carried = propagate(sched, u, v) @ carried
        amp *= np.vdot(states[step.end.t], carried)
    return float(abs(amp))


class TestSharedPropagators:
    """The contour walks of one report share propagators bit for bit."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=10, deadline=None)
    def test_contour_weights_bit_identical_to_plain_walk(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        steps = 1 + seed % 3
        for name, fam in family_variants(spec, seed).items():
            report = measure_report(fam, sched, steps_per_segment=steps)
            want = [_plain_walk(h, sched, steps) for h in fam.histories]
            assert [e.delta_psi_contour for e in report.entries] == want, name
            assert delta_psi_line_integral(fam.histories[0], sched,
                                           steps) == want[0]

    @given(FAMILY_SHAPES)
    @settings(max_examples=10, deadline=None)
    def test_single_history_walk_equals_the_report(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        steps = 1 + seed % 3
        for name, fam in family_variants(spec, seed).items():
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
            weights = [_segment_loop_weight(h, sched) for h in fam.histories]
            walks = [_plain_walk(h, sched, steps) for h in fam.histories]
            normalization = sum(weights)
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
        built = count_calls(monkeypatch, QuantumHistory, "__init__")
        fam = enumerate_family(spec)
        measure_report(fam, sched)
        measure_report(fam, sched, steps_per_segment=2)
        assert built == []
        assert len(fam.histories) == 27
        assert len(built) == 27

    def test_no_per_history_objects_until_entries_are_read(
            self, monkeypatch):
        spec, sched = random_family_spec(41, dim=3, n_times=4, s_t=1)
        built = count_calls(monkeypatch, QuantumHistory, "__init__")
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
        assert len(made) == 54
        assert built == []

    def test_closed_form_propagates_once_per_segment(self, monkeypatch):
        spec, sched = random_family_spec(42, dim=3, n_times=4, s_t=1)
        fam = enumerate_family(spec)
        calls = count_calls(monkeypatch, dynamics, "propagate", measure)
        measure_report(fam, sched)
        assert len(calls) == 3

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_contour_walk_propagates_independently_of_history_count(
            self, monkeypatch, steps):
        calls = count_calls(monkeypatch, dynamics, "propagate", measure)
        counts = []
        for s_t in (1, 2):  # H = 27 and H = 9 on one grid and schedule
            spec, sched = random_family_spec(43, dim=3, n_times=4, s_t=s_t)
            fam = enumerate_family(spec)
            calls.clear()
            measure_report(fam, sched, steps_per_segment=steps)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3 * (4 - 1) * steps

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
        n_future = len(bundle.future)
        for i in range(len(bundle.past)):
            regrouped = sum(mdrw.terms[i * n_future:(i + 1) * n_future])
            assert regrouped == pytest.approx(mmwf.terms[i], abs=1e-12)

    def test_terms_bit_identical_to_segment_amplitudes(self):
        for seed in range(20):
            bundle, sched = random_bundle(1200 + seed, dim=3, n_past=2,
                                          n_future=3)
            w_past = [abs(segment_amplitude(p, bundle.pivot, sched)) ** 2
                      for p in bundle.past]
            w_future = [abs(segment_amplitude(bundle.pivot, f, sched)) ** 2
                        for f in bundle.future]
            mdrw = decompose_total_measure(bundle, sched,
                                           DecompositionMode.MDRW)
            assert mdrw.terms == tuple(wp * wf for wp in w_past
                                       for wf in w_future)

    def test_non_orthonormal_branch_set_rejected(self):
        with pytest.raises(ValidationError):
            ToyBundle(past=(fp(0.0, E0), fp(0.0, PLUS)),
                      pivot=fp(1.0, E0),
                      future=(fp(2.0, E0), fp(2.0, E1)))


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
