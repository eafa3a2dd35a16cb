import math

import numpy as np
import pytest

from qcontour import (OutcomeDistribution, ValidationError,
                      ZeroNormalizationError, condition_on_final,
                      enumerate_family, measure_report, monte_carlo_sample,
                      sequential_chain)
from qcontour.errors import EnumerationGuardError
from qcontour.linalg import complete_basis
from qcontour.sampling import rng_from_seed
from toys import (E0, computational_basis, random_family_spec,
                  sx_schedule, zero_schedule)


class TestSequentialChain:
    def test_single_time_deterministic(self):
        dist = sequential_chain(E0, [computational_basis(2)], [1.0],
                                zero_schedule(2), t_prep=0.0)
        assert dict(dist.outcomes) == pytest.approx({(0,): 1.0, (1,): 0.0})

    def test_qubit_rotation_even_split(self):
        sched = sx_schedule()
        dist = sequential_chain(E0, [computational_basis(2)], [math.pi / 4],
                                sched, t_prep=0.0)
        assert dict(dist.outcomes) == pytest.approx({(0,): 0.5, (1,): 0.5})

    def test_distribution_sums_to_one(self):
        for seed in range(10):
            spec, sched = random_family_spec(6000 + seed, dim=3, n_times=3,
                                             s_t=1)
            dist = sequential_chain(spec.constraints[0].state, spec.bases[1:],
                                    spec.times[1:], sched,
                                    t_prep=spec.times[0])
            assert dist.total == pytest.approx(1.0, abs=1e-10)

    def test_incomplete_basis_rejected(self):
        with pytest.raises(ValidationError):
            sequential_chain(E0, [(E0,)], [1.0], zero_schedule(2), t_prep=0.0)

    def test_matches_measures_for_initially_constrained_families(self):
        # the cross-module equivalence this oracle exists to check
        for seed in range(10):
            spec, sched = random_family_spec(6100 + seed, dim=2, n_times=3,
                                             s_t=1)
            report = measure_report(enumerate_family(spec), sched)
            dist = sequential_chain(spec.constraints[0].state, spec.bases[1:],
                                    spec.times[1:], sched,
                                    t_prep=spec.times[0])
            lookup = report.by_choices()
            for seq, p in dist.outcomes:
                assert lookup[seq] == pytest.approx(p, abs=1e-10)


class TestEnumerateMeasures:
    """Measures of every index combination consistent with the constraints:
    ``measure_report`` on ``enumerate_family``."""

    def test_history_counts(self):
        spec, sched = random_family_spec(6200, dim=2, n_times=2, s_t=1)
        report = measure_report(enumerate_family(spec), sched)
        assert len(report.measures) == len(report.entries) == 2
        spec, sched = random_family_spec(6201, dim=2, n_times=3, s_t=1)
        report = measure_report(enumerate_family(spec), sched)
        assert len(report.measures) == len(report.entries) == 4

    def test_guard_trips(self):
        spec, sched = random_family_spec(6202, dim=4, n_times=4, s_t=1)
        with pytest.raises(EnumerationGuardError):
            enumerate_family(spec, guard=5)

    def test_post_selected_matches_conditioned_chain(self):
        # both endpoints pinned: measures equal chain probabilities Bayes
        # conditioned on the final outcome
        for seed in range(10):
            spec, sched = random_family_spec(6300 + seed, dim=3, n_times=4,
                                             s_t=2)
            report = measure_report(enumerate_family(spec), sched)
            final = next(fp for fp in spec.constraints
                         if fp.time == spec.times[-1])
            final_basis = complete_basis(final.state)
            dist = sequential_chain(
                spec.constraints[0].state,
                list(spec.bases[1:-1]) + [tuple(final_basis)],
                spec.times[1:], sched, t_prep=spec.times[0])
            conditioned = condition_on_final(dist, 0)
            lookup = report.by_choices()
            for seq, p in conditioned.outcomes:
                assert lookup[seq] == pytest.approx(p, abs=1e-10)


class TestConditionOnFinal:
    def test_zero_probability_branch_rejected(self):
        dist = OutcomeDistribution((((0, 0), 1.0), ((0, 1), 0.0)))
        with pytest.raises(ZeroNormalizationError):
            condition_on_final(dist, 2)

    def test_renormalizes(self):
        dist = OutcomeDistribution(
            (((0, 0), 0.2), ((0, 1), 0.2), ((1, 0), 0.3), ((1, 1), 0.3)))
        conditioned = condition_on_final(dist, 0)
        assert dict(conditioned.outcomes) == pytest.approx(
            {(0,): 0.4, (1,): 0.6})


class TestMonteCarloSample:
    def test_degenerate_distribution(self):
        dist = OutcomeDistribution((((0,), 1.0), ((1,), 0.0)))
        table = monte_carlo_sample(dist, 1000, seed=0)
        assert table.rows[0].count == 1000
        assert table.rows[1].count == 0
        assert table.all_within_band

    def test_even_split_within_band(self):
        dist = OutcomeDistribution((((0,), 0.5), ((1,), 0.5)))
        table = monte_carlo_sample(dist, 100_000, seed=3)
        for row in table.rows:
            assert abs(row.frequency - 0.5) < 0.01
        assert table.all_within_band

    def test_determinism(self):
        dist = OutcomeDistribution((((0,), 0.3), ((1,), 0.7)))
        t1 = monte_carlo_sample(dist, 50_000, seed=42)
        t2 = monte_carlo_sample(dist, 50_000, seed=42)
        assert t1 == t2

    def test_zero_samples_rejected(self):
        dist = OutcomeDistribution((((0,), 1.0),))
        with pytest.raises(ValidationError):
            monte_carlo_sample(dist, 0, seed=0)

    def test_negative_seed_rejected(self):
        dist = OutcomeDistribution((((0,), 0.5), ((1,), 0.5)))
        with pytest.raises(ValidationError, match="non-negative"):
            monte_carlo_sample(dist, 10, -1)
        with pytest.raises(ValidationError, match="non-negative"):
            rng_from_seed(-1)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, p):
        # a NaN used to pass, and the draws then failed inside numpy
        with pytest.raises(ValidationError, match="finite"):
            OutcomeDistribution((((0,), p), ((1,), 1.0)))

    @pytest.mark.parametrize("n", [1, 1000])
    def test_rounding_edge_probabilities_keep_a_finite_band(self, n):
        # accepted: p >= -ROUNDING_TOL and a total within DEFAULT_TOL of 1
        dist = OutcomeDistribution((((0,), 1 + 1e-13), ((1,), -1e-13)))
        table = monte_carlo_sample(dist, n, seed=0)
        assert [r.count for r in table.rows] == [n, 0]
        assert [r.band for r in table.rows] == [0.0, 0.0]
        assert table.all_within_band
        assert table.max_sigma == 0.0

    def test_rows_hold_python_scalars(self):
        dist = OutcomeDistribution((((0,), 0.3), ((1,), 0.7)))
        table = monte_carlo_sample(dist, 100, seed=1)
        for row in table.rows:
            assert (type(row.count), type(row.frequency), type(row.band),
                    type(row.within_band)) == (int, float, float, bool)
        assert type(table.max_sigma) is float

    def test_draws_follow_the_philox_stream_of_the_seed(self):
        probs = np.array([0.2, 0.3, 0.5])
        dist = OutcomeDistribution(tuple(((k,), p)
                                         for k, p in enumerate(probs)))
        table = monte_carlo_sample(dist, 1000, seed=9)
        draws = np.random.Generator(np.random.Philox(9)).choice(
            3, size=1000, p=probs / probs.sum())
        assert [r.count for r in table.rows] == np.bincount(draws).tolist()


class TestOutcomeDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution((((0,), 0.4), ((1,), 0.4)))

    def test_no_negative_probabilities(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution((((0,), 1.2), ((1,), -0.2)))
