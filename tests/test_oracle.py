import dataclasses
import fractions
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontour import (FamilySpec, FrequencyRow, HamiltonianSchedule,
                      OutcomeDistribution, ValidationError,
                      ZeroNormalizationError,
                      condition_on_final, enumerate_family, measure_report,
                      monte_carlo_sample, oracle, propagate, sequential_chain)
from qcontour.errors import DimensionMismatchError, EnumerationGuardError
from qcontour.linalg import complete_basis
from qcontour.sampling import haar_unitary, random_hermitian, rng_from_seed
from toys import (E0, E1, FAMILY_SHAPES, MINUS, PLUS, WIDE_SHAPES,
                  computational_basis, count_calls, random_family_spec,
                  sx_schedule, zero_schedule)


def _branch_loop_chain(psi1, bases, times, sched, t_prep):
    """The per-branch collapse chain ``sequential_chain`` must reproduce
    bit for bit: each branch a (key, state) pair whose key grows by one
    outcome index per time."""
    branches = [((), np.asarray(psi1, dtype=complex))]
    t_now = t_prep
    for t, basis in zip(times, bases):
        u = propagate(sched, t_now, t)
        grown = []
        for seq, vec in branches:
            evolved = u @ vec
            for k, b in enumerate(basis):
                grown.append((seq + (k,), b * np.vdot(b, evolved)))
        branches = grown
        t_now = t
    return tuple((seq, float(np.vdot(vec, vec).real)) for seq, vec in branches)


def _chain_inputs(model):
    """``sequential_chain`` arguments for a model pinned at its first time,
    and at its last when it has two constraints (completing the final
    state to a basis there), as ``qcontour verify`` builds them."""
    bases = list(model.bases[1:])
    if len(model.constraints) == 2:
        bases[-1] = complete_basis(model.constraints[1].state)
    return (model.constraints[0].state, bases, model.times[1:],
            model.schedule, model.times[0])


def _row_loop_table(dist, n, seed):
    """The per-row frequency table ``monte_carlo_sample`` must reproduce
    bit for bit: rows and ``max_sigma``, each row's clipped probability
    and binomial sigma computed in a Python loop."""
    probs = np.clip(np.array([p for _, p in dist.outcomes]), 0.0, None)
    counts = oracle.rng_from_seed(seed).multinomial(n, probs / probs.sum())
    rows, worst = [], 0.0
    for (key, p), count in zip(dist.outcomes, counts.tolist()):
        freq = count / n
        clipped = min(max(p, 0.0), 1.0)
        sigma = math.sqrt(clipped * (1.0 - clipped) / n)
        band = 5.0 * sigma
        rows.append(FrequencyRow(key=key, probability=p, count=count,
                                 frequency=freq, band=band,
                                 within_band=abs(freq - clipped) <= band))
        if sigma > 0:
            worst = max(worst, abs(freq - clipped) / sigma)
        elif freq != clipped:
            worst = math.inf
    return tuple(rows), worst


class _FixedDraws:
    """A generator whose ``multinomial`` returns the given counts, one per
    row of the probabilities it is asked for."""

    def __init__(self, counts):
        self.counts = np.array(counts, dtype=np.int64)

    def multinomial(self, n, pvals):
        return self.counts[:len(pvals)].copy()


def _tables_of_counts(monkeypatch, probs, counts):
    """The table of the given counts of draws from ``probs``, and the
    per-row loop's ``(rows, max_sigma)`` on the same counts."""
    monkeypatch.setattr(oracle, "rng_from_seed",
                        lambda seed: _FixedDraws(counts))
    dist = OutcomeDistribution(tuple(((k,), p) for k, p in enumerate(probs)))
    return (monte_carlo_sample(dist, sum(counts), 0),
            _row_loop_table(dist, sum(counts), 0))


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
            assert sum(p for _, p in dist.outcomes) == pytest.approx(
                1.0, abs=1e-10)

    def test_fortran_ordered_basis_reads_as_its_rows(self):
        # the rows of u^H, a Fortran-ordered array, are an orthonormal basis
        rng = rng_from_seed(31)
        u = haar_unitary(rng, 3)
        psi = u[:, 0]
        sched = HamiltonianSchedule.constant(random_hermitian(rng, 3), 0, 2)
        dist = sequential_chain(psi, [u.conj().T], [1.0], sched, 0.0)
        rows = [np.array(v) for v in u.conj().T]
        assert dist.outcomes == sequential_chain(psi, [rows], [1.0], sched,
                                                 0.0).outcomes

    def test_incomplete_basis_rejected(self):
        with pytest.raises(ValidationError):
            sequential_chain(E0, [(E0,)], [1.0], zero_schedule(2), t_prep=0.0)

    @pytest.mark.parametrize("basis, dim, error, match", [
        # a refused state names its basis; a dimension mismatch does not
        ((E0, 2 * E1), 2, ValidationError,
         r"^basis at time 1\.0: state vector is not normalized"),
        ((np.eye(3)[0],), 2, DimensionMismatchError,
         "^state dimension 3 does not match dimension 2"),
        # orthonormality is judged with the states, before completeness
        ((np.eye(3)[0], np.eye(3)[0]), 3, ValidationError,
         r"^basis at time 1\.0 is not orthonormal$"),
        ((np.eye(3)[0], np.eye(3)[1]), 3, ValidationError,
         r"^basis at time 1\.0 must be complete$"),
    ])
    def test_each_basis_is_checked_as_one_stack(self, basis, dim, error,
                                                 match):
        with pytest.raises(error, match=match) as info:
            sequential_chain(np.eye(dim)[0], [basis], [1.0],
                             zero_schedule(dim), 0.0)
        assert type(info.value) is error

    @pytest.mark.parametrize("t_prep", ["0", True, math.nan])
    def test_preparation_time_must_be_a_real_finite_number(self, t_prep):
        # "0" was read as 0.0 and True as 1.0
        with pytest.raises(ValidationError,
                           match="^preparation time must be real"):
            sequential_chain(E0, [computational_basis(2)], [1.0],
                             zero_schedule(2), t_prep=t_prep)

    def test_every_basis_is_judged_before_completeness(self):
        # the incomplete basis at time 1.0 used to be refused first
        with pytest.raises(ValidationError,
                           match=r"^basis at time 2\.0 is not orthonormal$"):
            sequential_chain(E0, [[E0], [E0, E0]], [1.0, 2.0],
                             zero_schedule(2), 0.0)

    @pytest.mark.parametrize("bases, match", [
        (5, "one basis per measurement time"),
        ([5], r"^basis at time 1\.0: expected a sequence of state vectors, "
              "got 5$"),
    ])
    def test_bases_that_are_not_sequences_rejected(self, bases, match):
        # both used to raise TypeError
        with pytest.raises(ValidationError, match=match):
            sequential_chain(E0, bases, [1.0], zero_schedule(2), 0.0)

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


class TestChainBits:
    """The chain carries states only and takes its keys from one product,
    bit for bit the per-branch loop."""

    @given(FAMILY_SHAPES)
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_branch_loop(self, shape):
        model, _ = random_family_spec(*shape)
        args = _chain_inputs(model)
        assert sequential_chain(*args).outcomes == _branch_loop_chain(*args)

    @given(WIDE_SHAPES)
    @example((1, 8, 3, 1))  # the family_large dimension
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_branch_loop_at_larger_d(self, shape):
        model, _ = random_family_spec(*shape)
        args = _chain_inputs(model)
        assert sequential_chain(*args).outcomes == _branch_loop_chain(*args)

    @given(FAMILY_SHAPES)
    @settings(max_examples=30, deadline=None)
    def test_keys_follow_the_family_index(self, shape):
        model, _ = random_family_spec(*shape)
        psi1, bases, times, sched, t_prep = _chain_inputs(model)
        dist = sequential_chain(psi1, bases, times, sched, t_prep)
        # the recipe the chain walks: the preparation pinned, a complete
        # basis at every later time
        walked = FamilySpec(times=model.times, bases=(
            model.bases[0], *bases), constraints=model.constraints[:1])
        keys = [list(seq) for seq, _ in dist.outcomes]
        assert keys == enumerate_family(walked).choices.tolist()
        if len(model.constraints) == 2:
            dist = condition_on_final(dist, 0)
        keys = [list(seq) for seq, _ in dist.outcomes]
        assert keys == enumerate_family(model).choices.tolist()

    def test_no_measurement_keeps_the_preparation(self):
        dist = sequential_chain(E0, [], [], zero_schedule(2), 0.0)
        assert dist.outcomes == (((), 1.0),)


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

    def test_empty_sequence_rejected(self):
        # a chain with no measurement time has one empty outcome sequence,
        # which used to fail on its last index with IndexError
        dist = OutcomeDistribution((((), 1.0),))
        with pytest.raises(ValidationError, match="non-empty sequences"):
            condition_on_final(dist, 0)



class TestPostSelectedChain:
    """A stack of fewer rows than the dimension, a pinned time's state,
    post-selects the chain on its states."""

    def test_one_row_stack_conditions_its_column(self):
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        pin = np.array([[c, s]], dtype=complex)
        probs = oracle._unchecked_chain(
            [E0.reshape(1, -1), np.array([PLUS, MINUS]), pin],
            (0.0, 0.5, 1.0), zero_schedule(2))
        assert probs.tolist() == pytest.approx(
            [(c + s) ** 2 / 2, (c - s) ** 2 / 2], abs=1e-15)

    def test_zero_total_raises(self):
        with pytest.raises(ZeroNormalizationError, match="post-selection"):
            oracle._unchecked_chain([E0.reshape(1, -1), E1.reshape(1, -1)],
                                    (0.0, 1.0), zero_schedule(2))

    def test_whole_first_basis_is_the_maximally_mixed_state(self):
        # every row of a free first time starts one equally weighted
        # branch, so the column is divided by the basis size
        basis = np.array([E0, E1])
        probs = oracle._unchecked_chain([basis, np.array([PLUS, MINUS])],
                                        (0.0, 1.0), zero_schedule(2))
        assert probs.tolist() == pytest.approx([0.25] * 4, abs=1e-15)
        pin = np.array([PLUS])
        probs = oracle._unchecked_chain([basis, pin], (0.0, 1.0),
                                        zero_schedule(2))
        assert probs.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)

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

    @pytest.mark.parametrize("n", [True, 1.5, "10", 10.0])
    def test_sample_count_must_be_an_integer(self, n):
        # True and 1.5 used to fail inside numpy with TypeError
        dist = OutcomeDistribution((((0,), 0.5), ((1,), 0.5)))
        with pytest.raises(ValidationError, match="sample count"):
            monte_carlo_sample(dist, n, seed=0)

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_seed_must_be_an_integer(self, seed):
        # int(seed) used to run 1.5 as seed 1 and "3" as seed 3
        dist = OutcomeDistribution((((0,), 0.5), ((1,), 0.5)))
        with pytest.raises(ValidationError, match="seed must be an integer"):
            rng_from_seed(seed)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            monte_carlo_sample(dist, 10, seed)

    def test_numpy_integers_accepted(self):
        dist = OutcomeDistribution((((0,), 0.3), ((1,), 0.7)))
        assert monte_carlo_sample(dist, np.int64(500), np.int64(4)) == \
            monte_carlo_sample(dist, 500, 4)

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

    @pytest.mark.parametrize("p", ["1", True, "x", None, 1 + 0j])
    def test_probability_that_is_not_a_real_number_rejected(self, p):
        # "1" and True were accepted; "x", None and 1+0j leaked
        # ValueError or TypeError from float()
        with pytest.raises(ValidationError, match="real numbers"):
            OutcomeDistribution((((0,), p), ((1,), 0.0)))

    @pytest.mark.parametrize("p", [1, np.float64(1.0), np.int64(1),
                                   fractions.Fraction(1)])
    def test_real_probabilities_of_any_type_read_as_floats(self, p):
        dist = OutcomeDistribution((((0,), p), ((1,), 0.0)))
        assert dist.outcomes == (((0,), 1.0), ((1,), 0.0))
        assert all(type(q) is float for _, q in dist.outcomes)

    def test_repeated_outcome_rejected(self):
        # it used to be tabulated twice: counts [54 46] for one outcome
        with pytest.raises(ValidationError, match="distinct"):
            OutcomeDistribution((((0,), 0.5), ((0,), 0.5)))

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
        counts = np.random.Generator(np.random.Philox(9)).multinomial(
            1000, probs / probs.sum())
        assert [r.count for r in table.rows] == counts.tolist()

    @pytest.mark.parametrize("n", [2 ** 63, np.uint64(2 ** 63),
                                   np.uint64(2 ** 64 - 1)])
    def test_sample_count_beyond_the_largest_rejected(self, n):
        # numpy draws counts as int64: 2**63 leaked its OverflowError, and
        # the chunked draws before it ran for about 1.4e14 chunks
        dist = OutcomeDistribution((((0,), 0.5), ((1,), 0.5)))
        with pytest.raises(ValidationError,
                           match=f"at most {2 ** 63 - 1}, got {int(n)}$"):
            monte_carlo_sample(dist, n, seed=0)


@st.composite
def sample_weights(draw):
    """Weights over H = 1 to 4096 rows, from a seeded numpy stream: some
    rows 0, some 1e-300, some trailing rows 0, perhaps one 1e300 weight,
    and at least one positive row."""
    h = draw(st.integers(1, 4096))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = gen.random(h)
    weights[gen.random(h) < draw(st.floats(0.0, 1.0))] = 0.0
    weights[gen.random(h) < draw(st.floats(0.0, 0.5))] = 1e-300
    if draw(st.booleans()):
        weights[gen.integers(h)] = 1e300
    weights[h - draw(st.integers(0, h - 1)):] = 0.0
    if not weights.any():
        weights[0] = 1.0
    return weights


class TestMultinomialCounts:
    """The counts are one multinomial draw of the seed's Philox stream, at
    any sample count and with any zero rows."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("multiple", [1, 2])
    def test_counts_equal_one_draw(self, multiple, offset):
        n = multiple * 2 ** 16 + offset
        probs = np.array([0.1, 0.25, 0.0, 0.65])
        dist = OutcomeDistribution(tuple(((k,), p)
                                         for k, p in enumerate(probs)))
        table = monte_carlo_sample(dist, n, seed=17)
        counts = rng_from_seed(17).multinomial(n, probs / probs.sum())
        assert [r.count for r in table.rows] == counts.tolist()

    @pytest.mark.parametrize("n", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                                   100_000])
    def test_counts_equal_multinomial_over_many_rows(self, n):
        # H = 4096 with about a fifth of the rows at probability 0
        gen = np.random.default_rng(n)
        weights = gen.random(4096)
        weights[gen.random(4096) < 0.2] = 0.0
        probs = weights / weights.sum()
        dist = OutcomeDistribution(tuple(((k,), p)
                                         for k, p in enumerate(probs)))
        table = monte_carlo_sample(dist, n, seed=23)
        counts = rng_from_seed(23).multinomial(n, probs / probs.sum())
        assert table.counts.tolist() == counts.tolist()

    @given(weights=sample_weights(),
           n=st.integers(1, 2 ** 63 - 1), seed=st.integers(0, 2 ** 64))
    @example(weights=np.r_[np.random.default_rng(1).random(8), 0.0],
             n=2 ** 63 - 1, seed=0)
    @settings(max_examples=50, deadline=None)
    def test_counts_sum_to_n_and_miss_no_zero_row(self, weights, n, seed):
        # numpy's multinomial gives its last row the rounding remainder of
        # the binomial chain: at n = 2**63 - 1 the example above put 567
        # draws in its trailing row of probability 0
        probs = weights / weights.sum()
        dist = OutcomeDistribution.from_columns(
            np.arange(len(probs))[:, None], probs)
        counts = monte_carlo_sample(dist, n, seed).counts
        assert sum(counts.tolist()) == n
        assert (counts >= 0).all()
        assert not counts[dist.probabilities == 0.0].any()

    def test_counts_follow_the_law_of_independent_draws(self):
        # row 0 of 2 000 seeded tables at H = 4, n = 20 against the counts
        # of 20 single draws by choice, and both against binomial(20, p0)
        probs = np.array([0.15, 0.2, 0.3, 0.35])
        dist = OutcomeDistribution(tuple(((k,), p)
                                         for k, p in enumerate(probs)))
        seeds = range(2000)
        ours = [monte_carlo_sample(dist, 20, seed).counts[0] for seed in seeds]
        theirs = [np.bincount(rng_from_seed(seed).choice(4, size=20, p=probs),
                              minlength=4)[0] for seed in seeds]
        # cells 0..7 and a pooled tail, each expected above 5 draws
        cells = [np.bincount(np.minimum(c, 8), minlength=9)
                 for c in (ours, theirs)]
        assert scipy.stats.chi2_contingency(cells).pvalue > 1e-3
        law = scipy.stats.binom(20, probs[0])
        expected = 2000 * np.r_[law.pmf(range(8)), law.sf(7)]
        for observed in cells:
            assert scipy.stats.chisquare(observed, expected).pvalue > 1e-3
        # a neighbouring law is told apart
        other = scipy.stats.binom(20, probs[1])
        assert scipy.stats.chisquare(
            cells[0], 2000 * np.r_[other.pmf(range(8)), other.sf(7)]
        ).pvalue < 1e-6

    def test_memory_stays_flat_in_the_sample_count(self):
        dist = OutcomeDistribution((((0,), 0.5), ((1,), 0.5)))
        # the first draw in a process may load numpy.random (about 1 MB)
        monte_carlo_sample(dist, 1, seed=2)
        tracemalloc.start()
        try:
            table = monte_carlo_sample(dist, 10 ** 9, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(r.count for r in table.rows) == 10 ** 9
        assert peak < 64 * 2 ** 10


class TestTableColumns:
    """The table holds columns; rows are built only when read, and tables
    compare by value."""

    def _table(self):
        dist = OutcomeDistribution((((0,), 0.3), ((1,), 0.7)))
        return monte_carlo_sample(dist, 1000, seed=6)

    def test_tables_differing_in_one_count_are_unequal(self):
        table = self._table()
        counts = table.counts + np.array([0, 1])
        assert dataclasses.replace(table, counts=counts) != table
        assert dataclasses.replace(table, counts=table.counts.copy()) == table

    def test_equality_and_verdict_build_no_rows(self):
        table, other = self._table(), self._table()
        assert table == other and hash(table) == hash(other)
        assert table.all_within_band
        assert "rows" not in table.__dict__
        assert "rows" not in other.__dict__
        assert table.rows[1].count == table.counts[1]
        assert "rows" in table.__dict__

    def test_columns_are_read_only(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.counts[0] = 0


class TestTableBits:
    """The table's columns equal the per-row loop bit for bit."""

    @pytest.mark.parametrize("probs, n, seed", [
        ((1.0, 0.0), 1000, 0),                   # p = 1 and p = 0
        ((0.0, 0.25, 0.0, 0.75), 7, 3),
        ((1 + 1e-13, -1e-13), 1, 0),             # rounding edges
        ((1 + 1e-13, -1e-13), 1000, 0),
        ((-1e-13, 0.5, 0.5 + 1e-13), 100_000, 8),
        ((0.3, 0.7), 1, 4),
    ])
    def test_edges(self, probs, n, seed):
        dist = OutcomeDistribution(tuple(((k,), p)
                                         for k, p in enumerate(probs)))
        table = monte_carlo_sample(dist, n, seed)
        assert (table.rows, table.max_sigma) == _row_loop_table(dist, n, seed)
        assert type(table.max_sigma) is float

    @pytest.mark.parametrize("draws, want", [
        # (probabilities, counts): one draw of row 1 misses row 0's
        # zero-width band
        (((1.0, 5e-11), [0, 1]), math.inf),
        (((1.0, 0.0), [3, 0]), 0.0),
    ])
    def test_zero_width_band(self, monkeypatch, draws, want):
        # p = 1 (and p = 0) have zero-width bands: a hit reads 0 sigma, a
        # miss inf
        table, looped = _tables_of_counts(monkeypatch, *draws)
        assert (table.rows, table.max_sigma) == looped
        assert table.max_sigma == want
        assert table.all_within_band is (want == 0.0)

    @given(FAMILY_SHAPES)
    @settings(max_examples=20, deadline=None)
    def test_random_measures(self, shape):
        model, sched = random_family_spec(*shape)
        report = measure_report(enumerate_family(model), sched)
        dist = OutcomeDistribution(tuple(report.by_choices().items()))
        for n in (1, 50, 10_000):
            table = monte_carlo_sample(dist, n, shape[0])
            assert (table.rows, table.max_sigma) == \
                _row_loop_table(dist, n, shape[0])


class TestOutcomeDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution((((0,), 0.4), ((1,), 0.4)))

    def test_no_negative_probabilities(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution((((0,), 1.2), ((1,), -0.2)))


#: probabilities a distribution refuses or must read with care: rounding
#: noise below zero, non-finite, non-real and overflowing values
ODD_PROBABILITIES = st.sampled_from([
    -1e-17, -1e-11, 0.0, -0.0, math.nan, math.inf, 1 + 0j, True, "0.5",
    None, 10 ** 400, np.float64(0.25), np.int64(0), fractions.Fraction(1, 3)])


@st.composite
def outcome_pairs(draw):
    """(key tuple, probability) pairs: keys of one length, often
    repeated, sometimes ragged; probabilities that sum to one, with
    rounding noise or an odd value put in."""
    length = draw(st.integers(0, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(0, 2)] * length),
                         max_size=6, unique=draw(st.booleans())))
    n = len(keys)
    if keys and draw(st.integers(0, 4)) == 0:
        keys[draw(st.integers(0, n - 1))] = draw(
            st.lists(st.integers(0, 2), max_size=4).map(tuple))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    probs = [w / total if total else 1.0 / n for w in weights]
    if probs and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        probs[k] = draw(ODD_PROBABILITIES)
    return list(zip(keys, probs))


def _verdict(build):
    try:
        dist = build()
    except ValidationError as exc:
        return str(exc)
    return dist.keys.dtype, dist.keys.shape, dist.outcomes


class TestColumns:
    """A distribution is a read-only key array and probability column; one
    built from columns and one built from pairs agree on every input."""

    @given(outcome_pairs())
    @settings(max_examples=400, deadline=None)
    @example([((0,), 0.5), ((0,), 0.5)])
    @example([((0,), 1.0), ((1, 0), 0.0)])
    @example([((), 1.0)])
    @example([((0,), 1 + 1e-17), ((1,), -1e-17)])
    @example([])
    def test_columns_and_pairs_agree(self, pairs):
        keys = [k for k, _ in pairs]
        probs = [p for _, p in pairs]
        verdict = _verdict(lambda: OutcomeDistribution(pairs))
        assert _verdict(lambda: OutcomeDistribution.from_columns(
            keys, probs)) == verdict
        if all(type(p) is float for p in probs):
            assert _verdict(lambda: OutcomeDistribution.from_columns(
                keys, np.array(probs))) == verdict
        if not isinstance(verdict, str):
            one = OutcomeDistribution(pairs)
            two = OutcomeDistribution.from_columns(keys, probs)
            assert one == two and hash(one) == hash(two)
            assert monte_carlo_sample(one, 50, 3) \
                == monte_carlo_sample(two, 50, 3)

    def test_columns_are_read_only(self):
        dist = OutcomeDistribution((((0, 1), 0.25), ((1, 0), 0.75)))
        assert dist.keys.tolist() == [[0, 1], [1, 0]]
        for column in (dist.keys, dist.probabilities):
            assert not column.flags.writeable

    def test_caller_arrays_stay_writeable(self):
        keys, probs = np.array([[0], [1]]), np.array([0.5, 0.5])
        OutcomeDistribution.from_columns(keys, probs)
        assert keys.flags.writeable and probs.flags.writeable

    @pytest.mark.parametrize("keys", [[(0,), (0, 1)], [("a",), ("b",)],
                                      [(True,), (False,)], [(0.5,), (1.5,)],
                                      [(10 ** 400,), (0,)]])
    def test_keys_that_are_not_integer_rows_rejected(self, keys):
        with pytest.raises(ValidationError, match="equal-length"):
            OutcomeDistribution(zip(keys, (0.5, 0.5)))

    def test_integer_beyond_the_float_range_is_not_finite(self):
        # float() raised OverflowError from the constructor
        with pytest.raises(ValidationError, match="finite"):
            OutcomeDistribution((((0,), 10 ** 400), ((1,), 0.0)))

    def test_chain_and_conditioning_check_no_keys(self, monkeypatch):
        # keys from np.indices are distinct by construction, and a
        # selection keeps them so: tiny distributions pay no np.unique
        unique = count_calls(monkeypatch, np, "unique")
        dist = sequential_chain(E0, [computational_basis(2)] * 2,
                                [0.3, 0.6], sx_schedule(), 0.0)
        conditioned = condition_on_final(dist, 0)
        monte_carlo_sample(conditioned, 10, 0)
        assert unique == []
        assert conditioned.keys.tolist() == [[0], [1]]

    def test_conditioning_selects_the_last_column(self):
        dist = OutcomeDistribution.from_columns(
            [[0, 0], [0, 1], [1, 0], [1, 1]], [0.1, 0.2, 0.3, 0.4])
        conditioned = condition_on_final(dist, 1)
        total = 0.2 + 0.4
        assert conditioned.outcomes == (((0,), 0.2 / total),
                                        ((1,), 0.4 / total))
