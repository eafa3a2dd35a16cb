"""Independent brute-force verifiers.

Two cross-checks for the history-weight machinery: a sequential
projective-measurement simulation (evolve, project, renormalize) and
reproducible Monte Carlo frequency sampling.  The collapse simulation
tracks pure-state branches with unnormalized amplitudes, whose squared
norms are exactly the joint outcome probabilities, avoiding any division
by zero along dead branches.  Every row of the first time's stack starts
an equally weighted branch (a free first time's whole basis is the
maximally mixed pre-state of the ABL rule), and a pinned time is a
one-row stack, its constraint's state, on which the chain post-selects.
"""

from __future__ import annotations

import functools
import itertools
import math
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .contour import require_increasing, require_not_before, require_time
from .dynamics import HamiltonianSchedule, propagate, require_schedule
from .errors import ValidationError
from .histories import _Rows
from .sampling import rng_from_seed


@dataclass(frozen=True, eq=False, init=False)
class OutcomeDistribution(linalg.Frozen):
    """Probabilities over outcome index sequences; sums to one.

    Held as columns: row k of ``keys``, an (n, L) integer array, is the
    index sequence of outcome k and entry k of ``probabilities`` its
    probability; both are read-only.  ``outcomes`` (one (key tuple, float)
    pair per outcome, the form the constructor takes) is a view whose pair
    k is built when read, and ``from_columns`` takes the two columns as
    they are.  Either way the keys are distinct, equal-length integer
    sequences and the probabilities finite, at least ``-ROUNDING_TOL`` and
    summing to one within ``DEFAULT_TOL``.  Distributions are equal when
    their keys and probabilities are.
    """

    keys: np.ndarray
    probabilities: np.ndarray

    def __init__(self, outcomes):
        kind = "(key sequence, probability) pairs"
        outcomes = linalg.require_sequence(outcomes, "outcomes", kind)
        try:
            pairs = [(tuple(seq), p) for seq, p in outcomes]
        except (TypeError, ValueError):  # not pairs, or a key not a sequence
            raise ValidationError(f"outcomes must be {kind}, got "
                                  f"{reprlib.repr(outcomes)}") from None
        self._fill([seq for seq, _ in pairs],
                   np.array([_probability(p) for _, p in pairs]),
                   distinct=False)

    @classmethod
    def from_columns(cls, keys, probabilities) -> OutcomeDistribution:
        """The distribution of outcome ``keys[k]`` (equal-length integer
        sequences) with probability ``probabilities[k]``, checked as the
        constructor checks its pairs."""
        if not (isinstance(probabilities, np.ndarray)
                and probabilities.dtype.kind in "fiu"):
            probabilities = [_probability(p) for p in probabilities]
        probs = np.array(probabilities, dtype=float)
        if probs.ndim != 1:
            raise ValidationError("probabilities must be one column")
        dist = cls.__new__(cls)
        dist._fill(keys, probs, distinct=False)
        return dist

    @classmethod
    def _from_distinct(cls, keys: np.ndarray,
                       probabilities: np.ndarray) -> OutcomeDistribution:
        """``from_columns`` for an (n, L) integer key array whose rows are
        distinct by construction and a float column: the keys are taken
        as they are."""
        dist = cls.__new__(cls)
        dist._fill(keys, probabilities, distinct=True)
        return dist

    def _fill(self, keys, probs: np.ndarray, distinct: bool) -> None:
        """Check the columns and set them, in the order the pairs were
        once checked; ``keys`` is converted unless ``distinct``."""
        if not probs.size:
            raise ValidationError("distribution must have at least one outcome")
        if not distinct:
            keys = _key_array(keys)
            if len(keys) != len(probs):
                raise ValidationError("need one probability per outcome key")
            if len(np.unique(keys, axis=0)) != len(keys):
                raise ValidationError("outcome sequences must be distinct")
        if not (np.isfinite(probs).all()
                and (probs >= -linalg.ROUNDING_TOL).all()):
            raise ValidationError("probabilities must be finite, non-negative")
        # a Python sum, in key order, as the pairs were once summed
        total = sum(probs.tolist())
        if abs(total - 1.0) > linalg.DEFAULT_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "keys", linalg.freeze(keys.view()))
        object.__setattr__(self, "probabilities", linalg.freeze(probs.view()))

    @cached_property
    def outcomes(self) -> Sequence[tuple[tuple[int, ...], float]]:
        """(key tuple, probability) pairs of Python scalars, in row order,
        each built when read."""
        return _Rows(len(self.keys), functools.partial(
            _outcome_rows, self.keys, self.probabilities))

    def __eq__(self, other):
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return (np.array_equal(self.keys, other.keys)
                and np.array_equal(self.probabilities, other.probabilities))

    def __hash__(self):
        return hash((self.keys.shape, self.keys.tobytes()))


def _outcome_rows(keys: np.ndarray, probabilities: np.ndarray, lo: int,
                  hi: int):
    """Outcomes ``lo`` to ``hi - 1``: (key tuple, probability) pairs of
    Python scalars."""
    return zip(map(tuple, keys[lo:hi].tolist()),
               probabilities[lo:hi].tolist())


def _probability(p) -> float:
    """``p`` as a float; ValidationError unless it is a real number and not
    a bool (text, None and complex numbers are not).  An integer beyond
    the float range reads as an infinity, which the finiteness check
    refuses."""
    if not linalg.is_real(p):
        raise ValidationError(f"probabilities must be real numbers, got {p!r}")
    try:
        return float(p)
    except OverflowError:
        return math.inf if p > 0 else -math.inf


def _key_array(keys) -> np.ndarray:
    """``keys`` as an (n, L) integer array; ValidationError unless they are
    equal-length sequences of integers (not bools)."""
    try:
        array = np.array(keys)
    except ValueError:  # ragged
        array = None
    if array is None or array.ndim != 2 or (array.size and not (
            array.dtype.kind in "iu" and np.can_cast(array.dtype, np.intp))):
        raise ValidationError(
            "outcome keys must be equal-length sequences of integers")
    return array.astype(np.intp, copy=False)


def sequential_chain(psi1, bases, times, sched: HamiltonianSchedule,
                     t_prep: float) -> OutcomeDistribution:
    """Joint outcome distribution of projective measurements in sequence.

    The state is prepared as ``psi1`` at ``t_prep``, evolved to each
    measurement time and projected onto every element of that time's
    complete orthonormal basis.  Outcome sequences are indexed per time, in
    lexicographic order (the order of ``enumerate_family``'s index); their
    probabilities are products of conditional Born probabilities and sum
    to one by completeness.  Every basis is checked, by one
    ``linalg._basis_stacks`` call at the schedule's dimension, before any
    is required to be complete.
    """
    psi1 = linalg.as_state(psi1, require_schedule(sched).dim)
    times = require_increasing(times, "measurement times")
    t_prep = require_time(t_prep, "preparation time")
    bases = linalg.require_sequence(bases, "bases", "orthonormal sets")
    if len(bases) != len(times):
        raise ValidationError("need exactly one basis per measurement time")
    if times:
        require_not_before(times[0], t_prep, "first measurement time")
    checked = linalg._basis_stacks(
        bases, [f"basis at time {t}" for t in times], sched.dim)
    for t, stack in zip(times, checked):
        if len(stack) != sched.dim:
            raise ValidationError(f"basis at time {t} must be complete")
    probs = _unchecked_chain([psi1.reshape(1, -1), *checked],
                             (t_prep, *times), sched)
    # keys in the lexicographic order of the rows, as enumerate_family's
    # index is built; distinct by construction
    keys = np.indices(tuple(map(len, checked)), dtype=np.intp)
    return OutcomeDistribution._from_distinct(
        keys.reshape(len(checked), len(probs)).T, probs)


def _unchecked_chain(stacks, times, sched: HamiltonianSchedule) -> np.ndarray:
    """``sequential_chain``'s branch loop, on input it would accept or on a
    recipe's slot stacks: (n, d) arrays of orthonormal rows, one per time,
    the first stack's rows the initial branches.  Returns the probability
    column, in the lexicographic order of the rows, divided by its total
    (``linalg.normalize``; zero is a ZeroNormalizationError) unless one
    state starts the chain and every later stack is complete."""
    # the branches are the rows of one (B, d) array, each an unnormalized
    # collapsed state whose squared norm is the joint probability of its
    # outcomes.  Per time: one stacked evolution (u @ branch of every row),
    # one stacked projection (vdot(b, evolved) of every branch and stack
    # state b, times b), and a row-major reshape that splits each branch
    # in stack order, so the rows run in the lexicographic order of their
    # keys.  The stacked forms are the per-branch products bit for bit.
    branches, t_now = stacks[0], times[0]
    for t, stack in zip(times[1:], stacks[1:]):
        u = propagate(sched, t_now, t)
        evolved = u @ branches[..., None]
        amplitudes = linalg.inners(stack, evolved[:, None, :, 0])
        branches = (stack * amplitudes[..., None]).reshape(-1, sched.dim)
        t_now = t
    probs = linalg.inners(branches, branches).real
    if len(stacks[0]) > 1 or any(len(s) < sched.dim for s in stacks[1:]):
        _, probs = linalg.normalize(probs,
                                    "post-selection has zero probability")
    return probs


def condition_on_final(dist: OutcomeDistribution,
                       final_index: int) -> OutcomeDistribution:
    """Bayes-condition on the last outcome and drop it from the sequences.

    A selection on the last key column: the kept keys stay distinct, and
    the kept probabilities are renormalized by ``linalg.normalize``.
    ``final_index`` is any integer, not a bool: an absent one has zero
    probability.
    """
    keys = linalg.require_instance(dist, OutcomeDistribution,
                                   "distribution").keys
    final_index = linalg.require_integer(final_index, "final outcome index")
    if not keys.shape[1]:
        raise ValidationError(
            "conditioning on the final outcome needs non-empty sequences")
    kept = keys[:, -1] == final_index
    _, probs = linalg.normalize(
        dist.probabilities[kept],
        f"conditioning outcome {final_index} has zero probability")
    return OutcomeDistribution._from_distinct(keys[kept, :-1], probs)


@dataclass(frozen=True)
class FrequencyRow:
    """Observed counts for one outcome, against its binomial band."""

    key: tuple[int, ...]
    probability: float
    count: int
    frequency: float
    band: float
    within_band: bool


@dataclass(frozen=True, eq=False)
class FrequencyTable(linalg.Frozen):
    """Deterministic sampling result, as columns in the distribution's order.

    Entry k of ``probabilities`` (as given), ``counts``, ``frequency``
    (count over ``n``), ``band`` (five binomial standard errors of the
    probability clipped to [0, 1]) and ``within`` (the frequency inside its
    band) belongs to outcome ``keys[k]``, row k of the distribution's
    (n, L) key array; the columns are read-only views of the arrays
    given, which stay writable.
    ``max_sigma`` is the largest deviation of a frequency from its clipped
    probability in units of one binomial standard error: 0 where a
    zero-width band is hit, inf where one is missed.  ``rows`` (one
    ``FrequencyRow`` of Python scalars per outcome) is a view whose row k
    is built when read.
    Tables are equal when their ``n``, ``seed``, keys, probabilities and
    counts are; every other column follows from those.
    """

    n: int
    seed: int
    keys: np.ndarray
    probabilities: np.ndarray
    counts: np.ndarray
    frequency: np.ndarray
    band: np.ndarray
    within: np.ndarray
    max_sigma: float
    all_within_band: bool

    def __post_init__(self):
        self._hold_views("keys", "probabilities", "counts", "frequency",
                         "band", "within")

    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return ((self.n, self.seed) == (other.n, other.seed)
                and np.array_equal(self.keys, other.keys)
                and np.array_equal(self.probabilities, other.probabilities)
                and np.array_equal(self.counts, other.counts))

    def __hash__(self):
        return hash((self.n, self.seed, self.keys.shape, self.keys.tobytes()))

    @cached_property
    def rows(self) -> Sequence[FrequencyRow]:
        """One ``FrequencyRow`` per outcome, in the distribution's order,
        each built when read."""
        return _Rows(len(self.keys), functools.partial(_frequency_rows, (
            self.keys, self.probabilities, self.counts, self.frequency,
            self.band, self.within)))


def _frequency_rows(columns, lo: int, hi: int):
    """Rows ``lo`` to ``hi - 1`` of a table's ``columns``, keys first, as
    ``FrequencyRow`` objects of Python scalars."""
    keys, *rest = (column[lo:hi].tolist() for column in columns)
    return itertools.starmap(FrequencyRow, zip(map(tuple, keys), *rest))


def require_sample_count(n) -> int:
    """Return ``n`` as an int: a count ``linalg.require_count`` accepts,
    at least 1 and at most 2**63 - 1, the largest count numpy draws;
    otherwise raise ValidationError."""
    return linalg.require_count(n, "sample count", 1, np.iinfo(np.int64).max)


def monte_carlo_sample(dist: OutcomeDistribution, n: int,
                       seed: int) -> FrequencyTable:
    """Draw ``n`` outcome sequences and tabulate their frequencies.

    The counts of n independent draws follow the multinomial(n, p) law, so
    they come from one ``multinomial`` draw of the Philox generator of
    ``rng_from_seed(seed)``, a chain of conditional binomials in O(H) time
    and memory whatever ``n`` is; tables are bit-identical across reruns,
    and the table shares the distribution's key array.  ``n`` passes
    ``require_sample_count``: at most 2**63 - 1, the largest count numpy
    draws.  Each frequency is compared against the five-sigma binomial
    band around its probability, clipped to [0, 1] as the draws read it;
    rows outside the band are flagged, not fatal.
    """
    linalg.require_instance(dist, OutcomeDistribution, "distribution")
    n = require_sample_count(n)
    probs = dist.probabilities
    weights = np.maximum(probs, 0.0)
    # numpy gives the chain's last row whatever the binomials before it
    # leave, rounding error included, so the chain ends at the last row of
    # positive probability and every row after it counts 0
    end = np.flatnonzero(weights)[-1] + 1
    counts = np.zeros(len(weights), dtype=np.int64)
    counts[:end] = rng_from_seed(seed).multinomial(
        n, weights[:end] / weights.sum())
    # one column per row quantity, each the per-row formula elementwise
    freq = counts / n
    clipped = np.minimum(weights, 1.0)
    sigma = np.sqrt(clipped * (1.0 - clipped) / n)
    band = 5.0 * sigma
    deviation = np.abs(freq - clipped)
    within = deviation <= band
    sigmas = np.divide(deviation, sigma, where=sigma > 0,
                       out=np.where(deviation > 0, math.inf, 0.0))
    return FrequencyTable(n=n, seed=seed, keys=dist.keys, probabilities=probs,
                          counts=counts, frequency=freq, band=band,
                          within=within, max_sigma=float(sigmas.max()),
                          all_within_band=bool(within.all()))
