"""Independent brute-force verifiers.

Two cross-checks for the history-weight machinery: a sequential
projective-measurement simulation (evolve, project, renormalize) and
reproducible Monte Carlo frequency sampling.  The collapse simulation
tracks pure-state branches with unnormalized amplitudes, whose squared
norms are exactly the joint outcome probabilities, avoiding any division
by zero along dead branches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .contour import require_increasing, require_not_before, require_time
from .dynamics import HamiltonianSchedule, propagate
from .errors import ValidationError, ZeroNormalizationError
from .sampling import rng_from_seed

#: draws per chunk of a Monte Carlo sample (512 KB of float64 uniforms)
_DRAW_CHUNK = 2 ** 16


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over outcome index sequences; sums to one."""

    outcomes: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        outs = tuple((tuple(seq), _probability(p)) for seq, p in self.outcomes)
        if not outs:
            raise ValidationError("distribution must have at least one outcome")
        if len({seq for seq, _ in outs}) != len(outs):
            raise ValidationError("outcome sequences must be distinct")
        if not all(math.isfinite(p) and p >= -linalg.ROUNDING_TOL
                   for _, p in outs):
            raise ValidationError("probabilities must be finite, non-negative")
        total = sum(p for _, p in outs)
        if abs(total - 1.0) > linalg.DEFAULT_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "outcomes", outs)


def _probability(p) -> float:
    """``p`` as a float; ValidationError unless it is a real number and not
    a bool (text, None and complex numbers are not)."""
    if not linalg.is_real(p):
        raise ValidationError(f"probabilities must be real numbers, got {p!r}")
    return float(p)


def sequential_chain(psi1, bases, times, sched: HamiltonianSchedule,
                     t_prep: float) -> OutcomeDistribution:
    """Joint outcome distribution of projective measurements in sequence.

    The state is prepared as ``psi1`` at ``t_prep``, evolved to each
    measurement time and projected onto every element of that time's
    complete orthonormal basis.  Outcome sequences are indexed per time, in
    lexicographic order (the order of ``enumerate_family``'s index); their
    probabilities are products of conditional Born probabilities and sum
    to one by completeness.
    """
    psi1 = linalg.as_state(psi1, sched.dim)
    times = require_increasing(times, "measurement times")
    t_prep = require_time(t_prep, "preparation time")
    if not hasattr(bases, "__len__") or len(bases) != len(times):
        raise ValidationError("need exactly one basis per measurement time")
    if times:
        require_not_before(times[0], t_prep, "first measurement time")
    checked = []
    for t, basis in zip(times, bases):
        if not hasattr(basis, "__iter__"):
            raise ValidationError(f"basis at time {t} must be a sequence "
                                  "of states")
        stack = linalg.as_states(basis, sched.dim)
        if len(stack) != sched.dim:
            raise ValidationError(f"basis at time {t} must be complete")
        linalg.require_orthonormal(stack, f"basis at time {t}")
        checked.append(stack)
    return _unchecked_chain(psi1, checked, times, sched, t_prep)


def _unchecked_chain(psi1, bases, times, sched: HamiltonianSchedule,
                     t_now: float) -> OutcomeDistribution:
    """``sequential_chain``'s branch loop, on input it would accept; each
    basis is a (d, d) array whose rows are its states."""
    # the branches are the rows of one (B, d) array, each an unnormalized
    # collapsed state whose squared norm is the joint probability of its
    # outcomes.  Per time: one stacked evolution (u @ branch of every row),
    # one stacked projection (vdot(b, evolved) of every branch and basis
    # state b, times b), and a row-major reshape that splits each branch
    # in basis order, so the rows run in the lexicographic order of their
    # keys.  The stacked forms are the per-branch products bit for bit.
    branches = psi1.reshape(1, -1)
    for t, basis in zip(times, bases):
        u = propagate(sched, t_now, t)
        evolved = u @ branches[..., None]
        amplitudes = linalg.inners(basis, evolved[:, None, :, 0])
        branches = (basis * amplitudes[..., None]).reshape(-1, sched.dim)
        t_now = t
    keys = itertools.product(range(sched.dim), repeat=len(times))
    return OutcomeDistribution(tuple(
        zip(keys, linalg.inners(branches, branches).real.tolist())))


def condition_on_final(dist: OutcomeDistribution,
                       final_index: int) -> OutcomeDistribution:
    """Bayes-condition on the last outcome and drop it from the sequences."""
    if not all(seq for seq, _ in dist.outcomes):
        raise ValidationError(
            "conditioning on the final outcome needs non-empty sequences")
    kept = [(seq[:-1], p) for seq, p in dist.outcomes
            if seq[-1] == final_index]
    total = sum(p for _, p in kept)
    if total == 0.0:
        raise ZeroNormalizationError(
            f"conditioning outcome {final_index} has zero probability")
    return OutcomeDistribution(tuple((seq, p / total) for seq, p in kept))


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
class FrequencyTable:
    """Deterministic sampling result, as columns in the distribution's order.

    Entry k of ``probabilities`` (as given), ``counts``, ``frequency``
    (count over ``n``), ``band`` (five binomial standard errors of the
    probability clipped to [0, 1]) and ``within`` (the frequency inside its
    band) belongs to outcome ``keys[k]``; the columns are read-only arrays.
    ``max_sigma`` is the largest deviation of a frequency from its clipped
    probability in units of one binomial standard error: 0 where a
    zero-width band is hit, inf where one is missed.  ``rows`` (one
    ``FrequencyRow`` of Python scalars per outcome) is built on first read.
    Tables are equal when their ``n``, ``seed``, keys, probabilities and
    counts are; every other column follows from those.
    """

    n: int
    seed: int
    keys: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray
    counts: np.ndarray
    frequency: np.ndarray
    band: np.ndarray
    within: np.ndarray
    max_sigma: float
    all_within_band: bool

    def __post_init__(self):
        for column in (self.probabilities, self.counts, self.frequency,
                       self.band, self.within):
            column.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return ((self.n, self.seed, self.keys)
                == (other.n, other.seed, other.keys)
                and np.array_equal(self.probabilities, other.probabilities)
                and np.array_equal(self.counts, other.counts))

    def __hash__(self):
        return hash((self.n, self.seed, self.keys))

    @cached_property
    def rows(self) -> tuple[FrequencyRow, ...]:
        """One ``FrequencyRow`` per outcome, in the distribution's order."""
        return tuple(itertools.starmap(FrequencyRow, zip(
            self.keys, self.probabilities.tolist(), self.counts.tolist(),
            self.frequency.tolist(), self.band.tolist(),
            self.within.tolist())))


def _counts(p: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Per-outcome counts of ``n`` draws from ``p``: bit for bit
    ``np.bincount(rng_from_seed(seed).choice(len(p), size=n, p=p),
    minlength=len(p))``.

    ``choice`` draws uniforms u and puts u in outcome k iff
    ``cdf[k-1] <= u < cdf[k]``, where ``cdf`` is ``np.cumsum(p)`` divided
    by its last entry; so count k is #{u < cdf[k]} - #{u < cdf[k-1]}, read
    off the sorted uniforms by one ``searchsorted`` of the cdf.  The
    uniforms come in chunks of ``_DRAW_CHUNK`` that continue one Philox
    stream, as one draw of n does, so memory stays flat in n.  ``choice``
    would refuse a ``p`` that is not finite, non-negative and summing to
    1; the caller's ``OutcomeDistribution`` and clip guarantee all three.
    """
    rng = rng_from_seed(seed)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    below = np.zeros(len(p), dtype=np.intp)
    for start in range(0, n, _DRAW_CHUNK):
        u = rng.random(min(_DRAW_CHUNK, n - start))
        u.sort()
        below += u.searchsorted(cdf, side="left")
    return np.diff(below, prepend=0)


def monte_carlo_sample(dist: OutcomeDistribution, n: int,
                       seed: int) -> FrequencyTable:
    """Draw ``n`` outcome sequences and tabulate their frequencies.

    Sampling uses the Philox generator of ``rng_from_seed(seed)``, so
    tables are bit-identical across reruns, and the counts are those of
    that generator's ``choice``.  Each frequency is compared against the
    five-sigma binomial band around its probability, clipped to [0, 1] as
    the draws read it; rows outside the band are flagged, not fatal.
    """
    n = linalg.require_count(n, "sample count", 1)
    keys, probs = zip(*dist.outcomes)
    probs = np.array(probs)
    weights = np.maximum(probs, 0.0)
    counts = _counts(weights / weights.sum(), n, seed)
    # one column per row quantity, each the per-row formula elementwise
    freq = counts / n
    clipped = np.minimum(weights, 1.0)
    sigma = np.sqrt(clipped * (1.0 - clipped) / n)
    band = 5.0 * sigma
    deviation = np.abs(freq - clipped)
    within = deviation <= band
    sigmas = np.divide(deviation, sigma, where=sigma > 0,
                       out=np.where(deviation > 0, math.inf, 0.0))
    return FrequencyTable(n=n, seed=seed, keys=keys, probabilities=probs,
                          counts=counts, frequency=freq, band=band,
                          within=within, max_sigma=float(sigmas.max()),
                          all_within_band=bool(within.all()))
