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

import numpy as np

from . import linalg
from .contour import require_increasing, require_not_before
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
        outs = tuple((tuple(seq), float(p)) for seq, p in self.outcomes)
        if not outs:
            raise ValidationError("distribution must have at least one outcome")
        if not all(math.isfinite(p) and p >= -linalg.ROUNDING_TOL
                   for _, p in outs):
            raise ValidationError("probabilities must be finite, non-negative")
        total = sum(p for _, p in outs)
        if abs(total - 1.0) > linalg.DEFAULT_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "outcomes", outs)


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
    if len(bases) != len(times):
        raise ValidationError("need exactly one basis per measurement time")
    t_now = float(t_prep)
    if times:
        require_not_before(times[0], t_now, "first measurement time")
    checked = []
    for t, basis in zip(times, bases):
        vecs = [linalg.as_state(v, sched.dim) for v in basis]
        if len(vecs) != sched.dim:
            raise ValidationError(f"basis at time {t} must be complete")
        linalg.require_orthonormal(vecs, f"basis at time {t}")
        checked.append(vecs)

    # each branch is an unnormalized collapsed state, whose squared norm is
    # the joint probability of its outcomes; the branches of one time split
    # in basis order, so they run in the lexicographic order of their keys
    branches = [psi1]
    for t, basis in zip(times, checked):
        u = propagate(sched, t_now, t)
        grown = []
        for vec in branches:
            evolved = u @ vec
            grown += [b * np.vdot(b, evolved) for b in basis]
        branches = grown
        t_now = t
    keys = itertools.product(range(sched.dim), repeat=len(times))
    return OutcomeDistribution(tuple(
        zip(keys, [float(np.vdot(vec, vec).real) for vec in branches])))


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


@dataclass(frozen=True)
class FrequencyTable:
    """Deterministic sampling result; rows follow the distribution's order.

    ``max_sigma`` is the largest deviation of a frequency from its clipped
    probability in units of one binomial standard error: 0 where a
    zero-width band is hit, inf where one is missed.
    """

    n: int
    seed: int
    rows: tuple[FrequencyRow, ...]
    max_sigma: float

    @property
    def all_within_band(self) -> bool:
        return all(r.within_band for r in self.rows)


def monte_carlo_sample(dist: OutcomeDistribution, n: int,
                       seed: int) -> FrequencyTable:
    """Draw ``n`` outcome sequences and tabulate their frequencies.

    Sampling uses the Philox generator of ``rng_from_seed(seed)``, so
    tables are bit-identical across reruns.  Each frequency is compared
    against the five-sigma binomial band around its probability, clipped
    to [0, 1] as the draws read it; rows outside the band are flagged, not
    fatal.
    """
    n = linalg.require_count(n, "sample count", 1)
    keys, probs = zip(*dist.outcomes)
    weights = np.maximum(probs, 0.0)
    rng, p = rng_from_seed(seed), weights / weights.sum()
    # draws in chunks, so memory stays flat in n: the chunks continue one
    # Philox stream, so the counts are those of a single draw of n
    counts = np.zeros(len(probs), dtype=np.intp)
    for start in range(0, n, _DRAW_CHUNK):
        counts += np.bincount(
            rng.choice(len(probs), size=min(_DRAW_CHUNK, n - start), p=p),
            minlength=len(probs))
    # one column per row quantity, each the per-row formula elementwise
    freq = counts / n
    clipped = np.minimum(weights, 1.0)
    sigma = np.sqrt(clipped * (1.0 - clipped) / n)
    band = 5.0 * sigma
    deviation = np.abs(freq - clipped)
    within = deviation <= band
    sigmas = np.divide(deviation, sigma, where=sigma > 0,
                       out=np.where(deviation > 0, math.inf, 0.0))
    rows = tuple(itertools.starmap(FrequencyRow, zip(
        keys, probs, counts.tolist(), freq.tolist(), band.tolist(),
        within.tolist())))
    return FrequencyTable(n=n, seed=seed, rows=rows,
                          max_sigma=float(sigmas.max()))
