"""Independent brute-force verifiers.

Two cross-checks for the history-weight machinery: a sequential
projective-measurement simulation (evolve, project, renormalize) and
reproducible Monte Carlo frequency sampling.  The collapse simulation
tracks pure-state branches with unnormalized amplitudes, whose squared
norms are exactly the joint outcome probabilities, avoiding any division
by zero along dead branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import HamiltonianSchedule, propagate
from .errors import ValidationError, ZeroNormalizationError
from .sampling import rng_from_seed


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over outcome index sequences; sums to one."""

    outcomes: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        outs = tuple((tuple(seq), float(p)) for seq, p in self.outcomes)
        if not outs:
            raise ValidationError("distribution must have at least one outcome")
        if any(p < -linalg.ROUNDING_TOL for _, p in outs):
            raise ValidationError("probabilities must be non-negative")
        total = sum(p for _, p in outs)
        if abs(total - 1.0) > linalg.DEFAULT_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "outcomes", outs)

    @property
    def total(self) -> float:
        return float(sum(p for _, p in self.outcomes))


def sequential_chain(psi1, bases, times, sched: HamiltonianSchedule,
                     t_prep: float | None = None) -> OutcomeDistribution:
    """Joint outcome distribution of projective measurements in sequence.

    The state is prepared as ``psi1`` at ``t_prep`` (the schedule start when
    omitted), evolved to each measurement time and projected onto every
    element of that time's complete orthonormal basis.  Outcome sequences
    are indexed per time; their probabilities are products of conditional
    Born probabilities and sum to one by completeness.
    """
    psi1 = linalg.as_state(psi1, sched.dim)
    times = [float(t) for t in times]
    if len(bases) != len(times):
        raise ValidationError("need exactly one basis per measurement time")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError("measurement times must strictly increase")
    start = sched.t_min if t_prep is None else float(t_prep)
    if times and times[0] < start:
        raise ValidationError("measurements must not precede the preparation")
    checked = []
    for t, basis in zip(times, bases):
        vecs = [linalg.as_state(v, sched.dim) for v in basis]
        if len(vecs) != sched.dim:
            raise ValidationError(f"basis at time {t} must be complete")
        linalg.require_orthonormal(vecs, f"basis at time {t}")
        checked.append(vecs)

    # each branch carries (outcome indices, unnormalized collapsed state);
    # the squared norm of the state is the branch's joint probability
    branches: list[tuple[tuple[int, ...], np.ndarray]] = [((), psi1)]
    t_now = start
    for t, basis in zip(times, checked):
        u = propagate(sched, t_now, t)
        grown = []
        for seq, vec in branches:
            evolved = u @ vec
            for k, b in enumerate(basis):
                grown.append((seq + (k,), b * np.vdot(b, evolved)))
        branches = grown
        t_now = t
    outcomes = tuple((seq, float(np.vdot(vec, vec).real))
                     for seq, vec in branches)
    return OutcomeDistribution(outcomes)


def condition_on_final(dist: OutcomeDistribution,
                       final_index: int) -> OutcomeDistribution:
    """Bayes-condition on the last outcome and drop it from the sequences."""
    kept = [(seq[:-1], p) for seq, p in dist.outcomes
            if seq[-1] == final_index]
    total = sum(p for _, p in kept)
    if total == 0.0:
        raise ZeroNormalizationError(
            f"conditioning outcome {final_index} has zero probability")
    return OutcomeDistribution(tuple((seq, p / total) for seq, p in kept))


def _binomial_sigma(p: float, n: int) -> tuple[float, float]:
    """``p`` clipped to [0, 1], as the draws read it, and one binomial
    standard error of a frequency over ``n`` draws there."""
    p = min(max(p, 0.0), 1.0)
    return p, math.sqrt(p * (1.0 - p) / n)


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
    """Deterministic sampling result; rows follow the distribution's order."""

    n: int
    seed: int
    rows: tuple[FrequencyRow, ...]

    @property
    def all_within_band(self) -> bool:
        return all(r.within_band for r in self.rows)

    @property
    def max_sigma(self) -> float:
        """Largest deviation in units of one binomial standard error."""
        worst = 0.0
        for r in self.rows:
            p, sigma = _binomial_sigma(r.probability, self.n)
            if sigma > 0:
                worst = max(worst, abs(r.frequency - p) / sigma)
            elif r.frequency != p:
                worst = math.inf
        return worst


def monte_carlo_sample(dist: OutcomeDistribution, n: int,
                       seed: int) -> FrequencyTable:
    """Draw ``n`` outcome sequences and tabulate their frequencies.

    Sampling uses the Philox generator of ``rng_from_seed(seed)``, so
    tables are bit-identical across reruns.  Each frequency is compared
    against the five-sigma binomial band around its probability, clipped
    to [0, 1] as the draws read it; rows outside the band are flagged, not
    fatal.
    """
    if n < 1:
        raise ValidationError("sample count must be positive")
    probs = np.array([p for _, p in dist.outcomes])
    probs = np.clip(probs, 0.0, None)
    rng = rng_from_seed(seed)
    draws = rng.choice(len(probs), size=n, p=probs / probs.sum())
    counts = np.bincount(draws, minlength=len(probs))
    rows = []
    for (key, p), count in zip(dist.outcomes, counts.tolist()):
        freq = count / n
        clipped, sigma = _binomial_sigma(p, n)
        band = 5.0 * sigma
        rows.append(FrequencyRow(key=key, probability=p, count=count,
                                 frequency=freq, band=band,
                                 within_band=abs(freq - clipped) <= band))
    return FrequencyTable(n=n, seed=seed, rows=tuple(rows))
