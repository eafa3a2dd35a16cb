"""Relative weights of quantum histories.

The weight of a history is computed by two independent routes:

* a closed-form product of segment transition amplitudes, squared;
* a line integral walked along the doubled time contour, with sub-stepped
  propagation per segment and a sink inner product at the end of every
  step.  The forward and backward sweeps contribute mutually conjugate
  factors, so the constrained walk directly produces the squared magnitude
  of the per-branch amplitude product.  The two routes agree to rounding
  for any sub-step count because the dynamics is piecewise constant.

Both routes take their steps from ``histories._steps``, the one place a
fixed point is carried across the grid (``decoherence_report`` and a
bundle's branch weights take theirs there too, once for all four
decomposition modes in ``qcontour decompose``): per step, the source
slot's states are carried to the step's end once, as one stack, with one
stacked product per sub-step.  The routes then differ only in their slot
pairs and sub-step count: the closed form takes the grid's segments, the
walk the pairs of ``contour.contour_path``, the one description of the
doubled contour.  The step product ``histories._products``,
which ``decoherence_report`` shares, takes the inner products with the
sink slot's states, the conjugates of the segment amplitudes (no
magnitude changes): for an enumerated family one matrix product per step,
broadcast over the family's slot shape, for a hand-built one a stacked
inner product of each member's own two rows, gathered per member through
its index.
The closed form squares each product as ``re * re + im * im``.  A single
history is weighed as a one-member family.

The measure of existence of a history is its weight divided by the summed
weight of every history consistent with the same fixed-point constraints;
for a two-point history with the earlier state known, this reduces to the
Born probability.  ``transfer_chain`` computes that sum, and each grid
slot's marginal measures, from the family recipe alone, without the
per-member product.  Both take the sum from ``linalg.normalize``, the one
renormalization rule, and every route carries a slot from its own time,
the recipe's ``slot_times``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .contour import contour_path, require_increasing, same_time
from .dynamics import (HamiltonianSchedule, evolve_state, propagate,
                       require_schedule)
from .errors import ValidationError
from .histories import (FamilySpec, FixedPoint, HistoryFamily, QuantumHistory,
                        _members, _products, _steps)


def segment_amplitude(fp_a: FixedPoint, fp_b: FixedPoint,
                      sched: HamiltonianSchedule) -> complex:
    """Transition amplitude <a| U(t_a, t_b) |b> between consecutive fixed points.

    The canonical direction takes the propagator from the later time back
    to the earlier one; this equals the conjugate of the forward matrix
    element, and only magnitudes enter the weights.
    """
    for fp in (fp_a, fp_b):
        linalg.require_instance(fp, FixedPoint, "segment endpoint")
    require_increasing((fp_a.time, fp_b.time), "segment endpoint times")
    linalg.require_dim("schedule", require_schedule(sched).dim, fp_a.dim,
                       fp_b.dim)
    u = propagate(sched, fp_a.time, fp_b.time)
    return complex(np.vdot(fp_b.state, u @ fp_a.state).conjugate())


def _weights(fam: HistoryFamily, sched: HamiltonianSchedule) -> np.ndarray:
    """Closed-form weights, in order: one step per segment of the grid,
    each member's product squared as ``re * re + im * im``."""
    re, im = _products(fam, _steps(fam, sched))
    return re * re + im * im


def _contour_weights(fam: HistoryFamily, sched: HamiltonianSchedule,
                     steps_per_segment: int) -> np.ndarray:
    """Contour-walk weights, in order: the steps of ``contour_path``, the
    grid's segments forward, then the same segments backward from the
    last time, each carried through ``steps_per_segment`` sub-steps."""
    steps_per_segment = linalg.require_count(
        steps_per_segment, "steps_per_segment", 1, linalg.MAX_ENUMERATION)
    pairs = contour_path(len(fam.slots))
    return np.hypot(*_products(fam, _steps(fam, sched, pairs,
                                           steps_per_segment)))


#: the refusal of a family or recipe whose every weight is zero
_ZERO_WEIGHT = "all histories consistent with the constraints have zero weight"


def delta_psi(h: QuantumHistory, sched: HamiltonianSchedule) -> float:
    """Squared magnitude of the product of segment amplitudes."""
    return float(_weights(HistoryFamily((h,)), sched)[0])


def delta_psi_line_integral(h: QuantumHistory, sched: HamiltonianSchedule,
                            steps_per_segment: int = 8) -> float:
    """History weight accumulated by walking the doubled time contour.

    Each contour step propagates the source fixed point to the step's end
    through ``steps_per_segment`` exact sub-propagators, then applies the
    sink constraint as an inner product with the fixed point waiting there.
    The walk covers the forward branch chronologically and the backward
    branch anti-chronologically; because every amplitude appears once per
    branch, once conjugated, the accumulated product is real and equals the
    closed-form weight.  ``steps_per_segment`` is a count from 1 to
    ``linalg.MAX_ENUMERATION``, checked before any propagator is formed.
    """
    return float(_contour_weights(HistoryFamily((h,)), sched,
                                  steps_per_segment)[0])


def transfer_chain(spec: FamilySpec, sched: HamiltonianSchedule
                   ) -> tuple[float, list[np.ndarray]]:
    """Normalization and per-slot marginal measures of an enumerated family.

    The recipe's slot k holds the pinned state or the basis at its time,
    the rows of S_k = ``spec.slot_states[k]``, and U_k propagates from
    slot k's time to slot k+1's (``spec.slot_times``).  The transfer matrix
    T_k = |S_{k+1}^* U_k S_k^T|^2
    (elementwise) holds the squared amplitude of every step from slot k to
    slot k+1, so summing the product weights over all members is the
    matrix chain 1^T T_{N-1} ... T_0 1.  The forward-backward recursion
    alpha_{k+1} = T_k alpha_k, beta_k = T_k^T beta_{k+1} gives each slot
    state's share of that sum, alpha_k beta_k / Z (Rabiner 1989).  The cost
    is O(N_t d^3), independent of the family size; no member is weighed.
    Returns Z and the marginals, one array per slot in basis order.
    """
    linalg.require_instance(spec, FamilySpec, "recipe")
    linalg.require_dim("schedule", require_schedule(sched).dim, spec.dim)
    states, times = spec.slot_states, spec.slot_times
    transfers = [np.abs(b.conj() @ propagate(sched, t_a, t_b) @ a.T) ** 2
                 for a, b, t_a, t_b in zip(states, states[1:], times,
                                           times[1:])]
    alphas = [np.ones(len(states[0]))]
    for t in transfers:
        alphas.append(t @ alphas[-1])
    betas = [np.ones(len(states[-1]))]
    for t in reversed(transfers):
        betas.append(t.T @ betas[-1])
    normalization, _ = linalg.normalize(alphas[-1], _ZERO_WEIGHT)
    return normalization, [a * b / normalization
                           for a, b in zip(alphas, reversed(betas))]


def born_probability(psi1, t1: float, phi, t2: float,
                     sched: HamiltonianSchedule) -> float:
    """Single-measurement probability |<phi| U(t2, t1) |psi1>|^2."""
    require_increasing((t1, t2), "preparation and final times")
    phi = linalg.as_state(phi, require_schedule(sched).dim)
    return float(abs(linalg.inner(phi, evolve_state(psi1, sched, t1, t2))) ** 2)


@dataclass(frozen=True, slots=True)
class HistoryMeasure:
    """Weight and relative measure of one history in a family."""

    labels: tuple[str, ...]
    delta_psi: float
    measure: float
    choices: tuple[int, ...] | None = None
    delta_psi_contour: float | None = None


@dataclass(frozen=True, eq=False)
class MeasureReport:
    """Weights and measures of a family's members, as columns.

    Row h of ``weights`` (closed form), ``measures`` (weight over
    ``normalization``) and ``contour_weights`` (the contour walk, or None
    when it was not run) belongs to member h of ``family``, whose index and
    choices give the member's labels and free-slot choices.  The columns
    are read-only float arrays.  ``rows()``, ``entries`` (one
    ``HistoryMeasure`` per member, cached on first read) and
    ``by_choices()`` are views derived from the columns.
    """

    weights: np.ndarray
    measures: np.ndarray
    contour_weights: np.ndarray | None
    normalization: float
    constraint_times: tuple[float, ...]
    family: HistoryFamily = field(repr=False)

    def __post_init__(self):
        for column in (self.weights, self.measures, self.contour_weights):
            if column is not None:
                column.setflags(write=False)

    @property
    def route_max_discrepancy(self) -> float | None:
        """Largest gap between the two weight routes, if both were run."""
        if self.contour_weights is None:
            return None
        return float(np.max(np.abs(self.weights - self.contour_weights)))

    def rows(self):
        """Per member, in family order: labels, weight, measure, free-slot
        choices (or None) and contour weight (or None), as Python values in
        the field order of ``HistoryMeasure``."""
        fam = self.family
        choices = (itertools.repeat(None) if fam.choices is None
                   else map(tuple, fam.choices.tolist()))
        alts = (itertools.repeat(None) if self.contour_weights is None
                else self.contour_weights.tolist())
        labels = zip(*(map([p.label for p in slot].__getitem__, column)
                       for slot, column in zip(fam.slots,
                                               fam.index.T.tolist())))
        return zip(labels, self.weights.tolist(), self.measures.tolist(),
                   choices, alts)

    @cached_property
    def entries(self) -> tuple[HistoryMeasure, ...]:
        """One ``HistoryMeasure`` per member, in family order."""
        return tuple(itertools.starmap(HistoryMeasure, self.rows()))

    def by_choices(self) -> dict[tuple[int, ...], float]:
        """Measures keyed by the basis indices chosen at free slots, in
        family order; a new dict on every call."""
        choices = self.family.choices
        if choices is None:
            raise ValidationError("report entries carry no choice indices")
        return dict(zip(map(tuple, choices.tolist()), self.measures.tolist()))


def measure_report(fam: HistoryFamily, sched: HamiltonianSchedule, *,
                   steps_per_segment: int | None = None) -> MeasureReport:
    """Measures of existence for every member of a family, as columns.

    Both routes are one table product (``_products``); when
    ``steps_per_segment`` is given, the contour-walk route, which checks
    that count first, is run before the closed form, so a bad count weighs
    nothing.  No per-member object is built, and an enumerated family's
    index is not read: the report's ``entries`` builds them on request.
    """
    linalg.require_instance(fam, HistoryFamily, "family")
    contour = (None if steps_per_segment is None
               else _contour_weights(fam, sched, steps_per_segment))
    weights = _weights(fam, sched)
    normalization, measures = linalg.normalize(weights, _ZERO_WEIGHT)
    return MeasureReport(weights=weights, measures=measures,
                         contour_weights=contour, normalization=normalization,
                         constraint_times=fam.constraint_times, family=fam)


class DecompositionMode(enum.Enum):
    """The four equivalent readings of a branching-and-merging bundle.

    MORW glues all past branches to all future branches in one overlapping
    bundle; MMWF diverges the past only; MMWP diverges the future only;
    MDRW splits the bundle into one world-tube per past-future pair.
    """

    MORW = "MORW"
    MMWF = "MMWF"
    MMWP = "MMWP"
    MDRW = "MDRW"


#: per mode, whether the past and whether the future branches stay apart
_SPLITS = {DecompositionMode.MORW: (False, False),
           DecompositionMode.MMWF: (True, False),
           DecompositionMode.MMWP: (False, True),
           DecompositionMode.MDRW: (True, True)}


class ToyBundle(FamilySpec):
    """Branch sets at two outer times joined through one pivot fixed point:
    the three-slot recipe that ``decompose_total_measure`` reads.

    Each branch set lives at one time; ``FamilySpec`` checks the rest (past
    < pivot < future, one dimension, orthonormal sets, which need not be
    complete bases) and builds the slots, whose branch fixed points are
    labeled by position.  ``==`` is identity.
    """

    def __init__(self, past, pivot: FixedPoint, future):
        past = _members(past, FixedPoint, "past branches", "fixed points")
        future = _members(future, FixedPoint, "future branches",
                          "fixed points")
        linalg.require_instance(pivot, FixedPoint, "bundle pivot")
        if not past or not future:
            raise ValidationError("bundle needs past and future branches")
        if not all(same_time(p.time, group[0].time)
                   for group in (past, future) for p in group):
            raise ValidationError("branch sets must each live at one time")
        super().__init__(
            times=(past[0].time, pivot.time, future[0].time),
            bases=(tuple(p.state for p in past), (pivot.state,),
                   tuple(f.state for f in future)),
            constraints=(pivot,))


@dataclass(frozen=True)
class DecompositionResult:
    """Total bundle weight and the terms of one decomposition of it."""

    mode: DecompositionMode
    total: float
    terms: tuple[float, ...]


def decompose_total_measure(bundle: FamilySpec, sched: HamiltonianSchedule,
                            mode: DecompositionMode) -> DecompositionResult:
    """Total weight of a bundle, decomposed according to ``mode``.

    The bundle is any recipe (a ``ToyBundle`` or a model) with exactly
    three grid times and one constraint, the pivot, at the middle one; its
    outer slots are the past and future branches.  Segment weights that
    run in parallel add; consecutive segment weights multiply.  All four
    modes therefore produce the same total, organized into different term
    lists.  An unknown ``mode`` is refused before any propagator is built.
    """
    linalg.require_instance(bundle, FamilySpec, "recipe")
    if not isinstance(mode, DecompositionMode):
        raise ValidationError(f"unknown decomposition mode {mode!r}")
    return _decompose(mode, *_branch_weights(bundle, sched))


def _branch_weights(bundle: FamilySpec, sched: HamiltonianSchedule
                    ) -> tuple[list[float], list[float]]:
    """The past and the future branch weights of a bundle recipe, from one
    ``_steps`` weighing, which every mode's decomposition shares."""
    if len(bundle.times) != 3:
        raise ValidationError(
            "bundle decomposition needs exactly three grid times")
    if list(bundle.pinned) != [1]:
        raise ValidationError(
            "bundle decomposition needs exactly one constraint, "
            "at the middle time")
    (_, _, to_pivot), (_, _, (carried,)) = _steps(bundle, sched)
    _, (pivot,), future = bundle.slots
    w_past = [abs(complex(np.vdot(pivot.state, c))) ** 2 for c in to_pivot]
    w_future = [abs(complex(np.vdot(f.state, carried))) ** 2 for f in future]
    return w_past, w_future


def _decompose(mode: DecompositionMode, w_past: list[float],
               w_future: list[float]) -> DecompositionResult:
    """The ``mode`` decomposition of a bundle's branch weights."""
    split_past, split_future = _SPLITS[mode]
    terms = tuple(p * f for p in (w_past if split_past else [sum(w_past)])
                  for f in (w_future if split_future else [sum(w_future)]))
    return DecompositionResult(mode=mode, total=float(sum(terms)), terms=terms)
