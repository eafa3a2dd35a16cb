"""Relative weights of quantum histories.

The weight of a history is computed by two independent routes:

* a closed-form product of segment transition amplitudes, squared;
* a line integral walked along the doubled time contour, with sub-stepped
  propagation per segment and a sink inner product at the end of every
  step.  The forward and backward sweeps contribute mutually conjugate
  factors, so the constrained walk directly produces the squared magnitude
  of the per-branch amplitude product.  The two routes agree to rounding
  for any sub-step count because the dynamics is piecewise constant.

Both routes are one table product: per step, the amplitudes between the
slot fixed points that family members join, read through the family
index.  A single history is weighed as a one-member family.

The measure of existence of a history is its weight divided by the summed
weight of every history consistent with the same fixed-point constraints;
for a two-point history with the earlier state known, this reduces to the
Born probability.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .contour import TimeGrid, contour_path
from .dynamics import HamiltonianSchedule, evolve_state, propagate
from .errors import ValidationError, ZeroNormalizationError
from .histories import FixedPoint, HistoryFamily, QuantumHistory


def segment_amplitude(fp_a: FixedPoint, fp_b: FixedPoint,
                      sched: HamiltonianSchedule) -> complex:
    """Transition amplitude <a| U(t_a, t_b) |b> between consecutive fixed points.

    The canonical direction takes the propagator from the later time back
    to the earlier one; this equals the conjugate of the forward matrix
    element, and only magnitudes enter the weights.
    """
    if not fp_b.time > fp_a.time:
        raise ValidationError(
            f"segment endpoints out of order: {fp_a.time} !< {fp_b.time}")
    return _amplitude(fp_a, fp_b, propagate(sched, fp_a.time, fp_b.time))


def _amplitude(fp_a: FixedPoint, fp_b: FixedPoint, u: np.ndarray) -> complex:
    """``segment_amplitude`` given the forward propagator u = U(t_b, t_a)."""
    return complex(np.vdot(fp_b.state, u @ fp_a.state).conjugate())


def _products(fam: HistoryFamily, steps) -> list[complex]:
    """Per member, the product of its step amplitudes in step order.

    ``steps`` lists ``(k, l, amplitude)``: a step joins grid slot k to slot
    l, and its table holds ``amplitude(a, b)`` once for every pair of slot
    fixed points that some member joins.  Each member's entries are read
    through the index and multiplied in Python complex arithmetic, so the
    product matches the plain per-history loop bit for bit.
    """
    columns = list(zip(*fam.index))
    products = None
    for k, l, amplitude in steps:
        left, right, a, b = fam.slots[k], fam.slots[l], columns[k], columns[l]
        table = {(i, j): amplitude(left[i], right[j])
                 for i, j in set(zip(a, b))}
        amplitudes = map(table.__getitem__, zip(a, b))
        products = (list(amplitudes) if products is None
                    else list(map(operator.mul, products, amplitudes)))
    return products


def _weights(fam: HistoryFamily, sched: HamiltonianSchedule) -> list[float]:
    """Closed-form weights, in order: one step per segment of the grid."""
    steps = []
    for k, (t_a, t_b) in enumerate(zip(fam.times, fam.times[1:])):
        u = propagate(sched, t_a, t_b)
        steps.append((k, k + 1, lambda a, b, u=u: _amplitude(a, b, u)))
    return [abs(p) ** 2 for p in _products(fam, steps)]


def _contour_weights(fam: HistoryFamily, sched: HamiltonianSchedule,
                     steps_per_segment: int) -> list[float]:
    """Contour-walk weights, in order: one step per ``contour_path`` step."""
    if steps_per_segment < 1:
        raise ValidationError("steps_per_segment must be at least 1")
    slot = {t: k for k, t in enumerate(fam.times)}
    steps = []
    for step in contour_path(TimeGrid(fam.times)):
        ticks = np.linspace(step.start.t, step.end.t, steps_per_segment + 1)
        subs = [propagate(sched, u, v) for u, v in zip(ticks, ticks[1:])]

        def amplitude(a, b, subs=subs):
            carried = a.state
            for u in subs:
                carried = u @ carried
            return complex(np.vdot(b.state, carried))
        steps.append((slot[step.start.t], slot[step.end.t], amplitude))
    return [abs(p) for p in _products(fam, steps)]


def _normalization(weights) -> float:
    """Summed weight of a family; raises when every weight is zero."""
    total = float(sum(weights))
    if total == 0.0:
        raise ZeroNormalizationError(
            "all histories consistent with the constraints have zero weight")
    return total


def delta_psi(h: QuantumHistory, sched: HamiltonianSchedule) -> float:
    """Squared magnitude of the product of segment amplitudes."""
    return _weights(HistoryFamily((h,)), sched)[0]


def delta_psi_line_integral(h: QuantumHistory, sched: HamiltonianSchedule,
                            steps_per_segment: int = 8) -> float:
    """History weight accumulated by walking the doubled time contour.

    Each contour step propagates the source fixed point to the step's end
    through ``steps_per_segment`` exact sub-propagators, then applies the
    sink constraint as an inner product with the fixed point waiting there.
    The walk covers the forward branch chronologically and the backward
    branch anti-chronologically; because every amplitude appears once per
    branch, once conjugated, the accumulated product is real and equals the
    closed-form weight.
    """
    return _contour_weights(HistoryFamily((h,)), sched, steps_per_segment)[0]


def measure_of_existence(h: QuantumHistory, fam: HistoryFamily,
                         sched: HamiltonianSchedule) -> float:
    """Fraction of the constrained wavefunction occupied by ``h``.

    The denominator sums the weights of every family member, i.e. every
    history consistent with the family's fixed-point constraints.  A zero
    denominator leaves the ratio undefined and raises rather than
    returning a silent zero.
    """
    if h not in fam:
        raise ValidationError("history is not a member of the family")
    return delta_psi(h, sched) / _normalization(_weights(fam, sched))


def born_probability(psi1, t1: float, phi, t2: float,
                     sched: HamiltonianSchedule) -> float:
    """Single-measurement probability |<phi| U(t2, t1) |psi1>|^2."""
    if not t2 > t1:
        raise ValidationError("final time must exceed the preparation time")
    phi = linalg.as_state(phi, sched.dim)
    return float(abs(linalg.inner(phi, evolve_state(psi1, sched, t1, t2))) ** 2)


@dataclass(frozen=True, slots=True)
class HistoryMeasure:
    """Weight and relative measure of one history in a family."""

    labels: tuple[str, ...]
    delta_psi: float
    measure: float
    choices: tuple[int, ...] | None = None
    delta_psi_contour: float | None = None


@dataclass(frozen=True)
class MeasureReport:
    """Per-history weights, their normalization, and the constrained times."""

    entries: tuple[HistoryMeasure, ...]
    normalization: float
    constraint_times: tuple[float, ...]

    @property
    def measures(self) -> np.ndarray:
        return np.array([e.measure for e in self.entries])

    @property
    def route_max_discrepancy(self) -> float | None:
        """Largest gap between the two weight routes, if both were run."""
        gaps = [abs(e.delta_psi - e.delta_psi_contour) for e in self.entries
                if e.delta_psi_contour is not None]
        return max(gaps) if gaps else None

    def by_choices(self) -> dict[tuple[int, ...], float]:
        """Measures keyed by the basis indices chosen at free slots."""
        if any(e.choices is None for e in self.entries):
            raise ValidationError("report entries carry no choice indices")
        lookup = {e.choices: e.measure for e in self.entries}
        if len(lookup) != len(self.entries):
            raise ValidationError("report entries repeat a choice key")
        return lookup


def measure_report(fam: HistoryFamily, sched: HamiltonianSchedule, *,
                   steps_per_segment: int | None = None) -> MeasureReport:
    """Measures of existence for every member of a family.

    When ``steps_per_segment`` is given, the contour-walk route is run
    alongside the closed form and recorded per entry; both routes are one
    table product (``_products``) read through the family index.
    """
    weights = _weights(fam, sched)
    normalization = _normalization(weights)
    alts = itertools.repeat(None)
    if steps_per_segment is not None:
        alts = _contour_weights(fam, sched, steps_per_segment)
    labels = fam.gather([[p.label for p in slot] for slot in fam.slots])
    choices = (itertools.repeat(None) if fam.choices is None
               else fam.choices)
    entries = tuple(
        HistoryMeasure(labels=label, delta_psi=w, measure=w / normalization,
                       choices=choice, delta_psi_contour=alt)
        for label, w, choice, alt in zip(labels, weights, choices, alts))
    return MeasureReport(entries=entries, normalization=normalization,
                         constraint_times=fam.constraint_times)


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


@dataclass(frozen=True)
class ToyBundle:
    """Branch sets at two outer times joined through one pivot fixed point.

    The past and future branch sets must each be orthonormal; they need not
    be complete bases.
    """

    past: tuple[FixedPoint, ...]
    pivot: FixedPoint
    future: tuple[FixedPoint, ...]

    def __post_init__(self):
        past, future = tuple(self.past), tuple(self.future)
        if not past or not future:
            raise ValidationError("bundle needs past and future branches")
        t_past = {p.time for p in past}
        t_future = {p.time for p in future}
        if len(t_past) != 1 or len(t_future) != 1:
            raise ValidationError("branch sets must each live at one time")
        if not (next(iter(t_past)) < self.pivot.time < next(iter(t_future))):
            raise ValidationError("bundle times must be past < pivot < future")
        dims = {p.dim for p in past + future} | {self.pivot.dim}
        if len(dims) != 1:
            raise ValidationError("bundle states must share one dimension")
        for name, group in (("past", past), ("future", future)):
            linalg.require_orthonormal([p.state for p in group],
                                       f"{name} branch set")
        object.__setattr__(self, "past", past)
        object.__setattr__(self, "future", future)


@dataclass(frozen=True)
class DecompositionResult:
    """Total bundle weight and the terms of one decomposition of it."""

    mode: DecompositionMode
    total: float
    terms: tuple[float, ...]


def decompose_total_measure(bundle: ToyBundle, sched: HamiltonianSchedule,
                            mode: DecompositionMode) -> DecompositionResult:
    """Total weight of the bundle, decomposed according to ``mode``.

    Segment weights that run in parallel add; consecutive segment weights
    multiply.  All four modes therefore produce the same total, organized
    into different term lists.
    """
    pivot = bundle.pivot
    u_past = propagate(sched, bundle.past[0].time, pivot.time)
    u_future = propagate(sched, pivot.time, bundle.future[0].time)
    w_past = [abs(_amplitude(p, pivot, u_past)) ** 2 for p in bundle.past]
    w_future = [abs(_amplitude(pivot, f, u_future)) ** 2
                for f in bundle.future]
    sum_past, sum_future = sum(w_past), sum(w_future)
    if mode is DecompositionMode.MORW:
        terms = (sum_past * sum_future,)
    elif mode is DecompositionMode.MMWF:
        terms = tuple(w * sum_future for w in w_past)
    elif mode is DecompositionMode.MMWP:
        terms = tuple(sum_past * w for w in w_future)
    elif mode is DecompositionMode.MDRW:
        terms = tuple(wp * wf for wp in w_past for wf in w_future)
    else:  # pragma: no cover - enum is closed
        raise ValidationError(f"unknown decomposition mode {mode!r}")
    return DecompositionResult(mode=mode, total=float(sum(terms)), terms=terms)
