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
slot fixed points that family members join, read through the family index
and multiplied as real and imaginary arrays.  A single history is weighed
as a one-member family.

The measure of existence of a history is its weight divided by the summed
weight of every history consistent with the same fixed-point constraints;
for a two-point history with the earlier state known, this reduces to the
Born probability.  ``transfer_chain`` computes that sum, and each grid
slot's marginal measures, from the family recipe alone, without the
per-member product.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .contour import TimeGrid, contour_path
from .dynamics import HamiltonianSchedule, evolve_state, propagate
from .errors import ValidationError, ZeroNormalizationError
from .histories import FamilySpec, FixedPoint, HistoryFamily, QuantumHistory


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


def _products(fam: HistoryFamily, steps) -> tuple[np.ndarray, np.ndarray]:
    """Per member, the product of its step amplitudes in step order.

    ``steps`` lists ``(k, l, amplitude)``: a step joins grid slot k to slot
    l, and its table holds ``amplitude(a, b)`` once for every pair of slot
    fixed points that some member joins (keyed ``a * n_right + b`` and
    found by ``np.unique``; no amplitude is computed for a pair that no
    member joins).  Each member's entries are read through the index and
    multiplied as separate real and imaginary arrays with the textbook
    formula, which rounds exactly as Python complex arithmetic does, so the
    product matches the plain per-history loop bit for bit.  Returns the
    real and imaginary parts.
    """
    re = im = None
    for k, l, amplitude in steps:
        left, right = fam.slots[k], fam.slots[l]
        n = len(right)
        pairs, at = np.unique(fam.index[:, k] * n + fam.index[:, l],
                              return_inverse=True)
        table = np.array([amplitude(left[i // n], right[i % n])
                          for i in pairs.tolist()], dtype=complex)
        step_re, step_im = table.real[at], table.imag[at]
        if re is None:
            re, im = step_re, step_im
        else:
            re, im = (re * step_re - im * step_im,
                      re * step_im + im * step_re)
    return re, im


def _weights(fam: HistoryFamily, sched: HamiltonianSchedule) -> list[float]:
    """Closed-form weights, in order: one step per segment of the grid.

    ``np.hypot`` is ``abs`` of a Python complex, and the square is taken
    by Python's ``pow`` (libm), whose rounding ``x * x`` does not share.
    """
    steps = []
    for k, (t_a, t_b) in enumerate(zip(fam.times, fam.times[1:])):
        u = propagate(sched, t_a, t_b)
        steps.append((k, k + 1, lambda a, b, u=u: _amplitude(a, b, u)))
    return list(map(pow, np.hypot(*_products(fam, steps)).tolist(),
                    itertools.repeat(2.0)))


def _contour_weights(fam: HistoryFamily, sched: HamiltonianSchedule,
                     steps_per_segment: int) -> np.ndarray:
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
    return np.hypot(*_products(fam, steps))


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
    return float(_contour_weights(HistoryFamily((h,)), sched,
                                  steps_per_segment)[0])


def transfer_chain(spec: FamilySpec, sched: HamiltonianSchedule
                   ) -> tuple[float, list[np.ndarray]]:
    """Normalization and per-slot marginal measures of an enumerated family.

    The recipe's slot k, ``spec.slots[k]``, holds the pinned state or
    the basis at its time, as the rows of S_k.  The transfer matrix
    T_k = |S_{k+1}^* U_k S_k^T|^2
    (elementwise) holds the squared amplitude of every step from slot k to
    slot k+1, so summing the product weights over all members is the
    matrix chain 1^T T_{N-1} ... T_0 1.  The forward-backward recursion
    alpha_{k+1} = T_k alpha_k, beta_k = T_k^T beta_{k+1} gives each slot
    state's share of that sum, alpha_k beta_k / Z (Rabiner 1989).  The cost
    is O(N_t d^3), independent of the family size; no member is weighed.
    Returns Z and the marginals, one array per slot in basis order.
    """
    states = [np.array([fp.state for fp in slot]) for slot in spec.slots]
    transfers = [np.abs(b.conj() @ propagate(sched, t_a, t_b) @ a.T) ** 2
                 for a, b, t_a, t_b in zip(states, states[1:], spec.times,
                                           spec.times[1:])]
    alphas = [np.ones(len(states[0]))]
    for t in transfers:
        alphas.append(t @ alphas[-1])
    betas = [np.ones(len(states[-1]))]
    for t in reversed(transfers):
        betas.append(t.T @ betas[-1])
    normalization = _normalization(alphas[-1].tolist())
    return normalization, [a * b / normalization
                           for a, b in zip(alphas, reversed(betas))]


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
        labels = fam.gather([[p.label for p in slot] for slot in fam.slots])
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

    Both routes are one table product (``_products``) read through the
    family index; when ``steps_per_segment`` is given, the contour-walk
    route is run alongside the closed form.  Every column equals the plain
    per-history loop bit for bit, and no per-member object is built: the
    report's ``entries`` builds them on request.
    """
    weights = _weights(fam, sched)
    normalization = _normalization(weights)
    weights = np.array(weights)
    contour = (None if steps_per_segment is None
               else _contour_weights(fam, sched, steps_per_segment))
    return MeasureReport(weights=weights, measures=weights / normalization,
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
