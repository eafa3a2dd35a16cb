"""Piecewise-constant Hamiltonian schedules and unitary propagation.

The generator is branch-independent: propagation backward in physical time
is the adjoint of forward propagation over the same interval, which is
exact for unitary dynamics.  A schedule holds its generators, in time
order, as one read-only (S, d, d) stack, checked by one finite-and-Hermitian
defect; the first exponential diagonalizes the whole stack with one
``eigh`` (each slice the 2-d call's bit for bit) and caches it as
(w, V, V^H), so a propagator costs only small matrix products: one
exponential per segment the interval crosses, and one
product joining each exponential after the first, which starts the
product (no identity factor).  Each forward product is formed once per
schedule: ``propagate`` holds it, read-only and keyed by the checked
interval, while the schedule's held entries fit ``MEMO_ENTRIES``, so the
closed form, the chains, ``born_probability`` and the bundle
decompositions share one U(t_a, t_b).  Steps cut into equal sub-steps get
all their propagators from one ``substep_propagators`` call: a contour walk
hands it its steps together, in batches its caller sizes.  Each step's
ends are checked as ``propagate`` checks them, the sub-steps' segment
pieces of all the steps are found by array comparisons, and each
segment's exponentials are formed as one stack for the whole batch,
every propagator ``propagate``'s over the same sub-interval bit for bit.
"""

from __future__ import annotations

import reprlib
import threading

import numpy as np

from . import linalg
from .contour import require_increasing, require_time, same_time, same_times
from .errors import ValidationError

#: complex entries a schedule's propagator memo holds at most (1 MiB); once
#: full it stores no more products, and a product larger is never held
MEMO_ENTRIES = 2 ** 16
#: makes each memo's budget check and store one step for threads that share
#: a schedule (a lock on the schedule itself would stop it from pickling)
_MEMO_LOCK = threading.Lock()


class HamiltonianSchedule:
    """Piecewise-constant Hermitian generator over a contiguous time span.

    ``segments`` is a ``linalg.require_sequence`` of ``(t_start, t_end, H)``
    triples, contiguous, non-overlapping and of one dimension; they may be
    listed in any order.  The schedule's ``segments`` are in time order,
    each H a read-only slice of one stack of the generators, read once
    (a copy: the caller's arrays are not held).  Every triple's times are
    checked, in the order listed, before any generator; the generators
    are then checked as one stack by ``linalg._hermitian_stack``, which
    words a refusal as ``linalg.require_hermitian`` does.  Instances are
    immutable after construction apart from two internal caches, the
    stacked eigendecomposition and the forward propagators ``propagate``
    has formed (read-only, at most ``MEMO_ENTRIES`` entries), so they are
    safe to share.
    """

    def __init__(self, segments):
        kind = "(t_start, t_end, H) triples"
        segments = linalg.require_sequence(segments, "schedule segments", kind)
        if not segments:
            raise ValidationError("schedule needs at least one segment")
        try:
            triples = [(t0, t1, h) for t0, t1, h in segments]
        except (TypeError, ValueError):  # an entry that is not a triple
            raise ValidationError(
                f"schedule segments must be a sequence of {kind}, "
                f"got {reprlib.repr(segments)}") from None
        spans = [require_increasing((t0, t1), "segment times")
                 for t0, t1, _ in triples]
        stack = linalg._hermitian_stack([h for _, _, h in triples])
        order = sorted(range(len(spans)), key=lambda i: spans[i][0])
        if order != list(range(len(spans))):
            stack = stack[order]
        spans = [spans[i] for i in order]
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if not same_time(end, start):
                raise ValidationError(
                    f"segments are not contiguous at t = {end} vs {start}")
        self._stack = linalg.freeze(stack)
        self._segments = tuple((t0, t1, h)
                               for (t0, t1), h in zip(spans, stack))
        self._dim = stack.shape[1]
        self._eigs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None
        self._eigs = None
        self._memo: dict[tuple[float, float], np.ndarray] = {}

    def __reduce__(self):
        # built again from its segments: a pickle keeps neither the stack's
        # read-only flag nor the segments' views of it (the caches refill)
        return type(self), (self._segments,)

    @classmethod
    def constant(cls, h, t_start: float, t_end: float) -> "HamiltonianSchedule":
        """Schedule with a single constant generator on [t_start, t_end]."""
        return cls([(t_start, t_end, h)])

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def segments(self):
        return self._segments

    @property
    def t_min(self) -> float:
        return self._segments[0][0]

    @property
    def t_max(self) -> float:
        return self._segments[-1][1]

    def covers(self, t: float) -> bool:
        """True iff ``t`` lies in the span or matches one of its ends."""
        return (self.t_min <= t <= self.t_max or same_time(t, self.t_min)
                or same_time(t, self.t_max))

    def _segment_exp(self, index: int, dt) -> np.ndarray:
        """exp(-i * H_index * dt), from the cached eigendecomposition.

        ``dt`` is a duration, or a (k, 1, 1) array of k durations for the
        stack of their exponentials, each the one-duration value bit for
        bit: the same formula, broadcast.
        """
        eigs = self._eigs
        if eigs is None:  # every segment at once, each slice the 2-d call's
            w, v = np.linalg.eigh(self._stack)
            v_dag = v.conj().swapaxes(1, 2)
            eigs = self._eigs = list(zip(*linalg.freeze((w, v, v_dag))))
        w, v, v_dag = eigs[index]
        return (v * np.exp(-1j * dt * w)) @ v_dag

    def _forward(self, t_lo: float, t_hi: float) -> np.ndarray | None:
        """Form the chronological product U(t_lo, t_hi), latest segment
        leftmost, of two checked times, and hold it read-only in the memo
        while the held entries stay within ``MEMO_ENTRIES``; None when no
        segment piece is longer than TIME_EPS."""
        if same_time(t_lo, t_hi):
            return None
        u = None
        for index, (s0, s1, _) in enumerate(self._segments):
            lo, hi = max(t_lo, s0), min(t_hi, s1)
            if hi > lo and not same_time(hi, lo):
                factor = self._segment_exp(index, hi - lo)
                u = factor if u is None else factor @ u
        if u is not None:
            with _MEMO_LOCK:
                if (len(self._memo) + 1) * u.size <= MEMO_ENTRIES:
                    self._memo[t_lo, t_hi] = linalg.freeze(u)
        return u


def require_schedule(sched) -> HamiltonianSchedule:
    """Return ``sched``; raise ValidationError unless it is a
    ``HamiltonianSchedule``.  Every entry point that takes a schedule asks
    this before it reads one."""
    return linalg.require_instance(sched, HamiltonianSchedule, "schedule")


def _span_times(sched: HamiltonianSchedule, t_a, t_b):
    """Two propagation times as floats: each a real, finite number
    (``require_time``), then each in the schedule's span."""
    require_schedule(sched)
    t_a = require_time(t_a, "propagation time")
    t_b = require_time(t_b, "propagation time")
    for t in (t_a, t_b):
        if not sched.covers(t):
            raise ValidationError(f"time {t} outside schedule span "
                                  f"[{sched.t_min}, {sched.t_max}]")
    return t_a, t_b


def propagate(sched: HamiltonianSchedule, t_a: float, t_b: float) -> np.ndarray:
    """Unitary propagator from t_a to t_b.

    For t_b >= t_a this is the chronologically ordered product of the
    per-segment exponentials, latest segment leftmost.  For t_b < t_a it is
    the adjoint of the forward propagator, realizing anti-chronological
    ordering on the backward branch.  The times are checked on every call;
    the forward product is the schedule's memo entry for the interval,
    formed by ``_forward`` on a miss, and the caller gets its own array: a
    C-ordered copy forward, the ``.conj().T`` view of a fresh conjugate
    backward, and a fresh identity over an interval with no piece longer
    than TIME_EPS.
    """
    t_a, t_b = _span_times(sched, t_a, t_b)
    t_lo, t_hi = sorted((t_a, t_b))
    u = sched._memo.get((t_lo, t_hi))
    if u is None:
        u = sched._forward(t_lo, t_hi)
        if u is None:  # no segment piece longer than TIME_EPS
            return np.eye(sched.dim, dtype=complex)
    return u.conj().T if t_b < t_a else u.copy()


def substep_propagators(sched: HamiltonianSchedule, steps,
                        sub: int) -> list[list[np.ndarray]]:
    """Per step (t_a, t_b) of ``steps``, the propagators of its ``sub``
    equal sub-steps, in order.

    A step's ticks are ``np.linspace(t_a, t_b, sub + 1)`` bit for bit
    (t_a + i * ((t_b - t_a) / sub), then t_b), and its entry i is
    ``propagate(sched, ticks[i], ticks[i + 1])`` bit for bit.  The steps
    are taken at once: each step's ends are checked as ``propagate``
    checks them, in order, the ticks of all steps form one (S, sub + 1)
    array, every sub-step's segment pieces are found with ``propagate``'s
    comparisons made on arrays (``same_times``), each segment's
    exponentials for all the steps are one ``_segment_exp`` stack, joined
    in segment order, and a backward propagator is the same ``.conj().T``
    view (a C-ordered copy would round its products differently).  One
    sub-step is ``propagate`` itself, step by step.  The caller bounds the
    memory by the number of steps it passes.  ``steps`` that are not
    (t_a, t_b) pairs, and a ``sub`` that is not a count from 1 to
    ``linalg.MAX_ENUMERATION`` (checked before any tick is formed), are a
    ValidationError.
    """
    sub = linalg.require_count(sub, "sub-step count", 1,
                               linalg.MAX_ENUMERATION)
    require_schedule(sched)
    steps = linalg.require_sequence(steps, "steps", "(t_a, t_b) pairs")
    try:
        steps = [(t_a, t_b) for t_a, t_b in steps]
    except (TypeError, ValueError):  # an entry that is not a pair
        raise ValidationError("steps must be a sequence of (t_a, t_b) "
                              f"pairs, got {reprlib.repr(steps)}") from None
    if sub == 1:
        return [[propagate(sched, t_a, t_b)] for t_a, t_b in steps]
    ends = np.array([_span_times(sched, t_a, t_b)
                     for t_a, t_b in steps]).reshape(-1, 2)
    t_a, t_b = ends[:, :1], ends[:, 1:]
    ticks = np.hstack([t_a + np.arange(sub) * ((t_b - t_a) / sub), t_b])
    starts, stops = ticks[:, :-1].ravel(), ticks[:, 1:].ravel()
    t_lo, t_hi = np.minimum(starts, stops), np.maximum(starts, stops)
    moving = ~same_times(t_lo, t_hi)
    us = [None] * len(starts)
    for index, (s0, s1, _) in enumerate(sched.segments):
        lo, hi = np.maximum(t_lo, s0), np.minimum(t_hi, s1)
        hit = np.flatnonzero(moving & (hi > lo) & ~same_times(hi, lo))
        if not hit.size:  # no sub-step has a piece here
            continue
        factors = sched._segment_exp(index, (hi - lo)[hit, None, None])
        for j, factor in zip(hit.tolist(), factors):
            us[j] = factor if us[j] is None else factor @ us[j]
    out = [np.eye(sched.dim, dtype=complex) if u is None
           else u.conj().T if back else u
           for u, back in zip(us, (stops < starts).tolist())]
    return [out[i:i + sub] for i in range(0, len(out), sub)]


def evolve_state(psi, sched: HamiltonianSchedule, t_a: float,
                 t_b: float) -> np.ndarray:
    """Propagate a normalized state from t_a to t_b."""
    psi = linalg.as_state(psi, require_schedule(sched).dim)
    return propagate(sched, t_a, t_b) @ psi


def heisenberg_projector(alpha, sched: HamiltonianSchedule, t_k: float,
                         t_0: float) -> np.ndarray:
    """Projector onto ``alpha`` at time t_k, in the Heisenberg picture
    referred to t_0:  U^dag(t_k, t_0) |alpha><alpha| U(t_k, t_0).
    """
    alpha = linalg.as_state(alpha, require_schedule(sched).dim)
    u = propagate(sched, t_0, t_k)
    rotated = u.conj().T @ alpha
    return np.outer(rotated, rotated.conj())
