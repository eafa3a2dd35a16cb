"""Fixed points, quantum histories and projector-chain machinery.

A fixed point pins a normalized state at one time; because its forward and
backward parts are equal by definition, the state is stored once.  A
quantum history is an ordered sequence of at least two fixed points joined
by unitary propagation.  Families collect histories over one time grid and
are the arena for relative weights.

Fixed points and histories compare and hash by identity (``histories_equal``
compares values).  A family is stored as its distinct fixed points per grid
slot plus a read-only integer array saying which one each member passes
through, so the family paths compute what each slot fixed point determines
once and read it through the index; member histories are built only on
request.  An enumerated family is its slot shape: its members are the
product of its slots, in C order, so the step products broadcast one table
per step along the shape's axes, its histories are a view of that product
(``_Rows``, which also serves a report's entries, a distribution's
outcomes and a table's rows: its length builds no row, and row i is built
when read), and its index is built only when read.  A hand-built family's
step amplitudes are gathered per member: one inner product of its own two
slot rows.

Overlap convention: when two histories are compared, the backward-branch
factor of each fixed point enters conjugated relative to the forward one,
so a single fixed-point pair contributes |<l|k>|^2.  This makes families
built from orthonormal bases exactly Kronecker-orthogonal and keeps
validation basis-independent.

The two family checks form no pair they need not.  ``validate_family``
first tries an exact certificate: distinct index rows differ at some
slot, so products of the per-slot Gram tables' largest entries bound
every overlap, and an orthogonal family is valid without a pair formed;
a family the certificate cannot clear is walked pair by pair, in row
blocks, by ``validate_family`` itself.
``decoherence_report`` groups the later members by last-slot state, so
its maximum over pairs costs O(H m) for m last-slot states (m <= d for an
enumerated family).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .contour import (grid_index, require_increasing, require_not_before,
                      require_time, same_time)
from .dynamics import (HamiltonianSchedule, heisenberg_projector,
                       require_schedule, substep_propagators)
from .errors import EnumerationGuardError, ValidationError

#: entries per row block of a pairwise family check (64 KB of float64),
#: per block of a hand-built family's step rows, gathered per member, and
#: per batch of a walk's sub-step propagators (``_steps``)
_PAIR_BLOCK_ENTRIES = 2 ** 13


class _Rows(Sequence):
    """A read-only sequence whose rows are built when read.

    ``rows(lo, hi)`` returns an iterator over rows ``lo`` to ``hi - 1``; it
    is a module-level function bound with ``functools.partial``, so the
    view pickles and holds no reference to the object it is cached on
    (which the cyclic garbage collector would then free late).  ``len``
    builds no row, ``v[i]`` builds row i alone, iteration builds each row
    when it is reached, and a slice, or ``v + tuple``, is a tuple.  A view
    equals a tuple, or another view, with equal rows in the same order.
    """

    __slots__ = ("_n", "_rows")

    def __init__(self, n: int, rows):
        self._n = n
        self._rows = rows

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(self._n)[i]))
        i = range(self._n)[i]  # IndexError past either end
        return next(self._rows(i, i + 1))

    def __iter__(self):
        return self._rows(0, self._n)

    def __add__(self, other):
        return tuple(self) + other

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Rows)):
            return NotImplemented
        return other is self or (len(self) == len(other)
                                 and tuple(self) == tuple(other))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True, eq=False)
class FixedPoint(linalg.Frozen):
    """A labeled state pinned at one time on both branches; == is identity."""

    time: float
    state: np.ndarray
    label: str = "fp"

    def __post_init__(self):
        state = linalg.freeze(linalg.as_state(self.state))
        object.__setattr__(self, "time",
                           require_time(self.time, "fixed-point time"))
        object.__setattr__(self, "state", state)

    @classmethod
    def _checked(cls, time: float, state: np.ndarray,
                 label: str) -> FixedPoint:
        """Unchecked: the caller guarantees what ``__post_init__`` makes, a
        float time and a read-only state ``as_state`` accepts, as
        ``FamilySpec`` does for the rows of its checked bases."""
        fp = cls.__new__(cls)
        object.__setattr__(fp, "time", time)
        object.__setattr__(fp, "state", state)
        object.__setattr__(fp, "label", label)
        return fp

    @property
    def dim(self) -> int:
        return self.state.size


@dataclass(frozen=True, eq=False)
class QuantumHistory:
    """Sequence of N_t >= 2 fixed points at increasing, distinct times."""

    points: tuple[FixedPoint, ...]

    def __init__(self, points):
        pts = _members(points, FixedPoint, "a history", "fixed points")
        if len(pts) < 2:
            raise ValidationError("a history needs at least two fixed points")
        require_increasing((p.time for p in pts), "fixed-point times")
        linalg.require_dim("fixed point", *[p.dim for p in pts])
        object.__setattr__(self, "points", pts)

    @classmethod
    def _from_points(cls, points) -> QuantumHistory:
        """Unchecked: the caller guarantees what ``__init__`` checks, as
        ``_product_members`` does for the members of checked slots."""
        h = cls.__new__(cls)
        object.__setattr__(h, "points", tuple(points))
        return h

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(p.time for p in self.points)

    @property
    def n_times(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.points)


def _members(items, kind, whole: str, what: str) -> tuple:
    """``linalg.require_sequence`` of ``items``, each a ``kind`` instance."""
    members = linalg.require_sequence(items, whole, what)
    for member in members:
        if not isinstance(member, kind):
            raise ValidationError(f"{whole} must be a sequence of {what}, "
                                  f"got an entry of {type(member).__name__}")
    return members


def _same_times(a: QuantumHistory, b: QuantumHistory) -> bool:
    return a.n_times == b.n_times and all(
        same_time(x, y) for x, y in zip(a.times, b.times))


def histories_equal(a: QuantumHistory, b: QuantumHistory,
                    tol: float = linalg.DEFAULT_TOL) -> bool:
    """Tolerance-based equality of times and states; ``==`` is identity."""
    for h in (a, b):
        linalg.require_instance(h, QuantumHistory, "history")
    tol = linalg.require_tolerance(tol)
    if not _same_times(a, b) or a.dim != b.dim:
        return False
    return all(np.max(np.abs(p.state - q.state)) <= tol
               for p, q in zip(a.points, b.points))


def _constraint_slots(times, constraint_times) -> dict:
    """Each constraint time's grid index, in order, mapped to the time;
    ValidationError unless ``constraint_times`` is a ``require_sequence``
    of real, finite grid times, no grid time constrained twice."""
    slots = {}
    for t in linalg.require_sequence(constraint_times, "constraint times",
                                     "times"):
        index = grid_index(times, require_time(t, "constraint time"))
        if index is None:
            raise ValidationError(f"constraint time {t} is not a grid time")
        if index in slots:
            raise ValidationError(
                f"duplicate constraint at time {times[index]}")
        slots[index] = t
    return slots


@dataclass(frozen=True, init=False, eq=False)
class HistoryFamily(linalg.Frozen):
    """Histories over one shared time grid, with the constrained times marked.

    A family is stored as its per-slot fixed points and an index:
    ``slots[k]`` holds the distinct fixed points at grid time k, and
    ``index`` is a read-only (H, N_t) integer array whose entry ``[h, k]``
    says which of them member h passes through.  An enumerated family's
    members are built as ``QuantumHistory`` objects only when read:
    ``histories`` is a view whose member h is built when it is reached.
    ``slot_states[k]`` is slot k's states as one read-only (n_k, d) stack,
    row i the state of ``slots[k][i]``.  ``==`` is identity, as for fixed
    points.

    ``constraint_times`` lists the S_t times at which the fixed point is
    known, in time order; the remaining times are free slots.  An
    enumerated family (``enumerate_family``) has ``shape``, the slot sizes:
    its members are ``itertools.product(*slots)``, in C order, which
    ``histories`` builds from the shape without the index; its ``index`` is
    ``np.indices(shape)`` flattened, built on first read.  It also has
    ``choices``, per history the basis index chosen at each free slot, in
    time order: the index's free columns, a read-only (H, N_t - S_t)
    integer array, also built on first read.  A hand-built family has
    neither shape nor choices (both None) and keeps the histories and the
    index it was built with.
    """

    slots: tuple[tuple[FixedPoint, ...], ...]
    slot_states: tuple[np.ndarray, ...]
    constraint_times: tuple[float, ...]
    shape: tuple[int, ...] | None
    _free: tuple[int, ...] | None = field(repr=False)

    def __init__(self, histories, constraint_times=()):
        histories = _members(histories, QuantumHistory, "a family",
                             "histories")
        if not histories:
            raise ValidationError("family must contain at least one history")
        first = histories[0]
        for h in histories[1:]:
            if not _same_times(first, h):
                raise ValidationError(
                    "all histories in a family must share one time grid")
        linalg.require_dim("history", *[h.dim for h in histories])
        times = first.times
        constraint_times = _constraint_slots(times, constraint_times).values()
        # each slot's distinct fixed points, by identity, in order of first use
        positions = [{} for _ in times]
        index = np.array([[pos.setdefault(p, len(pos))
                           for pos, p in zip(positions, h.points)]
                          for h in histories], dtype=np.intp)
        slots = tuple(map(tuple, positions))
        states = tuple(np.array([p.state for p in slot]) for slot in slots)
        self._assign(slots, states, constraint_times, None)
        # a hand-built family's views are given, not derived from a shape
        object.__setattr__(self, "histories", histories)
        object.__setattr__(self, "index", linalg.freeze(index))
        object.__setattr__(self, "choices", None)

    @classmethod
    def _enumerated(cls, slots, states, constraint_times,
                    free) -> HistoryFamily:
        """Every combination of the slots' fixed points, unchecked.

        The caller guarantees what ``__init__`` checks: slot times that keep
        the order rule, one dimension and stacks whose rows are the slots'
        states; ``free`` lists the unconstrained slots in time order.
        ``enumerate_family`` builds families this way.
        """
        fam = cls.__new__(cls)
        fam._assign(slots, states, constraint_times, tuple(free))
        return fam

    def _assign(self, slots, states, constraint_times, free):
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "slot_states", linalg.freeze(states))
        object.__setattr__(self, "constraint_times",
                           tuple(sorted(map(float, constraint_times))))
        object.__setattr__(self, "shape", None if free is None
                           else tuple(map(len, slots)))
        object.__setattr__(self, "_free", free)

    @cached_property
    def index(self) -> np.ndarray:
        """Per member, the position of its fixed point in each slot; an
        enumerated family's is built here, on first read."""
        return linalg.freeze(np.indices(self.shape, dtype=np.intp).reshape(
            len(self.shape), -1).T)

    @cached_property
    def choices(self) -> np.ndarray:
        """Per member of an enumerated family, its free slots' positions:
        the index's free columns, built on first read."""
        return linalg.freeze(self.index[:, list(self._free)])

    @cached_property
    def histories(self) -> Sequence[QuantumHistory]:
        """The members; an enumerated family's are the product of its
        slots, in C order, as a view whose member h is built when read,
        without the index."""
        return _Rows(math.prod(self.shape),
                     functools.partial(_product_members, self.slots))

    @property
    def slot_times(self) -> tuple[float, ...]:
        """Per slot, its fixed points' time, as ``FamilySpec.slot_times``."""
        return tuple(slot[0].time for slot in self.slots)

    #: a family's grid is its slot times
    times = slot_times

    @property
    def dim(self) -> int:
        return self.slots[0][0].dim


def _product_members(slots, lo: int, hi: int):
    """Members ``lo`` to ``hi - 1`` of the product of ``slots``, in C
    order, as histories."""
    positions = np.unravel_index(np.arange(lo, hi), tuple(map(len, slots)))
    return map(QuantumHistory._from_points,
               zip(*(map(slot.__getitem__, column.tolist())
                     for slot, column in zip(slots, positions))))


def _steps(fam, sched: HamiltonianSchedule, pairs=None, sub: int = 1,
           first=None) -> list:
    """The ``(k, l, carried)`` steps ``_products`` takes: for each slot
    pair (k, l), slot k's states, or the state ``first`` in place of
    slot 0's, carried to slot l's time as one (n_k, d) stack.

    ``fam`` is a family or a recipe, whose ``slot_states`` are carried
    between its ``slot_times``, each slot's fixed points' own time.
    ``pairs`` defaults to the grid's segments in time order.  The steps'
    propagators come from ``substep_propagators``, one call per batch of
    steps (ticks ``np.linspace``'s bit for bit): all of a walk's steps at
    once while their propagators fit ``_PAIR_BLOCK_ENTRIES`` entries, and
    never less than one step, so memory stays flat at large d.  A step is
    carried through its ``sub`` propagators, each applied to the whole
    stack as one stacked product ``u @ stack[..., None]``, which is
    ``u @ state`` of every row bit for bit (``stack @ u.T`` rounds
    differently).  ``first`` is carried once and stands for every fixed
    point of slot 0.  The one check that the schedule has the states'
    dimension is here.
    """
    times, states = fam.slot_times, fam.slot_states
    d = linalg.require_dim("schedule", require_schedule(sched).dim,
                           states[0].shape[1])
    if pairs is None:
        pairs = [(k, k + 1) for k in range(len(times) - 1)]
    batch = max(1, _PAIR_BLOCK_ENTRIES // (sub * d * d))
    steps = []
    for start in range(0, len(pairs), batch):
        block = pairs[start:start + batch]
        for (k, l), us in zip(block, substep_propagators(
                sched, [(times[k], times[l]) for k, l in block], sub)):
            own = k == 0 and first is not None
            carried = first.reshape(1, -1) if own else states[k]
            for u in us:
                carried = (u @ carried[..., None])[..., 0]
            steps.append((k, l, np.broadcast_to(carried, states[0].shape)
                          if own else carried))
        del us, u  # free this batch's propagators before the next forms
    return steps


def _products(fam: HistoryFamily, steps) -> tuple[np.ndarray, np.ndarray]:
    """Per member, the product of its step amplitudes in step order.

    ``steps`` lists ``(k, l, carried)``, as ``_steps`` builds them: a step
    joins grid slot k to slot l, and row i of ``carried`` is slot k's
    fixed point i carried to slot l's time.  Each step's amplitudes are
    multiplied in as separate real and imaginary arrays with the textbook
    formula (separate float64 ufuncs, so no fused multiply-add), which
    rounds as Python complex arithmetic does.  Returns the real and
    imaginary parts, in family order.

    An enumerated family (one with a ``shape``) takes each step's whole
    table, ``<slot_states[l][j]|carried[i]>`` for every pair, as one matrix
    product, laid along axes k and l of the shape; the products broadcast
    over the shape and ravel in C order, which is the family's order, so
    no index is read.  A hand-built family's amplitudes are gathered per
    member: member h's is ``np.vdot(slot_states[l][j], carried[i])`` for
    its own positions i = ``index[h, k]`` and j = ``index[h, l]``, as one
    stacked inner product (``linalg.inners``) over the two gathered rows,
    in blocks of ``_PAIR_BLOCK_ENTRIES // d`` members, so a step's memory
    stays flat at large d.
    """
    shape = fam.shape
    re = im = None
    for k, l, carried in steps:
        if shape is None:
            rows, cols = fam.index[:, k], fam.index[:, l]
            block = max(1, _PAIR_BLOCK_ENTRIES // carried.shape[1])
            table = np.concatenate([
                linalg.inners(fam.slot_states[l][cols[lo:lo + block]],
                              carried[rows[lo:lo + block]])
                for lo in range(0, len(rows), block)])
        else:
            table = fam.slot_states[l].conj() @ carried.T
            axes = [1] * len(shape)
            axes[k], axes[l] = table.shape[::-1]
            table = (table.T if k < l else table).reshape(axes)
        if re is None:
            re, im = table.real, table.imag
        else:
            re, im = (re * table.real - im * table.imag,
                      re * table.imag + im * table.real)
    if shape is not None:
        re, im = (np.broadcast_to(part, shape).reshape(-1)
                  for part in (re, im))
    return re, im


def history_inner(h_k: QuantumHistory, h_l: QuantumHistory) -> complex:
    """Overlap of two histories over the doubled contour.

    Product over fixed points of the forward overlap times the conjugated
    backward overlap, i.e. prod_i |<psi_{l_i}|psi_{k_i}>|^2.  Equal to 1 for
    identical histories and 0 whenever any pair of same-time fixed points
    is orthogonal.
    """
    for h in (h_k, h_l):
        linalg.require_instance(h, QuantumHistory, "history")
    linalg.require_dim("history", h_k.dim, h_l.dim)
    if not _same_times(h_k, h_l):
        raise ValidationError(
            "history overlap requires one shared time grid")
    out = 1.0 + 0.0j
    for p, q in zip(h_k.points, h_l.points):
        amp = linalg.inner(q.state, p.state)
        out *= amp * amp.conjugate()
    return complex(out)


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of a family consistency check."""

    valid: bool
    violations: tuple[tuple[int, int, float], ...] = ()


def _slot_gram(states: np.ndarray, power: int):
    """The Gram magnitudes |<a|b>| ** power of a slot's (n, d) state
    stack, as ``(table, rows)``:
    squared for ``validate_family``'s overlaps, plain for
    ``decoherence_report``'s records.

    For a slot of n <= 2d states ``table`` is the whole table, built once,
    and ``rows(select)`` reads the rows of the fixed points at positions
    ``select``.  The certificate needs whole tables, and every enumerated
    slot (n <= d) has one; the n x n table then costs at most twice the
    slot's own n x d states, so memory stays O(input + block).  A larger
    slot, which only a hand-built family has, may hold H states, and an
    H x H table would break the flat-memory bound; it gets ``table`` None,
    and ``rows`` forms the selected rows from the states.  The factor 2
    keeps one whole table for a slot with an extra state or two (a
    tampered member), so its entries do not depend on the block height.
    """
    if len(states) <= 2 * states.shape[1]:
        table = np.abs(states.conj() @ states.T) ** power
        return table, lambda select: table.take(select, axis=0)
    return None, lambda select: np.abs(
        states[select].conj() @ states.T) ** power


def _certified_orthogonal(fam: HistoryFamily, grams, tol: float) -> bool:
    """True if no pair of members can have an overlap above ``tol``.

    Every pair of distinct index rows differs at some slot k, where its
    Gram entry |<q|p>|^2 is at most ``off_k``, the slot's largest
    off-diagonal entry; at every other slot l it is at most ``top_l``, the
    slot's largest entry.  ``bound_k`` multiplies those maxima from 1.0 in
    slot order, as a block entry multiplies its own, and rounding is
    monotone, so no block entry exceeds the largest bound.  Needs every
    slot's whole table; the rows are distinct by construction when the
    family has a shape, so its index is not built, and are checked once
    otherwise, by sorting them.
    """
    if any(gram is None for gram in grams):
        return False
    tops = [float(gram.max()) for gram in grams]
    offs = [float(gram[~np.eye(len(gram), dtype=bool)].max(initial=0.0))
            for gram in grams]
    if any(math.prod(offs[l] if l == k else tops[l] for l in range(len(tops)))
           > tol for k in range(len(tops))):
        return False
    if fam.shape is not None:
        return True
    rows = fam.index[np.lexsort(fam.index.T)]  # equal rows now adjacent
    return not (rows[1:] == rows[:-1]).all(axis=1).any()


def validate_family(fam: HistoryFamily,
                    tol: float = linalg.DEFAULT_TOL) -> FamilyReport:
    """Check mutual orthogonality of all distinct history pairs.

    Returns the violating pairs as (index, index, |overlap|) triples in
    row-major order.  The overlap factorizes over grid slots, as in
    ``history_inner``, so it is a product of per-slot Gram entries
    |<q|p>|^2 read through the index (``_slot_gram``).  When every slot has
    its whole table and the index rows are distinct, an exact certificate
    (``_certified_orthogonal``) bounds every overlap by products of the
    tables' largest entries; if no bound exceeds ``tol``, the family is
    valid, found in O(N_t d^3) without forming a pair.  Otherwise (a
    duplicated member, a tampered state, a slot of many fixed points, or a
    family that is not orthogonal) the pairs i < j are formed here, in row
    blocks of about ``_PAIR_BLOCK_ENTRIES`` entries: each block multiplies
    its Gram entries in place, in slot order, so memory stays flat at any
    family size.  Raises ValidationError on a NaN or negative ``tol``.
    """
    linalg.require_instance(fam, HistoryFamily, "family")
    tol = linalg.require_tolerance(tol)
    grams, gram_rows = zip(*(_slot_gram(states, 2)
                             for states in fam.slot_states))
    if _certified_orthogonal(fam, grams, tol):
        return FamilyReport(valid=True)
    columns, n = fam.index.T, len(fam.index)
    violations, lo = [], 0
    while lo < n - 1:
        # rows lo .. hi - 1 against columns lo + 1 .. n - 1, about
        # _PAIR_BLOCK_ENTRIES entries (at least one row); the entries on or
        # below the diagonal (j <= i) are set to 0
        width = n - lo - 1
        hi = min(n - 1, lo + max(1, _PAIR_BLOCK_ENTRIES // width))
        block = np.ones((hi - lo, width))
        for gram, column in zip(gram_rows, columns):
            block *= gram(column[lo:hi]).take(column[lo + 1:], axis=1)
        block[:, :hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = 0
        rows, cols = np.nonzero(block > tol)
        violations.extend(zip((rows + lo).tolist(), (cols + lo + 1).tolist(),
                              block[rows, cols].tolist()))
        lo = hi
    return FamilyReport(valid=not violations, violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class HistoryOperator(linalg.Frozen):
    """Time-ordered chain of Heisenberg-picture projectors, each a checked,
    read-only copy of the matrix given; == is identity."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projectors = tuple(map(linalg.as_square, _members(
            self.projectors, object, "a chain", "projectors")))
        if not all(map(linalg.is_projector, projectors)):
            raise ValidationError("chain entry is not a projector")
        if projectors:
            linalg.require_dim("projector", *[p.shape[0] for p in projectors])
        object.__setattr__(self, "projectors", linalg.freeze(projectors))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0] if self.projectors else 0

    def matrix(self, dim: int | None = None) -> np.ndarray:
        """Chain product, latest projector leftmost, of size ``dim`` if given
        (the chain's own; an empty chain, of dimension 0, needs one)."""
        if dim is None and not self.projectors:
            raise ValidationError("empty chain needs an explicit dim")
        size = (self.dim if dim is None
                else linalg.require_count(dim, "dimension", 1))
        out = np.eye(linalg.require_dim("chain", self.dim or size, size),
                     dtype=complex)
        for p in self.projectors:
            out = p @ out
        return out


def history_operator(fps, sched: HamiltonianSchedule,
                     t_0: float) -> HistoryOperator:
    """Heisenberg projector chain for the given fixed points.

    The first fixed point is the preparation slot and contributes no
    projector; each later point contributes the projector onto its state at
    its time, referred back to t_0.
    """
    require_schedule(sched)
    fps = _members(fps, FixedPoint, "a chain", "fixed points")
    require_increasing((p.time for p in fps), "fixed-point times")
    t_0 = require_time(t_0, "reference time")
    if fps:
        require_not_before(fps[0].time, t_0, "first fixed-point time")
    projs = [heisenberg_projector(p.state, sched, p.time, t_0)
             for p in fps[1:]]
    return HistoryOperator(tuple(projs))


def record_state(chain: HistoryOperator, psi1) -> np.ndarray:
    """Apply the projector chain to the preparation state.

    The result is left unnormalized; its squared norm is the diagonal
    decoherence functional of the chain.
    """
    linalg.require_instance(chain, HistoryOperator, "chain")
    psi = linalg.as_state(psi1)
    linalg.require_dim("chain", *[p.shape[0] for p in chain.projectors],
                       psi.size)
    for p in chain.projectors:
        psi = p @ psi
    return psi


def decoherence_functional(chain_a: HistoryOperator, chain_b: HistoryOperator,
                           psi1) -> complex:
    """<psi1| C_b^dag C_a |psi1> for two projector chains."""
    rec_a = record_state(chain_a, psi1)
    rec_b = record_state(chain_b, psi1)
    return complex(np.vdot(rec_b, rec_a))


def _require_density_matrix(rho, dim: int) -> np.ndarray:
    rho = linalg.as_square(rho, dim)
    if not linalg.is_hermitian(rho, linalg.INPUT_TOL):
        raise ValidationError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > linalg.INPUT_TOL:
        raise ValidationError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -linalg.INPUT_TOL:
        raise ValidationError("density matrix must be positive semidefinite")
    return rho


def chain_probability(fps, sched: HamiltonianSchedule, rho1) -> float:
    """Probability of a projector-chain history from the initial state rho1.

    Tr[P_N ... P_2 rho1 P_2 ... P_N], with the Heisenberg reference at the
    first fixed point's time; rho1 is the state at that reference time.
    """
    fps = _members(fps, FixedPoint, "a chain", "fixed points")
    if not fps:
        raise ValidationError("chain probability needs at least one fixed point")
    linalg.require_dim("fixed point", fps[0].dim, require_schedule(sched).dim)
    rho1 = _require_density_matrix(rho1, fps[0].dim)
    chain = history_operator(fps, sched, fps[0].time).matrix(fps[0].dim)
    value = np.trace(chain @ rho1 @ chain.conj().T)
    return float(value.real)


@dataclass(frozen=True)
class DecoherenceReport:
    """Largest off-diagonal decoherence-functional entry in a family."""

    decoherent: bool
    max_offdiagonal: float
    worst_pair: tuple[int, int] | None = None


def decoherence_report(fam: HistoryFamily, sched: HamiltonianSchedule, psi1,
                       tol: float = linalg.DEFAULT_TOL) -> DecoherenceReport:
    """The largest pairwise decoherence functional over the family.

    Chains are referred to the first grid time, where ``psi1`` is the
    preparation.  Every projector is rank one, so a member's record is its
    last slot's state times c, the closed-form step product (``_products``
    over the steps of ``_steps``, one propagator per segment) with ``psi1``
    in place of slot 0's fixed points, and
    |D(a, b)| = (|c_a| |c_b|) |<s_N(a)|s_N(b)>|.  The maximum is grouped
    by last-slot state: for member a, over the m last-slot states g, its
    row's best is (|c_a| M_g) |<s_N(a)|g>|, where M_g is the
    largest |c_b| of a later member b ending at g.  Rounding is monotone,
    so that is exactly the largest entry of a's row.  The rows run from
    the last one back in blocks of about ``_PAIR_BLOCK_ENTRIES`` entries,
    carrying M, and a block reads its members' Gram rows through
    ``_slot_gram``.  Work is O(H m), with m <= d for an enumerated family,
    and memory O(block + d^2).  ``worst_pair`` is the first
    pair, in row-major order, attaining the maximum: the first row whose
    best is the maximum, and the first column of that one row attaining
    it.  Raises ValidationError on a NaN or negative ``tol``.
    """
    linalg.require_instance(fam, HistoryFamily, "family")
    tol = linalg.require_tolerance(tol)
    psi = linalg.as_state(psi1, fam.dim)
    scale = np.hypot(*_products(fam, _steps(fam, sched, first=psi)))
    _, gram_rows = _slot_gram(fam.slot_states[-1], 1)
    m = len(fam.slots[-1])
    # an enumerated member h ends at position h % m (C order), so its index
    # is not built for one column
    last = fam.index[:, -1] if fam.shape is None else np.arange(len(scale)) % m
    height = max(1, _PAIR_BLOCK_ENTRIES // m)
    later = np.zeros(m)  # M_g over the rows already passed
    worst, first, first_gram = 0.0, None, None
    for hi in range(len(scale), 0, -height):
        lo = max(0, hi - height)
        own = np.zeros((hi - lo, m))
        own[np.arange(hi - lo), last[lo:hi]] = scale[lo:hi]
        # row r: per last-slot state, the largest scale of rows after lo + r,
        # a suffix maximum in log2(rows) whole-row passes (accumulate would
        # loop once per column, m of them)
        after, step = np.vstack([own[1:], later]), 1
        while step < len(after):
            np.maximum(after[:-step], after[step:], out=after[:-step])
            step *= 2
        later = np.maximum(after[0], own[0])
        gram = gram_rows(last[lo:hi])
        best = (scale[lo:hi, None] * after * gram).max(axis=1)
        row = int(np.argmax(best))
        if best[row] > 0.0 and best[row] >= worst:
            worst, first, first_gram = float(best[row]), lo + row, gram[row]
    worst_pair = None
    if first is not None:
        entries = scale[first] * scale[first + 1:] * first_gram[
            last[first + 1:]]
        worst_pair = (first, first + 1 + int(np.argmax(entries)))
    return DecoherenceReport(decoherent=worst <= tol,
                             max_offdiagonal=worst, worst_pair=worst_pair)


@dataclass(frozen=True, eq=False)
class FamilySpec(linalg.Frozen):
    """Recipe for an enumerated family: grid, per-time bases, constraints.

    ``bases`` holds one orthonormal set per grid time (complete sets are
    required wherever the time is unconstrained); ``constraints`` pins fixed
    points at a subset of the grid times.  ``slots`` is the recipe's slot
    table, built once here: at a pinned time the constraint alone, elsewhere
    one ``FixedPoint`` per basis vector, labeled by its position; an
    unconstrained time needs a non-empty set, and a pinned one may have an
    empty set (the dimension is then its pins').  The input bases are
    validated once, all of them by one ``linalg._basis_stacks`` call,
    before any slot is built: the sets of one row count are checked by
    one stacked Gram defect, and a set it does not clear is judged, in
    grid order, by the per-vector rule, which words the refusal.
    ``bases`` holds the checked stacks' read-only rows, and at free times
    the slot fixed points' states are those rows.
    ``slot_states`` holds each slot's states as one read-only stack: the
    basis stack at a free time, the constraint's state as one row at a
    pinned one.  ``slot_times`` is the one definition of a slot's time, its
    fixed points' own (a constraint may sit within TIME_EPS of its grid
    time), which every route carries a slot from.  ``==`` is identity.
    """

    times: tuple[float, ...]
    bases: tuple[tuple[np.ndarray, ...], ...]
    constraints: tuple[FixedPoint, ...] = ()
    #: grid index -> the constraint pinned there
    pinned: dict[int, FixedPoint] = field(init=False, repr=False)
    #: per grid time, the time of its slot's fixed points
    slot_times: tuple[float, ...] = field(init=False, repr=False)
    #: per grid time, the fixed points an enumerated member may pass through
    slots: tuple[tuple[FixedPoint, ...], ...] = field(init=False, repr=False)
    #: per grid time, the slot's states as one read-only (n, d) stack
    slot_states: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        times = require_increasing(self.times, "grid times")
        if len(times) < 2:
            raise ValidationError("family spec needs at least two grid times")
        sets = linalg.require_sequence(self.bases, "bases", "orthonormal sets")
        if len(sets) != len(times):
            raise ValidationError("need exactly one basis per grid time")
        constraints = _members(self.constraints, FixedPoint, "constraints",
                               "fixed points")
        pinned = dict(zip(_constraint_slots(
            times, [fp.time for fp in constraints]), constraints))
        # a slot's time is its fixed points' time: a constraint may sit
        # within TIME_EPS of its grid time
        slot_times = require_increasing(
            [pinned[i].time if i in pinned else t
             for i, t in enumerate(times)], "slot times")
        stacks = linalg._basis_stacks(
            sets, [f"basis at time {t}" for t in times])
        slots, bases, states = [], [], []
        for i, (t, stack) in enumerate(zip(times, stacks)):
            rows = tuple(stack)
            bases.append(rows)
            if i in pinned:
                slots.append((pinned[i],))
                states.append(pinned[i].state.reshape(1, -1))
            elif not rows:
                raise ValidationError(
                    f"basis at unconstrained time {t} is empty")
            else:
                slots.append(tuple(FixedPoint._checked(t, row, str(k))
                                   for k, row in enumerate(rows)))
                states.append(stack)
        # one dimension: the bases', or the pins' alone when every basis
        # is empty
        widths = [rows[0].size for rows in bases if rows]
        if widths:
            linalg.require_dim("basis vector", *widths)
        linalg.require_dim("constraint state",
                           *[fp.dim for fp in constraints], *widths[:1])
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bases", tuple(bases))
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "pinned", pinned)
        object.__setattr__(self, "slot_times", slot_times)
        object.__setattr__(self, "slots", tuple(slots))
        object.__setattr__(self, "slot_states", tuple(states))

    @property
    def dim(self) -> int:
        return self.slot_states[0].shape[1]

    def history_count(self) -> int:
        """Number of histories the recipe enumerates to."""
        return math.prod(map(len, self.slots))


def enumerate_family(spec: FamilySpec,
                     guard: int = linalg.MAX_ENUMERATION) -> HistoryFamily:
    """All histories consistent with the recipe's fixed-point constraints.

    The family shares the recipe's slot table, ``spec.slots``: free slots
    range over the full basis at their time, constrained slots are pinned,
    and the family is their shape; no per-member array is built here.
    Raises EnumerationGuardError when the combination count exceeds
    ``guard``, a non-negative integer.
    """
    linalg.require_instance(spec, FamilySpec, "recipe")
    guard = linalg.require_count(guard, "enumeration guard", 0)
    count = spec.history_count()
    if count > guard:
        raise EnumerationGuardError(
            f"enumeration would produce {count} histories (guard: {guard})")
    free = [i for i in range(len(spec.slots)) if i not in spec.pinned]
    for i in free:
        if len(spec.slots[i]) != spec.dim:
            raise ValidationError(
                f"basis at unconstrained time {spec.times[i]} must be "
                f"complete ({len(spec.slots[i])} of {spec.dim} vectors)")
    return HistoryFamily._enumerated(
        spec.slots, spec.slot_states,
        [fp.time for fp in spec.constraints], free)
