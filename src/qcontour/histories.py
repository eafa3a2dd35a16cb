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
request.

Overlap convention: when two histories are compared, the backward-branch
factor of each fixed point enters conjugated relative to the forward one,
so a single fixed-point pair contributes |<l|k>|^2.  This makes families
built from orthonormal bases exactly Kronecker-orthogonal and keeps
validation basis-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .contour import grid_index, same_time
from .dynamics import HamiltonianSchedule, heisenberg_projector, propagate
from .errors import (DimensionMismatchError, EnumerationGuardError,
                     ValidationError)

#: refuse exhaustive enumerations beyond this many histories
MAX_ENUMERATION = 10 ** 6
#: entries per row block of a pairwise family check (64 KB of float64)
_PAIR_BLOCK_ENTRIES = 2 ** 13


@dataclass(frozen=True, eq=False)
class FixedPoint:
    """A labeled state pinned at one time on both branches; == is identity."""

    time: float
    state: np.ndarray
    label: str = "fp"

    def __post_init__(self):
        state = linalg.as_state(self.state)
        state.setflags(write=False)
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "state", state)

    @property
    def dim(self) -> int:
        return self.state.size


@dataclass(frozen=True, eq=False)
class QuantumHistory:
    """Ordered sequence of N_t >= 2 fixed points at strictly increasing times."""

    points: tuple[FixedPoint, ...]

    def __init__(self, points):
        pts = tuple(points)
        if len(pts) < 2:
            raise ValidationError("a history needs at least two fixed points")
        if any(b.time <= a.time for a, b in zip(pts, pts[1:])):
            raise ValidationError("fixed-point times must strictly increase")
        if len({p.dim for p in pts}) != 1:
            raise DimensionMismatchError(
                "all fixed points in a history must share one dimension")
        object.__setattr__(self, "points", pts)

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


def _same_times(a: QuantumHistory, b: QuantumHistory) -> bool:
    return a.n_times == b.n_times and all(
        same_time(x, y) for x, y in zip(a.times, b.times))


def histories_equal(a: QuantumHistory, b: QuantumHistory,
                    tol: float = linalg.DEFAULT_TOL) -> bool:
    """Tolerance-based equality of times and states; ``==`` is identity."""
    if not _same_times(a, b) or a.dim != b.dim:
        return False
    return all(np.max(np.abs(p.state - q.state)) <= tol
               for p, q in zip(a.points, b.points))


@dataclass(frozen=True, init=False, eq=False)
class HistoryFamily:
    """Histories over one shared time grid, with the constrained times marked.

    A family is stored as its per-slot fixed points and an index:
    ``slots[k]`` holds the distinct fixed points at grid time k, and
    ``index`` is a read-only (H, N_t) integer array whose entry ``[h, k]``
    says which of them member h passes through.  The members are built as
    ``QuantumHistory`` objects only when ``histories`` is read.  ``==`` is
    identity, as for fixed points.

    ``constraint_times`` lists the times at which the fixed point is known
    (there are S_t of them); the remaining times are free slots.  An
    enumerated family (``enumerate_family``) also records ``choices``, per
    history the basis index chosen at each free slot, in time order, as a
    read-only (H, N_t - S_t) integer array; a hand-built one has none.
    """

    slots: tuple[tuple[FixedPoint, ...], ...]
    index: np.ndarray
    constraint_times: tuple[float, ...]
    choices: np.ndarray | None
    _histories: tuple[QuantumHistory, ...] | None = field(repr=False)

    def __init__(self, histories, constraint_times=()):
        histories = tuple(histories)
        if not histories:
            raise ValidationError("family must contain at least one history")
        first = histories[0]
        for h in histories[1:]:
            if not _same_times(first, h):
                raise ValidationError(
                    "all histories in a family must share one time grid")
            if h.dim != first.dim:
                raise DimensionMismatchError(
                    "all histories in a family must share one dimension")
        times = first.times
        for t in constraint_times:
            if grid_index(times, t) is None:
                raise ValidationError(
                    f"constraint time {t} is not a grid time")
        if len(constraint_times) > first.n_times:
            raise ValidationError("more constraints than grid times")
        # each slot's distinct fixed points, by identity, in order of first use
        positions = [{} for _ in times]
        index = np.array([[pos.setdefault(p, len(pos))
                           for pos, p in zip(positions, h.points)]
                          for h in histories], dtype=np.intp)
        self._assign(tuple(map(tuple, positions)), index, constraint_times,
                     None, histories)

    @classmethod
    def _from_index(cls, slots, index, constraint_times=(),
                    choices=None) -> HistoryFamily:
        """A family given by per-slot fixed points and an index, unchecked.

        The caller guarantees what ``__init__`` checks: the slots lie on one
        strictly increasing grid in one dimension and every index row picks
        one fixed point per slot; ``choices`` has one distinct row of
        free-slot indices per member.  ``enumerate_family`` builds families
        this way.
        """
        fam = cls.__new__(cls)
        fam._assign(slots, index, constraint_times, choices, None)
        return fam

    def _assign(self, slots, index, constraint_times, choices, histories):
        for array in (index, choices):
            if array is not None:
                array.setflags(write=False)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "constraint_times",
                           tuple(float(t) for t in constraint_times))
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "_histories", histories)

    @property
    def histories(self) -> tuple[QuantumHistory, ...]:
        """The members, built from the slots and the index on first read."""
        if self._histories is None:
            object.__setattr__(self, "_histories", tuple(
                map(QuantumHistory, self.gather(self.slots))))
        return self._histories

    def gather(self, per_slot):
        """Per member, the tuple of ``per_slot[k][index[h, k]]`` over slots k.

        ``per_slot`` holds one sequence per slot, aligned with ``slots``.
        """
        return zip(*(map(values.__getitem__, column)
                     for values, column in zip(per_slot,
                                               self.index.T.tolist())))

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(slot[0].time for slot in self.slots)

    @property
    def dim(self) -> int:
        return self.slots[0][0].dim


def history_inner(h_k: QuantumHistory, h_l: QuantumHistory) -> complex:
    """Overlap of two histories over the doubled contour.

    Product over fixed points of the forward overlap times the conjugated
    backward overlap, i.e. prod_i |<psi_{l_i}|psi_{k_i}>|^2.  Equal to 1 for
    identical histories and 0 whenever any pair of same-time fixed points
    is orthogonal.
    """
    if h_k.dim != h_l.dim:
        raise DimensionMismatchError("histories live in different dimensions")
    if not _same_times(h_k, h_l):
        raise ValidationError(
            "history overlap requires one shared time grid")
    out = 1.0 + 0.0j
    for p, q in zip(h_k.points, h_l.points):
        amp = linalg.inner(q.state, p.state)
        out *= amp * amp.conjugate()
    return complex(out)


def _pair_blocks(n: int, pair_block):
    """The pairs i < j of n members, as row blocks of an n x n table.

    Yields ``(lo, block)`` for consecutive row ranges [lo, hi):
    ``pair_block(lo, hi)`` returns the (hi - lo, n - lo - 1) table of rows
    lo .. hi - 1 against columns lo + 1 .. n - 1, and ``block`` is that
    table with the entries on or below the diagonal (j <= i) set to 0.
    Block heights are chosen so that a block holds about
    ``_PAIR_BLOCK_ENTRIES`` entries (at least one row).
    """
    lo = 0
    while lo < n - 1:
        width = n - lo - 1
        hi = min(n - 1, lo + max(1, _PAIR_BLOCK_ENTRIES // width))
        block = pair_block(lo, hi)
        block[:, :hi - lo][np.tri(hi - lo, k=-1, dtype=bool)] = 0
        yield lo, block
        lo = hi


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of a family consistency check."""

    valid: bool
    violations: tuple[tuple[int, int, float], ...] = ()


def validate_family(fam: HistoryFamily,
                    tol: float = linalg.DEFAULT_TOL) -> FamilyReport:
    """Check mutual orthogonality of all distinct history pairs.

    Returns the violating pairs as (index, index, |overlap|) triples in
    row-major order.  The overlap factorizes over grid slots, as in
    ``history_inner``, so it is a product of per-slot Gram entries
    |<q|p>|^2 read through the index.  The pairs are formed in row blocks
    (``_pair_blocks``): each block multiplies its Gram entries in place, in
    slot order, so memory stays flat at any family size.  Raises
    ValidationError on a NaN or negative ``tol``.
    """
    tol = linalg.require_tolerance(tol)
    grams = []
    for slot in fam.slots:
        states = np.array([fp.state for fp in slot])
        grams.append(np.abs(states.conj() @ states.T) ** 2)
    columns = fam.index.T

    def overlaps(lo, hi):
        block = np.ones((hi - lo, len(fam.index) - lo - 1))
        for gram, column in zip(grams, columns):
            block *= gram.take(column[lo:hi], axis=0).take(
                column[lo + 1:], axis=1)
        return block

    violations = []
    for lo, block in _pair_blocks(len(fam.index), overlaps):
        rows, cols = np.nonzero(block > tol)
        violations.extend(zip((rows + lo).tolist(), (cols + lo + 1).tolist(),
                              block[rows, cols].tolist()))
    return FamilyReport(valid=not violations, violations=tuple(violations))


def _checked_projector(p) -> np.ndarray:
    p = linalg.as_square(p)
    if not linalg.is_projector(p):
        raise ValidationError("chain entry is not a projector")
    return p


@dataclass(frozen=True)
class HistoryOperator:
    """Time-ordered chain of Heisenberg-picture projectors."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(
            map(_checked_projector, self.projectors)))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0] if self.projectors else 0

    def matrix(self, dim: int | None = None) -> np.ndarray:
        """Chain product with the latest projector leftmost."""
        if not self.projectors:
            if dim is None:
                raise ValidationError("empty chain needs an explicit dim")
            return np.eye(dim, dtype=complex)
        out = np.eye(self.dim, dtype=complex)
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
    fps = list(fps)
    if any(b.time <= a.time for a, b in zip(fps, fps[1:])):
        raise ValidationError("fixed points must be time-ordered")
    if fps and t_0 > fps[0].time and not same_time(t_0, fps[0].time):
        raise ValidationError("reference time must not exceed the first time")
    projs = [heisenberg_projector(p.state, sched, p.time, t_0)
             for p in fps[1:]]
    return HistoryOperator(tuple(projs))


def record_state(chain: HistoryOperator, psi1) -> np.ndarray:
    """Apply the projector chain to the preparation state.

    The result is left unnormalized; its squared norm is the diagonal
    decoherence functional of the chain.
    """
    psi = linalg.as_state(psi1)
    for p in chain.projectors:
        if p.shape[0] != psi.size:
            raise DimensionMismatchError("chain and state dimensions differ")
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
    fps = list(fps)
    if not fps:
        raise ValidationError("chain probability needs at least one fixed point")
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
    """Evaluate all pairwise decoherence functionals over the family.

    Chains are referred to the first grid time; ``psi1`` is the preparation
    at that time.  Each later slot builds one propagator from the first
    grid time, and from it each of its fixed points' Heisenberg projectors,
    checked once; every member's record state applies its projectors, read
    through the index, in time order.  The pairwise overlaps are formed in
    row blocks (``_pair_blocks``), one matrix product per block.
    ``worst_pair`` is the first pair, in row-major order, attaining the
    maximum.  Raises ValidationError on a NaN or negative ``tol``.
    """
    tol = linalg.require_tolerance(tol)
    if sched.dim != fam.dim:
        raise DimensionMismatchError(
            f"schedule dimension {sched.dim} differs from the family's "
            f"{fam.dim}")
    t_0 = fam.times[0]
    psi = linalg.as_state(psi1)
    if psi.size != fam.dim:
        raise DimensionMismatchError("chain and state dimensions differ")
    records = np.broadcast_to(psi, (len(fam.index), psi.size))
    for slot, column in zip(fam.slots[1:], fam.index.T[1:]):
        u_dag = propagate(sched, t_0, slot[0].time).conj().T
        rotated = [u_dag @ fp.state for fp in slot]
        projectors = np.array([_checked_projector(np.outer(r, r.conj()))
                               for r in rotated])
        records = np.einsum("hij,hj->hi", projectors[column], records)
    bras = records.conj()
    worst = 0.0
    worst_pair = None
    for lo, block in _pair_blocks(
            len(records),
            lambda lo, hi: np.abs(records[lo:hi] @ bras[lo + 1:].T)):
        k = int(np.argmax(block))
        if block.flat[k] > worst:
            row, col = divmod(k, block.shape[1])
            worst, worst_pair = float(block.flat[k]), (lo + row, lo + 1 + col)
    return DecoherenceReport(decoherent=worst <= tol,
                             max_offdiagonal=worst, worst_pair=worst_pair)


def is_decoherent_space(fam: HistoryFamily, sched: HamiltonianSchedule, psi1,
                        tol: float = linalg.DEFAULT_TOL) -> bool:
    """True iff every distinct pair of family chains decoheres within tol."""
    return decoherence_report(fam, sched, psi1, tol).decoherent


@dataclass(frozen=True, eq=False)
class FamilySpec:
    """Recipe for an enumerated family: grid, per-time bases, constraints.

    ``bases`` holds one orthonormal set per grid time (complete sets are
    required wherever the time is unconstrained); ``constraints`` pins fixed
    points at a subset of the grid times.  ``slots`` is the recipe's slot
    table, built once here: at a pinned time the constraint alone, elsewhere
    one ``FixedPoint`` per basis vector, labeled by its position.  Each
    input vector is validated once; at free times ``bases`` holds the slot
    fixed points' read-only states.  ``==`` is identity.
    """

    times: tuple[float, ...]
    bases: tuple[tuple[np.ndarray, ...], ...]
    constraints: tuple[FixedPoint, ...] = ()
    #: grid index -> the constraint pinned there
    pinned: dict[int, FixedPoint] = field(init=False, repr=False)
    #: per grid time, the fixed points an enumerated member may pass through
    slots: tuple[tuple[FixedPoint, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) < 2:
            raise ValidationError("family spec needs at least two grid times")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("grid times must strictly increase")
        if len(self.bases) != len(times):
            raise ValidationError("need exactly one basis per grid time")
        pinned = {}
        for fp in self.constraints:
            index = grid_index(times, fp.time)
            if index is None:
                raise ValidationError(
                    f"constraint time {fp.time} is not a grid time")
            if index in pinned:
                raise ValidationError(
                    f"duplicate constraint at time {times[index]}")
            pinned[index] = fp
        slots, bases = [], []
        for i, (t, basis) in enumerate(zip(times, self.bases)):
            try:
                if i in pinned:
                    slots.append((pinned[i],))
                    bases.append(tuple(map(linalg.as_state, basis)))
                else:
                    slots.append(tuple(FixedPoint(t, v, label=str(k))
                                       for k, v in enumerate(basis)))
                    bases.append(tuple(fp.state for fp in slots[-1]))
            except ValidationError as exc:
                raise ValidationError(f"basis at time {t}: {exc}") from exc
        dims = {v.size for basis in bases for v in basis}
        if len(dims) != 1:
            raise DimensionMismatchError("basis vectors must share one dimension")
        for t, basis in zip(times, bases):
            linalg.require_orthonormal(basis, f"basis at time {t}")
        if any(fp.dim not in dims for fp in self.constraints):
            raise DimensionMismatchError(
                "constraint state dimension does not match the bases")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bases", tuple(bases))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "pinned", pinned)
        object.__setattr__(self, "slots", tuple(slots))

    @property
    def dim(self) -> int:
        return next(v.size for basis in self.bases for v in basis)

    @property
    def constrained_times(self) -> tuple[float, ...]:
        return tuple(sorted(fp.time for fp in self.constraints))

    def history_count(self) -> int:
        """Number of histories the recipe enumerates to."""
        return math.prod(map(len, self.slots))


def enumerate_family(spec: FamilySpec,
                     guard: int = MAX_ENUMERATION) -> HistoryFamily:
    """All histories consistent with the recipe's fixed-point constraints.

    The family shares the recipe's slot table, ``spec.slots``: free slots
    range over the full basis at their time, constrained slots are pinned,
    and only the index is built here.  Raises EnumerationGuardError when
    the combination count exceeds ``guard``.
    """
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
    shape = tuple(map(len, spec.slots))
    index = np.indices(shape, dtype=np.intp).reshape(len(shape), -1).T
    return HistoryFamily._from_index(
        spec.slots, index, constraint_times=spec.constrained_times,
        choices=index[:, free])
