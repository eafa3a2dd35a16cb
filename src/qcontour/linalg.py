"""Dense complex linear-algebra kernel.

State vectors are 1-d ``complex128`` arrays, operators are square 2-d
arrays.  Everything here is a pure function of its inputs; arrays returned
by constructors are fresh copies, so values can be shared freely.  Units:
hbar = 1 throughout.

Each property has one verdict here, which words its own refusals, so a
caller gets checked stacks and keeps no fallback.  ``_basis_stacks`` is
the basis verdict (``as_basis`` is it on one set): one Gram defect
|S* S^T - I| per group of sets of equal row count, and a per-vector rule
for a set the stack does not clear.  ``_hermitian_defects`` is the one
Hermitian formula, of a matrix or of a stack (``_hermitian_stack``, which
leaves to ``require_hermitian`` what the stack does not clear).
``normalize`` is the one renormalization rule: a column's ``np.sum``
total, refused when it is 0.0, and the column divided by it.
``require_instance`` is the one check of an argument's type, and
``_as_numbers`` the one reading of every array argument: what numpy
cannot read as numbers (``None``, text, a ragged nest, an integer beyond
64 bits) is a ValidationError, and ``_as_matrix`` refuses what is not
square, 2-d and non-empty.  ``require_tolerance`` reads every ``tol``,
``require_count`` every count, ``require_sequence`` every ordered argument.

``freeze`` is the one read-only rule: every checked array the package
holds (a stack, a memo entry, a record's column) is marked read-only by
it, and every class that holds such arrays derives from ``Frozen``, whose
``__setstate__`` is the one unpickle hook: a pickle keeps an array's bits,
not its flag, so the hook freezes the restored arrays again.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from collections.abc import Mapping, Set

import numpy as np

from .errors import (DimensionMismatchError, ValidationError,
                     ZeroNormalizationError)

# the tolerance table: every threshold the package applies is named here
#: equality of computed values (norms, projectors, probability sums, --tol)
DEFAULT_TOL = 1e-10
#: unitarity of freshly constructed matrices
UNITARY_TOL = 1e-12
#: outside input: hermiticity, orthonormal sets, A-side unitarity, densities
INPUT_TOL = 1e-8
#: values equal up to rounding: decomposition totals, a probability's sign
ROUNDING_TOL = 1e-12
#: two times match when |a - b| <= TIME_EPS * max(1, |a|, |b|)
TIME_EPS = 1e-12
#: Schmidt coefficients at or below this count as zero (no support)
SUPPORT_TOL = 1e-12
#: the most histories an enumeration builds by default, and the most
#: sub-steps of a contour step and grid times of a contour path (the
#: ``require_count`` ceiling of both)
MAX_ENUMERATION = 10 ** 6
#: a stacked state whose squared norm is this close to 1 passes without
#: ``as_state``: inside DEFAULT_TOL by far more than any norm formula's
#: rounding, so no verdict can differ from ``as_state``'s
STATE_MARGIN = 5e-11


def freeze(*arrays):
    """Mark each of ``arrays`` read-only in place, and each array inside a
    given tuple (at any depth); anything else, None included, is passed
    over.  Returns the first argument (None when there is none), so
    ``freeze(a.view())`` is a read-only view of ``a`` that leaves ``a``
    writable."""
    for item in arrays:
        if isinstance(item, np.ndarray):
            item.setflags(False)  # write=False; a keyword costs 2.5x the call
        elif isinstance(item, tuple):
            freeze(*item)
    return arrays[0] if arrays else None


class Frozen:
    """Base of every class that holds checked arrays: ``__setstate__``, the
    one unpickle hook, restores the attributes and ``freeze``s every array
    among them, directly or in a tuple."""

    __slots__ = ()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        freeze(*state.values())

    def _hold_views(self, *names: str) -> None:
        """Set each named attribute, an array or a tuple of arrays (None is
        kept), to read-only views of it: the caller's arrays stay
        writable."""
        for name in names:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = tuple(v.view() for v in value)
            elif value is not None:
                value = value.view()
            object.__setattr__(self, name, freeze(value))


def is_real(x) -> bool:
    """True iff ``x`` is a real number and not a bool."""
    return type(x) in (float, int) or (
        isinstance(x, numbers.Real) and not isinstance(x, bool))


def require_tolerance(tol) -> float:
    """Return ``tol``, a real number or its text, as a float; raise
    ValidationError if it is NaN, negative, a bool or not a number.

    NaN compares false both ways, so a NaN tolerance would let a
    ``value > tol`` violation test pass everything.  An integer beyond the
    float range reads as an infinity.
    """
    try:
        value = float(tol) if isinstance(tol, str) or is_real(tol) else -1.0
    except ValueError:  # text that is not a number
        value = -1.0
    except OverflowError:  # an integer beyond the float range
        value = math.inf if tol > 0 else -math.inf
    if not value >= 0.0:
        raise ValidationError(
            f"tolerance must be a non-negative number, got {tol!r}")
    return value


def require_dim(what: str, *dims: int) -> int:
    """Return the dimension all of ``dims`` share; raise
    DimensionMismatchError naming ``what`` and the first two that differ,
    or when none is given."""
    if not dims:
        raise DimensionMismatchError(f"no {what} to take a dimension from")
    for other in dims[1:]:
        if other != dims[0]:
            raise DimensionMismatchError(
                f"{what} dimension {dims[0]} does not match dimension "
                f"{other}: they must share one dimension")
    return dims[0]


def require_instance(value, kind: type, what: str):
    """Return ``value``; raise ValidationError naming ``what`` and ``kind``
    unless it is a ``kind`` instance.  The one type check: an entry point
    asks it of each argument of a package class (a schedule, recipe,
    family, history, chain, distribution, ...) before reading it."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, "
                              f"got {type(value).__name__}")
    return value


def require_sequence(value, what: str, items: str) -> tuple:
    """``value``, an ordered sequence of ``items``, as a tuple read once (a
    tuple as it is, a generator used up); ValidationError naming ``what``
    for what is not iterable (a 0-d array), for text, a set or a mapping."""
    if type(value) is tuple:
        return value
    try:
        items_of = iter(value)
    except TypeError:  # not iterable: a number, None, a 0-d array
        items_of = None
    if items_of is None or (type(value) is not list and isinstance(
            value, (str, bytes, Set, Mapping))):  # text, or unordered
        raise ValidationError(f"{what} must be a sequence of {items}, "
                              f"got {type(value).__name__}")
    return tuple(items_of)  # an error while iterating is the item's


def require_integer(value, what: str) -> int:
    """Return ``value`` as an int: a Python or numpy integer, not a bool;
    otherwise raise ValidationError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_count(value, what: str, least: int,
                  most: int | None = None) -> int:
    """Return ``value`` as an int: an integer ``require_integer`` accepts,
    of at least ``least`` and, if given, at most ``most``; otherwise raise
    ValidationError naming ``what``."""
    value = require_integer(value, what)
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValidationError(f"{what} must be {bound}, got {value}")
    if most is not None and value > most:
        raise ValidationError(f"{what} must be at most {most}, got {value}")
    return value


def normalize(column: np.ndarray, what: str) -> tuple[float, np.ndarray]:
    """The total of a 1-d float array, ``np.sum``'s, and the array divided
    by it; ZeroNormalizationError with the message ``what`` when the total
    is 0.0.  A total that overflows is inf, without a warning, as a
    Python-float sum gives it."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(column))
    if total == 0.0:
        raise ZeroNormalizationError(what)
    return total, column / total


def as_state(vec, dim: int | None = None) -> np.ndarray:
    """Coerce ``vec`` to a complex state vector and validate it.

    Checks finiteness, optional dimension and unit L2 norm, in that order
    of verdicts; the entries are scanned for NaN or Inf only when the norm
    is not within DEFAULT_TOL of 1 (such an entry makes the norm NaN or
    Inf).  Returns a fresh array.
    """
    psi = _as_numbers(vec, "state vector").flatten()
    if psi.size < 1:
        raise ValidationError("state vector must have dimension >= 1")
    length = norm(psi)
    unit = abs(length - 1.0) <= DEFAULT_TOL
    if not unit and not np.all(np.isfinite(psi.view(float))):
        raise ValidationError("state vector contains NaN or Inf amplitudes")
    if dim is not None:
        require_dim("state", psi.size, dim)
    if not unit:
        raise ValidationError(
            f"state vector is not normalized (norm = {length!r})")
    return psi


def as_basis(vectors, what: str, dim: int | None = None) -> np.ndarray:
    """Validate an orthonormal set of states as one read-only (n, d) array,
    row i ``as_state(vectors[i], dim)``: ``_basis_stacks`` of one set."""
    return _basis_stacks([vectors], [what], dim)[0]


def _basis_stacks(sets, whats, dim: int | None = None) -> list[np.ndarray]:
    """Per set of states in ``sets``, its checked, read-only (n, d) stack.

    The sets (lists, tuples or arrays) of one row count n >= 1 are read as
    one (g, n, d) array and checked by one stacked Gram defect: a set of
    size d >= 1 (``dim`` if given) whose diagonal entries, its squared
    norms' distances from 1, are within STATE_MARGIN (which NaN or Inf
    fails) and whose largest entry is within INPUT_TOL passes, as a slice
    of the group.  Every other set is judged, in list order, by the
    per-vector rule, which names it by its ``whats`` entry: a sequence,
    ``as_state`` of each vector (a DimensionMismatchError as it is, any
    other error prefixed), one size, then orthonormal within INPUT_TOL.
    An empty set gives an (0, d) array, d being ``dim`` or 0.
    """
    out = [None] * len(sets)
    groups: dict[int, list[int]] = {}
    for i, vectors in enumerate(sets):
        if isinstance(vectors, (list, tuple)) or (
                isinstance(vectors, np.ndarray) and vectors.ndim):
            groups.setdefault(len(vectors), []).append(i)
    for n, members in groups.items():
        try:
            stack = _as_numbers([sets[i] for i in members], "basis")
        except ValidationError:  # ragged or unreadable: judged per set
            continue
        if not n or stack.ndim != 3 or not stack.shape[2] or (
                dim is not None and stack.shape[2] != dim):
            continue
        defect = _gram_defect(stack)
        passed = ((np.maximum.reduce(defect.diagonal(0, 1, 2), axis=1)
                   <= STATE_MARGIN)
                  & (np.maximum.reduce(defect, axis=(1, 2)) <= INPUT_TOL))
        freeze(stack)
        for i, rows, ok in zip(members, stack, passed.tolist()):
            if ok:
                out[i] = rows
    for i, (vectors, what) in enumerate(zip(sets, whats)):
        if out[i] is not None:
            continue
        vectors = require_sequence(vectors, what, "state vectors")
        try:
            rows = [as_state(v, dim) for v in vectors]
        except DimensionMismatchError:
            raise
        except ValidationError as exc:
            raise ValidationError(f"{what}: {exc}") from exc
        stack = np.zeros((0, dim or 0), dtype=complex)
        if rows:
            require_dim("state", *[row.size for row in rows])
            stack = np.array(rows)
        if not np.maximum.reduce(_gram_defect(stack), axis=None,
                                 initial=0.0) <= INPUT_TOL:
            raise ValidationError(f"{what} is not orthonormal")
        out[i] = freeze(stack)
    return out


def as_square(mat, dim: int | None = None) -> np.ndarray:
    """``_as_matrix`` of ``mat`` with finite entries and, if given, size
    ``dim``, as a fresh array."""
    m = _as_matrix(mat)
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains NaN or Inf entries")
    if dim is not None:
        require_dim("matrix", m.shape[0], dim)
    return m.copy()


@np.errstate(over="ignore")
def norm(psi: np.ndarray) -> float:
    """L2 norm of a complex array by ``np.linalg.norm``'s formula,
    sqrt(re . re + im . im) over the entries in memory order, bit for bit.
    A sum of squares beyond the float range gives inf without a numpy
    warning, so ``as_state`` refuses such a state as not normalized."""
    x = psi.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _as_numbers(value, what: str) -> np.ndarray:
    """``value`` as a complex array; raise ValidationError naming ``what``
    unless it is a number or an array of numbers (numpy reads ``None``,
    text, a mixed list or an integer beyond 64 bits as an object or text
    array, and refuses a ragged one).  The one reading of every array
    argument; an array that is already complex is returned as it is."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nest
        array = None
    if array is None or array.dtype.kind not in "biufc":
        raise ValidationError(f"{what} must be an array of numbers, "
                              f"got {reprlib.repr(value)}")
    return array.astype(complex, copy=False)


def _as_matrix(m) -> np.ndarray:
    """``_as_numbers`` of a matrix, refused unless square, 2-d and not
    empty."""
    m = _as_numbers(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def inner(bra, ket) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    b = _as_numbers(bra, "bra").reshape(-1)
    k = _as_numbers(ket, "ket").reshape(-1)
    require_dim("bra", b.size, k.size)
    return complex(np.vdot(b, k))


def inners(bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Hermitian inner products of the states along the last axis of two
    stacks, whose other axes broadcast: ``np.vdot(bra, ket)`` of each pair,
    bit for bit, as one stacked (1, d) @ (d, 1) product (a 2-d product of
    the stacks rounds differently)."""
    return np.matmul(bras.conj()[..., None, :], kets[..., :, None])[..., 0, 0]


def projector(psi) -> np.ndarray:
    """Rank-1 projector onto the (normalized) state ``psi``."""
    p = _as_numbers(psi, "state").reshape(-1)
    return np.outer(p, p.conj())


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors or two square matrices.

    Index convention: component (i, j) of the product sits at
    ``i * dim(b) + j``.
    """
    aa = _as_numbers(a, "tensor factor")
    bb = _as_numbers(b, "tensor factor")
    if aa.ndim != bb.ndim or aa.ndim not in (1, 2):
        raise ValidationError(
            "tensor expects two vectors or two square matrices")
    return np.kron(aa, bb)


def hermitian_defect(m) -> float:
    """The max-abs entry of M - M^dag, for a square matrix M."""
    return float(_hermitian_defects(_as_matrix(m)))


def _hermitian_defects(m: np.ndarray) -> np.ndarray:
    """max |M - M^dag| over the last two axes: the one Hermitian defect,
    of a matrix or of each matrix of a stack."""
    return np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the max-abs entry of M - M^dag is at most ``tol``, a
    tolerance ``require_tolerance`` accepts."""
    tol = require_tolerance(tol)
    return hermitian_defect(m) <= tol


def require_hermitian(m) -> np.ndarray:
    """Validate hermiticity within ``INPUT_TOL`` and return the matrix."""
    m = as_square(m)
    defect = hermitian_defect(m)
    if defect > INPUT_TOL:
        raise ValidationError(
            f"matrix is not Hermitian (max |M - M^dag| = {defect:.3e})")
    return m


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN, never unitary
def unitary_defect(m) -> float:
    """The max-abs entry of M^dag M - I, for a square matrix M; inf or NaN
    (which no tolerance admits) when an entry is too large to square."""
    m = _as_matrix(m)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def check_unitary(m, tol: float = UNITARY_TOL) -> bool:
    """True iff the max-abs entry of M^dag M - I is at most ``tol``, a
    tolerance ``require_tolerance`` accepts."""
    tol = require_tolerance(tol)
    return unitary_defect(m) <= tol


def is_projector(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff M is idempotent and Hermitian within ``tol``, a tolerance
    ``require_tolerance`` accepts."""
    tol = require_tolerance(tol)
    m = _as_matrix(m)
    return is_hermitian(m, tol) and bool(np.max(np.abs(m @ m - m)) <= tol)


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN: refused
def _gram_defect(stack: np.ndarray) -> np.ndarray:
    """|S* S^T - I| entrywise, for an (n, d) stack S of states as rows, or
    per set of a (g, n, d) stack of such sets, each slice the 2-d value
    bit for bit; diagonal entry i is row i's squared norm's distance
    from 1."""
    return np.abs(stack.conj() @ stack.swapaxes(-1, -2)
                  - np.eye(stack.shape[-2]))


def _hermitian_stack(matrices) -> np.ndarray:
    """A schedule's generators, ``matrices``, read once, by
    ``_as_numbers``, as one checked (S, d, d) stack.

    The stack clears when each is a square matrix of one size d >= 1 with
    a Hermitian defect within INPUT_TOL (``_hermitian_defects``, which an
    entry that is not finite makes inf or NaN, without a warning).
    Otherwise ``require_hermitian`` judges each matrix in order, and then
    ``require_dim`` their sizes, so a refusal is the per-matrix rule's.
    """
    try:
        stack = _as_numbers(matrices, "matrix")
    except ValidationError:  # unreadable or ragged: judged per matrix
        stack = None
    if stack is not None and stack.ndim == 3 and (
            1 <= stack.shape[1] == stack.shape[2]):
        with np.errstate(over="ignore", invalid="ignore"):
            if np.all(_hermitian_defects(stack) <= INPUT_TOL):
                return stack
    checked = [require_hermitian(m) for m in matrices]
    require_dim("segment Hamiltonian", *[m.shape[0] for m in checked])
    return np.array(checked)


def is_orthonormal(vectors, tol: float = DEFAULT_TOL) -> bool:
    """True iff the given vectors form an orthonormal set (the empty set
    does): no entry of their Gram defect above ``tol``, a tolerance
    ``require_tolerance`` accepts.  Vectors of different dimensions raise
    DimensionMismatchError, and what is not a sequence (``require_sequence``)
    of vectors of numbers, or a bad ``tol``, ValidationError."""
    tol = require_tolerance(tol)
    vecs = [_as_numbers(v, "vector").reshape(-1)
            for v in require_sequence(vectors, "vectors", "vectors")]
    if not vecs:
        return True
    require_dim("vector", *[v.size for v in vecs])
    return bool(np.max(_gram_defect(np.array(vecs))) <= tol)


def complete_basis(first) -> list[np.ndarray]:
    """Orthonormal basis whose first element is the given unit vector.

    Deterministic: the remaining vectors come from Gram-Schmidt over the
    computational basis, skipping directions already spanned.
    """
    v0 = as_state(first)
    dim = v0.size
    basis = [v0]
    for i in range(dim):
        cand = np.zeros(dim, dtype=complex)
        cand[i] = 1.0
        for b in basis:
            cand = cand - np.vdot(b, cand) * b
        n = np.linalg.norm(cand)
        if n > INPUT_TOL:
            basis.append(cand / n)
        if len(basis) == dim:
            break
    if len(basis) != dim:
        raise ValidationError("failed to complete basis")
    return basis
