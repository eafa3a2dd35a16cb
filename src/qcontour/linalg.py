"""Dense complex linear-algebra kernel.

State vectors are 1-d ``complex128`` arrays, operators are square 2-d
arrays.  Everything here is a pure function of its inputs; arrays returned
by constructors are fresh copies, so values can be shared freely.

Units: hbar = 1 throughout, so ``hermitian_exp(H, t)`` is the propagator
for a constant generator H over a time interval t.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError

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


def require_tolerance(tol) -> float:
    """Return ``tol`` as a float; raise ValidationError if NaN or negative.

    NaN compares false both ways, so a NaN tolerance would let a
    ``value > tol`` violation test pass everything.
    """
    tol = float(tol)
    if not tol >= 0.0:
        raise ValidationError(
            f"tolerance must be a non-negative number, got {tol!r}")
    return tol


def as_state(vec, dim: int | None = None, *,
             normalized: bool = True) -> np.ndarray:
    """Coerce ``vec`` to a complex state vector and validate it.

    Checks finiteness, optional dimension and (by default) unit L2 norm.
    Returns a fresh array.
    """
    psi = np.asarray(vec, dtype=complex).reshape(-1).copy()
    if psi.size < 1:
        raise ValidationError("state vector must have dimension >= 1")
    if not np.all(np.isfinite(psi.view(float))):
        raise ValidationError("state vector contains NaN or Inf amplitudes")
    if dim is not None and psi.size != dim:
        raise DimensionMismatchError(
            f"expected dimension {dim}, got {psi.size}")
    if normalized and abs(norm(psi) - 1.0) > DEFAULT_TOL:
        raise ValidationError(
            f"state vector is not normalized (norm = {norm(psi)!r})")
    return psi


def as_square(mat, dim: int | None = None) -> np.ndarray:
    """Coerce ``mat`` to a square complex matrix and validate its shape."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains NaN or Inf entries")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatchError(
            f"expected dimension {dim}, got {m.shape[0]}")
    return m.copy()


def norm(psi) -> float:
    return float(np.linalg.norm(np.asarray(psi, dtype=complex)))


def normalize(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    n = norm(psi)
    if n == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return psi / n


def inner(bra, ket) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    b = np.asarray(bra, dtype=complex).reshape(-1)
    k = np.asarray(ket, dtype=complex).reshape(-1)
    if b.size != k.size:
        raise DimensionMismatchError(
            f"inner product of dimensions {b.size} and {k.size}")
    return complex(np.vdot(b, k))


def projector(psi) -> np.ndarray:
    """Rank-1 projector onto the (normalized) state ``psi``."""
    p = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(p, p.conj())


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors or two square matrices.

    Index convention: component (i, j) of the product sits at
    ``i * dim(b) + j``.
    """
    aa = np.asarray(a, dtype=complex)
    bb = np.asarray(b, dtype=complex)
    if aa.ndim != bb.ndim or aa.ndim not in (1, 2):
        raise ValidationError(
            "tensor expects two vectors or two square matrices")
    return np.kron(aa, bb)


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def require_hermitian(m) -> np.ndarray:
    """Validate hermiticity within ``INPUT_TOL`` and return the matrix."""
    m = as_square(m)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > INPUT_TOL:
        raise ValidationError(
            f"matrix is not Hermitian (max |M - M^dag| = {defect:.3e})")
    return m


def hermitian_exp(h, theta: float) -> np.ndarray:
    """exp(-i * theta * H) for Hermitian H, via eigendecomposition.

    The result is unitary to machine precision because the eigenvector
    matrix of a Hermitian operator is unitary.
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * theta * w)
    return (v * phases) @ v.conj().T


def check_unitary(m, tol: float = UNITARY_TOL) -> bool:
    """True iff the max-abs entry of M^dag M - I is at most ``tol``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) <= tol)


def is_projector(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff M is idempotent and Hermitian within ``tol``."""
    m = np.asarray(m, dtype=complex)
    return is_hermitian(m, tol) and bool(np.max(np.abs(m @ m - m)) <= tol)


def is_orthonormal(vectors, tol: float = DEFAULT_TOL) -> bool:
    """True iff the given vectors form an orthonormal set (the empty set
    does)."""
    if len(vectors) == 0:
        return True
    stack = np.array([np.asarray(v, dtype=complex).reshape(-1)
                      for v in vectors])
    gram = stack.conj() @ stack.T
    return bool(np.max(np.abs(gram - np.eye(len(vectors)))) <= tol)


def require_orthonormal(vectors, what: str) -> None:
    """Raise ValidationError naming ``what`` unless orthonormal (INPUT_TOL)."""
    if not is_orthonormal(vectors, INPUT_TOL):
        raise ValidationError(f"{what} is not orthonormal")


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
