"""Schmidt decomposition and entanglement-assisted invariance.

A transformation on subsystem A is entanglement-assisted invariant for a
bipartite state when some transformation acting only on subsystem B
returns the joint state to itself.  The counter-transformations searched
here are permutations-with-phases in the computed Schmidt basis of B; that
family suffices to exhibit the invariance of equal-amplitude states under
Schmidt-basis permutations and its failure when the coefficients differ.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class BipartiteState(linalg.Frozen):
    """Normalized state of an (A, B) pair, stored as one flat, read-only
    amplitude vector (a checked copy of the one given); == is identity.

    Component (i, j) of the joint computational basis sits at index
    ``i * dim_b + j``.
    """

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        for name in ("dim_a", "dim_b"):
            object.__setattr__(self, name, linalg.require_count(
                getattr(self, name), name, 1))
        amps = linalg.as_state(self.amplitudes, self.dim_a * self.dim_b)
        object.__setattr__(self, "amplitudes", linalg.freeze(amps))

    @classmethod
    def from_matrix(cls, matrix) -> "BipartiteState":
        """The state whose coefficient grid is ``matrix``, a 2-d array of
        numbers; ValidationError otherwise."""
        m = linalg._as_numbers(matrix, "amplitude matrix")
        if m.ndim != 2:
            raise ValidationError("amplitude matrix must be a 2-d array of "
                                  f"numbers, got {reprlib.repr(matrix)}")
        return cls(m.shape[0], m.shape[1], m.reshape(-1))

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes as a dim_a x dim_b coefficient grid."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)


@dataclass(frozen=True, eq=False)
class SchmidtForm(linalg.Frozen):
    """Schmidt data: descending non-negative coefficients and the two bases.

    ``basis_a`` and ``basis_b`` are full orthonormal bases of their
    subsystems, held as read-only views of the vectors given; coefficients
    beyond ``len(coefficients)`` are zero.  ``==`` is identity.
    """

    coefficients: tuple[float, ...]
    basis_a: tuple[np.ndarray, ...]
    basis_b: tuple[np.ndarray, ...]

    def __post_init__(self):
        self._hold_views("basis_a", "basis_b")

    @property
    def rank(self) -> int:
        return sum(1 for c in self.coefficients if c > linalg.SUPPORT_TOL)

    def reconstruct(self) -> np.ndarray:
        """Sum of c_k |a_k>|b_k> as a flat amplitude vector."""
        out = np.zeros(self.basis_a[0].size * self.basis_b[0].size,
                       dtype=complex)
        for c, a, b in zip(self.coefficients, self.basis_a, self.basis_b):
            out += c * linalg.tensor(a, b)
        return out


def schmidt_decompose(psi: BipartiteState) -> SchmidtForm:
    """Schmidt form of a bipartite state via the SVD of its amplitude grid."""
    linalg.require_instance(psi, BipartiteState, "bipartite state")
    u, s, vh = np.linalg.svd(psi.matrix, full_matrices=True)
    return SchmidtForm(
        coefficients=tuple(float(c) for c in s),
        basis_a=tuple(u.T), basis_b=tuple(vh))


@dataclass(frozen=True, eq=False)
class EnvarianceResult(linalg.Frozen):
    """Verdict of an invariance search, with the counter-transformation, a
    read-only view of the matrix given; == is identity."""

    envariant: bool
    counter: np.ndarray | None = None
    residual: float | None = None

    def __post_init__(self):
        self._hold_views("counter")


def check_envariance(psi: BipartiteState, u_a,
                     tol: float = linalg.DEFAULT_TOL) -> EnvarianceResult:
    """Search for a B-side counter to the A-side transformation ``u_a``.

    The candidate counters are permutations-with-phases in the Schmidt
    basis of B.  Such a counter exists exactly when, on the Schmidt
    support, ``u_a`` maps each A-Schmidt vector to a phase times another
    A-Schmidt vector with the same coefficient; the phases are then solved
    from the matching conditions rather than searched.  The returned
    counter always satisfies (I x U_B)(U_A x I)|psi> = |psi> within tol.
    Raises ValidationError on a NaN or negative ``tol``.
    """
    linalg.require_instance(psi, BipartiteState, "bipartite state")
    tol = linalg.require_tolerance(tol)
    u_a = linalg.as_square(u_a, psi.dim_a)
    if not linalg.check_unitary(u_a, linalg.INPUT_TOL):
        raise ValidationError("transformation on A must be unitary")
    form = schmidt_decompose(psi)
    coeffs = np.array(form.coefficients)
    a_cols = np.column_stack(form.basis_a)
    # u_a in the A-Schmidt basis
    w = a_cols.conj().T @ u_a @ a_cols

    perm: dict[int, int] = {}
    phases: dict[int, float] = {}
    for m in range(psi.dim_a):
        if m >= coeffs.size or coeffs[m] <= linalg.SUPPORT_TOL:
            continue
        j = int(np.argmax(np.abs(w[:, m])))
        entry = w[j, m]
        if abs(abs(entry) - 1.0) > tol:
            return EnvarianceResult(envariant=False)
        c_j = coeffs[j] if j < coeffs.size else 0.0
        if abs(c_j - coeffs[m]) > tol:
            return EnvarianceResult(envariant=False)
        if j in perm.values():
            return EnvarianceResult(envariant=False)
        perm[m] = j
        phases[m] = -float(np.angle(entry))

    # a coefficient within tol of zero can match an A direction outside the
    # support, possibly one with no B partner: drop the matches that have
    # none and map the unmatched B directions onto the unused ones in order,
    # so the counter is unitary and the residual decides
    perm = {m: j for m, j in perm.items() if j < psi.dim_b}
    unused = iter(sorted(set(range(psi.dim_b)) - set(perm.values())))
    b_cols = np.column_stack(form.basis_b)
    u_b = np.zeros((psi.dim_b, psi.dim_b), dtype=complex)
    for m, j in perm.items():
        u_b += np.exp(1j * phases[m]) * np.outer(b_cols[:, j],
                                                 b_cols[:, m].conj())
    for m in range(psi.dim_b):
        if m not in perm:
            u_b += np.outer(b_cols[:, next(unused)], b_cols[:, m].conj())

    moved = linalg.tensor(u_a, np.eye(psi.dim_b)) @ psi.amplitudes
    restored = linalg.tensor(np.eye(psi.dim_a), u_b) @ moved
    residual = float(np.linalg.norm(restored - psi.amplitudes))
    if residual > tol:
        return EnvarianceResult(envariant=False, residual=residual)
    return EnvarianceResult(envariant=True, counter=u_b, residual=residual)
