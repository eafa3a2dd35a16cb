"""Seeded random generators for states, bases, schedules and models.

All randomness flows through the counter-based Philox generator so that
every seeded run is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .dynamics import HamiltonianSchedule
from .histories import FixedPoint
from .models import ModelSpec


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox generator keyed by a non-negative integer seed."""
    return np.random.Generator(np.random.Philox(
        linalg.require_count(seed, "seed", 0)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unit vector."""
    dim = linalg.require_count(dim, "dimension", 1)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    dim = linalg.require_count(dim, "dimension", 1)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via the QR of a Ginibre matrix."""
    dim = linalg.require_count(dim, "dimension", 1)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthonormal_basis(rng: np.random.Generator,
                             dim: int) -> list[np.ndarray]:
    u = haar_unitary(rng, dim)
    return [u[:, k].copy() for k in range(dim)]


def random_schedule(rng: np.random.Generator, times,
                    dim: int) -> HamiltonianSchedule:
    """Independent random Hermitian generator on each grid interval."""
    dim = linalg.require_count(dim, "dimension", 1)
    times = [float(t) for t in times]
    segments = [(a, b, random_hermitian(rng, dim))
                for a, b in zip(times, times[1:])]
    return HamiltonianSchedule(segments)


def random_model(rng: np.random.Generator, times, dim: int,
                 s_t: int) -> ModelSpec:
    """A random model over the grid ``times``: draws, in this order, the
    schedule, one basis per time and a preparation ``"prep"`` pinned at the
    first time; ``s_t = 2`` also pins a ``"final"`` state at the last."""
    s_t = linalg.require_count(s_t, "s_t", 1, 2)
    dim = linalg.require_count(dim, "dimension", 1)
    times = linalg.require_sequence(times, "grid times", "times")
    schedule = random_schedule(rng, times, dim)
    bases = tuple(tuple(random_orthonormal_basis(rng, dim)) for _ in times)
    constraints = [FixedPoint(times[0], random_state(rng, dim), label="prep")]
    if s_t == 2:
        constraints.append(FixedPoint(times[-1], random_state(rng, dim),
                                      label="final"))
    return ModelSpec(times=times, schedule=schedule, bases=bases,
                     constraints=tuple(constraints))
