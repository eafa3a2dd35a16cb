"""Shared fixtures-in-spirit: standard matrices and small model builders."""

import math

import numpy as np

from hypothesis import strategies as st

from qcontour import (FixedPoint, HamiltonianSchedule, HistoryFamily,
                      ModelSpec, QuantumHistory, enumerate_family)
from qcontour.sampling import random_model, random_state, rng_from_seed

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = (E0 + E1) / math.sqrt(2)
MINUS = (E0 - E1) / math.sqrt(2)


def count_calls(monkeypatch, owner, name, *also):
    """Record the arguments of every call to ``owner.name`` from now on;
    the same spy replaces the name in each module of ``also`` too."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for target in (owner, *also):
        monkeypatch.setattr(target, name, spy)
    return calls


def computational_basis(dim):
    return tuple(np.eye(dim, dtype=complex)[:, k].copy() for k in range(dim))


def zero_schedule(dim, t_start=0.0, t_end=1.0):
    return HamiltonianSchedule.constant(np.zeros((dim, dim)), t_start, t_end)


def sx_schedule(t_end=math.pi / 4):
    return HamiltonianSchedule.constant(SX, 0.0, t_end)


def random_family_spec(seed, dim, n_times, s_t):
    """A random model over a random grid and its schedule; s_t = 1 pins the
    first time, s_t = 2 pins both endpoints."""
    rng = rng_from_seed(seed)
    times = np.sort(rng.uniform(0.0, 2.0, size=n_times))
    while np.min(np.diff(times)) < 1e-3:
        times = np.sort(rng.uniform(0.0, 2.0, size=n_times))
    model = random_model(rng, (float(t) for t in times), dim, s_t)
    return model, model.schedule


#: (seed, d, N_t, S_t) for a random family: d 2-4, N_t 2-5, one or both
#: endpoints pinned
FAMILY_SHAPES = st.tuples(st.integers(0, 10 ** 6), st.integers(2, 4),
                          st.integers(2, 5), st.sampled_from([1, 2]))
#: the same at d 5-8, where BLAS picks other kernels (``family_large``
#: runs at d=8), over a short grid (N_t 2-3) so the families stay small
WIDE_SHAPES = st.tuples(st.integers(0, 10 ** 6), st.integers(5, 8),
                        st.integers(2, 3), st.sampled_from([1, 2]))


def reversed_model(model):
    """``model`` under time reversal: t -> t_0 + t_N - t, with the slots in
    reverse order; every basis vector and pin conjugated; each segment's
    H -> H*, with the segments in reverse order.  A reversed step is the
    original's transpose, U^T, so every step amplitude keeps its value and
    the weight tensor is the original's with its axes reversed."""
    t_0, t_n = model.times[0], model.times[-1]

    def flip(t):
        return t_0 + t_n - t
    return ModelSpec(
        times=tuple(flip(t) for t in reversed(model.times)),
        bases=tuple(tuple(v.conj() for v in basis)
                    for basis in reversed(model.bases)),
        constraints=tuple(FixedPoint(flip(fp.time), fp.state.conj(), fp.label)
                          for fp in reversed(model.constraints)),
        schedule=HamiltonianSchedule(
            [(flip(b), flip(a), h.conj())
             for a, b, h in reversed(model.schedule.segments)]))


def family_variants(spec, seed):
    """The enumerated family and three hand-built relatives.

    ``duplicated`` repeats one member, ``tampered`` replaces one member's
    state at one slot by a random one, and ``fresh`` rebuilds every member
    from new FixedPoint objects, so no two members share any.
    """
    fam = enumerate_family(spec)
    hs = fam.histories
    rng = rng_from_seed(seed)
    k = int(rng.integers(len(hs)))
    points = list(hs[k].points)
    slot = int(rng.integers(len(points)))
    points[slot] = FixedPoint(points[slot].time,
                              random_state(rng, spec.dim), "tampered")
    fresh = tuple(QuantumHistory(FixedPoint(p.time, p.state, p.label)
                                 for p in h.points) for h in hs)
    return {
        "enumerated": fam,
        "duplicated": HistoryFamily(histories=hs + (hs[k],)),
        "tampered": HistoryFamily(
            histories=hs[:k] + (QuantumHistory(points),) + hs[k + 1:]),
        "fresh": HistoryFamily(histories=fresh),
    }
