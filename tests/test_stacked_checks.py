"""A schedule's generators and a recipe's bases are checked as stacks.

``HamiltonianSchedule`` reads its generators as one (S, d, d) stack, checks
it with one finite-and-Hermitian defect and diagonalizes it with one
stacked ``eigh``; ``FamilySpec`` checks its bases with one stacked Gram
defect per group of equal row count.  The per-item rules
(``require_hermitian``, the per-vector basis rule) judge what the stacks
do not clear, inside ``linalg``, so every input gets the verdict, and
every refusal the class and message, of the per-item path.  Each property
here compares the two paths: the per-item one is the same constructor
with every stacked defect forced to fail.
"""

import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import FamilySpec, FixedPoint, HamiltonianSchedule, propagate
from qcontour import linalg
from qcontour.linalg import INPUT_TOL
from qcontour.sampling import (random_hermitian, random_orthonormal_basis,
                               rng_from_seed)


def bits(a) -> tuple:
    """An array's shape, dtype and bytes in C order: equal bits."""
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def outcome(build):
    """What ``build()`` returns, or the class and message it raises, with
    every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return build()
        except Exception as exc:  # noqa: BLE001 - compared by class, text
            return type(exc), str(exc)


@st.composite
def shuffled_segments(draw):
    """(segments listed out of time order, generators in time order): 1-4
    contiguous segments of one random generator each, at d 2-8."""
    rng = rng_from_seed(draw(st.integers(0, 10 ** 6)))
    dim, count = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    edges = np.cumsum(rng.uniform(0.1, 1.0, size=count + 1)).tolist()
    hs = [random_hermitian(rng, dim) for _ in range(count)]
    order = draw(st.permutations(range(count)))
    return [(edges[i], edges[i + 1], hs[i]) for i in order], hs


class TestStackedEigen:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_segments(), st.floats(0.0, 2.0),
           st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    def test_each_exponential_is_its_own_segments_eigh(self, case, dt, dts):
        segments, hs = case
        sched = HamiltonianSchedule(segments)
        stacked = np.array(dts)[:, None, None]
        for index, h in enumerate(hs):
            assert bits(sched.segments[index][2]) == bits(h)
            w, v = np.linalg.eigh(h)
            for step in (dt, stacked):
                want = (v * np.exp(-1j * step * w)) @ v.conj().T
                assert bits(sched._segment_exp(index, step)) == bits(want)

    def test_one_eigh_per_schedule(self, monkeypatch):
        rng = rng_from_seed(41)
        sched = HamiltonianSchedule([(t, t + 1.0, random_hermitian(rng, 3))
                                     for t in (2.0, 0.0, 1.0)])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a: calls.append(a) or eigh(*a))
        propagate(sched, 0.5, 2.5)
        propagate(sched, 2.9, 0.1)
        assert [a[0].shape for a in calls] == [(3, 3, 3)]

    def test_the_generators_are_read_only_copies(self):
        h = random_hermitian(rng_from_seed(42), 2)
        sched = HamiltonianSchedule([(1.0, 2.0, h), (0.0, 1.0, h.T)])
        h[0, 1] = 5.0  # the caller's array is not the schedule's
        assert sched.segments[1][2][0, 1] != 5.0
        for _, _, g in sched.segments:
            assert not g.flags.writeable


def _bad_generator(kind, h, rng):
    if kind == "nan":
        return np.where(np.eye(len(h), dtype=bool), math.nan, h)
    if kind == "inf":
        bad = h.copy()
        bad[0, 1] = math.inf
        return bad
    if kind == "text":
        return [["a"] * len(h)] * len(h)
    if kind == "size":
        return random_hermitian(rng, len(h) + 1)
    bad = h.copy()  # a Hermitian defect of 2 INPUT_TOL
    bad[0, 1] += 2 * INPUT_TOL
    return bad


@st.composite
def schedules_with_one_fault(draw):
    """Segments listed out of time order, one of them faulty: a generator
    with NaN, Inf, text, the wrong size or a Hermitian defect of 2
    INPUT_TOL, or times that are reversed or NaN."""
    segments, _ = draw(shuffled_segments())
    rng = rng_from_seed(draw(st.integers(0, 10 ** 6)))
    k = draw(st.integers(0, len(segments) - 1))
    t0, t1, h = segments[k]
    kinds = ["nan", "inf", "text", "defect", "reversed", "nan-time"]
    kind = draw(st.sampled_from(kinds + ["size"] * (len(segments) > 1)))
    if kind == "reversed":
        segments[k] = (t1, t0, h)
    elif kind == "nan-time":
        segments[k] = (t0, math.nan, h)
    else:
        segments[k] = (t0, t1, _bad_generator(kind, h, rng))
    return segments


def _per_item(defect, build):
    """``outcome(build)`` with ``linalg.<defect>`` NaN wherever it is taken
    of a stack (a 3-d array), so no stack clears and the per-item rule
    judges every item; its 2-d value, which the per-item rule takes, is
    the real one."""
    real = getattr(linalg, defect)

    def failing(m):
        return np.full_like(real(m), math.nan) if m.ndim == 3 else real(m)
    with mock.patch.object(linalg, defect, failing):
        return outcome(build)


def _per_item_schedule(segments):
    return _per_item("_hermitian_defects",
                     lambda: HamiltonianSchedule(segments))


class TestScheduleRefusals:
    @settings(max_examples=80, deadline=None)
    @given(schedules_with_one_fault())
    def test_one_fault_is_refused_as_the_per_item_rule_refuses_it(
            self, segments):
        want = _per_item_schedule(segments)
        assert isinstance(want, tuple)  # refused
        assert outcome(lambda: HamiltonianSchedule(segments)) == want

    @settings(max_examples=30, deadline=None)
    @given(shuffled_segments())
    def test_a_good_schedule_is_the_per_item_one(self, case):
        segments, _ = case
        want = _per_item_schedule(segments)
        got = outcome(lambda: HamiltonianSchedule(segments))
        assert [(a, b, bits(h)) for a, b, h in got.segments] \
            == [(a, b, bits(h)) for a, b, h in want.segments]
        t0, t1 = got.t_min, got.t_max
        assert bits(propagate(got, t0, t1)) == bits(propagate(want, t0, t1))


#: a squared norm past STATE_MARGIN that ``as_state`` still accepts, two
#: norms ``as_state`` refuses, and overlaps either side of INPUT_TOL
SCALES = (1 + 4e-11, 1 - 4e-11, 1 + 2e-10, 1 - 2e-10)
OVERLAPS = (INPUT_TOL - 1e-12, INPUT_TOL + 1e-12)


def _form(basis, kind):
    """A basis as a tuple of vectors, one (n, d) array, or nested lists."""
    if kind == "tuple":
        return tuple(np.asarray(v) for v in basis)
    if kind == "array":
        return np.array(basis)
    return [[complex(z) for z in v] for v in basis]


def _faulty_basis(kind, basis, rng, draw):
    vectors = [np.array(v) for v in basis]
    if kind == "nan":
        vectors[-1][0] = math.nan
    elif kind == "inf":
        vectors[0][-1] = math.inf
    elif kind == "text":
        return [["x"] * len(v) for v in vectors]
    elif kind == "norm":
        vectors[-1] = vectors[-1] * draw(st.sampled_from(SCALES))
    elif kind == "overlap":
        s = draw(st.sampled_from(OVERLAPS))
        vectors[1] = math.sqrt(1 - s * s) * vectors[1] + s * vectors[0]
    elif kind == "ragged":
        vectors[-1] = np.append(vectors[-1], 0.0)
    elif kind == "size":
        return random_orthonormal_basis(rng, len(vectors) + 1)
    elif kind == "empty":
        return ()
    return vectors


@st.composite
def recipes_with_one_fault(draw):
    """(times, bases, constraints) of a recipe at d 2-5 over 2-5 grid
    times, one basis replaced: NaN, Inf or text entries, a norm at
    1 +- 4e-11 (accepted) or 1 +- 2e-10, an overlap of INPUT_TOL -+ 1e-12,
    a ragged set, a set of the wrong size, or an empty set; each basis is
    a tuple of vectors, an array or nested lists, and the first time may
    be pinned."""
    rng = rng_from_seed(draw(st.integers(0, 10 ** 6)))
    dim, count = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    times = tuple(0.5 * k for k in range(count))
    bases = [random_orthonormal_basis(rng, dim) for _ in range(count)]
    k = draw(st.integers(0, count - 1))
    kind = draw(st.sampled_from(["nan", "inf", "text", "norm", "overlap",
                                 "ragged", "size", "empty"]))
    bases[k] = _faulty_basis(kind, bases[k], rng, draw)
    forms = [b if i == k and kind == "text" else _form(b, draw(
        st.sampled_from(["tuple", "lists"] + ["array"] * (
            i != k or kind != "ragged")))) for i, b in enumerate(bases)]
    pins = ()
    if draw(st.booleans()):
        pins = (FixedPoint(0.0, random_orthonormal_basis(rng, dim)[0]),)
    return times, tuple(forms), pins


def _spec_view(spec):
    """A recipe's checked bases and slot states, as bits."""
    if isinstance(spec, tuple):
        return spec
    return ([[bits(row) for row in rows] for rows in spec.bases],
            [bits(s) for s in spec.slot_states],
            all(not row.flags.writeable for rows in spec.bases
                for row in rows))


class TestRecipeRefusals:
    @settings(max_examples=150, deadline=None)
    @given(recipes_with_one_fault())
    def test_each_verdict_and_refusal_is_the_per_item_one(self, recipe):
        times, bases, pins = recipe

        def build():
            return FamilySpec(times=times, bases=bases, constraints=pins)
        want = _spec_view(_per_item("_gram_defect", build))
        assert _spec_view(outcome(build)) == want

    def test_each_threshold_case_gets_the_per_item_verdict(self):
        # the property draws these cases among many; each is pinned here
        rng = rng_from_seed(43)
        basis = random_orthonormal_basis(rng, 3)
        for kind, values in (("norm", SCALES), ("overlap", OVERLAPS)):
            for value in values:
                faulty = _faulty_basis(kind, basis, rng, lambda _: value)

                def build():
                    return FamilySpec(times=(0.0, 0.5), bases=(basis, faulty))
                want = _spec_view(_per_item("_gram_defect", build))
                assert _spec_view(outcome(build)) == want, (kind, value)
