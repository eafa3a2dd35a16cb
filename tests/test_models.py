import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontour import (DecompositionMode, DimensionMismatchError, FamilySpec,
                      FixedPoint, HamiltonianSchedule, ModelFormatError,
                      ModelSpec, ToyBundle, ValidationError,
                      decoherence_report, decompose_total_measure,
                      enumerate_family, is_orthonormal, linalg, load_model,
                      measure_report, model_from_dict, model_to_dict,
                      save_model, segment_amplitude, sequential_chain,
                      transfer_chain, validate_family)
from qcontour.models import matrix_from_json, vector_from_json
from qcontour.sampling import (random_model, random_orthonormal_basis,
                               random_schedule, random_state, rng_from_seed)
from toys import E0, E1, computational_basis, count_calls, zero_schedule

SX_PAIRS = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


def born_model_dict(theta=math.pi / 4):
    return {
        "dim": 2,
        "grid": [0.0, theta],
        "hamiltonian": [{"t_start": 0.0, "t_end": theta, "matrix": SX_PAIRS}],
        "constraints": [{"time": 0.0, "state": [[1, 0], [0, 0]],
                         "label": "prep"}],
    }


class TestParsing:
    def test_minimal_model(self):
        model = model_from_dict(born_model_dict())
        assert model.dim == 2
        assert len(model.times) == 2
        assert len(model.constraints) == 1
        np.testing.assert_allclose(model.bases[0][0], [1, 0])

    def test_missing_key(self):
        doc = born_model_dict()
        del doc["hamiltonian"]
        with pytest.raises(ModelFormatError, match="hamiltonian"):
            model_from_dict(doc)

    def test_bad_complex_pair(self):
        doc = born_model_dict()
        doc["constraints"][0]["state"] = [[1, 0], [0]]
        with pytest.raises(ModelFormatError, match=r"state\[1\]"):
            model_from_dict(doc)

    def test_non_hermitian_rejected(self):
        doc = born_model_dict()
        doc["hamiltonian"][0]["matrix"] = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(ValidationError, match="Hermitian"):
            model_from_dict(doc)

    def test_constraint_off_grid_rejected(self):
        doc = born_model_dict()
        doc["constraints"][0]["time"] = 0.123
        with pytest.raises(ValidationError, match="grid"):
            model_from_dict(doc)

    def test_non_orthonormal_basis_rejected(self):
        doc = born_model_dict()
        doc["bases"] = [None, [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]]
        with pytest.raises(ValidationError, match="orthonormal"):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [None, {}, {"time": 0.0}, "c0", 3])
    def test_constraints_not_a_list_rejected(self, value):
        doc = born_model_dict()
        doc["constraints"] = value
        with pytest.raises(ModelFormatError, match="^constraints: "):
            model_from_dict(doc)

    def test_parse_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "grid": [0.0,]\n}')
        with pytest.raises(ModelFormatError, match="line 2"):
            load_model(path)


class TestRoundTrip:
    def test_save_load_reproduces_computations_exactly(self, tmp_path):
        model = model_from_dict(born_model_dict())
        path = tmp_path / "model.json"
        save_model(model, path)
        reloaded = load_model(path)

        first = measure_report(enumerate_family(model),
                               model.schedule, steps_per_segment=8)
        second = measure_report(enumerate_family(reloaded),
                                reloaded.schedule, steps_per_segment=8)
        assert (first.entries, first.normalization, first.constraint_times) \
            == (second.entries, second.normalization, second.constraint_times)

    def test_dict_round_trip_stable(self):
        doc = born_model_dict()
        once = model_to_dict(model_from_dict(doc))
        twice = model_to_dict(model_from_dict(json.loads(json.dumps(once))))
        assert once == twice

    def test_save_load_is_bit_for_bit(self, tmp_path):
        rng = rng_from_seed(62)
        times = (0.0, 0.4, 1.1)
        model = ModelSpec(
            times=times, schedule=random_schedule(rng, times, 3),
            bases=tuple(tuple(random_orthonormal_basis(rng, 3))
                        for _ in times),
            constraints=(FixedPoint(0.0, random_state(rng, 3), "prep"),
                         FixedPoint(1.1, random_state(rng, 3), "final")))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        reloaded = load_model(first)
        save_model(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded.times == model.times
        for a, b in zip(reloaded.bases, model.bases, strict=True):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(reloaded.constraints, model.constraints, strict=True):
            assert (a.time, a.label) == (b.time, b.label)
            np.testing.assert_array_equal(a.state, b.state)
        for a, b in zip(reloaded.schedule.segments, model.schedule.segments,
                        strict=True):
            assert a[:2] == b[:2]
            np.testing.assert_array_equal(a[2], b[2])

    def test_preparation_key_is_ignored(self):
        doc = born_model_dict()
        doc["preparation"] = [[0, 0], [1, 0]]
        assert model_to_dict(model_from_dict(doc)) \
            == model_to_dict(model_from_dict(born_model_dict()))
        assert "preparation" not in model_to_dict(model_from_dict(doc))


class TestToyBundle:
    @staticmethod
    def model(pivot_time):
        rng = rng_from_seed(61)
        times = (0.0, 0.5, 1.2)
        bases = tuple(tuple(random_orthonormal_basis(rng, 3)) for _ in times)
        pivot = FixedPoint(pivot_time, random_state(rng, 3), label="pivot")
        return ModelSpec(times=times,
                         schedule=random_schedule(rng, times, 3),
                         bases=bases, constraints=(pivot,))

    def test_branches_are_the_outer_basis_fixed_points(self):
        model = self.model(0.5)
        past, (pivot,), future = model.slots
        assert pivot is model.constraints[0]
        for branches, t, basis in ((past, 0.0, model.bases[0]),
                                   (future, 1.2, model.bases[2])):
            assert [b.label for b in branches] == ["0", "1", "2"]
            assert all(b.time == t for b in branches)
            for b, v in zip(branches, basis, strict=True):
                np.testing.assert_array_equal(b.state, v)
        w_past = [abs(segment_amplitude(p, pivot, model.schedule)) ** 2
                  for p in past]
        w_future = [abs(segment_amplitude(pivot, f, model.schedule)) ** 2
                    for f in future]
        mdrw = decompose_total_measure(model, model.schedule,
                                       DecompositionMode.MDRW)
        assert mdrw.terms == tuple(wp * wf for wp in w_past
                                   for wf in w_future)

    def test_pivot_must_sit_at_the_middle_time(self):
        model = self.model(0.0)
        with pytest.raises(ValidationError, match="at the middle time"):
            decompose_total_measure(model, model.schedule,
                                    DecompositionMode.MORW)

    @pytest.mark.parametrize("mode", list(DecompositionMode))
    def test_model_decomposes_as_its_toy_bundle(self, mode):
        model = self.model(0.5)
        past, _, future = model.slots
        bundle = ToyBundle(past=past, pivot=model.constraints[0],
                           future=future)
        assert decompose_total_measure(model, model.schedule, mode) \
            == decompose_total_measure(bundle, model.schedule, mode)


class TestModelSpec:
    """A model is its family recipe plus a schedule, checked once."""

    def test_schedule_is_the_only_field_beyond_the_recipe(self):
        own = {f.name for f in fields(ModelSpec)} \
            - {f.name for f in fields(FamilySpec)}
        assert own == {"schedule"}
        assert isinstance(model_from_dict(born_model_dict()), FamilySpec)

    def test_equality_is_identity(self):
        first, second = (model_from_dict(born_model_dict()) for _ in range(2))
        assert first == first and first != second
        assert len({first, second}) == 2

    def test_each_basis_is_checked_once(self, monkeypatch, tmp_path):
        path = tmp_path / "model.json"
        save_model(TestToyBundle.model(0.5), path)
        # one stacked check of all the bases, each named by its time, and
        # none per basis
        checked = count_calls(monkeypatch, linalg, "_basis_stacks")
        per_set = count_calls(monkeypatch, linalg, "as_basis")
        model = load_model(path)
        assert [whats for _, whats in checked] == [
            [f"basis at time {t}" for t in model.times]]
        assert [len(sets) for sets, _ in checked] == [len(model.times)]
        assert per_set == []
        checked.clear()
        enumerate_family(model)
        transfer_chain(model, model.schedule)
        assert checked == [] and per_set == []
        for mode in DecompositionMode:
            decompose_total_measure(model, model.schedule, mode)
        assert checked == [] and per_set == []

    def test_direct_build_checks_the_schedule(self):
        recipe = dict(times=(0.0, 1.0), bases=(computational_basis(2),) * 2,
                      constraints=(FixedPoint(0.0, E0),))
        ModelSpec(schedule=zero_schedule(2), **recipe)
        with pytest.raises(DimensionMismatchError, match="schedule"):
            ModelSpec(schedule=zero_schedule(3), **recipe)
        for t_start, t_end in ((0.0, 0.5), (0.5, 1.0)):
            with pytest.raises(ValidationError, match="does not cover"):
                ModelSpec(schedule=zero_schedule(2, t_start, t_end), **recipe)

    def test_direct_build_checks_the_recipe(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ModelSpec(times=(0.0, 1.0), bases=(computational_basis(2),) * 2,
                      constraints=(FixedPoint(0.0, E0), FixedPoint(0.0, E1)),
                      schedule=zero_schedule(2))

    def test_one_time_grid_is_a_format_error(self):
        doc = born_model_dict()
        doc["grid"] = [0.0]
        with pytest.raises(ModelFormatError, match="at least two times"):
            model_from_dict(doc)

    def test_recipe_faults_in_files_keep_their_exit_code(self):
        doc = born_model_dict()
        doc["constraints"].append({"time": 0.0, "state": [[0, 0], [1, 0]]})
        with pytest.raises(ValidationError, match="duplicate") as info:
            model_from_dict(doc)
        assert info.value.exit_code == 3


_BASES = (computational_basis(2),) * 2
_PIVOT = FixedPoint(0.5, E0)
_FUTURE = (FixedPoint(1.0, E0),)


@pytest.mark.parametrize("build, match", [
    (lambda: FamilySpec(times=None, bases=_BASES),
     "^grid times must be a sequence of times, got NoneType"),
    (lambda: FamilySpec(times=3, bases=_BASES),
     "^grid times must be a sequence of times, got int"),
    (lambda: sequential_chain(E0, _BASES[:1], None, zero_schedule(2), 0.0),
     "^measurement times must be a sequence of times, got NoneType"),
    (lambda: FamilySpec(times=(0.0, 1.0), bases=None),
     "^need exactly one basis per grid time"),
    (lambda: FamilySpec(times=(0.0, 1.0), bases=(b for b in _BASES)),
     "^need exactly one basis per grid time"),
    (lambda: FamilySpec(times=(0.0, 1.0), bases=(_BASES[0], None)),
     r"^basis at time 1\.0: expected a sequence of state vectors, got None"),
    (lambda: FamilySpec(times=(0.0, 1.0), bases=(_BASES[0], 3)),
     r"^basis at time 1\.0: expected a sequence of state vectors, got 3"),
    (lambda: FamilySpec(times=(0.0, 1.0), bases=_BASES, constraints=None),
     "^constraints must be a sequence of fixed points, got NoneType"),
    (lambda: FamilySpec(times=(0.0, 1.0), bases=_BASES,
                        constraints=FixedPoint(0.0, E0)),
     "^constraints must be a sequence of fixed points, got FixedPoint"),
    (lambda: FamilySpec(times=(0.0, 1.0), bases=_BASES, constraints=[3]),
     "^constraints must be a sequence of fixed points, got an entry of int"),
    (lambda: ToyBundle(None, _PIVOT, _FUTURE),
     "^past branches must be a sequence of fixed points, got NoneType"),
    (lambda: ToyBundle([3], _PIVOT, _FUTURE),
     "^past branches must be a sequence of fixed points, got an entry of"),
    (lambda: ToyBundle(_FUTURE, _PIVOT, None),
     "^future branches must be a sequence of fixed points, got NoneType"),
    (lambda: ToyBundle(_FUTURE, None, _FUTURE),
     "^bundle pivot must be a FixedPoint, got NoneType$"),
    (lambda: HamiltonianSchedule(3),
     r"^schedule segments must be a sequence of \(t_start, t_end, H\) "
     "triples, got 3"),
    (lambda: HamiltonianSchedule([(0, 1)]),
     r"^schedule segments must be a sequence of \(t_start, t_end, H\)"),
    (lambda: is_orthonormal(None),
     "^expected a sequence of vectors of numbers, got None"),
    (lambda: is_orthonormal([[1, 0], [0, "a"]]),
     r"^vector must be an array of numbers, got \[0, 'a'\]$"),
    (lambda: enumerate_family(None),
     "^recipe must be a FamilySpec, got NoneType$"),
    (lambda: transfer_chain(None, zero_schedule(2)),
     "^recipe must be a FamilySpec, got NoneType$"),
    (lambda: transfer_chain(enumerate_family(FamilySpec(
        times=(0.0, 1.0), bases=_BASES)), zero_schedule(2)),
     "^recipe must be a FamilySpec, got HistoryFamily$"),
    (lambda: decompose_total_measure(None, zero_schedule(2),
                                     DecompositionMode.MORW),
     "^recipe must be a FamilySpec, got NoneType$"),
    (lambda: measure_report(None, zero_schedule(2)),
     "^family must be a HistoryFamily, got NoneType$"),
    (lambda: measure_report(None, zero_schedule(2), steps_per_segment=2),
     "^family must be a HistoryFamily, got NoneType$"),
    (lambda: validate_family(None),
     "^family must be a HistoryFamily, got NoneType$"),
    (lambda: decoherence_report(None, zero_schedule(2), E0),
     "^family must be a HistoryFamily, got NoneType$"),
])
def test_model_inputs_that_used_to_leak(build, match):
    # each leaked TypeError, ValueError or AttributeError
    with pytest.raises(ValidationError, match=match) as info:
        build()
    assert type(info.value) is ValidationError


class TestRandomModel:
    """``sampling.random_model`` draws in the order the inline recipes it
    replaced did: schedule, one basis per time, preparation, final."""

    @staticmethod
    def inline_recipe(rng, times, dim, s_t):
        sched = random_schedule(rng, times, dim)
        bases = tuple(tuple(random_orthonormal_basis(rng, dim))
                      for _ in times)
        constraints = [FixedPoint(times[0], random_state(rng, dim),
                                  label="prep")]
        if s_t == 2:
            constraints.append(FixedPoint(times[-1], random_state(rng, dim),
                                          label="final"))
        return sched, bases, constraints

    @pytest.mark.parametrize("dim, times, s_t", [
        (2, (0.0, 0.6, 1.3), 1), (3, (0.0, 0.5, 1.1), 1),
        (2, (0.0, 0.7, 1.5), 2), (4, (0.0, 0.4, 0.9, 1.2), 2)])
    def test_bit_identical_to_the_inline_recipe(self, dim, times, s_t):
        model = random_model(rng_from_seed(dim + s_t), times, dim, s_t)
        sched, bases, constraints = self.inline_recipe(
            rng_from_seed(dim + s_t), times, dim, s_t)
        assert isinstance(model, ModelSpec) and model.times == times
        for (a, b, h), (c, d, g) in zip(model.schedule.segments,
                                        sched.segments, strict=True):
            assert (a, b) == (c, d) and np.array_equal(h, g)
        for got, want in zip(model.bases, bases, strict=True):
            assert all(map(np.array_equal, got, want))
        for got, want in zip(model.constraints, constraints, strict=True):
            assert (got.time, got.label) == (want.time, want.label)
            assert np.array_equal(got.state, want.state)

    def test_one_or_two_constraints(self):
        for s_t in (0, 3):
            with pytest.raises(ValidationError, match="s_t"):
                random_model(rng_from_seed(0), (0.0, 1.0), 2, s_t)


def _set(path, value):
    """A Born model document with the entry at ``path`` replaced."""
    doc = born_model_dict()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestMalformedNumbers:
    @pytest.mark.parametrize("path, value, field", [
        (("dim",), True, "^dim: "),
        (("dim",), 2.0, "^dim: "),
        (("grid",), [False, True], r"grid\[0\]"),
        (("grid",), [0.0, math.inf], r"grid\[1\]"),
        (("grid",), [math.nan, 1.0], r"grid\[0\]"),
        (("grid",), [0.0, "1"], r"grid\[1\]"),
        (("grid",), [0.0, 10 ** 400], r"grid\[1\]"),
        (("hamiltonian", 0, "t_start"), False, r"hamiltonian\[0\]\.t_start"),
        (("hamiltonian", 0, "t_end"), math.inf, r"hamiltonian\[0\]\.t_end"),
        (("constraints", 0, "time"), True, r"constraints\[0\]\.time"),
        (("constraints", 0, "time"), -math.inf, r"constraints\[0\]\.time"),
        (("constraints", 0, "state"), [[True, 0], [0, 0]],
         r"constraints\[0\]\.state\[0\]"),
    ])
    def test_rejected_naming_the_field(self, path, value, field):
        with pytest.raises(ModelFormatError, match=field):
            model_from_dict(_set(path, value))

    def test_json_infinity_in_file(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(_set(("grid",), [0.0, math.inf])))
        assert "Infinity" in path.read_text()
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    def test_integer_times_still_read(self):
        doc = _set(("grid",), [0, 1])
        doc["hamiltonian"][0].update(t_start=0, t_end=1)
        doc["constraints"][0]["time"] = 0
        model = model_from_dict(doc)
        assert model.times == (0.0, 1.0)
        assert model.constraints[0].time == 0.0


def _pair_per_pair(value, where):
    """The per-pair reader the array reader replaced: the reference it
    must reproduce."""
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(map(linalg.is_real, value))):
        raise ModelFormatError(
            f"{where}: expected a [re, im] pair, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise ModelFormatError(
            f"{where}: [re, im] pair holds a number beyond the float "
            "range") from None


def _vector_per_pair(value, where):
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty list of pairs")
    return np.array([_pair_per_pair(v, f"{where}[{i}]")
                     for i, v in enumerate(value)])


def _matrix_per_pair(value, where):
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty list of rows")
    rows = [_vector_per_pair(row, f"{where}[{i}]")
            for i, row in enumerate(value)]
    if len({r.size for r in rows}) != 1 or rows[0].size != len(rows):
        raise ModelFormatError(f"{where}: matrix is not square")
    return np.array(rows)


def _read(reader, value):
    """A reader's array as dtype, shape and bits (so the sign of zero and
    NaN payloads count), or its error text."""
    try:
        array = reader(value, "x")
    except ModelFormatError as exc:
        return str(exc)
    return array.dtype, array.shape, array.view(float).view(np.uint64).tolist()


#: JSON numbers, the NaN and Infinity tokens, and values a pair refuses
JSON_NUMBERS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.sampled_from([json.loads(t) for t in ("NaN", "Infinity", "-Infinity",
                                             "-0.0", "1e308", "5e-324")]))
ODD_ENTRIES = st.sampled_from([
    True, False, None, "1", "x", 10 ** 400, -10 ** 400, [], [1, 0],
    np.float64(0.5), np.float32(0.1), np.int64(-3), complex(1, 0)])
ENTRIES = st.one_of(JSON_NUMBERS, JSON_NUMBERS, ODD_ENTRIES)
PAIRS = st.one_of(st.lists(JSON_NUMBERS, min_size=2, max_size=2),
                  st.lists(st.one_of(JSON_NUMBERS, st.just(-10 ** 400)),
                           min_size=2, max_size=2),
                  st.lists(ENTRIES, min_size=2, max_size=2),
                  st.tuples(ENTRIES, ENTRIES),
                  st.lists(ENTRIES, max_size=3), ENTRIES)
VECTORS = st.one_of(st.lists(st.lists(JSON_NUMBERS, min_size=2, max_size=2),
                             min_size=1, max_size=4),
                    st.lists(PAIRS, max_size=4), ENTRIES)
MATRICES = st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.lists(JSON_NUMBERS, min_size=2, max_size=2),
                 min_size=n, max_size=n), min_size=n, max_size=n)),
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(PAIRS, min_size=n, max_size=n), min_size=n, max_size=n)),
    st.lists(VECTORS, max_size=3), ENTRIES)


class TestArrayReader:
    """``vector_from_json`` and ``matrix_from_json`` read all pairs with one
    array conversion; on every JSON-like value they give the per-pair
    reader's array bit for bit, or its error text."""

    @given(VECTORS)
    @settings(max_examples=400, deadline=None)
    @example([[10 ** 400, 0], "x"])
    @example([[1, -0.0], [-0.0, 0]])
    @example([[1, 0], (0.5, 2)])
    def test_vector_as_the_per_pair_reader(self, value):
        assert _read(vector_from_json, value) \
            == _read(_vector_per_pair, value)

    @given(MATRICES)
    @settings(max_examples=400, deadline=None)
    @example([[[1, 0], [0, 0]], [[0, 0], [10 ** 400, 0]]])
    @example([[[1, 0], [0, 0]], [[0, 0]]])
    @example([[[1, 0], [0, 0]], "x", [[10 ** 400, 0]]])
    @example([[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]])
    def test_matrix_as_the_per_pair_reader(self, value):
        assert _read(matrix_from_json, value) \
            == _read(_matrix_per_pair, value)
