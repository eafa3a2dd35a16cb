"""Every checked array the package holds is read-only, also after a pickle
round trip, and no record's ``==`` or ``hash`` reads an array.

The read-only rule is ``linalg.freeze``, and its unpickle hook is
``linalg.Frozen.__setstate__``: a pickle keeps an array's bits, not its
flag.  Each class the package exports appears in the fixture table below
or in the list of classes that hold no array, so a new class must be
placed in one of them."""

import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest

import qcontour
from qcontour import (BipartiteState, EnvarianceResult, FixedPoint,
                      FrequencyTable, HamiltonianSchedule, HistoryOperator,
                      MeasureReport, QuantumHistory, SchmidtForm, ToyBundle,
                      check_envariance, enumerate_family, measure_report,
                      monte_carlo_sample, schmidt_decompose, sequential_chain)
from qcontour.sampling import random_model, rng_from_seed
from toys import E0, E1, MINUS, PLUS, SX, computational_basis

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _model():
    return random_model(rng_from_seed(8), (0.0, 0.5, 1.0), 3, 1)


def _family():
    """An enumerated family with its index, choices and members read, so
    they are pickled with it."""
    fam = enumerate_family(_model())
    fam.choices, tuple(fam.histories)
    return fam


def _report():
    model = _model()
    report = measure_report(enumerate_family(model), model.schedule,
                            steps_per_segment=2)
    tuple(report.entries)
    return report


def _distribution():
    dist = sequential_chain(PLUS, [computational_basis(2)] * 2, [0.5, 1.0],
                            HamiltonianSchedule.constant(SX, 0.0, 1.0), 0.0)
    tuple(dist.outcomes)
    return dist


def _table():
    table = monte_carlo_sample(_distribution(), 100, 10)
    tuple(table.rows)
    return table


#: per exported class that holds arrays, directly or through its members,
#: a builder of one instance with its cached views read
FIXTURES = {
    "FixedPoint": lambda: FixedPoint(0.5, PLUS, "p"),
    "QuantumHistory": lambda: QuantumHistory(
        (FixedPoint(0.0, E0), FixedPoint(1.0, MINUS))),
    "FamilySpec": lambda: qcontour.FamilySpec(
        times=(0.0, 1.0), bases=(computational_basis(2),) * 2,
        constraints=(FixedPoint(0.0, PLUS),)),
    "ModelSpec": _model,
    "ToyBundle": lambda: ToyBundle(
        past=(FixedPoint(0.0, E0, "a"), FixedPoint(0.0, E1, "b")),
        pivot=FixedPoint(0.5, PLUS, "pivot"),
        future=(FixedPoint(1.0, PLUS, "c"), FixedPoint(1.0, MINUS, "d"))),
    "HistoryFamily": _family,
    "HistoryOperator": lambda: HistoryOperator([np.diag([1.0, 0.0])]),
    "HamiltonianSchedule": lambda: HamiltonianSchedule(
        [(0.0, 0.5, SX), (0.5, 1.0, -SX)]),
    "MeasureReport": _report,
    "OutcomeDistribution": _distribution,
    "FrequencyTable": _table,
    "BipartiteState": lambda: BipartiteState(2, 2, BELL),
    "SchmidtForm": lambda: schmidt_decompose(BipartiteState(2, 2, BELL)),
    "EnvarianceResult": lambda: check_envariance(
        BipartiteState(2, 2, BELL), SWAP),
}

#: exported classes that hold no array
HOLD_NO_ARRAY = {
    "DecompositionMode", "DecompositionResult", "DimensionMismatchError",
    "EnumerationGuardError", "FamilyReport", "FrequencyRow",
    "HistoryMeasure", "ModelFormatError", "QContourError",
    "ValidationError", "ZeroNormalizationError",
}


def _exported_classes() -> dict:
    return {name: obj for name in qcontour.__all__
            if isinstance(obj := getattr(qcontour, name), type)}


def _arrays(obj) -> list:
    """Every array reachable from ``obj``, each once, in a fixed order:
    through the attributes and slots of package objects, tuples, lists,
    dicts and the arguments of a view's row builder."""
    found, seen, todo = [], set(), [obj]
    while todo:
        item = todo.pop(0)
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, functools.partial):
            todo.extend(item.args)
        elif type(item).__module__.startswith("qcontour"):
            todo.extend(vars(item).values() if hasattr(item, "__dict__")
                        else ())
            todo.extend(getattr(item, name) for kind in type(item).__mro__
                        for name in getattr(kind, "__slots__", ())
                        if hasattr(item, name))
    return found


def test_every_exported_class_is_placed():
    classes = set(_exported_classes())
    assert not set(FIXTURES) & HOLD_NO_ARRAY
    assert classes == set(FIXTURES) | HOLD_NO_ARRAY


@pytest.mark.parametrize("name", sorted(HOLD_NO_ARRAY))
def test_a_record_placed_as_arrayless_declares_no_array(name):
    kind = _exported_classes()[name]
    if dataclasses.is_dataclass(kind):
        assert not [f.name for f in dataclasses.fields(kind)
                    if "ndarray" in str(f.type)]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_round_trip_keeps_bits_and_the_read_only_flag(name):
    obj = FIXTURES[name]()
    assert type(obj).__name__ == name
    copy = pickle.loads(pickle.dumps(obj))
    want, got = _arrays(obj), _arrays(copy)
    assert want and len(got) == len(want)
    for a, b in zip(want, got):
        assert (b.dtype, b.shape) == (a.dtype, a.shape)
        assert b.tobytes() == a.tobytes()
    assert [a.flags.writeable for a in want] == [False] * len(want)
    assert [b.flags.writeable for b in got] == [False] * len(got)
    with pytest.raises(ValueError, match="read-only"):
        got[0].flat[0] = 0
    # neither == nor hash reads an array
    assert copy == copy and (obj == copy) in (True, False)
    hash(copy)


class TestIdentityEquality:
    """A record whose fields include arrays compares and hashes by
    identity, as a fixed point, family or recipe does: a generated ``==``
    would compare its arrays, which raises."""

    @pytest.mark.parametrize("name", ["BipartiteState", "SchmidtForm",
                                      "EnvarianceResult", "HistoryOperator"])
    def test_two_equal_valued_records(self, name):
        one, two = FIXTURES[name](), FIXTURES[name]()
        assert [a.tobytes() for a in _arrays(one)] == [
            a.tobytes() for a in _arrays(two)]
        assert one == one and one != two and not one == two
        assert len({one, two}) == 2 and hash(one) == hash(one)


class TestRecordsHoldViews:
    """A record's public constructor holds read-only views of the arrays
    it is given: its own columns cannot be written, and the caller's
    arrays stay writable."""

    def _assert_views(self, record, given: dict):
        for name, array in given.items():
            held = getattr(record, name)
            held = held if isinstance(held, tuple) else (held,)
            array = array if isinstance(array, tuple) else (array,)
            for mine, theirs in zip(held, array):
                assert theirs.flags.writeable
                assert not mine.flags.writeable
                assert np.array_equal(mine, theirs)
                with pytest.raises(ValueError, match="read-only"):
                    mine.flat[0] = 7

    def test_a_measure_report(self):
        given = {"weights": np.array([1.0, 3.0, 0.0, 4.0]),
                 "measures": np.array([0.125, 0.375, 0.0, 0.5]),
                 "contour_weights": np.array([1.0, 3.0, 0.0, 4.0])}
        fam = enumerate_family(FIXTURES["ToyBundle"]())
        report = MeasureReport(**given, normalization=8.0,
                               constraint_times=fam.constraint_times,
                               family=fam)
        self._assert_views(report, given)
        assert [e.measure for e in report.entries] == [0.125, 0.375, 0.0,
                                                        0.5]

    def test_a_frequency_table(self):
        given = {"keys": np.array([[0], [1]]),
                 "probabilities": np.array([0.5, 0.5]),
                 "counts": np.array([4, 6]),
                 "frequency": np.array([0.4, 0.6]),
                 "band": np.array([1.0, 1.0]),
                 "within": np.array([True, True])}
        table = FrequencyTable(n=10, seed=0, **given, max_sigma=0.4,
                               all_within_band=True)
        self._assert_views(table, given)
        assert [row.count for row in table.rows] == [4, 6]

    def test_a_schmidt_form_and_an_envariance_result(self):
        basis = (E0.copy(), E1.copy())
        form = SchmidtForm(coefficients=(1.0, 0.0), basis_a=basis,
                           basis_b=basis)
        self._assert_views(form, {"basis_a": basis, "basis_b": basis})
        counter = np.eye(2, dtype=complex)
        result = EnvarianceResult(envariant=True, counter=counter,
                                  residual=0.0)
        self._assert_views(result, {"counter": counter})
        assert EnvarianceResult(envariant=False).counter is None
