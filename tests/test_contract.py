"""The library's error contract: every public entry point returns a value or
raises a ``QContourError``, with numpy warnings as errors.  The CLI half
is ``test_cli.py::TestContract``."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcontour
from qcontour import (BipartiteState, FamilySpec, FixedPoint,
                      HamiltonianSchedule, HistoryFamily, HistoryOperator,
                      ModelFormatError, ModelSpec, OutcomeDistribution,
                      QContourError, QuantumHistory, ToyBundle,
                      ValidationError, born_probability,
                      chain_probability, check_envariance, check_unitary,
                      complete_basis, condition_on_final, contour_path,
                      decoherence_functional, decoherence_report,
                      delta_psi_line_integral, enumerate_family, evolve_state,
                      heisenberg_projector, histories_equal, history_inner,
                      history_operator, inner, is_hermitian, is_orthonormal,
                      is_projector, load_model, measure_report, model_to_dict,
                      monte_carlo_sample, projector, propagate, record_state,
                      save_model, schmidt_decompose, segment_amplitude,
                      sequential_chain, tensor, validate_family)
from qcontour.dynamics import substep_propagators
from qcontour.linalg import MAX_ENUMERATION
from qcontour.sampling import random_model, rng_from_seed
from toys import E0, E1, PLUS, SX, computational_basis, zero_schedule

#: public callables the sweep does not call with None, and why
EXCLUDED = {
    # ``DecompositionMode(value)`` is the enum's own value lookup, whose
    # refusal Python's enum protocol raises as a plain ValueError
    "DecompositionMode",
    # a result record, which ``monte_carlo_sample`` fills from checked
    # columns; its constructor takes no outside input
    "FrequencyTable",
}


def _public_callables():
    """The names in ``qcontour.__all__`` the sweep calls: every callable
    but the error classes, which are what the contract raises."""
    names = []
    for name in qcontour.__all__:
        obj = getattr(qcontour, name)
        if not callable(obj) or name in EXCLUDED or (
                isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        names.append(name)
    return sorted(names)


def _nones(obj):
    """None for each required argument of ``obj``: positional ones as
    positional arguments, keyword-only ones by name."""
    args, kwargs = [], {}
    for param in inspect.signature(obj).parameters.values():
        if param.default is not param.empty or param.kind in (
                param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        if param.kind is param.KEYWORD_ONLY:
            kwargs[param.name] = None
        else:
            args.append(None)
    return args, kwargs


@pytest.mark.parametrize("name", _public_callables())
def test_none_in_every_required_argument(name):
    obj = getattr(qcontour, name)
    args, kwargs = _nones(obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            obj(*args, **kwargs)
        except QContourError:
            pass


_SCHED = zero_schedule(2)
_FP0, _FP1 = FixedPoint(0.0, E0), FixedPoint(1.0, PLUS)
_HISTORY = QuantumHistory((_FP0, _FP1))
_CHAIN = history_operator((_FP0, _FP1), _SCHED, 0.0)
_RHO = np.outer(E0, E0.conj())
_DIST = OutcomeDistribution((((0, 0), 0.5), ((0, 1), 0.5)))
_PSI = BipartiteState.from_matrix(np.eye(2) / np.sqrt(2))
_MODEL = random_model(rng_from_seed(3), (0.0, 0.5), 2, 1)


@pytest.mark.parametrize("call", [
    # each leaked AttributeError
    lambda: history_inner(None, None),
    lambda: history_inner(_HISTORY, None),
    lambda: histories_equal(None, None),
    lambda: histories_equal(_HISTORY, None),
    lambda: segment_amplitude(None, _FP1, _SCHED),
    lambda: segment_amplitude(_FP0, None, _SCHED),
    lambda: record_state(None, E0),
    lambda: decoherence_functional(None, None, E0),
    lambda: decoherence_functional(_CHAIN, None, E0),
    lambda: monte_carlo_sample(None, 10, 0),
    lambda: condition_on_final(None, 0),
    lambda: check_envariance(None, np.eye(2)),
    lambda: schmidt_decompose(None),
    lambda: model_to_dict(None),
    # each leaked TypeError, or AttributeError where the chain held None
    lambda: history_operator(None, _SCHED, 0.0),
    lambda: history_operator(3, _SCHED, 0.0),
    lambda: history_operator([None], _SCHED, 0.0),
    lambda: chain_probability(None, _SCHED, _RHO),
    lambda: chain_probability([None], _SCHED, _RHO),
    lambda: HistoryOperator(None),
    lambda: OutcomeDistribution(None),
    lambda: OutcomeDistribution(3),
    # a bare ValueError: "a" is not a pair, 1 not a key sequence
    lambda: OutcomeDistribution("ab"),
    lambda: OutcomeDistribution([(1, 1.0)]),
    # a bare ValueError from numpy, on a matrix entry that is not a number
    lambda: HistoryOperator([[[1, 0], [0, "a"]]]),
    lambda: check_envariance(_PSI, "ab"),
    # a bare ValueError from numpy, on a 0x0 matrix
    lambda: HamiltonianSchedule([(0.0, 1.0, np.zeros((0, 0)))]),
    lambda: HistoryOperator([np.zeros((0, 0))]),
    lambda: is_hermitian(np.zeros((0, 0))),
    lambda: is_projector(np.zeros((0, 0))),
    lambda: check_unitary(np.zeros((0, 0))),
    # each leaked IndexError
    lambda: BipartiteState.from_matrix(None),
    lambda: BipartiteState.from_matrix([1, 2]),
    lambda: BipartiteState.from_matrix(3),
])
def test_one_bad_argument_is_a_validation_error(call):
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError


@pytest.mark.parametrize("bad", [None, "ab", [1, None], [[1, 0], [0]]])
@pytest.mark.parametrize("call", [
    lambda bad: inner(bad, bad),
    lambda bad: inner(E0, bad),
    lambda bad: projector(bad),
    lambda bad: tensor(bad, bad),
    lambda bad: tensor(E0, bad),
    lambda bad: is_hermitian(bad),
    lambda bad: is_projector(bad),
    lambda bad: check_unitary(bad),
])
def test_linalg_refuses_what_is_not_numbers(call, bad):
    # None was read as a NaN array (a NaN value, or False from the
    # checks), and text and a ragged nest leaked numpy's bare ValueError
    with pytest.raises(ValidationError, match="array of numbers") as info:
        call(bad)
    assert type(info.value) is ValidationError


_NUMBER = st.integers(-9, 9) | st.floats() | st.complex_numbers()
_TEXT = st.text() | _NUMBER.map(str)


def _with_one(entries, odd):
    """Lists of ``entries`` with one ``odd`` entry inserted."""
    return st.tuples(st.lists(entries, max_size=4), odd,
                     st.integers(0, 4)).map(
        lambda t: [*t[0][:t[2]], t[1], *t[0][t[2]:]])


#: what numpy cannot read as an array of numbers: None, text, lists mixing
#: numbers with None or text, ragged nests, and integers beyond 64 bits
NOT_NUMBERS = st.one_of(
    st.none(),
    _TEXT,
    _with_one(_NUMBER, st.none() | _TEXT),
    st.lists(st.lists(_NUMBER, max_size=3), min_size=2, max_size=3).filter(
        lambda rows: len(set(map(len, rows))) > 1),
    _with_one(st.integers(-9, 9),
              st.integers(min_value=2 ** 64) | st.integers(
                  max_value=-2 ** 63 - 1)),
)

_BASIS = computational_basis(2)
_FAMILY = enumerate_family(FamilySpec(times=(0.0, 1.0),
                                      bases=(_BASIS, _BASIS)))


@pytest.mark.parametrize("call", [
    lambda bad: inner(bad, E0),
    lambda bad: inner(E0, bad),
    lambda bad: projector(bad),
    lambda bad: tensor(bad, E0),
    lambda bad: tensor(E0, bad),
    lambda bad: is_hermitian(bad),
    lambda bad: is_projector(bad),
    lambda bad: check_unitary(bad),
    lambda bad: is_orthonormal([E0, bad]),
    lambda bad: complete_basis(bad),
    lambda bad: FixedPoint(0.0, bad),
    lambda bad: HamiltonianSchedule([(0.0, 1.0, bad)]),
    lambda bad: FamilySpec(times=(0.0, 1.0), bases=(_BASIS, [E0, bad])),
    lambda bad: sequential_chain(bad, [_BASIS], [1.0], _SCHED, 0.0),
    lambda bad: sequential_chain(E0, [[E0, bad]], [1.0], _SCHED, 0.0),
    lambda bad: born_probability(bad, 0.0, E0, 1.0, _SCHED),
    lambda bad: born_probability(E0, 0.0, bad, 1.0, _SCHED),
    lambda bad: evolve_state(bad, _SCHED, 0.0, 1.0),
    lambda bad: heisenberg_projector(bad, _SCHED, 1.0, 0.0),
    lambda bad: chain_probability((_FP0, _FP1), _SCHED, bad),
    lambda bad: HistoryOperator([bad]),
    lambda bad: record_state(_CHAIN, bad),
    lambda bad: decoherence_functional(_CHAIN, _CHAIN, bad),
    lambda bad: decoherence_report(_FAMILY, _SCHED, bad),
    lambda bad: BipartiteState(2, 2, bad),
    lambda bad: BipartiteState.from_matrix(bad),
    lambda bad: check_envariance(_PSI, bad),
])
@given(bad=NOT_NUMBERS)
@example(bad=[[1, 0], [0]])
@example(bad=[1, None])
@example(bad=[0, 2 ** 64])
# text that each entry point would accept if it read text as numbers
@example(bad=["0", "1"])
@example(bad=[["1", "0"], ["0", "0"]])
@example(bad=[["0", "1"], ["1", "0"]])
@example(bad=["0.5", "0.5", "0.5", "0.5"])
@settings(max_examples=40, deadline=None)
def test_every_array_argument_refuses_what_is_not_numbers(call, bad):
    # text read as numbers in FixedPoint, HamiltonianSchedule, FamilySpec,
    # BipartiteState, check_envariance and is_orthonormal; None was "NaN or
    # Inf" or a False verdict; a ragged nest leaked numpy's ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            call(bad)
    assert type(info.value) is ValidationError


@pytest.mark.parametrize("call", [
    lambda path: load_model(path),
    lambda path: save_model(_MODEL, path),
])
@pytest.mark.parametrize("bad", [None, "missing/model.json"])
def test_a_bad_path_is_named(tmp_path, call, bad):
    # None leaked TypeError; a missing directory leaked OSError on saving
    path = None if bad is None else tmp_path / bad
    with pytest.raises(QContourError,
                       match=f"^{re.escape(str(path))}: ") as info:
        call(path)
    assert type(info.value) is ModelFormatError


class TestFinalIndex:
    """``condition_on_final`` takes any integer, not a bool, as the final
    outcome index."""

    @pytest.mark.parametrize("index", ["a", 1.5, None, True, 1.0,
                                       np.float64(1.0), np.bool_(True)])
    def test_not_an_integer_is_refused(self, index):
        # "a", 1.5 and None exited as ZeroNormalizationError; True and 1.0
        # selected outcome 1
        with pytest.raises(ValidationError,
                           match="^final outcome index must be an integer"
                           ) as info:
            condition_on_final(_DIST, index)
        assert type(info.value) is ValidationError

    @pytest.mark.parametrize("index", [-1, np.int64(-1), np.int8(-1)])
    def test_any_integer_selects(self, index):
        # keys may be negative
        dist = OutcomeDistribution((((0, -1), 0.25), ((1, 1), 0.75)))
        assert condition_on_final(dist, index).outcomes == (((0,), 1.0),)


def test_a_state_of_another_kind_is_refused():
    # the message names the argument and the class it must be
    with pytest.raises(ValidationError,
                       match="^bipartite state must be a BipartiteState, "
                             "got ndarray$"):
        schmidt_decompose(np.array([E0, E1]))


#: what no entry point may read as a real number: None, bools, text,
#: bytes, lists, complex numbers and numpy scalars of those kinds
_NOT_REAL = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.binary(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2), st.complex_numbers(),
    st.sampled_from([np.bool_(True), np.complex128(1j), np.str_("1")]))
#: integers beyond the float and the 64-bit range, and numpy integers
#: whose products overflow
_HUGE = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, np.int64(2 ** 62),
                         np.uint64(2 ** 64 - 1), np.int64(-2 ** 63)])
#: times: anything real is a verdict (in the span or not)
BAD_TIMES = _NOT_REAL | st.floats() | st.integers() | _HUGE
#: counts: never one the sub-step ceiling admits (1 to MAX_ENUMERATION),
#: so no count here forms its ticks
BAD_COUNTS = (_NOT_REAL | st.floats() | st.integers(max_value=0)
              | st.integers(min_value=MAX_ENUMERATION + 1) | _HUGE
              | st.sampled_from([np.int8(-1), np.int64(MAX_ENUMERATION + 1)]))
#: tolerances, numbers written as text among them
BAD_TOLERANCES = (_NOT_REAL | st.floats() | st.floats().map(str)
                  | st.integers() | _HUGE)
#: outcome indices
BAD_INDICES = _NOT_REAL | st.floats() | st.integers() | _HUGE

_SPEC = FamilySpec(times=(0.0, 1.0), bases=(_BASIS, _BASIS),
                   constraints=(_FP0,))

#: per kind of scalar argument, every public entry point that takes one,
#: by (name, parameter), with a call that passes the value there
SCALAR_CALLS = {
    "time": {
        ("FixedPoint", "time"): lambda t: FixedPoint(t, E0),
        ("FamilySpec", "times"): lambda t: FamilySpec(
            times=(0.0, t), bases=(_BASIS, _BASIS)),
        ("ModelSpec", "times"): lambda t: ModelSpec(
            times=(0.0, t), bases=(_BASIS, _BASIS), schedule=_SCHED),
        ("HamiltonianSchedule", "segments"): lambda t: HamiltonianSchedule(
            [(0.0, t, SX)]),
        ("HamiltonianSchedule.constant", "t_start"):
            lambda t: HamiltonianSchedule.constant(SX, t, 1.0),
        ("born_probability", "t1"): lambda t: born_probability(
            E0, t, PLUS, 1.0, _SCHED),
        ("born_probability", "t2"): lambda t: born_probability(
            E0, 0.0, PLUS, t, _SCHED),
        ("evolve_state", "t_a"): lambda t: evolve_state(E0, _SCHED, t, 1.0),
        ("evolve_state", "t_b"): lambda t: evolve_state(E0, _SCHED, 0.0, t),
        ("heisenberg_projector", "t_k"): lambda t: heisenberg_projector(
            E0, _SCHED, t, 0.0),
        ("heisenberg_projector", "t_0"): lambda t: heisenberg_projector(
            E0, _SCHED, 1.0, t),
        ("history_operator", "t_0"): lambda t: history_operator(
            (_FP0, _FP1), _SCHED, t),
        ("propagate", "t_a"): lambda t: propagate(_SCHED, t, 1.0),
        ("propagate", "t_b"): lambda t: propagate(_SCHED, 0.0, t),
        ("sequential_chain", "times"): lambda t: sequential_chain(
            E0, [_BASIS], [t], _SCHED, 0.0),
        ("sequential_chain", "t_prep"): lambda t: sequential_chain(
            E0, [_BASIS], [1.0], _SCHED, t),
        ("substep_propagators", "steps"): lambda t: substep_propagators(
            _SCHED, [(0.0, t)], 2),
    },
    "count": {
        ("BipartiteState", "dim_a"): lambda n: BipartiteState(
            n, 2, [1, 0, 0, 0]),
        ("BipartiteState", "dim_b"): lambda n: BipartiteState(
            2, n, [1, 0, 0, 0]),
        ("contour_path", "n_times"): lambda n: contour_path(n),
        ("delta_psi_line_integral", "steps_per_segment"):
            lambda n: delta_psi_line_integral(_HISTORY, _SCHED, n),
        ("enumerate_family", "guard"): lambda n: enumerate_family(_SPEC, n),
        ("measure_report", "steps_per_segment"): lambda n: measure_report(
            _FAMILY, _SCHED, steps_per_segment=n),
        ("monte_carlo_sample", "n"): lambda n: monte_carlo_sample(
            _DIST, n, 0),
        ("monte_carlo_sample", "seed"): lambda n: monte_carlo_sample(
            _DIST, 10, n),
        ("substep_propagators", "sub"): lambda n: substep_propagators(
            _SCHED, [(0.0, 1.0)], n),
    },
    "tolerance": {
        ("check_envariance", "tol"): lambda tol: check_envariance(
            _PSI, np.eye(2), tol),
        ("check_unitary", "tol"): lambda tol: check_unitary(np.eye(2), tol),
        ("decoherence_report", "tol"): lambda tol: decoherence_report(
            _FAMILY, _SCHED, E0, tol),
        ("histories_equal", "tol"): lambda tol: histories_equal(
            _HISTORY, _HISTORY, tol),
        ("is_hermitian", "tol"): lambda tol: is_hermitian(np.eye(2), tol),
        ("is_orthonormal", "tol"): lambda tol: is_orthonormal([E0, E1], tol),
        ("is_projector", "tol"): lambda tol: is_projector(np.eye(2), tol),
        ("validate_family", "tol"): lambda tol: validate_family(_FAMILY, tol),
    },
    "index": {
        ("condition_on_final", "final_index"): lambda i: condition_on_final(
            _DIST, i),
    },
}

#: parameter names that take a time, a count, a tolerance or an index
SCALAR_PARAMETERS = {
    "time": {"time", "times", "t1", "t2", "t_a", "t_b", "t_k", "t_0",
             "t_prep", "t_start", "t_end"},
    "count": {"n_times", "guard", "n", "seed", "steps_per_segment", "dim_a",
              "dim_b", "sub"},
    "tolerance": {"tol"},
    "index": {"final_index"},
}


@pytest.mark.parametrize("kind", sorted(SCALAR_PARAMETERS))
def test_the_scalar_sweep_covers_every_public_entry_point(kind):
    named = {(name, param) for name in _public_callables()
             for param in inspect.signature(getattr(qcontour, name)).parameters
             if param in SCALAR_PARAMETERS[kind]}
    assert named <= set(SCALAR_CALLS[kind])


def _verdict(call, bad):
    """``call(bad)``, with warnings as errors: a value or a QContourError;
    any other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(bad)
        except QContourError:
            pass


# each sweep stops at the first leak: a count refused by no ceiling would
# otherwise go on to form its ticks
_SWEEP = settings(max_examples=30, deadline=None, report_multiple_bugs=False)


@pytest.mark.parametrize("call", SCALAR_CALLS["time"].values(),
                         ids=[f"{n}-{p}" for n, p in SCALAR_CALLS["time"]])
@given(bad=BAD_TIMES)
@example(bad=None)
@example(bad=float("nan"))
@example(bad=10 ** 400)
@example(bad="0")
@_SWEEP
def test_every_time_argument_is_a_value_or_a_verdict(call, bad):
    _verdict(call, bad)


@pytest.mark.parametrize("call", SCALAR_CALLS["count"].values(),
                         ids=[f"{n}-{p}" for n, p in SCALAR_CALLS["count"]])
@given(bad=BAD_COUNTS)
# 2**62 sub-steps leaked numpy's ValueError, and 2**62 as a numpy
# dimension an overflow warning and a dimension of -2**63
@example(bad=2 ** 62)
@example(bad=np.int64(2 ** 62))
@example(bad=MAX_ENUMERATION + 1)
@example(bad=None)
@_SWEEP
def test_every_count_argument_is_a_value_or_a_verdict(call, bad):
    _verdict(call, bad)


@pytest.mark.parametrize(
    "call", SCALAR_CALLS["tolerance"].values(),
    ids=[f"{n}-{p}" for n, p in SCALAR_CALLS["tolerance"]])
@given(bad=BAD_TOLERANCES)
# the linalg predicates leaked TypeError on None, text, bytes and lists,
# OverflowError on 10**400, and read NaN or a negative tol as False
@example(bad=None)
@example(bad="a")
@example(bad=b"1")
@example(bad=[1e-3])
@example(bad=10 ** 400)
@example(bad=float("nan"))
@example(bad=-1.0)
@_SWEEP
def test_every_tolerance_argument_is_a_value_or_a_verdict(call, bad):
    _verdict(call, bad)


@pytest.mark.parametrize("call", SCALAR_CALLS["index"].values(),
                         ids=[f"{n}-{p}" for n, p in SCALAR_CALLS["index"]])
@given(bad=BAD_INDICES)
@example(bad=10 ** 400)
@example(bad=np.uint64(2 ** 64 - 1))
@example(bad=None)
@_SWEEP
def test_every_index_argument_is_a_value_or_a_verdict(call, bad):
    _verdict(call, bad)


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1, np.float64("nan")])
@pytest.mark.parametrize("call", SCALAR_CALLS["tolerance"].values(),
                         ids=[n for n, _ in SCALAR_CALLS["tolerance"]])
def test_a_nan_or_negative_tolerance_is_refused(call, tol):
    # the linalg predicates returned False
    with pytest.raises(ValidationError,
                       match="^tolerance must be a non-negative number"):
        call(tol)


#: public records whose sequence fields the package fills from checked
#: values; their constructors take no outside input
SEQUENCE_RECORDS = {"MeasureReport"}
#: parameter names that take an ordered sequence
SEQUENCE_PARAMETERS = {"times", "bases", "constraints", "segments",
                       "histories", "constraint_times", "projectors",
                       "outcomes", "points", "past", "future", "fps",
                       "vectors", "steps"}

# hashable items, so that a set or a dict of them can be formed
_T_BASIS = ((1.0, 0.0), (0.0, 1.0))
_T_SWAPPED = ((0.0, 1.0), (1.0, 0.0))
_T_SX = ((0.0, 1.0), (1.0, 0.0))
_PAST = (FixedPoint(0.0, E0), FixedPoint(0.0, E1))
_FUTURE = (FixedPoint(1.0, E0), FixedPoint(1.0, E1))
_PIVOT = FixedPoint(0.5, PLUS)

#: per public entry point and ordered parameter, by (name, parameter), a
#: call that passes a sequence there and items it accepts in that place;
#: "bases[k]" is one basis within ``bases``
SEQUENCE_CALLS = {
    ("FamilySpec", "times"): (lambda seq: FamilySpec(
        times=seq, bases=(_BASIS, _BASIS)), (0.0, 1.0)),
    ("FamilySpec", "bases"): (lambda seq: FamilySpec(
        times=(0.0, 1.0), bases=seq), (_T_BASIS, _T_SWAPPED)),
    ("FamilySpec", "bases[k]"): (lambda seq: FamilySpec(
        times=(0.0, 1.0), bases=(_BASIS, seq)), _T_BASIS),
    ("FamilySpec", "constraints"): (lambda seq: FamilySpec(
        times=(0.0, 1.0), bases=(_BASIS, _BASIS), constraints=seq),
        (_FP0, _FP1)),
    ("ModelSpec", "times"): (lambda seq: ModelSpec(
        times=seq, bases=(_BASIS, _BASIS), schedule=_SCHED), (0.0, 1.0)),
    ("ModelSpec", "bases"): (lambda seq: ModelSpec(
        times=(0.0, 1.0), bases=seq, schedule=_SCHED),
        (_T_BASIS, _T_SWAPPED)),
    ("ModelSpec", "constraints"): (lambda seq: ModelSpec(
        times=(0.0, 1.0), bases=(_BASIS, _BASIS), constraints=seq,
        schedule=_SCHED), (_FP0,)),
    ("HamiltonianSchedule", "segments"): (HamiltonianSchedule, (
        (0.0, 0.5, _T_SX), (0.5, 1.0, _T_SX))),
    ("HistoryFamily", "histories"): (HistoryFamily, (
        _HISTORY, QuantumHistory((_FP0, FixedPoint(1.0, E1))))),
    ("HistoryFamily", "constraint_times"): (lambda seq: HistoryFamily(
        (_HISTORY,), seq), (0.0, 1.0)),
    ("HistoryOperator", "projectors"): (HistoryOperator, (
        ((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)))),
    ("OutcomeDistribution", "outcomes"): (OutcomeDistribution, (
        ((0, 0), 0.5), ((0, 1), 0.5))),
    ("QuantumHistory", "points"): (QuantumHistory, (_FP0, _FP1)),
    ("ToyBundle", "past"): (lambda seq: ToyBundle(seq, _PIVOT, _FUTURE),
                            _PAST),
    ("ToyBundle", "future"): (lambda seq: ToyBundle(_PAST, _PIVOT, seq),
                              _FUTURE),
    ("chain_probability", "fps"): (lambda seq: chain_probability(
        seq, _SCHED, _RHO), (_FP0, _FP1)),
    ("history_operator", "fps"): (lambda seq: history_operator(
        seq, _SCHED, 0.0), (_FP0, _FP1)),
    ("is_orthonormal", "vectors"): (is_orthonormal, _T_BASIS),
    ("sequential_chain", "bases"): (lambda seq: sequential_chain(
        E0, seq, [0.5, 1.0], _SCHED, 0.0), (_T_BASIS, _T_SWAPPED)),
    ("sequential_chain", "bases[k]"): (lambda seq: sequential_chain(
        E0, [seq], [1.0], _SCHED, 0.0), _T_BASIS),
    ("sequential_chain", "times"): (lambda seq: sequential_chain(
        E0, [_BASIS, _BASIS], seq, _SCHED, 0.0), (0.5, 1.0)),
    ("substep_propagators", "steps"): (lambda seq: substep_propagators(
        _SCHED, seq, 2), ((0.0, 1.0), (1.0, 0.5))),
}


def test_the_sequence_sweep_covers_every_public_entry_point():
    named = {(name, param) for name in _public_callables()
             if name not in SEQUENCE_RECORDS
             for param in inspect.signature(getattr(qcontour, name)).parameters
             if param in SEQUENCE_PARAMETERS}
    assert named <= set(SEQUENCE_CALLS)


def _zero_d(items):
    """A 0-d object array holding ``items``."""
    array = np.empty((), dtype=object)
    array[()] = items
    return array


#: what no ordered argument may be read as: unordered containers of
#: accepted items, text and a 0-d array
NOT_SEQUENCES = {"set": set, "dict": dict.fromkeys, "str": lambda _: "ab",
                 "bytes": lambda _: b"ab", "0-d array": _zero_d}


@pytest.mark.parametrize("kind", sorted(NOT_SEQUENCES))
@pytest.mark.parametrize("call, items", SEQUENCE_CALLS.values(),
                         ids=[f"{n}-{p}" for n, p in SEQUENCE_CALLS])
def test_every_sequence_argument_refuses_what_is_not_a_sequence(
        call, items, kind):
    # a set or a dict was read in its own iteration order by most of these
    # (a set of times passed or failed by hash order, a family's rows
    # followed object ids), text was read character by character, and a
    # 0-d array was refused in words of its own at each entry point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match="must be a sequence of") as info:
            call(NOT_SEQUENCES[kind](items))
    assert type(info.value) is ValidationError


@pytest.mark.parametrize("read", [tuple, list, iter,
                                  lambda items: (x for x in items)],
                         ids=["tuple", "list", "iterator", "generator"])
@pytest.mark.parametrize("call, items", SEQUENCE_CALLS.values(),
                         ids=[f"{n}-{p}" for n, p in SEQUENCE_CALLS])
def test_every_sequence_argument_reads_an_ordered_iterable(call, items, read):
    # bases and constraint times were refused as a generator or iterator
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(read(items))
