"""The library's error contract: every public entry point returns a value or
raises a ``QContourError``, with numpy warnings as errors.  The CLI half
is ``test_cli.py::TestContract``."""

import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcontour
from qcontour import (BipartiteState, FamilySpec, FixedPoint,
                      HamiltonianSchedule, HistoryOperator, ModelFormatError,
                      OutcomeDistribution, QContourError, QuantumHistory,
                      ValidationError, born_probability, chain_probability,
                      check_envariance, check_unitary, complete_basis,
                      condition_on_final, decoherence_functional,
                      decoherence_report, enumerate_family, evolve_state,
                      heisenberg_projector, histories_equal, history_inner,
                      history_operator, inner, is_hermitian, is_orthonormal,
                      is_projector, load_model, model_to_dict,
                      monte_carlo_sample, projector, record_state, save_model,
                      schmidt_decompose, segment_amplitude, sequential_chain,
                      tensor)
from qcontour.sampling import random_model, rng_from_seed
from toys import E0, E1, PLUS, computational_basis, zero_schedule

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
