"""Time-reversal covariance, the paper's symmetry: a model and its reversal
(``toys.reversed_model``) weigh every history alike, with the slots in
reverse order, and ``verify`` checks both, prediction and retrodiction."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import cli, enumerate_family, linalg, measure_report
from qcontour.measure import transfer_chain

from toys import FAMILY_SHAPES, WIDE_SHAPES, random_family_spec, reversed_model

SHAPES = st.one_of(FAMILY_SHAPES, WIDE_SHAPES)
BOUND = 1e-12


def _model_and_reversal(shape):
    seed, dim, n_times, s_t = shape
    model, _ = random_family_spec(seed, dim=dim, n_times=n_times, s_t=s_t)
    return model, reversed_model(model)


def _measure_tensor(model):
    """The report's measures over the slot axes, in slot order."""
    report = measure_report(enumerate_family(model), model.schedule)
    return report.measures.reshape([len(s) for s in model.slot_states])


@given(SHAPES)
@settings(max_examples=30, deadline=None)
def test_measures_match_with_the_axes_flipped(shape):
    model, rev = _model_and_reversal(shape)
    assert np.max(np.abs(_measure_tensor(model)
                         - _measure_tensor(rev).transpose())) <= BOUND


@given(SHAPES)
@settings(max_examples=30, deadline=None)
def test_transfer_chain_matches_with_the_slots_flipped(shape):
    model, rev = _model_and_reversal(shape)
    z, marginals = transfer_chain(model, model.schedule)
    z_rev, marginals_rev = transfer_chain(rev, rev.schedule)
    assert abs(z - z_rev) <= BOUND
    for a, b in zip(marginals, reversed(marginals_rev)):
        assert np.max(np.abs(a - b)) <= BOUND


@given(FAMILY_SHAPES.filter(lambda shape: shape[3] == 1))
@settings(max_examples=20, deadline=None)
def test_prediction_and_its_retrodiction_both_verify(shape):
    # the model is pinned at its first time only, its reversal at its last
    # time only; the verdict is left out: the Monte Carlo band may flip it
    model, rev = _model_and_reversal(shape)
    assert list(model.pinned) == [0]
    assert list(rev.pinned) == [len(rev.times) - 1]
    for m in (model, rev):
        row = cli._verify_one("m", m, 50, 0, 2, linalg.DEFAULT_TOL)
        for field in ("normalization_error", "route_discrepancy",
                      "chain_deviation", "direct_deviation"):
            assert row[field] <= BOUND, (field, row)


@given(SHAPES)
@settings(max_examples=30, deadline=None)
def test_reversing_twice_gives_the_model_back(shape):
    model, rev = _model_and_reversal(shape)
    back = reversed_model(rev)
    # conjugating twice is exact; t_0 + t_N - t is not an exact involution
    for a, b in zip(model.slot_states, back.slot_states):
        assert np.array_equal(a, b)
    for a, b in zip(model.bases, back.bases):
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
    for (a0, a1, h), (b0, b1, g) in zip(model.schedule.segments,
                                        back.schedule.segments):
        assert np.array_equal(h, g)
        assert abs(a0 - b0) <= linalg.TIME_EPS
        assert abs(a1 - b1) <= linalg.TIME_EPS
    for a, b in zip(model.slot_times, back.slot_times):
        assert abs(a - b) <= linalg.TIME_EPS
    assert len(back.constraints) == len(model.constraints)
