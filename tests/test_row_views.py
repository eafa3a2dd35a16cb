"""The per-row views: an enumerated family's ``histories``, a report's
``entries``, a distribution's ``outcomes`` and a table's ``rows`` build
each row when it is read, behave as the tuples they replace, and keep no
reference to the object they are cached on."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontour import (FrequencyRow, OutcomeDistribution, QuantumHistory,
                      enumerate_family, histories, measure, measure_report,
                      monte_carlo_sample, oracle)
from qcontour.measure import HistoryMeasure
from toys import FAMILY_SHAPES, family_variants, random_family_spec

#: each view's row builder, by module
_BUILDERS = ((histories, "_product_members"), (measure, "_measure_rows"),
             (oracle, "_outcome_rows"), (oracle, "_frequency_rows"))


def _tuple_histories(fam):
    """The members as one tuple, as ``HistoryFamily.histories`` built
    them: the product of the slots, in C order."""
    return tuple(map(QuantumHistory._from_points,
                     itertools.product(*fam.slots)))


def _tuple_entries(report):
    """The entries as one tuple, as ``MeasureReport.entries`` built them
    from the report's columns and its family's index."""
    fam = report.family
    choices = (itertools.repeat(None) if fam.choices is None
               else map(tuple, fam.choices.tolist()))
    alts = (itertools.repeat(None) if report.contour_weights is None
            else report.contour_weights.tolist())
    labels = zip(*(map([p.label for p in slot].__getitem__, column)
                   for slot, column in zip(fam.slots, fam.index.T.tolist())))
    return tuple(itertools.starmap(HistoryMeasure, zip(
        labels, report.weights.tolist(), report.measures.tolist(), choices,
        alts)))


def _tuple_outcomes(dist):
    """The outcomes as one tuple of (key tuple, float) pairs."""
    return tuple(zip(map(tuple, dist.keys.tolist()),
                     dist.probabilities.tolist()))


def _tuple_rows(table):
    """The table's rows as one tuple of ``FrequencyRow``s."""
    return tuple(itertools.starmap(FrequencyRow, zip(
        map(tuple, table.keys.tolist()), table.probabilities.tolist(),
        table.counts.tolist(), table.frequency.tolist(),
        table.band.tolist(), table.within.tolist())))


def _spy_builders(monkeypatch) -> list:
    """Record every row the views' builders yield from now on; a view
    binds its builder when it is first read."""
    built = []

    def counted(original):
        def spy(*args):
            for row in original(*args):
                built.append(row)
                yield row
        return spy
    for module, name in _BUILDERS:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return built


def _same(got, want) -> bool:
    """Rows agree: histories (compared by identity) through the same fixed
    points, any other row by value and by text, so each float keeps its
    bits and its type."""
    if isinstance(want, QuantumHistory):
        return type(got) is QuantumHistory and got.points == want.points
    return got == want and repr(got) == repr(want)


def _all_same(got, want) -> bool:
    return len(got) == len(want) and all(map(_same, got, want))


def _views(spec, sched, seed, steps):
    """(view, reference tuple) for every view of the spec's four family
    variants, their reports, and the enumerated family's distribution over
    its index and the table sampled from it."""
    pairs = []
    for name, fam in family_variants(spec, seed).items():
        report = measure_report(fam, sched, steps_per_segment=steps)
        pairs.append((report.entries, _tuple_entries(report)))
        if name == "enumerated":
            pairs.append((fam.histories, _tuple_histories(fam)))
            dist = OutcomeDistribution.from_columns(fam.index,
                                                    report.measures)
            table = monte_carlo_sample(dist, 1000, seed)
            pairs += [(dist.outcomes, _tuple_outcomes(dist)),
                      (table.rows, _tuple_rows(table))]
    return pairs


class TestViewContract:
    @given(FAMILY_SHAPES, st.sampled_from([None, 2]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_each_view_is_the_tuple_it_replaces(self, shape, steps, data):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        for view, want in _views(spec, sched, seed, steps):
            n = len(want)
            assert len(view) == n
            assert _all_same(tuple(view), want)
            assert _all_same(list(reversed(view)), want[::-1])
            i = data.draw(st.integers(-n, n - 1), label="index")
            assert _same(view[i], want[i])
            assert _same(view[-1], want[-1])
            for cut in (slice(data.draw(st.integers(-n - 1, n + 1)),
                              data.draw(st.integers(-n - 1, n + 1))),
                        slice(None, None, -2)):
                part = view[cut]
                assert type(part) is tuple and _all_same(part, want[cut])
            for past in (n, -n - 1):
                with pytest.raises(IndexError):
                    view[past]
            extended = view + (None,)
            assert type(extended) is tuple
            assert _all_same(extended[:-1], want) and extended[-1] is None
            if not isinstance(want[0], QuantumHistory):
                assert view == want and want == view and view != want[:-1]
                assert want[i] in view and view.index(want[i]) <= i % n

    @given(FAMILY_SHAPES)
    @settings(max_examples=10, deadline=None)
    def test_rows_are_built_only_when_read(self, shape):
        seed, dim, n_times, s_t = shape
        spec, sched = random_family_spec(seed, dim, n_times, s_t)
        with pytest.MonkeyPatch.context() as monkeypatch:
            built = _spy_builders(monkeypatch)
            views = [view for view, _ in _views(spec, sched, seed, 2)]
            assert len(views) == 7
            built.clear()  # the variants are built from the members
            lengths = [len(view) for view in views]
            assert built == []
            for view, n in zip(views, lengths):
                assert view[-1] is not None and len(built) == 1
                built.clear()
                assert len(list(view)) == n and len(built) == n
                built.clear()

    def test_a_view_is_cached(self):
        spec, sched = random_family_spec(5, 3, 3, 1)
        fam = enumerate_family(spec)
        report = measure_report(fam, sched)
        dist = OutcomeDistribution.from_columns(fam.index, report.measures)
        table = monte_carlo_sample(dist, 100, 5)
        for owner, name in ((fam, "histories"), (report, "entries"),
                            (dist, "outcomes"), (table, "rows")):
            assert getattr(owner, name) is getattr(owner, name)


def test_a_view_keeps_no_owner_alive():
    # with the cyclic collector off, an owner its view referred to would
    # outlive its last reference
    spec, sched = random_family_spec(6, 3, 4, 1)
    gc.disable()
    try:
        fam = enumerate_family(spec)
        report = measure_report(fam, sched, steps_per_segment=2)
        dist = OutcomeDistribution.from_columns(fam.index, report.measures)
        table = monte_carlo_sample(dist, 100, 6)
        owners = [fam, report, dist, table]
        for name, owner in zip(("histories", "entries", "outcomes", "rows"),
                               owners):
            assert len(list(getattr(owner, name))) == 27
        refs = [weakref.ref(owner) for owner in owners]
        del fam, report, dist, table, owner
        # each owner is held by the list alone; a report holds its family
        while owners:
            owners.pop()
            assert refs.pop()() is None
    finally:
        gc.enable()
