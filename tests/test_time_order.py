"""The one time-order rule, ``contour.require_increasing``, at every entry
point that takes a sequence of times, and the one "not before" rule,
``contour.require_not_before``, at both entry points that take a start."""

import json
import math
import re

import pytest

from qcontour import (FamilySpec, FixedPoint, HamiltonianSchedule,
                      QuantumHistory, ToyBundle, ValidationError,
                      born_probability, history_operator, segment_amplitude,
                      sequential_chain)
from qcontour.cli import main
from qcontour.contour import (require_increasing, require_not_before,
                              same_time)
from qcontour.linalg import TIME_EPS

from toys import E0, E1, SX, computational_basis

SX_PAIRS = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
BASIS = computational_basis(2)


def write_model(tmp_path, grid, t_end, constraints):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dim": 2, "grid": list(grid),
        "hamiltonian": [{"t_start": grid[0], "t_end": t_end,
                         "matrix": SX_PAIRS}],
        "constraints": [{"time": t, "state": state}
                        for t, state in constraints]}))
    return str(path)


def run_cli(command, tmp_path, t0, t1):
    """``qcontour COMMAND`` on a one-segment model over the grid (t0, t1)
    pinned at t0; exit 3 (a ValidationError) is re-raised as one."""
    path = write_model(tmp_path, (t0, t1), t1 + 1.0,
                       [(t0, [[1, 0], [0, 0]])])
    extra = ["--trials", "100"] if command == "verify" else []
    code = main([command, path, *extra])
    assert code in (0, ValidationError.exit_code)
    if code:
        raise ValidationError(f"qcontour {command} exit {code}")


def sched_from(t0):
    return HamiltonianSchedule.constant(SX, t0, t0 + 2.0)


ENTRY_POINTS = {
    "FamilySpec": lambda t0, t1, tmp: FamilySpec(times=(t0, t1),
                                                 bases=(BASIS, BASIS)),
    "measure": lambda t0, t1, tmp: run_cli("measure", tmp, t0, t1),
    "verify": lambda t0, t1, tmp: run_cli("verify", tmp, t0, t1),
    "QuantumHistory": lambda t0, t1, tmp: QuantumHistory(
        (FixedPoint(t0, E0), FixedPoint(t1, E1))),
    "history_operator": lambda t0, t1, tmp: history_operator(
        (FixedPoint(t0, E0), FixedPoint(t1, E1)), sched_from(t0), t0),
    "sequential_chain": lambda t0, t1, tmp: sequential_chain(
        E0, (BASIS, BASIS), (t0, t1), sched_from(t0), t_prep=t0),
    "segment_amplitude": lambda t0, t1, tmp: segment_amplitude(
        FixedPoint(t0, E0), FixedPoint(t1, E1), sched_from(t0)),
    "born_probability": lambda t0, t1, tmp: born_probability(
        E0, t0, E1, t1, sched_from(t0)),
    "ToyBundle": lambda t0, t1, tmp: ToyBundle(
        past=(FixedPoint(t0, E0),), pivot=FixedPoint(t1, E0),
        future=(FixedPoint(t1 + 1.0, E0),)),
    "HamiltonianSchedule": lambda t0, t1, tmp: HamiltonianSchedule(
        [(t0, t1, SX)]),
}


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_matching_pair(entry, scale, tmp_path):
    call = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError):
        call(scale, scale + 0.5 * TIME_EPS * scale, tmp_path)
    call(scale, scale + 2 * TIME_EPS * scale, tmp_path)


class TestRequireIncreasing:
    def test_returns_floats(self):
        assert require_increasing([0, 1, 2.5], "times") == (0.0, 1.0, 2.5)
        assert require_increasing((), "times") == ()
        assert require_increasing([3], "times") == (3.0,)

    @pytest.mark.parametrize("times", [
        (0.0, 0.0), (1.0, 0.5), (0.0, 1.0, 1.0 + 1e-13), (0.0, math.nan),
        (math.nan, 1.0), (0.0, math.inf), (math.inf,), (-math.inf, 0.0)])
    def test_rejects(self, times):
        with pytest.raises(ValidationError, match="^grid times must"):
            require_increasing(times, "grid times")

    @pytest.mark.parametrize("times", [("a",), (0.0, "1"), (None,),
                                       (False, True), (0.0, 1j)])
    def test_rejects_non_numbers(self, times):
        # "a" used to leak ValueError from float, and "1" or a bool was
        # taken as a time
        with pytest.raises(ValidationError, match="^grid times must be real"):
            require_increasing(times, "grid times")
        with pytest.raises(ValidationError, match="^grid times must be real"):
            FamilySpec(times=times, bases=())

    def test_message_names_the_times_as_written(self):
        with pytest.raises(ValidationError) as exc:
            require_increasing((0, 1, 1 + 1e-13), "grid times")
        assert str(exc.value) == ("grid times must increase and be distinct, "
                                  "got (0.0, 1.0, 1.0000000000001)")


NOT_BEFORE = {
    "sequential_chain": lambda start, t, sched: sequential_chain(
        E0, (BASIS,), (t,), sched, t_prep=start),
    "history_operator": lambda start, t, sched: history_operator(
        (FixedPoint(t, E0), FixedPoint(t + 1.0, E1)), sched, start),
}


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
@pytest.mark.parametrize("entry", sorted(NOT_BEFORE))
def test_not_before_uses_the_time_matcher(entry, scale):
    call, start = NOT_BEFORE[entry], scale
    sched = HamiltonianSchedule.constant(SX, 0.0, 2.0 * scale)
    for t in (start - 0.5 * TIME_EPS * scale, start + 0.5 * TIME_EPS * scale):
        call(start, t, sched)
    with pytest.raises(ValidationError, match="must not precede"):
        call(start, start - 1e-6 * scale, sched)


class TestRequireNotBefore:
    @pytest.mark.parametrize("t", [2, 1.0, 1.0 - 1e-13, math.inf])
    def test_accepts(self, t):
        require_not_before(t, 1.0, "first time")

    @pytest.mark.parametrize("t", [0.5, math.nan, -math.inf])
    def test_rejects(self, t):
        with pytest.raises(ValidationError, match="^first time .* must not "
                                                  "precede 1.0$"):
            require_not_before(t, 1.0, "first time")


class TestGridAsWritten:
    """A grid time within TIME_EPS of the one before it, with the final
    constraint there: the constraint used to be pinned at the earlier
    slot and the closed form returned measures [0.0, 1.0]."""

    GRID = (0.0, 1.0, 1.0 + 1e-13)
    WRITTEN = "(0.0, 1.0, 1.0000000000001)"

    def test_family_spec_rejects_it(self):
        with pytest.raises(ValidationError,
                           match="^grid times .*" + re.escape(self.WRITTEN)):
            FamilySpec(times=self.GRID, bases=(BASIS,) * 3,
                       constraints=(FixedPoint(0.0, E0),
                                    FixedPoint(self.GRID[-1], E1)))

    @pytest.mark.parametrize("command", ["measure", "verify"])
    def test_cli_exit_3_names_it(self, command, tmp_path, capsys):
        path = write_model(tmp_path, self.GRID, 2.0,
                           [(0.0, [[1, 0], [0, 0]]),
                            (self.GRID[-1], [[0, 0], [1, 0]])])
        assert main([command, path]) == 3
        err = capsys.readouterr().err
        assert err == ("error: grid times must increase and be distinct, "
                       f"got {self.WRITTEN}\n")

    @pytest.mark.parametrize("grid", [(0.0, 0.0), (1.0, 0.5)])
    def test_non_increasing_grid_file_exit_3(self, grid, tmp_path, capsys):
        path = write_model(tmp_path, grid, 2.0, [])
        assert main(["measure", path]) == 3
        assert "grid times must increase" in capsys.readouterr().err


class TestSlotTimes:
    def test_constraint_matching_two_grid_times_is_rejected(self):
        # the grid keeps the rule (spacing 1.5 TIME_EPS), but the constraint
        # matches both times, so its slot time matches the next one
        grid = (0.0, 1.0, 1.0 + 1.5 * TIME_EPS)
        with pytest.raises(ValidationError, match="^slot times"):
            FamilySpec(times=grid, bases=(BASIS,) * 3,
                       constraints=(FixedPoint(1.0 + 0.9 * TIME_EPS, E0),))

    def test_constraint_within_eps_of_its_grid_time_is_accepted(self):
        spec = FamilySpec(times=(0.0, 1.0, 2.0), bases=(BASIS,) * 3,
                          constraints=(FixedPoint(1.0 + 0.5 * TIME_EPS, E0),))
        assert list(spec.pinned) == [1]


def test_an_infinite_time_matches_none():
    for t in (0.0, 1.0, 1e300):
        assert not same_time(math.inf, t) and not same_time(t, -math.inf)
    assert not same_time(math.inf, math.inf)
    sched = HamiltonianSchedule.constant(SX, 0.0, 1.0)
    assert not sched.covers(math.inf) and not sched.covers(-math.inf)


class TestCovers:
    def test_span_and_its_matching_ends(self):
        sched = HamiltonianSchedule.constant(SX, 1e6, 1e6 + 1.0)
        assert sched.covers(1e6) and sched.covers(1e6 + 0.5)
        assert sched.covers(1e6 - 0.5 * TIME_EPS * 1e6)
        assert sched.covers(1e6 + 1.0 + 0.5 * TIME_EPS * 1e6)
        assert not sched.covers(1e6 - 2 * TIME_EPS * 1e6)
        assert not sched.covers(1e6 + 1.0 + 2 * TIME_EPS * 1e6)
