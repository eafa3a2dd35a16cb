"""Doubled time axis: a forward and a backward branch over a discrete grid.

The full contour is the forward branch traversed in chronological order
followed by the backward branch traversed anti-chronologically, so contour
order is not time order: every forward point precedes every backward point,
and on the backward branch later physical times come first.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import TIME_EPS, is_real


def same_time(a: float, b: float) -> bool:
    """The one time matcher: absolute tolerance below 1, relative above;
    an infinite time matches none."""
    gap = abs(a - b)
    return gap <= TIME_EPS * max(1.0, abs(a), abs(b)) and math.isfinite(gap)


def same_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``same_time`` elementwise over arrays of times: the same float
    operations, so every decision is ``same_time``'s."""
    gap = np.abs(a - b)
    return ((gap <= TIME_EPS * np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                          1.0))
            & np.isfinite(gap))


def require_time(t, what: str) -> float:
    """The one scalar-time rule: ``t`` as a float; ValidationError unless it
    is a real, finite number and not a bool."""
    try:
        value = float(t) if is_real(t) else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{what} must be real and finite, got {t!r}")
    return value


def require_increasing(times, what: str) -> tuple[float, ...]:
    """The one time-order rule: ``times`` as floats, each a time
    (``require_time``) after the one before and not ``same_time`` as it."""
    values = tuple(require_time(t, what) for t in times)
    if any(not b > a or same_time(a, b) for a, b in zip(values, values[1:])):
        raise ValidationError(
            f"{what} must increase and be distinct, got {values}")
    return values


def require_not_before(t: float, start: float, what: str) -> None:
    """The one "not before" rule: ValidationError if ``t`` is earlier than
    ``start`` and not ``same_time`` as it."""
    t, start = float(t), float(start)
    if not (t >= start or same_time(t, start)):
        raise ValidationError(f"{what} {t} must not precede {start}")


def grid_index(times, t: float) -> int | None:
    """Index of the first grid time matching ``t``, or None."""
    return next((i for i, g in enumerate(times) if same_time(g, t)), None)


class Branch(enum.Enum):
    """Orientation tag: forward ('f') or backward ('b')."""

    F = "f"
    B = "b"

    def flipped(self) -> "Branch":
        return Branch.B if self is Branch.F else Branch.F


@dataclass(frozen=True)
class ContourTime:
    """A physical time paired with a branch tag."""

    t: float
    branch: Branch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContourTime({self.t!r}, {self.branch.value})"


@dataclass(frozen=True)
class TimeGrid:
    """Increasing, distinct physical times t_1 < ... < t_{N_t}."""

    times: tuple[float, ...]

    def __init__(self, times):
        values = require_increasing(times, "grid times")
        if len(values) < 1:
            raise ValidationError("time grid must contain at least one time")
        object.__setattr__(self, "times", values)

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def t_min(self) -> float:
        return self.times[0]

    @property
    def t_max(self) -> float:
        return self.times[-1]


def contour_key(z: ContourTime) -> tuple[int, float]:
    """Sort key realizing contour order.

    Forward points sort by increasing time, backward points by decreasing
    time, and the whole forward branch precedes the backward branch.
    """
    if z.branch is Branch.F:
        return (0, z.t)
    return (1, -z.t)


def contour_compare(z1: ContourTime, z2: ContourTime) -> int:
    """Three-way contour-order comparison: -1 before, 0 equal, +1 after."""
    k1, k2 = contour_key(z1), contour_key(z2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


class ContourStep(NamedTuple):
    """One directed segment of the contour walk; both ends share a branch."""

    start: ContourTime
    end: ContourTime


def contour_path(grid: TimeGrid) -> list[ContourStep]:
    """The 2(N_t - 1) directed steps of the full contour traversal.

    First the forward steps t_1 -> t_2 -> ... -> t_{N_t} on the forward
    branch, then the backward steps t_{N_t} -> ... -> t_1 on the backward
    branch.  Each step advances the walk by exactly one grid point in
    contour order.
    """
    if grid.n_times < 2:
        raise ValidationError("contour path requires at least two grid times")
    steps = []
    for a, b in zip(grid.times, grid.times[1:]):
        steps.append(ContourStep(ContourTime(a, Branch.F),
                                 ContourTime(b, Branch.F)))
    for a, b in zip(grid.times[::-1], grid.times[-2::-1]):
        steps.append(ContourStep(ContourTime(a, Branch.B),
                                 ContourTime(b, Branch.B)))
    return steps
