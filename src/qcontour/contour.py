"""The doubled time contour over a discrete grid, and the rules for times.

The contour runs forward through the grid in chronological order, then
backward from the last time to the first.  ``contour_path`` is its one
description: the steps as (k, l) pairs of grid-slot indices, the
forward ones (k < l) first.  Contour order is position on that path, so
it is not time order: every forward step comes before every backward
one, and on the backward branch later times come first.

The rest of the module is the one place a time is checked or matched:
``require_time``, ``require_increasing``, ``require_not_before``,
``same_time`` and ``grid_index``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .linalg import (MAX_ENUMERATION, TIME_EPS, is_real, require_count,
                     require_sequence)


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
    (``require_time``) after the one before and not ``same_time`` as it;
    ValidationError also when ``require_sequence`` refuses ``times``."""
    values = tuple(require_time(t, what)
                   for t in require_sequence(times, what, "times"))
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


def contour_path(n_times: int) -> list[tuple[int, int]]:
    """The 2(N_t - 1) steps of the doubled contour over ``n_times`` grid
    times, as (k, l) slot-index pairs.

    First the forward steps (0, 1), ..., (N_t - 2, N_t - 1), then the
    backward steps (N_t - 1, N_t - 2), ..., (1, 0).  A step is forward
    exactly when k < l.  The path is its own time reversal: reversing
    the list and swapping each pair gives it back.  ``n_times`` is a count
    from 2 to ``MAX_ENUMERATION``, checked before the list is built.
    """
    n = require_count(n_times, "grid times", 2, MAX_ENUMERATION)
    forward = [(k, k + 1) for k in range(n - 1)]
    return forward + [(l, k) for k, l in reversed(forward)]
