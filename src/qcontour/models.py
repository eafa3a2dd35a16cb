"""Model files: a JSON description of a grid, schedule, bases and constraints.

A model (``ModelSpec``) is a family recipe (``FamilySpec``: per-time bases
and fixed-point constraints over a grid) plus the Hamiltonian schedule of
the dynamics between the grid times.

Schema (complex numbers are [re, im] pairs, matrices are row-major):

    {
      "dim": 2,
      "grid": [0.0, 0.7853981633974483],
      "hamiltonian": [
        {"t_start": 0.0, "t_end": 0.7853981633974483,
         "matrix": [[[0,0],[1,0]], [[1,0],[0,0]]]}
      ],
      "bases": [null, [[[1,0],[0,0]], [[0,0],[1,0]]]],
      "constraints": [{"time": 0.0, "state": [[1,0],[0,0]], "label": "prep"}]
    }

``grid`` holds at least two increasing, distinct times.  ``bases`` may be
omitted or contain null entries; missing bases default to the computational
basis.  Unknown keys are ignored.  ``model_from_dict`` checks the format
(``ModelFormatError``); the values are checked once, by ``ModelSpec``:
the grid, orthonormal bases, constraints at distinct grid times, one
dimension, and a schedule covering the grid.  Matrices must be Hermitian within
``linalg.INPUT_TOL`` on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .contour import require_time
from .dynamics import HamiltonianSchedule, require_schedule
from .errors import ModelFormatError, ValidationError
from .histories import FamilySpec, FixedPoint


def _time_from_json(value, where: str) -> float:
    """A grid, segment or constraint time: a finite JSON number."""
    try:
        return require_time(value, where)
    except ValidationError:
        raise ModelFormatError(
            f"{where}: expected a finite number, got {value!r}") from None


def _is_pair(value) -> bool:
    """True iff ``value`` is a [re, im] pair: a list or tuple of two real
    numbers, not bools."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and linalg.is_real(value[0]) and linalg.is_real(value[1]))


def _fits_float(x) -> bool:
    try:
        float(x)
    except OverflowError:  # an integer beyond the float range
        return False
    return True


def vector_from_json(value, where: str) -> np.ndarray:
    """A list of [re, im] pairs as a complex vector.

    One pass checks the pairs, one ``np.array`` reads them all.  Only on
    failure is the first faulty pair located, in reading order: one that
    is not a pair, or one that holds a number beyond the float range.
    """
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty list of pairs")
    if all(map(_is_pair, value)):
        try:
            return np.array(value, dtype=float).view(complex).ravel()
        except OverflowError:
            pass
    i, v = next((i, v) for i, v in enumerate(value)
                if not (_is_pair(v) and all(map(_fits_float, v))))
    if _is_pair(v):
        raise ModelFormatError(f"{where}[{i}]: [re, im] pair holds a number "
                               "beyond the float range")
    raise ModelFormatError(f"{where}[{i}]: expected a [re, im] pair, got {v!r}")


def matrix_from_json(value, where: str) -> np.ndarray:
    """A list of rows of [re, im] pairs as a square complex matrix, read
    by one ``np.array``; on failure the rows are read one by one, so the
    first fault in reading order is the one reported."""
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty list of rows")
    n = len(value)
    pairs = None
    if all(isinstance(row, list) and row and all(map(_is_pair, row))
           for row in value):
        try:
            pairs = np.array(value, dtype=float)
        except (OverflowError, ValueError):  # a huge integer, ragged rows
            pass
    if pairs is None:
        for i, row in enumerate(value):
            vector_from_json(row, f"{where}[{i}]")
    if pairs is None or pairs.shape != (n, n, 2):
        raise ModelFormatError(f"{where}: matrix is not square")
    return pairs.view(complex).reshape(n, n)


def pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_to_json(vec: np.ndarray) -> list:
    return [pair(z) for z in vec.reshape(-1)]


def matrix_to_json(mat: np.ndarray) -> list:
    return [vector_to_json(row) for row in mat]


@dataclass(frozen=True, eq=False, kw_only=True)
class ModelSpec(FamilySpec):
    """A model: a family recipe (grid, bases, constraints) and the schedule
    of the dynamics between its times.

    ``FamilySpec`` validates the recipe; here the schedule must share its
    dimension and cover its grid.
    """

    schedule: HamiltonianSchedule

    def __post_init__(self):
        super().__post_init__()
        linalg.require_dim("schedule", require_schedule(self.schedule).dim,
                           self.dim)
        if not all(map(self.schedule.covers, self.times)):
            raise ValidationError("schedule span does not cover the grid")


def _computational_basis(dim: int) -> tuple[np.ndarray, ...]:
    return tuple(np.eye(dim, dtype=complex)[:, k].copy() for k in range(dim))


def model_from_dict(doc: dict) -> ModelSpec:
    """Build and validate a ModelSpec from parsed JSON."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    for key in ("dim", "grid", "hamiltonian"):
        if key not in doc:
            raise ModelFormatError(f"model is missing required key {key!r}")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise ModelFormatError(f"dim: expected a positive integer, got {dim!r}")
    if not isinstance(doc["grid"], list) or len(doc["grid"]) < 2:
        raise ModelFormatError("grid: expected a list of at least two times")
    times = [_time_from_json(t, f"grid[{k}]")
             for k, t in enumerate(doc["grid"])]

    segments = []
    if not isinstance(doc["hamiltonian"], list) or not doc["hamiltonian"]:
        raise ModelFormatError("hamiltonian: expected a list of segments")
    for i, seg in enumerate(doc["hamiltonian"]):
        where = f"hamiltonian[{i}]"
        if not isinstance(seg, dict):
            raise ModelFormatError(f"{where}: expected an object")
        for key in ("t_start", "t_end", "matrix"):
            if key not in seg:
                raise ModelFormatError(f"{where}: missing key {key!r}")
        h = matrix_from_json(seg["matrix"], f"{where}.matrix")
        if h.shape[0] != dim:
            raise ModelFormatError(
                f"{where}.matrix: dimension {h.shape[0]} does not match dim")
        segments.append((_time_from_json(seg["t_start"], f"{where}.t_start"),
                         _time_from_json(seg["t_end"], f"{where}.t_end"), h))
    schedule = HamiltonianSchedule(segments)

    raw_bases = doc.get("bases")
    if raw_bases is None:
        raw_bases = [None] * len(times)
    if not isinstance(raw_bases, list) or len(raw_bases) != len(times):
        raise ModelFormatError(
            "bases: expected one entry per grid time (or null)")
    bases = []
    for i, entry in enumerate(raw_bases):
        if entry is None:
            bases.append(_computational_basis(dim))
            continue
        where = f"bases[{i}]"
        if not isinstance(entry, list) or not entry:
            raise ModelFormatError(f"{where}: expected a list of states")
        vecs = tuple(vector_from_json(v, f"{where}[{k}]")
                     for k, v in enumerate(entry))
        for k, v in enumerate(vecs):
            if v.size != dim:
                raise ModelFormatError(
                    f"{where}[{k}]: dimension {v.size} does not match dim")
        bases.append(vecs)

    raw_constraints = doc.get("constraints", [])
    if not isinstance(raw_constraints, list):
        raise ModelFormatError("constraints: expected a list of objects")
    constraints = []
    for i, entry in enumerate(raw_constraints):
        where = f"constraints[{i}]"
        if not isinstance(entry, dict) or "time" not in entry \
                or "state" not in entry:
            raise ModelFormatError(
                f"{where}: expected an object with time and state")
        t = _time_from_json(entry["time"], f"{where}.time")
        state = vector_from_json(entry["state"], f"{where}.state")
        label = entry.get("label", f"c{i}")
        try:
            constraints.append(FixedPoint(t, state, label=str(label)))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    return ModelSpec(times=times, bases=tuple(bases),
                     constraints=tuple(constraints), schedule=schedule)


def model_to_dict(model: ModelSpec) -> dict:
    """Serialize a ModelSpec back to the JSON schema (round-trip exact)."""
    linalg.require_instance(model, ModelSpec, "model")
    return {
        "dim": model.dim,
        "grid": list(model.times),
        "hamiltonian": [
            {"t_start": t0, "t_end": t1, "matrix": matrix_to_json(h)}
            for t0, t1, h in model.schedule.segments],
        "bases": [[vector_to_json(v) for v in basis]
                  for basis in model.bases],
        "constraints": [
            {"time": fp.time, "state": vector_to_json(fp.state),
             "label": fp.label}
            for fp in model.constraints],
    }


def read_json(path) -> dict:
    """Parse a JSON object from a file.

    Any failure to read or parse it (a ``path`` that is not a path
    included), and a top-level value that is not an object, raises
    ModelFormatError naming the file; parse problems carry line-anchored
    messages.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, TypeError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(
            f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_model(path) -> ModelSpec:
    """Parse and validate a model file."""
    return model_from_dict(read_json(path))


def save_model(model: ModelSpec, path) -> None:
    """Write a model file; a failure to write it (a ``path`` that is not a
    path included) raises ModelFormatError naming the file."""
    text = json.dumps(model_to_dict(model), indent=2)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, TypeError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
