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

``grid`` holds at least two increasing times.  ``bases`` may be omitted or
contain null entries; missing bases default to the computational basis.
Unknown keys are ignored.  ``model_from_dict`` checks the format
(``ModelFormatError``); the values are checked once, by ``ModelSpec``:
orthonormal bases, constraints at distinct grid times, one dimension, and a
schedule covering the grid.  Matrices must be Hermitian within
``linalg.INPUT_TOL`` on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contour import TimeGrid, grid_index
from .dynamics import HamiltonianSchedule
from .errors import DimensionMismatchError, ModelFormatError, ValidationError
from .histories import FamilySpec, FixedPoint
from .measure import ToyBundle


def _is_number(x) -> bool:
    """A JSON number; booleans are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _time_from_json(value, where: str) -> float:
    """A grid, segment or constraint time: a finite JSON number."""
    try:
        t = float(value) if _is_number(value) else math.nan
    except OverflowError:  # an integer beyond the float range
        t = math.inf
    if not math.isfinite(t):
        raise ModelFormatError(
            f"{where}: expected a finite number, got {value!r}")
    return t


def _complex_from_pair(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(map(_is_number, value))):
        raise ModelFormatError(
            f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def vector_from_json(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty list of pairs")
    return np.array([_complex_from_pair(v, f"{where}[{i}]")
                     for i, v in enumerate(value)])


def matrix_from_json(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{where}: expected a non-empty list of rows")
    rows = [vector_from_json(row, f"{where}[{i}]")
            for i, row in enumerate(value)]
    if len({r.size for r in rows}) != 1 or rows[0].size != len(rows):
        raise ModelFormatError(f"{where}: matrix is not square")
    return np.array(rows)


def pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def vector_to_json(vec) -> list:
    return [pair(z) for z in np.asarray(vec, dtype=complex).reshape(-1)]


def matrix_to_json(mat) -> list:
    return [vector_to_json(row) for row in np.asarray(mat, dtype=complex)]


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
        if self.schedule.dim != self.dim:
            raise DimensionMismatchError(
                f"schedule dimension {self.schedule.dim} does not match "
                f"the bases ({self.dim})")
        span = (self.schedule.t_min, self.schedule.t_max)
        if not all(span[0] <= t <= span[1] or grid_index(span, t) is not None
                   for t in (self.times[0], self.times[-1])):
            raise ValidationError("schedule span does not cover the grid")

    def toy_bundle(self) -> ToyBundle:
        """Read the model as past branches, one pivot, future branches.

        Requires exactly three grid times with the single constraint at the
        middle one; the recipe's outer slots, one fixed point per basis
        vector there, are the branch sets.
        """
        if len(self.times) != 3:
            raise ValidationError(
                "bundle decomposition needs exactly three grid times")
        if list(self.pinned) != [1]:
            raise ValidationError(
                "bundle decomposition needs exactly one constraint, "
                "at the middle time")
        past, (pivot,), future = self.slots
        return ToyBundle(past=past, pivot=pivot, future=future)


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
    try:
        times = TimeGrid(times).times
    except ValidationError as exc:
        raise ModelFormatError(f"grid: {exc}") from exc

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

    Any failure to read or parse it, and a top-level value that is not an
    object, raises ModelFormatError naming the file; parse problems carry
    line-anchored messages.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(
            f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def load_model(path) -> ModelSpec:
    """Parse and validate a model file."""
    return model_from_dict(read_json(path))


def save_model(model: ModelSpec, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2),
                          encoding="utf-8")
