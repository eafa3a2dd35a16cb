import json
import math

import numpy as np
import pytest

from qcontour import (FixedPoint, ModelFormatError, ModelSpec, TimeGrid,
                      ValidationError, enumerate_family, load_model,
                      measure_report, model_from_dict, model_to_dict,
                      save_model)
from qcontour.sampling import (random_orthonormal_basis, random_schedule,
                               random_state, rng_from_seed)

SX_PAIRS = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


def born_model_dict(theta=math.pi / 4):
    return {
        "dim": 2,
        "grid": [0.0, theta],
        "hamiltonian": [{"t_start": 0.0, "t_end": theta, "matrix": SX_PAIRS}],
        "constraints": [{"time": 0.0, "state": [[1, 0], [0, 0]],
                         "label": "prep"}],
    }


class TestParsing:
    def test_minimal_model(self):
        model = model_from_dict(born_model_dict())
        assert model.dim == 2
        assert model.n_times == 2
        assert len(model.constraints) == 1
        np.testing.assert_allclose(model.bases[0][0], [1, 0])

    def test_missing_key(self):
        doc = born_model_dict()
        del doc["hamiltonian"]
        with pytest.raises(ModelFormatError, match="hamiltonian"):
            model_from_dict(doc)

    def test_bad_complex_pair(self):
        doc = born_model_dict()
        doc["constraints"][0]["state"] = [[1, 0], [0]]
        with pytest.raises(ModelFormatError, match=r"state\[1\]"):
            model_from_dict(doc)

    def test_non_hermitian_rejected(self):
        doc = born_model_dict()
        doc["hamiltonian"][0]["matrix"] = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
        with pytest.raises(ValidationError, match="Hermitian"):
            model_from_dict(doc)

    def test_constraint_off_grid_rejected(self):
        doc = born_model_dict()
        doc["constraints"][0]["time"] = 0.123
        with pytest.raises(ValidationError, match="grid"):
            model_from_dict(doc)

    def test_non_orthonormal_basis_rejected(self):
        doc = born_model_dict()
        doc["bases"] = [None, [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]]
        with pytest.raises(ValidationError, match="orthonormal"):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [None, {}, {"time": 0.0}, "c0", 3])
    def test_constraints_not_a_list_rejected(self, value):
        doc = born_model_dict()
        doc["constraints"] = value
        with pytest.raises(ModelFormatError, match="^constraints: "):
            model_from_dict(doc)

    def test_parse_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "grid": [0.0,]\n}')
        with pytest.raises(ModelFormatError, match="line 2"):
            load_model(path)


class TestRoundTrip:
    def test_save_load_reproduces_computations_exactly(self, tmp_path):
        model = model_from_dict(born_model_dict())
        path = tmp_path / "model.json"
        save_model(model, path)
        reloaded = load_model(path)

        first = measure_report(enumerate_family(model.family_spec()),
                               model.schedule, steps_per_segment=8)
        second = measure_report(enumerate_family(reloaded.family_spec()),
                                reloaded.schedule, steps_per_segment=8)
        assert (first.entries, first.normalization, first.constraint_times) \
            == (second.entries, second.normalization, second.constraint_times)

    def test_dict_round_trip_stable(self):
        doc = born_model_dict()
        once = model_to_dict(model_from_dict(doc))
        twice = model_to_dict(model_from_dict(json.loads(json.dumps(once))))
        assert once == twice

    def test_preparation_survives(self, tmp_path):
        doc = born_model_dict()
        doc["preparation"] = [[0, 0], [1, 0]]
        model = model_from_dict(doc)
        path = tmp_path / "model.json"
        save_model(model, path)
        np.testing.assert_allclose(load_model(path).preparation_state(),
                                   [0, 1])

    def test_preparation_defaults_to_first_constraint(self):
        model = model_from_dict(born_model_dict())
        np.testing.assert_allclose(model.preparation_state(), [1, 0])


class TestToyBundle:
    @staticmethod
    def model(pivot_time):
        rng = rng_from_seed(61)
        times = (0.0, 0.5, 1.2)
        bases = tuple(tuple(random_orthonormal_basis(rng, 3)) for _ in times)
        pivot = FixedPoint(pivot_time, random_state(rng, 3), label="pivot")
        return ModelSpec(dim=3, grid=TimeGrid(times),
                         schedule=random_schedule(rng, times, 3),
                         bases=bases, constraints=(pivot,))

    def test_branches_are_the_outer_basis_fixed_points(self):
        model = self.model(0.5)
        bundle = model.toy_bundle()
        assert bundle.pivot is model.constraints[0]
        for branches, t, basis in ((bundle.past, 0.0, model.bases[0]),
                                   (bundle.future, 1.2, model.bases[2])):
            assert [b.label for b in branches] == ["0", "1", "2"]
            assert all(b.time == t for b in branches)
            for b, v in zip(branches, basis, strict=True):
                np.testing.assert_array_equal(b.state, v)

    def test_pivot_must_sit_at_the_middle_time(self):
        with pytest.raises(ValidationError, match="at the middle time"):
            self.model(0.0).toy_bundle()


def _set(path, value):
    """A Born model document with the entry at ``path`` replaced."""
    doc = born_model_dict()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestMalformedNumbers:
    @pytest.mark.parametrize("path, value, field", [
        (("dim",), True, "^dim: "),
        (("dim",), 2.0, "^dim: "),
        (("grid",), [False, True], r"grid\[0\]"),
        (("grid",), [0.0, math.inf], r"grid\[1\]"),
        (("grid",), [math.nan, 1.0], r"grid\[0\]"),
        (("grid",), [0.0, "1"], r"grid\[1\]"),
        (("grid",), [0.0, 10 ** 400], r"grid\[1\]"),
        (("hamiltonian", 0, "t_start"), False, r"hamiltonian\[0\]\.t_start"),
        (("hamiltonian", 0, "t_end"), math.inf, r"hamiltonian\[0\]\.t_end"),
        (("constraints", 0, "time"), True, r"constraints\[0\]\.time"),
        (("constraints", 0, "time"), -math.inf, r"constraints\[0\]\.time"),
        (("constraints", 0, "state"), [[True, 0], [0, 0]],
         r"constraints\[0\]\.state\[0\]"),
    ])
    def test_rejected_naming_the_field(self, path, value, field):
        with pytest.raises(ModelFormatError, match=field):
            model_from_dict(_set(path, value))

    def test_json_infinity_in_file(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(_set(("grid",), [0.0, math.inf])))
        assert "Infinity" in path.read_text()
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    def test_integer_times_still_read(self):
        doc = _set(("grid",), [0, 1])
        doc["hamiltonian"][0].update(t_start=0, t_end=1)
        doc["constraints"][0]["time"] = 0
        model = model_from_dict(doc)
        assert model.grid.times == (0.0, 1.0)
        assert model.constraints[0].time == 0.0
