import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qcontour import cli, linalg, measure_report
from qcontour.cli import main

SX_PAIRS = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
ZERO_PAIRS = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def born_model(tmp_path, theta=math.pi / 4):
    return write(tmp_path, "born.json", {
        "dim": 2,
        "grid": [0.0, theta],
        "hamiltonian": [{"t_start": 0.0, "t_end": theta, "matrix": SX_PAIRS}],
        "constraints": [{"time": 0.0, "state": [[1, 0], [0, 0]],
                         "label": "prep"}],
    })


def bundle_model(tmp_path):
    return write(tmp_path, "bundle.json", {
        "dim": 2,
        "grid": [0.0, 1.0, 2.0],
        "hamiltonian": [
            {"t_start": 0.0, "t_end": 2.0, "matrix": SX_PAIRS}],
        "constraints": [{"time": 1.0, "state": [[1, 0], [0, 0]],
                         "label": "pivot"}],
    })


def run_structured(capsys, argv):
    code = main(argv + ["--format", "structured"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPropagate:
    def test_null_hamiltonian_prints_identity(self, tmp_path, capsys):
        model = write(tmp_path, "zero.json", {
            "dim": 2, "grid": [0.0, 1.0],
            "hamiltonian": [{"t_start": 0, "t_end": 1,
                             "matrix": ZERO_PAIRS}],
        })
        code, doc = run_structured(capsys, ["propagate", model, "0", "1"])
        assert code == 0
        np.testing.assert_allclose(
            np.array(doc["matrix"])[..., 0] + 1j * np.array(doc["matrix"])[..., 1],
            np.eye(2), atol=1e-14)

    def test_sigma_x_half_turn(self, tmp_path, capsys):
        model = born_model(tmp_path, theta=math.pi / 2)
        code, doc = run_structured(
            capsys, ["propagate", model, "0", str(math.pi / 2)])
        assert code == 0
        matrix = np.array(doc["matrix"])[..., 0] + \
            1j * np.array(doc["matrix"])[..., 1]
        sx = np.array([[0, 1], [1, 0]])
        np.testing.assert_allclose(matrix, -1j * sx, atol=1e-12)
        assert doc["unitary_defect"] < 1e-12

    def test_text_format_prints_twelve_digits(self, tmp_path, capsys):
        model = born_model(tmp_path, theta=math.pi / 2)
        assert main(["propagate", model, "0", str(math.pi / 2)]) == 0
        out = capsys.readouterr().out
        # off-diagonal entries of the half-turn propagator are exactly -i
        assert "-1.000000000000e+00j" in out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  not json\n}")
        assert main(["propagate", str(path), "0", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err


class TestMeasure:
    def test_born_toy(self, tmp_path, capsys):
        code, doc = run_structured(capsys, ["measure", born_model(tmp_path)])
        assert code == 0
        measures = sorted(e["measure"] for e in doc["entries"])
        assert measures == pytest.approx([0.5, 0.5])
        assert doc["route_max_discrepancy"] <= 1e-10
        assert doc["normalization"] == pytest.approx(1.0)

    def test_fully_constrained_single_measure(self, tmp_path, capsys):
        model = write(tmp_path, "full.json", {
            "dim": 2, "grid": [0.0, 1.0],
            "hamiltonian": [{"t_start": 0, "t_end": 1,
                             "matrix": ZERO_PAIRS}],
            "constraints": [
                {"time": 0.0, "state": [[1, 0], [0, 0]], "label": "a"},
                {"time": 1.0, "state": [[1, 0], [0, 0]], "label": "b"}],
        })
        code, doc = run_structured(capsys, ["measure", model])
        assert code == 0
        assert [e["measure"] for e in doc["entries"]] == [1.0]

    def test_blocked_model_exit_4(self, tmp_path, capsys):
        model = write(tmp_path, "blocked.json", {
            "dim": 2, "grid": [0.0, 1.0],
            "hamiltonian": [{"t_start": 0, "t_end": 1,
                             "matrix": ZERO_PAIRS}],
            "constraints": [
                {"time": 0.0, "state": [[1, 0], [0, 0]], "label": "a"},
                {"time": 1.0, "state": [[0, 0], [1, 0]], "label": "b"}],
        })
        assert main(["measure", model]) == 4
        assert "zero weight" in capsys.readouterr().err

    def test_enumeration_guard_exit_5(self, tmp_path, capsys):
        # 4^10 free combinations exceeds the guard
        times = [float(i) for i in range(11)]
        zero4 = [[[0, 0]] * 4 for _ in range(4)]
        model = write(tmp_path, "huge.json", {
            "dim": 4, "grid": times,
            "hamiltonian": [{"t_start": 0.0, "t_end": 10.0, "matrix": zero4}],
            "constraints": [{"time": 0.0,
                             "state": [[1, 0], [0, 0], [0, 0], [0, 0]]}],
        })
        assert main(["measure", model]) == 5

    def test_constraints_not_a_list_exit_2(self, tmp_path, capsys):
        with open(born_model(tmp_path)) as f:
            doc = json.load(f)
        doc["constraints"] = None
        assert main(["measure", write(tmp_path, "null.json", doc)]) == 2
        assert "constraints" in capsys.readouterr().err

    def test_zero_steps_per_segment_exit_3(self, tmp_path, capsys):
        model = born_model(tmp_path)
        assert main(["measure", model, "--steps-per-segment", "0"]) == 3
        assert "steps_per_segment" in capsys.readouterr().err


class TestDecompose:
    def test_bundle_report(self, tmp_path, capsys):
        code, doc = run_structured(capsys, ["decompose", bundle_model(tmp_path)])
        assert code == 0
        modes = doc["modes"]
        assert len(modes["MORW"]["terms"]) == 1
        assert len(modes["MMWF"]["terms"]) == 2
        assert len(modes["MMWP"]["terms"]) == 2
        assert len(modes["MDRW"]["terms"]) == 4
        totals = [modes[m]["total"] for m in ("MORW", "MMWF", "MMWP", "MDRW")]
        assert max(totals) - min(totals) <= 1e-12
        assert doc["max_total_spread"] <= 1e-12

    def test_non_orthonormal_branch_set_exit_3(self, tmp_path, capsys):
        doc = json.loads(open(bundle_model(tmp_path)).read())
        doc["bases"] = [[[[1, 0], [0, 0]], [[1, 0], [0, 0]]], None, None]
        model = write(tmp_path, "bad_bundle.json", doc)
        assert main(["decompose", model]) == 3

    def test_wrong_shape_exit_3(self, tmp_path, capsys):
        assert main(["decompose", born_model(tmp_path)]) == 3


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, doc = run_structured(capsys, ["verify", "--trials", "20000"])
        assert code == 0
        assert doc["all_pass"] is True
        names = [r["name"] for r in doc["models"]]
        assert "born-qubit" in names
        assert any(r["s_t"] == 2 for r in doc["models"])

    def test_fixed_seed_gives_identical_bytes(self, capsys):
        argv = ["verify", "--trials", "5000", "--seed", "7",
                "--format", "structured"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_model_file_verification(self, tmp_path, capsys):
        code, doc = run_structured(
            capsys, ["verify", born_model(tmp_path), "--trials", "20000"])
        assert code == 0
        assert doc["models"][0]["chain_deviation"] <= 1e-10

    def test_direct_deviation_catches_a_tampered_report(
            self, tmp_path, capsys, monkeypatch):
        # two free slots; rows 0 and 1 differ at the last one
        model = write(tmp_path, "three.json", {
            "dim": 2, "grid": [0.0, 0.6, 1.3],
            "hamiltonian": [{"t_start": 0.0, "t_end": 1.3,
                             "matrix": SX_PAIRS}],
            "constraints": [{"time": 0.0, "state": [[1, 0], [0, 0]],
                             "label": "prep"}],
        })
        argv = ["verify", model, "--trials", "2000"]
        code, doc = run_structured(capsys, argv)
        assert code == 0
        assert doc["models"][0]["direct_deviation"] <= 1e-14

        def tampered(fam, sched, **kwargs):
            report = measure_report(fam, sched, **kwargs)
            assert fam.choices[0].tolist() != fam.choices[1].tolist()
            measures = report.measures.copy()
            measures[[0, 1]] = measures[[1, 0]]
            assert abs(measures[0] - measures[1]) > 1e-3
            return dataclasses.replace(report, measures=measures)
        monkeypatch.setattr(cli, "measure_report", tampered)
        code, doc = run_structured(capsys, argv)
        row = doc["models"][0]
        assert code == 1 and row["pass"] is False
        assert row["direct_deviation"] > doc["tol"]


class TestFlags:
    """Each subcommand declares only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["decompose", "MODEL", "--trials", "5"],
        ["propagate", "MODEL", "0", "1", "--tol", "1e-9"],
        ["measure", "MODEL", "--seed", "3"],
        ["envariance", "STATE", "TRANSFORM", "--steps-per-segment", "2"],
    ])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["verify", "MODEL"], ["envariance", "STATE", "TRANSFORM"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-12",
                                     "tiny"])
    def test_tol_must_be_finite_and_non_negative(self, command, tol, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, f"--tol={tol}"])
        assert exc.value.code == 2
        assert "expected a finite, non-negative number" in \
            capsys.readouterr().err

    def test_zero_tol_is_accepted(self, tmp_path, capsys):
        code, doc = run_structured(
            capsys, ["verify", born_model(tmp_path), "--tol", "0",
                     "--trials", "2000"])
        assert doc["tol"] == 0.0 and code in (0, 1)

    def test_verify_takes_all_five_flags(self, tmp_path, capsys):
        code, doc = run_structured(
            capsys, ["verify", born_model(tmp_path), "--tol", "1e-9",
                     "--steps-per-segment", "2", "--seed", "3",
                     "--trials", "2000"])
        assert code == 0
        assert (doc["tol"], doc["seed"], doc["trials"]) == (1e-9, 3, 2000)


class TestEnvariance:
    def test_bell_swap(self, tmp_path, capsys):
        inv = 1 / math.sqrt(2)
        state = write(tmp_path, "bell.json", {
            "dim_a": 2, "dim_b": 2,
            "amplitudes": [[inv, 0], [0, 0], [0, 0], [inv, 0]]})
        transform = write(tmp_path, "swap.json", {
            "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]})
        code, doc = run_structured(capsys, ["envariance", state, transform])
        assert code == 0
        assert doc["envariant"] is True
        assert doc["counter"] is not None

    def test_unequal_coefficients_swap(self, tmp_path, capsys):
        state = write(tmp_path, "lopsided.json", {
            "dim_a": 2, "dim_b": 2,
            "amplitudes": [[math.sqrt(0.8), 0], [0, 0], [0, 0],
                           [math.sqrt(0.2), 0]]})
        transform = write(tmp_path, "swap.json", {
            "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]})
        code, doc = run_structured(capsys, ["envariance", state, transform])
        assert code == 0
        assert doc["envariant"] is False

    def test_identity_transform(self, tmp_path, capsys):
        inv = 1 / math.sqrt(2)
        state = write(tmp_path, "bell.json", {
            "dim_a": 2, "dim_b": 2,
            "amplitudes": [[inv, 0], [0, 0], [0, 0], [inv, 0]]})
        transform = write(tmp_path, "eye.json", {
            "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        code, doc = run_structured(capsys, ["envariance", state, transform])
        assert code == 0
        assert doc["envariant"] is True


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        model = born_model(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "qcontour", "measure", model],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "measure=" in proc.stdout


class TestMalformedNumbers:
    @pytest.mark.parametrize("key, value", [
        ("dim", True), ("grid", [False, True]), ("grid", [0.0, math.inf])])
    def test_model_file_exit_2(self, tmp_path, capsys, key, value):
        doc = {"dim": 1, "grid": [0.0, 1.0],
               "hamiltonian": [{"t_start": 0, "t_end": 1,
                                "matrix": [[[1, 0]]]}]}
        doc[key] = value
        assert main(["measure", write(tmp_path, "bad.json", doc)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("dim_a", ["2", 2.0, True])
    def test_state_file_dimension_exit_2(self, tmp_path, capsys, dim_a):
        inv = 1 / math.sqrt(2)
        state = write(tmp_path, "bell.json", {
            "dim_a": dim_a, "dim_b": 2,
            "amplitudes": [[inv, 0], [0, 0], [0, 0], [inv, 0]]})
        transform = write(tmp_path, "eye.json", {
            "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        assert main(["envariance", state, transform]) == 2
        assert "dim_a" in capsys.readouterr().err


class TestEnvarianceSupportEdge:
    def test_coefficient_between_thresholds(self, tmp_path, capsys):
        # 3x2 state with Schmidt coefficients proportional to (1, 5e-11);
        # the transform swaps A directions 1 and 2
        norm = math.sqrt(1 + 5e-11 ** 2)
        state = write(tmp_path, "edge.json", {
            "dim_a": 3, "dim_b": 2,
            "amplitudes": [[1 / norm, 0], [0, 0], [0, 0], [5e-11 / norm, 0],
                           [0, 0], [0, 0]]})
        one, zero = [1, 0], [0, 0]
        transform = write(tmp_path, "swap12.json", {
            "matrix": [[one, zero, zero], [zero, zero, one],
                       [zero, one, zero]]})
        code, doc = run_structured(capsys, ["envariance", state, transform])
        assert code == 0
        assert doc["residual"] <= 1e-10


class TestDecomposeSpread:
    def test_disagreeing_totals_exit_3_after_the_report(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(linalg, "ROUNDING_TOL", -1.0)
        assert main(["decompose", bundle_model(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "max total spread" in captured.out
        assert "decomposition totals disagree" in captured.err


def bell_files(tmp_path):
    inv = 1 / math.sqrt(2)
    state = write(tmp_path, "bell.json", {
        "dim_a": 2, "dim_b": 2,
        "amplitudes": [[inv, 0], [0, 0], [0, 0], [inv, 0]]})
    transform = write(tmp_path, "eye.json", {
        "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
    return state, transform


def unreadable(tmp_path, kind):
    """A path that cannot be read as JSON text: missing, a directory, or
    bytes that are not UTF-8."""
    path = tmp_path / f"unreadable-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "latin1":
        path.write_bytes(b'{"dim": 2, "label": "\xe9"}')
    return str(path)


class TestUnreadableInput:
    """Every JSON input is read one way: any failure is exit 2, naming the
    file, without a traceback."""

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin1"])
    @pytest.mark.parametrize("command", [
        ["measure"], ["verify"], ["decompose"], ["propagate", "0", "1"]])
    def test_model_file_exit_2(self, tmp_path, capsys, command, kind):
        path = unreadable(tmp_path, kind)
        assert main([command[0], path, *command[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("doc", [None, 5, ["dim", "grid"]])
    def test_model_file_not_an_object_exit_2(self, tmp_path, capsys, doc):
        path = write(tmp_path, "model.json", doc)
        assert main(["measure", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin1"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_envariance_file_exit_2(self, tmp_path, capsys, which, kind):
        paths = list(bell_files(tmp_path))
        paths[which] = unreadable(tmp_path, kind)
        assert main(["envariance", *paths]) == 2
        assert capsys.readouterr().err.startswith(f"error: {paths[which]}: ")

    @pytest.mark.parametrize("doc", [
        None, 5, ["dim_a", "dim_b", "amplitudes"], ["matrix"]])
    @pytest.mark.parametrize("which", [0, 1])
    def test_envariance_file_not_an_object_exit_2(self, tmp_path, capsys,
                                                  which, doc):
        paths = list(bell_files(tmp_path))
        paths[which] = write(tmp_path, "not-an-object.json", doc)
        assert main(["envariance", *paths]) == 2
        assert capsys.readouterr().err.startswith(f"error: {paths[which]}: ")


class TestVerifyInputs:
    @pytest.mark.parametrize("model", [False, True])
    def test_negative_seed_exit_3(self, tmp_path, capsys, model):
        argv = ["verify", "--seed", "-1", "--trials", "200"]
        if model:
            argv.insert(1, born_model(tmp_path))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be non-negative")
        assert "Traceback" not in err

    def test_model_pinned_at_a_middle_time_exit_3(self, tmp_path, capsys):
        assert main(["verify", bundle_model(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "error: verification needs either one constraint at the first "
            "time or constraints at both endpoints\n")


class TestModelChecksAtLoad:
    """Every subcommand reading a model gets the same recipe checks."""

    @pytest.mark.parametrize("command", [
        ["propagate", "0", "0.5"], ["measure"], ["verify"]])
    def test_duplicate_constraint_exit_3(self, tmp_path, capsys, command):
        doc = json.loads(open(born_model(tmp_path)).read())
        doc["constraints"].append({"time": 0.0, "state": [[0, 0], [1, 0]]})
        path = write(tmp_path, "duplicate.json", doc)
        assert main([command[0], path, *command[1:]]) == 3
        assert capsys.readouterr().err \
            == "error: duplicate constraint at time 0.0\n"

    def test_one_time_grid_exit_2(self, tmp_path, capsys):
        doc = json.loads(open(born_model(tmp_path)).read())
        doc["grid"] = [0.0]
        path = write(tmp_path, "one_time.json", doc)
        assert main(["propagate", path, "0", "0.5"]) == 2
        assert capsys.readouterr().err \
            == "error: grid: expected a list of at least two times\n"
