import contextlib
import copy
import dataclasses
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontour import (FixedPoint, OutcomeDistribution, __version__, cli,
                      condition_on_final, enumerate_family, histories,
                      linalg, measure, measure_report, models,
                      monte_carlo_sample, oracle, propagate,
                      sequential_chain)
from qcontour.cli import build_parser, main
from qcontour.sampling import random_model, random_state, rng_from_seed

from toys import count_calls, random_family_spec

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

    def test_the_bundle_is_weighed_once_for_all_modes(self, tmp_path,
                                                     capsys, monkeypatch):
        # each mode used to weigh the whole bundle again
        path = bundle_model(tmp_path)
        code, once = run_structured(capsys, ["decompose", path])
        steps = count_calls(monkeypatch, measure, "_steps")
        assert run_structured(capsys, ["decompose", path]) == (code, once)
        assert len(steps) == 1
        model = models.load_model(path)
        for mode in measure.DecompositionMode:
            result = measure.decompose_total_measure(model, model.schedule,
                                                     mode)
            assert once["modes"][mode.value] == cli._round15({
                "total": result.total, "terms": list(result.terms)})


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

    @pytest.mark.parametrize("command", ["measure", "verify"])
    def test_pair_beyond_the_float_range_exit_2(self, tmp_path, capsys,
                                                command):
        # complex() raised OverflowError: a traceback and exit 1
        doc = {"dim": 1, "grid": [0.0, 1.0],
               "hamiltonian": [{"t_start": 0, "t_end": 1,
                                "matrix": [[[10 ** 400, 0]]]}]}
        path = write(tmp_path, "huge.json", doc)
        assert main([command, path]) == 2
        assert capsys.readouterr().err == (
            "error: hamiltonian[0].matrix[0][0]: [re, im] pair holds a "
            "number beyond the float range\n")

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


class TestVerifyChecksOnce:
    @pytest.mark.parametrize("s_t", [1, 2])
    def test_chain_reuses_the_checked_bases(self, monkeypatch, s_t):
        # ModelSpec checked every basis; the chain used to check the
        # N_t - 1 measured ones again
        model, _ = random_family_spec(71, dim=3, n_times=4, s_t=s_t)
        checked = count_calls(monkeypatch, linalg, "as_basis")
        row = cli._verify_one("m", model, 2000, 0, 2, linalg.DEFAULT_TOL)
        assert row["pass"] and row["chain_deviation"] <= 1e-12
        assert checked == []


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

    @pytest.mark.parametrize("model", [False, True])
    def test_sample_count_beyond_the_largest_exit_3(self, tmp_path, capsys,
                                                    model):
        # numpy's OverflowError used to leak: a traceback and exit 1
        argv = ["verify", "--trials", str(2 ** 63)]
        if model:
            argv.insert(1, born_model(tmp_path))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: sample count must be at most {2 ** 63 - 1}, "
            f"got {2 ** 63}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("trials", ["0", str(2 ** 63)])
    @pytest.mark.parametrize("model", [False, True])
    def test_sample_count_refused_before_any_model_is_weighed(
            self, tmp_path, capsys, monkeypatch, model, trials):
        # the count used to be checked only by the sampler, after the
        # family was enumerated and weighed and both chains had run
        enumerated = count_calls(monkeypatch, cli, "enumerate_family")
        argv = ["verify", "--trials", trials]
        if model:
            argv.insert(1, born_model(tmp_path))
        assert main(argv) == 3
        bound = "at least 1" if trials == "0" else f"at most {2 ** 63 - 1}"
        assert capsys.readouterr().err == (
            f"error: sample count must be {bound}, got {trials}\n")
        assert enumerated == []

    @pytest.mark.parametrize("seed", ["-1", "-2"])
    @pytest.mark.parametrize("model", [False, True])
    def test_seed_refused_before_any_model_is_weighed(
            self, tmp_path, capsys, monkeypatch, model, seed):
        # the seed used to be checked only by the sampler, after the first
        # model was enumerated and weighed; the built-in suite refused -2
        # by the seed it derived from it, -10000
        enumerated = count_calls(monkeypatch, cli, "enumerate_family")
        weighed = count_calls(monkeypatch, measure, "_products")
        argv = ["verify", "--seed", seed, "--trials", "200"]
        if model:
            argv.insert(1, born_model(tmp_path))
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: seed must be non-negative, got {seed}\n")
        assert enumerated == weighed == []

    @pytest.mark.parametrize("argv", [["measure", "MODEL"],
                                      ["verify", "MODEL"], ["verify"]])
    def test_zero_steps_refused_before_any_weighing(
            self, tmp_path, capsys, monkeypatch, argv):
        # the closed form used to be weighed before the walk checked its
        # step count
        weighed = count_calls(monkeypatch, measure, "_products")
        argv = [born_model(tmp_path) if a == "MODEL" else a for a in argv]
        assert main([*argv, "--steps-per-segment", "0"]) == 3
        assert capsys.readouterr().err == (
            "error: steps_per_segment must be at least 1, got 0\n")
        assert weighed == []

    @pytest.mark.parametrize("steps", [10 ** 6 + 1, 2 ** 62])
    @pytest.mark.parametrize("argv", [["measure", "MODEL"],
                                      ["verify", "MODEL"], ["verify"]])
    def test_steps_above_the_ceiling_refused_before_any_weighing(
            self, tmp_path, capsys, monkeypatch, argv, steps):
        # 2**62 exited 1 with numpy's "array is too big" traceback
        weighed = count_calls(monkeypatch, measure, "_products")
        argv = [born_model(tmp_path) if a == "MODEL" else a for a in argv]
        assert main([*argv, "--steps-per-segment", str(steps)]) == 3
        assert capsys.readouterr().err == (
            f"error: steps_per_segment must be at most 1000000, got {steps}\n")
        assert weighed == []

    @pytest.mark.parametrize("command", ["measure", "verify"])
    def test_zero_steps_at_the_guard_build_no_member_array(
            self, tmp_path, capsys, command):
        # H = 10**6 (d=10, N_t=7, first time pinned): enumerating used to
        # build a 56 MB index and 48 MB of choices before the walk refused
        # the count; an enumerated family is its shape until read
        path = str(tmp_path / "guard.json")
        models.save_model(random_model(rng_from_seed(5),
                                       [0.3 * k for k in range(7)], 10, 1),
                          path)
        tracemalloc.start()
        try:
            code = main([command, path, "--steps-per-segment", "0"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err == (
            "error: steps_per_segment must be at least 1, got 0\n")
        assert peak < 2 ** 20

    def test_model_pinned_at_a_middle_time_verifies(self, tmp_path, capsys):
        # the branching-and-merging bundle, whose first time is free
        assert main(["verify", bundle_model(tmp_path)]) == 0
        assert capsys.readouterr().err == ""


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


class TestOverflowingState:
    """A state entry beyond about 1e154 overflows its squared norm: the
    state is refused as not normalized, without numpy's overflow warning
    (which used to print beside the error, and raise under
    ``PYTHONWARNINGS=error``)."""

    @pytest.mark.parametrize("command", ["measure", "decompose"])
    @pytest.mark.parametrize("field, message", [
        ("constraint", "constraints[0]: state vector is not normalized "
                       "(norm = inf)"),
        ("basis", "basis at time 1.0: state vector is not normalized "
                  "(norm = inf)")])
    def test_exit_3_with_one_error_line(self, tmp_path, capsys, command,
                                        field, message):
        doc = json.loads(open(bundle_model(tmp_path)).read())
        huge = [[1e300, 0], [0, 0]]
        if field == "constraint":
            doc["constraints"][0]["state"] = huge
        else:
            doc["bases"] = [None, [huge, [[0, 1], [0, 0]]], None]
        path = write(tmp_path, "overflow.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning would be printed
            assert main([command, path]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


#: values a mutated model field takes: wrong types, None and bools,
#: non-finite and huge numbers, and empty or ragged lists
ODD_VALUES = st.sampled_from([
    None, True, False, "x", "1.0", {}, [], [None], [[]], [1], [[1, 0], [0]],
    [[1, 0, 0]], [[[1, 0]]], math.nan, math.inf, -math.inf, 1e300, -1e300,
    10 ** 400, 0, -1, 3, 0.5, [[1e300, 0], [0, 0]], [math.nan, 0]])


def _contract_documents():
    """Valid qubit models: a bundle pinned at the middle time, with one
    explicit basis, and a model pinned at its first time."""
    bundle = {
        "dim": 2, "grid": [0.0, 1.0, 2.0],
        "hamiltonian": [{"t_start": 0.0, "t_end": 2.0, "matrix": SX_PAIRS}],
        "bases": [None, [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], None],
        "constraints": [{"time": 1.0, "state": [[1, 0], [0, 0]],
                         "label": "pivot"}]}
    prepared = copy.deepcopy(bundle)
    prepared["constraints"][0]["time"] = 0.0
    return [bundle, prepared]


def _paths(value, path=()):
    """The path of every field below ``value``, as key and index tuples."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _envariance_documents():
    """Valid ``envariance`` inputs, as one document per run: a Bell pair
    and a lopsided pair, each with the swap on A."""
    inv = 1 / math.sqrt(2)
    swap = {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    return [{"state": {"dim_a": 2, "dim_b": 2, "amplitudes": amplitudes},
             "transform": swap}
            for amplitudes in ([[inv, 0], [0, 0], [0, 0], [inv, 0]],
                               [[0.8 ** 0.5, 0], [0, 0], [0, 0],
                                [0.2 ** 0.5, 0]])]


@st.composite
def mutated_documents(draw, documents):
    """A valid document with one or two fields replaced by an odd value or
    dropped (a key removed, a list made shorter)."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 2))):
        *parent, key = draw(st.sampled_from(list(_paths(doc))))
        owner = doc
        for step in parent:
            owner = owner[step]
        if draw(st.booleans()):
            del owner[key]
        else:
            owner[key] = copy.deepcopy(draw(ODD_VALUES))
    return doc


def _run_strictly(argv):
    """``main(argv)`` with every warning an error: its exit code and
    stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue().splitlines()


class TestContract:
    """Every mutated model gives an exit code the CLI defines; a refusal
    is one ``error:`` line, with no traceback and no numpy warning."""

    @given(mutated_documents(_contract_documents()))
    @settings(max_examples=100, deadline=None)
    def test_mutated_model_exits_cleanly(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("contract") / "model.json"
        path.write_text(json.dumps(doc))
        for command in ("measure", "decompose"):
            code, lines = _run_strictly([command, str(path)])
            assert code in (0, 2, 3, 4, 5), (command, doc)
            if code:
                assert len(lines) == 1 and lines[0].startswith("error:"), \
                    (command, doc, lines)
        # verify may also fail its checks (exit 1), which is no refusal;
        # 50 draws put a small probability far outside its band
        for argv in (["verify", str(path), "--trials", "50"],
                     ["propagate", str(path), "0", "2"]):
            code, lines = _run_strictly(argv)
            assert code in (0, 1, 2, 3, 4, 5), (argv, doc)
            if code == 1:
                assert argv[0] == "verify" and lines == [], (doc, lines)
            elif code:
                assert len(lines) == 1 and lines[0].startswith("error:"), \
                    (argv, doc, lines)

    @given(mutated_documents(_envariance_documents()))
    @settings(max_examples=100, deadline=None)
    # an entry that overflows M^dag M made numpy warn before the refusal
    @example(doc={"state": _envariance_documents()[0]["state"],
                  "transform": {"matrix": [[[1e300, 0], [1, 0]],
                                           [[1, 0], [0, 0]]]}})
    def test_mutated_envariance_files_exit_cleanly(self, tmp_path_factory,
                                                   doc):
        folder = tmp_path_factory.mktemp("contract")
        paths = []
        for part in ("state", "transform"):
            paths.append(str(folder / f"{part}.json"))
            (folder / f"{part}.json").write_text(json.dumps(doc.get(part)))
        code, lines = _run_strictly(["envariance", *paths])
        assert code in (0, 2, 3, 4, 5), doc
        if code:
            assert len(lines) == 1 and lines[0].startswith("error:"), \
                (doc, lines)


class TestParserReuse:
    """``main`` keeps one parser for the process: every call gives the exit
    code and output a fresh parser gives, and no flag value carries over
    from one call to the next."""

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_kept_parser_runs_as_a_fresh_one(self, tmp_path, monkeypatch):
        model, bundle = born_model(tmp_path), bundle_model(tmp_path)
        inv = 1 / math.sqrt(2)
        state = write(tmp_path, "bell.json", {
            "dim_a": 2, "dim_b": 2,
            "amplitudes": [[inv, 0], [0, 0], [0, 0], [inv, 0]]})
        transform = write(tmp_path, "swap.json", {
            "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]})
        runs = [["measure", model, "--seed", "3"], ["--version"],
                ["verify", model, "--trials", "5", "--tol", "1e-6"],
                ["verify", model], ["measure", model],
                ["propagate", model, "0", "0.5"], ["decompose", bundle],
                ["envariance", state, transform]]
        kept = [self._run(argv) for argv in runs]
        parser = cli._parser()
        assert parser is cli._parser()
        args = parser.parse_args(["verify", model])
        assert (args.trials, args.tol) == (100_000, linalg.DEFAULT_TOL)
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [self._run(argv) for argv in runs]
        assert kept == fresh
        assert [code for code, _, _ in kept] == [2, 0, 0, 0, 0, 0, 0, 0]
        assert kept[1][1] == f"{__version__}\n"
        assert "unrecognized arguments: --seed 3" in kept[0][2]
        # five draws and a hundred thousand leave different sigmas
        assert kept[2][1] != kept[3][1]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_no_parser_is_built_at_import(self):
        probe = ("import qcontour.cli as cli; "
                 "print(cli._parser.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "0\n"


class TestVerifyColumns:
    """``verify`` compares the chain with the report by position and samples
    the report's measure column: each verdict field equals the one found by
    looking the chain's outcomes up in ``by_choices`` and sampling a
    distribution built from its pairs."""

    @pytest.mark.parametrize("dim, n_times, s_t", [(8, 5, 1), (4, 7, 2),
                                                   (4, 5, 2)])
    def test_fields_equal_the_lookup_route(self, dim, n_times, s_t):
        times = tuple(0.3 * k for k in range(n_times))
        model = random_model(rng_from_seed(5), times, dim, s_t)
        row = cli._verify_one("m", model, 100_000, 0, 8, linalg.DEFAULT_TOL)
        report = measure_report(enumerate_family(model), model.schedule)
        by_choices = report.by_choices()
        bases = list(model.bases[1:])
        if s_t == 2:
            bases[-1] = linalg.complete_basis(model.constraints[1].state)
        dist = sequential_chain(model.constraints[0].state, bases,
                                model.times[1:], model.schedule,
                                model.times[0])
        if s_t == 2:
            dist = condition_on_final(dist, 0)
        assert row["chain_deviation"] == max(
            abs(by_choices[seq] - p) for seq, p in dist.outcomes)
        table = monte_carlo_sample(
            OutcomeDistribution(tuple(by_choices.items())), 100_000, 0)
        assert (row["mc_max_sigma"], row["mc_all_within_band"]) \
            == (table.max_sigma, table.all_within_band)


def _completed_basis_chain(stacks, times, sched):
    """The chain ``verify`` used to run on a model pinned at its first
    time, as the reference: a pin at the last time measured in the basis
    completed from its state, and the outcomes conditioned on that state;
    without one, the chain over the bases.  Returns the probability
    column."""
    bases = list(stacks[1:])
    pinned_last = len(bases[-1]) == 1
    if pinned_last:
        bases[-1] = linalg.complete_basis(bases[-1][0])
    dist = sequential_chain(stacks[0][0], bases, times[1:], sched, times[0])
    return (condition_on_final(dist, 0) if pinned_last else dist).probabilities


def _qubit_doc(bases, constraints):
    """A qubit model over (0, 0.5, 1) under the X generator."""
    return {"dim": 2, "grid": [0.0, 0.5, 1.0],
            "hamiltonian": [{"t_start": 0.0, "t_end": 1.0,
                             "matrix": SX_PAIRS}],
            "bases": bases,
            "constraints": [{"time": t, "state": state}
                            for t, state in constraints]}


def _pinned_model(seed, dim, n_times, pinned):
    """A random model over the grid 0, 0.3, ..., pinned to a random state
    at each grid index in ``pinned`` and nowhere else."""
    rng = rng_from_seed(seed)
    model = random_model(rng, [0.3 * k for k in range(n_times)], dim, 1)
    pins = tuple(FixedPoint(model.times[k], random_state(rng, dim))
                 for k in sorted(pinned))
    return dataclasses.replace(model, constraints=pins)


@st.composite
def pinned_models(draw):
    """A random model (d 2-4, N_t 2-5) pinned at any set of its times, the
    empty set and sets without the first time included."""
    seed = draw(st.integers(0, 10 ** 6))
    dim, n_times = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    return _pinned_model(seed, dim, n_times,
                         draw(st.sets(st.integers(0, n_times - 1))))


class TestVerifyPostSelects:
    """``verify`` runs one chain over the recipe's slot stacks, each later
    pin a one-row stack the chain post-selects on."""

    @pytest.mark.parametrize("s_t", [1, 2])
    @pytest.mark.parametrize("dim, n_times", [(2, 3), (4, 5), (5, 4), (8, 4),
                                              (8, 5), (4, 7)])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_fields_equal_the_completed_basis_route(
            self, monkeypatch, seed, dim, n_times, s_t):
        times = tuple(0.3 * k for k in range(n_times))
        model = random_model(rng_from_seed(seed), times, dim, s_t)
        row = cli._verify_one("m", model, 2000, seed, 2, linalg.DEFAULT_TOL)
        monkeypatch.setattr(cli, "_unchecked_chain", _completed_basis_chain)
        assert row == cli._verify_one("m", model, 2000, seed, 2,
                                      linalg.DEFAULT_TOL)

    def test_no_completed_basis_and_one_row_per_member(self, monkeypatch):
        model = random_model(rng_from_seed(5), (0.0, 0.3, 0.6, 0.9), 4, 2)
        completed = count_calls(monkeypatch, linalg, "complete_basis")
        conditioned = count_calls(monkeypatch, oracle, "condition_on_final")
        distributions = count_calls(monkeypatch, OutcomeDistribution,
                                    "_from_distinct")
        row = cli._verify_one("m", model, 2000, 0, 2, linalg.DEFAULT_TOL)
        assert row["n_histories"] == 16 and row["pass"]
        assert completed == conditioned == []
        # the chain's and the sampled family's columns, H rows each
        assert [len(keys) for keys, _ in distributions] == [16, 16]

    @given(pinned_models())
    @example(_pinned_model(5, 2, 3, {1}))  # the bundle's layout
    @example(_pinned_model(6, 3, 4, {3}))  # pure retrodiction
    @example(_pinned_model(7, 4, 3, set()))  # no pin
    @settings(max_examples=40, deadline=None)
    def test_any_pin_set_agrees(self, model):
        # the verdict is left out: the Monte Carlo band may flip it
        row = cli._verify_one("m", model, 2000, 0, 2, linalg.DEFAULT_TOL)
        assert row["s_t"] == len(model.constraints)
        for field in ("normalization_error", "route_discrepancy",
                      "chain_deviation", "direct_deviation"):
            assert row[field] <= 1e-12, (field, row)

    def test_model_pinned_at_first_and_middle_time_verifies(self, tmp_path,
                                                             capsys):
        path = write(tmp_path, "middle.json", _qubit_doc(
            None, [(0.0, [[1, 0], [0, 0]]), (0.5, [[0, 0], [1, 0]])]))
        code, doc = run_structured(capsys, ["verify", path])
        assert code == 0 and doc["models"][0]["s_t"] == 2

    @pytest.mark.parametrize("final, code", [(False, 3), (True, 0)])
    def test_basis_orthonormal_only_within_input_tol(self, tmp_path, capsys,
                                                     final, code):
        # the middle basis is orthonormal within INPUT_TOL but not within
        # DEFAULT_TOL: its outcome probabilities sum to 1 + 4e-9.  A free
        # last time leaves that sum to the distribution's check; a pinned
        # one post-selects, which divides by it
        eps = 5e-9
        skewed = [[[1, 0], [0, 0]], [[0, eps], [math.sqrt(1 - eps ** 2), 0]]]
        assert not linalg.is_orthonormal(
            [[complex(*z) for z in v] for v in skewed])
        constraints = [(0.0, [[1, 0], [0, 0]])]
        if final:
            constraints.append((1.0, [[math.sqrt(0.5), 0],
                                      [math.sqrt(0.5), 0]]))
        path = write(tmp_path, "skewed.json", _qubit_doc(
            [None, skewed, None], constraints))
        assert main(["verify", path]) == code
        err = capsys.readouterr().err
        if final:
            assert err == ""
        else:
            assert err.startswith("error: probabilities sum to 1.00000000")
            assert err.endswith(", expected 1\n")


def _shift_pins(model, fractions):
    """``model`` with pin k moved by ``fractions[k]`` * TIME_EPS *
    max(1, |t|): for |fractions[k]| < 1, still its grid time to the time
    matcher."""
    pins = tuple(FixedPoint(fp.time + f * linalg.TIME_EPS
                            * max(1.0, abs(fp.time)), fp.state, fp.label)
                 for fp, f in zip(model.constraints, fractions))
    return dataclasses.replace(model, constraints=pins)


@st.composite
def off_grid_models(draw):
    """A ``pinned_models`` model with each pin moved by up to 0.9
    TIME_EPS either way."""
    model = draw(pinned_models())
    fraction = st.floats(-0.9, 0.9)
    return _shift_pins(model, [draw(fraction) for _ in model.constraints])


def _normalization_bound(model) -> float:
    """A forward-error bound on |Z_chain / Z_report - 1|, the two routes'
    normalizations of an enumerated ``model``.

    Both routes form each step amplitude A = <b|U|a> from the same U, and
    associate it differently: (b* U) a against b* (U a).  Each is within
    delta * c of A, where c = sum_ij |b_i| |U_ij| |a_j| and delta =
    sqrt(2) gamma(2d + 4) for two nested complex inner products of length
    d (Higham 2002, sections 3.1 and 3.6), so the two differ by at most
    2 delta c.  A cancelling product (c >> |A|) has no relative bound, so
    the amplitudes' share is weighed by each member's weight: member h's
    weight prod_k |A_k|^2 moves by at most sum_k 2 |A_k| (2 delta c_k)
    prod_{m != k} |A_m|^2, to first order, and Z by their sum.  The
    products, squares and sums on both sides add at most
    gamma(N_t (d + 8) + H + 2) relative to Z.
    """
    def gamma(n):
        unit = np.finfo(float).eps / 2
        return n * unit / (1 - n * unit)
    index = enumerate_family(model).index
    states, times, d = model.slot_states, model.slot_times, model.dim
    amps, sizes = [], []
    for k in range(len(times) - 1):
        u = propagate(model.schedule, times[k], times[k + 1])
        a, b = states[k], states[k + 1]
        amps.append(np.abs(b.conj() @ u @ a.T)[index[:, k + 1], index[:, k]])
        sizes.append((np.abs(b) @ np.abs(u) @ np.abs(a).T)[
            index[:, k + 1], index[:, k]])
    amps, sizes = np.array(amps), np.array(sizes)
    delta = math.sqrt(2) * gamma(2 * d + 4)
    moved = sum(2 * amps[k] * (2 * delta * sizes[k])
                * np.prod(np.delete(amps, k, axis=0) ** 2, axis=0)
                for k in range(len(amps)))
    z = np.sum(np.prod(amps ** 2, axis=0))
    return float(np.sum(moved) / z) + gamma(len(times) * (d + 8)
                                           + len(index) + 2)


class TestOffGridPins:
    """A pin within TIME_EPS of its grid time verifies like one on the grid:
    the report, the transfer chain and the collapse chain all carry it from
    its own time, ``FamilySpec.slot_times``."""

    #: the largest of 400 on-grid ``pinned_models`` runs was 2.0e-15
    #: (chain) and 2.4e-15 (direct); carrying the first pin from its grid
    #: time instead put both at 1e-13 to 6e-11.  The normalizations' ratio
    #: is held to ``_normalization_bound`` instead: one small amplitude,
    #: squared, put it at 1.3e-14 on a correct model
    BOUND = 1e-14

    @given(off_grid_models())
    @example(_shift_pins(random_model(rng_from_seed(5), (0.0, 0.3, 0.6, 0.9,
                                                         1.2), 4, 2),
                         [0.9, 0.0]))
    @settings(max_examples=40, deadline=None)
    def test_deviations_stay_at_rounding_level(self, model):
        row = cli._verify_one("m", model, 50, 0, 2, linalg.DEFAULT_TOL)
        # the row's direct deviation is the normalizations' ratio and the
        # marginals' largest deviation, recomputed here
        fam = enumerate_family(model)
        report = measure_report(fam, model.schedule, steps_per_segment=2)
        normalization, marginals = measure.transfer_chain(model,
                                                          model.schedule)
        ratio = abs(normalization / report.normalization - 1.0)
        marginal = max(float(np.max(np.abs(m - np.bincount(
            column, report.measures, minlength=m.size))))
            for m, column in zip(marginals, fam.index.T))
        assert row["direct_deviation"] == max(ratio, marginal)
        assert row["chain_deviation"] <= self.BOUND, row
        assert marginal <= self.BOUND, row
        assert ratio <= _normalization_bound(model), row

    def test_every_route_reads_the_slot_times(self, monkeypatch):
        model = _shift_pins(random_model(rng_from_seed(5), (0.0, 0.3, 0.6),
                                         2, 2), [0.9, -0.9])
        assert model.slot_times != model.times
        assert enumerate_family(model).slot_times == model.slot_times
        carried = count_calls(monkeypatch, histories, "substep_propagators")
        chained = count_calls(monkeypatch, cli, "_unchecked_chain")
        transfers = count_calls(monkeypatch, measure, "propagate")
        cli._verify_one("m", model, 50, 0, 2, linalg.DEFAULT_TOL)
        segments = list(zip(model.slot_times, model.slot_times[1:]))
        # the walk forward and back, then the closed form
        assert [(steps, sub) for _, steps, sub in carried] == [
            (segments + [(b, a) for a, b in reversed(segments)], 2),
            (segments, 1)]
        assert [args[1:3] for args in transfers] == segments
        (_, times, _), = chained
        assert times == model.slot_times
