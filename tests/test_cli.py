"""Command-line interface: argument handling, exit codes, printed summary."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qft_forge.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from qft_forge.config import parse_config_dict

from conftest import REPO_ROOT, SERVO_CONFIG_PATH, workload_raw


def reduced_raw():
    """``configs/servo.json`` cut down as the ``reduced_config`` fixture is."""
    raw = json.loads(SERVO_CONFIG_PATH.read_text())
    raw["frequencies"] = [1.0, 3.0, 10.0]
    raw["phase_grid_count"] = 24
    del raw["design"]["pair"]
    del raw["prefilter"]
    return raw


@pytest.fixture(scope="module")
def reduced_json(tmp_path_factory, reduced_config):
    path = tmp_path_factory.mktemp("cfg") / "reduced.json"
    raw = reduced_raw()
    assert parse_config_dict(raw) == reduced_config
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.fixture(scope="module")
def blocked_json(tmp_path_factory):
    raw = reduced_raw()
    raw["disturbance"] = [{"omega": 3.0, "cap": 1e-6}]
    path = tmp_path_factory.mktemp("cfg") / "blocked.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys, reduced_json, tmp_path):
        argv = ["refine", "--config", reduced_json, "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: qft-forge")
        assert "qft-forge: error: argument command: invalid choice: 'refine'" in err

    def test_missing_out(self, capsys, reduced_json):
        assert main(["templates", "--config", reduced_json]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: qft-forge")
        assert "qft-forge: error: the following arguments are required: --out" in err

    def test_missing_config_file(self, capsys, tmp_path):
        argv = [
            "templates",
            "--config",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pair", [[1], ["a", "b"], [1, 1], [1, 99]], ids=["1", "a,b", "1,1", "1,99"]
    )
    def test_bad_pair(self, capsys, tmp_path, pair):
        raw = reduced_raw()
        raw["design"]["pair"] = pair
        cfg = tmp_path / "bad_pair.json"
        cfg.write_text(json.dumps(raw))
        argv = ["design", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "design.pair" in err
        assert not (tmp_path / "out").exists()

    def test_sparse_phase_grid(self, capsys, tmp_path):
        raw = reduced_raw()
        raw["phase_grid_count"] = 5
        cfg = tmp_path / "sparse.json"
        cfg.write_text(json.dumps(raw))
        argv = ["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert "config error: config.phase_grid_count" in capsys.readouterr().err

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_unusable_out(self, reduced_json, tmp_path, under_file):
        # an existing file, or a path below one, cannot become the output directory
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if under_file else blocker
        argv = ["templates", "--config", reduced_json, "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "qft_forge", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == EXIT_USAGE
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: cannot write to --out {out}: ")
        assert len(done.stderr.splitlines()) == 1

    def test_parser_prog_name(self):
        assert build_parser().prog == "qft-forge"

    @pytest.mark.parametrize(
        "axis", ["[NaN, 1, 0.5]", "[0, Infinity, 0.5]", "[0, 1, Infinity]", "[0, 1e300, 1e-300]"]
    )
    def test_non_finite_oracle_axis(self, capsys, reduced_json, tmp_path, axis):
        # JSON as Python writes and reads it accepts NaN and Infinity; the
        # last axis is finite, but its sample count is not
        raw = json.loads(Path(reduced_json).read_text())
        raw["oracle"] = {"kp": "AXIS", "ki": [0, 5, 0.5], "kd": [0, 5, 0.5]}
        cfg = tmp_path / "bad_box.json"
        cfg.write_text(json.dumps(raw).replace('"AXIS"', axis))
        argv = ["all", "--config", str(cfg), "--out", str(tmp_path / "out"), "--oracle"]
        assert main(argv) == EXIT_USAGE
        assert "config error: config.oracle.kp:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "place, text, message",
        [
            ("frequency", "NaN", "config.frequencies[0]: must be finite"),
            ("frequency", "Infinity", "config.frequencies[0]: must be finite"),
            ("max", "Infinity", "config.plant.parameters[0].max: must be finite"),
            ("m", "Infinity", "config.stability.m: must be finite"),
            # JSON integers too large for a float
            ("m", "1" + "0" * 400, "config.stability.m: must be finite"),
            ("numerator", "-1" + "0" * 400, "config.plant.numerator[0]: must be finite"),
        ],
    )
    def test_non_finite_number(self, capsys, reduced_json, tmp_path, place, text, message):
        raw = json.loads(Path(reduced_json).read_text())
        if place == "frequency":
            raw["frequencies"][0] = "VALUE"
        elif place == "max":
            raw["plant"]["parameters"][0]["max"] = "VALUE"
        elif place == "numerator":
            raw["plant"]["numerator"][0] = "VALUE"
        else:
            raw["stability"]["m"] = "VALUE"
        cfg = tmp_path / "non_finite.json"
        cfg.write_text(json.dumps(raw).replace('"VALUE"', text))
        for command in ("templates", "all"):
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert main(argv) == EXIT_USAGE
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_tracking_model_with_zero_gain(self, capsys, tmp_path):
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["tracking"]["lower"] = {"num": [1, 0, 4], "den": [1, 3, 3, 1]}  # zero at omega=2
        cfg = tmp_path / "zero_tracking.json"
        cfg.write_text(json.dumps(raw))
        for command in ("bounds", "all"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
            message = "error: lower tracking model has zero gain at omega=2\n"
            assert capsys.readouterr().err == message

    def test_bound_below_the_contour_bottom(self, capsys, tmp_path):
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["stability"] = {"m": 1.1, "delta_hf_db": 20}
        cfg = tmp_path / "guard.json"
        cfg.write_text(json.dumps(raw))
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        message = (
            "error: performance bound -16.221 dB at phase -244.5 deg sits below the "
            "stability contour bottom -14.633 dB (omega=30.0)\n"
        )
        assert capsys.readouterr().err == message

    def test_pole_on_axis_names_one_point(self, capsys, tmp_path):
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["plant"]["numerator"] = ["k"]
        raw["plant"]["denominator"] = ["1", "0", "a*4"]  # s^2 + 4 at the nominal a = 1
        cfg = tmp_path / "pole_on_axis.json"
        cfg.write_text(json.dumps(raw))
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        message = "error: plant denominator vanishes at s = 2j for {'a': 1.0, 'k': 1.0}\n"
        assert capsys.readouterr().err == message

    def test_zero_nominal_response(self, capsys, tmp_path):
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["plant"]["numerator"] = ["k*a - 1"]  # zero at the nominal a = k = 1
        cfg = tmp_path / "zero_nominal.json"
        cfg.write_text(json.dumps(raw))
        for command in ("templates", "all"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
            message = "nominal plant at {'a': 1.0, 'k': 1.0} has zero response at omega=0.5"
            assert f"error: {message}" in capsys.readouterr().err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "key, coefficients, source, point",
        [
            ("numerator", ["k/(a-1)"], "k/(a-1)", "{'a': 1.0, 'k': 1.0}"),
            ("numerator", ["k*(a-1)^-1"], "k*(a-1)^-1", "{'a': 1.0, 'k': 1.0}"),
            ("denominator", ["1", "(a-3)^0.5", "0"], "(a-3)^0.5", "{'a': 1.0, 'k': 1.0}"),
            ("numerator", ["k*a*10^400"], "k*a*10^400", "{'a': 1.0, 'k': 1.0}"),
            ("numerator", ["1e308*a*k"], "1e308*a*k", "{'a': 1.0, 'k': 2.0}"),
        ],
        ids=["division-by-zero", "zero-to-negative-power", "complex-power", "overflow", "inf"],
    )
    def test_undefined_coefficient(self, capsys, tmp_path, key, coefficients, source, point):
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["plant"][key] = coefficients
        cfg = tmp_path / "undefined.json"
        cfg.write_text(json.dumps(raw))
        for command in ("templates", "all"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
            message = f"error: coefficient '{source}' is undefined at {point}\n"
            assert capsys.readouterr().err == message
            assert list(out.iterdir()) == []


class TestSuccessfulRuns:
    def test_reduced_all_passes(self, capsys, reduced_json, tmp_path):
        assert main(["all", "--config", reduced_json, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        wrote = [line for line in out.splitlines() if line.startswith("wrote ")]
        assert wrote == [
            "wrote templates.csv",
            "wrote bounds.csv",
            "wrote kd_grid.csv",
            "wrote design_report.txt",
            "wrote envelope.csv",
            "wrote verify_report.txt",
            "wrote nichols.svg",
        ]
        assert "gains: kp=7.629752 ki=2.168906 kd=3.173382" in out
        assert "verification: PASS" in out
        written = {f.name for f in tmp_path.iterdir()}
        assert written == {line.split(" ", 1)[1] for line in wrote}

    def test_templates_only(self, capsys, reduced_json, tmp_path):
        code = main(["templates", "--config", reduced_json, "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "wrote templates.csv" in out
        assert "gains:" not in out
        assert "verification:" not in out

    def test_pair_override_changes_anchors(self, capsys, tmp_path):
        raw = reduced_raw()
        raw["design"]["pair"] = [1, 3]
        cfg = tmp_path / "pair.json"
        cfg.write_text(json.dumps(raw))
        argv = ["design", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert "gains: kp=7.411304 ki=0.088219 kd=3.158082" in capsys.readouterr().out
        report = (tmp_path / "design_report.txt").read_text()
        assert "anchor frequencies : 1 rad/s (position 1), 10 rad/s (position 3)" in report

    def test_phase_grid_override(self, capsys, tmp_path):
        raw = reduced_raw()
        raw["phase_grid_count"] = 36
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(raw))
        argv = ["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
        assert len(rows) - 1 == 3 * 36

    def test_oracle_flag(self, capsys, reduced_json, tmp_path):
        raw = json.loads(Path(reduced_json).read_text())
        raw["oracle"] = {"kp": [0, 10, 0.5], "ki": [0, 5, 0.5], "kd": [0, 5, 0.5]}
        cfg = tmp_path / "with_box.json"
        cfg.write_text(json.dumps(raw))
        argv = ["design", "--config", str(cfg), "--out", str(tmp_path), "--oracle"]
        assert main(argv) == EXIT_OK
        assert "oracle best: kp=" in capsys.readouterr().out


    def test_deeply_nested_coefficient(self, capsys, tmp_path):
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["plant"]["numerator"] = ["(" * 200 + "k*a" + ")" * 200]
        cfg = tmp_path / "nested.json"
        cfg.write_text(json.dumps(raw))
        for config, out in ((cfg, "nested"), (SERVO_CONFIG_PATH, "plain")):
            argv = ["templates", "--config", str(config), "--out", str(tmp_path / out)]
            assert main(argv) == EXIT_OK
        nested, plain = (tmp_path / out / "templates.csv" for out in ("nested", "plain"))
        assert nested.read_bytes() == plain.read_bytes()

    def test_long_sum_coefficient(self, capsys, tmp_path):
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["plant"]["numerator"] = ["+".join(["k*a/1200"] * 1200)]
        cfg = tmp_path / "long_sum.json"
        cfg.write_text(json.dumps(raw))
        argv = ["templates", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK


class TestFailureExitCodes:
    def test_infeasible_design(self, capsys, blocked_json, tmp_path):
        code = main(["all", "--config", blocked_json, "--out", str(tmp_path)])
        assert code == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert "design infeasible:" in captured.err
        assert "verification:" not in captured.out
        # artifacts up to the design stage still land on disk
        written = {f.name for f in tmp_path.iterdir()}
        assert written == {
            "templates.csv",
            "bounds.csv",
            "kd_grid.csv",
            "design_report.txt",
            "nichols.svg",
        }

    def test_servo_verify_failure(self, capsys, tmp_path):
        argv = ["all", "--config", str(SERVO_CONFIG_PATH), "--out", str(tmp_path)]
        assert main(argv) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert "gains: kp=13.021194 ki=0.171241 kd=3.538751" in captured.out
        assert "verification: FAIL" in captured.out
        assert "reference corridor" in captured.err
        assert (tmp_path / "verify_report.txt").read_text().count("verdict : FAIL") == 1


def servo_json_of_kind(tmp_path, kind):
    raw = json.loads(SERVO_CONFIG_PATH.read_text())
    raw["design"]["kind"] = kind
    path = tmp_path / f"servo_{kind}.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestSingleAnchorKinds:
    """PI and PD runs of the shipped servo config, through the CLI.  Their
    design reports name only the first anchor, the one the search pins."""

    ANCHOR = "anchor frequencies : 1 rad/s (position 2)\n"

    def test_pi_is_infeasible(self, capsys, tmp_path):
        config = servo_json_of_kind(tmp_path, "pi")
        argv = ["all", "--config", config, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "design infeasible: every feasible candidate crosses the stability contour "
            "between design frequencies\n"
        )
        assert self.ANCHOR in (tmp_path / "out" / "design_report.txt").read_text()

    def test_pd_fails_verification_at_omega_30(self, capsys, tmp_path):
        config = servo_json_of_kind(tmp_path, "pd")
        argv = ["all", "--config", config, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert "gains: kp=12.763401 ki=0.000000 kd=3.539604" in captured.out
        assert "verification: FAIL" in captured.out
        assert captured.err == (
            "  - closed-loop envelope leaves the reference corridor at omega=30\n"
        )
        assert self.ANCHOR in (tmp_path / "out" / "design_report.txt").read_text()


def loaded_numpy_ma(code: str) -> list:
    """The ``numpy.ma`` modules a fresh interpreter holds after running ``code``."""
    probe = (
        f"import json, sys\n{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma'])))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_servo_run_loads_no_numpy_ma_beyond_numpy_itself(tmp_path):
    # NumPy 1.x imports numpy.ma with numpy; 2.x only on first use, e.g. by np.unique
    argv = ["all", "--config", str(SERVO_CONFIG_PATH), "--out", str(tmp_path)]
    run = f"from qft_forge import cli\ncli.main({argv!r})"
    assert loaded_numpy_ma(run) == loaded_numpy_ma("import numpy")


def test_screen_walk_run_loads_no_numpy_ma_beyond_numpy_itself(tmp_path):
    # the infeasible path: the stability screen vetoes every candidate and the run exits 2
    config = tmp_path / "screen-walk.json"
    config.write_text(json.dumps(workload_raw("screen-walk")))
    argv = ["all", "--config", str(config), "--out", str(tmp_path / "out")]
    run = f"from qft_forge import cli\nassert cli.main({argv!r}) == {EXIT_INFEASIBLE}"
    assert loaded_numpy_ma(run) == loaded_numpy_ma("import numpy")
