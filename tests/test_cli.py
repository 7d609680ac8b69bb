"""Command-line interface: argument handling, exit codes, printed summary."""

from __future__ import annotations

import dataclasses
import json

import pytest

from qft_forge.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from qft_forge.config import config_to_dict

from conftest import SERVO_CONFIG_PATH


@pytest.fixture(scope="module")
def reduced_json(tmp_path_factory, reduced_config):
    path = tmp_path_factory.mktemp("cfg") / "reduced.json"
    path.write_text(json.dumps(config_to_dict(reduced_config)))
    return str(path)


@pytest.fixture(scope="module")
def blocked_json(tmp_path_factory, reduced_config):
    raw = config_to_dict(reduced_config)
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

    def test_missing_out(self, capsys, reduced_json):
        assert main(["templates", "--config", reduced_json]) == EXIT_USAGE

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

    @pytest.mark.parametrize("pair", ["1", "a,b", "1,1", "1,99"])
    def test_bad_pair(self, capsys, reduced_json, tmp_path, pair):
        argv = [
            "design",
            "--config",
            reduced_json,
            "--out",
            str(tmp_path),
            "--pair",
            pair,
        ]
        assert main(argv) == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err

    def test_sparse_phase_grid(self, capsys, reduced_json, tmp_path):
        argv = [
            "bounds",
            "--config",
            reduced_json,
            "--out",
            str(tmp_path),
            "--phase-grid",
            "5",
        ]
        assert main(argv) == EXIT_USAGE

    def test_parser_prog_name(self):
        assert build_parser().prog == "qft-forge"

    @pytest.mark.parametrize("axis", ["[NaN, 1, 0.5]", "[0, Infinity, 0.5]", "[0, 1, Infinity]"])
    def test_non_finite_oracle_axis(self, capsys, reduced_json, tmp_path, axis):
        # JSON as Python writes and reads it accepts NaN and Infinity
        raw = json.loads(open(reduced_json).read())
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
        ],
    )
    def test_non_finite_number(self, capsys, reduced_json, tmp_path, place, text, message):
        raw = json.loads(open(reduced_json).read())
        if place == "frequency":
            raw["frequencies"][0] = "VALUE"
        elif place == "max":
            raw["plant"]["parameters"][0]["max"] = "VALUE"
        else:
            raw["stability"]["m"] = "VALUE"
        cfg = tmp_path / "non_finite.json"
        cfg.write_text(json.dumps(raw).replace('"VALUE"', text))
        for command in ("templates", "all"):
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert main(argv) == EXIT_USAGE
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


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

    def test_pair_override_changes_anchors(self, capsys, reduced_json, tmp_path):
        argv = [
            "design",
            "--config",
            reduced_json,
            "--out",
            str(tmp_path),
            "--pair",
            "1,3",
        ]
        assert main(argv) == EXIT_OK
        assert "gains: kp=7.411304 ki=0.088219 kd=3.158082" in capsys.readouterr().out
        report = (tmp_path / "design_report.txt").read_text()
        assert "anchor frequencies : 1 rad/s (position 1), 10 rad/s (position 3)" in report

    def test_phase_grid_override(self, capsys, reduced_json, tmp_path):
        argv = [
            "bounds",
            "--config",
            reduced_json,
            "--out",
            str(tmp_path),
            "--phase-grid",
            "36",
        ]
        assert main(argv) == EXIT_OK
        rows = (tmp_path / "bounds.csv").read_text().splitlines()
        assert len(rows) - 1 == 3 * 36

    def test_oracle_flag(self, capsys, reduced_json, tmp_path):
        raw = json.loads(open(reduced_json).read())
        raw["oracle"] = {"kp": [0, 10, 0.5], "ki": [0, 5, 0.5], "kd": [0, 5, 0.5]}
        cfg = tmp_path / "with_box.json"
        cfg.write_text(json.dumps(raw))
        argv = ["design", "--config", str(cfg), "--out", str(tmp_path), "--oracle"]
        assert main(argv) == EXIT_OK
        assert "oracle best: kp=" in capsys.readouterr().out


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
