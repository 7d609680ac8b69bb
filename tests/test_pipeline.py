"""Pipeline orchestration: stage composition, artifacts, and pinned results."""

from __future__ import annotations

import csv
import dataclasses
import math
import os

import numpy as np
import pytest

from qft_forge.bounds import BoundCurve, UContour, make_phase_grid
from qft_forge.errors import BoundBelowUContour
from qft_forge.lti import db
from qft_forge.optimizer import PidGains
from qft_forge import pipeline, plant, verify
from qft_forge.pipeline import (
    DEFAULT_ORACLE_BOX,
    RunArtifacts,
    _nichols_layers,
    compute_bounds,
    compute_templates,
    compute_verification,
    effective_plant,
    nominal_sweep,
    run_command,
)
from qft_forge.verify import GainAxis, OracleBox, OracleResult

import scalar_reference as ref

ALL_ARTIFACTS = (
    "templates.csv",
    "bounds.csv",
    "kd_grid.csv",
    "design_report.txt",
    "envelope.csv",
    "verify_report.txt",
    "nichols.svg",
)


def read_dir(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


@pytest.fixture(scope="module")
def reduced_all_dir(tmp_path_factory, reduced_config):
    out = tmp_path_factory.mktemp("reduced_all")
    run_command(reduced_config, "all", str(out))
    return out


class TestEffectivePlant:
    def test_without_tau_is_passthrough(self, servo_config):
        assert effective_plant(servo_config) is servo_config.plant

    def test_with_tau_adds_filter_pole(self, reduced_config):
        cfg = dataclasses.replace(
            reduced_config,
            design=dataclasses.replace(reduced_config.design, tau=0.001),
        )
        plant = effective_plant(cfg)
        assert len(plant.den) == len(reduced_config.plant.den) + 1


class TestComputeBounds:
    def test_delta_override_wins(self, reduced_config):
        cfg = dataclasses.replace(reduced_config, delta_hf_override=12.0)
        _, contour = compute_bounds(cfg, compute_templates(cfg))
        assert contour.delta_hf_db == 12.0

    def test_servo_hf_span(self, servo_stack):
        # widest-gain template: k spans a factor 100, the a-dependence shrinks
        # it by sqrt(3601/3700) at the last design frequency
        expected = db(100.0 * math.sqrt(3601.0 / 3700.0))
        assert servo_stack.contour.delta_hf_db == pytest.approx(expected, rel=1e-12)
        assert servo_stack.contour.delta_hf_db == pytest.approx(39.8822139730429, rel=1e-12)

    def test_contour_edges_are_evaluated_once(self, servo_config, servo_stack, monkeypatch):
        # and one BoundCurve is built per design frequency
        calls, built = [], []
        edges, post_init = UContour.edges, BoundCurve.__post_init__

        def spy(contour, phases):
            calls.append(len(phases))
            return edges(contour, phases)

        def spy_curve(curve):
            built.append(curve.omega)
            post_init(curve)

        monkeypatch.setattr(UContour, "edges", spy)
        monkeypatch.setattr(BoundCurve, "__post_init__", spy_curve)
        curves, _ = compute_bounds(servo_config, servo_stack.templates)
        assert calls == [servo_config.phase_grid_count]
        assert built == list(servo_config.frequencies) and len(built) == 8
        assert len(curves) == len(servo_stack.curves)
        for curve, expected in zip(curves, servo_stack.curves):
            assert curve.omega == expected.omega
            assert curve.phase_grid.tobytes() == expected.phase_grid.tobytes()
            assert curve.min_gain_db.tobytes() == expected.min_gain_db.tobytes()

    def test_tracking_entry_below_the_contour_bottom_aborts(self, servo_config, tmp_path):
        # M = 1.1 with a 20 dB span: servo's tracking bound at omega=30 dips
        # below the contour bottom, which the max would hide
        config = dataclasses.replace(servo_config, m_value=1.1, delta_hf_override=20.0)
        with pytest.raises(BoundBelowUContour) as caught:
            run_command(config, "all", str(tmp_path))
        assert str(caught.value) == (
            "performance bound -16.221 dB at phase -244.5 deg sits below the stability "
            "contour bottom -14.633 dB (omega=30.0)"
        )
        assert sorted(os.listdir(tmp_path)) == ["templates.csv"]


class TestChartLayers:
    def test_contour_polygon_is_the_sampled_contour(self, servo_config, servo_stack):
        # the sampled tops in grid order, then the sampled bottoms reversed;
        # the chart drops the NaN rows where the contour does not reach
        contour = servo_stack.contour
        artifacts = RunArtifacts(out_dir="", templates=servo_stack.templates, contour=contour)
        polygon = _nichols_layers(servo_config, artifacts, servo_stack.sweep)["u_contour"]
        reached = polygon[~np.isnan(polygon[:, 1])]
        grid = make_phase_grid(servo_config.phase_grid_count)
        phases, upper, lower = ref.contour_samples(contour.m_value, contour.delta_hf_db, grid)
        expected = np.array(list(zip(phases, upper)) + list(zip(phases[::-1], lower[::-1])))
        assert len(expected) > 200
        assert reached[:, 0].tolist() == expected[:, 0].tolist()
        assert reached[:, 1] == pytest.approx(expected[:, 1], abs=1e-12)


class TestServoDesign:
    def test_pinned_gains(self, servo_design):
        assert servo_design.feasible
        assert servo_design.gains.kp == pytest.approx(13.021194019215578, rel=1e-12)
        assert servo_design.gains.ki == pytest.approx(0.17124145589001946, rel=1e-12)
        assert servo_design.gains.kd == pytest.approx(3.538751198568919, rel=1e-12)

    def test_search_structure(self, servo_design):
        assert servo_design.kd_grid.shape == (180, 180)
        assert int(np.isfinite(servo_design.kd_grid).sum()) == 10332
        assert servo_design.screen_rejections == 14
        assert servo_design.chosen_phases == (-120.5, -104.5)
        assert servo_design.active_frequency == 30.0
        assert servo_design.beta_db == pytest.approx(22.603184774575617, rel=1e-9)

    def test_screen_moved_the_argmin(self, servo_design):
        finite = servo_design.kd_grid[np.isfinite(servo_design.kd_grid)]
        # 14 cells with smaller kd were vetoed by the whole-curve screen
        assert servo_design.gains.kd > finite.min()

    def test_margins(self, servo_design):
        slacks = {m.omega: m.slack_db for m in servo_design.margin_report}
        assert set(slacks) == {0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 60.0}
        assert all(s >= -1e-9 for s in slacks.values())
        assert slacks[30.0] == pytest.approx(0.0, abs=1e-12)  # active frequency
        assert min(slacks.values()) == slacks[30.0]

    def test_verification(self, servo_config, servo_stack, servo_design):
        report = compute_verification(
            servo_config,
            servo_stack.templates,
            servo_design.gains,
            servo_stack.curves,
            servo_stack.contour,
            servo_stack.sweep,
        )
        assert not report.sweep_violations
        assert all(m.source == "performance" for m in report.per_frequency_margins)
        assert all(m.slack_db >= -1e-9 for m in report.per_frequency_margins)
        # tracking corridor breaks only at the second-to-last frequency
        assert not report.passed
        assert [r.omega for r in report.envelope if not r.inside()] == [30.0]
        row = next(r for r in report.envelope if r.omega == 30.0)
        assert row.min_db == pytest.approx(-49.4999, abs=1e-3)
        assert row.lower_db == pytest.approx(-48.3533, abs=1e-3)
        assert report.reasons == (
            "closed-loop envelope leaves the reference corridor at omega=30",
        )


class TestRunCommand:
    def test_unknown_command(self, reduced_config, tmp_path):
        with pytest.raises(ValueError, match="unknown command"):
            run_command(reduced_config, "polish", str(tmp_path))

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("templates", {"templates.csv", "nichols.svg"}),
            ("bounds", {"templates.csv", "bounds.csv", "nichols.svg"}),
            (
                "design",
                {
                    "templates.csv",
                    "bounds.csv",
                    "kd_grid.csv",
                    "design_report.txt",
                    "nichols.svg",
                },
            ),
            ("verify", set(ALL_ARTIFACTS)),
        ],
    )
    def test_artifact_sets(self, reduced_config, tmp_path, command, expected):
        artifacts = run_command(reduced_config, command, str(tmp_path / command))
        assert set(artifacts.written) == expected
        assert {f.name for f in (tmp_path / command).iterdir()} == expected

    def test_artifact_order(self, reduced_all_dir, reduced_config, tmp_path):
        artifacts = run_command(reduced_config, "all", str(tmp_path / "order"))
        assert tuple(artifacts.written) == ALL_ARTIFACTS

    def test_stagewise_run_equals_all(self, reduced_config, tmp_path, reduced_all_dir):
        staged = tmp_path / "staged"
        for command in ("templates", "bounds", "design", "verify"):
            run_command(reduced_config, command, str(staged))
        assert read_dir(staged) == read_dir(reduced_all_dir)

    def test_rerun_is_byte_identical(self, reduced_config, tmp_path, reduced_all_dir):
        again = tmp_path / "again"
        run_command(reduced_config, "all", str(again))
        assert read_dir(again) == read_dir(reduced_all_dir)


class TestArtifactContents:
    def test_templates_csv(self, reduced_all_dir, reduced_stack, reduced_config):
        with open(reduced_all_dir / "templates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["omega", "a", "k", "phase_deg", "gain_db", "on_hull"]
        body = rows[1:]
        expected_rows = sum(
            len(reduced_stack.templates[w].points) for w in reduced_config.frequencies
        )
        assert len(body) == expected_rows
        hull_rows = sum(1 for r in body if r[-1] == "1")
        expected_hull = sum(
            len(reduced_stack.templates[w].hull_indices)
            for w in reduced_config.frequencies
        )
        assert hull_rows == expected_hull
        first = body[0]
        template = reduced_stack.templates[reduced_config.frequencies[0]]
        assert float(first[0]) == reduced_config.frequencies[0]
        assert [float(v) for v in first[1:3]] == template.points[0].tolist()
        assert float(first[3]) == template.phase_deg[0]
        assert float(first[4]) == template.gain_db[0]

    def test_bounds_csv(self, reduced_all_dir, reduced_stack, reduced_config):
        with open(reduced_all_dir / "bounds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["omega", "phase_deg", "min_gain_db"]
        assert len(rows) - 1 == len(reduced_config.frequencies) * 24
        curve = reduced_stack.curves[0]
        sample = rows[1]
        assert float(sample[0]) == curve.omega
        assert float(sample[1]) == curve.phase_grid[0]
        assert float(sample[2]) == curve.min_gain_db[0]

    def test_kd_grid_csv(self, reduced_all_dir, reduced_design):
        with open(reduced_all_dir / "kd_grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase_i_deg", "phase_j_deg", "kd"]
        assert len(rows) - 1 == 12 * 12
        finite = [r for r in rows[1:] if r[2] != "INFEASIBLE"]
        assert len(finite) == int(np.isfinite(reduced_design.kd_grid).sum())
        best = min(float(r[2]) for r in finite)
        assert best == pytest.approx(float(np.min(reduced_design.kd_grid)), rel=1e-12)

    def test_envelope_csv_header_only_without_prefilter(self, reduced_all_dir):
        content = (reduced_all_dir / "envelope.csv").read_text()
        assert content == "omega,min_db,max_db,lower_db,upper_db\n"

    def test_design_report(self, reduced_all_dir):
        text = (reduced_all_dir / "design_report.txt").read_text()
        assert "design report\n=============\n" in text
        assert "controller kind    : pid" in text
        assert "phase grid         : 24 points" in text
        assert "anchor frequencies : 3 rad/s (position 2), 1 rad/s (position 1)" in text
        assert "feasible           : yes" in text
        assert "gains              : kp=7.629752452598" in text
        assert "screen rejections  : 0" in text
        assert "candidate grid     : 12x12 cells," in text
        assert "margins (design-frequency slack over the combined bounds):" in text

    def test_verify_report(self, reduced_all_dir):
        text = (reduced_all_dir / "verify_report.txt").read_text()
        assert text.startswith("verification report\n===================\n")
        assert "verdict : PASS" in text
        assert "inside the stability contour" in text
        assert "failure reasons:" not in text

    def test_nichols_svg_shape(self, reduced_all_dir):
        text = (reduced_all_dir / "nichols.svg").read_text()
        assert text.startswith("<svg")
        assert text.endswith("\n")
        assert text.count('r="5"') == 3  # one loop marker per design frequency


class TestSpecialRuns:
    def test_oracle_section(self, reduced_config, tmp_path):
        cfg = dataclasses.replace(
            reduced_config,
            oracle=OracleBox(
                kp=GainAxis(0.0, 10.0, 0.5),
                ki=GainAxis(0.0, 5.0, 0.5),
                kd=GainAxis(0.0, 5.0, 0.5),
            ),
        )
        artifacts = run_command(cfg, "design", str(tmp_path), with_oracle=True)
        assert artifacts.oracle is not None
        assert artifacts.oracle.evaluations > 0
        text = (tmp_path / "design_report.txt").read_text()
        assert "brute-force cross-check:" in text
        assert "evaluations      : " in text
        assert "box              : kp=[0.0,10.0] step 0.5" in text

    def test_oracle_without_a_box_searches_the_default_box(
        self, reduced_config, tmp_path, monkeypatch
    ):
        boxes = []

        def oracle(problem, box):
            boxes.append(box)
            return OracleResult(best_gains=PidGains(kp=1.0, ki=0.0, kd=0.0), evaluations=0, box=box)

        monkeypatch.setattr(pipeline, "brute_force_design", oracle)
        assert reduced_config.oracle is None
        run_command(reduced_config, "design", str(tmp_path), with_oracle=True)
        assert boxes == [DEFAULT_ORACLE_BOX]
        text = (tmp_path / "design_report.txt").read_text()
        assert "box              : kp=[0.0,50.0] step 0.05" in text

    def test_oracle_close_to_design(self, reduced_config, tmp_path):
        cfg = dataclasses.replace(
            reduced_config,
            oracle=OracleBox(
                kp=GainAxis(0.0, 10.0, 0.1),
                ki=GainAxis(0.0, 5.0, 0.1),
                kd=GainAxis(0.0, 5.0, 0.1),
            ),
        )
        artifacts = run_command(cfg, "design", str(tmp_path), with_oracle=True)
        design_kd = artifacts.design.gains.kd
        oracle_kd = artifacts.oracle.best_gains.kd
        # the full 3-D search can only improve on the pair-restricted design
        # (up to one grid step), and its winner must satisfy every bound
        assert oracle_kd <= design_kd + 0.1 + 1e-9
        from qft_forge.optimizer import loop_margins

        problem = artifacts.problem
        best = artifacts.oracle.best_gains
        margins = loop_margins(problem.bounds, problem.nominal_responses, best)
        assert all(m.slack_db >= -1e-9 for m in margins)

    def test_tau_reports_physical_gains(self, reduced_config, tmp_path):
        cfg = dataclasses.replace(
            reduced_config,
            design=dataclasses.replace(reduced_config.design, tau=0.001),
        )
        artifacts = run_command(cfg, "design", str(tmp_path))
        assert artifacts.physical_gains is not None
        # the regrouped gains are kp + ki tau, ki and kd + kp tau
        physical, design = artifacts.physical_gains, artifacts.design.gains
        assert physical.kp + physical.ki * 0.001 == pytest.approx(design.kp, rel=1e-12)
        assert physical.ki == pytest.approx(design.ki, rel=1e-12)
        assert physical.kd + physical.kp * 0.001 == pytest.approx(design.kd, rel=1e-12)
        text = (tmp_path / "design_report.txt").read_text()
        assert "physical gains     : " in text
        assert "(derivative filter tau=0.001)" in text

    def test_infeasible_design_stops_early(self, reduced_config, tmp_path):
        cfg = dataclasses.replace(reduced_config, disturbance={3.0: 1e-6})
        artifacts = run_command(cfg, "all", str(tmp_path))
        assert not artifacts.design.feasible
        assert artifacts.verification is None
        assert set(artifacts.written) == {
            "templates.csv",
            "bounds.csv",
            "kd_grid.csv",
            "design_report.txt",
            "nichols.svg",
        }
        text = (tmp_path / "design_report.txt").read_text()
        assert "feasible           : no" in text
        assert "reason             : " in text


def with_kind(config, kind, pair=None):
    design = dataclasses.replace(config.design, kind=kind, pair=pair or config.design.pair)
    return dataclasses.replace(config, design=design)


class TestSingleAnchorRuns:
    """PI and PD searches of the servo config through ``run_command``: one
    anchor, one row of candidates."""

    def test_pi_is_infeasible_on_servo(self, servo_config, tmp_path):
        artifacts = run_command(with_kind(servo_config, "pi"), "all", str(tmp_path))
        design = artifacts.design
        assert not design.feasible
        assert design.screen_rejections == 90
        assert design.kd_grid.shape == (1, 90)
        assert artifacts.verification is None

    def test_pd_on_servo(self, servo_config, tmp_path):
        artifacts = run_command(with_kind(servo_config, "pd"), "all", str(tmp_path))
        assert artifacts.design.gains == PidGains(
            kp=12.763401032598725, ki=0.0, kd=3.539604372018313
        )
        with open(tmp_path / "kd_grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phase_deg", "objective"]
        assert len(rows) - 1 == 90
        assert not artifacts.verification.passed

    @pytest.mark.parametrize("kind", ["pi", "pd"])
    def test_rerun_is_byte_identical(self, servo_config, tmp_path, kind):
        config = with_kind(servo_config, kind)
        run_command(config, "all", str(tmp_path / "first"))
        run_command(config, "all", str(tmp_path / "again"))
        assert read_dir(tmp_path / "again") == read_dir(tmp_path / "first")

    @pytest.mark.parametrize("kind", ["pi", "pd"])
    def test_anchor_is_the_first_pair_index(self, reduced_config, kind):
        def design(pair):
            config = with_kind(reduced_config, kind, pair)
            curves, contour = compute_bounds(config, compute_templates(config))
            sweep = nominal_sweep(config)
            problem = pipeline.build_problem(config, curves, sweep)
            return pipeline.compute_design(config, problem, contour, sweep)[0]

        first = design((1, 2))
        # the second index plays no part in a single-anchor search
        same = design((1, 3))
        assert same.gains == first.gains and same.reason == first.reason
        assert np.array_equal(same.kd_grid, first.kd_grid)
        assert same.window_phases_j == first.window_phases_j
        # a different first index centres the half-window elsewhere
        assert design((3, 1)).window_phases_j != first.window_phases_j

    def test_unknown_kind(self, reduced_config, reduced_stack):
        with pytest.raises(ValueError, match="kind"):
            pipeline.compute_design(
                with_kind(reduced_config, "pdq"),
                reduced_stack.problem,
                reduced_stack.contour,
                reduced_stack.sweep,
            )


class TestNominalSweep:
    def test_servo_all_evaluates_the_dense_grid_once(self, servo_config, tmp_path, monkeypatch):
        """A whole ``all`` run evaluates the plant twice: every template member
        over the design frequencies, then the nominal over the dense grid;
        verification reads both results."""
        dense = len(nominal_sweep(servo_config)[0])
        real = plant.evaluate_plant_array
        real_coefficients = plant.UncertainPlant.coefficients_at
        calls, coefficient_calls = [], []

        def counting(plant_, points, s):
            calls.append(([dict(point) for point in points], np.size(s)))
            return real(plant_, points, s)

        def counting_coefficients(plant_, point):
            coefficient_calls.append(dict(point))
            return real_coefficients(plant_, point)

        for module in (plant, pipeline, verify):
            monkeypatch.setattr(module, "evaluate_plant_array", counting, raising=False)
        monkeypatch.setattr(plant.UncertainPlant, "coefficients_at", counting_coefficients)
        artifacts = run_command(servo_config, "all", str(tmp_path))
        assert artifacts.verification is not None and artifacts.verification.envelope
        names = [spec.name for spec in servo_config.plant.params]
        members = [dict(zip(names, combo)) for combo in servo_config.plant.members()]
        nominal = servo_config.plant.nominal
        assert calls == [(members, len(servo_config.frequencies)), ([nominal], dense)]
        assert coefficient_calls == members + [nominal]
        assert len(coefficient_calls) == 101

    def test_design_frequencies_read_from_the_sweep(self, servo_config, servo_stack):
        nominal = servo_config.plant.nominal
        expected = plant.evaluate_plant_array(
            servo_config.plant, [nominal], 1j * np.array(servo_config.frequencies)
        )[0]
        assert servo_stack.problem.nominal_responses == tuple(expected.tolist())


class TestComputeTemplates:
    def test_servo_evaluates_each_member_once(self, servo_config, monkeypatch):
        real = plant.evaluate_plant_array
        calls = []

        def counting(plant_, points, s):
            calls.append(([tuple(point.values()) for point in points], np.size(s)))
            return real(plant_, points, s)

        monkeypatch.setattr(plant, "evaluate_plant_array", counting)
        templates = compute_templates(servo_config)
        members = servo_config.plant.members()
        assert len(members) == 100
        assert calls == [(members, len(servo_config.frequencies))]
        assert len(servo_config.frequencies) == 8
        assert [len(t.points) for t in templates.values()] == [100] * 8
