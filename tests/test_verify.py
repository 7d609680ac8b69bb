"""Verification stage: margins, dense sweep, envelope, brute-force oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qft_forge.bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    BoundCurve,
    TrackingSpec,
    make_phase_grid,
    u_contour,
)
from qft_forge.errors import CriticalPoint, NoFeasiblePoint
from qft_forge.expr import parse_coefficient_expr
from qft_forge.lti import RationalTransferFunction, db, eval_tf
from qft_forge.optimizer import DesignProblem, PidGains, loop_margins
from qft_forge.plant import ParameterSpec, UncertainPlant, evaluate_plant_array
from qft_forge.verify import (
    SLACK_TOLERANCE_DB,
    EnvelopeRow,
    GainAxis,
    OracleBox,
    brute_force_design,
    closed_loop_envelope,
    default_dense_grid,
    default_prefilter,
    verify_design,
)

from conftest import REFERENCE_GAINS

import scalar_reference as ref

HALF_REFERENCE_GAINS = PidGains(kp=6.3, ki=2.23, kd=1.975)


def constant_plant(value="-1"):
    return UncertainPlant(
        num=(parse_coefficient_expr(value, []),),
        den=(parse_coefficient_expr("1", []),),
        params=(),
        nominal={},
    )


def with_grid(plant, points):
    """The same family sampled on ``points`` values per parameter."""
    params = tuple(dataclasses.replace(spec, grid_points=points) for spec in plant.params)
    return dataclasses.replace(plant, params=params)


def node_curve(omega, grid, node_values):
    values = [node_values.get(p, NO_CONSTRAINT) for p in grid]
    return BoundCurve(omega=omega, phase_grid=grid, min_gain_db=tuple(values))


class TestDefaultPrefilter:
    def test_polynomials_and_poles(self):
        f = default_prefilter()
        assert f.num == (26.25,)
        assert f.den == (1.0, 11.0, 26.25)
        roots = sorted(np.roots(f.den))
        assert roots == pytest.approx([-7.5, -3.5], abs=1e-9)

    def test_unity_dc_gain(self):
        assert eval_tf(default_prefilter(), 0j) == 1.0 + 0.0j

    def test_gain_at_lower_cutoff(self):
        f = default_prefilter()
        expected = db(26.25 / abs(complex(26.25 - 3.5**2, 11.0 * 3.5)))
        got = db(abs(eval_tf(f, 3.5j)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-3.866, abs=2e-3)

    def test_custom_cutoffs(self):
        f = default_prefilter(2.0, 5.0)
        assert f.num == (10.0,)
        assert f.den == (1.0, 7.0, 10.0)


class TestDefaultDenseGrid:
    FREQS = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 60.0)

    def test_covers_a_decade_past_both_ends(self):
        grid = default_dense_grid(self.FREQS)
        assert grid[0] == pytest.approx(0.05, rel=1e-12)
        assert grid[-1] == pytest.approx(600.0, rel=1e-12)

    def test_contains_design_frequencies_exactly(self):
        grid = default_dense_grid(self.FREQS)
        for omega in self.FREQS:
            assert omega in grid

    def test_sorted_unique(self):
        grid = default_dense_grid(self.FREQS, points=100)
        assert np.all(np.diff(grid) > 0)
        assert 100 <= len(grid) <= 100 + len(self.FREQS)


class TestVerifyMargins:
    def test_margins_agree_with_optimizer(self, servo_config, servo_stack):
        plant = servo_config.plant
        report = verify_design(
            plant,
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            dense_grid=np.array([0.3, 4.7]),
        )
        problem = servo_stack.problem
        optim = loop_margins(problem.bounds, problem.nominal_responses, REFERENCE_GAINS)
        assert len(report.per_frequency_margins) == len(optim)
        for got, want in zip(report.per_frequency_margins, optim):
            assert got.omega == want.omega
            assert got.phase_deg == pytest.approx(want.phase_deg, abs=1e-9)
            assert got.gain_db == pytest.approx(want.gain_db, abs=1e-9)
            if math.isfinite(want.bound_db):
                assert got.bound_db == pytest.approx(want.bound_db, abs=1e-9)
                assert got.slack_db == pytest.approx(want.slack_db, abs=1e-9)
            else:
                assert got.bound_db == want.bound_db

    def test_reference_gains_hold_every_margin(self, servo_config, servo_stack):
        report = verify_design(
            servo_config.plant,
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            dense_grid=np.array([1.0]),
        )
        slacks = [m.slack_db for m in report.per_frequency_margins]
        assert min(slacks) >= -SLACK_TOLERANCE_DB
        assert min(slacks) <= 0.1  # at least one bound is nearly active

    def test_reference_gains_fail_dense_sweep(self, servo_config, servo_stack):
        report = verify_design(
            servo_config.plant,
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            default_dense_grid(servo_config.frequencies),
        )
        assert not report.passed
        violations = report.sweep_violations
        assert len(violations) == 17
        deepest = max(
            violations,
            key=lambda p: servo_stack.contour.upper_at(p.phase_deg) - p.gain_db,
        )
        assert 2.0 < deepest.omega < 3.0
        assert any("stability contour" in r for r in report.reasons)

    def test_half_gains_break_performance_margins(self, servo_config, servo_stack):
        report = verify_design(
            servo_config.plant,
            HALF_REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            dense_grid=np.array([1.0]),
        )
        assert not report.passed
        negative = [
            m for m in report.per_frequency_margins if m.slack_db < -SLACK_TOLERANCE_DB
        ]
        assert len(negative) == 5
        assert all(m.source == "performance" for m in negative)
        assert min(m.slack_db for m in negative) == pytest.approx(-6.02, abs=0.1)

    def test_zero_gains_are_vacuous_failures(self, servo_config, servo_stack):
        report = verify_design(
            servo_config.plant,
            PidGains(kp=0.0, ki=0.0, kd=0.0),
            servo_stack.curves,
            servo_stack.contour,
            dense_grid=np.array([1.0]),
        )
        assert not report.passed
        for margin in report.per_frequency_margins:
            assert margin.source == "none"
            assert margin.gain_db == -math.inf
            assert margin.slack_db == -math.inf

    def test_precomputed_responses_give_the_same_report(self, servo_config, servo_stack):
        plant = servo_config.plant
        grid = default_dense_grid(servo_config.frequencies)
        args = (plant, REFERENCE_GAINS, servo_stack.curves, servo_stack.contour, grid)
        responses = evaluate_plant_array(plant, plant.nominal, 1j * grid)
        assert verify_design(*args, dense_responses=responses) == verify_design(*args)

    def test_precomputed_responses_need_the_design_frequencies(self, servo_config, servo_stack):
        plant = servo_config.plant
        grid = np.array([0.3, 4.7])
        with pytest.raises(ValueError):
            verify_design(
                plant,
                REFERENCE_GAINS,
                servo_stack.curves,
                servo_stack.contour,
                grid,
                dense_responses=evaluate_plant_array(plant, plant.nominal, 1j * grid),
            )

    def test_sweep_always_covers_design_frequencies(self, servo_config, servo_stack):
        report = verify_design(
            servo_config.plant,
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            dense_grid=np.array([0.3]),
        )
        swept = {p.omega for p in report.dense_sweep}
        assert set(servo_config.frequencies) <= swept


class TestClosedLoopEnvelope:
    def unity_prefilter(self):
        return RationalTransferFunction([1.0], [1.0])

    def tracking(self, servo_config):
        return servo_config.tracking

    def test_high_gain_loop_pins_envelope_at_unity(self, servo_config):
        plant = UncertainPlant(
            num=(parse_coefficient_expr("1", []),),
            den=(
                parse_coefficient_expr("1", []),
                parse_coefficient_expr("1", []),
                parse_coefficient_expr("0", []),
            ),
            params=(),
            nominal={},
        )
        rows = closed_loop_envelope(
            plant,
            PidGains(kp=100.0, ki=0.0, kd=0.0),
            self.unity_prefilter(),
            self.tracking(servo_config),
            omegas=[0.5],
        )
        assert len(rows) == 1
        assert rows[0].min_db == rows[0].max_db
        assert rows[0].max_db == pytest.approx(0.0, abs=0.1)

    def test_family_brackets_nominal(self, servo_config):
        plant = servo_config.plant
        gains = REFERENCE_GAINS
        rows = closed_loop_envelope(
            with_grid(plant, 3),
            gains,
            default_prefilter(),
            self.tracking(servo_config),
            omegas=[1.0, 3.0],
        )
        from qft_forge.optimizer import pid_frequency_response

        for row in rows:
            s = 1j * row.omega
            loop = evaluate_plant_array(plant, plant.nominal, [s])[0] * pid_frequency_response(
                gains, row.omega
            )
            nominal_db = db(abs(eval_tf(default_prefilter(), s))) + db(
                abs(loop / (1.0 + loop))
            )
            assert row.min_db - 1e-9 <= nominal_db <= row.max_db + 1e-9
            assert row.lower_db <= row.upper_db

    def test_zero_prefilter_gives_minus_inf(self, servo_config):
        rows = closed_loop_envelope(
            constant_plant("1"),
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            RationalTransferFunction([0.0], [1.0]),
            self.tracking(servo_config),
            omegas=[1.0],
        )
        assert rows[0].min_db == -math.inf
        assert rows[0].max_db == -math.inf
        assert not rows[0].inside()

    def test_critical_point(self, servo_config):
        with pytest.raises(CriticalPoint):
            closed_loop_envelope(
                constant_plant("-1"),
                PidGains(kp=1.0, ki=0.0, kd=0.0),
                self.unity_prefilter(),
                self.tracking(servo_config),
                omegas=[1.0],
            )

    def test_matches_per_frequency_reference(self, servo_config):
        omegas = list(servo_config.frequencies)
        plant = with_grid(servo_config.plant, 4)
        rows = closed_loop_envelope(
            plant,
            REFERENCE_GAINS,
            default_prefilter(),
            self.tracking(servo_config),
            omegas,
        )
        want = ref.envelope_extremes(plant, REFERENCE_GAINS, default_prefilter(), omegas)
        assert [(repr(r.min_db), repr(r.max_db)) for r in rows] == [
            (repr(lo), repr(hi)) for lo, hi in want
        ]

    def test_corridor_is_sorted_model_pair(self, servo_config):
        tracking = self.tracking(servo_config)
        rows = closed_loop_envelope(
            constant_plant("1"),
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            self.unity_prefilter(),
            tracking,
            omegas=[2.0],
        )
        lo = db(abs(eval_tf(tracking.lower, 2j)))
        hi = db(abs(eval_tf(tracking.upper, 2j)))
        assert rows[0].lower_db == pytest.approx(min(lo, hi), abs=1e-12)
        assert rows[0].upper_db == pytest.approx(max(lo, hi), abs=1e-12)


class TestEnvelopeRow:
    def test_inside_boundaries(self):
        row = EnvelopeRow(omega=1.0, min_db=-3.0, max_db=2.0, lower_db=-3.0, upper_db=2.0)
        assert row.inside()
        low = EnvelopeRow(omega=1.0, min_db=-3.1, max_db=2.0, lower_db=-3.0, upper_db=2.0)
        assert not low.inside()
        high = EnvelopeRow(omega=1.0, min_db=-3.0, max_db=2.1, lower_db=-3.0, upper_db=2.0)
        assert not high.inside()


class TestVerifyEnvelopeIntegration:
    def test_zero_prefilter_fails_with_envelope_reason(self, servo_config, servo_stack):
        report = verify_design(
            with_grid(servo_config.plant, 2),
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            dense_grid=np.array([1.0]),
            prefilter=RationalTransferFunction([0.0], [1.0]),
            tracking=servo_config.tracking,
        )
        assert len(report.envelope) == len(servo_config.frequencies)
        assert report.envelope_violations
        assert any("reference corridor" in r for r in report.reasons)

    def test_no_prefilter_no_envelope(self, servo_config, servo_stack):
        report = verify_design(
            servo_config.plant,
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            dense_grid=np.array([1.0]),
        )
        assert report.envelope == ()


class TestGainAxis:
    def test_validation(self):
        with pytest.raises(ValueError):
            GainAxis(-0.1, 1.0, 0.1)
        with pytest.raises(ValueError):
            GainAxis(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            GainAxis(0.0, 1.0, 0.0)

    def test_inclusive_values(self):
        assert list(GainAxis(0.0, 1.0, 0.25).values()) == pytest.approx(
            [0.0, 0.25, 0.5, 0.75, 1.0]
        )

    def test_degenerate_axis(self):
        assert list(GainAxis(2.0, 2.0, 1.0).values()) == [2.0]

    def test_float_step_robustness(self):
        values = GainAxis(0.0, 50.0, 0.05).values()
        assert len(values) == 1001
        assert values[-1] == pytest.approx(50.0, abs=1e-9)


class TestBruteForce:
    GRID = (-135.0, -90.0, -45.0)

    def problem(self, bound1_nodes, bound2_nodes=None):
        return DesignProblem(
            frequencies=(1.0, 2.0),
            nominal_responses=(-1j, -1j),
            bounds=(
                node_curve(1.0, self.GRID, bound1_nodes),
                node_curve(2.0, self.GRID, bound2_nodes or {}),
            ),
            phase_grid=self.GRID,
            pair_indices=(0, 1),
        )

    def test_minimal_example_counts_evaluations(self):
        problem = self.problem({-90.0: 0.0})
        box = OracleBox(
            kp=GainAxis(0.0, 2.0, 1.0),
            ki=GainAxis(0.0, 0.0, 1.0),
            kd=GainAxis(0.0, 0.0, 1.0),
        )
        result = brute_force_design(problem, box)
        assert result.best_gains == PidGains(kp=1.0, ki=0.0, kd=0.0)
        assert result.best_kd == 0.0
        assert result.evaluations == 3

    def test_zero_controller_never_wins(self):
        problem = self.problem({})  # no constraint anywhere
        box = OracleBox(
            kp=GainAxis(0.0, 1.0, 1.0),
            ki=GainAxis(0.0, 0.0, 1.0),
            kd=GainAxis(0.0, 0.0, 1.0),
        )
        result = brute_force_design(problem, box)
        assert result.best_gains.as_tuple() != (0.0, 0.0, 0.0)

    def test_ki_major_tie_break(self):
        problem = self.problem({-135.0: 5.0, -90.0: 5.0, -45.0: 5.0})
        box = OracleBox(
            kp=GainAxis(0.0, 2.0, 1.0),
            ki=GainAxis(0.0, 1.0, 1.0),
            kd=GainAxis(0.0, 0.0, 1.0),
        )
        result = brute_force_design(problem, box)
        # (ki=0, kp=2) precedes (ki=1, kp=2) in the flattened mesh
        assert result.best_gains == PidGains(kp=2.0, ki=0.0, kd=0.0)

    def test_kd_slices_ascend(self):
        problem = self.problem({-90.0: INFEASIBLE})
        box = OracleBox(
            kp=GainAxis(0.0, 1.0, 1.0),
            ki=GainAxis(0.0, 0.0, 1.0),
            kd=GainAxis(0.0, 1.0, 1.0),
        )
        result = brute_force_design(problem, box)
        assert result.best_kd == 1.0
        assert result.evaluations == 4  # two 2-cell slices examined

    def test_no_feasible_point(self):
        problem = self.problem(
            {p: 100.0 for p in self.GRID}, {p: 100.0 for p in self.GRID}
        )
        # kp=0 is the zero controller, kp=1 lands on the -90 node at 0 dB < 100
        box = OracleBox(
            kp=GainAxis(0.0, 1.0, 1.0),
            ki=GainAxis(0.0, 0.0, 1.0),
            kd=GainAxis(0.0, 0.0, 1.0),
        )
        with pytest.raises(NoFeasiblePoint):
            brute_force_design(problem, box)

    def test_servo_small_box(self, servo_stack):
        box = OracleBox(
            kp=GainAxis(0.0, 16.0, 0.2),
            ki=GainAxis(0.0, 16.0, 0.2),
            kd=GainAxis(0.0, 16.0, 0.2),
        )
        result = brute_force_design(servo_stack.problem, box)
        assert result.best_gains.kp == pytest.approx(6.8, abs=1e-9)
        assert result.best_gains.ki == pytest.approx(0.0, abs=1e-9)
        assert result.best_gains.kd == pytest.approx(3.6, abs=1e-9)
        # kd slices 0.0 .. 3.6 inclusive: 19 slices of an 81x81 mesh
        assert result.evaluations == 19 * 81 * 81

    def test_servo_small_box_winner_is_feasible(self, servo_stack):
        box = OracleBox(
            kp=GainAxis(0.0, 16.0, 0.2),
            ki=GainAxis(0.0, 16.0, 0.2),
            kd=GainAxis(0.0, 16.0, 0.2),
        )
        result = brute_force_design(servo_stack.problem, box)
        problem = servo_stack.problem
        margins = loop_margins(problem.bounds, problem.nominal_responses, result.best_gains)
        for entry in margins:
            assert entry.slack_db >= -1e-9
