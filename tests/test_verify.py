"""Verification stage: margins, dense sweep, envelope, brute-force oracle."""

from __future__ import annotations

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qft_forge.bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    BoundCurve,
    UContour,
    make_phase_grid,
)
from qft_forge.config import parse_config_dict
from qft_forge.errors import (
    NoFeasiblePoint,
    PoleOnAxis,
    TemplateTooWide,
    ZeroMagnitude,
)
from qft_forge.expr import parse_coefficient_expr
from qft_forge.lti import (
    RationalTransferFunction,
    db,
    eval_tf,
    to_nichols,
)
from qft_forge.optimizer import INTERPOLATION_TOLERANCE_DB, DesignProblem, PidGains, loop_margins
from qft_forge.pipeline import (
    compute_templates,
    effective_plant,
    render_verify_report,
    run_command,
    write_envelope_csv,
)
from qft_forge.plant import (
    ParameterSpec,
    UncertainPlant,
    evaluate_plant_array,
    generate_templates,
)
from qft_forge.verify import (
    EnvelopeRow,
    GainAxis,
    OracleBox,
    _sorted_unique,
    brute_force_design,
    closed_loop_envelope,
    default_dense_grid,
    verify_design,
)

from conftest import PREFILTER, REFERENCE_GAINS, SERVO_CONFIG_PATH, workload_raw

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
        grid = default_dense_grid(self.FREQS)
        assert np.all(np.diff(grid) > 0)
        assert 500 <= len(grid) <= 500 + len(self.FREQS)

    @given(
        st.lists(
            st.sampled_from([0.5, 1.0, 2.0, 60.0]) | st.floats(1e-3, 1e3) | st.just(-0.0),
            max_size=30,
        )
    )
    def test_dedup_equals_np_unique(self, values):
        values = np.array(values, dtype=float)
        assert _sorted_unique(values).tobytes() == np.unique(values).tobytes()


def templates_at(plant, omegas):
    """The family's templates at ``omegas``, in order, as the envelope reads them."""
    return list(generate_templates(plant, omegas).values())


def row_bits(row: EnvelopeRow):
    return tuple(float(v).hex() for v in dataclasses.astuple(row))


class TestVerifyMargins:
    def verify(self, servo_config, servo_stack, gains, sweep=None, **kwargs):
        return verify_design(
            servo_stack.templates,
            gains,
            servo_stack.curves,
            servo_stack.contour,
            servo_stack.sweep if sweep is None else sweep,
            servo_config.tracking,
            **kwargs,
        )

    def test_margins_agree_with_optimizer(self, servo_config, servo_stack):
        report = self.verify(servo_config, servo_stack, REFERENCE_GAINS)
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
        report = self.verify(servo_config, servo_stack, REFERENCE_GAINS)
        slacks = [m.slack_db for m in report.per_frequency_margins]
        assert min(slacks) >= -INTERPOLATION_TOLERANCE_DB
        assert min(slacks) <= 0.1  # at least one bound is nearly active

    def test_reference_gains_fail_dense_sweep(self, servo_config, servo_stack):
        report = self.verify(servo_config, servo_stack, REFERENCE_GAINS)
        assert not report.passed
        violations = report.sweep_violations
        assert len(violations) == 17
        c = servo_stack.contour
        deepest = max(
            violations,
            key=lambda p: c.edges(p.phase_deg)[0] - p.gain_db,
        )
        assert 2.0 < deepest.omega < 3.0
        assert any("stability contour" in r for r in report.reasons)

    def test_half_gains_break_performance_margins(self, servo_config, servo_stack):
        report = self.verify(servo_config, servo_stack, HALF_REFERENCE_GAINS)
        assert not report.passed
        negative = [
            m
            for m in report.per_frequency_margins
            if m.slack_db < -INTERPOLATION_TOLERANCE_DB
        ]
        assert len(negative) == 5
        assert all(m.source == "performance" for m in negative)
        assert min(m.slack_db for m in negative) == pytest.approx(-6.02, abs=0.1)

    def test_zero_gains_are_vacuous_failures(self, servo_config, servo_stack):
        report = self.verify(servo_config, servo_stack, PidGains(kp=0.0, ki=0.0, kd=0.0))
        assert not report.passed
        for margin in report.per_frequency_margins:
            assert margin.source == "none"
            assert margin.gain_db == -math.inf
            assert margin.slack_db == -math.inf

    @pytest.mark.parametrize(
        "m_value, response",
        [
            # the loop sits at M=1.1's upper span end, -114.62 deg
            (1.1, complex(-0.4165977904505331, -0.9090909090909135)),
            # and at M=2's lower span end, exactly -210 deg
            (2.0, complex(-0.866025403784443, 0.5000000000000023)),
        ],
    )
    def test_margin_at_a_span_end_without_crossing(self, servo_config, m_value, response):
        # the contour does not reach these span ends, so the bound there
        # cannot be the contour top
        phase = to_nichols(response)[0]
        assert phase in ref.m_circle_phase_range(m_value)
        assert math.isnan(UContour(m_value, 0.0).edges(phase)[0])
        curve = BoundCurve(omega=1.0, phase_grid=(-300.0, -60.0), min_gain_db=(0.0, 0.0))
        report = verify_design(
            {},
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            (curve,),
            UContour(m_value, 0.0),
            (np.array([1.0]), np.array([response])),
            servo_config.tracking,
        )
        (margin,) = report.per_frequency_margins
        assert margin.phase_deg == phase
        assert margin.source == "performance"

    def test_loop_at_the_seam_meets_the_interpolated_bound(self, servo_config):
        # on the 1-degree grid the 0/-360 deg seam lies between the end nodes
        # -0.5 and -359.5 + 360; a loop at -0.2 deg, 0.3 of the way from -0.5
        # to 0.5, once met no bound there and read a slack of +inf
        values = np.full(360, 5.0)
        values[0], values[-1] = 10.0, 0.0  # at -359.5 and -0.5 deg
        curve = BoundCurve(omega=1.0, phase_grid=make_phase_grid(360), min_gain_db=values)
        response = cmath.rect(ref.undb(-20.0), math.radians(-0.2))
        gains = PidGains(kp=1.0, ki=0.0, kd=0.0)
        (margin,) = loop_margins((curve,), (response,), gains)
        assert margin.phase_deg == pytest.approx(-0.2, abs=1e-12)
        assert margin.bound_db == pytest.approx(3.0, abs=1e-9)
        assert margin.slack_db == pytest.approx(-23.0, abs=1e-9)
        report = verify_design(
            {},
            gains,
            (curve,),
            UContour(1.2, 0.0),
            (np.array([1.0]), np.array([response])),
            servo_config.tracking,
        )
        (verified,) = report.per_frequency_margins
        assert (verified.bound_db, verified.slack_db) == (margin.bound_db, margin.slack_db)
        assert verified.source == "performance"
        assert not report.passed

    def test_margin_on_the_contour_top_is_tagged_ucontour(self, servo_config):
        # a negative real response with kp=1 puts the loop at exactly -180 deg,
        # the node where the curve holds the contour top
        contour = UContour(1.2, 0.0)
        top = float(contour.edges(-180.0)[0])
        curve = BoundCurve(
            omega=1.0, phase_grid=(-300.0, -180.0, -60.0), min_gain_db=(0.0, top, 0.0)
        )
        report = verify_design(
            {},
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            (curve,),
            contour,
            (np.array([1.0]), np.array([-0.5 + 0j])),
            servo_config.tracking,
        )
        (margin,) = report.per_frequency_margins
        assert (margin.phase_deg, margin.bound_db) == (-180.0, top)
        assert margin.source == "ucontour"

    def test_precomputed_responses_need_the_design_frequencies(self, servo_config, servo_stack):
        plant = servo_config.plant
        for grid in (
            [0.3, 4.7],  # misses every design frequency
            [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0],  # misses 60
            [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 60.0, 30.0],  # unsorted
        ):
            grid = np.array(grid)
            sweep = (grid, evaluate_plant_array(plant, [plant.nominal], 1j * grid)[0])
            with pytest.raises(ValueError):
                self.verify(servo_config, servo_stack, REFERENCE_GAINS, sweep=sweep)

    def test_sweep_always_covers_design_frequencies(self, servo_config, servo_stack):
        report = self.verify(servo_config, servo_stack, REFERENCE_GAINS)
        swept = list(report.sweep_omegas)
        assert swept == servo_stack.sweep[0].tolist()
        assert set(servo_config.frequencies) <= set(swept)


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
            PidGains(kp=100.0, ki=0.0, kd=0.0),
            self.unity_prefilter(),
            self.tracking(servo_config),
            templates_at(plant, [0.5]),
        )
        assert len(rows) == 1
        assert rows[0].min_db == rows[0].max_db
        assert rows[0].max_db == pytest.approx(0.0, abs=0.1)

    def test_family_brackets_nominal(self, servo_config):
        plant = servo_config.plant
        gains = REFERENCE_GAINS
        rows = closed_loop_envelope(
            gains,
            PREFILTER,
            self.tracking(servo_config),
            templates_at(with_grid(plant, 3), [1.0, 3.0]),
        )
        for row in rows:
            s = 1j * row.omega
            response = evaluate_plant_array(plant, [plant.nominal], [s])[0, 0]
            loop = response * ref.pid_frequency_response(gains, row.omega)
            nominal_db = db(abs(eval_tf(PREFILTER, s))) + db(
                abs(loop / (1.0 + loop))
            )
            assert row.min_db - 1e-9 <= nominal_db <= row.max_db + 1e-9
            assert row.lower_db <= row.upper_db

    def test_zero_prefilter_gives_minus_inf(self, servo_config):
        plant = constant_plant("1")
        rows = closed_loop_envelope(
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            RationalTransferFunction([0.0], [1.0]),
            self.tracking(servo_config),
            templates_at(plant, [1.0]),
        )
        assert rows[0].min_db == -math.inf
        assert rows[0].max_db == -math.inf
        assert not rows[0].inside()

    def test_critical_point(self, servo_config):
        # the loop is exactly -1: an unbounded closed loop reads +inf dB
        plant = constant_plant("-1")
        rows = closed_loop_envelope(
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            self.unity_prefilter(),
            self.tracking(servo_config),
            templates_at(plant, [1.0]),
        )
        assert rows[0].max_db == math.inf
        assert not rows[0].inside()

    def test_matches_per_frequency_reference(self, servo_config):
        omegas = list(servo_config.frequencies)
        plant = with_grid(servo_config.plant, 4)
        rows = closed_loop_envelope(
            REFERENCE_GAINS,
            PREFILTER,
            self.tracking(servo_config),
            templates_at(plant, omegas),
        )
        want = ref.envelope_extremes(plant, REFERENCE_GAINS, PREFILTER, omegas)
        assert [(repr(r.min_db), repr(r.max_db)) for r in rows] == [
            (repr(lo), repr(hi)) for lo, hi in want
        ]

    def test_corridor_is_sorted_model_pair(self, servo_config):
        tracking = self.tracking(servo_config)
        plant = constant_plant("1")
        rows = closed_loop_envelope(
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            self.unity_prefilter(),
            tracking,
            templates_at(plant, [2.0]),
        )
        lo = db(abs(eval_tf(tracking.lower, 2j)))
        hi = db(abs(eval_tf(tracking.upper, 2j)))
        assert rows[0].lower_db == pytest.approx(min(lo, hi), abs=1e-12)
        assert rows[0].upper_db == pytest.approx(max(lo, hi), abs=1e-12)


@st.composite
def small_families(draw):
    """A plant over up to two parameters with positive coefficients, a few
    frequencies, and a PID triple."""
    names = ("a", "b")[: draw(st.integers(0, 2))]
    params = []
    for name in names:
        lo = draw(st.floats(0.1, 10.0))
        hi = lo + draw(st.floats(0.0, 5.0))
        params.append(ParameterSpec(name, lo, hi, draw(st.integers(1, 3))))

    def coefficients(count):
        return [
            " + ".join(
                [str(draw(st.integers(1, 3)))]
                + [f"{draw(st.integers(1, 3))}*{name}" for name in names if draw(st.booleans())]
            )
            for _ in range(count)
        ]

    plant = UncertainPlant(
        num=tuple(parse_coefficient_expr(t, names) for t in coefficients(draw(st.integers(1, 2)))),
        den=tuple(parse_coefficient_expr(t, names) for t in coefficients(draw(st.integers(1, 3)))),
        params=tuple(params),
        nominal={spec.name: spec.minimum for spec in params},
    )
    omegas = draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=4, unique=True))
    gains = PidGains(*(draw(st.floats(0.0, 20.0)) for _ in range(3)))
    return plant, omegas, gains


class TestEnvelopeReadsTemplates:
    """The envelope over the templates' member responses equals the earlier
    envelope that evaluated every member again, bit for bit."""

    def assert_matches_reference(self, plant, templates, gains, prefilter, tracking):
        omegas = [t.omega for t in templates]
        want = ref.closed_loop_envelope(plant, gains, prefilter, tracking, omegas)
        got = closed_loop_envelope(gains, prefilter, tracking, templates)
        assert [row_bits(r) for r in got] == [row_bits(r) for r in want]

    def test_servo(self, servo_config, servo_stack):
        templates = list(servo_stack.templates.values())
        for gains in (REFERENCE_GAINS, HALF_REFERENCE_GAINS, PidGains(0.0, 0.0, 0.0)):
            self.assert_matches_reference(
                servo_config.plant, templates, gains, PREFILTER, servo_config.tracking
            )

    def test_derivative_filter_config(self, servo_config):
        config = dataclasses.replace(
            servo_config, design=dataclasses.replace(servo_config.design, tau=0.001)
        )
        # the pipeline's templates carry the filtered plant's responses, and
        # the envelope used to evaluate that same filtered plant
        templates = list(compute_templates(config).values())
        rows = closed_loop_envelope(REFERENCE_GAINS, config.prefilter, config.tracking, templates)
        want = ref.closed_loop_envelope(
            effective_plant(config),
            REFERENCE_GAINS,
            config.prefilter,
            config.tracking,
            config.frequencies,
        )
        assert [row_bits(r) for r in rows] == [row_bits(r) for r in want]
        plain = closed_loop_envelope(
            REFERENCE_GAINS,
            config.prefilter,
            config.tracking,
            templates_at(config.plant, config.frequencies),
        )
        assert [row_bits(r) for r in rows] != [row_bits(r) for r in plain]

    def test_critical_point(self, servo_config):
        plant = constant_plant("-1")
        gains = PidGains(kp=1.0, ki=0.0, kd=0.0)
        want = ref.closed_loop_envelope(plant, gains, PREFILTER, servo_config.tracking, [1.0, 2.0])
        assert all(row.max_db == math.inf for row in want)
        templates = templates_at(plant, [1.0, 2.0])
        self.assert_matches_reference(
            plant, templates, gains, PREFILTER, servo_config.tracking
        )

    @given(family=small_families())
    @settings(max_examples=100, deadline=None)
    def test_small_plants(self, servo_config, family):
        plant, omegas, gains = family
        try:
            templates = templates_at(plant, omegas)
        except (PoleOnAxis, TemplateTooWide, ZeroMagnitude):
            return  # no templates, so no envelope
        self.assert_matches_reference(
            plant, templates, gains, PREFILTER, servo_config.tracking
        )


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
        plant = with_grid(servo_config.plant, 2)
        report = verify_design(
            generate_templates(plant, servo_config.frequencies),
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            servo_stack.sweep,
            servo_config.tracking,
            RationalTransferFunction([0.0], [1.0]),
        )
        assert len(report.envelope) == len(servo_config.frequencies)
        assert not all(row.inside() for row in report.envelope)
        assert any("reference corridor" in r for r in report.reasons)

    def test_member_on_minus_one_fails_with_envelope_reason(
        self, servo_config, servo_stack, tmp_path
    ):
        # the loop is exactly -1 at every design frequency: verification
        # reports the unbounded closed loop as leaving the corridor
        freqs = servo_config.frequencies
        report = verify_design(
            generate_templates(constant_plant("-1"), freqs),
            PidGains(kp=1.0, ki=0.0, kd=0.0),
            servo_stack.curves,
            servo_stack.contour,
            servo_stack.sweep,
            servo_config.tracking,
            RationalTransferFunction([1.0], [1.0]),
        )
        assert not report.passed
        assert [row.max_db for row in report.envelope] == [math.inf] * len(freqs)
        for omega in freqs:
            assert f"closed-loop envelope leaves the reference corridor at omega={omega:g}" in (
                report.reasons
            )
        text = render_verify_report(report)
        assert text.count("inside=NO") == len(freqs)
        write_envelope_csv(tmp_path / "envelope.csv", report)
        rows = (tmp_path / "envelope.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["inf"] * len(freqs)

    def test_no_prefilter_no_envelope(self, servo_config, servo_stack):
        report = verify_design(
            servo_stack.templates,
            REFERENCE_GAINS,
            servo_stack.curves,
            servo_stack.contour,
            servo_stack.sweep,
            servo_config.tracking,
        )
        assert report.envelope == ()


def unstable_pass_config(case):
    """The two designs ROADMAP item 2 names: servo with anchor pair (7, 8)
    and no prefilter, and screen-walk at seed 1 with pair (3, 10)."""
    if case == "servo":
        raw = json.loads(SERVO_CONFIG_PATH.read_text())
        raw["design"]["pair"] = [7, 8]
        del raw["prefilter"]
    else:
        raw = workload_raw("screen-walk")
        raw["design"]["pair"] = [3, 10]
    return parse_config_dict(raw)


class TestClosedLoopStability:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: nothing checks the closed-loop poles, so verification "
        "passes these designs although every member's closed loop is unstable",
    )
    def test_a_passing_design_has_stable_members(self, tmp_path):
        broken = []
        for case in ("servo", "screen-walk"):
            config = unstable_pass_config(case)
            artifacts = run_command(config, "verify", str(tmp_path / case))
            if artifacts.verification is None or not artifacts.verification.passed:
                continue  # a failing verdict promises nothing
            g = artifacts.design.gains
            # s D + N (kd s^2 + kp s + ki), the common factor s dropped when ki = 0
            lead, pid = ([1.0, 0.0], [g.kd, g.kp, g.ki]) if g.ki else ([1.0], [g.kd, g.kp])
            names = [spec.name for spec in config.plant.params]
            worst = []
            for combo in config.plant.members():
                num, den = config.plant.coefficients_at(dict(zip(names, combo)))
                poly = np.polyadd(np.polymul(lead, den), np.polymul(num, pid))
                worst.append(float(np.roots(poly).real.max()))
            unstable = sum(re >= 0.0 for re in worst)
            if unstable:
                broken.append(
                    f"{case}: {g}, {unstable}/{len(worst)} members unstable, "
                    f"worst Re {max(worst):.4g}"
                )
        assert not broken, broken


class TestGainAxis:
    def test_validation(self):
        with pytest.raises(ValueError):
            GainAxis(-0.1, 1.0, 0.1)
        with pytest.raises(ValueError):
            GainAxis(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            GainAxis(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="bad gain axis"):
            GainAxis(0.0, 1e300, 1e-300)  # finite ends, but no finite sample count

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

    @pytest.mark.parametrize("hi, count", [(1.06, 11), (1.04, 11), (1.0, 11), (0.99, 10)])
    def test_partial_last_step_is_dropped(self, hi, count):
        values = GainAxis(0.0, hi, 0.1).values()
        assert len(values) == count
        assert values[-1] <= hi + 1e-12


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
        assert result.best_gains.kd == 0.0
        assert result.evaluations == 3

    def test_zero_controller_never_wins(self):
        problem = self.problem({})  # no constraint anywhere
        box = OracleBox(
            kp=GainAxis(0.0, 1.0, 1.0),
            ki=GainAxis(0.0, 0.0, 1.0),
            kd=GainAxis(0.0, 0.0, 1.0),
        )
        result = brute_force_design(problem, box)
        assert result.best_gains != PidGains(kp=0.0, ki=0.0, kd=0.0)

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
        assert result.best_gains.kd == 1.0
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
