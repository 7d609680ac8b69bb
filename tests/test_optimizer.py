"""Controller search: kernel directions, the dB lift, and the grid searches."""

from __future__ import annotations

import cmath
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qft_forge.bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    BoundCurve,
    UContour,
    interpolate_bound_array,
    make_phase_grid,
)
from qft_forge.errors import EmptyWindow, NegativeMappedGain, ZeroMagnitude
from qft_forge.expr import parse_coefficient_expr
from qft_forge.lti import RationalTransferFunction, db, eval_tf, to_nichols, wrap_phase
from qft_forge.optimizer import (
    INTERPOLATION_TOLERANCE_DB,
    DesignProblem,
    PidGains,
    SweepScreen,
    _kernel_grid,
    _lift,
    _scale,
    design_controller,
    filtered_derivative_transform,
    loop_margins,
    phase_window,
    physical_gains,
    pid_frequency_response,
)
from qft_forge.plant import ParameterSpec, UncertainPlant, evaluate_plant_array

from conftest import ADMIT_ALL, REFERENCE_GAINS

import scalar_reference as ref
from scalar_reference import undb


def flat_curve(omega, grid, value):
    return BoundCurve(
        omega=omega, phase_grid=grid, min_gain_db=tuple(value for _ in grid)
    )


def node_curve(omega, grid, node_values):
    """Curve that is NO_CONSTRAINT except at the listed exact grid nodes."""
    values = [node_values.get(p, NO_CONSTRAINT) for p in grid]
    return BoundCurve(omega=omega, phase_grid=grid, min_gain_db=tuple(values))


def two_freq_problem(bound1, bound2, responses=(-1j, -1j), grid=(-135.0, -90.0, -45.0)):
    return DesignProblem(
        frequencies=(1.0, 2.0),
        nominal_responses=responses,
        bounds=(bound1, bound2),
        phase_grid=tuple(grid),
        pair_indices=(0, 1),
    )


GAIN = st.floats(min_value=0.0, max_value=1e4) | st.sampled_from([0.0, -0.0])
OMEGA = st.floats(min_value=1e-3, max_value=1e3)


def controller(gains, omega):
    """The kernel's K(j omega) for one gain triple, as a Python complex."""
    return complex(pid_frequency_response(gains.kp, gains.ki, gains.kd, omega))


class TestPidResponse:
    def test_reference_gains_at_j1(self):
        response = controller(REFERENCE_GAINS, 1.0)
        assert response == pytest.approx(12.6 - 0.51j, abs=1e-12)

    def test_matches_formula(self):
        gains = PidGains(kp=2.0, ki=3.0, kd=0.5)
        for omega in (0.2, 1.0, 7.0):
            expected = complex(2.0, 0.5 * omega - 3.0 / omega)
            assert controller(gains, omega) == pytest.approx(expected)

    def test_rejects_non_positive_omega(self):
        with pytest.raises(ValueError):
            controller(REFERENCE_GAINS, 0.0)
        with pytest.raises(ValueError):
            controller(REFERENCE_GAINS, -1.0)
        with pytest.raises(ValueError):
            pid_frequency_response(1.0, 1.0, 1.0, np.array([1.0, 0.0]))

    @given(st.lists(st.tuples(GAIN, GAIN, GAIN, OMEGA), min_size=1, max_size=6))
    @example([(0.0, 1.0, 2.0, 3.0), (-0.0, 1.0, 2.0, 3.0), (-0.0, 0.0, 0.0, 1.0)])
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit_with_scalar_reference(self, rows):
        def bits(z):
            return z.real.hex(), z.imag.hex()

        want = [
            [bits(ref.pid_frequency_response(PidGains(kp, ki, kd), omega)) for *_, omega in rows]
            for kp, ki, kd, _ in rows
        ]
        # scalars: each triple at its own frequency, the diagonal of ``want``
        for i, (kp, ki, kd, omega) in enumerate(rows):
            assert bits(complex(pid_frequency_response(kp, ki, kd, omega))) == want[i][i]
        # arrays: every triple (a row) at every frequency (a column)
        kp, ki, kd, omegas = (np.array(column) for column in zip(*rows))
        grid = pid_frequency_response(kp[:, None], ki[:, None], kd[:, None], omegas[None, :])
        assert [list(map(bits, row)) for row in grid.tolist()] == want

    def test_gains_validation(self):
        with pytest.raises(ValueError):
            PidGains(kp=-0.1, ki=0.0, kd=0.0)
        with pytest.raises(ValueError):
            PidGains(kp=math.inf, ki=0.0, kd=0.0)


def gain_phase(gains, omega):
    """(linear gain, principal phase deg) of the controller at one frequency."""
    response = controller(gains, omega)
    return abs(response), math.degrees(cmath.phase(response))


class TestPidGainPhase:
    def test_pure_proportional(self):
        gain, phase = gain_phase(PidGains(kp=1.0, ki=0.0, kd=0.0), 5.0)
        assert gain == 1.0
        assert phase == 0.0

    def test_reference_gains_linear_magnitude(self):
        gain, phase = gain_phase(REFERENCE_GAINS, 1.0)
        assert gain == pytest.approx(12.61031720457499, abs=1e-9)
        assert phase == pytest.approx(-2.3178496, abs=1e-6)
        assert gain == pytest.approx(abs(12.6 - 0.51j), abs=1e-12)

    def test_pure_derivative_is_plus_90(self):
        gain, phase = gain_phase(PidGains(kp=0.0, ki=0.0, kd=3.0), 1.0)
        assert gain == 3.0
        assert phase == 90.0

    def test_pure_integral_is_minus_90(self):
        gain, phase = gain_phase(PidGains(kp=0.0, ki=2.0, kd=0.0), 1.0)
        assert gain == 2.0
        assert phase == -90.0

    def test_zero_controller(self):
        with pytest.raises(ZeroMagnitude):
            to_nichols(controller(PidGains(kp=0.0, ki=0.0, kd=0.0), 1.0))

    def test_vanishing_response(self):
        # ki = kd at omega = 1 cancels the imaginary part with kp = 0
        with pytest.raises(ZeroMagnitude):
            to_nichols(controller(PidGains(kp=0.0, ki=1.0, kd=1.0), 1.0))


class TestPidTransferFunction:
    def test_matches_frequency_response(self):
        gains = PidGains(kp=2.0, ki=3.0, kd=0.5)
        # (kd s^2 + kp s + ki) / s
        tf = RationalTransferFunction([gains.kd, gains.kp, gains.ki], [1.0, 0.0])
        for omega in (0.5, 2.0):
            assert eval_tf(tf, 1j * omega) == pytest.approx(
                controller(gains, omega), rel=1e-12
            )


class TestPhaseWindow:
    def test_full_grid_window_size(self):
        grid = make_phase_grid(360)
        window = phase_window(-135.0, grid)
        assert len(window) == 180
        assert window[0] == pytest.approx(-224.5)
        assert window[-1] == pytest.approx(-45.5)

    def test_coarse_grid(self):
        grid = make_phase_grid(4)
        assert phase_window(-90.0, grid) == (-135.0, -45.0)

    def test_endpoints_excluded(self):
        # distance must be strictly below 90 degrees
        window = phase_window(-135.0, (-225.0, -224.9, -45.1, -45.0))
        assert window == (-224.9, -45.1)

    def test_wrap_equivalence(self):
        grid = make_phase_grid(24)
        assert phase_window(10.0, grid) == phase_window(-350.0, grid)

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            phase_window(-180.0, (-350.0, -10.0))


def constraint_rows(psi_i, psi_j, omega_i, omega_j):
    """The 2x3 phase-constraint matrix: rows [1, -1/w^2, -tan(psi)/w]."""
    return np.array(
        [
            [1.0, -1.0 / (omega * omega), -math.tan(math.radians(psi)) / omega]
            for psi, omega in ((psi_i, omega_i), (psi_j, omega_j))
        ]
    )


def kernel(psi_i, psi_j, omega_i, omega_j):
    """One cell of ``_kernel_grid``: the (kd, ki, kp) unit direction realising
    controller phases ``psi_i`` at ``omega_i`` and ``psi_j`` at ``omega_j``."""
    rows = constraint_rows(psi_i, psi_j, omega_i, omega_j)
    return _kernel_grid(rows[0, 2], rows[1, 2], omega_i, omega_j)


def residual(v, psi_i, psi_j, omega_i, omega_j):
    return float(np.linalg.norm(constraint_rows(psi_i, psi_j, omega_i, omega_j) @ v))


P_RAY = np.array([0.0, 0.0, 1.0])  # the direction of phases (0, 0) at omega (1, 2)
PID_RAY = np.array([1.0, 2.0, 1.0]) / math.sqrt(6.0)  # phases (-45, 45)
MIXED_RAY = np.array([1.0, -2.0, 3.0]) / math.sqrt(14.0)  # phases (45, 45)


class TestKernelDirection:
    def test_zero_phases_give_pure_proportional(self):
        assert kernel(0.0, 0.0, 1.0, 2.0).tolist() == P_RAY.tolist()

    def test_all_positive_direction(self):
        # tan(psi) = omega - 2/omega makes (kd, ki, kp) = (1, 2, 1) a kernel
        direction = kernel(-45.0, 45.0, 1.0, 2.0)
        assert direction == pytest.approx(PID_RAY, abs=1e-12)
        assert residual(direction, -45.0, 45.0, 1.0, 2.0) <= 1e-12

    def test_sign_mixed_direction(self):
        # tan(psi) = (omega + 2/omega)/3 makes (1, -2, 3) a kernel
        assert kernel(45.0, 45.0, 1.0, 2.0) == pytest.approx(MIXED_RAY, abs=1e-12)

    def test_unit_norm_and_pivot_sign(self):
        for psi_i, psi_j in ((-30.0, 70.0), (10.0, -80.0), (45.0, -45.0)):
            v = kernel(psi_i, psi_j, 0.7, 13.0)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert v[int(np.argmax(np.abs(v)))] > 0.0
            assert residual(v, psi_i, psi_j, 0.7, 13.0) <= 1e-10

    def test_degenerate_pair_snaps_onto_pi_ray(self):
        # w_i tan(psi_i) = w_j tan(psi_j) puts the kernel on the PI ray kd = 0;
        # rounding leaves kd at -9e-19, which would make the ray sign-mixed
        psi_j = math.degrees(math.atan(0.7 * math.tan(math.radians(-40.0)) / 13.0))
        v = kernel(-40.0, psi_j, 0.7, 13.0)
        assert v[0] == 0.0
        assert v[1] > 0.0 and v[2] > 0.0
        assert np.isfinite(_scale(v, 0.0)).all()

    def test_grid_cells_match_single_cells(self):
        psi_i = np.array([-30.0, 10.0, 45.0])
        psi_j = np.array([70.0, -80.0, -45.0, 0.0])
        b_i = -np.tan(np.radians(psi_i)) / 0.7
        b_j = -np.tan(np.radians(psi_j)) / 13.0
        grid = _kernel_grid(b_i[:, None], b_j[None, :], 0.7, 13.0)
        assert grid.shape == (3, 3, 4)
        for (i, j), _ in np.ndenumerate(grid[0]):
            assert grid[:, i, j].tolist() == kernel(psi_i[i], psi_j[j], 0.7, 13.0).tolist()


def lift_one(v, problem):
    """(beta_db, active index) of one direction through ``_lift``."""
    beta, active = _lift(np.asarray(v, dtype=float)[:, None], problem)
    return float(beta[0]), int(active[0])


class TestLift:
    GRID = (-135.0, -90.0, -45.0)

    def test_single_binding_bound(self):
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {-90.0: 20.0}),
            node_curve(2.0, self.GRID, {}),
        )
        beta, active = lift_one(P_RAY, problem)
        assert beta == pytest.approx(20.0, abs=1e-12)
        assert active == 0

    def test_worst_bound_wins(self):
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {-90.0: 20.0}),
            node_curve(2.0, self.GRID, {-90.0: 26.0}),
        )
        beta, active = lift_one(P_RAY, problem)
        assert beta == pytest.approx(26.0, abs=1e-12)
        assert active == 1

    def test_infeasible_bound_poisons_direction(self):
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {-90.0: INFEASIBLE}),
            node_curve(2.0, self.GRID, {-90.0: 10.0}),
        )
        assert lift_one(P_RAY, problem)[0] == INFEASIBLE

    def test_all_unconstrained_is_infeasible(self):
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {}),
            node_curve(2.0, self.GRID, {}),
        )
        assert lift_one(P_RAY, problem)[0] == INFEASIBLE

    def test_scaled_candidate_meets_bounds_exactly(self):
        # direction (1, 2, 1)/sqrt(6) induces phases -135 (w=1) and -45 (w=2)
        direction = kernel(-45.0, 45.0, 1.0, 2.0)
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {-135.0: 10.0}),
            node_curve(2.0, self.GRID, {-45.0: 3.0}),
        )
        beta, active = lift_one(direction, problem)
        assert active == 0
        kd, ki, kp = _scale(direction, beta)
        gains = PidGains(kp=kp, ki=ki, kd=kd)
        for k, omega in enumerate(problem.frequencies):
            loop = problem.nominal_responses[k] * controller(gains, omega)
            phase = wrap_phase(math.degrees(cmath.phase(loop)))
            bound = interpolate_bound_array(problem.bounds[k], np.array([phase]))[0]
            slack = db(abs(loop)) - bound
            assert slack >= -1e-9
            if k == active:
                assert slack == pytest.approx(0.0, abs=1e-9)


class TestCandidateFromKernel:
    """A kernel direction lifted into (kd, ki, kp) gains, or not lifted."""

    def test_scaling_by_20_db(self):
        kd, ki, kp = _scale(PID_RAY, 20.0)
        gains = PidGains(kp=kp, ki=ki, kd=kd)
        assert gains.kd == pytest.approx(10.0 / math.sqrt(6.0), abs=1e-9)
        assert gains.kd == pytest.approx(4.08248290463863, abs=1e-9)
        assert gains.ki == pytest.approx(20.0 / math.sqrt(6.0), abs=1e-9)
        assert gains.kp == pytest.approx(10.0 / math.sqrt(6.0), abs=1e-9)

    def test_sign_mixed_rejected(self):
        # phases (45, 45) give MIXED_RAY: the search does not lift it, although
        # the flat bounds would, so its kd_grid cell reads inf
        grid = (-135.0, -90.0, -45.0)
        problem = two_freq_problem(flat_curve(1.0, grid, 0.0), flat_curve(2.0, grid, 0.0))
        result = design_controller(problem, "pid", ADMIT_ALL)
        i, j = result.window_phases_i.index(-45.0), result.window_phases_j.index(-45.0)
        assert np.isinf(result.kd_grid[i, j])
        assert np.isfinite(_lift(MIXED_RAY[:, None], problem)[0]).all()
        assert np.isfinite(result.kd_grid).any()

    def test_zero_beta_pure_proportional(self):
        assert _scale(P_RAY, 0.0).tolist() == [0.0, 0.0, 1.0]



class TestLoopMargins:
    GRID = (-135.0, -90.0, -45.0)

    def test_sentinel_slacks(self):
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {-90.0: 20.0}),
            node_curve(2.0, self.GRID, {}),
        )
        margins = loop_margins(
            problem.bounds, problem.nominal_responses, PidGains(kp=1.0, ki=0.0, kd=0.0)
        )
        assert margins[0].phase_deg == pytest.approx(-90.0)
        assert margins[0].gain_db == pytest.approx(0.0, abs=1e-12)
        assert margins[0].bound_db == 20.0
        assert margins[0].slack_db == pytest.approx(-20.0, abs=1e-12)
        assert margins[1].bound_db == NO_CONSTRAINT
        assert margins[1].slack_db == math.inf

    def test_zero_loop_clears_only_a_vacuous_curve(self):
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {-90.0: 20.0}),
            node_curve(2.0, self.GRID, {}),
        )
        margins = loop_margins(
            problem.bounds, problem.nominal_responses, PidGains(kp=0.0, ki=0.0, kd=0.0)
        )
        assert [(m.phase_deg, m.gain_db) for m in margins] == [(0.0, -math.inf)] * 2
        assert (margins[0].bound_db, margins[0].slack_db) == (INFEASIBLE, -math.inf)
        assert (margins[1].bound_db, margins[1].slack_db) == (NO_CONSTRAINT, math.inf)

    def test_infeasible_bound_slack(self):
        problem = two_freq_problem(
            node_curve(1.0, self.GRID, {-90.0: INFEASIBLE}),
            node_curve(2.0, self.GRID, {}),
        )
        margins = loop_margins(
            problem.bounds, problem.nominal_responses, PidGains(kp=1.0, ki=0.0, kd=0.0)
        )
        assert margins[0].bound_db == INFEASIBLE
        assert margins[0].slack_db == -math.inf


class TestSweepScreen:
    def make_screen(self, responses, omegas=None):
        contour = UContour(1.2, 20.0)
        omegas = omegas or tuple(1.0 for _ in responses)
        return SweepScreen(
            contour=contour, omegas=omegas, nominal_responses=tuple(responses)
        )

    def admits(self, screen, gains):
        return not screen.sweep(gains.kp, gains.ki, gains.kd)[2].any()

    def test_validation(self):
        contour = UContour(1.2, 20.0)
        with pytest.raises(ValueError):
            SweepScreen(contour=contour, omegas=(1.0, 2.0), nominal_responses=(-1j,))
        with pytest.raises(ValueError):
            SweepScreen(contour=contour, omegas=(0.0,), nominal_responses=(-1j,))

    def test_loop_inside_contour_rejected(self):
        screen = self.make_screen([-1.0 + 0j])  # loop at (-180 deg, 0 dB)
        assert not self.admits(screen, PidGains(kp=1.0, ki=0.0, kd=0.0))

    def test_loop_above_contour_admitted(self):
        screen = self.make_screen([-1.0 + 0j])
        assert self.admits(screen, PidGains(kp=100.0, ki=0.0, kd=0.0))

    def test_loop_outside_span_admitted(self):
        screen = self.make_screen([-1j])  # -90 deg, outside the contour span
        assert self.admits(screen, PidGains(kp=1.0, ki=0.0, kd=0.0))

    def test_empty_grid_admits_everything(self):
        screen = self.make_screen([])
        assert self.admits(screen, PidGains(kp=1.0, ki=0.0, kd=0.0))

    def test_sweep_reports_every_point(self):
        # a zero loop (no phase) sits at -inf dB, outside the contour
        screen = self.make_screen([-1.0 + 0j, 0j, -1j], omegas=(1.0, 2.0, 3.0))
        assert isinstance(screen.omegas, np.ndarray)
        phase, gain, inside = screen.sweep(1.0, 0.0, 0.0)
        assert phase.tolist() == [-180.0, 0.0, -90.0]
        assert gain.tolist() == [0.0, -math.inf, 0.0]
        assert inside.tolist() == [True, False, False]

    def test_boundary_tolerance(self):
        # a point riding the contour top must not be vetoed
        contour = UContour(1.2, 20.0)
        top = float(contour.edges(-180.0)[0])
        screen = self.make_screen([-undb(top) + 0j])
        assert self.admits(screen, PidGains(kp=1.0, ki=0.0, kd=0.0))


class TestDesignPidReduced:
    """Grid search on the reduced servo problem (3 freqs, 24 phases)."""

    def test_feasible_with_pinned_gains(self, reduced_design):
        assert reduced_design.feasible
        gains = reduced_design.gains
        assert gains.kp == pytest.approx(7.629752452598466, abs=1e-8)
        assert gains.ki == pytest.approx(2.168906471740076, abs=1e-8)
        assert gains.kd == pytest.approx(3.1733824380982227, abs=1e-8)

    def test_chosen_phases_and_active_frequency(self, reduced_design):
        assert reduced_design.chosen_phases == pytest.approx((-112.5, -127.5))
        assert reduced_design.active_frequency == 10.0

    def test_grid_shape_and_argmin(self, reduced_design):
        assert reduced_design.kd_grid.shape == (12, 12)
        finite = reduced_design.kd_grid[np.isfinite(reduced_design.kd_grid)]
        assert finite.size > 0
        assert finite.min() == pytest.approx(reduced_design.gains.kd, abs=1e-12)

    def test_window_phases(self, reduced_design, reduced_stack):
        problem = reduced_stack.problem
        # pair (2, 1) in file order: anchors at omega = 3 and omega = 1
        assert problem.pair_indices == (1, 0)
        assert len(reduced_design.window_phases_i) == 12
        assert len(reduced_design.window_phases_j) == 12
        i_star = reduced_design.window_phases_i.index(reduced_design.chosen_phases[0])
        j_star = reduced_design.window_phases_j.index(reduced_design.chosen_phases[1])
        assert reduced_design.kd_grid[i_star, j_star] == pytest.approx(
            reduced_design.gains.kd, abs=1e-12
        )

    def test_margins_tight_and_feasible(self, reduced_design):
        slacks = [m.slack_db for m in reduced_design.margin_report]
        finite = [s for s in slacks if math.isfinite(s)]
        assert min(finite) >= -1e-9
        assert min(finite) == pytest.approx(0.0, abs=1e-9)

    def test_active_frequency_has_zero_slack(self, reduced_design):
        by_omega = {m.omega: m for m in reduced_design.margin_report}
        entry = by_omega[reduced_design.active_frequency]
        assert entry.slack_db == pytest.approx(0.0, abs=1e-9)

    def test_loop_phases_match_chosen_window_nodes(self, reduced_design):
        by_omega = {m.omega: m for m in reduced_design.margin_report}
        assert by_omega[3.0].phase_deg == pytest.approx(
            reduced_design.chosen_phases[0], abs=1e-9
        )
        assert by_omega[1.0].phase_deg == pytest.approx(
            reduced_design.chosen_phases[1], abs=1e-9
        )

    def test_beta_is_positive_lift(self, reduced_design):
        assert reduced_design.beta_db is not None
        assert reduced_design.beta_db > 0.0

    def test_finer_phase_grid_does_not_worsen_kd(self, reduced_stack, reduced_design):
        finer = dataclasses.replace(
            reduced_stack.problem, phase_grid=make_phase_grid(48)
        )
        result = design_controller(finer, "pid", ADMIT_ALL)
        assert result.feasible
        assert result.gains.kd <= reduced_design.gains.kd + 0.05

    def test_trivial_screen_changes_nothing(self, reduced_stack, reduced_design):
        passthrough = SimpleNamespace(first_admitted=lambda kd, ki, kp: 0)
        result = design_controller(reduced_stack.problem, "pid", passthrough)
        assert result.gains == reduced_design.gains
        assert result.screen_rejections == 0

    def test_veto_all_screen(self, reduced_stack, reduced_design):
        veto = SimpleNamespace(first_admitted=lambda kd, ki, kp: None)
        result = design_controller(reduced_stack.problem, "pid", veto)
        assert not result.feasible
        assert result.gains is None
        assert "stability contour" in result.reason
        finite_cells = int(np.isfinite(reduced_design.kd_grid).sum())
        assert result.screen_rejections == finite_cells


class TestDesignPidEdgeCases:
    GRID = make_phase_grid(24)

    def test_no_binding_constraint(self):
        problem = two_freq_problem(
            flat_curve(1.0, self.GRID, NO_CONSTRAINT),
            flat_curve(2.0, self.GRID, NO_CONSTRAINT),
            grid=self.GRID,
        )
        result = design_controller(problem, "pid", ADMIT_ALL)
        assert not result.feasible
        assert result.reason == "no binding constraint"
        assert np.all(np.isinf(result.kd_grid))

    def test_all_infeasible_bounds(self):
        problem = two_freq_problem(
            flat_curve(1.0, self.GRID, INFEASIBLE),
            flat_curve(2.0, self.GRID, INFEASIBLE),
            grid=self.GRID,
        )
        result = design_controller(problem, "pid", ADMIT_ALL)
        assert not result.feasible
        assert "sign-mixed or blocked" in result.reason
        assert result.screen_rejections == 0

    def test_problem_validation(self):
        curve = flat_curve(1.0, self.GRID, 0.0)
        with pytest.raises(ValueError):
            DesignProblem(
                frequencies=(1.0, 2.0),
                nominal_responses=(-1j,),
                bounds=(curve, flat_curve(2.0, self.GRID, 0.0)),
                phase_grid=self.GRID,
                pair_indices=(0, 1),
            )
        with pytest.raises(ValueError):
            DesignProblem(
                frequencies=(2.0, 1.0),
                nominal_responses=(-1j, -1j),
                bounds=(flat_curve(2.0, self.GRID, 0.0), curve),
                phase_grid=self.GRID,
                pair_indices=(0, 1),
            )
        with pytest.raises(ValueError):
            DesignProblem(
                frequencies=(1.0, 2.0),
                nominal_responses=(-1j, -1j),
                bounds=(curve, flat_curve(2.0, self.GRID, 0.0)),
                phase_grid=self.GRID,
                pair_indices=(1, 1),
            )
        with pytest.raises(ValueError, match="positive"):
            DesignProblem(
                frequencies=(0.0, 2.0),
                nominal_responses=(-1j, -1j),
                bounds=(flat_curve(0.0, self.GRID, 0.0), flat_curve(2.0, self.GRID, 0.0)),
                phase_grid=self.GRID,
                pair_indices=(0, 1),
            )


    def test_bound_must_sit_at_its_frequency(self, servo_stack):
        # servo's curves in reverse order used to be accepted, and the search
        # returned kp=100857, ki=4944, kd=540.8
        problem = servo_stack.problem
        with pytest.raises(ValueError, match=r"^bound 0 is at omega=60\.0, not at 0\.5$"):
            dataclasses.replace(problem, bounds=problem.bounds[::-1])
        with pytest.raises(ValueError, match=r"^bound 1 is at omega=3\.0, not at 2\.0$"):
            two_freq_problem(flat_curve(1.0, self.GRID, 0.0), flat_curve(3.0, self.GRID, 0.0))


class TestDesignPiPd:
    def test_unknown_kind(self):
        problem = two_freq_problem(
            node_curve(1.0, (-90.0,), {-90.0: 20.0}),
            node_curve(2.0, (-90.0,), {}),
            grid=(-90.0,),
        )
        with pytest.raises(ValueError, match="kind"):
            design_controller(problem, "pdq", ADMIT_ALL)

    def test_zero_phase_ray_is_pure_proportional(self):
        problem = two_freq_problem(
            node_curve(1.0, (-90.0,), {-90.0: 20.0}),
            node_curve(2.0, (-90.0,), {}),
            grid=(-90.0,),
        )
        for kind in ("pi", "pd"):
            result = design_controller(problem, kind, ADMIT_ALL)
            assert result.feasible
            assert result.gains.kp == pytest.approx(10.0, abs=1e-9)
            assert result.gains.ki == 0.0
            assert result.gains.kd == 0.0
            assert result.window_phases_i == ()
            assert result.kd_grid.shape == (1, 1)

    def test_pi_lag_ray(self):
        # nominal at -45 deg; the only grid phase sits 45 deg behind it,
        # inducing the PI ray (0, 1, 1)/sqrt(2) whose loop lands at -90
        response = cmath.exp(-1j * math.radians(45.0))
        problem = two_freq_problem(
            node_curve(1.0, (-90.0,), {-90.0: db(2.0)}),
            node_curve(2.0, (-90.0,), {}),
            responses=(response, response),
            grid=(-90.0,),
        )
        result = design_controller(problem, "pi", ADMIT_ALL)
        assert result.feasible
        r = math.sqrt(0.5)
        assert result.gains.kp == pytest.approx(2.0 * r, abs=1e-9)
        assert result.gains.ki == pytest.approx(2.0 * r, abs=1e-9)
        assert result.gains.kd == 0.0
        loop = response * controller(result.gains, 1.0)
        assert db(abs(loop)) == pytest.approx(db(2.0), abs=1e-9)
        assert wrap_phase(math.degrees(cmath.phase(loop))) == pytest.approx(-90.0)

    def test_pd_minimises_kd_over_window(self):
        grid = (-90.0, -45.0)
        problem = two_freq_problem(
            node_curve(1.0, grid, {-90.0: 20.0, -45.0: 0.0}),
            node_curve(2.0, grid, {}),
            grid=grid,
        )
        result = design_controller(problem, "pd", ADMIT_ALL)
        assert result.feasible
        assert result.gains.kd == 0.0  # psi = 0 beats psi = 45
        assert result.gains.kp == pytest.approx(10.0, abs=1e-9)
        assert result.chosen_phases == (-90.0,)
        assert result.kd_grid.shape == (1, 2)
        assert result.kd_grid[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert result.kd_grid[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_half_window_filters(self):
        # nominal -90; a single grid phase ahead of it leaves PI empty,
        # one behind leaves PD empty
        lead = two_freq_problem(
            node_curve(1.0, (-44.0,), {}),
            node_curve(2.0, (-44.0,), {}),
            grid=(-44.0,),
        )
        with pytest.raises(EmptyWindow):
            design_controller(lead, "pi", ADMIT_ALL)
        lag = two_freq_problem(
            node_curve(1.0, (-130.0,), {}),
            node_curve(2.0, (-130.0,), {}),
            grid=(-130.0,),
        )
        with pytest.raises(EmptyWindow):
            design_controller(lag, "pd", ADMIT_ALL)

    def test_anchor_index(self):
        # anchor on the second frequency, the first of the pair: its nominal
        # phase centres the window
        grid = (-90.0,)
        problem = DesignProblem(
            frequencies=(1.0, 2.0),
            nominal_responses=(1.0 + 0j, -1j),
            bounds=(
                node_curve(1.0, grid, {}),
                node_curve(2.0, grid, {-90.0: 6.0}),
            ),
            phase_grid=grid,
            pair_indices=(1, 0),
        )
        result = design_controller(problem, "pd", ADMIT_ALL)
        assert result.feasible
        assert result.gains.kp == pytest.approx(undb(6.0), abs=1e-9)

    def test_screen_veto_counts(self, reduced_stack):
        veto = SimpleNamespace(first_admitted=lambda kd, ki, kp: None)
        problem = dataclasses.replace(reduced_stack.problem, pair_indices=(0, 1))
        result = design_controller(problem, "pd", veto)
        assert not result.feasible
        assert result.screen_rejections > 0


class TestDesignPiPdReduced:
    def test_pd_on_reduced_problem(self, reduced_stack):
        assert reduced_stack.problem.pair_indices[0] == 1
        result = design_controller(reduced_stack.problem, "pd", ADMIT_ALL)
        assert result.feasible
        assert result.gains.ki == 0.0
        assert result.gains.kd == pytest.approx(3.1376, abs=2e-3)
        assert result.gains.kp == pytest.approx(8.1636, abs=2e-3)

    def test_pd_objective_is_grid_minimum(self, reduced_stack):
        result = design_controller(reduced_stack.problem, "pd", ADMIT_ALL)
        finite = result.kd_grid[np.isfinite(result.kd_grid)]
        assert result.gains.kd == pytest.approx(finite.min(), abs=1e-12)


def regrouped(gains: PidGains, tau: float) -> PidGains:
    """The forward map that ``physical_gains(..., tau)`` undoes."""
    return PidGains(kp=gains.kp + gains.ki * tau, ki=gains.ki, kd=gains.kd + gains.kp * tau)


class TestGainMap:
    def test_inverse_at_known_values(self):
        physical = physical_gains(PidGains(kp=2.03, ki=3.0, kd=0.52), 0.01)
        assert physical.kp == pytest.approx(2.0, abs=1e-12)
        assert physical.ki == 3.0
        assert physical.kd == pytest.approx(0.5, abs=1e-12)

    def test_round_trip(self):
        for gains in (PidGains(2.0, 3.0, 0.5), PidGains(0.0, 1.0, 0.0), REFERENCE_GAINS):
            back = physical_gains(regrouped(gains, 0.01), 0.01)
            assert back.kp == pytest.approx(gains.kp, abs=1e-12)
            assert back.ki == pytest.approx(gains.ki, abs=1e-12)
            assert back.kd == pytest.approx(gains.kd, abs=1e-12)

    def test_negative_mapped_kp(self):
        with pytest.raises(NegativeMappedGain):
            physical_gains(PidGains(kp=0.1, ki=20.0, kd=1.0), 0.01)

    def test_negative_mapped_kd(self):
        with pytest.raises(NegativeMappedGain):
            physical_gains(PidGains(kp=1.0, ki=0.0, kd=0.005), 0.01)


class TestFilteredDerivativeTransform:
    def servo(self):
        return UncertainPlant(
            num=(parse_coefficient_expr("k*a", ["a", "k"]),),
            den=(
                parse_coefficient_expr("1", []),
                parse_coefficient_expr("a", ["a"]),
                parse_coefficient_expr("0", []),
            ),
            params=(
                ParameterSpec("a", 1.0, 10.0, 10),
                ParameterSpec("k", 1.0, 10.0, 10),
            ),
            nominal={"a": 1.0, "k": 1.0},
        )

    def test_response_divided_by_filter(self):
        plant = self.servo()
        modified = filtered_derivative_transform(plant, 0.001)
        for point in ({"a": 1.0, "k": 1.0}, {"a": 10.0, "k": 4.0}):
            for omega in (0.5, 10.0, 60.0):
                s = 1j * omega
                original = evaluate_plant_array(plant, point, [s])[0]
                expected = original / (1.0 + 0.001 * s)
                got = evaluate_plant_array(modified, point, [s])[0]
                assert got == pytest.approx(expected, rel=1e-12)

    def test_denominator_degree_raised(self):
        plant = self.servo()
        modified = filtered_derivative_transform(plant, 0.001)
        assert len(modified.den) == len(plant.den) + 1

    def test_small_tau_barely_moves_response(self):
        plant = self.servo()
        modified = filtered_derivative_transform(plant, 0.001)
        for omega in (0.5, 60.0):
            original = evaluate_plant_array(plant, plant.nominal, [1j * omega])[0]
            got = evaluate_plant_array(modified, plant.nominal, [1j * omega])[0]
            assert abs(db(abs(got)) - db(abs(original))) < 0.1

    def test_non_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            filtered_derivative_transform(self.servo(), 0.0)
        with pytest.raises(ValueError):
            filtered_derivative_transform(self.servo(), -0.5)


class TestInterpolationTolerance:
    def test_shared_constant(self):
        assert INTERPOLATION_TOLERANCE_DB == 0.05


NAN_CHECKS = {
    "UContour delta_hf_db": (lambda: UContour(1.2, math.nan), "non-negative"),
    "SweepScreen omegas": (
        lambda: SweepScreen(UContour(1.2, 0.0), (math.nan, 1.0), (-1j, -1j)),
        "positive",
    ),
    "pid_frequency_response omega": (
        lambda: pid_frequency_response(1.0, 1.0, 1.0, math.nan),
        "positive",
    ),
    "DesignProblem frequencies": (
        lambda: dataclasses.replace(
            two_freq_problem(flat_curve(1.0, (-90.0,), 0.0), flat_curve(2.0, (-90.0,), 0.0)),
            frequencies=(math.nan, 2.0),
        ),
        "increasing",
    ),
    "ParameterSpec minimum": (lambda: ParameterSpec("a", math.nan, 1.0), "min nan"),
    "filtered_derivative_transform tau": (
        lambda: filtered_derivative_transform(TestFilteredDerivativeTransform().servo(), math.nan),
        "tau must be positive",
    ),
}


@pytest.mark.parametrize("name", NAN_CHECKS)
def test_nan_fails_the_range_check(name):
    # NaN passes a check written x < 0 or x <= 0, and fails one written not x > 0
    build, message = NAN_CHECKS[name]
    with pytest.raises(ValueError, match=message):
        build()
