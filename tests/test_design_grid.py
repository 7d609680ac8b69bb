"""The array phase-pair grid, stability screen and exact-bound path.

``design_pid`` scores every phase pair at once; each cell must agree with the
scalar one-cell path (``kernel_direction`` -> ``beta_scaling`` ->
``candidate_from_kernel``).  ``SweepScreen.admits`` evaluates the dense loop
as one array and must make the same decision as the point-by-point
reference.  The ``exact_bound_recompute`` switch is run end to end.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from qft_forge.bounds import INFEASIBLE, delta_spread, disturbance_gain, horowitz_gain
from qft_forge.errors import RankDeficient
from qft_forge.lti import db, wrap_phase
from qft_forge.optimizer import (
    INTERPOLATION_TOLERANCE_DB,
    PidGains,
    SweepScreen,
    beta_scaling,
    candidate_from_kernel,
    design_pid,
    kernel_direction,
    pid_frequency_response,
)
from qft_forge.config import parse_config_dict
from qft_forge.pipeline import (
    _exact_bound_fn,
    build_problem,
    compute_bounds,
    compute_design,
    compute_templates,
    nominal_sweep,
)
from qft_forge.verify import verify_design

from conftest import SERVO_CONFIG_PATH

import scalar_reference as ref


def screen_walk_config():
    """A three-parameter plant whose dense screen vetoes every candidate."""
    raw = json.loads(SERVO_CONFIG_PATH.read_text())
    raw["plant"] = {
        "numerator": ["k*a*b"],
        "denominator": ["1", "a+b", "a*b", "0"],
        "parameters": [
            {"name": "a", "min": 1.0, "max": 10.0, "grid": 6},
            {"name": "k", "min": 1.0, "max": 10.0, "grid": 6},
            {"name": "b", "min": 100.0, "max": 400.0, "grid": 4},
        ],
        "nominal": {"a": 1.0, "k": 1.0, "b": 100.0},
    }
    raw["frequencies"] = [0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0]
    raw["phase_grid_count"] = 180
    raw["design"]["pair"] = [2, 8]
    return parse_config_dict(raw)


def one_cell_kd(problem, phi_i, phi_j):
    """kd of one phase pair through the scalar path; inf when rejected."""
    k, l = problem.pair_indices
    direction = kernel_direction(
        phi_i - problem.nominal_phase_deg(k),
        phi_j - problem.nominal_phase_deg(l),
        problem.frequencies[k],
        problem.frequencies[l],
    )
    v = direction.as_array()
    if np.any(v > 0.0) and np.any(v < 0.0):
        return math.inf
    beta, _ = beta_scaling(direction, problem)
    if beta == INFEASIBLE:
        return math.inf
    gains = candidate_from_kernel(direction, beta)
    return math.inf if gains is None else gains.kd


def assert_grid_matches_one_cell_path(problem, result):
    assert result.kd_grid.shape == (len(result.window_phases_i), len(result.window_phases_j))
    for i, phi_i in enumerate(result.window_phases_i):
        for j, phi_j in enumerate(result.window_phases_j):
            expected = one_cell_kd(problem, phi_i, phi_j)
            got = result.kd_grid[i, j]
            assert math.isinf(got) == math.isinf(expected), (phi_i, phi_j)
            if not math.isinf(got):
                assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (phi_i, phi_j)


class TestKernelGrid:
    def test_reduced_grid_matches_one_cell_path(self, reduced_stack, reduced_design):
        assert np.isfinite(reduced_design.kd_grid).any()
        assert np.isinf(reduced_design.kd_grid).any()
        assert_grid_matches_one_cell_path(reduced_stack.problem, reduced_design)

    def test_servo_grid_matches_one_cell_path(self, servo_stack, servo_design):
        assert int(np.isfinite(servo_design.kd_grid).sum()) == 10332
        assert_grid_matches_one_cell_path(servo_stack.problem, servo_design)

    def test_winner_is_the_one_cell_candidate(self, servo_stack, servo_design):
        problem = servo_stack.problem
        k, l = problem.pair_indices
        phi_i, phi_j = servo_design.chosen_phases
        direction = kernel_direction(
            phi_i - problem.nominal_phase_deg(k),
            phi_j - problem.nominal_phase_deg(l),
            problem.frequencies[k],
            problem.frequencies[l],
        )
        assert direction == servo_design.direction
        beta, active = beta_scaling(direction, problem)
        assert beta == servo_design.beta_db
        assert problem.frequencies[active] == servo_design.active_frequency

    def test_near_equal_frequencies_are_rank_deficient(self):
        with pytest.raises(RankDeficient):
            kernel_direction(20.0, 20.0, 1.0, 1.0 + 1e-15)


class TestArrayScreen:
    def visit_order(self, result, limit):
        grid = result.kd_grid
        finite = np.flatnonzero(np.isfinite(grid))
        order = finite[np.argsort(grid.ravel()[finite], kind="stable")]
        return [np.unravel_index(flat, grid.shape) for flat in order[:limit]]

    def test_same_decisions_as_point_by_point_reference(self, servo_config, servo_stack):
        screen = SweepScreen(servo_stack.contour, *nominal_sweep(servo_config))
        result = design_pid(servo_stack.problem)
        problem = servo_stack.problem
        k, l = problem.pair_indices
        candidates = []
        for i, j in self.visit_order(result, 60):
            direction = kernel_direction(
                result.window_phases_i[i] - problem.nominal_phase_deg(k),
                result.window_phases_j[j] - problem.nominal_phase_deg(l),
                problem.frequencies[k],
                problem.frequencies[l],
            )
            beta, _ = beta_scaling(direction, problem)
            candidates.append(candidate_from_kernel(direction, beta))
        rng = np.random.default_rng(3)
        candidates += [PidGains(*rng.uniform(0.0, 30.0, 3)) for _ in range(60)]
        candidates.append(PidGains(kp=0.0, ki=0.0, kd=0.0))
        decisions = [screen.admits(g) for g in candidates]
        assert decisions == [ref.screen_admits(screen, g) for g in candidates]
        assert True in decisions and False in decisions

    @pytest.mark.parametrize("workload", ["servo", "screen-walk"])
    def test_screen_agrees_with_verify_sweep(self, workload, servo_config):
        config = servo_config if workload == "servo" else screen_walk_config()
        curves, contour, _ = compute_bounds(config, compute_templates(config))
        sweep = nominal_sweep(config)
        problem = build_problem(config, curves, sweep)
        screen = SweepScreen(contour, *sweep)
        decisions = []
        for gains in self.candidates(problem, 50):
            report = verify_design(
                config.plant, gains, curves, contour, sweep[0], dense_responses=sweep[1]
            )
            decisions.append(screen.admits(gains))
            assert decisions[-1] == (not report.sweep_violations)
        assert len(decisions) == 50
        # servo admits its 15th candidate; screen-walk vetoes every one
        assert (True in decisions) == (workload == "servo")

    def candidates(self, problem, limit):
        """The first ``limit`` candidates of the unscreened grid in kd order."""
        result = design_pid(problem)
        k, l = problem.pair_indices
        for i, j in self.visit_order(result, limit):
            direction = kernel_direction(
                result.window_phases_i[i] - problem.nominal_phase_deg(k),
                result.window_phases_j[j] - problem.nominal_phase_deg(l),
                problem.frequencies[k],
                problem.frequencies[l],
            )
            beta, _ = beta_scaling(direction, problem)
            yield candidate_from_kernel(direction, beta)

    def test_servo_vetoes_are_counted(self, servo_design):
        # the 14 cheapest candidates cross the contour between design frequencies
        assert servo_design.screen_rejections == 14


class TestExactBoundRecompute:
    @pytest.mark.parametrize("stack", ["reduced", "servo"])
    def test_exact_lookup_at_grid_phases_equals_combined_curves(self, stack, request):
        config = request.getfixturevalue(f"{stack}_config")
        built = request.getfixturevalue(f"{stack}_stack")
        lookup = _exact_bound_fn(config, built.templates, built.contour)
        for k, curve in enumerate(built.curves):
            got = lookup(k, np.array(curve.phase_grid))
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in curve.min_gain_db]

    def test_reduced_run_meets_rebisected_bounds(self, reduced_config, reduced_stack):
        config = dataclasses.replace(
            reduced_config,
            design=dataclasses.replace(reduced_config.design, exact_bound_recompute=True),
        )
        result, _ = compute_design(
            config,
            reduced_stack.problem,
            reduced_stack.contour,
            reduced_stack.templates,
            reduced_stack.sweep,
        )
        assert result.feasible
        contour = reduced_stack.contour
        caps = config.disturbance.caps if config.disturbance is not None else {}
        checked = 0
        for k, omega in enumerate(config.frequencies):
            loop = reduced_stack.problem.nominal_responses[k] * pid_frequency_response(
                result.gains, omega
            )
            phase = wrap_phase(math.degrees(math.atan2(loop.imag, loop.real)))
            template = reduced_stack.templates[omega]
            bound = horowitz_gain(template, delta_spread(config.tracking, omega), phase)
            if omega in caps:
                bound = max(bound, disturbance_gain(template, caps[omega], phase))
            if contour.contains_phase(phase):
                bound = max(bound, contour.upper_at(phase))
            assert db(abs(loop)) - bound >= -INTERPOLATION_TOLERANCE_DB
            checked += math.isfinite(bound)
        assert checked >= 1
