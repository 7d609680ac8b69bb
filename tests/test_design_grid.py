"""The array phase-pair grid and the stability screen.

``design_controller`` scores every phase pair at once for a PID, and every
phase of the half-window for a PI or PD; each cell must agree with the
scalar reference (``scalar_reference.pid_direction`` or ``pi_pd_direction``,
lifted by ``scalar_reference.lift``).  ``SweepScreen.sweep`` evaluates the dense loop
as one array and must make the same decision as the point-by-point
reference; ``SweepScreen.first_admitted`` sweeps blocks of candidates and
must pick the candidate the one-at-a-time walk picks.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qft_forge.bounds as bounds
from qft_forge.bounds import BoundCurve
from qft_forge.errors import RankDeficient
from qft_forge.optimizer import DesignProblem, PidGains, SweepScreen, design_controller
from qft_forge.config import parse_config_dict
from qft_forge.pipeline import (
    build_problem,
    compute_bounds,
    compute_templates,
    nominal_sweep,
)
from qft_forge.verify import verify_design

from conftest import ADMIT_ALL, SERVO_CONFIG_PATH, workload_raw

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


def reference_grid(problem, result, kind="pid"):
    """The result's candidate grid recomputed cell by cell by the scalar
    reference: the objective gain (kp for PI, kd otherwise), inf where a
    cell is rejected."""
    objective = 2 if kind == "pi" else 0
    grid = np.full(result.kd_grid.shape, np.inf)
    for (i, j), _ in np.ndenumerate(grid):
        if kind == "pid":
            k, l = problem.pair_indices
            v = ref.pid_direction(
                result.window_phases_i[i] - problem.nominal_phase_deg(k),
                result.window_phases_j[j] - problem.nominal_phase_deg(l),
                problem.frequencies[k],
                problem.frequencies[l],
            )
        else:
            anchor = problem.pair_indices[0]
            v = ref.pi_pd_direction(
                kind,
                result.window_phases_j[j] - problem.nominal_phase_deg(anchor),
                problem.frequencies[anchor],
            )
        gains = ref.candidate_gains(problem, v)
        if gains is not None:
            grid[i, j] = gains[objective]
    return grid


def assert_grid_matches_reference(problem, result, kind="pid"):
    expected = reference_grid(problem, result, kind)
    got = result.kd_grid
    assert got.shape == expected.shape
    assert np.array_equal(np.isinf(got), np.isinf(expected))
    finite = np.isfinite(expected)
    assert got[finite] == pytest.approx(expected[finite], rel=1e-10, abs=0.0)


def admitted(screen, gains):
    """The screen's decision on one candidate, through ``first_admitted``."""
    columns = (np.array([g]) for g in (gains.kd, gains.ki, gains.kp))
    return screen.first_admitted(*columns) == 0


class TestKernelGrid:
    def test_reduced_grid_matches_reference(self, reduced_stack, reduced_design):
        assert np.isfinite(reduced_design.kd_grid).any()
        assert np.isinf(reduced_design.kd_grid).any()
        assert_grid_matches_reference(reduced_stack.problem, reduced_design)

    def test_servo_grid_matches_reference(self, servo_stack, servo_design):
        assert int(np.isfinite(servo_design.kd_grid).sum()) == 10332
        assert_grid_matches_reference(servo_stack.problem, servo_design)

    @pytest.mark.parametrize("kind", ["pi", "pd"])
    def test_servo_pi_pd_grid_matches_reference(self, servo_stack, kind):
        problem = servo_stack.problem
        result = design_controller(problem, kind, ADMIT_ALL)
        assert np.isfinite(result.kd_grid).any()
        assert_grid_matches_reference(problem, result, kind)

    def test_winner_is_the_reference_candidate(self, servo_stack, servo_design):
        problem = servo_stack.problem
        k, l = problem.pair_indices
        phi_i, phi_j = servo_design.chosen_phases
        v = ref.pid_direction(
            phi_i - problem.nominal_phase_deg(k),
            phi_j - problem.nominal_phase_deg(l),
            problem.frequencies[k],
            problem.frequencies[l],
        )
        beta, active = ref.lift(problem, v)
        assert beta == pytest.approx(servo_design.beta_db, rel=1e-12)
        assert problem.frequencies[active] == servo_design.active_frequency
        gains = servo_design.gains
        assert ref.candidate_gains(problem, v) == pytest.approx(
            [gains.kd, gains.ki, gains.kp], rel=1e-12
        )

    def test_near_equal_frequencies_are_rank_deficient(self):
        # equal nominal phases put equal controller phases on the diagonal,
        # where the two constraint rows differ only by 1e-15 in omega
        grid = (-135.0, -90.0, -45.0)
        frequencies = (1.0, 1.0 + 1e-15)
        problem = DesignProblem(
            frequencies=frequencies,
            nominal_responses=(-1j, -1j),
            bounds=tuple(BoundCurve(omega, grid, (0.0, 0.0, 0.0)) for omega in frequencies),
            phase_grid=grid,
            pair_indices=(0, 1),
        )
        with pytest.raises(RankDeficient):
            design_controller(problem, "pid", ADMIT_ALL)


class TestArrayScreen:
    def test_same_decisions_as_point_by_point_reference(self, servo_config, servo_stack):
        screen = SweepScreen(servo_stack.contour, *nominal_sweep(servo_config))
        candidates = list(self.candidates(servo_stack.problem, 60))
        rng = np.random.default_rng(3)
        candidates += [PidGains(*rng.uniform(0.0, 30.0, 3)) for _ in range(60)]
        candidates.append(PidGains(kp=0.0, ki=0.0, kd=0.0))
        decisions = [admitted(screen, g) for g in candidates]
        assert decisions == [ref.screen_admits(screen, g) for g in candidates]
        assert True in decisions and False in decisions

    @pytest.mark.parametrize("workload", ["servo", "screen-walk"])
    def test_screen_agrees_with_verify_sweep(self, workload, servo_config):
        config = servo_config if workload == "servo" else screen_walk_config()
        templates = compute_templates(config)
        curves, contour = compute_bounds(config, templates)
        sweep = nominal_sweep(config)
        problem = build_problem(config, curves, sweep)
        screen = SweepScreen(contour, *sweep)
        decisions = []
        for gains in self.candidates(problem, 50):
            report = verify_design(templates, gains, curves, contour, sweep, config.tracking)
            decisions.append(admitted(screen, gains))
            assert decisions[-1] == (not report.sweep_violations)
        assert len(decisions) == 50
        # servo admits its 15th candidate; screen-walk vetoes every one
        assert (True in decisions) == (workload == "servo")

    def candidates(self, problem, limit):
        """The first ``limit`` candidates of the unscreened grid in kd order."""
        kd, ki, kp = (c[:limit].tolist() for c in ranked_columns(problem))
        return [PidGains(kp=p, ki=i, kd=d) for d, i, p in zip(kd, ki, kp)]

    def test_servo_vetoes_are_counted(self, servo_design):
        # the 14 cheapest candidates cross the contour between design frequencies
        assert servo_design.screen_rejections == 14


def ranked_columns(problem):
    """The (kd, ki, kp) columns the screened search hands its screen."""
    seen = []
    screen = SimpleNamespace(first_admitted=lambda *cols: seen.append(cols))
    design_controller(problem, "pid", screen)
    return seen[0]


def count_sweeps(patch):
    """Patch ``SweepScreen.sweep`` to record the (rows, grid columns) of each call."""
    shapes = []
    sweep = SweepScreen.sweep

    def counted(self, kp, ki, kd):
        result = sweep(self, kp, ki, kd)
        shapes.append(result[2].shape if result[2].ndim == 2 else (1, result[2].size))
        return result

    patch.setattr(SweepScreen, "sweep", counted)
    return shapes


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.fixture(scope="module")
def servo_pool(servo_stack):
    """The servo screen and its first 60 ranked candidates (14 vetoed, then mixed)."""
    screen = SweepScreen(servo_stack.contour, *servo_stack.sweep)
    kd, ki, kp = (c[:60] for c in ranked_columns(servo_stack.problem))
    return screen, [(float(a), float(b), float(c)) for a, b, c in zip(kd, ki, kp)]


@pytest.fixture(scope="module")
def screen_walk_pool():
    """The screen-walk screen and every ranked candidate, all vetoed."""
    config = screen_walk_config()
    curves, contour = compute_bounds(config, compute_templates(config))
    sweep = nominal_sweep(config)
    screen = SweepScreen(contour, *sweep)
    kd, ki, kp = ranked_columns(build_problem(config, curves, sweep))
    return screen, [(float(a), float(b), float(c)) for a, b, c in zip(kd, ki, kp)]


gain = st.floats(0.0, 30.0) | st.just(0.0)


class TestBatchedScreen:
    """``first_admitted`` against the one-candidate-at-a-time walk."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        workload=st.sampled_from(["servo", "screen-walk"]),
        stride=st.sampled_from([1, 7, 60]),
        block=st.sampled_from([1, 7, 64, bounds._BLOCK_CELLS]),
    )
    def test_first_admitted_matches_reference_walk(
        self, servo_pool, screen_walk_pool, data, workload, stride, block
    ):
        full, pool = servo_pool if workload == "servo" else screen_walk_pool
        screen = SweepScreen(full.contour, full.omegas[::stride], full.nominal_responses[::stride])
        # a run of consecutive ranked candidates, where the marked columns grow, then a mix
        first = data.draw(st.integers(0, len(pool)))
        run = pool[first : first + data.draw(st.integers(0, 60))]
        candidates = run + data.draw(
            st.lists(
                st.sampled_from(pool) | st.tuples(gain, gain, gain) | st.just((0.0, 0.0, 0.0)),
                max_size=40,
            )
        )
        kd, ki, kp = np.array(candidates, dtype=float).reshape(-1, 3).T.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_BLOCK_CELLS", block)
            assert screen.first_admitted(kd, ki, kp) == ref.first_admitted(screen, kd, ki, kp)
        batched = screen.sweep(kp, ki, kd)
        for row, gains in enumerate(zip(kp.tolist(), ki.tolist(), kd.tolist())):
            one = screen.sweep(*gains)
            want = ref.screen_sweep(screen, PidGains(*gains))
            for got_part, one_part, want_part in zip(batched, one, want):
                assert bits(got_part[row]) == bits(one_part) == bits(want_part)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), workload=st.sampled_from(["servo", "screen-walk"]))
    def test_column_subset_sweeps_those_columns(self, servo_pool, screen_walk_pool, data, workload):
        # first_admitted vetoes a block on the marked columns alone; that is exact only if a
        # screen over any columns, in any order and with repeats, gives the full sweep's values
        full, pool = servo_pool if workload == "servo" else screen_walk_pool
        n = len(full.omegas)
        columns = data.draw(
            st.integers(0, n - 1).map(lambda c: np.array([c]))
            | st.lists(st.integers(0, n - 1), min_size=1, max_size=n).map(np.array)
            | st.slices(n).map(lambda cut: np.arange(n)[cut])
        )
        first = data.draw(st.integers(0, len(pool)))
        drawn = data.draw(st.lists(st.tuples(gain, gain, gain), max_size=20))
        rows = pool[first : first + 100] + drawn
        kd, ki, kp = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
        part = SweepScreen(full.contour, full.omegas[columns], full.nominal_responses[columns])
        for got, whole in zip(part.sweep(kp, ki, kd), full.sweep(kp, ki, kd)):
            assert bits(got) == bits(whole[:, columns])
        # one candidate as a one-row block, a shape for which NumPy can round a broadcast
        # complex product differently on one column, and as scalar gains
        for row in range(min(3, len(rows))):
            one = slice(row, row + 1)
            for gains in ((kp[one], ki[one], kd[one]), (kp[row], ki[row], kd[row])):
                for got, whole in zip(part.sweep(*gains), full.sweep(*gains)):
                    assert bits(got) == bits(whole[..., columns])

    def test_servo_sweeps_exactly_fifteen_candidates(self, servo_stack, servo_design):
        screen = SweepScreen(servo_stack.contour, *servo_stack.sweep)
        with pytest.MonkeyPatch.context() as patch:
            sweeps = count_sweeps(patch)
            result = design_controller(servo_stack.problem, "pid", screen)
        # the first candidate enters at one column and marks it; blocks of 2, 4 and 8 rows
        # are swept there, and the 3 rows of the last block it does not veto reach the whole
        # grid, where the third is the 15th candidate and wins
        assert sweeps == [(1, 508), (2, 1), (4, 1), (8, 1), (3, 508)]
        assert result.screen_rejections == 14
        assert result.gains == servo_design.gains

    def test_screen_walk_vetoes_every_candidate(self):
        config = screen_walk_config()
        curves, contour = compute_bounds(config, compute_templates(config))
        sweep = nominal_sweep(config)
        problem = build_problem(config, curves, sweep)
        screen = SweepScreen(contour, *sweep)
        assert len(screen.omegas) == 512  # whole-grid chunks of 8 rows at the default cap
        with pytest.MonkeyPatch.context() as patch:
            sweeps = count_sweeps(patch)
            result = design_controller(problem, "pid", screen)
        assert not result.feasible
        assert "stability contour" in result.reason
        assert result.screen_rejections == 2483
        # 313 sweeps when every block went to the whole grid
        assert len(sweeps) == 49
        assert max(rows * columns for rows, columns in sweeps) <= bounds._BLOCK_CELLS

    def test_winner_inside_a_block(self, servo_pool):
        screen, pool = servo_pool
        vetoed = [c for c in pool if not admitted(screen, PidGains(*c[::-1]))]
        passed = [c for c in pool if admitted(screen, PidGains(*c[::-1]))]
        # blocks [0], [1, 2], [3..6]: the winner is the second row of the third
        order = vetoed[:4] + passed[:3] + vetoed[4:6]
        kd, ki, kp = (np.array(c) for c in zip(*order))
        with pytest.MonkeyPatch.context() as patch:
            sweeps = count_sweeps(patch)
            assert screen.first_admitted(kd, ki, kp) == 4
        # the column the first row marked vetoes rows 1-3; rows 4-6 reach the whole grid
        assert sweeps == [(1, 508), (2, 1), (4, 1), (3, 508)]
        assert ref.first_admitted(screen, kd, ki, kp) == 4

    def test_admitted_after_a_long_veto_run(self):
        # screen-walk's plant with anchors (3, 10) admits a candidate after 91 vetoes; the
        # reference walk, not pinned gains, says which (a stability check may move it)
        raw = workload_raw("screen-walk")
        raw["design"]["pair"] = [3, 10]
        config = parse_config_dict(raw)
        curves, contour = compute_bounds(config, compute_templates(config))
        sweep = nominal_sweep(config)
        screen = SweepScreen(contour, *sweep)
        kd, ki, kp = ranked_columns(build_problem(config, curves, sweep))
        winner = screen.first_admitted(kd, ki, kp)
        assert winner == ref.first_admitted(screen, kd, ki, kp) == 91

    def test_no_candidates(self, servo_pool):
        screen, _ = servo_pool
        assert screen.first_admitted(np.empty(0), np.empty(0), np.empty(0)) is None
