"""The blocked gain-box oracle against the full-mesh reference search.

``brute_force_design`` tests a kd slice in blocks of ki rows, most
restrictive frequency first and later frequencies only on surviving cells,
and looks a cell up in the bound only when its squared loop gain clears the
bound's per-degree floor.  It must return exactly what the reference in
``scalar_reference`` returns: the same gains and ``evaluations``, or the same
``NoFeasiblePoint`` message.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qft_forge.bounds as bounds
import qft_forge.verify as verify
from qft_forge.bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    BoundCurve,
    gain_floor,
    interpolate_bound_array,
)
from qft_forge.errors import NoFeasiblePoint
from qft_forge.lti import db, to_nichols_array
from qft_forge.optimizer import PidGains
from qft_forge.verify import GainAxis, OracleBox, brute_force_design

import scalar_reference as ref
from scalar_reference import undb

# small blocks, the default budget and a budget twice as large
BLOCKS = [1, 7, 64, bounds._BLOCK_CELLS, 2 * bounds._BLOCK_CELLS]


def problem_of(frequencies, responses, curves):
    # the oracle reads only these three fields; a DesignProblem would also
    # demand at least two frequencies and a design pair
    return SimpleNamespace(
        frequencies=tuple(frequencies),
        nominal_responses=tuple(responses),
        bounds=tuple(curves),
    )


def flat_curve(omega, gain_db):
    """The same least gain at every phase."""
    return BoundCurve(omega=omega, phase_grid=(-360.0, 0.0), min_gain_db=(gain_db, gain_db))


def outcome(search, problem, box, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_BLOCK_CELLS", block)
        try:
            return search(problem, box)
        except NoFeasiblePoint as exc:
            return str(exc)


def assert_matches_reference(problem, box, block=bounds._BLOCK_CELLS):
    got = outcome(brute_force_design, problem, box, block)
    assert got == outcome(ref.brute_force_design, problem, box, block)
    return got


def entry(value):
    # about one entry in twelve is a sentinel at each end of the range
    if value > 32.0:
        return INFEASIBLE
    if value < -12.0:
        return NO_CONSTRAINT
    return value


def curves_at(omega):
    return st.builds(
        lambda grid, values: BoundCurve(
            omega=omega, phase_grid=grid, min_gain_db=tuple(values[: len(grid)])
        ),
        # beyond (-360, 0) too, where no loop phase lies
        st.lists(st.floats(-400.0, 50.0), min_size=2, max_size=12, unique=True).map(sorted),
        st.lists(st.floats(-15.0, 35.0).map(entry), min_size=12, max_size=12),
    )


@st.composite
def problems(draw):
    frequencies = draw(
        st.lists(st.floats(0.1, 20.0), min_size=1, max_size=4, unique=True).map(sorted)
    )
    responses = [
        undb(draw(st.floats(-20.0, 20.0))) * complex(math.cos(phi), math.sin(phi))
        for phi in (math.radians(draw(st.floats(-359.0, 0.0))) for _ in frequencies)
    ]
    curves = [draw(curves_at(omega)) for omega in frequencies]
    return problem_of(frequencies, responses, curves)


def axes(max_count):
    return st.builds(
        lambda lo, step, count: GainAxis(lo, lo + step * (count - 1), step),
        st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        st.floats(0.05, 3.0),
        st.integers(1, max_count),
    )


boxes = st.builds(OracleBox, kp=axes(12), ki=axes(12), kd=axes(5))


class TestMatchesFullMeshReference:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problem=problems(), box=boxes, block=st.sampled_from(BLOCKS))
    def test_random_problems(self, problem, box, block):
        assert_matches_reference(problem, box, block)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_zero_lower_corner(self, block):
        # nothing is constrained, so only the zero controller is excluded
        free = [flat_curve(omega, NO_CONSTRAINT) for omega in (1.0, 2.0)]
        problem = problem_of((1.0, 2.0), (1.0 + 0j, -1j), free)
        box = OracleBox(
            kp=GainAxis(0.0, 2.0, 1.0), ki=GainAxis(0.0, 2.0, 1.0), kd=GainAxis(0.0, 1.0, 1.0)
        )
        result = assert_matches_reference(problem, box, block)
        assert result.best_gains == PidGains(kp=1.0, ki=0.0, kd=0.0)
        assert result.evaluations == 9

    @pytest.mark.parametrize("block", BLOCKS)
    def test_one_frequency(self, block):
        problem = problem_of((2.0,), (0.5 - 0.5j,), (flat_curve(2.0, 6.0),))
        box = OracleBox(
            kp=GainAxis(0.0, 4.0, 0.5), ki=GainAxis(0.0, 4.0, 0.5), kd=GainAxis(0.0, 3.0, 0.5)
        )
        result = assert_matches_reference(problem, box, block)
        assert result.best_gains.kd == 0.0

    def test_kp_axis_longer_than_a_block(self):
        # one ki row per block, each longer than the block size
        count = bounds._BLOCK_CELLS + 100
        problem = problem_of(
            (1.0, 3.0), (1.0 + 0j, 0.1j), (flat_curve(1.0, db(499.5)), flat_curve(3.0, 0.0))
        )
        box = OracleBox(
            kp=GainAxis(0.0, count - 1.0, 1.0),
            ki=GainAxis(0.0, 2.0, 1.0),
            kd=GainAxis(0.0, 1.0, 1.0),
        )
        assert len(box.kp.values()) > bounds._BLOCK_CELLS
        result = assert_matches_reference(problem, box)
        assert result.best_gains == PidGains(kp=500.0, ki=0.0, kd=0.0)
        assert result.evaluations == count * 3

    @pytest.mark.parametrize("block", BLOCKS)
    def test_several_survivors_in_the_winning_block(self, block):
        # |kp - j ki| >= 12 on the 10 x 10 kd = 0 mesh passes (ki, kp) =
        # (8, 9), (9, 8) and (9, 9), and all three clear 8 at omega = 4;
        # with the default block size the mesh is one block, and the least is (8, 9)
        curves = (flat_curve(1.0, db(12.0)), flat_curve(4.0, db(8.0)))
        problem = problem_of((1.0, 4.0), (1.0 + 0j, 1.0 + 0j), curves)
        box = OracleBox(
            kp=GainAxis(0.0, 9.0, 1.0), ki=GainAxis(0.0, 9.0, 1.0), kd=GainAxis(0.0, 2.0, 1.0)
        )
        result = assert_matches_reference(problem, box, block)
        assert result.best_gains == PidGains(kp=9.0, ki=8.0, kd=0.0)
        assert result.evaluations == 100

    @pytest.mark.parametrize("block", BLOCKS)
    def test_late_frequency_empties_blocks(self, block):
        # omega = 10 passes nothing below kd = 3, so it moves to the front
        curves = (
            flat_curve(1.0, NO_CONSTRAINT),
            flat_curve(3.0, NO_CONSTRAINT),
            flat_curve(10.0, db(29.5)),
        )
        problem = problem_of((1.0, 3.0, 10.0), (1.0 + 0j, 1.0 + 0j, 1.0 + 0j), curves)
        box = OracleBox(
            kp=GainAxis(0.0, 5.0, 1.0), ki=GainAxis(0.0, 9.0, 1.0), kd=GainAxis(0.0, 5.0, 0.5)
        )
        result = assert_matches_reference(problem, box, block)
        assert result.best_gains == PidGains(kp=0.0, ki=0.0, kd=3.0)
        assert result.evaluations == 7 * 60

    @pytest.mark.parametrize("block", BLOCKS)
    def test_no_feasible_point(self, block):
        curves = (flat_curve(1.0, 0.0), flat_curve(2.0, INFEASIBLE))
        problem = problem_of((1.0, 2.0), (1.0 + 0j, 1j), curves)
        box = OracleBox(
            kp=GainAxis(0.0, 3.0, 1.0), ki=GainAxis(0.0, 3.0, 1.0), kd=GainAxis(0.0, 3.0, 1.0)
        )
        message = assert_matches_reference(problem, box, block)
        assert message == "no feasible gain triple in the 4x4x4 box"

    @pytest.mark.parametrize("block", [7, bounds._BLOCK_CELLS])
    def test_squared_gain_overflows(self, block):
        # |L| is about 1e160 to 1e162, so |L|^2 overflows to inf, which the
        # floor must pass on to the exact lookup, without a RuntimeWarning
        curves = (flat_curve(1.0, db(5e160)), flat_curve(2.0, db(1e161)))
        problem = problem_of((1.0, 2.0), (1e160 + 0j, -1e160j), curves)
        box = OracleBox(
            kp=GainAxis(0.0, 9.0, 1.0), ki=GainAxis(0.0, 9.0, 1.0), kd=GainAxis(0.0, 5.0, 0.5)
        )
        result = assert_matches_reference(problem, box, block)
        assert result.best_gains == PidGains(kp=9.0, ki=9.0, kd=0.0)


@st.composite
def curves_with_loops(draw):
    """A curve drawn as the table tests draw theirs, and loops at whole-degree
    angles and at the angles of its nodes, each also one ulp either side; on
    both axes with signed zero parts; and 0.  Magnitudes run from 1e-170 to
    1e170, half of them within 120 dB of 0 dB, where the bound values lie."""
    grid = draw(
        st.lists(
            st.one_of(
                st.floats(-400.0, 50.0),
                st.integers(-400, 50).map(float),  # nodes on whole degrees
                st.sampled_from([0.0, -360.0, -180.0]),
            ),
            min_size=1,
            max_size=8,
            unique=True,
        ).map(sorted)
    )
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from([NO_CONSTRAINT, INFEASIBLE, 0.0, -0.0]),
                st.floats(-200.0, 200.0),
            ),
            min_size=len(grid),
            max_size=len(grid),
        )
    )
    # the arctan2 angle of a loop at each node's Nichols phase
    node_angles = [p + 360.0 if p < -180.0 else p for p in grid if -360.0 < p <= 0.0]
    degrees = st.integers(-180, 180).map(float)
    if node_angles:
        degrees = st.one_of(degrees, st.sampled_from(node_angles))
    magnitude = st.one_of(st.floats(-6.0, 6.0), st.floats(-170.0, 170.0)).map(
        lambda exponent: 10.0**exponent
    )

    def at_angle(r, angle_deg, nudge):
        angle = math.radians(angle_deg)
        if nudge:
            angle = math.nextafter(angle, nudge * math.inf)
        return complex(r * math.cos(angle), r * math.sin(angle))

    angled = st.builds(at_angle, magnitude, degrees, st.sampled_from([-1, 0, 1]))
    zero = st.sampled_from([0.0, -0.0])
    on_axis = st.builds(
        lambda r, sign, zero, real: complex(sign * r, zero) if real else complex(zero, sign * r),
        magnitude,
        st.sampled_from([1.0, -1.0]),
        zero,
        st.booleans(),
    )
    loops = draw(
        st.lists(st.one_of(angled, on_axis, st.builds(complex, zero, zero)), min_size=1, max_size=24)
    )
    return BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=values), loops


class TestGainFloor:
    @settings(max_examples=200, deadline=None)
    @given(case=curves_with_loops())
    # a subnormal floor is too coarse: this loop's squared parts round down
    # below it, though the loop clears the bound
    @example(
        case=(
            flat_curve(1.0, -3189.9986),
            [complex(2.2364410622722436e-160, 2.2364410622722436e-160)],
        )
    )
    # an angle one ulp below -10 degrees lies before the first node, where
    # nothing is constrained, but int(angle + 180) rounds it into degree 170
    @example(
        case=(
            BoundCurve(omega=1.0, phase_grid=(-10.0, 40.0), min_gain_db=(10.0, 10.0)),
            [cmath.rect(1.0, math.nextafter(math.radians(-10.0), -math.inf))],
        )
    )
    def test_rejects_only_failing_loops(self, case):
        curve, loops = case
        loops = np.array(loops)
        kept = verify._may_pass(gain_floor(curve), loops.real.copy(), loops.imag.copy())
        rejected = np.delete(loops, kept)
        phase, gain_db = to_nichols_array(rejected)
        assert not np.any(gain_db >= interpolate_bound_array(curve, phase))

    def test_floors_of_flat_bounds(self):
        # 20 dB over every phase: 100 less its margins at every degree
        floor = gain_floor(BoundCurve(1.0, (-400.0, 50.0), (20.0, 20.0)))
        assert floor == pytest.approx(np.full(361, 100.0), rel=1e-9)
        assert np.all(floor < 100.0)
        # 5 dB on [-100, -90): only the degrees whose angles, one degree
        # wider on each side, stay inside it
        floor = gain_floor(BoundCurve(1.0, (-100.0, -90.0), (5.0, 5.0)))
        assert np.flatnonzero(floor).tolist() == list(range(81, 88))
