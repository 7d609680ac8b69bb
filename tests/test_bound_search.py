"""The array bound search against the scalar reference scan + bisection.

``horowitz_bound`` and ``disturbance_bound`` run the upward scan and the
bisection for a block of phases at once; every entry must still equal, bit
for bit, what the one-phase-at-a-time reference in ``scalar_reference``
returns, sentinels included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qft_forge.bounds as bounds
from qft_forge.bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    disturbance_bound,
    horowitz_bound,
)
from qft_forge.errors import CriticalPoint
from qft_forge.lti import db, undb
from qft_forge.plant import Template, TemplatePoint

import scalar_reference as ref


def template_of(ratios) -> Template:
    """Hull-free template whose members have the given ratios to nominal."""
    points = tuple(
        TemplatePoint(
            params=(),
            ratio=complex(r),
            phase_deg=math.degrees(math.atan2(complex(r).imag, complex(r).real)),
            gain_db=db(abs(r)),
        )
        for r in ratios
    )
    return Template(omega=1.0, param_names=(), points=points, hull=(), hull_indices=())


members = st.builds(
    lambda gain_db, phase_deg: undb(gain_db) * complex(
        math.cos(math.radians(phase_deg)), math.sin(math.radians(phase_deg))
    ),
    # members far below nominal keep the bound infeasible up to the ceiling
    st.one_of(st.floats(-20.0, 20.0), st.floats(-140.0, -100.0)),
    st.floats(-120.0, 120.0),
)
templates = st.lists(members, min_size=0, max_size=6).map(lambda extra: [1.0 + 0j, *extra])
phase_grids = st.lists(
    st.floats(-359.9, -0.1), min_size=1, max_size=40, unique=True
).map(sorted)


def assert_same(curve, expected):
    got = np.array(curve.min_gain_db)
    assert got.tobytes() == np.array(expected, dtype=float).tobytes()


PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestMatchesScalarReference:
    @PROPERTY
    @given(
        ratios=templates,
        grid=phase_grids,
        delta_db=st.floats(0.05, 30.0),
        block=st.sampled_from([1, 7, 64, bounds._BLOCK_CELLS]),
    )
    def test_horowitz_bound(self, ratios, grid, delta_db, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_BLOCK_CELLS", block)
            curve = horowitz_bound(template_of(ratios), delta_db, grid, use_hull=False)
        assert_same(curve, ref.horowitz_entries(np.array(ratios), delta_db, grid))

    @PROPERTY
    @given(
        ratios=templates,
        grid=phase_grids,
        cap=st.floats(0.2, 3.0),
        block=st.sampled_from([1, 7, 64, bounds._BLOCK_CELLS]),
    )
    def test_disturbance_bound(self, ratios, grid, cap, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_BLOCK_CELLS", block)
            curve = disturbance_bound(template_of(ratios), cap, grid, use_hull=False)
        assert_same(curve, ref.disturbance_entries(np.array(ratios), cap, grid))

    @pytest.mark.parametrize(
        "ratios, spec, limit, kind",
        [
            ([1.0, 2.0, 0.5j], "tracking", 30.0, NO_CONSTRAINT),
            ([1.0, 2.0, 0.5j], "tracking", 3.0, "finite"),
            ([1.0, 1e-6], "tracking", 3.0, INFEASIBLE),
            ([1.0, 2.0, 0.5j], "disturbance", 3.0, NO_CONSTRAINT),
            ([1.0, 2.0, 0.5j], "disturbance", 0.5, "finite"),
            ([1.0, 1e-6], "disturbance", 0.5, INFEASIBLE),
        ],
    )
    def test_the_drawn_ranges_reach_every_kind_of_entry(self, ratios, spec, limit, kind):
        grid = [-270.0, -180.5, -90.0]
        search = horowitz_bound if spec == "tracking" else disturbance_bound
        entries = ref.horowitz_entries if spec == "tracking" else ref.disturbance_entries
        curve = search(template_of(ratios), limit, grid, use_hull=False)
        assert_same(curve, entries(np.array(ratios, dtype=complex), limit, grid))
        if kind == "finite":
            assert all(math.isfinite(v) for v in curve.min_gain_db)
        else:
            assert set(curve.min_gain_db) == {kind}

    def test_grid_spanning_several_blocks(self):
        # 100 members leave 81 phases per block; 200 phases need three blocks
        rng = np.random.default_rng(7)
        ratios = undb(rng.uniform(-10, 10, 100)) * np.exp(1j * rng.uniform(-1.0, 1.0, 100))
        ratios[0] = 1.0
        grid = [-360.0 + 1.8 * (k + 0.5) for k in range(200)]
        assert len(grid) > bounds._BLOCK_CELLS // len(ratios)
        tracking = horowitz_bound(template_of(ratios), 6.0, grid, use_hull=False)
        assert_same(tracking, ref.horowitz_entries(ratios, 6.0, grid))
        assert any(math.isfinite(v) for v in tracking.min_gain_db)
        sensitivity = disturbance_bound(template_of(ratios), 0.8, grid, use_hull=False)
        assert_same(sensitivity, ref.disturbance_entries(ratios, 0.8, grid))

    def test_single_phase_helpers(self):
        ratios = [1.0, 3.0, 0.4 - 0.2j]
        template = template_of(ratios)
        for phase in (-250.0, -180.5, -30.0):
            assert_same(
                horowitz_bound(template, 4.0, [phase], use_hull=False),
                ref.horowitz_entries(np.array(ratios), 4.0, [phase]),
            )
            assert_same(
                disturbance_bound(template, 0.7, [phase], use_hull=False),
                ref.disturbance_entries(np.array(ratios), 0.7, [phase]),
            )

    def test_single_member_template(self):
        grid = [-200.0, -100.0]
        assert horowitz_bound(template_of([1.0]), 1.0, grid).min_gain_db == (
            NO_CONSTRAINT,
            NO_CONSTRAINT,
        )
        assert_same(
            disturbance_bound(template_of([1.0]), 0.5, grid),
            ref.disturbance_entries(np.array([1.0 + 0j]), 0.5, grid),
        )


class TestCriticalPoint:
    # at phase 0 the rotor is exactly 1, so the member -1 sits exactly on the
    # critical point when the 0 dB scan step probes it
    def test_nudged_once_like_the_reference(self):
        ratios = [1.0, -1.0]
        curve = disturbance_bound(template_of(ratios), 0.5, [-90.0, 0.0], use_hull=False)
        expected = ref.disturbance_entries(np.array(ratios, dtype=complex), 0.5, [-90.0, 0.0])
        assert_same(curve, expected)
        # |1 / (1 - g)| <= 0.5 needs g >= 3
        assert curve.min_gain_db[1] == pytest.approx(db(3.0), abs=0.011)

    def test_second_hit_raises(self):
        nudge = bounds.DEFAULT_TOL_DB / 10.0
        second = -1.0 / undb(nudge)
        assert undb(nudge) * second == -1.0
        with pytest.raises(CriticalPoint):
            ref.disturbance_entries(np.array([1.0, -1.0, second], dtype=complex), 0.5, [0.0])
        with pytest.raises(CriticalPoint):
            disturbance_bound(template_of([1.0, -1.0, second]), 0.5, [-90.0, 0.0], use_hull=False)
