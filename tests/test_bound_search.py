"""The array bound search against the scalar reference scan + bisection,
and the closed-form sensitivity-cap and stability bounds against their
definitions.

``horowitz_bound`` runs the upward scan and the bisection for a block of
phases at once, and on large templates rules rows out on a few witness
members first; every entry must still equal, bit for bit, what the
one-phase-at-a-time reference in ``scalar_reference`` returns, sentinels
included.  ``disturbance_bound`` solves each member's quadratic instead:
no member breaks the cap above an entry, one breaks it just below, and
for caps below 1 the reference scan lands on the same top, rounded up to
its 5/512 dB bisection lattice.  ``stability_bound`` solves the M-circle
quadratic of each member the same way, and on the one member r = 1 it is
the stability contour's top.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qft_forge.bounds as bounds
from qft_forge.bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    UContour,
    delta_spread,
    disturbance_bound,
    horowitz_bound,
    make_phase_grid,
    stability_bound,
)
from qft_forge.config import parse_config_dict
from qft_forge.errors import InvalidM
from qft_forge.lti import db
from qft_forge.pipeline import compute_templates
from qft_forge.plant import Template, convex_hull_nichols

import scalar_reference as ref
from conftest import SERVO_CONFIG_PATH
from scalar_reference import undb


def template_of(ratios, hull_indices=()) -> Template:
    """Template whose members have the given ratios to nominal; the members
    ``hull_indices`` names are its hull (none: the template is hull-free)."""
    ratios = [complex(r) for r in ratios]
    return Template(
        omega=1.0,
        points=np.empty((len(ratios), 0)),
        responses=np.array(ratios, dtype=complex),
        ratios=np.array(ratios, dtype=complex),
        phase_deg=np.array([math.degrees(math.atan2(r.imag, r.real)) for r in ratios]),
        gain_db=np.array([db(abs(r)) for r in ratios]),
        hull_indices=np.array(hull_indices, dtype=int),
    )


def hull_indices_of(ratios):
    """The members on the Nichols hull, found as ``generate_templates`` does."""
    template = template_of(ratios)
    coords = list(zip(template.phase_deg.tolist(), template.gain_db.tolist()))
    first = {}
    for i, c in enumerate(coords):
        first.setdefault(c, i)
    return tuple(first[v] for v in convex_hull_nichols(coords))


def polar(gain_db, phase_deg):
    return undb(gain_db) * complex(
        math.cos(math.radians(phase_deg)), math.sin(math.radians(phase_deg))
    )


members = st.builds(
    polar,
    # members far below nominal keep the bound infeasible up to the ceiling
    st.one_of(st.floats(-20.0, 20.0), st.floats(-140.0, -100.0)),
    st.floats(-120.0, 120.0),
)
templates = st.lists(members, min_size=0, max_size=6).map(lambda extra: [1.0 + 0j, *extra])
# clouds large enough for the witness path; the -140 dB branch of ``members``
# would make nearly every large template infeasible, so it is drawn rarely
large_templates = st.tuples(
    st.lists(
        st.builds(polar, st.floats(-20.0, 20.0), st.floats(-120.0, 120.0)),
        min_size=39,
        max_size=197,
    ),
    st.lists(members, max_size=2),
).map(lambda parts: [1.0 + 0j, *parts[0], *parts[1]])
phase_grids = st.lists(
    st.floats(-359.9, -0.1), min_size=1, max_size=40, unique=True
).map(sorted)


def assert_same(entries, expected):
    assert isinstance(entries, np.ndarray)
    assert entries.tobytes() == np.array(expected, dtype=float).tobytes()


PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# the reference scan's bisection step below 0.01 dB: 5 dB halved nine times
SCAN_LATTICE_DB = bounds.SCAN_STEP_DB / 512


def breaks_cap(z, gains, cap) -> bool:
    """Whether some member's |1/(1 + g z)| exceeds ``cap``, member i at
    ``gains[i]`` (or all at one gain); in floats, and where rounding hides
    it, in exact rational arithmetic on the same floats."""
    gains = np.broadcast_to(np.asarray(gains, dtype=float), z.shape)
    with np.errstate(divide="ignore"):
        if np.any(1.0 / np.abs(1.0 + gains * z) > cap):
            return True
    limit = 1 / Fraction(cap) ** 2
    return any(
        (1 + Fraction(g) * Fraction(w.real)) ** 2 + (Fraction(g) * Fraction(w.imag)) ** 2 < limit
        for g, w in zip(gains.tolist(), z.tolist())
    )


def assert_cap_bound(ratios, cap, grid, entries):
    """Each of the ``entries`` over ``grid`` is the top of the gains at which some member
    breaks ``cap``: no member's |S| exceeds cap * (1 + 1e-9) from a finite
    entry (NO_CONSTRAINT: from the -100 dB floor) up, and some member's
    exceeds the cap 1e-6 dB below a finite entry (INFEASIBLE: above the
    +100 dB ceiling).  Each member's |S| peaks at its vertex gain
    -Re z / |z|^2, so the gains checked upward are the start, every vertex
    above it and a sweep to the ceiling."""
    ratios = np.asarray(ratios, dtype=complex)
    for phase, entry in zip(grid, entries.tolist()):
        z = polar(0.0, phase) * ratios
        vertices = -z.real / np.abs(z) ** 2
        if entry == INFEASIBLE:
            assert breaks_cap(z, np.maximum(vertices, undb(bounds.SCAN_CEILING_DB)), cap)
            continue
        start = bounds.SCAN_FLOOR_DB if entry == NO_CONSTRAINT else entry
        sweep = [undb(v) for v in np.linspace(start, bounds.SCAN_CEILING_DB, 33).tolist()]
        gains = np.concatenate((sweep, vertices[vertices > undb(start)]))
        with np.errstate(divide="ignore"):
            worst = (1.0 / np.abs(1.0 + np.multiply.outer(gains, z))).max()
        assert worst <= cap * (1.0 + 1e-9), (phase, entry)
        if entry != NO_CONSTRAINT:
            assert bounds.SCAN_FLOOR_DB < entry <= bounds.SCAN_CEILING_DB
            assert breaks_cap(z, undb(entry - 1e-6), cap), (phase, entry)


def breaks_m(z, gains, m) -> bool:
    """Whether some member's |g z / (1 + g z)| exceeds ``m``, member i at
    ``gains[i]`` (or all at one gain); in floats, and where rounding hides
    it, in exact rational arithmetic on the same floats."""
    gains = np.broadcast_to(np.asarray(gains, dtype=float), z.shape)
    loops = gains * z
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(np.abs(loops) / np.abs(1.0 + loops) > m):
            return True
    m2 = Fraction(m) ** 2
    return any(
        (Fraction(g) * Fraction(w.real)) ** 2 + (Fraction(g) * Fraction(w.imag)) ** 2
        > m2 * ((1 + Fraction(g) * Fraction(w.real)) ** 2 + (Fraction(g) * Fraction(w.imag)) ** 2)
        for g, w in zip(gains.tolist(), z.tolist())
    )


def assert_stability_bound(ratios, m, grid, entries):
    """Each of the ``entries`` over ``grid`` is the top of the gains at which some member
    breaks |T| <= m: no member's |T| exceeds m * (1 + 1e-9) from a finite
    entry (NO_CONSTRAINT: from the -100 dB floor) up to the +100 dB ceiling,
    and some member's exceeds m 1e-6 dB below a finite entry (INFEASIBLE:
    above the ceiling).  A member with Re z < 0 peaks at its vertex gain
    -1 / Re z, so the gains checked upward are the start, every vertex above
    it and a sweep to the ceiling."""
    ratios = np.asarray(ratios, dtype=complex)
    ceiling = undb(bounds.SCAN_CEILING_DB)
    for phase, entry in zip(grid, entries.tolist()):
        z = polar(0.0, phase) * ratios
        with np.errstate(divide="ignore"):
            vertices = np.where(z.real < 0.0, -1.0 / z.real, 0.0)
        if entry == INFEASIBLE:
            assert breaks_m(z, np.maximum(vertices, ceiling), m)
            continue
        start = bounds.SCAN_FLOOR_DB if entry == NO_CONSTRAINT else entry
        sweep = [undb(v) for v in np.linspace(start, bounds.SCAN_CEILING_DB, 33).tolist()]
        peaks = vertices[(vertices > undb(start)) & (vertices <= ceiling)]
        loops = np.multiply.outer(np.concatenate((sweep, peaks)), z)
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.nan_to_num(np.abs(loops) / np.abs(1.0 + loops), nan=math.inf).max()
        assert worst <= m * (1.0 + 1e-9), (phase, entry)
        if entry != NO_CONSTRAINT:
            assert bounds.SCAN_FLOOR_DB < entry <= bounds.SCAN_CEILING_DB
            assert breaks_m(z, undb(entry - 1e-6), m), (phase, entry)


def assert_scan_brackets(ratios, cap, grid, entries):
    """For a cap below 1 each member breaks it on (0, top), so the reference
    scan returns the same sentinels and, at a finite entry, the top rounded
    up to its bisection lattice."""
    assert cap < 1.0
    scan = ref.disturbance_entries(np.asarray(ratios, dtype=complex), cap, grid)
    for got, expected in zip(entries.tolist(), scan):
        if math.isfinite(expected):
            assert 0.0 <= expected - got <= SCAN_LATTICE_DB, (got, expected)
        else:
            assert got == expected


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
            entries = horowitz_bound(template_of(ratios), delta_db, grid, use_hull=False)
        assert_same(entries, ref.horowitz_entries(np.array(ratios), delta_db, grid))

    @PROPERTY
    @given(
        ratios=templates,
        grid=phase_grids,
        cap=st.floats(0.2, 3.0),
        block=st.sampled_from([1, 7, 64, bounds._BLOCK_CELLS]),
    )
    # a loop grazing the cap: |S| - 1 is about 1e-17 at 1e-6 dB below the entry,
    # which floats round away and the exact check sees
    @example(ratios=[1.0 + 0j], grid=[-90.00032], cap=1.0, block=1)
    def test_disturbance_bound(self, ratios, grid, cap, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_BLOCK_CELLS", block)
            entries = disturbance_bound(template_of(ratios), cap, grid)
        assert_cap_bound(ratios, cap, grid, entries)
        if cap < 1.0:
            assert_scan_brackets(ratios, cap, grid, entries)

    @PROPERTY
    @given(
        ratios=templates,
        grid=phase_grids,
        m=st.floats(1.0, 3.0, exclude_min=True),
        block=st.sampled_from([1, 7, 64, bounds._BLOCK_CELLS]),
    )
    def test_stability_bound(self, ratios, grid, m, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_BLOCK_CELLS", block)
            entries = stability_bound(template_of(ratios), m, grid)
        assert_stability_bound(ratios, m, grid, entries)

    @PROPERTY
    @given(grid=phase_grids, m=st.floats(1.0, 5.0, exclude_min=True))
    def test_contour_top_is_the_nominal_members_stability_bound(self, grid, m):
        # the top where the contour reaches, past the ceiling (M near 1) INFEASIBLE
        top, _ = UContour(m, 0.0).edges(grid)
        top[np.isnan(top)] = NO_CONSTRAINT
        top[top > bounds.SCAN_CEILING_DB] = INFEASIBLE
        assert_same(stability_bound(template_of([1.0]), m, grid), top)

    @pytest.mark.parametrize("m", [1.0, 0.5, math.inf, math.nan])
    def test_stability_bound_needs_m_above_one(self, m):
        with pytest.raises(InvalidM, match="m_value must exceed 1"):
            stability_bound(template_of([1.0]), m, [-180.0])

    @pytest.mark.parametrize(
        "ratios, m, kind, grid",
        [
            # M = 1.2's circle reaches 56.4 deg either side of -180 deg
            ([1.0, 2.0, 0.5j], 1.2, NO_CONSTRAINT, [-330.0, -30.0]),
            ([1.0, 2.0, 0.5j], 1.2, "finite", [-200.0, -180.5, -160.0]),
            ([1.0, 1e-6], 1.2, INFEASIBLE, [-200.0, -180.5, -160.0]),
        ],
    )
    def test_stability_reaches_every_kind_of_entry(self, ratios, m, kind, grid):
        entries = stability_bound(template_of(ratios), m, grid)
        assert_stability_bound(ratios, m, grid, entries)
        if kind == "finite":
            assert all(math.isfinite(v) for v in entries.tolist())
        else:
            assert set(entries.tolist()) == {kind}

    @pytest.mark.parametrize(
        "ratios, spec, limit, kind, grid",
        [
            ([1.0, 2.0, 0.5j], "tracking", 30.0, NO_CONSTRAINT, [-270.0, -180.5, -90.0]),
            ([1.0, 2.0, 0.5j], "tracking", 3.0, "finite", [-270.0, -180.5, -90.0]),
            ([1.0, 1e-6], "tracking", 3.0, INFEASIBLE, [-270.0, -180.5, -90.0]),
            # cap 3 binds where a loop comes within 19.5 deg of -1: at -90 deg
            # none does, at -270 deg the member 0.5j does, at -180.5 deg 1.0
            ([1.0, 2.0, 0.5j], "disturbance", 3.0, NO_CONSTRAINT, [-90.0]),
            ([1.0, 2.0, 0.5j], "disturbance", 0.5, "finite", [-270.0, -180.5, -90.0]),
            ([1.0, 1e-6], "disturbance", 0.5, INFEASIBLE, [-270.0, -180.5, -90.0]),
        ],
    )
    def test_the_drawn_ranges_reach_every_kind_of_entry(self, ratios, spec, limit, kind, grid):
        if spec == "tracking":
            entries = horowitz_bound(template_of(ratios), limit, grid, use_hull=False)
            assert_same(entries, ref.horowitz_entries(np.array(ratios, dtype=complex), limit, grid))
        else:
            entries = disturbance_bound(template_of(ratios), limit, grid)
            assert_cap_bound(ratios, limit, grid, entries)
        if kind == "finite":
            assert all(math.isfinite(v) for v in entries.tolist())
        else:
            assert set(entries.tolist()) == {kind}

    def test_grid_spanning_several_blocks(self):
        # 100 members leave 81 phases per block; 200 phases need three blocks
        rng = np.random.default_rng(7)
        ratios = undb(rng.uniform(-10, 10, 100)) * np.exp(1j * rng.uniform(-1.0, 1.0, 100))
        ratios[0] = 1.0
        grid = [-360.0 + 1.8 * (k + 0.5) for k in range(200)]
        assert len(grid) > 2 * bounds._BLOCK_CELLS // len(ratios)
        tracking = horowitz_bound(template_of(ratios), 6.0, grid, use_hull=False)
        assert_same(tracking, ref.horowitz_entries(ratios, 6.0, grid))
        assert any(math.isfinite(v) for v in tracking.tolist())
        # 100 members leave 40 phases per block of the cap bound
        sensitivity = disturbance_bound(template_of(ratios), 0.8, grid)
        assert any(math.isfinite(v) for v in sensitivity.tolist())
        assert_cap_bound(ratios, 0.8, grid, sensitivity)
        assert_scan_brackets(ratios, 0.8, grid, sensitivity)

    def test_single_phase_helpers(self):
        ratios = [1.0, 3.0, 0.4 - 0.2j]
        template = template_of(ratios)
        for phase in (-250.0, -180.5, -30.0):
            assert_same(
                horowitz_bound(template, 4.0, [phase], use_hull=False),
                ref.horowitz_entries(np.array(ratios), 4.0, [phase]),
            )
            sensitivity = disturbance_bound(template, 0.7, [phase])
            assert_cap_bound(ratios, 0.7, [phase], sensitivity)
            assert_scan_brackets(ratios, 0.7, [phase], sensitivity)

    def test_single_member_template(self):
        grid = [-200.0, -100.0]
        assert horowitz_bound(template_of([1.0]), 1.0, grid).tolist() == [
            NO_CONSTRAINT,
            NO_CONSTRAINT,
        ]
        sensitivity = disturbance_bound(template_of([1.0]), 0.5, grid)
        assert_cap_bound([1.0], 0.5, grid, sensitivity)
        assert_scan_brackets([1.0], 0.5, grid, sensitivity)


BLOCKS = st.sampled_from([1, 7, 64, 8192])


def proper_subsets(size):
    return st.sets(st.integers(0, max(size - 1, 0)), max_size=size - 1).map(sorted)


def search(ratios, delta_db, grid, block, hull_indices):
    """The package's tracking entries, probing every member and screening
    on the hull members, with ``_BLOCK_CELLS`` patched; and the scalar
    reference's entries."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_BLOCK_CELLS", block)
        entries = horowitz_bound(template_of(ratios, hull_indices), delta_db, grid, use_hull=False)
    return entries, ref.horowitz_entries(np.array(ratios, dtype=complex), delta_db, grid)


def assert_cap_ignores_hull(ratios, cap, grid, block, hull_indices):
    """The cap bound holds on every member and is the same whichever
    members the template names its hull."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_BLOCK_CELLS", block)
        entries = disturbance_bound(template_of(ratios, hull_indices), cap, grid)
        assert_same(entries, disturbance_bound(template_of(ratios), cap, grid))
    assert_cap_bound(ratios, cap, grid, entries)


class TestWitnessPath:
    """Rows the tracking search rules out on the hull members must be exactly
    the rows the full template rules out; any subset of the members screens
    exactly.  The cap bound has no witnesses: it solves every member."""

    @PROPERTY
    @given(ratios=large_templates, grid=phase_grids, delta_db=st.floats(0.05, 30.0), block=BLOCKS)
    def test_horowitz_bound_large(self, ratios, grid, delta_db, block):
        hull = hull_indices_of(ratios)
        assert_same(*search(ratios, delta_db, grid, block, hull))

    @PROPERTY
    @given(ratios=large_templates, grid=phase_grids, cap=st.floats(0.2, 3.0), block=BLOCKS)
    def test_disturbance_bound_large(self, ratios, grid, cap, block):
        assert_cap_ignores_hull(ratios, cap, grid, block, hull_indices_of(ratios))

    @PROPERTY
    @given(
        ratios=templates,
        grid=phase_grids,
        delta_db=st.floats(0.05, 30.0),
        block=BLOCKS,
        data=st.data(),
    )
    def test_horowitz_bound_any_witnesses(self, ratios, grid, delta_db, block, data):
        witnesses = data.draw(proper_subsets(len(ratios)))
        assert_same(*search(ratios, delta_db, grid, block, witnesses))

    @PROPERTY
    @given(
        ratios=templates, grid=phase_grids, cap=st.floats(0.2, 3.0), block=BLOCKS, data=st.data()
    )
    def test_disturbance_bound_any_witnesses(self, ratios, grid, cap, block, data):
        witnesses = data.draw(proper_subsets(len(ratios)))
        assert_cap_ignores_hull(ratios, cap, grid, block, witnesses)

    def test_hull_templates_are_not_screened(self, monkeypatch):
        # probing the hull, the witnesses would be every probed member
        ratios = [1.0, 2.0, 0.5j, 1.1 + 0.2j]
        template = template_of(ratios, hull_indices_of(ratios))
        assert len(template.hull_indices) == 3
        seen = []
        search = bounds._least_feasible_gains

        def spy(members, phases_deg, delta_db, witnesses=None):
            seen.append(witnesses)
            return search(members, phases_deg, delta_db, witnesses)

        monkeypatch.setattr(bounds, "_least_feasible_gains", spy)
        horowitz_bound(template, 6.0, [-90.0])
        horowitz_bound(template, 6.0, [-90.0], use_hull=False)
        assert seen[0] is None and len(seen[1]) == 3

    @pytest.mark.parametrize("spec", ["tracking", "disturbance"])
    def test_a_limit_met_exactly_is_feasible(self, spec):
        if spec == "tracking":
            # the third member repeats the first, so the witness spread is the
            # full spread; a limit equal to it must pass, not be ruled out
            ratios = np.array([1.0, 0.3 - 0.4j, 1.0])
            limit = ref._closed_loop_spread_db(ratios, bounds.SCAN_FLOOR_DB, math.radians(-120.0))
            entries, expected = search(ratios, limit, [-120.0], 8192, (0, 1))
            assert_same(entries, expected)
            assert entries.tolist() == [NO_CONSTRAINT]
        else:
            # |1/(1 + g)| <= 0.5 holds from g = 1, where it is met exactly
            entries = disturbance_bound(template_of([1.0, 1.0]), 0.5, [0.0])
            assert entries.tolist() == [0.0]
            assert abs(1.0 / (1.0 + undb(0.0))) == 0.5


@pytest.fixture(scope="module")
def dense_templates():
    """The 625-member templates of the dense-template benchmark workload
    (seed 1): the servo plant on a 25 x 25 grid, no hull pruning."""
    raw = json.loads(SERVO_CONFIG_PATH.read_text())
    raw["plant"]["parameters"] = [
        {"name": "a", "min": 1.0, "max": 10.7269, "grid": 25},
        {"name": "k", "min": 1.0, "max": 9.8464, "grid": 25},
    ]
    raw["design"]["use_hull"] = False
    raw["phase_grid_count"] = 180
    raw["disturbance"] = [{"omega": 0.5, "cap": 0.937}, {"omega": 1.0, "cap": 0.6584}]
    config = parse_config_dict(raw)
    return config, compute_templates(config)


@pytest.mark.parametrize("omega", [0.5, 1.0])
def test_dense_template_matches_scalar_reference(dense_templates, omega):
    config, templates = dense_templates
    template = templates[omega]
    ratios = template.ratios
    assert len(template.hull_indices) < len(ratios) == 625
    grid = make_phase_grid(config.phase_grid_count)
    delta = delta_spread(config.tracking, omega)
    cap = config.disturbance[omega]
    tracking = horowitz_bound(template, delta, grid, use_hull=False)
    assert_same(tracking, ref.horowitz_entries(ratios, delta, grid))
    sensitivity = disturbance_bound(template, cap, grid)
    assert_scan_brackets(ratios, cap, grid, sensitivity)
    assert all(map(math.isfinite, tracking.tolist() + sensitivity.tolist()))


@pytest.mark.parametrize(
    "gain_db, top_db, expected",
    [(0.0, -99.5, -99.5), (0.0, -100.5, NO_CONSTRAINT), (-99.5, 0.0, 99.5), (-100.5, 0.0, INFEASIBLE)],
)
def test_cap_entries_past_the_scan_range_are_sentinels(gain_db, top_db, expected):
    # at phase 0, |1/(1 + g r)| <= cap holds from g r = 1/cap - 1
    cap = 1.0 / (1.0 + undb(top_db))
    (entry,) = disturbance_bound(template_of([undb(gain_db)]), cap, [0.0])
    assert entry == pytest.approx(expected, abs=1e-9)


class TestSearchArguments:
    @pytest.mark.parametrize("limit", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "bound, name", [(horowitz_bound, "delta_db"), (disturbance_bound, "cap")]
    )
    def test_limit_must_be_positive(self, bound, name, limit):
        # a NaN limit used to make every entry INFEASIBLE
        with pytest.raises(ValueError, match=re.escape(f"need {name} > 0, got {limit!r}")):
            bound(template_of([1.0, 0.5j]), limit, [-90.0])

    def test_single_member_tracking_is_checked_too(self):
        with pytest.raises(ValueError, match="need delta_db > 0"):
            horowitz_bound(template_of([1.0]), math.nan, [-90.0])


class TestCriticalPoint:
    """A member whose loop is exactly -1 fails that tracking probe on every
    path: on the hull alone, on every member, as a witness and past the
    witnesses.  The cap bound solves it like any other member, to a finite
    top."""

    # at phase 0 the rotor is exactly 1, so the member -1 sits exactly on the
    # critical point when the 0 dB scan step probes it
    @staticmethod
    def assert_matches_reference(template, grid, delta_db=12.0):
        """The tracking search, on every member and on the hull, equals the
        reference on the members it probes; the cap bound holds on every
        member and is finite."""
        for use_hull in (False, True):
            probed = template.ratios[template.hull_indices] if use_hull else template.ratios
            entries = horowitz_bound(template, delta_db, grid, use_hull=use_hull)
            assert_same(entries, ref.horowitz_entries(probed, delta_db, grid))
        sensitivity = disturbance_bound(template, 0.5, grid)
        assert all(map(math.isfinite, sensitivity.tolist()))
        assert_cap_bound(template.ratios, 0.5, grid, sensitivity)

    @staticmethod
    def small_template(ratios):
        ratios = np.array(ratios, dtype=complex)
        template = template_of(ratios, hull_indices_of(ratios))
        assert sorted(template.hull_indices) == list(range(len(ratios)))
        return template

    def test_hit_fails_like_the_reference(self):
        template = self.small_template([1.0, -1.0])
        self.assert_matches_reference(template, [-90.0, 0.0])
        entries = disturbance_bound(template, 0.5, [-90.0, 0.0])
        # |1 / (1 - g)| <= 0.5 needs g >= 3
        assert entries[1] == pytest.approx(db(3.0), abs=1e-12)

    def test_second_hit_fails_like_the_reference(self):
        # a second member on -1 at 0.001 dB, a tenth of the bisection tolerance
        # above the first
        second = -1.0 / undb(bounds.DEFAULT_TOL_DB / 10.0)
        assert undb(bounds.DEFAULT_TOL_DB / 10.0) * second == -1.0
        self.assert_matches_reference(self.small_template([1.0, -1.0, second]), [-90.0, 0.0])

    def test_hit_on_a_bisection_midpoint_fails_like_the_reference(self):
        # the scan brackets the spread bound by -5 and 0 dB (11.3 and 0.004 dB
        # against 1 dB); its first midpoint, -2.5 dB, puts the member r
        # exactly on -1
        r = -1.0 / undb(-2.5)
        assert undb(-2.5) * r == -1.0
        template = self.small_template([r, -0.8])
        self.assert_matches_reference(template, [0.0], delta_db=1.0)
        assert -2.5 < horowitz_bound(template, 1.0, [0.0])[0] < 0.0

    @staticmethod
    def large_template_with(extra, witness=False):
        """-1 inside a cloud whose hull are the witnesses: one of its
        vertices when ``witness``, else between two other negative reals, on
        the hull's edge but not one of its vertices."""
        rng = np.random.default_rng(11)
        cloud = undb(rng.uniform(-10, 10, 60)) * np.exp(1j * rng.uniform(-1.5, 1.5, 60))
        ratios = np.concatenate(([1.0, -0.5, -1.0], [] if witness else [-2.0], extra, cloud))
        hull = hull_indices_of(ratios)
        assert (2 in hull) == witness and len(hull) < len(ratios)
        return template_of(ratios, hull)

    def test_large_template_hit_fails_like_the_reference(self):
        for witness in (False, True):
            self.assert_matches_reference(self.large_template_with([], witness), [-90.0, 0.0])

    def test_large_template_second_hit_fails_like_the_reference(self):
        second = -1.0 / undb(bounds.DEFAULT_TOL_DB / 10.0)
        for witness in (False, True):
            template = self.large_template_with([second], witness)
            self.assert_matches_reference(template, [-90.0, 0.0])


def hull_loops(template, phase_deg, gain_db):
    """The loops of the template's hull members at one nominal phase and gain."""
    rotor = complex(math.cos(math.radians(phase_deg)), math.sin(math.radians(phase_deg)))
    return undb(gain_db) * rotor * template.ratios[template.hull_indices]


def hull_spread_db(template, phase_deg, gain_db):
    loop = hull_loops(template, phase_deg, gain_db)
    mags_db = 20.0 * np.log10(np.abs(loop / (1.0 + loop)))
    return mags_db.max() - mags_db.min()


class TestKnownSearchDefects:
    """Defects of the upward scan + bisection on servo's templates, probed on
    the hull members the default search probes.  A loop at or above a bound
    should meet the spec there, and the bound should be the least gain that
    does; each test asserts one of these facts where the search breaks it.
    The cap test holds: the scan ignored caps above 1, as |S| is about 1 at
    its -100 dB floor, but the closed-form cap bound starts from no floor."""

    GRID = make_phase_grid(360)

    def test_cap_above_one_constrains(self, servo_stack):
        template = servo_stack.templates[1.0]
        loop = hull_loops(template, -180.5, -20.0)
        assert np.max(np.abs(1.0 / (1.0 + loop))) > 100.0  # 114.6 against the cap 2
        entries = disturbance_bound(template, 2.0, self.GRID)
        assert entries[self.GRID.index(-180.5)] > -20.0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="forbidden bands above the bound: at omega=2, -194.5 deg the bound is "
        "-5.469 dB, but the spread exceeds delta(2) at -4.5, 0 and 8 dB",
    )
    def test_gains_above_the_tracking_bound_meet_the_spread(self, servo_config, servo_stack):
        template = servo_stack.templates[2.0]
        delta = delta_spread(servo_config.tracking, 2.0)
        bound = horowitz_bound(template, delta, self.GRID)[self.GRID.index(-194.5)]
        above = [gain for gain in (-4.5, 0.0, 8.0) if gain >= bound]
        assert all(hull_spread_db(template, -194.5, gain) <= delta for gain in above)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the 5 dB scan steps over the feasible window of about -5.57 to -5.45 dB at "
        "omega=1, -182.5 deg and reports 18.584 dB",
    )
    def test_bound_is_not_above_a_feasible_gain(self, servo_config, servo_stack):
        template = servo_stack.templates[1.0]
        delta = delta_spread(servo_config.tracking, 1.0)
        assert hull_spread_db(template, -182.5, -5.5) <= delta  # 0.969 against 1.028 dB
        bound = horowitz_bound(template, delta, self.GRID)[self.GRID.index(-182.5)]
        assert bound <= -5.5
