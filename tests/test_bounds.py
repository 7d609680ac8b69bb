"""Bound computation: tracking spreads, gain scans, stability contour."""

from __future__ import annotations

import cmath
import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qft_forge.bounds import (
    DEFAULT_TOL_DB,
    INFEASIBLE,
    INTERPOLATION_TOLERANCE_DB,
    NO_CONSTRAINT,
    BoundCurve,
    TrackingSpec,
    UContour,
    delta_spread,
    disturbance_bound,
    horowitz_bound,
    interpolate_bound_array,
    make_phase_grid,
    stability_bound,
)
from qft_forge import bounds
from qft_forge.config import parse_config_dict
from qft_forge.errors import BoundBelowUContour, DegenerateSpread, InvalidM
from qft_forge.expr import parse_coefficient_expr
from qft_forge.lti import RationalTransferFunction, db, eval_tf
from qft_forge import pipeline
from qft_forge.pipeline import compute_bounds, compute_templates
from qft_forge.plant import ParameterSpec, UncertainPlant, generate_templates

import scalar_reference as ref
from conftest import within_one_turn, workload_raw
from scalar_reference import m_circle_gains, undb

LOWER_MODEL = RationalTransferFunction([0.6585, 19.755], [1.0, 4.0, 19.753961])
UPPER_MODEL = RationalTransferFunction([8400.0], [1.0, 87.0, 1272.0, 5860.0, 8400.0])
TRACKING = TrackingSpec(lower=LOWER_MODEL, upper=UPPER_MODEL)


def gain_only_template(values, nominal):
    """Template of a pure-gain family whose members take the given values."""
    lo, hi = min(values), max(values)
    count = len(set(values))
    assert sorted(set(values)) == sorted(
        np.linspace(lo, hi, count)
    ) or count <= 2, "values must form a uniform grid"
    plant = UncertainPlant(
        num=(parse_coefficient_expr("g", ["g"]),),
        den=(parse_coefficient_expr("1", []),),
        params=(ParameterSpec("g", lo, hi, count),),
        nominal={"g": nominal},
    )
    return generate_templates(plant, [1.0])[1.0]


def single_member_template():
    plant = UncertainPlant(
        num=(parse_coefficient_expr("1", []),),
        den=(parse_coefficient_expr("1", []),),
        params=(),
        nominal={},
    )
    return generate_templates(plant, [1.0])[1.0]


# --- independent oracles ----------------------------------------------------

def spread_at(ratios, gain_db, phase_deg, delta=None):
    """Closed-loop dB spread of loop members undb(c) e^{j phase} * ratio."""
    base = undb(gain_db) * cmath.exp(1j * math.radians(phase_deg))
    mags = [abs((base * r) / (1.0 + base * r)) for r in ratios]
    vals = [db(m) for m in mags]
    return max(vals) - min(vals)


def worst_sensitivity_at(ratios, gain_db, phase_deg):
    base = undb(gain_db) * cmath.exp(1j * math.radians(phase_deg))
    return max(abs(1.0 / (1.0 + base * r)) for r in ratios)


def first_feasible_scan(feasible, step=0.005):
    """Fine upward scan for the least feasible gain, same floor/ceiling."""
    if feasible(-100.0):
        return NO_CONSTRAINT
    c = -100.0 + step
    while c <= 100.0 + 1e-9:
        if feasible(c):
            return c
        c += step
    return INFEASIBLE


class TestTrackingSpec:
    def test_accepts_strictly_proper_stable_pair(self):
        TrackingSpec(lower=LOWER_MODEL, upper=UPPER_MODEL)

    def test_rejects_biproper_model(self):
        flat = RationalTransferFunction([1.0], [1.0])
        with pytest.raises(ValueError):
            TrackingSpec(lower=flat, upper=UPPER_MODEL)

    def test_rejects_unstable_model(self):
        unstable = RationalTransferFunction([1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            TrackingSpec(lower=LOWER_MODEL, upper=unstable)

    def test_rejects_marginal_pole(self):
        integrator = RationalTransferFunction([1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            TrackingSpec(lower=integrator, upper=UPPER_MODEL)


class TestDeltaSpread:
    def test_matches_direct_model_gap(self):
        for omega in (0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 60.0):
            lo = db(abs(eval_tf(LOWER_MODEL, 1j * omega)))
            hi = db(abs(eval_tf(UPPER_MODEL, 1j * omega)))
            assert delta_spread(TRACKING, omega) == pytest.approx(abs(hi - lo), abs=1e-12)

    def test_reference_values(self):
        assert delta_spread(TRACKING, 0.5) == pytest.approx(0.26425, abs=2e-3)
        assert delta_spread(TRACKING, 10.0) == pytest.approx(9.85212, abs=2e-3)

    def test_band_edges(self):
        # widens overall (tight at low frequency, loose at high), though not
        # monotonically: the lower model's zero causes a dip near omega=10
        spreads = {w: delta_spread(TRACKING, w) for w in (0.5, 1, 2, 3, 5, 10, 30, 60)}
        assert min(spreads, key=spreads.get) == 0.5
        assert max(spreads, key=spreads.get) == 60
        assert spreads[5] > spreads[10]

    def test_degenerate_pair_rejected(self):
        same = TrackingSpec(lower=LOWER_MODEL, upper=LOWER_MODEL)
        with pytest.raises(DegenerateSpread):
            delta_spread(same, 1.0)


class TestHorowitzGain:
    def test_single_member_is_unconstrained(self):
        entries = horowitz_bound(single_member_template(), 1.0, (-120.0,))
        assert entries.tolist() == [NO_CONSTRAINT]

    def test_two_member_threshold_matches_fine_scan(self):
        template = gain_only_template([0.1, 1.0], nominal=1.0)
        ratios = template.ratios.tolist()
        (bound,) = horowitz_bound(template, 6.0, (-90.0,))
        oracle = first_feasible_scan(lambda c: spread_at(ratios, c, -90.0) <= 6.0)
        assert math.isfinite(bound)
        assert bound == pytest.approx(oracle, abs=0.02)

    def test_allowance_above_family_span_is_unconstrained(self):
        # the family spans 20 dB; a 21 dB allowance is satisfied at the floor
        template = gain_only_template([0.1, 1.0], nominal=1.0)
        assert horowitz_bound(template, 21.0, (-90.0,)).tolist() == [NO_CONSTRAINT]

    def test_bound_is_tight(self):
        template = gain_only_template([0.1, 1.0], nominal=1.0)
        ratios = template.ratios.tolist()
        phases = (-140.0, -90.0, -60.0)
        for phase, bound in zip(phases, horowitz_bound(template, 6.0, phases).tolist()):
            assert spread_at(ratios, bound + 0.02, phase) <= 6.0
            assert spread_at(ratios, bound - 0.5, phase) > 6.0

    def test_finer_tolerance_agrees(self):
        template = gain_only_template([0.1, 1.0], nominal=1.0)
        ratios = template.ratios.tolist()
        (coarse,) = horowitz_bound(template, 6.0, (-90.0,))
        fine = ref.least_feasible_gain(lambda c: spread_at(ratios, c, -90.0) <= 6.0, 0.001)
        assert abs(coarse - fine) <= DEFAULT_TOL_DB + 0.001


class TestHorowitzBoundServo:
    @pytest.fixture
    def template05(self, servo_stack):
        return servo_stack.templates[0.5]

    def test_low_frequency_bound_exceeds_20_db(self, template05, servo_config):
        spread = delta_spread(servo_config.tracking, 0.5)
        grid = make_phase_grid(72)
        entries = horowitz_bound(template05, spread, grid)
        finite = [v for v in entries.tolist() if math.isfinite(v)]
        assert finite, "expected finite entries at omega=0.5"
        assert max(finite) > 20.0

    def test_entries_match_independent_scan(self, template05, servo_config):
        spread = delta_spread(servo_config.tracking, 0.5)
        ratios = list(template05.ratios[template05.hull_indices])
        phases = (-250.0, -180.0, -120.0, -90.0, -40.0)
        for phase, bound in zip(phases, horowitz_bound(template05, spread, phases).tolist()):
            oracle = first_feasible_scan(
                lambda c: spread_at(ratios, c, phase) <= spread, step=0.01
            )
            if math.isinf(oracle):
                assert bound == oracle
            else:
                assert bound == pytest.approx(oracle, abs=0.03)

    def test_hull_matches_full_point_set(self, template05, servo_config):
        # at these three phases the hull bound equals the full template's;
        # interior members can set the spread elsewhere (see the next test)
        spread = delta_spread(servo_config.tracking, 0.5)
        phases = (-200.0, -120.0, -70.0)
        hull = horowitz_bound(template05, spread, phases, use_hull=True)
        full = horowitz_bound(template05, spread, phases, use_hull=False)
        assert hull == pytest.approx(full, abs=0.05)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="hull-only bounds under-state the full template: at omega=2 and "
        "-123.5 deg the combined bound is -4.102 dB from the hull, -1.553 dB from "
        "every member",
    )
    def test_hull_bound_is_not_below_full_template(self, servo_config, servo_stack):
        design = dataclasses.replace(servo_config.design, use_hull=False)
        full_config = dataclasses.replace(servo_config, design=design)
        full_curves, _ = compute_bounds(full_config, servo_stack.templates)
        k = servo_config.frequencies.index(2.0)
        i = servo_stack.curves[k].phase_grid.tolist().index(-123.5)
        hull, full = servo_stack.curves[k].min_gain_db[i], full_curves[k].min_gain_db[i]
        assert hull >= full


class TestDisturbanceGain:
    def test_cap_three_to_one_at_minus_180(self):
        # |1/(1 - r)| <= 0.5 forces r >= 3: bound at 20*log10(3)
        template = single_member_template()
        (bound,) = disturbance_bound(template, 0.5, (-180.0,))
        assert bound == pytest.approx(db(3.0), abs=0.02)

    def test_cap_at_phase_zero(self):
        # |1/(1 + r)| <= 0.5 forces r >= 1: bound at 0 dB
        template = single_member_template()
        (bound,) = disturbance_bound(template, 0.5, (0.0 - 1e-9,))
        assert bound == pytest.approx(0.0, abs=0.02)

    def test_loose_cap_is_unconstrained(self):
        # |1 + r e^{-j90 deg}| >= 1 > 1/2 at every gain r
        template = single_member_template()
        assert disturbance_bound(template, 2.0, (-90.0,)).tolist() == [NO_CONSTRAINT]

    def test_cap_above_one_binds_near_minus_180(self):
        # |1/(1 - r)| > 2 for r in (0.5, 1.5): bound at 20*log10(1.5)
        template = single_member_template()
        (bound,) = disturbance_bound(template, 2.0, (-180.0,))
        assert bound == pytest.approx(db(1.5), abs=1e-12)

    def test_impossible_cap_is_infeasible(self):
        template = single_member_template()
        assert disturbance_bound(template, 1e-6, (-180.0,)).tolist() == [INFEASIBLE]

    def test_bound_is_tight_for_uncertain_family(self):
        template = gain_only_template([0.5, 1.0], nominal=1.0)
        ratios = template.ratios.tolist()
        phases = (-180.0, -120.0)
        for phase, bound in zip(phases, disturbance_bound(template, 0.4, phases).tolist()):
            assert worst_sensitivity_at(ratios, bound + 0.02, phase) <= 0.4
            assert worst_sensitivity_at(ratios, bound - 0.5, phase) > 0.4


class TestPerformanceCurve:
    """``compute_bounds``' tracking bound at one frequency, merged with its
    cap bound and the stability bound over every member."""

    def combined(self, config, templates, omega):
        """The combined curve at ``omega`` and the stability bound on its grid."""
        curves, _ = compute_bounds(config, templates)
        curve = curves[config.frequencies.index(omega)]
        return curve, stability_bound(templates[omega], config.m_value, curve.phase_grid)

    def test_capped_curve_is_entrywise_max(self, reduced_config, reduced_stack):
        config = dataclasses.replace(reduced_config, disturbance={3.0: 1.0})
        template = reduced_stack.templates[3.0]
        grid = make_phase_grid(config.phase_grid_count)
        tracking = horowitz_bound(template, delta_spread(config.tracking, 3.0), grid)
        cap = disturbance_bound(template, 1.0, grid)
        curve, stability = self.combined(config, reduced_stack.templates, 3.0)
        pairs = list(zip(tracking.tolist(), cap.tolist()))
        for value, (t, c), top in zip(curve.min_gain_db, pairs, stability):
            assert value == max(t, c, top)
        # each side wins somewhere no member's M-circle reaches, and the
        # sentinels meet finite entries
        outside = [pair for pair, top in zip(pairs, stability) if top == NO_CONSTRAINT]
        assert any(t > c for t, c in outside) and any(c > t for t, c in outside)
        assert any(NO_CONSTRAINT in pair for pair in pairs)

    def test_uncapped_curve_is_tracking_bound(self, reduced_config, reduced_stack):
        template = reduced_stack.templates[1.0]
        grid = make_phase_grid(reduced_config.phase_grid_count)
        tracking = horowitz_bound(template, delta_spread(reduced_config.tracking, 1.0), grid)
        curve, stability = self.combined(reduced_config, reduced_stack.templates, 1.0)
        assert (curve.omega, curve.phase_grid.tolist()) == (template.omega, list(grid))
        for value, t, top in zip(curve.min_gain_db, tracking, stability):
            assert value == max(t, top)
        assert NO_CONSTRAINT in stability


class TestBoundCurveValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BoundCurve(omega=1.0, phase_grid=(-200.0, -100.0), min_gain_db=(1.0,))

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError):
            BoundCurve(omega=1.0, phase_grid=(-100.0, -200.0), min_gain_db=(1.0, 2.0))

    def test_empty_grid(self):
        # once an IndexError from the first node
        with pytest.raises(ValueError, match="non-empty"):
            BoundCurve(omega=1.0, phase_grid=(), min_gain_db=())

    @pytest.mark.parametrize(
        "grid",
        [(-360.0, 0.0), (-400.0, -200.0, 50.0), (0.0, 360.0), (-360.0, math.nextafter(0.0, 1.0))],
    )
    def test_grid_wider_than_a_turn(self, grid):
        # the lookup repeats every 360 deg, so the last node must come
        # before the first one a turn on
        with pytest.raises(ValueError, match="fit in one turn"):
            BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=np.ones(len(grid)))

    def test_grid_just_within_a_turn(self):
        # the last node one ulp of the span short of a turn
        grid = (-360.0, -360.0 + math.nextafter(360.0, 0.0))
        curve = BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=(1.0, 3.0))
        assert at(curve, -360.0) == at(curve, 0.0) == 1.0
        assert at(curve, grid[1]) == 3.0

    def test_nan_entry(self):
        with pytest.raises(ValueError):
            BoundCurve(omega=1.0, phase_grid=(-200.0, -100.0), min_gain_db=(1.0, math.nan))

    def test_sentinels_allowed(self):
        BoundCurve(
            omega=1.0,
            phase_grid=(-200.0, -100.0),
            min_gain_db=(NO_CONSTRAINT, INFEASIBLE),
        )

    @pytest.mark.parametrize(
        "grid",
        [(-math.inf, 0.0), (-10.0, math.inf), (-10.0, math.nan), (math.inf,), (math.nan,)],
    )
    def test_non_finite_grid_phase(self, grid):
        # a -inf node used to interpolate to NaN at every phase next to it
        with pytest.raises(ValueError, match="must be finite"):
            BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=(1.0, 2.0)[: len(grid)])

    @pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
    def test_non_finite_omega(self, omega):
        with pytest.raises(ValueError, match="must be finite"):
            BoundCurve(omega=omega, phase_grid=(-200.0, -100.0), min_gain_db=(1.0, 2.0))

    @pytest.mark.parametrize("field", ["phase_grid", "min_gain_db"])
    def test_arrays_are_read_only(self, field):
        curve = BoundCurve(omega=1.0, phase_grid=(-200.0, -100.0), min_gain_db=(1.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            getattr(curve, field)[0] = 0.0

    def test_arrays_are_copied(self):
        grid, entries = np.array([-200.0, -100.0]), np.array([1.0, 2.0])
        curve = BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=entries)
        grid[0], entries[0] = -300.0, 5.0
        assert curve.phase_grid.tolist() == [-200.0, -100.0]
        assert curve.min_gain_db.tolist() == [1.0, 2.0]
        assert grid.flags.writeable and entries.flags.writeable

    def test_tuples_and_arrays_interpolate_alike(self):
        grid = (-270.0, -200.0, -150.0, -100.0, -60.0)
        entries = (NO_CONSTRAINT, 3.5, INFEASIBLE, -0.0, 12.25)
        phases = np.array([-300.0, -270.0, -235.0, -200.0, -180.0, -120.0, -80.0, -60.0, -1.0])
        from_tuples = BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=entries)
        from_arrays = BoundCurve(omega=1.0, phase_grid=np.array(grid), min_gain_db=np.array(entries))
        want = [repr(v) for v in interpolate_bound_array(from_tuples, phases).tolist()]
        assert [repr(v) for v in interpolate_bound_array(from_arrays, phases).tolist()] == want
        assert from_arrays.min_gain_db.dtype == from_tuples.min_gain_db.dtype == np.float64

    @pytest.mark.parametrize("grid", [((-200.0, -100.0),), [[-200.0], [-100.0]]])
    def test_grid_must_be_one_dimensional(self, grid):
        with pytest.raises(ValueError, match="1-D"):
            BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=np.ones(np.shape(grid)))


class TestPhaseGrid:
    def test_360_point_grid(self):
        grid = make_phase_grid(360)
        assert len(grid) == 360
        assert grid[0] == pytest.approx(-359.5, abs=1e-12)
        assert grid[-1] == pytest.approx(-0.5, abs=1e-12)
        steps = {round(b - a, 9) for a, b in zip(grid, grid[1:])}
        assert steps == {1.0}

    def test_small_grid(self):
        assert make_phase_grid(4) == pytest.approx((-315.0, -225.0, -135.0, -45.0))

    def test_open_interval_and_axis_avoidance(self):
        for count in (10, 24, 360):
            grid = make_phase_grid(count)
            assert all(-360.0 < p < 0.0 for p in grid)
            assert -180.0 not in grid

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_phase_grid(1)


def decimal_roots(a, b, s, c):
    """The roots of s a g^2 + 2 b g + c at 50 digits, larger first, and the
    discriminant D = b^2 - s a c, all from the given floats exactly; no
    roots where D < 0."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, s, c = map(Decimal, (a, b, s, c))
        disc = b * b - s * a * c
        if disc < 0:
            return None, disc
        far = -b - disc.sqrt().copy_sign(b)  # no cancellation at 50 digits either
        roots = (far / (s * a), c / far) if far else (0, 0)
        return sorted(roots, reverse=True), disc


# ``_circle_roots`` is within this many ulps of the exact roots of its float
# inputs, times 1 + b^2/D: the float discriminant loses b^2/D of its relative
# precision when the circle barely reaches (D -> 0), and every formula that
# rounds b^2 loses it too
ROOT_ULPS = Decimal(4)


def assert_roots_within_ulps(a, b, s, c, got):
    """``got``, ``_circle_roots``' (larger, smaller) at one cell, against the
    50-digit roots: within ROOT_ULPS (1 + b^2/D) ulps, or NaN where D < 0 or
    where |D| is within rounding of b^2 and s a c (0/0 at a double root 0)."""
    want, disc = decimal_roots(a, b, s, c)
    b2, sac = Decimal(b) ** 2, Decimal(s) * Decimal(a) * Decimal(c)
    if want is None or math.isnan(sum(got)):
        near_zero = abs(disc) <= 4 * Decimal(2) ** -52 * (b2 + abs(sac))
        assert (want is None and all(map(math.isnan, got))) or near_zero, (a, b, s, c, got)
        return
    spread = ROOT_ULPS * (1 + b2 / disc) if disc else Decimal("Infinity")
    for value, exact in zip(got, want):
        ulp = Decimal(float(np.spacing(abs(float(exact)))))
        assert abs(Decimal(value) - exact) <= spread * ulp, (a, b, s, c, value, exact)


class TestUContour:
    GRID = make_phase_grid(360)

    def test_span_matches_m_circle(self):
        lo, hi = ref.m_circle_phase_range(1.2)
        assert (lo, hi) == pytest.approx((-236.44269023807928, -123.55730976192072), abs=1e-9)
        top, bottom = UContour(1.2, 20.0).edges(self.GRID)
        reached = [p for p, t in zip(self.GRID, top.tolist()) if not math.isnan(t)]
        assert reached == [p for p in self.GRID if lo <= p <= hi]
        assert np.array_equal(np.isnan(top), np.isnan(bottom))

    def test_sampled_edges_match_m_circle(self):
        top, bottom = UContour(1.2, 20.0).edges(self.GRID)
        for phase, t, b in zip(self.GRID, top.tolist(), bottom.tolist()):
            if not math.isnan(t):
                hi, lo = m_circle_gains(1.2, phase)
                assert t == pytest.approx(hi, abs=1e-12)
                assert b == pytest.approx(lo - 20.0, abs=1e-12)

    def test_edges_at(self):
        hi, lo = m_circle_gains(1.2, -180.0)
        top, bottom = UContour(1.2, 20.0).edges([-180.0, -100.0])
        # the lower edge is the locus dropped by the span
        assert top[0] == pytest.approx(hi, abs=1e-12)
        assert bottom[0] == pytest.approx(lo - 20.0, abs=1e-12)
        assert math.isnan(top[1]) and math.isnan(bottom[1])

    @settings(max_examples=200, deadline=None)
    @given(
        m_value=st.floats(min_value=1.0, max_value=5.0, exclude_min=True),
        delta=st.floats(min_value=0.0, max_value=40.0),
        phases=st.lists(st.floats(min_value=-360.0, max_value=0.0), max_size=20),
    )
    # the libm M-circle found no crossing at M=1.1's upper span end
    # (-114.62 deg) nor at M=2's lower one (exactly -210 deg)
    @example(m_value=1.1, delta=20.0, phases=[-114.6199773286571, -245.38002267134289])
    @example(m_value=2.0, delta=0.0, phases=[-210.0, -150.0, -180.0])
    def test_edges_match_decimal_roots(self, m_value, delta, phases):
        contour = UContour(m_value, delta)
        cosines = np.cos(np.radians(phases))
        s = 1.0 - 1.0 / (m_value * m_value)
        top, bottom = contour.edges(phases)
        with np.errstate(divide="ignore", invalid="ignore"):
            upper, lower = bounds._circle_roots(1.0, cosines, s, 1.0)
            # the edges are the roots in dB, NaN where a root is not positive
            assert top.tobytes() == (20.0 * np.log10(upper)).tobytes()
            assert bottom.tobytes() == (20.0 * np.log10(lower) - delta).tobytes()
        for b, got in zip(cosines.tolist(), zip(upper.tolist(), lower.tolist())):
            assert_roots_within_ulps(1.0, b, s, 1.0, got)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(1e-8, 1e8),
        # no product of these underflows, which no closed form survives
        b=st.floats(-1e4, 1e4).filter(lambda x: x == 0.0 or abs(x) >= 1e-100),
        s=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
        c=st.floats(-1e6, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-100),
    )
    @example(a=1.0, b=0.0, s=1.0, c=0.0)  # a double root at 0
    @example(a=1.0, b=-1.0, s=1.0, c=1.0)  # tangent: D = 0
    def test_circle_roots_match_decimal_roots(self, a, b, s, c):
        with np.errstate(divide="ignore", invalid="ignore"):
            upper, lower = bounds._circle_roots(a, np.array([b]), s, c)
        assert_roots_within_ulps(a, b, s, c, (float(upper[0]), float(lower[0])))

    def test_inside(self):
        contour = UContour(1.2, 20.0)
        assert contour.inside(-180.0, 0.0)
        assert contour.inside(-180.0, 15.5)
        # points within the fixed tolerance of either edge count as outside
        top, bottom = map(float, contour.edges(-180.0))
        tol = INTERPOLATION_TOLERANCE_DB
        assert contour.inside(-180.0, top - 1.5 * tol)
        assert not contour.inside(-180.0, top - 0.5 * tol)
        assert contour.inside(-180.0, bottom + 1.5 * tol)
        assert not contour.inside(-180.0, bottom + 0.5 * tol)
        assert not contour.inside(-180.0, 16.0)
        assert not contour.inside(-180.0, -26.0)
        assert not contour.inside(-100.0, 0.0)

    def test_zero_delta(self):
        _, (bottom,) = UContour(1.2, 0.0).edges((-180.0,))
        assert bottom == pytest.approx(db(6.0 / 11.0), abs=1e-12)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            UContour(1.2, -1.0)

    @pytest.mark.parametrize("m_value", [1.0, 0.5, math.inf, math.nan])
    def test_bad_m_rejected(self, m_value):
        with pytest.raises(InvalidM):
            UContour(m_value, 0.0)


def workload_config(name):
    """The benchmark workload ``name``'s seed-1 configuration."""
    return parse_config_dict(workload_raw(name))


class TestCombineWithUContour:
    """``compute_bounds`` folds every member's stability bound, the nominal
    member's contour top among them, into each performance bound.

    The tracking bound is replaced by fixed entries on a 6-phase grid,
    -330, -270, ..., -30 deg, which the M = 1.2 contour reaches at -210 and
    -150 deg only; at -270 deg other members' M-circles still reach, and
    the reduced config caps no frequency.
    """

    GRID = make_phase_grid(6)
    TOP = m_circle_gains(1.2, -150.0)[0]  # 14.007 dB, also at -210 deg

    def fold(self, monkeypatch, config, templates, entries):
        """The folded curves and each frequency's stability bound entries."""

        def tracking(template, delta_db, phase_grid, use_hull=True):
            return np.array(entries, dtype=float)

        monkeypatch.setattr(pipeline, "horowitz_bound", tracking)
        config = dataclasses.replace(config, phase_grid_count=6, delta_hf_override=5.0)
        curves, contour = compute_bounds(config, templates)
        top, _ = contour.edges(self.GRID)
        assert [p for p, t in zip(self.GRID, top.tolist()) if not math.isnan(t)] == [-210.0, -150.0]
        return curves, [stability_bound(templates[w], 1.2, self.GRID) for w in config.frequencies]

    def test_fold_examples(self, monkeypatch, reduced_config, reduced_stack):
        curves, tops = self.fold(monkeypatch, reduced_config, reduced_stack.templates, (5.0,) * 6)
        for curve, top in zip(curves, tops):
            assert curve.min_gain_db.tolist() == [max(5.0, t) for t in top.tolist()]
            assert curve.phase_grid.tolist() == list(self.GRID)
            # where the contour reaches, its top is the nominal member's
            assert curve.min_gain_db[2:4] == pytest.approx((self.TOP, self.TOP), abs=1e-9)
        # outside the contour's span members of omega=1 still bind at -270 deg
        middle = curves[0].min_gain_db[2:4].tolist()
        assert curves[0].min_gain_db.tolist() == [5.0, tops[0][1], *middle, 5.0, 5.0]
        assert tops[0][1] == pytest.approx(6.8136, abs=1e-4)

    def test_entry_above_top_survives(self, monkeypatch, reduced_config, reduced_stack):
        curves, _ = self.fold(monkeypatch, reduced_config, reduced_stack.templates, (20.0,) * 6)
        assert curves[0].min_gain_db.tolist() == [20.0] * 6

    def test_sentinels_pass_through(self, monkeypatch, reduced_config, reduced_stack):
        entries = (NO_CONSTRAINT, NO_CONSTRAINT, NO_CONSTRAINT, INFEASIBLE, INFEASIBLE, 5.0)
        curves, (top, *_) = self.fold(monkeypatch, reduced_config, reduced_stack.templates, entries)
        # NO_CONSTRAINT takes a member's top where one reaches; INFEASIBLE stays
        expected = [NO_CONSTRAINT, top[1], top[2], INFEASIBLE, INFEASIBLE, 5.0]
        assert curves[0].min_gain_db.tolist() == expected

    def test_finite_entry_below_bottom_aborts(self, monkeypatch, reduced_config, reduced_stack):
        # the first offender in frequency then grid order is named
        entries = (5.0, 5.0, -40.0, -40.0, 5.0, 5.0)
        _, bottom = UContour(1.2, 5.0).edges(-210.0)
        message = (
            f"performance bound -40.000 dB at phase -210.0 deg sits below the stability "
            f"contour bottom {bottom:.3f} dB (omega=1.0)"
        )
        with pytest.raises(BoundBelowUContour) as caught:
            self.fold(monkeypatch, reduced_config, reduced_stack.templates, entries)
        assert str(caught.value) == message

    def test_servo_combined_curves_dominate_contour(self):
        # on every benchmark workload, servo's config among them
        for name in ("servo", "dense-template", "screen-walk", "oracle"):
            config = workload_config(name)
            curves, contour = compute_bounds(config, compute_templates(config))
            top, _ = contour.edges(make_phase_grid(config.phase_grid_count))
            reached = ~np.isnan(top)
            assert reached.any()
            for curve in curves:
                entries = np.array(curve.min_gain_db)
                assert np.all(entries[reached] >= top[reached] - 1e-9), (name, curve.omega)


def member_stability_top_db(ratios, phase_deg, m):
    """The least loop gain in dB above which every member keeps |T_i| <= m.

    For a member with z = e^(j phase) r_i, |g z / (1 + g z)| <= m is
    a (1 - m^2) g^2 - 2 m^2 b g - m^2 <= 0 with a = |z|^2 = |r_i|^2 and
    b = Re z; for m > 1 the gains between its two roots break it.  The
    largest positive root over the members, -inf when none has one.
    """
    top = -math.inf
    for r in ratios:
        z = cmath.rect(1.0, math.radians(phase_deg)) * r
        qa, qb, qc = abs(z) ** 2 * (1.0 - m * m), -2.0 * m * m * z.real, -m * m
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            root = max((-qb - math.sqrt(disc)) / (2.0 * qa), (-qb + math.sqrt(disc)) / (2.0 * qa))
            if root > 0.0:
                top = max(top, db(root))
    return top


class TestPerMemberStability:
    """Stability over every member of the template, pinned at servo omega=60
    and -236.5 deg."""

    PHASE = -236.5

    def test_member_top_just_past_the_contour_span(self, servo_config, servo_stack):
        # the contour, the nominal member's M-circle, ends at -236.443 deg
        assert math.isnan(servo_stack.contour.edges(self.PHASE)[0])
        top = member_stability_top_db(servo_stack.templates[60.0].ratios, self.PHASE, 1.2)
        assert top == pytest.approx(1.0106, abs=1e-4)
        # the nominal member alone stays clear of M there
        assert member_stability_top_db([1.0 + 0j], self.PHASE, 1.2) == -math.inf

    def test_bound_is_not_below_any_members_stability_top(self, servo_config, servo_stack):
        """The combined bound keeps every member's |T_i| within M.

        The classic per-frequency stability bound asks |T_i| <= M of every
        member: with a = |r_i|^2 and b = Re(e^(j phase) r_i), the gains
        between the roots of a (1 - M^2) g^2 - 2 M^2 b g - M^2 = 0 break it.
        The stability contour is the nominal member's circle only, and ends
        at -236.443 deg on servo.  At omega=60 and -236.5 deg, just past it,
        the tracking bound alone reads -27.744 dB, yet a loop just below
        1.0106 dB would drive a member's |T| above M.  ``compute_bounds``
        folds in :func:`stability_bound` over every member, so the bound is
        that member's top.
        """
        k = servo_config.frequencies.index(60.0)
        curve = servo_stack.curves[k]
        bound = curve.min_gain_db[curve.phase_grid.tolist().index(self.PHASE)]
        top = member_stability_top_db(servo_stack.templates[60.0].ratios, self.PHASE, 1.2)
        assert bound >= top - 0.05
        assert bound == pytest.approx(top, abs=1e-9)


def lattice(lo, hi):
    """Floats in [lo, hi] on whole 1/1024ths of a degree."""
    return st.integers(int(lo * 1024), int(hi * 1024)).map(lambda k: k / 1024.0)


def at(curve, phase):
    """The interpolated bound at one phase, as a Python float."""
    return float(interpolate_bound_array(curve, np.array([phase]))[0])


class TestInterpolateBound:
    CURVE = BoundCurve(
        omega=1.0,
        phase_grid=(-200.0, -100.0, -50.0),
        min_gain_db=(10.0, 20.0, NO_CONSTRAINT),
    )

    def test_exact_nodes_return_stored_values(self):
        assert at(self.CURVE, -200.0) == 10.0
        assert at(self.CURVE, -100.0) == 20.0
        assert at(self.CURVE, -50.0) == NO_CONSTRAINT

    def test_linear_between_finite_nodes(self):
        assert at(self.CURVE, -150.0) == pytest.approx(15.0, abs=1e-12)
        assert at(self.CURVE, -125.0) == pytest.approx(17.5, abs=1e-12)

    def test_no_constraint_neighbour_defers_to_finite(self):
        assert at(self.CURVE, -75.0) == 20.0

    def test_outside_grid_wraps_around(self):
        # past -50 the curve runs on to the first node a turn on, -200 + 360:
        # a NO_CONSTRAINT node and 10 dB, so 10 dB throughout
        assert at(self.CURVE, -300.0) == at(self.CURVE, 60.0) == 10.0
        assert at(self.CURVE, -10.0) == 10.0
        # whole turns away from a node is that node
        assert at(self.CURVE, -560.0) == at(self.CURVE, 160.0) == 10.0
        assert at(self.CURVE, 260.0) == at(self.CURVE, -460.0) == 20.0

    def test_infeasible_dominates_segment(self):
        curve = BoundCurve(
            omega=1.0,
            phase_grid=(-200.0, -100.0, -50.0),
            min_gain_db=(10.0, INFEASIBLE, 5.0),
        )
        assert at(curve, -150.0) == INFEASIBLE
        assert at(curve, -75.0) == INFEASIBLE
        assert at(curve, -200.0) == 10.0

    def test_double_no_constraint_segment(self):
        curve = BoundCurve(
            omega=1.0,
            phase_grid=(-200.0, -100.0, -50.0),
            min_gain_db=(NO_CONSTRAINT, NO_CONSTRAINT, 5.0),
        )
        assert at(curve, -150.0) == NO_CONSTRAINT
        assert at(curve, -75.0) == 5.0

    def test_array_twin_matches_scalar(self):
        curves = [
            self.CURVE,
            BoundCurve(
                omega=1.0,
                phase_grid=(-200.0, -100.0, -50.0),
                min_gain_db=(10.0, INFEASIBLE, 5.0),
            ),
            BoundCurve(
                omega=1.0,
                phase_grid=(-200.0, -100.0, -50.0),
                min_gain_db=(NO_CONSTRAINT, NO_CONSTRAINT, 5.0),
            ),
        ]
        phases = np.array(
            [-300.0, -250.0, -200.0, -176.3, -150.0, -100.0, -75.0, -50.0, -20.0, 0.0]
        )
        for curve in curves:
            vector = interpolate_bound_array(curve, phases)
            scalar = [at(curve, p) for p in phases]
            for got, want in zip(vector, scalar):
                if math.isinf(want):
                    assert got == want
                else:
                    assert got == pytest.approx(want, abs=1e-12)

    @given(
        nodes=st.lists(
            st.tuples(
                st.integers(min_value=-719, max_value=-1),
                st.sampled_from([NO_CONSTRAINT, INFEASIBLE, -12.5, 0.0, 3.25, 40.0]),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda node: node[0],
        ),
        queries=st.lists(st.floats(min_value=-361.0, max_value=1.0), max_size=10),
    )
    @settings(max_examples=200)
    def test_matches_bisect_reference(self, nodes, queries):
        nodes = sorted(nodes)
        grid = [0.5 * k for k, _ in nodes]
        curve = BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=[v for _, v in nodes])
        phases = queries + grid
        want = [repr(ref.interpolate_bound(curve, p)) for p in phases]
        assert [repr(v) for v in interpolate_bound_array(curve, np.array(phases)).tolist()] == want
        assert [repr(at(curve, p)) for p in phases] == want

    @given(
        grid=st.lists(
            st.one_of(st.floats(-400.0, 50.0), st.just(0.0)),
            min_size=1,
            max_size=8,
            unique=True,
        ).map(within_one_turn),
        values=st.lists(
            st.one_of(
                st.sampled_from([NO_CONSTRAINT, INFEASIBLE, 0.0, -0.0]),
                st.floats(-200.0, 200.0),
            ),
            min_size=8,
            max_size=8,
        ),
        queries=st.lists(
            st.one_of(
                st.floats(-500.0, 100.0),
                st.sampled_from([0.0, -0.0, -math.inf, math.inf, math.nan]),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=300)
    def test_table_matches_frozen_mask_chain(self, grid, values, queries):
        # every sentinel pairing and single-node curves, queried on and next
        # to each node, inside each interval and beyond both ends, which
        # wrap around
        curve = BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=values[: len(grid)])
        nodes = np.array(grid)
        phases = np.concatenate(
            (
                queries,
                nodes,
                np.nextafter(nodes, -math.inf),
                np.nextafter(nodes, math.inf),
                0.5 * (nodes[1:] + nodes[:-1]),
                [nodes[0] - 1.0, nodes[-1] + 1.0],
            )
        )
        want = [repr(v) for v in ref.interpolate_bound_array(curve, phases).tolist()]
        assert [repr(v) for v in interpolate_bound_array(curve, phases).tolist()] == want
        assert interpolate_bound_array(curve, np.array([math.nan]))[0] == NO_CONSTRAINT

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="contour-edge gap: the lookup joins the last node inside the contour span "
        "and the first outside it by a chord far below the contour top",
    )
    def test_lookup_near_a_contour_edge_is_not_below_the_top(self, servo_stack):
        curve = next(c for c in servo_stack.curves if c.omega == 2.0)
        phase = -123.6  # inside the span, whose edge is at -123.557 deg
        top = float(servo_stack.contour.edges(phase)[0])  # 5.56 dB
        got = interpolate_bound_array(curve, np.array([phase]))[0]  # -2.98 dB
        assert got >= top - INTERPOLATION_TOLERANCE_DB

    # nodes and phases on a 1/1024-degree lattice: a turn's shift, and the
    # lookup's own move by whole turns, are then exact
    @given(
        grid=st.lists(lattice(-400.0, 50.0), min_size=1, max_size=8, unique=True).map(
            within_one_turn
        ),
        values=st.lists(
            st.one_of(st.sampled_from([NO_CONSTRAINT, INFEASIBLE]), st.floats(-200.0, 200.0)),
            min_size=8,
            max_size=8,
        ),
        phases=st.lists(lattice(-800.0, 400.0), min_size=1, max_size=12),
    )
    @settings(max_examples=300)
    def test_a_turn_either_way_reads_the_same(self, grid, values, phases):
        curve = BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=values[: len(grid)])
        phases = np.array(phases)
        here = interpolate_bound_array(curve, phases)
        for turned in (phases - 360.0, phases + 360.0):
            there = interpolate_bound_array(curve, turned)
            assert np.array_equal(np.isinf(there), np.isinf(here))
            assert np.array_equal(there[np.isinf(there)], here[np.isinf(here)])
            assert there[np.isfinite(there)] == pytest.approx(here[np.isfinite(here)], abs=1e-9)

    def test_seam_interpolates_between_end_nodes(self):
        """A bound is 360-degree periodic, and so is the lookup.

        ``make_phase_grid(10)`` has nodes -342, -306, ..., -18: the seam at
        0/-360 deg lies 18 deg beyond each end.  -5 deg and -355 deg (that
        is, 5 deg) both fall in the table's last slot, between -18 and
        -342 + 360 = 18 deg, 13/36 and 23/36 of the way from -18.
        """
        grid = make_phase_grid(10)
        values = tuple(float(k) for k in range(1, 11))
        curve = BoundCurve(omega=1.0, phase_grid=grid, min_gain_db=values)
        first, last = values[0], values[-1]  # at -342 and -18 deg
        want = [last + t * (first - last) for t in (13.0 / 36.0, 23.0 / 36.0)]
        got = interpolate_bound_array(curve, np.array([-5.0, -355.0]))
        assert got.tolist() == pytest.approx(want, abs=1e-12)

    def test_array_all_outside_wraps_around(self):
        out = interpolate_bound_array(self.CURVE, np.array([-350.0, -250.0, -10.0, -485.0]))
        assert out.tolist() == [10.0, 10.0, 10.0, 17.5]
        turn_on = interpolate_bound_array(self.CURVE, np.array([10.0, 110.0, 350.0, -125.0]))
        assert turn_on.tolist() == out.tolist()
