"""Plant families, templates, and the Nichols-plane convex hull."""

from __future__ import annotations

import cmath
import math
import random
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qft_forge.errors import OutOfBox, PoleOnAxis, TemplateTooWide, ZeroMagnitude
from qft_forge.expr import parse_coefficient_expr
from qft_forge.lti import db, to_nichols
from qft_forge.plant import (
    ParameterSpec,
    Template,
    UncertainPlant,
    convex_hull_nichols,
    evaluate_plant_array,
    generate_templates,
)

import scalar_reference as ref


def make_plant(num, den, params, nominal):
    declared = [p.name for p in params]
    return UncertainPlant(
        num=tuple(parse_coefficient_expr(t, declared) for t in num),
        den=tuple(parse_coefficient_expr(t, declared) for t in den),
        params=tuple(params),
        nominal=nominal,
    )


def servo_plant(grid=10):
    """Motor-style family k*a / (s^2 + a s), both parameters in [1, 10]."""
    return make_plant(
        ["k*a"],
        ["1", "a", "0"],
        [ParameterSpec("a", 1.0, 10.0, grid), ParameterSpec("k", 1.0, 10.0, grid)],
        {"a": 1.0, "k": 1.0},
    )


def response_at(plant, point, s):
    """One member's response at one point of the s-plane."""
    return complex(evaluate_plant_array(plant, point, [s])[0])


def template_at(plant, omega):
    return generate_templates(plant, [omega])[omega]


def hull_of(template):
    """The template's CCW hull vertices in (phase_deg, gain_db)."""
    indices = template.hull_indices
    return list(zip(template.phase_deg[indices].tolist(), template.gain_db[indices].tolist()))


def members_of(template):
    """(params, ratio, phase_deg, gain_db) per member, as Python scalars."""
    return list(
        zip(
            map(tuple, template.points.tolist()),
            template.ratios.tolist(),
            template.phase_deg.tolist(),
            template.gain_db.tolist(),
        )
    )


def servo_response(a, k, omega):
    s = 1j * omega
    return (k * a) / (s * s + a * s)


# --- hull helpers (independent point-in-polygon oracle) ---------------------

def inside_hull(hull, point, tol=1e-9):
    """True when ``point`` is inside/on a CCW convex polygon."""
    n = len(hull)
    if n == 1:
        return abs(point[0] - hull[0][0]) <= tol and abs(point[1] - hull[0][1]) <= tol
    if n == 2:
        (x1, y1), (x2, y2) = hull
        cross = (x2 - x1) * (point[1] - y1) - (y2 - y1) * (point[0] - x1)
        length = math.hypot(x2 - x1, y2 - y1)
        if abs(cross) / max(length, 1e-30) > tol:
            return False
        dot = (point[0] - x1) * (x2 - x1) + (point[1] - y1) * (y2 - y1)
        return -tol * length <= dot <= length * length + tol * length
    for i in range(n):
        a = hull[i]
        b = hull[(i + 1) % n]
        cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
        if cross < -tol:
            return False
    return True


class TestParameterSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterSpec("a", 2.0, 1.0)
        with pytest.raises(ValueError):
            ParameterSpec("a", 0.0, 1.0, grid_points=0)

    def test_grid_endpoints(self):
        grid = ParameterSpec("a", 1.0, 10.0, 10).grid()
        assert len(grid) == 10
        assert grid[0] == 1.0
        assert grid[-1] == 10.0

    def test_degenerate_interval(self):
        grid = ParameterSpec("a", 2.0, 2.0, 7).grid()
        assert list(grid) == [2.0]

    def test_single_point_count(self):
        grid = ParameterSpec("a", 1.0, 10.0, 1).grid()
        assert list(grid) == [1.0]


class TestUncertainPlant:
    def test_stray_expression_name(self):
        # parse against a wider name set, then declare fewer parameters
        expr_b = parse_coefficient_expr("b", ["a", "b"])
        one = parse_coefficient_expr("1", [])
        with pytest.raises(ValueError):
            UncertainPlant(
                num=(expr_b,),
                den=(one,),
                params=(ParameterSpec("a", 0.0, 1.0),),
                nominal={"a": 0.5},
            )

    def test_missing_nominal(self):
        with pytest.raises(ValueError):
            make_plant(["a"], ["1"], [ParameterSpec("a", 0.0, 1.0)], {})

    def test_nominal_outside_box(self):
        with pytest.raises(OutOfBox):
            make_plant(["a"], ["1"], [ParameterSpec("a", 0.0, 1.0)], {"a": 2.0})


class TestEvaluatePlant:
    def test_matches_direct_arithmetic(self):
        plant = servo_plant()
        for a, k, omega in [(1.0, 1.0, 0.5), (10.0, 10.0, 1.0), (4.0, 7.0, 3.0)]:
            got = response_at(plant, {"a": a, "k": k}, 1j * omega)
            assert got == pytest.approx(servo_response(a, k, omega), rel=1e-12)

    def test_upper_corner_at_j1(self):
        value = response_at(servo_plant(), {"a": 10.0, "k": 10.0}, 1j)
        assert db(abs(value)) == pytest.approx(db(100.0 / math.sqrt(101.0)), abs=1e-12)
        phase = math.degrees(cmath.phase(value))
        assert phase == pytest.approx(-math.degrees(math.atan2(10.0, -1.0)), abs=1e-9)

    def test_missing_parameter(self):
        with pytest.raises(OutOfBox):
            response_at(servo_plant(), {"a": 1.0}, 1j)

    def test_out_of_box_value(self):
        with pytest.raises(OutOfBox):
            response_at(servo_plant(), {"a": 0.5, "k": 1.0}, 1j)

    def test_pole_on_axis(self):
        with pytest.raises(PoleOnAxis):
            response_at(servo_plant(), {"a": 1.0, "k": 1.0}, 0j)


COEFFICIENT = st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)


def bits(z: complex):
    return (z.real.hex(), z.imag.hex())


class TestEvaluatePlantArray:
    @given(
        num=st.lists(COEFFICIENT, min_size=1, max_size=4),
        den=st.lists(COEFFICIENT, min_size=1, max_size=5).filter(lambda c: c[0] != 0.0),
        omegas=st.lists(
            st.floats(min_value=1e-3, max_value=1e4, allow_subnormal=False), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=300)
    def test_bit_equal_to_scalar_path(self, num, den, omegas):
        # every coefficient is its own degenerate parameter, so the point carries them
        names = [f"n{i}" for i in range(len(num))] + [f"d{i}" for i in range(len(den))]
        values = dict(zip(names, num + den))
        plant = make_plant(
            names[: len(num)],
            names[len(num) :],
            [ParameterSpec(n, v, v) for n, v in values.items()],
            values,
        )
        s = 1j * np.array(omegas)
        try:
            want = [ref.plant_response(num, den, 1j * w) for w in omegas]
        except ZeroDivisionError:
            with pytest.raises(PoleOnAxis):
                evaluate_plant_array(plant, values, s)
            return
        got = evaluate_plant_array(plant, values, s).tolist()
        assert [bits(z) for z in got] == [bits(z) for z in want]

    def test_pole_on_axis_anywhere_in_the_array(self):
        with pytest.raises(PoleOnAxis):
            evaluate_plant_array(servo_plant(), {"a": 1.0, "k": 1.0}, [1j, 0j])

    def test_pole_message_names_the_first_point(self):
        plant = make_plant(["1"], ["1", "0", "4"], [], {})
        with pytest.raises(PoleOnAxis, match=r"^plant denominator vanishes at s = 2j for \{\}$"):
            evaluate_plant_array(plant, {}, [1j, 2j, -2j, 3j])


class TestMembers:
    def test_grid_order_with_nominal_appended(self):
        plant = make_plant(
            ["k*a"],
            ["1", "a", "0"],
            [ParameterSpec("a", 1.0, 3.0, 2), ParameterSpec("k", 1.0, 2.0, 2)],
            {"a": 2.0, "k": 1.0},
        )
        assert plant.members() == [
            (1.0, 1.0), (1.0, 2.0), (3.0, 1.0), (3.0, 2.0), (2.0, 1.0)
        ]

    def test_nominal_on_grid_is_not_repeated(self):
        members = servo_plant(grid=3).members()
        assert len(members) == 9
        assert members.count((1.0, 1.0)) == 1

    def test_template_rows_follow_members(self):
        for grid in (4, 2):
            plant = servo_plant(grid=grid)
            for template in generate_templates(plant, [2.0, 5.0]).values():
                assert [tuple(row) for row in template.points.tolist()] == plant.members()
                assert len(template.points) == len(plant.members())

    def test_template_arrays_are_read_only(self):
        templates = generate_templates(servo_plant(grid=3), [2.0, 5.0])
        for template in templates.values():
            for name in ("points", "responses", "ratios", "phase_deg", "gain_db", "hull_indices"):
                array = getattr(template, name)
                assert not array.flags.writeable, name
                with pytest.raises(ValueError):
                    array[0] = 0


class TestConvexHull:
    def test_square_with_interior_point(self):
        hull = convex_hull_nichols([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
        assert hull == [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]

    def test_collinear_collapses_to_extremes(self):
        assert convex_hull_nichols([(0, 0), (1, 1), (2, 2)]) == [(0.0, 0.0), (2.0, 2.0)]

    def test_single_and_double(self):
        assert convex_hull_nichols([(3, 4)]) == [(3.0, 4.0)]
        assert convex_hull_nichols([(1, 1), (0, 0), (1, 1)]) == [(0.0, 0.0), (1.0, 1.0)]

    def test_collinear_edge_points_dropped(self):
        hull = convex_hull_nichols([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert (1.0, 0.0) not in hull
        assert len(hull) == 4

    def test_random_cloud_soundness_and_minimality(self):
        rng = random.Random(20260825)
        points = [(rng.uniform(-5, 5), rng.uniform(-3, 3)) for _ in range(100)]
        hull = convex_hull_nichols(points)
        assert len(hull) >= 3
        for p in points:
            assert inside_hull(hull, p)
        # every vertex is essential: dropping it leaves it outside the rest
        for i, vertex in enumerate(hull):
            rest = convex_hull_nichols(hull[:i] + hull[i + 1 :])
            assert not inside_hull(rest, vertex, tol=1e-9)

    def test_ccw_orientation(self):
        rng = random.Random(7)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(40)]
        hull = convex_hull_nichols(points)
        area2 = sum(
            hull[i][0] * hull[(i + 1) % len(hull)][1]
            - hull[(i + 1) % len(hull)][0] * hull[i][1]
            for i in range(len(hull))
        )
        assert area2 > 0  # positive signed area == counter-clockwise

    def test_starts_at_lexicographic_minimum(self):
        hull = convex_hull_nichols([(2, 2), (0, 1), (0, 0), (2, 0)])
        assert hull[0] == (0.0, 0.0)


class TestGenerateTemplate:
    def test_coarse_template_matches_direct_ratios(self):
        template = template_at(servo_plant(grid=2), 1.0)
        assert len(template.points) == 4
        nominal = servo_response(1.0, 1.0, 1.0)
        for (a, k), ratio, phase_deg, gain_db in members_of(template):
            expected = servo_response(a, k, 1.0) / nominal
            assert ratio == pytest.approx(expected, rel=1e-12)
            assert gain_db == pytest.approx(db(abs(expected)), abs=1e-9)
            assert phase_deg == pytest.approx(
                math.degrees(cmath.phase(expected)), abs=1e-9
            )

    def test_nominal_member_is_exactly_unity(self):
        template = template_at(servo_plant(), 2.0)
        nominal_points = [m[1:] for m in members_of(template) if m[0] == (1.0, 1.0)]
        assert nominal_points == [(1.0 + 0.0j, 0.0, 0.0)]

    def test_full_grid_size(self):
        template = template_at(servo_plant(), 1.0)
        assert len(template.points) == 100  # nominal is already a grid node

    def test_nominal_appended_when_grid_misses_it(self):
        plant = make_plant(
            ["k*a"],
            ["1", "a", "0"],
            [ParameterSpec("a", 1.0, 10.0, 2), ParameterSpec("k", 1.0, 10.0, 2)],
            {"a": 5.5, "k": 5.5},
        )
        template = template_at(plant, 1.0)
        assert len(template.points) == 5
        assert template.points[-1].tolist() == [5.5, 5.5]

    def test_high_frequency_gain_span(self):
        # At omega = 60 the family's span is set by the k*a numerator:
        # 20*log10(100 * sqrt(3601/3700)) dB, extremes at the box corners.
        expected = db(100.0 * math.sqrt(3601.0 / 3700.0))
        assert expected == pytest.approx(39.8822139730429, abs=1e-9)
        template = template_at(servo_plant(), 60.0)
        assert template.gain_span_db() == pytest.approx(expected, abs=1e-9)
        finer = template_at(servo_plant(grid=20), 60.0)
        assert finer.gain_span_db() == pytest.approx(expected, abs=1e-9)

    def test_span_equals_pointwise_extremes(self):
        # the hull holds both gain extremes, so its span is the members' span
        template = template_at(servo_plant(), 10.0)
        gains = template.gain_db.tolist()
        hull_gains = [gain for _, gain in hull_of(template)]
        assert template.gain_span_db() == max(gains) - min(gains)
        assert template.gain_span_db() == max(hull_gains) - min(hull_gains)

    def test_hull_soundness(self):
        template = template_at(servo_plant(), 1.0)
        hull = hull_of(template)
        for point in zip(template.phase_deg.tolist(), template.gain_db.tolist()):
            assert inside_hull(hull, point)

    def test_hull_indices_map_back_to_points(self):
        template = template_at(servo_plant(), 5.0)
        coords = list(zip(template.phase_deg.tolist(), template.gain_db.tolist()))
        assert hull_of(template) == convex_hull_nichols(coords)
        assert len(set(template.hull_indices.tolist())) == len(template.hull_indices)

    def test_grid_refinement_containment(self):
        coarse = template_at(servo_plant(grid=5), 5.0)
        fine = template_at(servo_plant(grid=9), 5.0)
        # the 9-point axes contain the 5-point axes, so the finer hull
        # must cover every coarse vertex
        for vertex in hull_of(coarse):
            assert inside_hull(hull_of(fine), vertex, tol=1e-9)

    def test_zero_uncertainty_family(self):
        plant = make_plant(
            ["k*a"],
            ["1", "a", "0"],
            [ParameterSpec("a", 1.0, 1.0, 10), ParameterSpec("k", 1.0, 1.0, 10)],
            {"a": 1.0, "k": 1.0},
        )
        template = template_at(plant, 1.0)
        assert len(template.points) == 1
        assert template.gain_span_db() == 0.0

    def test_parameter_free_plant(self):
        plant = make_plant(["2"], ["1", "1"], [], {})
        template = template_at(plant, 1.0)
        assert len(template.points) == 1
        assert template.points.shape == (1, 0)
        assert template.ratios.tolist() == [1.0 + 0.0j]

    def test_template_too_wide(self):
        # s^2 + a s + b with the (a, b) box wrapping the origin of the
        # denominator at omega = 2: relative phases spread past 180 deg.
        plant = make_plant(
            ["1"],
            ["1", "a", "b"],
            [ParameterSpec("a", -1.0, 1.0, 4), ParameterSpec("b", 3.0, 5.0, 4)],
            {"a": 1.0, "b": 5.0},
        )
        with pytest.raises(TemplateTooWide):
            template_at(plant, 2.0)


@st.composite
def families(draw):
    """A small random plant over up to two parameters and a few frequencies,
    its nominal point drawn on the parameter grid or anywhere in the box."""
    names = ("a", "b")[: draw(st.integers(0, 2))]
    params, nominal = [], {}
    for name in names:
        lo = draw(st.floats(min_value=0.1, max_value=10.0))
        spec = ParameterSpec(name, lo, lo + draw(st.floats(0.0, 5.0)), draw(st.integers(1, 4)))
        params.append(spec)
        grid = spec.grid()
        if draw(st.booleans()):
            nominal[name] = float(grid[draw(st.integers(0, len(grid) - 1))])
        else:
            share = draw(st.floats(0.0, 1.0))
            nominal[name] = min(spec.maximum, lo + share * (spec.maximum - lo))

    def coefficients(min_size, max_size) -> List[str]:
        count = draw(st.integers(min_size, max_size))
        return [
            " + ".join(
                [str(draw(st.integers(-3, 3)))]
                + [f"{draw(st.integers(-3, 3))}*{name}" for name in names if draw(st.booleans())]
            )
            for _ in range(count)
        ]

    plant = make_plant(coefficients(1, 2), coefficients(1, 3), params, nominal)
    omegas = draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=4, unique=True))
    return plant, omegas


def template_bits(template: Template):
    """Every float of a template as its exact hex form."""
    return (
        template.omega.hex(),
        [
            (params, bits(response), bits(ratio), phase.hex(), gain.hex())
            for params, response, ratio, phase, gain in zip(
                map(tuple, template.points.tolist()),
                template.responses.tolist(),
                template.ratios.tolist(),
                template.phase_deg.tolist(),
                template.gain_db.tolist(),
            )
        ],
        template.hull_indices.tolist(),
    )


def has_pole(plant, omegas) -> bool:
    names = [spec.name for spec in plant.params]
    return any(
        complex(np.polyval(plant.coefficients_at(dict(zip(names, combo)))[1], 1j * w)) == 0
        for combo in plant.members()
        for w in omegas
    )


ZERO_MEMBER_FAMILY = make_plant(["a"], ["1", "1"], [ParameterSpec("a", 0.0, 1.0, 2)], {"a": 1.0})
WIDE_FAMILY = make_plant(
    ["1"],
    ["1", "a", "b"],
    [ParameterSpec("a", -1.0, 1.0, 4), ParameterSpec("b", 3.0, 5.0, 4)],
    {"a": 1.0, "b": 5.0},
)
ZERO_NOMINAL_FAMILY = make_plant(
    ["k*a - 1"],
    ["1", "a", "0"],
    [ParameterSpec("a", 1.0, 10.0, 3), ParameterSpec("k", 1.0, 10.0, 3)],
    {"a": 1.0, "k": 1.0},
)
OFF_GRID_FAMILY = make_plant(
    ["k*a"],
    ["1", "a", "0"],
    [ParameterSpec("a", 1.0, 10.0, 3), ParameterSpec("k", 1.0, 10.0, 2)],
    {"a": 4.0, "k": 7.5},
)


class TestOnePassTemplates:
    @given(family=families())
    @example(family=(make_plant(["2"], ["1", "1"], [], {}), [1.0, 3.0]))
    @example(family=(OFF_GRID_FAMILY, [0.5, 2.0, 60.0]))
    @example(family=(servo_plant(grid=3), [1.0, 10.0]))
    @example(family=(ZERO_NOMINAL_FAMILY, [0.5, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_per_frequency_reference(self, family):
        plant, omegas = family
        if has_pole(plant, omegas):
            with pytest.raises(PoleOnAxis):
                generate_templates(plant, omegas)
            return
        try:
            want = {w: ref.generate_template(plant, w) for w in omegas}
        except (ZeroMagnitude, TemplateTooWide) as exc:
            with pytest.raises(type(exc)) as got:
                generate_templates(plant, omegas)
            assert str(got.value) == str(exc)
            return
        except ZeroDivisionError:
            # the reference divides by a zero nominal response; name it instead
            first = next(w for w in omegas if response_at(plant, plant.nominal, 1j * w) == 0)
            with pytest.raises(ZeroMagnitude) as got:
                generate_templates(plant, omegas)
            assert str(got.value) == (
                f"nominal plant at {plant.nominal} has zero response at omega={first}"
            )
            return
        got = generate_templates(plant, omegas)
        assert list(got) == list(want)
        assert [template_bits(t) for t in got.values()] == [
            template_bits(t) for t in want.values()
        ]

    @pytest.mark.parametrize(
        "plant, error", [(ZERO_MEMBER_FAMILY, ZeroMagnitude), (WIDE_FAMILY, TemplateTooWide)]
    )
    def test_errors_match_reference(self, plant, error):
        with pytest.raises(error) as want:
            [ref.generate_template(plant, w) for w in (0.1, 2.0)]
        with pytest.raises(error) as got:
            generate_templates(plant, (0.1, 2.0))
        assert str(got.value) == str(want.value)

    def test_pole_on_axis_reported_before_zero_nominal(self):
        # zero nominal response at omega=0.1; the member a=4 has a pole at s=2j
        spec = ParameterSpec("a", 1.0, 4.0, 2)
        plant = make_plant(["a - 1"], ["1", "0", "a"], [spec], {"a": 1.0})
        with pytest.raises(PoleOnAxis):
            generate_templates(plant, (0.1, 2.0))


class TestNominalPoint:
    def test_low_frequency(self):
        phase, gain = to_nichols(response_at(servo_plant(), servo_plant().nominal, 0.5j))
        assert gain == pytest.approx(db(1.0 / (0.5 * math.sqrt(1.25))), abs=1e-9)
        assert phase == pytest.approx(
            -math.degrees(math.atan2(0.5, -0.25)), abs=1e-9
        )
        assert phase == pytest.approx(-116.56505117707799, abs=1e-6)

    def test_mid_frequency(self):
        phase, gain = to_nichols(response_at(servo_plant(), servo_plant().nominal, 3.0j))
        assert gain == pytest.approx(db(1.0 / (3.0 * math.sqrt(10.0))), abs=1e-9)
        assert phase == pytest.approx(
            -math.degrees(math.atan2(3.0, -9.0)), abs=1e-9
        )

    def test_high_frequency_asymptote(self):
        phase, gain = to_nichols(response_at(servo_plant(), servo_plant().nominal, 1000.0j))
        assert gain == pytest.approx(db(1e-6), abs=0.01)
        assert -180.0 < phase < -179.9
