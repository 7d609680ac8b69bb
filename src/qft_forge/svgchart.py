"""Deterministic Nichols-chart rendering to a self-contained SVG document.

The chart is the package's one figure: phase (degrees, -360..0) on the
horizontal axis, gain (dB) on the vertical, with up to six layers drawn in a
fixed order — grid, stability contour, bound curves, templates, nominal
plant curve, shaped open-loop curve with circular markers at the design
frequencies.  Everything is emitted with fixed-precision coordinates and a
fixed palette so two runs on the same data produce byte-identical files.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = ["emit_nichols_svg"]

# geometry (pixels)
_WIDTH = 960.0
_HEIGHT = 640.0
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 168.0  # leaves room for the legend column
_MARGIN_TOP = 36.0
_MARGIN_BOTTOM = 52.0

_PHASE_MIN = -360.0
_PHASE_MAX = 0.0

# fixed palette, one colour per layer role
_COLOR_GRID = "#d8d8d8"
_COLOR_AXIS = "#444444"
_COLOR_TEMPLATE = "#8c6bb1"
_COLOR_BOUND = "#1f77b4"
_COLOR_UCONTOUR = "#d62728"
_COLOR_PLANT = "#9e9e9e"
_COLOR_LOOP = "#2ca02c"

Point = Tuple[float, float]  # (phase_deg, gain_db)


def _fmt(value: float) -> str:
    """Fixed two-decimal coordinate formatting (deterministic, compact)."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _finite(points: Sequence[Point]) -> List[Point]:
    return [
        (p, g)
        for p, g in points
        if math.isfinite(p) and math.isfinite(g) and _PHASE_MIN <= p <= _PHASE_MAX
    ]


def _gain_range(layers: Sequence[Sequence[Point]]) -> Tuple[float, float]:
    gains = [g for layer in layers for _, g in layer]
    if not gains:
        return (-60.0, 40.0)
    lo = min(gains)
    hi = max(gains)
    if lo == hi:
        lo -= 10.0
        hi += 10.0
    # snap outward to multiples of 10 dB with a little headroom
    lo = 10.0 * math.floor((lo - 2.0) / 10.0)
    hi = 10.0 * math.ceil((hi + 2.0) / 10.0)
    return (lo, hi)


class _Frame:
    """Affine map from (phase, gain) to pixel coordinates."""

    def __init__(self, gain_min: float, gain_max: float):
        self.gain_min = gain_min
        self.gain_max = gain_max
        self.x0 = _MARGIN_LEFT
        self.x1 = _WIDTH - _MARGIN_RIGHT
        self.y0 = _MARGIN_TOP
        self.y1 = _HEIGHT - _MARGIN_BOTTOM

    def x(self, phase: float) -> float:
        frac = (phase - _PHASE_MIN) / (_PHASE_MAX - _PHASE_MIN)
        return self.x0 + frac * (self.x1 - self.x0)

    def y(self, gain: float) -> float:
        frac = (gain - self.gain_min) / (self.gain_max - self.gain_min)
        return self.y1 - frac * (self.y1 - self.y0)

    def path(self, points: Sequence[Point]) -> str:
        parts = []
        for i, (p, g) in enumerate(points):
            cmd = "M" if i == 0 else "L"
            parts.append(f"{cmd}{_fmt(self.x(p))},{_fmt(self.y(g))}")
        return " ".join(parts)


def _grid_lines(frame: _Frame) -> List[str]:
    out = []
    phase = _PHASE_MIN
    while phase <= _PHASE_MAX + 1e-9:
        x = _fmt(frame.x(phase))
        out.append(
            f'<line x1="{x}" y1="{_fmt(frame.y0)}" x2="{x}" y2="{_fmt(frame.y1)}" '
            f'stroke="{_COLOR_GRID}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{_fmt(frame.y1 + 18.0)}" fill="{_COLOR_AXIS}" '
            f'font-size="11" text-anchor="middle">{phase:g}</text>'
        )
        phase += 45.0
    gain = frame.gain_min
    while gain <= frame.gain_max + 1e-9:
        y = _fmt(frame.y(gain))
        out.append(
            f'<line x1="{_fmt(frame.x0)}" y1="{y}" x2="{_fmt(frame.x1)}" y2="{y}" '
            f'stroke="{_COLOR_GRID}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(frame.x0 - 8.0)}" y="{_fmt(float(y) + 4.0)}" fill="{_COLOR_AXIS}" '
            f'font-size="11" text-anchor="end">{gain:g}</text>'
        )
        gain += 10.0
    return out


def emit_nichols_svg(
    templates: Sequence[Tuple[str, Sequence[Point]]] = (),
    bound_curves: Sequence[Tuple[str, Sequence[Sequence[Point]]]] = (),
    u_contour: Sequence[Point] = (),
    plant_curve: Sequence[Point] = (),
    loop_curve: Sequence[Point] = (),
    loop_markers: Sequence[Tuple[float, float, str]] = (),
) -> str:
    """Render the chart layers into one SVG document string.

    Every layer is optional; an all-empty call still yields a chart with
    axes.  ``templates`` and ``bound_curves`` carry a label per group;
    bound curves come as lists of polyline segments (a bound with
    unconstrained gaps is drawn as disconnected runs).  ``loop_markers``
    are (phase, gain, label) circles highlighting the design frequencies on
    the open-loop curve.  Output is deterministic: fixed layer order, fixed
    palette, fixed numeric formatting, no timestamps or generated ids.
    """
    template_layers = [(label, _finite(pts)) for label, pts in templates]
    bound_layers = [
        (label, [_finite(seg) for seg in segs]) for label, segs in bound_curves
    ]
    u_points = _finite(u_contour)
    plant_points = _finite(plant_curve)
    loop_points = _finite(loop_curve)
    marker_points = [
        (p, g, label)
        for p, g, label in loop_markers
        if math.isfinite(p) and math.isfinite(g) and _PHASE_MIN <= p <= _PHASE_MAX
    ]

    all_layers: List[Sequence[Point]] = [u_points, plant_points, loop_points]
    all_layers.extend(pts for _, pts in template_layers)
    for _, segs in bound_layers:
        all_layers.extend(segs)
    all_layers.append([(p, g) for p, g, _ in marker_points])
    gain_min, gain_max = _gain_range(all_layers)
    frame = _Frame(gain_min, gain_max)

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">'
    )
    parts.append(f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="#ffffff"/>')

    parts.extend(_grid_lines(frame))
    # axis frame and titles
    parts.append(
        f'<rect x="{_fmt(frame.x0)}" y="{_fmt(frame.y0)}" '
        f'width="{_fmt(frame.x1 - frame.x0)}" height="{_fmt(frame.y1 - frame.y0)}" '
        f'fill="none" stroke="{_COLOR_AXIS}" stroke-width="1"/>'
    )
    mid_x = _fmt((frame.x0 + frame.x1) / 2.0)
    parts.append(
        f'<text x="{mid_x}" y="{_fmt(_HEIGHT - 14.0)}" fill="{_COLOR_AXIS}" '
        f'font-size="13" text-anchor="middle">open-loop phase (deg)</text>'
    )
    parts.append(
        f'<text x="18" y="{_fmt((frame.y0 + frame.y1) / 2.0)}" fill="{_COLOR_AXIS}" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fmt((frame.y0 + frame.y1) / 2.0)})">open-loop gain (dB)</text>'
    )

    if u_points:
        parts.append(
            f'<path d="{frame.path(u_points)} Z" fill="{_COLOR_UCONTOUR}" fill-opacity="0.08" '
            f'stroke="{_COLOR_UCONTOUR}" stroke-width="1.5"/>'
        )
    for label, segments in bound_layers:
        for segment in segments:
            if len(segment) == 1:
                p, g = segment[0]
                parts.append(
                    f'<circle cx="{_fmt(frame.x(p))}" cy="{_fmt(frame.y(g))}" r="1.6" '
                    f'fill="{_COLOR_BOUND}"/>'
                )
            elif segment:
                parts.append(
                    f'<path d="{frame.path(segment)}" fill="none" stroke="{_COLOR_BOUND}" '
                    f'stroke-width="1.2"/>'
                )
        anchor = next((seg[0] for seg in segments if seg), None)
        if anchor is not None and label:
            parts.append(
                f'<text x="{_fmt(frame.x(anchor[0]) + 4.0)}" y="{_fmt(frame.y(anchor[1]) - 4.0)}" '
                f'fill="{_COLOR_BOUND}" font-size="10">{label}</text>'
            )
    for label, points in template_layers:
        for p, g in points:
            parts.append(
                f'<circle cx="{_fmt(frame.x(p))}" cy="{_fmt(frame.y(g))}" r="1.6" '
                f'fill="{_COLOR_TEMPLATE}" fill-opacity="0.7"/>'
            )
        if points and label:
            p, g = points[0]
            parts.append(
                f'<text x="{_fmt(frame.x(p) + 4.0)}" y="{_fmt(frame.y(g) + 10.0)}" '
                f'fill="{_COLOR_TEMPLATE}" font-size="10">{label}</text>'
            )
    if plant_points:
        parts.append(
            f'<path d="{frame.path(plant_points)}" fill="none" stroke="{_COLOR_PLANT}" '
            f'stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
    if loop_points:
        parts.append(
            f'<path d="{frame.path(loop_points)}" fill="none" stroke="{_COLOR_LOOP}" '
            f'stroke-width="1.8"/>'
        )
    for p, g, label in marker_points:
        cx = _fmt(frame.x(p))
        cy = _fmt(frame.y(g))
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="5" fill="none" stroke="{_COLOR_LOOP}" '
            f'stroke-width="1.5"/>'
        )
        if label:
            parts.append(
                f'<text x="{_fmt(frame.x(p) + 7.0)}" y="{_fmt(frame.y(g) - 7.0)}" '
                f'fill="{_COLOR_LOOP}" font-size="10">{label}</text>'
            )

    legend_entries = []
    if template_layers:
        legend_entries.append(("uncertainty templates", _COLOR_TEMPLATE))
    if bound_layers:
        legend_entries.append(("design bounds", _COLOR_BOUND))
    if u_points:
        legend_entries.append(("stability contour", _COLOR_UCONTOUR))
    if plant_points:
        legend_entries.append(("nominal plant", _COLOR_PLANT))
    if loop_points:
        legend_entries.append(("shaped open loop", _COLOR_LOOP))
    if marker_points:
        legend_entries.append(("design frequencies", _COLOR_LOOP))
    lx = frame.x1 + 14.0
    for i, (label, color) in enumerate(legend_entries):
        ly = frame.y0 + 10.0 + 18.0 * i
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 18.0)}" y2="{_fmt(ly)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 24.0)}" y="{_fmt(ly + 4.0)}" fill="{_COLOR_AXIS}" '
            f'font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
