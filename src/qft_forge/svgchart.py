"""Deterministic Nichols-chart rendering to a self-contained SVG document.

The chart is the package's one figure: phase (degrees, -360..0) on the
horizontal axis, gain (dB) on the vertical, with up to six layers drawn in a
fixed order — grid, stability contour, bound curves, templates, nominal
plant curve, shaped open-loop curve with circular markers at the design
frequencies.  The document is written to a text handle one element per line,
every element through one writer, with fixed-precision coordinates and a
fixed palette, so two runs on the same data produce byte-identical files.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Sequence, TextIO, Tuple

import numpy as np

__all__ = ["emit_nichols_svg"]

# geometry (pixels)
_WIDTH = 960.0
_HEIGHT = 640.0
_X0 = 64.0  # left margin
_X1 = _WIDTH - 168.0  # the right margin leaves room for the legend column
_Y0 = 36.0  # top margin
_Y1 = _HEIGHT - 52.0  # bottom margin

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

Rows = Sequence[Tuple[float, float]]  # (phase_deg, gain_db) rows, or an (n, 2) array


def _fmt(value: float) -> str:
    """Fixed two-decimal coordinate formatting (deterministic, compact)."""
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _path(xs: np.ndarray, ys: np.ndarray) -> str:
    """Path data ``Mx,y Lx,y ...`` for pixel coordinates, formatted in one
    pass with :func:`_fmt`'s rule: a coordinate is an optional ``-`` and
    digits with two decimals, so ``-0.00`` only ever matches a whole one."""
    coords = np.column_stack((xs, ys)).ravel().tolist()
    text = ("M" + " L".join(("{:.2f},{:.2f}",) * len(xs))).format(*coords)
    return text.replace("-0.00", "0.00")


def _el(tag: str, text: str = "", **attrs: str) -> str:
    """One element on one line; attribute ``a_b`` is written ``a-b``, in call order."""
    head = "".join(f' {name.replace("_", "-")}="{value}"' for name, value in attrs.items())
    if not text:
        return f"<{tag}{head}/>\n"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{tag}{head}>{text}</{tag}>\n"


def _on_chart(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows with a finite gain and a phase on the -360..0 axis."""
    phase = rows[:, 0]
    return np.isfinite(rows[:, 1]) & (phase >= _PHASE_MIN) & (phase <= _PHASE_MAX)


def _kept(points: Rows) -> np.ndarray:
    rows = np.asarray(points, dtype=float).reshape(-1, 2)
    return rows[_on_chart(rows)]


def emit_nichols_svg(
    out: TextIO,
    templates: Sequence[Tuple[str, Rows]] = (),
    bound_curves: Sequence[Tuple[str, Sequence[Rows]]] = (),
    u_contour: Rows = (),
    plant_curve: Rows = (),
    loop_curve: Rows = (),
    loop_markers: Sequence[Tuple[float, float, str]] = (),
) -> None:
    """Write the chart layers to ``out`` as one SVG document.

    Every (phase, gain) run is an (n, 2) array or a list of pairs; rows off
    the chart (non-finite gain, phase outside -360..0) are dropped.  Every
    layer is optional; an all-empty call still yields a chart with axes.
    ``templates`` and ``bound_curves`` carry a label per group; bound curves
    come as lists of polyline segments (a bound with unconstrained gaps is
    drawn as disconnected runs).  ``loop_markers`` are (phase, gain, label)
    circles highlighting the design frequencies on the open-loop curve.
    Output is deterministic: fixed layer order, fixed palette, fixed numeric
    formatting, no timestamps or generated ids.
    """
    template_layers = [(label, _kept(points)) for label, points in templates]
    bound_layers = [(label, [_kept(seg) for seg in segs]) for label, segs in bound_curves]
    u_rows = _kept(u_contour)
    plant_rows = _kept(plant_curve)
    loop_rows = _kept(loop_curve)
    marker_rows = np.array([(p, g) for p, g, _ in loop_markers], dtype=float).reshape(-1, 2)
    keep = _on_chart(marker_rows)
    marker_rows = marker_rows[keep]
    marker_labels = list(compress([label for _, _, label in loop_markers], keep))

    layers = [u_rows, plant_rows, loop_rows, marker_rows]
    layers.extend(rows for _, rows in template_layers)
    layers.extend(seg for _, segs in bound_layers for seg in segs)
    gains = [f(rows[:, 1]) for rows in layers if len(rows) for f in (np.min, np.max)]
    if gains:
        gain_min, gain_max = min(gains), max(gains)
        if gain_min == gain_max:
            gain_min -= 10.0
            gain_max += 10.0
        # snap outward to multiples of 10 dB with a little headroom
        gain_min = 10.0 * math.floor((gain_min - 2.0) / 10.0)
        gain_max = 10.0 * math.ceil((gain_max + 2.0) / 10.0)
    else:
        gain_min, gain_max = -60.0, 40.0

    def x(phase):
        return _X0 + (phase - _PHASE_MIN) / (_PHASE_MAX - _PHASE_MIN) * (_X1 - _X0)

    def y(gain):
        return _Y1 - (gain - gain_min) / (gain_max - gain_min) * (_Y1 - _Y0)

    def pixels(rows: np.ndarray):
        return zip(x(rows[:, 0]).tolist(), y(rows[:, 1]).tolist())

    def path(rows: np.ndarray) -> str:
        return _path(x(rows[:, 0]), y(rows[:, 1]))

    def put(tag: str, text: str = "", **attrs: str):
        out.write(_el(tag, text, **attrs))

    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">\n'
    )
    put("rect", width=f"{_WIDTH:g}", height=f"{_HEIGHT:g}", fill="#ffffff")
    grid = dict(stroke=_COLOR_GRID, stroke_width="1")
    tick = dict(fill=_COLOR_AXIS, font_size="11")
    for phase in range(int(_PHASE_MIN), int(_PHASE_MAX) + 1, 45):
        px = _fmt(x(phase))
        put("line", x1=px, y1=_fmt(_Y0), x2=px, y2=_fmt(_Y1), **grid)
        put("text", f"{phase:g}", x=px, y=_fmt(_Y1 + 18.0), **tick, text_anchor="middle")
    for gain in range(int(gain_min), int(gain_max) + 1, 10):
        py = _fmt(y(gain))
        put("line", x1=_fmt(_X0), y1=py, x2=_fmt(_X1), y2=py, **grid)
        ty = _fmt(float(py) + 4.0)  # offset from the rounded tick position
        put("text", f"{gain:g}", x=_fmt(_X0 - 8.0), y=ty, **tick, text_anchor="end")
    # axis frame and titles
    put("rect", x=_fmt(_X0), y=_fmt(_Y0), width=_fmt(_X1 - _X0), height=_fmt(_Y1 - _Y0),
        fill="none", stroke=_COLOR_AXIS, stroke_width="1")
    title = dict(fill=_COLOR_AXIS, font_size="13", text_anchor="middle")
    mid_x, mid_y = _fmt((_X0 + _X1) / 2.0), _fmt((_Y0 + _Y1) / 2.0)
    put("text", "open-loop phase (deg)", x=mid_x, y=_fmt(_HEIGHT - 14.0), **title)
    put("text", "open-loop gain (dB)", x="18", y=mid_y, **title,
        transform=f"rotate(-90 18 {mid_y})")

    if len(u_rows):
        put("path", d=f"{path(u_rows)} Z", fill=_COLOR_UCONTOUR, fill_opacity="0.08",
            stroke=_COLOR_UCONTOUR, stroke_width="1.5")
    for label, segments in bound_layers:
        for segment in segments:
            if len(segment) == 1:
                px, py = next(pixels(segment))
                put("circle", cx=_fmt(px), cy=_fmt(py), r="1.6", fill=_COLOR_BOUND)
            elif len(segment):
                put("path", d=path(segment), fill="none", stroke=_COLOR_BOUND, stroke_width="1.2")
        anchor = next((seg[:1] for seg in segments if len(seg)), None)
        if anchor is not None and label:
            px, py = next(pixels(anchor))
            put("text", label, x=_fmt(px + 4.0), y=_fmt(py - 4.0), fill=_COLOR_BOUND,
                font_size="10")
    # thousands of dots: the element is built once, only its coordinates per point
    dot = _el("circle", cx="{}", cy="{}", r="1.6", fill=_COLOR_TEMPLATE, fill_opacity="0.7")
    for label, rows in template_layers:
        for px, py in pixels(rows):
            out.write(dot.format(_fmt(px), _fmt(py)))
        if len(rows) and label:
            px, py = next(pixels(rows[:1]))
            put("text", label, x=_fmt(px + 4.0), y=_fmt(py + 10.0), fill=_COLOR_TEMPLATE,
                font_size="10")
    if len(plant_rows):
        put("path", d=path(plant_rows), fill="none", stroke=_COLOR_PLANT, stroke_width="1.5",
            stroke_dasharray="6 4")
    if len(loop_rows):
        put("path", d=path(loop_rows), fill="none", stroke=_COLOR_LOOP, stroke_width="1.8")
    for (px, py), label in zip(pixels(marker_rows), marker_labels):
        put("circle", cx=_fmt(px), cy=_fmt(py), r="5", fill="none", stroke=_COLOR_LOOP,
            stroke_width="1.5")
        if label:
            put("text", label, x=_fmt(px + 7.0), y=_fmt(py - 7.0), fill=_COLOR_LOOP,
                font_size="10")

    legend = [
        (label, color)
        for label, color, layer in (
            ("uncertainty templates", _COLOR_TEMPLATE, template_layers),
            ("design bounds", _COLOR_BOUND, bound_layers),
            ("stability contour", _COLOR_UCONTOUR, u_rows),
            ("nominal plant", _COLOR_PLANT, plant_rows),
            ("shaped open loop", _COLOR_LOOP, loop_rows),
            ("design frequencies", _COLOR_LOOP, marker_rows),
        )
        if len(layer)
    ]
    lx = _X1 + 14.0
    for i, (label, color) in enumerate(legend):
        ly = _Y0 + 10.0 + 18.0 * i
        put("line", x1=_fmt(lx), y1=_fmt(ly), x2=_fmt(lx + 18.0), y2=_fmt(ly), stroke=color,
            stroke_width="2")
        put("text", label, x=_fmt(lx + 24.0), y=_fmt(ly + 4.0), fill=_COLOR_AXIS, font_size="11")
    out.write("</svg>\n")
