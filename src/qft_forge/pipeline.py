"""Run orchestration: templates -> bounds -> design -> verify, plus artifacts.

Each stage is a pure function of the validated configuration and the outputs
of earlier stages; :func:`run_command` chains the stages a command needs,
writes that command's artifact files into the output directory, and returns
everything computed so callers (the CLI, tests) can inspect results without
re-parsing their own files.  All files are written with ``\n`` newlines and
shortest round-trip float formatting, so re-running a command on the same
configuration reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    BoundCurve,
    UContour,
    combine_with_ucontour,
    delta_spread,
    disturbance_bound,
    horowitz_bound,
    make_phase_grid,
)
from .config import DesignConfig
from .lti import to_nichols, to_nichols_array, wrap_phase_array
from .optimizer import (
    DesignProblem,
    DesignResult,
    MarginEntry,
    PidGains,
    SweepScreen,
    design_controller,
    filtered_derivative_transform,
    physical_gains,
)
from .plant import Template, UncertainPlant, evaluate_plant_array, generate_templates
from .svgchart import emit_nichols_svg
from .verify import (
    GainAxis,
    OracleBox,
    OracleResult,
    VerificationReport,
    brute_force_design,
    default_dense_grid,
    responses_at,
    verify_design,
)

__all__ = [
    "COMMANDS",
    "RunArtifacts",
    "nominal_sweep",
    "compute_templates",
    "compute_bounds",
    "build_problem",
    "compute_design",
    "compute_verification",
    "compute_oracle",
    "run_command",
    "DEFAULT_ORACLE_BOX",
]

COMMANDS = ("templates", "bounds", "design", "verify", "all")
_STAGE_DEPTH = {"templates": 0, "bounds": 1, "design": 2, "verify": 3, "all": 3}

DEFAULT_ORACLE_BOX = OracleBox(
    kp=GainAxis(0.0, 50.0, 0.05),
    ki=GainAxis(0.0, 50.0, 0.05),
    kd=GainAxis(0.0, 50.0, 0.05),
)

# (omegas, nominal responses) on the dense grid; see nominal_sweep
Sweep = Tuple[np.ndarray, np.ndarray]


@dataclass
class RunArtifacts:
    """Everything a run computed, plus the files it wrote."""

    out_dir: str
    written: Tuple[str, ...] = ()
    templates: Dict[float, Template] = field(default_factory=dict)
    bound_curves: Tuple[BoundCurve, ...] = ()
    contour: Optional[UContour] = None
    problem: Optional[DesignProblem] = None
    design: Optional[DesignResult] = None
    physical_gains: Optional[PidGains] = None
    verification: Optional[VerificationReport] = None
    oracle: Optional[OracleResult] = None


def effective_plant(config: DesignConfig) -> UncertainPlant:
    """The plant the design actually runs against.

    With a derivative-filter time constant configured, the filter is folded
    into the plant denominator.  Only :func:`compute_templates` and
    :func:`nominal_sweep` evaluate it; later stages read their results.
    """
    if config.design.tau is None:
        return config.plant
    return filtered_derivative_transform(config.plant, config.design.tau)


def nominal_sweep(config: DesignConfig) -> Sweep:
    """The effective plant's nominal response on the run's dense grid, as
    ``(omegas, responses)``.

    The grid holds every design frequency.  A run evaluates this once and
    hands it to the design problem, the stability screen, verification and
    the chart.
    """
    plant = effective_plant(config)
    omegas = default_dense_grid(config.frequencies)
    return omegas, evaluate_plant_array(plant, plant.nominal, 1j * omegas)


def compute_templates(config: DesignConfig) -> Dict[float, Template]:
    """Uncertainty templates at every design frequency, ascending order."""
    return generate_templates(effective_plant(config), config.frequencies)


def _performance_curve(
    config: DesignConfig, templates: Dict[float, Template], omega: float, grid: Sequence[float]
) -> BoundCurve:
    """Tracking-spread bound at one frequency, merged entrywise with its
    sensitivity-cap bound when the configuration caps this frequency; the
    sentinel encoding makes ``max`` the combination rule."""
    template = templates[omega]
    use_hull = config.design.use_hull
    curve = horowitz_bound(template, delta_spread(config.tracking, omega), grid, use_hull=use_hull)
    if omega in config.disturbance:
        cap = disturbance_bound(template, config.disturbance[omega], grid, use_hull=use_hull)
        merged = tuple(map(max, curve.min_gain_db, cap.min_gain_db))
        curve = BoundCurve(omega=curve.omega, phase_grid=curve.phase_grid, min_gain_db=merged)
    return curve


def compute_bounds(
    config: DesignConfig,
    templates: Dict[float, Template],
) -> Tuple[Tuple[BoundCurve, ...], UContour]:
    """Combined per-frequency design bounds plus the stability contour, which
    carries the high-frequency span it drops its bottom edge by.

    Per frequency: the tracking-spread bound, optionally merged with a
    sensitivity-cap bound, then folded with the contour top over its phase
    range.
    """
    grid = make_phase_grid(config.phase_grid_count)
    if config.delta_hf_override is not None:
        delta_hf = config.delta_hf_override
    else:
        delta_hf = templates[config.frequencies[-1]].gain_span_db()
    contour = UContour(config.m_value, delta_hf)
    curves = tuple(
        combine_with_ucontour(_performance_curve(config, templates, omega, grid), contour)
        for omega in config.frequencies
    )
    return curves, contour


def build_problem(
    config: DesignConfig,
    curves: Sequence[BoundCurve],
    sweep: Sweep,
) -> DesignProblem:
    return DesignProblem(
        frequencies=config.frequencies,
        nominal_responses=tuple(responses_at(sweep, config.frequencies)),
        bounds=tuple(curves),
        phase_grid=make_phase_grid(config.phase_grid_count),
        pair_indices=config.pair_indices(),
    )


def compute_design(
    config: DesignConfig,
    problem: DesignProblem,
    contour: UContour,
    sweep: Sweep,
) -> Tuple[DesignResult, Optional[PidGains]]:
    """Run the configured controller search, with the whole-curve screen on.

    The per-frequency bounds see the loop only at the design frequencies;
    the screen additionally rejects candidates whose nominal response dips
    into the stability contour anywhere on a dense grid, which is the same
    condition the verify stage would fail them on.  Returns the search
    result and, when a derivative filter is configured, the mapped-back
    physical gains (None otherwise, or when infeasible).
    """
    result = design_controller(problem, config.design.kind, SweepScreen(contour, *sweep))
    physical = None
    if result.feasible and config.design.tau is not None:
        physical = physical_gains(result.gains, config.design.tau)
    return result, physical


def compute_verification(
    config: DesignConfig,
    templates: Dict[float, Template],
    gains: PidGains,
    curves: Sequence[BoundCurve],
    contour: UContour,
    sweep: Sweep,
) -> VerificationReport:
    """Full post-design check on the run's templates and nominal sweep; the
    tracking envelope only when the configuration carries a prefilter."""
    return verify_design(
        config.plant,
        templates,
        gains,
        curves,
        contour,
        sweep,
        config.tracking,
        config.prefilter,
    )


def compute_oracle(config: DesignConfig, problem: DesignProblem) -> OracleResult:
    box = config.oracle if config.oracle is not None else DEFAULT_ORACLE_BOX
    return brute_force_design(problem, box)


# --- artifact formatting ----------------------------------------------------

def _num(value: float) -> str:
    """Shortest round-trip decimal for a float (negative zero normalised)."""
    value = float(value)
    if value == 0.0:
        value = 0.0
    return repr(value)


def _bound_str(value: float) -> str:
    if value == NO_CONSTRAINT:
        return "NO_CONSTRAINT"
    if value == INFEASIBLE:
        return "INFEASIBLE"
    return _num(value)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_templates_csv(path: str, config: DesignConfig, templates: Dict[float, Template]):
    names = tuple(spec.name for spec in config.plant.params)
    header = ["omega", *names, "phase_deg", "gain_db", "on_hull"]

    def rows():  # streamed: collecting every row raised the run's peak memory
        for omega in config.frequencies:
            t = templates[omega]
            hull = set(t.hull_indices.tolist())
            columns = (t.points.tolist(), t.phase_deg.tolist(), t.gain_db.tolist())
            for i, (point, phase, gain) in enumerate(zip(*columns)):
                on_hull = "1" if i in hull else "0"
                yield [_num(omega), *map(_num, point), _num(phase), _num(gain), on_hull]

    _write_csv(path, header, rows())


def write_bounds_csv(path: str, curves: Sequence[BoundCurve]):
    rows = (
        [_num(curve.omega), _num(phase), _bound_str(value)]
        for curve in curves
        for phase, value in zip(curve.phase_grid, curve.min_gain_db)
    )
    _write_csv(path, ["omega", "phase_deg", "min_gain_db"], rows)


def write_kd_grid_csv(path: str, result: DesignResult):
    # rows are streamed, not collected, and the grid becomes Python floats one
    # row at a time: holding the servo grid's 32 400 rows as lists of strings
    # set the run's peak memory, and a whole-grid tolist() raised it too
    # the grid holds finite values and INFEASIBLE, never NO_CONSTRAINT
    phases_j = [_num(phase) for phase in result.window_phases_j]
    if result.window_phases_i:
        header = ["phase_i_deg", "phase_j_deg", "kd"]
        rows = (
            [phase_i, phase_j, _bound_str(value)]
            for phase_i, values in zip(map(_num, result.window_phases_i), result.kd_grid)
            for phase_j, value in zip(phases_j, values.tolist())
        )
    else:
        header = ["phase_deg", "objective"]
        values = result.kd_grid[0].tolist()
        rows = ([phase, _bound_str(value)] for phase, value in zip(phases_j, values))
    _write_csv(path, header, rows)


def write_envelope_csv(path: str, report: VerificationReport):
    rows = (
        [_num(r.omega), _num(r.min_db), _num(r.max_db), _num(r.lower_db), _num(r.upper_db)]
        for r in report.envelope
    )
    _write_csv(path, ["omega", "min_db", "max_db", "lower_db", "upper_db"], rows)


def _gains_line(gains: PidGains) -> str:
    return f"kp={_num(gains.kp)} ki={_num(gains.ki)} kd={_num(gains.kd)}"


def _margin_row(entry: MarginEntry) -> str:
    return (
        f"  omega={entry.omega:<8g} phase={entry.phase_deg:10.4f} deg  "
        f"gain={entry.gain_db:10.4f} dB  bound={_bound_str(entry.bound_db):>14}  "
        f"slack={entry.slack_db:10.4f} dB"
    )


def render_design_report(
    config: DesignConfig,
    result: DesignResult,
    physical: Optional[PidGains],
    delta_hf: float,
    oracle: Optional[OracleResult],
) -> str:
    lines: List[str] = []
    lines.append("design report")
    lines.append("=============")
    lines.append(f"controller kind    : {config.design.kind}")
    lines.append(f"phase grid         : {config.phase_grid_count} points")
    # PI and PD pin the phase at the first anchor only
    anchors = config.pair_indices()[: 2 if config.design.kind == "pid" else 1]
    lines.append(
        "anchor frequencies : "
        + ", ".join(f"{config.frequencies[i]:g} rad/s (position {i + 1})" for i in anchors)
    )
    lines.append(f"hf gain span       : {delta_hf:.6f} dB")
    lines.append(f"feasible           : {'yes' if result.feasible else 'no'}")
    if not result.feasible:
        lines.append(f"reason             : {result.reason}")
    if result.gains is not None:
        lines.append(f"gains              : {_gains_line(result.gains)}")
    if physical is not None:
        lines.append(
            f"physical gains     : {_gains_line(physical)} "
            f"(derivative filter tau={_num(config.design.tau)})"
        )
    if result.chosen_phases:
        lines.append(
            "chosen loop phases : "
            + ", ".join(f"{p:.4f} deg" for p in result.chosen_phases)
        )
    if result.beta_db is not None:
        lines.append(f"scaling lift       : {result.beta_db:.6f} dB")
    if result.active_frequency is not None:
        lines.append(f"active frequency   : {result.active_frequency:g} rad/s")
    lines.append(f"screen rejections  : {result.screen_rejections}")
    finite = int((~np.isinf(result.kd_grid)).sum())
    lines.append(
        f"candidate grid     : {result.kd_grid.shape[0]}x{result.kd_grid.shape[1]} "
        f"cells, {finite} feasible"
    )
    if result.margin_report:
        lines.append("margins (design-frequency slack over the combined bounds):")
        lines.extend(map(_margin_row, result.margin_report))
    if oracle is not None:
        lines.append("brute-force cross-check:")
        lines.append(f"  best gains       : {_gains_line(oracle.best_gains)}")
        lines.append(f"  evaluations      : {oracle.evaluations}")
        lines.append(
            "  box              : "
            + " ".join(
                f"{name}=[{_num(axis.lo)},{_num(axis.hi)}] step {_num(axis.step)}"
                for name, axis in (
                    ("kp", oracle.box.kp),
                    ("ki", oracle.box.ki),
                    ("kd", oracle.box.kd),
                )
            )
        )
    return "\n".join(lines) + "\n"


def render_verify_report(report: VerificationReport) -> str:
    lines: List[str] = []
    lines.append("verification report")
    lines.append("===================")
    lines.append(f"verdict : {'PASS' if report.passed else 'FAIL'}")
    lines.append("margins:")
    for m in report.per_frequency_margins:
        lines.append(f"{_margin_row(m)}  source={m.source}")
    inside = report.sweep_violations
    lines.append(
        f"dense sweep : {len(report.sweep_omegas)} points, "
        f"{len(inside)} inside the stability contour"
    )
    for point in inside[:10]:
        lines.append(
            f"  omega={point.omega:.4f} phase={point.phase_deg:.4f} deg "
            f"gain={point.gain_db:.4f} dB"
        )
    if len(inside) > 10:
        lines.append(f"  ... {len(inside) - 10} more")
    if report.envelope:
        lines.append("closed-loop envelope vs reference corridor:")
        for row in report.envelope:
            lines.append(
                f"  omega={row.omega:<8g} family=[{row.min_db:9.4f}, {row.max_db:9.4f}] dB  "
                f"corridor=[{row.lower_db:9.4f}, {row.upper_db:9.4f}] dB  "
                f"inside={'yes' if row.inside() else 'NO'}"
            )
    if report.reasons:
        lines.append("failure reasons:")
        for reason in report.reasons:
            lines.append(f"  - {reason}")
    return "\n".join(lines) + "\n"


# --- figure assembly --------------------------------------------------------

def _nichols_layers(
    config: DesignConfig,
    artifacts: RunArtifacts,
    sweep: Sweep,
) -> Dict[str, object]:
    """The chart's layers, as :func:`emit_nichols_svg`'s keyword arguments."""
    layers: Dict[str, object] = {}
    template_layers = []
    for omega, response in zip(config.frequencies, responses_at(sweep, config.frequencies)):
        template = artifacts.templates[omega]
        base_phase, base_gain = to_nichols(response)
        phases = wrap_phase_array(base_phase + template.phase_deg).tolist()
        points = list(zip(phases, (base_gain + template.gain_db).tolist()))
        template_layers.append((f"w={omega:g}", points))
    layers["templates"] = template_layers

    bound_layers = []
    for curve in artifacts.bound_curves:
        segments: List[List[Tuple[float, float]]] = []
        run: List[Tuple[float, float]] = []
        for phase, value in zip(curve.phase_grid, curve.min_gain_db):
            if math.isfinite(value):
                run.append((phase, value))
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        bound_layers.append((f"w={curve.omega:g}", segments))
    layers["bound_curves"] = bound_layers

    reached = []
    if artifacts.contour is not None:
        grid = make_phase_grid(config.phase_grid_count)
        reached = [(p, e) for p, e in zip(grid, artifacts.contour.edges(grid)) if e is not None]
    layers["u_contour"] = [(p, top) for p, (top, _) in reached] + [
        (p, bottom) for p, (_, bottom) in reversed(reached)
    ]

    # zero responses come out at -inf dB, which the chart drops
    phase, gain = to_nichols_array(sweep[1])
    layers["plant_curve"] = list(zip(phase.tolist(), gain.tolist()))

    loop_points: List[Tuple[float, float]] = []
    markers: List[Tuple[float, float, str]] = []
    if artifacts.design is not None and artifacts.design.gains is not None:
        g = artifacts.design.gains
        phase, gain, _ = SweepScreen(artifacts.contour, *sweep).sweep(g.kp, g.ki, g.kd)
        loop_points = list(zip(phase.tolist(), gain.tolist()))
        # a zero loop's entry sits at -inf dB, which the chart drops
        markers = [
            (entry.phase_deg, entry.gain_db, f"{entry.omega:g}")
            for entry in artifacts.design.margin_report
        ]
    layers["loop_curve"] = loop_points
    layers["loop_markers"] = markers
    return layers


# --- orchestration ---------------------------------------------------------

def run_command(
    config: DesignConfig,
    command: str,
    out_dir: str,
    with_oracle: bool = False,
) -> RunArtifacts:
    """Execute one CLI command: the requested stage plus its prerequisites.

    Writes the artifact files of every stage that ran, so ``all`` and the
    four stages run in sequence leave identical directories.  The chart is
    (re)written by every command with whatever layers exist at that depth.
    Design infeasibility and verification failure are reported in the
    returned artifacts, not raised.
    """
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {COMMANDS}")
    depth = _STAGE_DEPTH[command]
    os.makedirs(out_dir, exist_ok=True)
    artifacts = RunArtifacts(out_dir=out_dir)
    written: List[str] = []

    def emit(name: str, writer: Callable[[str], None]):
        path = os.path.join(out_dir, name)
        writer(path)
        written.append(name)

    artifacts.templates = compute_templates(config)
    emit("templates.csv", lambda p: write_templates_csv(p, config, artifacts.templates))

    if depth >= 1:
        curves, artifacts.contour = compute_bounds(config, artifacts.templates)
        artifacts.bound_curves = curves
        emit("bounds.csv", lambda p: write_bounds_csv(p, curves))

    sweep = nominal_sweep(config)
    if depth >= 2:
        artifacts.problem = build_problem(config, artifacts.bound_curves, sweep)
        result, physical = compute_design(config, artifacts.problem, artifacts.contour, sweep)
        artifacts.design = result
        artifacts.physical_gains = physical
        if with_oracle:
            artifacts.oracle = compute_oracle(config, artifacts.problem)
        emit("kd_grid.csv", lambda p: write_kd_grid_csv(p, result))
        emit(
            "design_report.txt",
            lambda p: _write_text(
                p,
                render_design_report(
                    config, result, physical, artifacts.contour.delta_hf_db, artifacts.oracle
                ),
            ),
        )

    if depth >= 3 and artifacts.design is not None and artifacts.design.feasible:
        report = compute_verification(
            config,
            artifacts.templates,
            artifacts.design.gains,
            artifacts.bound_curves,
            artifacts.contour,
            sweep,
        )
        artifacts.verification = report
        emit("envelope.csv", lambda p: write_envelope_csv(p, report))
        emit("verify_report.txt", lambda p: _write_text(p, render_verify_report(report)))

    layers = _nichols_layers(config, artifacts, sweep)
    emit("nichols.svg", lambda p: _write_text(p, emit_nichols_svg(**layers)))

    artifacts.written = tuple(written)
    return artifacts
