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

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    INFEASIBLE,
    NO_CONSTRAINT,
    BoundCurve,
    UContour,
    delta_spread,
    disturbance_bound,
    horowitz_bound,
    make_phase_grid,
    stability_bound,
)
from .config import DesignConfig
from .errors import BoundBelowUContour
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


def compute_bounds(
    config: DesignConfig,
    templates: Dict[float, Template],
) -> Tuple[Tuple[BoundCurve, ...], UContour]:
    """Combined per-frequency design bounds plus the stability contour, which
    carries the high-frequency span it drops its bottom edge by.

    Per frequency and phase, the ``max`` of the tracking bound, the cap bound
    where one is configured and the stability bound over every member; the
    nominal member's top is the contour top.  A finite performance entry
    below the contour bottom (edges evaluated once) raises
    BoundBelowUContour: the max would forbid what the spec allows.
    """
    grid = make_phase_grid(config.phase_grid_count)
    if config.delta_hf_override is not None:
        delta_hf = config.delta_hf_override
    else:
        delta_hf = templates[config.frequencies[-1]].gain_span_db()
    contour = UContour(config.m_value, delta_hf)
    _, bottom = contour.edges(grid)
    curves = []
    for omega in config.frequencies:
        template = templates[omega]
        delta = delta_spread(config.tracking, omega)
        tracking = horowitz_bound(template, delta, grid, use_hull=config.design.use_hull)
        entries = np.array(tracking.min_gain_db)
        if omega in config.disturbance:
            cap = disturbance_bound(template, config.disturbance[omega], grid)
            np.maximum(entries, cap.min_gain_db, out=entries)
        low = np.flatnonzero(np.isfinite(entries) & (entries < bottom - 1e-9))
        if low.size:
            k = low[0]
            raise BoundBelowUContour(
                f"performance bound {entries[k]:.3f} dB at phase {grid[k]:.1f} deg sits below "
                f"the stability contour bottom {bottom[k]:.3f} dB (omega={template.omega})"
            )
        stability = stability_bound(template, config.m_value, grid)
        np.maximum(entries, stability.min_gain_db, out=entries)
        curves.append(BoundCurve(omega=template.omega, phase_grid=grid, min_gain_db=entries))
    return tuple(curves), contour


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
        templates, gains, curves, contour, sweep, config.tracking, config.prefilter
    )


def compute_oracle(config: DesignConfig, problem: DesignProblem) -> OracleResult:
    box = config.oracle if config.oracle is not None else DEFAULT_ORACLE_BOX
    return brute_force_design(problem, box)


# --- artifact formatting ----------------------------------------------------
#
# Every CSV field is a number, a sentinel word or a parameter name (an
# identifier), so none needs quoting and a row is its fields joined by commas.

def _num(value: float) -> str:
    """Shortest round-trip decimal for a float; ``-0.0 + 0.0`` is ``+0.0``, so
    negative zero is written ``0.0``."""
    return repr(float(value) + 0.0)


def _bound_str(value: float) -> str:
    if value == NO_CONSTRAINT:
        return "NO_CONSTRAINT"
    if value == INFEASIBLE:
        return "INFEASIBLE"
    return _num(value)


def _open_text(path: str):
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path: str, text: str):
    with _open_text(path) as handle:
        handle.write(text)


def _write_blocks(path: str, header: Sequence[str], blocks: Iterable[Tuple[str, List[str]]]):
    """Write a CSV file: the header, then each ``(prefix, lines)`` block as
    ``prefix + prefix.join(lines)`` in one ``write``, so every line, which
    ends in ``\n``, starts with ``prefix``; a block without lines writes
    nothing.

    Blocks are produced and written one at a time, never a whole file: a
    block is one row group (a kd-grid row, a frequency's template, a bound
    curve, the envelope), well under the 64 KiB that ``bounds._BLOCK_CELLS`` budgets for a
    working block.
    """
    with _open_text(path) as handle:
        handle.write(",".join(header) + "\n")
        for prefix, lines in blocks:
            if lines:
                handle.write(prefix + prefix.join(lines))


def write_templates_csv(path: str, config: DesignConfig, templates: Dict[float, Template]):
    """One block per design frequency, numbers as :func:`_num` writes them
    (negative zero as ``0.0``)."""
    names = tuple(spec.name for spec in config.plant.params)
    header = ["omega", *names, "phase_deg", "gain_db", "on_hull"]

    def blocks():
        for omega in config.frequencies:
            t = templates[omega]
            on_hull = np.zeros(len(t.gain_db), dtype=bool)
            on_hull[t.hull_indices] = True
            columns = (t.points, t.phase_deg, t.gain_db, on_hull)
            yield _num(omega) + ",", [
                "".join([repr(v + 0.0) + "," for v in point])
                + f"{phase + 0.0!r},{gain + 0.0!r},{'1' if hull else '0'}\n"
                for point, phase, gain, hull in zip(*(column.tolist() for column in columns))
            ]

    _write_blocks(path, header, blocks())


def write_bounds_csv(path: str, curves: Sequence[BoundCurve]):
    """One block per curve; sentinel entries as their names, numbers as
    :func:`_num` writes them (negative zero as ``0.0``)."""
    blocks = (
        (
            _num(curve.omega) + ",",
            [
                f"{phase + 0.0!r},{_bound_str(value)}\n"
                for phase, value in zip(curve.phase_grid, curve.min_gain_db)
            ],
        )
        for curve in curves
    )
    _write_blocks(path, ["omega", "phase_deg", "min_gain_db"], blocks)


def write_kd_grid_csv(path: str, result: DesignResult):
    """One block per ``phase_i`` row (a single block for PI and PD, whose
    file is ``phase_deg,objective``).

    The grid holds finite values and INFEASIBLE, never NO_CONSTRAINT: each
    row starts from the ``phase_j,INFEASIBLE`` lines, built once, and formats
    only its other cells, as :func:`_num` writes them (negative zero as
    ``0.0``).  Rows are converted to Python floats one at a time; a
    whole-grid ``tolist()`` raised the run's peak memory.
    """
    phases_j = [_num(phase) for phase in result.window_phases_j]
    infeasible = [f"{phase},INFEASIBLE\n" for phase in phases_j]

    def lines(values: np.ndarray) -> List[str]:
        row = infeasible.copy()
        cells = np.flatnonzero(values != INFEASIBLE)
        for j, value in zip(cells.tolist(), values[cells].tolist()):
            row[j] = f"{phases_j[j]},{value + 0.0!r}\n"
        return row

    if result.window_phases_i:
        header = ["phase_i_deg", "phase_j_deg", "kd"]
        blocks = (
            (_num(phase_i) + ",", lines(values))
            for phase_i, values in zip(result.window_phases_i, result.kd_grid)
        )
    else:
        header = ["phase_deg", "objective"]
        blocks = [("", lines(result.kd_grid[0]))]
    _write_blocks(path, header, blocks)


def write_envelope_csv(path: str, report: VerificationReport):
    """One block for the whole file, numbers as :func:`_num` writes them
    (negative zero as ``0.0``, an unbounded member's ``max_db`` as ``inf``)."""
    lines = [
        ",".join(map(_num, (r.omega, r.min_db, r.max_db, r.lower_db, r.upper_db))) + "\n"
        for r in report.envelope
    ]
    _write_blocks(path, ["omega", "min_db", "max_db", "lower_db", "upper_db"], [("", lines)])


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
        phases = wrap_phase_array(base_phase + template.phase_deg)
        rows = np.column_stack((phases, base_gain + template.gain_db))
        template_layers.append((f"w={omega:g}", rows))
    layers["templates"] = template_layers

    bound_layers = []
    for curve in artifacts.bound_curves:
        # the runs of finite entries, split where a sentinel interrupts them
        rows = np.column_stack((curve.phase_grid, curve.min_gain_db))
        finite = np.isfinite(rows[:, 1])
        runs = np.split(rows, np.flatnonzero(np.diff(finite)) + 1)
        bound_layers.append((f"w={curve.omega:g}", [run for run in runs if np.isfinite(run[0, 1])]))
    layers["bound_curves"] = bound_layers

    if artifacts.contour is not None:
        # the tops in grid order, then the bottoms reversed; the chart drops
        # the NaN rows where the contour does not reach
        grid = np.array(make_phase_grid(config.phase_grid_count))
        top, bottom = artifacts.contour.edges(grid)
        layers["u_contour"] = np.column_stack((np.r_[grid, grid[::-1]], np.r_[top, bottom[::-1]]))

    # zero responses come out at -inf dB, which the chart drops
    layers["plant_curve"] = np.column_stack(to_nichols_array(sweep[1]))

    loop_rows = ()
    markers: List[Tuple[float, float, str]] = []
    if artifacts.design is not None and artifacts.design.gains is not None:
        g = artifacts.design.gains
        phase, gain, _ = SweepScreen(artifacts.contour, *sweep).sweep(g.kp, g.ki, g.kd)
        loop_rows = np.column_stack((phase, gain))
        # a zero loop's entry sits at -inf dB, which the chart drops
        markers = [
            (entry.phase_deg, entry.gain_db, f"{entry.omega:g}")
            for entry in artifacts.design.margin_report
        ]
    layers["loop_curve"] = loop_rows
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

    def write_chart(path: str):
        with _open_text(path) as handle:
            emit_nichols_svg(handle, **layers)

    emit("nichols.svg", write_chart)

    artifacts.written = tuple(written)
    return artifacts
