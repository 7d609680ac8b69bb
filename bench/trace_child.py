"""Run ``qft-forge`` in-process with a span around every call into each layer.

Usage: python trace_child.py RESULT.json -- <qft-forge arguments>

Imports ``qft_forge.cli`` (timed as ``cli.import``), wraps the layer entry
points named in ``WRAPS`` and calls ``cli.main`` with the given arguments.
Spans nest by call stack; per span name it records calls, busy time (the
span's duration) and self time (duration minus direct child spans).  Counts
are read off the wrapped calls' return values.  A name the program no longer
has is listed under ``missing`` and its span simply never fires.  The exit
code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

perf = time.perf_counter


class Tracer:
    """Aggregated spans: per name, calls, busy and self seconds."""

    def __init__(self):
        self.spans: Dict[str, Dict[str, float]] = {}
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self._child_time: List[float] = []

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def run(self, name: str, fn: Callable, args, kwargs, counter: Optional[Callable]):
        self._child_time.append(0.0)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = perf() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
            span = self.spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            span["calls"] += 1
            span["busy_s"] += duration
            span["self_s"] += duration - children
        if counter is not None:
            try:
                counter(self, result, args, kwargs)
            except (AttributeError, TypeError, ValueError, KeyError, IndexError) as exc:
                self.missing.append(f"count of {name}: {type(exc).__name__}: {exc}")
        return result

    def wrap(self, owner, attr: str, name: str, counter: Optional[Callable] = None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs, counter)

        setattr(owner, attr, traced)


# --- counters: read off each wrapped call's return value ---------------------

def _templates(tracer, templates, args, kwargs):
    tracer.add("plant.template_points", sum(len(t.points) for t in templates.values()))
    tracer.add("plant.hull_points", sum(len(t.hull_indices) for t in templates.values()))


def _bounds(tracer, result, args, kwargs):
    values = [v for curve in result[0] for v in curve.min_gain_db]
    tracer.add("bounds.entries", len(values))
    tracer.add("bounds.no_constraint_entries", sum(1 for v in values if v == float("-inf")))
    tracer.add("bounds.infeasible_entries", sum(1 for v in values if v == float("inf")))


def _design(tracer, result, args, kwargs):
    grid = result[0].kd_grid
    tracer.add("optimizer.grid_cells", int(grid.size))
    tracer.add("optimizer.feasible_cells", int((grid != float("inf")).sum()))


def _screen(tracer, admitted, args, kwargs):
    tracer.add("optimizer.screen_admitted", 1 if admitted else 0)


def _envelope(tracer, rows, args, kwargs):
    plant = args[0]
    samples = kwargs.get("samples_per_parameter", args[5] if len(args) > 5 else None)
    members = 1
    for spec in plant.params:
        members *= len(spec.grid(samples))
    tracer.add("verify.envelope_evaluations", len(rows) * members)


def _oracle(tracer, result, args, kwargs):
    tracer.add("verify.oracle_evaluations", result.evaluations)


def _run_command(tracer, artifacts, args, kwargs):
    tracer.add(
        "pipeline.artifact_bytes",
        sum(os.path.getsize(os.path.join(artifacts.out_dir, n)) for n in artifacts.written),
    )


def install(tracer: Tracer, cli, pipeline, optimizer, verify):
    """Wrap the layer entry points; module attributes are what callers look up."""
    tracer.wrap(cli, "load_config", "config.load")
    tracer.wrap(cli, "run_command", "pipeline", _run_command)
    tracer.wrap(pipeline, "compute_templates", "plant", _templates)
    tracer.wrap(pipeline, "compute_bounds", "bounds", _bounds)
    tracer.wrap(pipeline, "horowitz_bound", "bounds.tracking")
    tracer.wrap(pipeline, "disturbance_bound", "bounds.disturbance")
    tracer.wrap(pipeline, "compute_design", "optimizer", _design)
    tracer.wrap(pipeline, "compute_verification", "verify")
    tracer.wrap(pipeline, "compute_oracle", "verify.oracle", _oracle)
    tracer.wrap(pipeline, "emit_nichols_svg", "svgchart")
    tracer.wrap(optimizer, "kernel_direction", "optimizer.kernel")
    tracer.wrap(optimizer, "beta_scaling", "optimizer.scaling")
    screen = getattr(optimizer, "SweepScreen", None)
    if screen is None:
        tracer.missing.append("optimizer.SweepScreen")
    else:
        tracer.wrap(screen, "admits", "optimizer.screen", _screen)
    tracer.wrap(verify, "closed_loop_envelope", "verify.envelope", _envelope)


def main(argv: List[str]) -> int:
    result_path, separator, cli_argv = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: trace_child.py RESULT.json -- <qft-forge arguments>")
    start = perf()
    from qft_forge import cli, optimizer, pipeline, verify

    import_s = perf() - start
    tracer = Tracer()
    install(tracer, cli, pipeline, optimizer, verify)
    code = tracer.run("cli.main", cli.main, (cli_argv,), {}, None)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "exit_code": code,
                "import_s": import_s,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "missing": tracer.missing,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
