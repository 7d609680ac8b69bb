"""Shared fixtures: the servo example stack plus a smaller, faster variant.

The "servo" fixtures load ``configs/servo.json`` (two-parameter motor plant,
eight design frequencies, 360-point phase grid) and run the pipeline stages
once per session.  The "reduced" fixtures shrink that problem to three
frequencies and a 24-point grid so structural tests stay fast.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from qft_forge.config import DesignConfig, load_config
from qft_forge.lti import RationalTransferFunction
from qft_forge.optimizer import PidGains, design_controller
from qft_forge.pipeline import (
    build_problem,
    compute_bounds,
    compute_design,
    compute_templates,
    nominal_sweep,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SERVO_CONFIG_PATH = REPO_ROOT / "configs" / "servo.json"


def workload_raw(name: str) -> dict:
    """The benchmark workload ``name``'s seed-1 configuration as parsed JSON."""
    path = REPO_ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return json.loads(workloads.config_bytes(name, 1))


def within_one_turn(nodes) -> list:
    """The sorted ``nodes`` that lie less than 360 deg past the least: a
    phase grid a ``BoundCurve`` accepts, for hypothesis strategies to map
    their drawn node lists through."""
    nodes = sorted(nodes)
    return [p for p in nodes if p - nodes[0] < 360.0]


# Fixed external reference controller for the servo plant; several tests
# check margins and acceptance bands against this point design.
REFERENCE_GAINS = PidGains(kp=12.6, ki=4.46, kd=3.95)

# The servo config's prefilter: unity dc gain, poles at -3.5 and -7.5.
PREFILTER = RationalTransferFunction([26.25], [1.0, 11.0, 26.25])

# Stand-in for a SweepScreen that admits every candidate, so a search returns
# the least-objective cell of its raw grid.
ADMIT_ALL = SimpleNamespace(first_admitted=lambda kd, ki, kp: 0 if len(kd) else None)


@pytest.fixture(scope="session")
def servo_config() -> DesignConfig:
    return load_config(str(SERVO_CONFIG_PATH))


@pytest.fixture(scope="session")
def servo_stack(servo_config):
    """Templates, combined bounds, stability contour and design problem."""
    templates = compute_templates(servo_config)
    curves, contour = compute_bounds(servo_config, templates)
    sweep = nominal_sweep(servo_config)
    problem = build_problem(servo_config, curves, sweep)
    return SimpleNamespace(
        templates=templates,
        curves=curves,
        contour=contour,
        sweep=sweep,
        problem=problem,
    )


@pytest.fixture(scope="session")
def servo_design(servo_config, servo_stack):
    """Screened PID search result on the full servo problem."""
    result, _physical = compute_design(
        servo_config, servo_stack.problem, servo_stack.contour, servo_stack.sweep
    )
    return result


@pytest.fixture(scope="session")
def reduced_config(servo_config) -> DesignConfig:
    design = dataclasses.replace(servo_config.design, pair=None)
    return dataclasses.replace(
        servo_config,
        frequencies=(1.0, 3.0, 10.0),
        phase_grid_count=24,
        design=design,
        prefilter=None,
    )


@pytest.fixture(scope="session")
def reduced_stack(reduced_config):
    templates = compute_templates(reduced_config)
    curves, contour = compute_bounds(reduced_config, templates)
    sweep = nominal_sweep(reduced_config)
    problem = build_problem(reduced_config, curves, sweep)
    return SimpleNamespace(
        templates=templates,
        curves=curves,
        contour=contour,
        sweep=sweep,
        problem=problem,
    )


@pytest.fixture(scope="session")
def reduced_design(reduced_stack):
    """Unscreened PID search on the reduced problem (pure grid algebra)."""
    return design_controller(reduced_stack.problem, "pid", ADMIT_ALL)
