"""Seeded workload configs for the benchmark and the checks their runs must pass.

Each workload is a JSON run configuration handed to ``qft-forge all``.  The
seed draws only the free numbers listed in ``RANGES``; every value in those
ranges was run end to end and kept the workload's expected exit code and its
grid sizes, so a seed changes the inputs but not the kind or amount of work.
Why each workload exists is in ``WHY`` (and in README.md next to this file).
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import re
from typing import Dict, List, Tuple

# configs/servo.json as shipped, kept here so the benchmark owns its inputs.
SERVO = {
    "plant": {
        "numerator": ["k*a"],
        "denominator": ["1", "a", "0"],
        "parameters": [
            {"name": "a", "min": 1.0, "max": 10.0, "grid": 10},
            {"name": "k", "min": 1.0, "max": 10.0, "grid": 10},
        ],
        "nominal": {"a": 1.0, "k": 1.0},
    },
    "frequencies": [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0, 60.0],
    "tracking": {
        "lower": {"num": [0.6585, 19.755], "den": [1.0, 4.0, 19.753961]},
        "upper": {"num": [8400.0], "den": [1.0, 87.0, 1272.0, 5860.0, 8400.0]},
    },
    "stability": {"m": 1.2},
    "phase_grid_count": 360,
    "design": {"kind": "pid", "pair": [2, 6], "use_hull": True},
    "prefilter": {"num": [26.25], "den": [1.0, 11.0, 26.25]},
}

SERVO_GAINS = {"kp": 13.021194019215578, "ki": 0.17124145589001946, "kd": 3.538751198568919}

WHY = {
    "servo": "the shipped servo config; bounds and the 32 400-cell kernel grid both carry the run",
    "dense-template": "625-point templates without hull pruning and binding sensitivity caps; bounds dominate",
    "screen-walk": "3-parameter plant whose dense stability screen vetoes every candidate; exits 2",
    "oracle": "reduced servo with the brute-force gain-box oracle over ~8 M triples; memory and oracle time",
    "tiny": "self-check only: every layer, oracle included, in well under a second",
}

# Inclusive ranges of the seed-drawn numbers, each verified at its corners.
RANGES: Dict[str, Dict[str, Tuple[float, float]]] = {
    "servo": {},
    "dense-template": {
        "a_max": (9.0, 11.0),
        "k_max": (9.0, 11.0),
        "cap_w0.5": (0.6, 0.95),
        "cap_w1": (0.6, 0.95),
    },
    "screen-walk": {
        "a_max": (9.0, 11.0),
        "k_max": (9.0, 11.0),
        "b_max": (350.0, 450.0),
    },
    # offset of the kp and ki oracle axes; kd keeps 0..50 so the search
    # always stops after the same 32 kd slices
    "oracle": {"box_offset": (0.0, 0.099)},
    "tiny": {},
}

EXPECTED_EXIT = {"servo": 3, "dense-template": 3, "screen-walk": 2, "oracle": 0, "tiny": 3}

VERIFY_ARTIFACTS = ("envelope.csv", "verify_report.txt")
BASE_ARTIFACTS = (
    "templates.csv",
    "bounds.csv",
    "kd_grid.csv",
    "design_report.txt",
    "nichols.svg",
)

# the benchmark's workloads; "tiny" serves the self-check only
NAMES = ("servo", "dense-template", "screen-walk", "oracle")


def draw(name: str, seed: int) -> Dict[str, float]:
    """The seed's free numbers for one workload, rounded to 4 decimals."""
    rng = random.Random(f"{name}:{seed}")
    return {key: round(rng.uniform(lo, hi), 4) for key, (lo, hi) in RANGES[name].items()}


def generate(name: str, seed: int) -> dict:
    """The workload's run configuration for ``seed`` as a JSON-ready dict."""
    free = draw(name, seed)
    config = copy.deepcopy(SERVO)
    if name == "dense-template":
        config["plant"]["parameters"] = [
            {"name": "a", "min": 1.0, "max": free["a_max"], "grid": 25},
            {"name": "k", "min": 1.0, "max": free["k_max"], "grid": 25},
        ]
        config["design"]["use_hull"] = False
        config["phase_grid_count"] = 180
        config["disturbance"] = [
            {"omega": 0.5, "cap": free["cap_w0.5"]},
            {"omega": 1.0, "cap": free["cap_w1"]},
        ]
    elif name == "screen-walk":
        config["plant"] = {
            "numerator": ["k*a*b"],
            "denominator": ["1", "a+b", "a*b", "0"],
            "parameters": [
                {"name": "a", "min": 1.0, "max": free["a_max"], "grid": 6},
                {"name": "k", "min": 1.0, "max": free["k_max"], "grid": 6},
                {"name": "b", "min": 100.0, "max": free["b_max"], "grid": 4},
            ],
            "nominal": {"a": 1.0, "k": 1.0, "b": 100.0},
        }
        config["frequencies"] = [0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0]
        config["phase_grid_count"] = 180
        config["design"]["pair"] = [2, 8]
    elif name == "oracle":
        offset = free["box_offset"]
        config["frequencies"] = [1.0, 3.0, 10.0]
        config["phase_grid_count"] = 24
        del config["prefilter"]
        del config["design"]["pair"]
        config["oracle"] = {
            "kp": [offset, 50.0 + offset, 0.1],
            "ki": [offset, 50.0 + offset, 0.1],
            "kd": [0.0, 50.0, 0.1],
        }
    elif name == "tiny":
        config["plant"]["parameters"] = [
            {"name": "a", "min": 1.0, "max": 10.0, "grid": 3},
            {"name": "k", "min": 1.0, "max": 10.0, "grid": 3},
        ]
        config["frequencies"] = [1.0, 3.0, 10.0]
        config["phase_grid_count"] = 24
        del config["design"]["pair"]
        config["disturbance"] = [{"omega": 1.0, "cap": 0.9}]
        config["oracle"] = {gain: [0.0, 50.0, 1.0] for gain in ("kp", "ki", "kd")}
    elif name != "servo":
        raise ValueError(f"unknown workload {name!r}")
    return config


def config_bytes(name: str, seed: int) -> bytes:
    return (json.dumps(generate(name, seed), indent=1) + "\n").encode("utf-8")


def cli_args(config: dict) -> List[str]:
    return ["--oracle"] if "oracle" in config else []


def expected_artifacts(name: str) -> Tuple[str, ...]:
    if EXPECTED_EXIT[name] == 2:
        return BASE_ARTIFACTS
    return BASE_ARTIFACTS[:4] + VERIFY_ARTIFACTS + BASE_ARTIFACTS[4:]


# --- checks -----------------------------------------------------------------

_GAINS = re.compile(r"kp=(\S+) ki=(\S+) kd=(\S+)")


def _report_field(report: str, label: str) -> str:
    for line in report.splitlines():
        if line.strip().startswith(label) and ":" in line:
            return line.split(":", 1)[1].strip()
    return ""


def _gains(text: str) -> Dict[str, float]:
    match = _GAINS.search(text)
    if match is None:
        return {}
    return {key: float(value) for key, value in zip(("kp", "ki", "kd"), match.groups())}


def check(name: str, config: dict, out_dir: str, exit_code: int) -> List[str]:
    """Problems with one run's outcome; an empty list means the run is correct."""
    problems: List[str] = []
    if exit_code != EXPECTED_EXIT[name]:
        problems.append(f"exit code {exit_code}, expected {EXPECTED_EXIT[name]}")
    written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if written != sorted(expected_artifacts(name)):
        problems.append(f"artifacts {written}, expected {sorted(expected_artifacts(name))}")
        return problems
    with open(os.path.join(out_dir, "design_report.txt"), encoding="utf-8") as handle:
        report = handle.read()
    with open(os.path.join(out_dir, "bounds.csv"), encoding="utf-8") as handle:
        bound_rows = sum(1 for _ in handle) - 1
    expected_rows = len(config["frequencies"]) * config["phase_grid_count"]
    if bound_rows != expected_rows:
        problems.append(f"bounds.csv has {bound_rows} rows, expected {expected_rows}")

    if name == "screen-walk":
        feasible = re.search(r"(\d+) feasible", _report_field(report, "candidate grid"))
        vetoed = _report_field(report, "screen rejections")
        if _report_field(report, "feasible") != "no":
            problems.append("design is feasible; the screen should veto every candidate")
        elif feasible is None or feasible.group(1) != vetoed or vetoed in ("", "0"):
            problems.append(f"screen vetoed {vetoed!r} of {feasible and feasible.group(1)!r} candidates")
        return problems

    gains = _gains(_report_field(report, "gains"))
    if not gains or not all(math.isfinite(v) and v >= 0.0 for v in gains.values()):
        problems.append(f"no valid gains in the design report ({gains})")
        return problems
    if name == "servo":
        for key, pinned in SERVO_GAINS.items():
            if not math.isclose(gains[key], pinned, rel_tol=1e-12, abs_tol=0.0):
                problems.append(f"servo {key}={gains[key]!r}, pinned {pinned!r}")
    if "oracle" in config:
        oracle = _gains(_report_field(report, "best gains"))
        if not oracle:
            problems.append("no brute-force cross-check in the design report")
        else:
            low, high = oracle["kd"] - config["oracle"]["kd"][2], 1.05 * oracle["kd"]
            if not low <= gains["kd"] <= high:
                problems.append(f"optimizer kd={gains['kd']!r} outside [{low!r}, {high!r}]")
    return problems
