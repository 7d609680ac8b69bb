"""qft-forge benchmark: fresh-process ``qft-forge all`` runs on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The seed generates the
workload's JSON config (see ``workloads.py``).

``--trace 0`` times what a CLI user waits for: ``setup_s`` is the median of
several fresh processes that import ``qft_forge`` and load the config; then
``python -m qft_forge all`` runs as one fresh process after another for
``--seconds``, and ``run_s`` / ``peak_rss_mb`` are medians over those runs.
Times are scaled by a speed probe run before each process (see
``SPEED_PROBE_CODE``).  ``--trace 1`` alternates untraced runs with traced ones
(``trace_child.py``: the same CLI in-process, with spans around each layer's
entry points) and reports the per-layer breakdown.

Every run is checked: exit code, the workload's own check, and the sha256 of
each artifact against the first run of the same config.  Report lines go to
standard output; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without a ``src/qft_forge``
package under the working directory the benchmark exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Dict, List, Optional, Tuple

import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qft_forge")
HERE = os.path.dirname(os.path.abspath(__file__))

MIN_RUNS = 3
SETUP_REPEATS = 7
# every child is killed once the whole invocation has run this long
DEADLINE_S = 170.0
# the traced run's stage spans and config load must cover this share of cli.main
TRACE_COVERAGE = 0.95

SETUP_CODE = (
    "import sys\n"
    "import qft_forge\n"
    "from qft_forge.config import load_config\n"
    "print(len(load_config(sys.argv[1]).frequencies))\n"
)

# On a shared machine the speed drifts by tens of percent over minutes, with
# the load of other tenants.  Each timed process is therefore preceded by a
# speed probe: a fresh process that imports NumPy and makes many small LAPACK
# calls, the mix of start-up and small-array work a qft-forge run does, but
# none of its code.  Timed metrics are wall times scaled by
# SPEED_REF_S / probe wall time: the time the process would take when the
# probe takes SPEED_REF_S, a typical probe time on the 2-core machine the
# benchmark was tuned on.
SPEED_PROBE_CODE = (
    "import numpy as np\n"
    "a = np.array([[1.0, -0.5, 0.3], [1.0, -0.01, -0.2]])\n"
    "for i in range(8000):\n"
    "    a[0, 2] = 0.3 + i * 1e-6\n"
    "    np.linalg.svd(a)\n"
)
SPEED_REF_S = 0.3

perf = time.perf_counter
START = perf()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


@dataclass(frozen=True)
class Run:
    """One fresh process: wall time, exit code, peak RSS and its output."""

    wall_s: float
    exit_code: int
    rss_mib: float
    output: str


def timed(cmd: List[str], log_path: str) -> Run:
    """Run ``cmd`` to completion; kill it if the invocation's deadline passes."""
    with open(log_path, "wb") as log:
        start = perf()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(1.0, DEADLINE_S - (start - START)), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, encoding="utf-8", errors="replace") as log:
        output = log.read()
    return Run(wall, proc.returncode, usage.ru_maxrss / 1024.0, output)


def digests(out_dir: str) -> Dict[str, str]:
    result = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            result[name] = hashlib.sha256(handle.read()).hexdigest()
    return result


def src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for line in handle if line.strip())
    return total


class Bench:
    """One invocation: the workload's config, a scratch directory, the tally."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload = workload
        self.work = work
        self.config = workloads.generate(workload, seed)
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "wb") as handle:
            handle.write(workloads.config_bytes(workload, seed))
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[Dict[str, str]] = None
        self.reference_counts: Optional[Dict[str, float]] = None
        self.problems: List[str] = []

    def cli_args(self, out_dir: str) -> List[str]:
        return ["all", "--config", self.config_path, "--out", out_dir] + workloads.cli_args(
            self.config
        )

    def judge(self, label: str, out_dir: str, exit_code: int, extra: List[str] = ()):
        """Check one run's outcome and artifacts; count it; drop its outputs."""
        self.attempted += 1
        problems = workloads.check(self.workload, self.config, out_dir, exit_code) + list(extra)
        if os.path.isdir(out_dir):
            found = digests(out_dir)
            if self.reference is None:
                self.reference = found
            elif found != self.reference:
                changed = sorted(
                    n for n in set(found) | set(self.reference) if found.get(n) != self.reference.get(n)
                )
                problems.append(f"artifacts differ from the first run: {changed}")
            shutil.rmtree(out_dir)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def run_cli(self, index: int) -> Run:
        out_dir = os.path.join(self.work, f"run{index}")
        cmd = [sys.executable, "-m", "qft_forge"] + self.cli_args(out_dir)
        run = timed(cmd, os.path.join(self.work, "run.log"))
        self.judge(f"run {index}", out_dir, run.exit_code)
        return run

    def run_traced(self, index: int) -> Tuple[Run, Optional[dict]]:
        out_dir = os.path.join(self.work, f"traced{index}")
        result_path = os.path.join(self.work, "trace.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = [sys.executable, os.path.join(HERE, "trace_child.py"), result_path, "--"]
        run = timed(cmd + self.cli_args(out_dir), os.path.join(self.work, "traced.log"))
        trace = None
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                trace = json.load(handle)
            extra = coverage_problems(trace) + self.count_problems(trace)
        else:
            extra = ["traced run wrote no trace"]
        self.judge(f"traced run {index}", out_dir, run.exit_code, extra)
        return run, trace

    def count_problems(self, trace: dict) -> List[str]:
        """Counts must repeat exactly: compare with the first traced run."""
        counts = {k: v for k, v in layer_values(trace).items() if unit_of(k) != "s"}
        if self.reference_counts is None:
            self.reference_counts = counts
        return [
            f"{name} is {value}, first traced run had {self.reference_counts[name]}"
            for name, value in counts.items()
            if value != self.reference_counts[name]
        ]

    def speed_probe_s(self) -> float:
        probe = timed([sys.executable, "-c", SPEED_PROBE_CODE], os.path.join(self.work, "probe.log"))
        if probe.exit_code != 0:
            raise RuntimeError(f"speed probe failed ({probe.exit_code}): {probe.output.strip()}")
        return probe.wall_s

    def setup_runs(self) -> Tuple[List[Run], List[float]]:
        """Set-up processes, each with the speed probe run just before it."""
        runs, probes = [], []
        for _ in range(SETUP_REPEATS):
            probes.append(self.speed_probe_s())
            run = timed([sys.executable, "-c", SETUP_CODE, self.config_path], os.path.join(self.work, "setup.log"))
            expected = str(len(self.config["frequencies"]))
            if run.exit_code != 0 or run.output.strip() != expected:
                raise RuntimeError(f"set-up probe failed ({run.exit_code}): {run.output.strip()}")
            runs.append(run)
        return runs, probes


def keep_going(count: int, seconds: float, start: float, last_s: float) -> bool:
    """At least MIN_RUNS rounds; after that, only rounds that end within ``seconds``."""
    return count < MIN_RUNS or perf() - start + last_s <= seconds


# --- trace evaluation -------------------------------------------------------

def span(trace: dict, name: str, key: str = "busy_s") -> float:
    return trace["spans"].get(name, {}).get(key, 0)


def coverage(trace: dict) -> float:
    """Share of cli.main covered by config load plus pipeline (stages + self)."""
    main = span(trace, "cli.main")
    covered = span(trace, "config.load") + span(trace, "pipeline")
    return covered / main if main > 0 else 0.0


def coverage_problems(trace: dict) -> List[str]:
    share = coverage(trace)
    if share < TRACE_COVERAGE:
        return [f"spans cover {share:.3f} of cli.main, below {TRACE_COVERAGE}"]
    return []


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(trace: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run (times in s, counts exact)."""
    counts = trace["counts"]
    return {
        "plant.busy_s": span(trace, "plant"),
        "plant.template_points": counts.get("plant.template_points", 0),
        "plant.hull_points": counts.get("plant.hull_points", 0),
        "bounds.busy_s": span(trace, "bounds"),
        "bounds.tracking_s": span(trace, "bounds.tracking"),
        "bounds.disturbance_s": span(trace, "bounds.disturbance"),
        "bounds.entries": counts.get("bounds.entries", 0),
        "bounds.no_constraint_entries": counts.get("bounds.no_constraint_entries", 0),
        "bounds.infeasible_entries": counts.get("bounds.infeasible_entries", 0),
        "optimizer.busy_s": span(trace, "optimizer"),
        "optimizer.kernel_calls": span(trace, "optimizer.kernel", "calls"),
        "optimizer.kernel_s": span(trace, "optimizer.kernel"),
        "optimizer.scaling_calls": span(trace, "optimizer.scaling", "calls"),
        "optimizer.scaling_s": span(trace, "optimizer.scaling"),
        "optimizer.feasible_cell_ratio": ratio(
            counts.get("optimizer.feasible_cells", 0), counts.get("optimizer.grid_cells", 0)
        ),
        "optimizer.screen_calls": span(trace, "optimizer.screen", "calls"),
        "optimizer.screen_s": span(trace, "optimizer.screen"),
        "optimizer.screen_admit_ratio": ratio(
            counts.get("optimizer.screen_admitted", 0), span(trace, "optimizer.screen", "calls")
        ),
        "verify.busy_s": span(trace, "verify"),
        "verify.envelope_s": span(trace, "verify.envelope"),
        "verify.envelope_evaluations": counts.get("verify.envelope_evaluations", 0),
        "verify.oracle_s": span(trace, "verify.oracle"),
        "verify.oracle_evaluations": counts.get("verify.oracle_evaluations", 0),
        "pipeline.self_s": span(trace, "pipeline", "self_s"),
        "svgchart.busy_s": span(trace, "svgchart"),
        "pipeline.artifact_bytes": counts.get("pipeline.artifact_bytes", 0),
        "cli.import_s": trace["import_s"],
        "config.load_s": span(trace, "config.load"),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_median(runs: List[Run], probes: List[float]) -> float:
    return statistics.median(r.wall_s * SPEED_REF_S / p for r, p in zip(runs, probes))


def describe(label: str, runs: List[Run], probes: List[float]) -> str:
    walls = sorted(r.wall_s for r in runs)
    return (
        f"{label}: {len(walls)} runs, scaled median {scaled_median(runs, probes):.4f} s; "
        f"wall median {statistics.median(walls):.4f} s, min {walls[0]:.4f} s, max {walls[-1]:.4f} s; "
        f"speed probe median {statistics.median(probes):.4f} s"
    )


# --- the two modes ----------------------------------------------------------

def measure(bench: Bench, seconds: float) -> dict:
    setups, setup_probes = bench.setup_runs()
    runs: List[Run] = []
    probes: List[float] = []
    start = perf()
    last_s = 0.0
    while keep_going(len(runs), seconds, start, last_s):
        round_start = perf()
        probes.append(bench.speed_probe_s())
        runs.append(bench.run_cli(len(runs)))
        last_s = perf() - round_start
    print(describe("run_s", runs, probes))
    print(describe("setup_s", setups, setup_probes))
    return {
        "run_s": metric(scaled_median(runs, probes), "s"),
        "setup_s": metric(scaled_median(setups, setup_probes), "s"),
        "peak_rss_mb": metric(statistics.median(r.rss_mib for r in runs), "MiB"),
        "success_ratio": metric(1.0 - bench.failed / bench.attempted, "ratio"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict:
    plain: List[Run] = []
    traced: List[Tuple[Run, dict]] = []
    start = perf()
    last_s = 0.0
    while keep_going(len(plain), seconds, start, last_s):
        round_start = perf()
        plain.append(bench.run_cli(len(plain)))
        run, trace = bench.run_traced(len(plain))
        if trace is not None:
            traced.append((run, trace))
        last_s = perf() - round_start
    if not traced:
        raise RuntimeError("no traced run produced a trace")

    per_run = [layer_values(trace) for _, trace in traced]
    values = {
        name: statistics.median(v[name] for v in per_run) if unit_of(name) == "s" else count
        for name, count in per_run[0].items()
    }
    values["trace.overhead_ratio"] = statistics.median(r.wall_s for r, _ in traced) / statistics.median(
        r.wall_s for r in plain
    )
    values["src.lines"] = src_lines()

    first = traced[0][1]
    for name in sorted(first["spans"]):
        busy = statistics.median(span(t, name) for _, t in traced)
        own = statistics.median(span(t, name, "self_s") for _, t in traced)
        print(f"span {name:<20} calls {span(first, name, 'calls'):>7}  busy {busy:.4f} s  self {own:.4f} s")
    print(f"trace: {len(traced)} traced runs, spans cover {coverage(first):.4f} of cli.main")
    for name in first["missing"]:
        print(f"trace: missing {name}")
    return {name: metric(value, unit_of(name)) for name, value in values.items()}


def context(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "src_lines": src_lines(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("tiny",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no qft_forge package at {PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2

    print("context " + json.dumps(context(args.workload, args.seed), sort_keys=True))
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            metrics = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, digest in sorted((bench.reference or {}).items()):
        print(f"artifact {name} sha256 {digest}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
