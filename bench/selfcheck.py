"""Fast self-check of the benchmark itself (well under a minute).

    python3 bench/selfcheck.py

Run from the root of a checkout.  Checks that the config generator is
byte-stable for a seed and stays inside its recorded ranges, that the tiny
workload runs end to end through ``run.py`` in both modes and emits exactly
the metrics ``BENCHMARK.json`` names, and that the benchmark refuses to run in
a directory without the package.  Prints one line per check; exits 1 on the
first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message: str):
    print(f"FAIL {message}")
    raise SystemExit(1)


def check_generator():
    for name in workloads.NAMES:
        for seed in (0, 1, 7, 123456789):
            first = workloads.config_bytes(name, seed)
            if first != workloads.config_bytes(name, seed):
                fail(f"{name} seed {seed}: generator is not byte-stable")
            for key, value in workloads.draw(name, seed).items():
                lo, hi = workloads.RANGES[name][key]
                if not lo <= value <= hi:
                    fail(f"{name} seed {seed}: {key}={value} outside [{lo}, {hi}]")
        differs = workloads.config_bytes(name, 1) != workloads.config_bytes(name, 2)
        if differs != bool(workloads.RANGES[name]):
            fail(f"{name}: seeds 1 and 2 {'differ' if differs else 'agree'} unexpectedly")
    print("ok generator is byte-stable and inside its ranges")


def bench(*args: str, root: str = ROOT) -> subprocess.CompletedProcess:
    """run.py from the copy of the benchmark under ``root``, run from ``root``."""
    script = os.path.join(root, os.path.basename(HERE), "run.py")
    cmd = [sys.executable, script, *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_tiny():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = bench("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", trace)
        if done.returncode != 0:
            fail(f"tiny --trace {trace} exited {done.returncode}: {done.stderr[-2000:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            fail(f"tiny --trace {trace} incorrect: {done.stdout[-2000:]}")
        expected = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != expected:
            fail(f"tiny --trace {trace} emitted {sorted(emitted.items())}, expected {sorted(expected.items())}")
        if "trace: missing" in done.stdout:
            fail(f"tiny --trace {trace} reports missing spans: {done.stdout}")
        print(f"ok tiny --trace {trace}: {len(emitted)} metrics, {result['attempted']} runs")


def check_bare_directory():
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "servo", "--seed", "1", "--seconds", "1", "--trace", "0", root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail(f"bare directory: exit {done.returncode}, output {done.stdout!r}")
    print(f"ok bare directory exits {done.returncode} without a result")


if __name__ == "__main__":
    check_generator()
    check_tiny()
    check_bare_directory()
