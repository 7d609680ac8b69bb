"""The CSV block writers against the earlier row-at-a-time writers.

Each writer's bytes must equal ``writer_reference``'s on the same inputs:
random kd grids, bound curves, templates and envelope rows with the cells
that need care (negative zero, sentinels, NaN, subnormals, huge values),
and every CSV of a servo run for each controller kind.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qft_forge import pipeline
from qft_forge.bounds import INFEASIBLE, NO_CONSTRAINT, BoundCurve
from qft_forge.verify import EnvelopeRow

import writer_reference as ref
from conftest import within_one_turn

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, -2.5)
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e300, 1e300))
phases = st.one_of(st.sampled_from((-0.0, 0.0, -180.0, -0.5)), st.floats(-360.0, 0.0))
PROPERTY = settings(max_examples=80, deadline=None)


def written(writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        writer(path, *args)
        with open(path, "rb") as handle:
            return handle.read()


def assert_same_bytes(name, *args):
    assert written(getattr(pipeline, name), *args) == written(getattr(ref, name), *args)


@st.composite
def kd_results(draw):
    """m x n grids for PID, or the 1 x n grid of PI/PD (``m == 0``)."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 7))
    cell = st.one_of(finite, st.sampled_from((INFEASIBLE, math.nan)))
    grid = np.array(draw(st.lists(cell, min_size=(m or 1) * n, max_size=(m or 1) * n)))
    return SimpleNamespace(
        kd_grid=grid.reshape(m or 1, n),
        window_phases_i=tuple(draw(st.lists(phases, min_size=m, max_size=m))),
        window_phases_j=tuple(draw(st.lists(phases, min_size=n, max_size=n))),
    )


@st.composite
def bound_curves(draw):
    entry = st.one_of(finite, st.sampled_from((NO_CONSTRAINT, INFEASIBLE)))
    curves = []
    for _ in range(draw(st.integers(0, 4))):
        grid = within_one_turn(draw(st.sets(phases, min_size=1, max_size=8)))
        values = draw(st.lists(entry, min_size=len(grid), max_size=len(grid)))
        omega = draw(st.floats(1e-3, 1e3))
        curves.append(BoundCurve(omega=omega, phase_grid=tuple(grid), min_gain_db=tuple(values)))
    return curves


@st.composite
def template_sets(draw):
    """A config stand-in (parameter names, frequencies) and its templates."""
    names = draw(st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,4}", fullmatch=True), min_size=1,
                          max_size=3, unique=True))
    omegas = sorted(draw(st.sets(st.floats(1e-3, 1e3), min_size=1, max_size=3)))
    templates = {}
    for omega in omegas:
        members = draw(st.integers(1, 6))
        column = st.lists(finite, min_size=members, max_size=members)
        points = [draw(st.lists(finite, min_size=len(names), max_size=len(names)))
                  for _ in range(members)]
        hull = draw(st.sets(st.integers(0, members - 1)))
        templates[omega] = SimpleNamespace(
            points=np.array(points).reshape(members, len(names)),
            phase_deg=np.array(draw(column)),
            gain_db=np.array(draw(column)),
            hull_indices=np.array(sorted(hull), dtype=int),
        )
    config = SimpleNamespace(
        plant=SimpleNamespace(params=[SimpleNamespace(name=name) for name in names]),
        frequencies=tuple(omegas),
    )
    return config, templates


envelope_value = st.one_of(finite, st.sampled_from((math.inf, math.nan)))
envelope_rows = st.builds(
    EnvelopeRow,
    st.floats(1e-3, 1e3),
    finite,
    envelope_value,
    finite,
    finite,
)


class TestMatchesReferenceWriters:
    @PROPERTY
    @given(result=kd_results())
    def test_kd_grid(self, result):
        assert_same_bytes("write_kd_grid_csv", result)

    @PROPERTY
    @given(curves=bound_curves())
    def test_bounds(self, curves):
        assert_same_bytes("write_bounds_csv", curves)

    @PROPERTY
    @given(case=template_sets())
    def test_templates(self, case):
        assert_same_bytes("write_templates_csv", *case)

    @PROPERTY
    @given(rows=st.lists(envelope_rows, max_size=5))
    def test_envelope(self, rows):
        assert_same_bytes("write_envelope_csv", SimpleNamespace(envelope=tuple(rows)))

    def test_envelope_unbounded_member(self):
        row = EnvelopeRow(omega=30.0, min_db=-0.0, max_db=math.inf, lower_db=-1.5, upper_db=0.25)
        report = SimpleNamespace(envelope=(row,))
        text = written(pipeline.write_envelope_csv, report).decode()
        assert text == "omega,min_db,max_db,lower_db,upper_db\n30.0,0.0,inf,-1.5,0.25\n"
        assert_same_bytes("write_envelope_csv", report)


def reference_csvs(config, artifacts):
    """The CSVs the reference writers make from a run's in-memory results."""
    inputs = {
        "templates.csv": ("write_templates_csv", (config, artifacts.templates)),
        "bounds.csv": ("write_bounds_csv", (artifacts.bound_curves,)),
        "kd_grid.csv": ("write_kd_grid_csv", (artifacts.design,)),
        "envelope.csv": ("write_envelope_csv", (artifacts.verification,)),
    }
    return {
        name: written(getattr(ref, writer), *args)
        for name, (writer, args) in inputs.items()
        if name in artifacts.written
    }


@pytest.mark.parametrize("kind", ["pid", "pi", "pd"])
def test_servo_run_matches_reference_writers(servo_config, tmp_path, kind):
    config = dataclasses.replace(
        servo_config, design=dataclasses.replace(servo_config.design, kind=kind)
    )
    artifacts = pipeline.run_command(config, "all", str(tmp_path))
    expected = reference_csvs(config, artifacts)
    assert {"templates.csv", "bounds.csv", "kd_grid.csv"} <= set(expected)
    assert {name: (tmp_path / name).read_bytes() for name in expected} == expected


def test_servo_writes_one_block_per_call(servo_config, tmp_path, monkeypatch):
    """The header, then one ``write`` per kd-grid row, design frequency or
    bound curve, and the envelope in one; every write is under 64 KiB."""
    writes = {}
    open_text = pipeline._open_text

    def recording(path):
        handle = open_text(path)
        sizes = writes.setdefault(os.path.basename(path), [])
        write = handle.write
        handle.write = lambda text: sizes.append(len(text)) or write(text)
        return handle

    monkeypatch.setattr(pipeline, "_open_text", recording)
    artifacts = pipeline.run_command(servo_config, "all", str(tmp_path))
    blocks = {
        "templates.csv": len(servo_config.frequencies),
        "bounds.csv": len(artifacts.bound_curves),
        "kd_grid.csv": len(artifacts.design.window_phases_i),
        "envelope.csv": 1,
    }
    assert {name: len(writes[name]) - 1 for name in blocks} == blocks
    assert max(size for name in blocks for size in writes[name]) < 64 * 1024
