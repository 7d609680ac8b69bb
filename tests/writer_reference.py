"""Reference CSV writers the block writers in ``qft_forge.pipeline`` are
checked against.

These are the package's earlier artifact writers: one ``csv.writer`` row per
CSV line, every cell formatted on its own by ``_num`` (shortest round-trip
``repr`` of the float, negative zero written as ``0.0``) or ``_bound_str``
(the two bound sentinels by name).  Tests compare the bytes the pipeline's
writers produce with the bytes these produce on the same inputs.
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

from qft_forge.bounds import INFEASIBLE, NO_CONSTRAINT


def _num(value: float) -> str:
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


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_templates_csv(path: str, config, templates):
    names = tuple(spec.name for spec in config.plant.params)
    header = ["omega", *names, "phase_deg", "gain_db", "on_hull"]

    def rows():
        for omega in config.frequencies:
            t = templates[omega]
            hull = set(t.hull_indices.tolist())
            columns = (t.points.tolist(), t.phase_deg.tolist(), t.gain_db.tolist())
            for i, (point, phase, gain) in enumerate(zip(*columns)):
                on_hull = "1" if i in hull else "0"
                yield [_num(omega), *map(_num, point), _num(phase), _num(gain), on_hull]

    _write_csv(path, header, rows())


def write_bounds_csv(path: str, curves):
    rows = (
        [_num(curve.omega), _num(phase), _bound_str(value)]
        for curve in curves
        for phase, value in zip(curve.phase_grid, curve.min_gain_db)
    )
    _write_csv(path, ["omega", "phase_deg", "min_gain_db"], rows)


def write_kd_grid_csv(path: str, result):
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


def write_envelope_csv(path: str, report):
    rows = (
        [_num(r.omega), _num(r.min_db), _num(r.max_db), _num(r.lower_db), _num(r.upper_db)]
        for r in report.envelope
    )
    _write_csv(path, ["omega", "min_db", "max_db", "lower_db", "upper_db"], rows)
