"""Nichols-plane bound computation.

For each design frequency the plant template is swept along a vertical line of
candidate nominal gains at every grid phase.  The least gain that keeps the
closed-loop magnitude spread within the tracking allowance (or the sensitivity
under its cap) is located by an upward 5 dB scan from a -100 dB floor followed
by bisection of the first feasible bracket.  When the probed members are
more than the template's hull, a probe first tries the hull members alone.
Two sentinels extend the real line:

* ``NO_CONSTRAINT`` (-inf): already feasible at the scan floor;
* ``INFEASIBLE``    (+inf): still infeasible at the +100 dB ceiling.

Encoding them as infinities makes ``max`` implement the combination rules for
stacking bound families directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BoundBelowUContour, DegenerateSpread, ZeroMagnitude
from .lti import (
    RationalTransferFunction,
    db,
    eval_tf,
    m_circle_gains,
    m_circle_phase_range,
    undb,
)
from .plant import Template

__all__ = [
    "NO_CONSTRAINT",
    "INFEASIBLE",
    "SCAN_FLOOR_DB",
    "SCAN_CEILING_DB",
    "SCAN_STEP_DB",
    "DEFAULT_TOL_DB",
    "INTERPOLATION_TOLERANCE_DB",
    "TrackingSpec",
    "BoundCurve",
    "UContour",
    "make_phase_grid",
    "delta_spread",
    "horowitz_bound",
    "disturbance_bound",
    "combine_with_ucontour",
    "interpolate_bound_array",
]

NO_CONSTRAINT = float("-inf")
INFEASIBLE = float("inf")

SCAN_FLOOR_DB = -100.0
SCAN_CEILING_DB = 100.0
SCAN_STEP_DB = 5.0
DEFAULT_TOL_DB = 0.01

# Slack allowed against interpolated bounds throughout the package: margins
# may dip this far below zero, and boundary-riding loops may graze the
# stability contour by this much, before anything is reported as a violation.
INTERPOLATION_TOLERANCE_DB = 0.05

_MIN_SPREAD_DB = 0.05


def _assert_stable_strictly_proper(tf: RationalTransferFunction, label: str):
    num = np.trim_zeros(np.asarray(tf.num, dtype=float), "f")
    den = np.trim_zeros(np.asarray(tf.den, dtype=float), "f")
    if len(num) >= len(den):
        raise ValueError(f"{label} model must be strictly proper")
    roots = np.roots(den)
    if len(roots) and np.max(roots.real) >= 0.0:
        raise ValueError(f"{label} model must have all poles in the open left half-plane")


@dataclass(frozen=True)
class TrackingSpec:
    """Pair of reference models bracketing the acceptable closed-loop band."""

    lower: RationalTransferFunction
    upper: RationalTransferFunction

    def __post_init__(self):
        _assert_stable_strictly_proper(self.lower, "lower tracking")
        _assert_stable_strictly_proper(self.upper, "upper tracking")

    def corridor_db(self, omega: float) -> Tuple[float, float]:
        """The two model gains at ``omega`` in dB, lower first: the models
        may swap order on some bands.  ZeroMagnitude where a model's gain is
        zero, which has no dB value."""
        gains = []
        for label, model in (("lower", self.lower), ("upper", self.upper)):
            magnitude = abs(eval_tf(model, 1j * omega))
            if magnitude == 0.0:
                raise ZeroMagnitude(f"{label} tracking model has zero gain at omega={omega:g}")
            gains.append(db(magnitude))
        return min(gains), max(gains)


@dataclass(frozen=True)
class BoundCurve:
    """Least admissible nominal gain versus phase, for one frequency.

    Also builds the table :func:`interpolate_bound_array` reads: per slot
    ``searchsorted(grid, p, side="right")``, 0 to n, its start, width, base,
    step and the node value at its start.  Slot i in 1..n-1, [g[i-1], g[i]),
    has base v[i-1] and step v[i] - v[i-1], or with a sentinel end: base
    INFEASIBLE if either end is, else the other end if one is NO_CONSTRAINT,
    and step -0.0, which keeps any base (-0.0 too).  Slots 0 and n lie
    beyond the grid and hold NaN, bar their start and the last node.
    """

    omega: float
    phase_grid: Tuple[float, ...]
    min_gain_db: Tuple[float, ...]

    def __post_init__(self):
        grid = tuple(float(p) for p in self.phase_grid)
        object.__setattr__(self, "phase_grid", grid)
        object.__setattr__(self, "min_gain_db", tuple(float(v) for v in self.min_gain_db))
        if not all(map(math.isfinite, grid + (self.omega,))):
            raise ValueError("omega and the phase grid must be finite")
        if len(grid) != len(self.min_gain_db):
            raise ValueError("phase grid and entries differ in length")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("phase grid must be strictly increasing")
        if any(map(math.isnan, self.min_gain_db)):
            raise ValueError("bound entries must be real or a sentinel infinity")
        g, v = np.array(grid), np.array(self.min_gain_db)
        a, b = v[:-1], v[1:]
        base = np.where((a == NO_CONSTRAINT) | (b == INFEASIBLE), b, a)
        linear = np.isfinite(a) & np.isfinite(b)
        step = np.subtract(b, a, out=np.full(len(a), -0.0), where=linear)
        table = np.column_stack(
            (
                [g[0], math.nan, math.nan, math.nan, math.nan],
                np.stack((g[:-1], np.diff(g), base, step, a)),
                [g[-1], math.nan, math.nan, math.nan, v[-1]],
            )
        )
        object.__setattr__(self, "_grid", g)
        object.__setattr__(self, "_table", table)


def make_phase_grid(count: int) -> Tuple[float, ...]:
    """``count`` equally spaced phases strictly inside (-360, 0).

    The points are the midpoints of a uniform ``count``-cell partition of the
    interval, so the spacing is exactly ``360 / count`` and both endpoints
    stay clear of the grid (``count=360`` gives the 1-degree grid
    -359.5, -358.5, ..., -0.5).  Midpoint placement also keeps the grid off
    the -180-degree axis for even counts, where loop phases pinned exactly to
    the axis can collapse a two-frequency phase pair into a degenerate
    one-parameter ray.
    """
    if count < 2:
        raise ValueError("phase grid needs at least two points")
    step = 360.0 / count
    return tuple(-360.0 + step * (k - 0.5) for k in range(1, count + 1))


def delta_spread(spec: TrackingSpec, omega: float) -> float:
    """Allowed dB spread between the two reference models at one frequency:
    the width of :meth:`TrackingSpec.corridor_db`."""
    lower_db, upper_db = spec.corridor_db(omega)
    spread = upper_db - lower_db
    if spread < _MIN_SPREAD_DB:
        raise DegenerateSpread(
            f"model spread {spread:.4f} dB at omega={omega} is below {_MIN_SPREAD_DB} dB"
        )
    return spread


# --- scan + bisection machinery -------------------------------------------

# The block budget: 4096 complex cells, 64 KiB.  The bound search's chunks
# probed on every member, the stability screen's blocks and the oracle's ki
# blocks keep their complex temporaries within it.  Freeing a chunk of 64 KiB
# or more makes glibc's free() consolidate the heap and trim its top, and the
# next block faults those pages back in: 40 000 minor faults and +0.13 s on
# dense-template at some checkout paths, 124 000 faults on the oracle workload
# with double blocks.  The scan's phase blocks hold two budgets of cells; with
# witnesses they are sized by them.
_BLOCK_CELLS = 4096

def _spread_db(loop: np.ndarray, denom: np.ndarray) -> np.ndarray:
    vals = 20.0 * np.log10(np.abs(loop / denom))
    return vals.max(axis=1) - vals.min(axis=1)


def _worst_sensitivity(loop: np.ndarray, denom: np.ndarray) -> np.ndarray:
    return np.max(np.abs(1.0 / denom), axis=1)


def _least_feasible_gains(
    ratios: np.ndarray,
    phases_deg: Sequence[float],
    measure: Callable[[np.ndarray, np.ndarray], np.ndarray],
    limit: float,
    witnesses: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Least gain with ``measure(loop, 1 + loop) <= limit`` at every phase.

    ``measure`` reduces a (phases, members) array of loop values row by row.
    Each block of phases runs the upward scan from the floor and then the
    bisection of its first feasible bracket in lockstep.  A member whose
    loop is exactly -1 makes the row's measure inf or NaN, so that probe
    fails like any other over the limit.

    ``witnesses``, some of the members (the template's hull), rule out the
    rows whose witness measure is not within ``limit``; only the rest are
    probed on every member.  That is exact: a measure is a max (or max - min)
    of elementwise values, a subset's max and min select among the row's,
    rounded subtraction is monotone, and a witness on -1 is on -1 in the
    full set too.
    """
    rotors = np.array(
        [complex(math.cos(r), math.sin(r)) for r in map(math.radians, phases_deg)],
        dtype=complex,
    )
    out = np.empty(len(rotors))
    rows = max(1, 2 * _BLOCK_CELLS // len(ratios if witnesses is None else witnesses))
    with np.errstate(divide="ignore", invalid="ignore"):  # a loop on -1 divides by zero
        for start in range(0, len(rotors), rows):
            block = slice(start, start + rows)
            out[block] = _search_block(ratios, rotors[block], measure, limit, witnesses)
    return out


def _search_block(ratios, rotors, measure, limit, witnesses) -> np.ndarray:
    def probe_on(members, rows: np.ndarray, gains: np.ndarray) -> np.ndarray:
        loop = (gains * rotors[rows])[:, None] * members
        return measure(loop, 1.0 + loop) <= limit

    def probe(rows: np.ndarray, gains_db: np.ndarray) -> np.ndarray:
        gains = np.fromiter(map(undb, gains_db.tolist()), dtype=float, count=len(gains_db))
        if witnesses is None:
            return probe_on(ratios, rows, gains)
        ok = probe_on(witnesses, rows, gains)  # False if ruled out, until probed in full
        todo = np.flatnonzero(ok)
        for start in range(0, len(todo), chunk):
            part = todo[start : start + chunk]
            ok[part] = probe_on(ratios, rows[part], gains[part])
        return ok

    chunk = max(1, _BLOCK_CELLS // len(ratios))
    every = np.arange(len(rotors))
    lo = np.full(len(rotors), SCAN_FLOOR_DB)
    hi = np.full(len(rotors), np.nan)  # NaN until a feasible scan step is found
    pending = every
    c = SCAN_FLOOR_DB
    while pending.size and c <= SCAN_CEILING_DB + 1e-12:
        ok = probe(pending, np.full(pending.size, c))
        hi[pending[ok]] = c
        lo[pending[~ok]] = c
        pending = pending[~ok]
        c += SCAN_STEP_DB
    # rows without a bracket compare NaN > DEFAULT_TOL_DB as False and drop out at
    # once, as do rows feasible at the floor, whose bracket is empty
    bisecting = every
    while True:
        bisecting = bisecting[hi[bisecting] - lo[bisecting] > DEFAULT_TOL_DB]
        if not bisecting.size:
            break
        mid = 0.5 * (lo[bisecting] + hi[bisecting])
        ok = probe(bisecting, mid)
        hi[bisecting[ok]] = mid[ok]
        lo[bisecting[~ok]] = mid[~ok]
    return np.where(hi == SCAN_FLOOR_DB, NO_CONSTRAINT, np.where(np.isnan(hi), INFEASIBLE, hi))


def _check_search(name: str, limit: float) -> None:
    if not limit > 0.0:
        raise ValueError(f"need {name} > 0, got {limit!r}")


def _probe_sets(template: Template, use_hull: bool):
    """The members a bound probes, and the hull as witnesses if it has fewer."""
    indices = template.hull_indices
    hull = template.ratios[indices] if len(indices) else template.ratios
    ratios = hull if use_hull else template.ratios
    return ratios, (hull if len(hull) < len(ratios) else None)


def horowitz_bound(
    template: Template,
    delta_db: float,
    phase_grid: Sequence[float],
    use_hull: bool = True,
) -> BoundCurve:
    """Least nominal gain keeping the family's closed-loop spread <= delta_db,
    at each phase of ``phase_grid``."""
    _check_search("delta_db", delta_db)
    ratios, witnesses = _probe_sets(template, use_hull)
    entries = _least_feasible_gains(ratios, phase_grid, _spread_db, delta_db, witnesses)
    return BoundCurve(omega=template.omega, phase_grid=tuple(phase_grid), min_gain_db=entries)


def disturbance_bound(
    template: Template,
    cap: float,
    phase_grid: Sequence[float],
    use_hull: bool = True,
) -> BoundCurve:
    """Least nominal gain holding |1/(1+L)| <= cap over the whole template,
    at each phase of ``phase_grid``."""
    _check_search("cap", cap)
    ratios, witnesses = _probe_sets(template, use_hull)
    entries = _least_feasible_gains(ratios, phase_grid, _worst_sensitivity, cap, witnesses)
    return BoundCurve(omega=template.omega, phase_grid=tuple(phase_grid), min_gain_db=entries)


# --- high-frequency stability contour -------------------------------------

@dataclass(frozen=True)
class UContour:
    """Closed stability region: constant-M locus on top, the same locus
    dropped by the high-frequency template span underneath, over the phase
    range :func:`m_circle_phase_range` gives."""

    m_value: float
    delta_hf_db: float
    phase_min_deg: float = field(init=False)
    phase_max_deg: float = field(init=False)

    def __post_init__(self):
        phase_min, phase_max = m_circle_phase_range(self.m_value)
        if not self.delta_hf_db >= 0.0:
            raise ValueError("delta_hf_db must be non-negative")
        object.__setattr__(self, "m_value", float(self.m_value))
        object.__setattr__(self, "delta_hf_db", float(self.delta_hf_db))
        object.__setattr__(self, "phase_min_deg", phase_min)
        object.__setattr__(self, "phase_max_deg", phase_max)

    def edges(self, phases: Sequence[float]) -> List[Optional[Tuple[float, float]]]:
        """(top, bottom) at each phase, the bottom dropped by ``delta_hf_db``;
        None where the contour does not reach the phase (outside the phase
        range, or where :func:`m_circle_gains` finds no crossing, as it may
        at a span end).  Scalar libm arithmetic, whose bits ``bounds.csv``
        records.
        """
        edges: List[Optional[Tuple[float, float]]] = []
        for phi in phases:
            pair = (
                m_circle_gains(self.m_value, phi)
                if self.phase_min_deg <= phi <= self.phase_max_deg
                else None
            )
            edges.append(None if pair is None else (pair[0], pair[1] - self.delta_hf_db))
        return edges

    def inside(self, phase_deg, gain_db):
        """Strict interior test, used by the dense stability sweep;
        elementwise over arrays of phases and gains.

        The region is shrunk by ``INTERPOLATION_TOLERANCE_DB``: points within
        it of either edge count as outside.  This keeps points that ride a
        boundary (where the combined design bounds equal the contour top)
        from being flagged over sub-0.01 dB arithmetic noise.  The edges are
        :meth:`edges` recomputed with NumPy; the scalar method stays on
        libm, whose last bits the bound files record.
        """
        m2 = self.m_value * self.m_value
        c = np.cos(np.radians(phase_deg))
        disc = m2 * c * c - (m2 - 1.0)
        crosses = (disc >= 0.0) & (c < 0.0)
        root = self.m_value * np.sqrt(np.where(crosses, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = 20.0 * np.log10((-m2 * c + root) / (m2 - 1.0))
            lower = 20.0 * np.log10((-m2 * c - root) / (m2 - 1.0)) - self.delta_hf_db
        return (
            (self.phase_min_deg <= phase_deg)
            & (phase_deg <= self.phase_max_deg)
            & crosses
            & (lower + INTERPOLATION_TOLERANCE_DB < gain_db)
            & (gain_db < upper - INTERPOLATION_TOLERANCE_DB)
        )


def combine_with_ucontour(curve: BoundCurve, u: UContour) -> BoundCurve:
    """Fold the stability contour's top into a performance bound.

    Aborts (BoundBelowUContour) when a finite performance entry sits below the
    contour's bottom edge: taking the max there would quietly forbid a region
    the performance spec allows, and the conflict deserves eyes on it.
    """
    merged: List[float] = []
    for phi, entry, edge in zip(curve.phase_grid, curve.min_gain_db, u.edges(curve.phase_grid)):
        if edge is not None:
            top, bottom = edge
            if math.isfinite(entry) and entry < bottom - 1e-9:
                raise BoundBelowUContour(
                    f"performance bound {entry:.3f} dB at phase {phi:.1f} deg sits below "
                    f"the stability contour bottom {bottom:.3f} dB (omega={curve.omega})"
                )
            entry = max(entry, top)
        merged.append(entry)
    return BoundCurve(omega=curve.omega, phase_grid=curve.phase_grid, min_gain_db=tuple(merged))


# --- interpolation ---------------------------------------------------------

def interpolate_bound_array(curve: BoundCurve, phases: np.ndarray) -> np.ndarray:
    """Bound values at an array of phases.

    Linear between finite nodes; INFEASIBLE wins over any neighbour; a
    NO_CONSTRAINT neighbour defers to the finite one (conservative); queries
    beyond the grid ends, and NaN, are unconstrained.  Computes
    ``(p - start) / width * step + base`` from the query's slot of the
    curve's table, the IEEE arithmetic of ``a + t * (b - a)``; a node query
    takes the node's value, and ``fmax`` maps the NaN computed beyond the
    grid to NO_CONSTRAINT.
    """
    slot = np.searchsorted(curve._grid, phases, side="right")
    start, width, base, step, node = curve._table
    offset = phases - start.take(slot)
    out = offset / width.take(slot)
    out *= step.take(slot)
    out += base.take(slot)
    np.copyto(out, node.take(slot), where=offset == 0.0)
    return np.fmax(out, NO_CONSTRAINT, out=out)
