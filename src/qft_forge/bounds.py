"""Nichols-plane bound computation.

For each design frequency the plant template is swept along a vertical line of
candidate nominal gains at every grid phase.  The tracking bound, the least
gain keeping the closed-loop magnitude spread within its allowance, is found
by an upward 5 dB scan from a -100 dB floor and bisection of the first
feasible bracket; a probe of more members than the template's hull first
tries the hull members alone.  A sensitivity cap and the stability bound
|T| <= M need no search: each is one quadratic in the gain per member, and
one closed form (:func:`_circle_roots`) solves every member exactly.  The
high-frequency stability contour is the same closed form on the nominal
member.  Two sentinels extend the real line:

* ``NO_CONSTRAINT`` (-inf): feasible at the -100 dB floor (a cap or M: and above);
* ``INFEASIBLE``    (+inf): infeasible at the +100 dB ceiling (a cap or M: or above).

Encoding them as infinities makes ``max`` implement the combination rules for
stacking bound families directly, as ``pipeline.compute_bounds`` does.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence, Tuple

import numpy as np

from .errors import DegenerateSpread, InvalidM, ZeroMagnitude
from .lti import RationalTransferFunction, db, eval_tf
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
    "stability_bound",
    "interpolate_bound_array",
    "gain_floor",
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


# --- bound search ----------------------------------------------------------

# The block budget: 4096 complex cells, 64 KiB.  The tracking search's chunks
# probed on every member, the cap bound's phase blocks, the stability screen's
# blocks and the oracle's ki blocks keep their temporaries within it.  Freeing
# a chunk of 64 KiB or more makes glibc's free() consolidate the heap and trim
# its top, and the next block faults those pages back in: 40 000 minor faults
# and +0.13 s on dense-template at some checkout paths, 124 000 faults on the
# oracle workload with double blocks.  The scan's phase blocks hold two
# budgets of cells; with witnesses they are sized by them.
_BLOCK_CELLS = 4096


def _least_feasible_gains(ratios, phases_deg, delta_db, witnesses=None) -> np.ndarray:
    """Least gain keeping the closed-loop spread within ``delta_db`` at each
    phase: an upward scan from the floor, then the bisection of the first
    feasible bracket, in lockstep for a block of phases.  A member whose loop
    is exactly -1 makes the row's spread inf or NaN, failing that probe.

    ``witnesses``, some of the members (the template's hull), rule out the
    rows whose spread on them is over ``delta_db``; only the rest are probed
    on every member.  That is exact: a subset's max and min select among the
    row's, rounded subtraction is monotone, and a witness on -1 is on -1 in
    the full set too.
    """
    radians = map(math.radians, phases_deg)
    rotors = np.array([complex(math.cos(r), math.sin(r)) for r in radians], dtype=complex)
    out = np.empty(len(rotors))
    rows = max(1, 2 * _BLOCK_CELLS // len(ratios if witnesses is None else witnesses))
    with np.errstate(divide="ignore", invalid="ignore"):  # a loop on -1 divides by zero
        for start in range(0, len(rotors), rows):
            block = slice(start, start + rows)
            out[block] = _search_block(ratios, rotors[block], delta_db, witnesses)
    return out


def _search_block(ratios, rotors, delta_db, witnesses) -> np.ndarray:
    def probe_on(members, rows: np.ndarray, gains: np.ndarray) -> np.ndarray:
        loop = (gains * rotors[rows])[:, None] * members
        vals = 20.0 * np.log10(np.abs(loop / (1.0 + loop)))
        return vals.max(axis=1) - vals.min(axis=1) <= delta_db

    def probe(rows: np.ndarray, gains_db: np.ndarray) -> np.ndarray:
        magnitudes = map(pow, repeat(10.0), (gains_db / 20.0).tolist())
        gains = np.fromiter(magnitudes, dtype=float, count=len(gains_db))
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


def horowitz_bound(
    template: Template,
    delta_db: float,
    phase_grid: Sequence[float],
    use_hull: bool = True,
) -> BoundCurve:
    """Least nominal gain keeping the family's closed-loop spread <= delta_db,
    at each phase of ``phase_grid``; screened on the hull members when they
    are fewer than the members probed (every one without ``use_hull``)."""
    _check_search("delta_db", delta_db)
    indices = template.hull_indices
    hull = template.ratios[indices] if len(indices) else template.ratios
    ratios = hull if use_hull else template.ratios
    witnesses = hull if len(hull) < len(ratios) else None
    entries = _least_feasible_gains(ratios, phase_grid, delta_db, witnesses)
    return BoundCurve(omega=template.omega, phase_grid=tuple(phase_grid), min_gain_db=entries)


def _check_m(m_value: float) -> float:
    """1 - 1/M^2, the g^2 factor of the stability quadratic; InvalidM unless 1 < M < inf."""
    if not 1.0 < m_value < math.inf:
        raise InvalidM(f"m_value must exceed 1, got {m_value}")
    return 1.0 - 1.0 / (m_value * m_value)


def _circle_roots(a, b, s, c) -> Tuple[np.ndarray, np.ndarray]:
    """Both roots of s a g^2 + 2 b g + c, the larger first; NaN where they
    are not real.  With far = -b - sign(b) sqrt(D) they are far / (s a) and
    c / far, neither of which cancels (s a > 0).

    Every circle-shaped bound is one such quadratic per loop z = e^{j phase}
    r with a = |z|^2 and b = Re z: a loop gain g strictly between the roots
    puts g z inside a circle.  |1/(1 + g z)| > cap is s = 1, c = 1 - 1/cap^2,
    and |g z / (1 + g z)| > M is s = 1 - 1/M^2, c = 1.  Callers silence the
    floating-point warnings of NaN and zero operands.
    """
    root = np.sqrt(b * b - s * a * c)
    far = -(b + np.copysign(root, b))
    near = c / far
    far /= s * a
    return np.maximum(far, near), np.minimum(far, near)


def _least_gains_past_circles(template: Template, s: float, c: float, phase_grid) -> BoundCurve:
    """Least nominal gain above every member's forbidden gains at each phase:
    20 log10 of the largest top over the members whose roots differ,
    NO_CONSTRAINT at or below the scan floor or where no top is positive,
    INFEASIBLE above the ceiling.  A phase block holds at most
    ``_BLOCK_CELLS`` cells."""
    ratios = template.ratios
    # contiguous parts: products with the strided views cost twice as much
    a, re, im = np.abs(ratios) ** 2, ratios.real.copy(), ratios.imag.copy()
    radians = np.radians(phase_grid)[:, None]
    cosines, sines = np.cos(radians), np.sin(radians)
    top = np.empty(len(radians))
    rows = max(1, _BLOCK_CELLS // len(ratios))
    with np.errstate(divide="ignore", invalid="ignore"):  # no root; log10(0)
        for start in range(0, len(radians), rows):
            block = slice(start, start + rows)
            b = cosines[block] * re - sines[block] * im  # Re z
            upper, lower = _circle_roots(a, b, s, c)
            top[block] = np.max(upper, axis=1, initial=0.0, where=upper > lower)
        entries = 20.0 * np.log10(top)
    entries[entries <= SCAN_FLOOR_DB] = NO_CONSTRAINT
    entries[entries > SCAN_CEILING_DB] = INFEASIBLE
    return BoundCurve(omega=template.omega, phase_grid=tuple(phase_grid), min_gain_db=entries)


def disturbance_bound(template: Template, cap: float, phase_grid: Sequence[float]) -> BoundCurve:
    """Least nominal gain above which |1/(1+L)| <= cap holds on every member,
    at each phase of ``phase_grid``, in closed form (see
    :func:`_circle_roots`)."""
    _check_search("cap", cap)
    return _least_gains_past_circles(template, 1.0, 1.0 - 1.0 / (cap * cap), phase_grid)


def stability_bound(template: Template, m_value: float, phase_grid: Sequence[float]) -> BoundCurve:
    """Least nominal gain above which |L/(1+L)| <= M holds on every member,
    at each phase of ``phase_grid``, in closed form (see
    :func:`_circle_roots`); InvalidM unless 1 < M < inf."""
    return _least_gains_past_circles(template, _check_m(m_value), 1.0, phase_grid)


# --- high-frequency stability contour -------------------------------------

@dataclass(frozen=True)
class UContour:
    """Closed stability region: the nominal member's M-circle on top, the
    same circle dropped by the high-frequency template span underneath, at
    the phases the circle reaches.  InvalidM unless 1 < M < inf."""

    m_value: float
    delta_hf_db: float

    def __post_init__(self):
        _check_m(self.m_value)
        if not self.delta_hf_db >= 0.0:
            raise ValueError("delta_hf_db must be non-negative")
        object.__setattr__(self, "m_value", float(self.m_value))
        object.__setattr__(self, "delta_hf_db", float(self.delta_hf_db))

    def edges(self, phases) -> Tuple[np.ndarray, np.ndarray]:
        """(top, bottom) in dB at each phase, the bottom dropped by
        ``delta_hf_db``: :func:`stability_bound`'s roots for the one member
        r = 1.  NaN where the circle does not reach the phase, that is where
        the roots are not real or not positive."""
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.cos(np.radians(phases))
            top, bottom = _circle_roots(1.0, b, _check_m(self.m_value), 1.0)
            return 20.0 * np.log10(top), 20.0 * np.log10(bottom) - self.delta_hf_db

    def inside(self, phase_deg, gain_db):
        """Strict interior test, used by the dense stability sweep;
        elementwise over arrays of phases and gains.

        The region is shrunk by ``INTERPOLATION_TOLERANCE_DB``: points within
        it of either edge count as outside.  This keeps points that ride a
        boundary (where the combined design bounds equal the contour top)
        from being flagged over sub-0.01 dB arithmetic noise.
        """
        top, bottom = self.edges(phase_deg)
        tol = INTERPOLATION_TOLERANCE_DB
        return (bottom + tol < gain_db) & (gain_db < top - tol)


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


def gain_floor(curve: BoundCurve) -> np.ndarray:
    """Squared loop gains below which a loop fails ``curve``: 361 entries,
    one per degree of the loop's raw ``arctan2`` angle, ``int(angle + 180)``.

    Entry j covers the angles [j - 181, j - 178], its degree widened by one on
    each side, and the Nichols phases they fold onto: an angle <= 0 as it is,
    one > 0 less 360 (0 at the seam).  In a slot of the table the lookup is
    the node at its start, else ``fl(t * step) + base`` with t in [0, 1],
    which monotone rounding keeps at or above min(base, base + step); beyond
    the grid it is NO_CONSTRAINT.  The least over the slots those phases
    reach, less 1e-9 dB, becomes a squared gain shrunk by 1e-12.  A floor
    that would be subnormal, too coarse to be exact, is 0.
    """
    _, _, base, step, node = curve._table
    least = np.minimum(node, np.minimum(base, base + step))
    least[[0, -1]] = NO_CONSTRAINT
    least, grid, floor_db = least.tolist(), curve.phase_grid, []
    for lo in range(-181, 180):
        hi = lo + 3
        spans = [(lo, min(hi, 0))] if lo <= 0 else []
        spans += [(max(lo, 0) - 360, hi - 360)] if hi > 0 else []
        reach = (least[bisect_right(grid, a) : bisect_right(grid, b) + 1] for a, b in spans)
        floor_db.append(min(map(min, reach)))
    with np.errstate(over="ignore"):
        floor = 10.0 ** ((np.array(floor_db) - 1e-9) / 10.0) * (1.0 - 1e-12)
    floor[floor < np.finfo(float).tiny] = 0.0
    return floor
