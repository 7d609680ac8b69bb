"""Minimal-derivative PID search over Nichols-plane bounds.

A PID controller evaluated on the imaginary axis is

    K(j w) = kp + j (kd w - ki / w)

so its phase at any frequency is psi = atan((kd w - ki / w) / kp).  Fixing the
controller phase at two distinct frequencies puts the gain triple
(kd, ki, kp) in the kernel of a 2x3 matrix whose rows are

    [ 1,  -1/w^2,  -tan(psi)/w ]

The kernel is one-dimensional, so each phase pair proposes a gain *direction*;
a scalar multiplier then lifts the open loop until the tightest bound is met
with equality.  Scanning phase pairs over a grid and keeping the candidate
with the smallest derivative gain gives the design.  PI and PD are the same
search pinned at one anchor frequency with kd or ki held at zero: the phase
there fixes the direction of the two gains left.  Directions whose
components mix signs cannot be scaled into non-negative gains and are
rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import bounds
from .bounds import (
    INFEASIBLE,
    INTERPOLATION_TOLERANCE_DB,
    NO_CONSTRAINT,
    BoundCurve,
    UContour,
    interpolate_bound_array,
)
from .errors import EmptyWindow, NegativeMappedGain, RankDeficient
from .expr import parse_coefficient_expr
from .lti import to_nichols, to_nichols_array, wrap_phase, wrap_phase_array
from .plant import UncertainPlant

__all__ = [
    "PidGains",
    "DesignProblem",
    "MarginEntry",
    "DesignResult",
    "physical_gains",
    "pid_frequency_response",
    "phase_window",
    "loop_margins",
    "design_controller",
    "filtered_derivative_transform",
    "SweepScreen",
    "INTERPOLATION_TOLERANCE_DB",
]

PHASE_WINDOW_HALF_DEG = 90.0
_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class PidGains:
    """Proportional / integral / derivative gains, all non-negative."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def pid_frequency_response(kp, ki, kd, omega) -> np.ndarray:
    """K(j*omega) for gains and frequencies broadcast together, as a complex
    array; only defined for omega > 0 (the integrator blows up at 0).

    The real part is set to ``kp`` itself, not added to, so a kp of -0.0
    keeps its sign.
    """
    if not np.greater(omega, 0.0).all():
        raise ValueError("omega must be positive")
    out = np.empty(np.broadcast(kp, ki, kd, omega).shape, dtype=complex)
    out.real = kp
    out.imag = kd * omega - ki / omega
    return out


def phase_window(nominal_phase_deg: float, phase_grid: Sequence[float]) -> Tuple[float, ...]:
    """Grid phases strictly within 90 deg of the nominal plant phase.

    The nominal phase is wrapped onto (-360, 0] first; distances are then
    measured on that single sheet, so a window never leaks through the
    0/-360 seam.  The +/-90 endpoints themselves are excluded — there the
    controller phase would need an unbounded tangent.
    """
    centre = wrap_phase(nominal_phase_deg)
    window = tuple(p for p in phase_grid if abs(p - centre) < PHASE_WINDOW_HALF_DEG)
    if not window:
        raise EmptyWindow(
            f"no grid phase within {PHASE_WINDOW_HALF_DEG} deg of {centre:.2f} deg"
        )
    return window


def _kernel_grid(b_i, b_j, omega_i: float, omega_j: float) -> np.ndarray:
    """Unit kernel directions for the constraint matrices with rows
    [1, -1/w^2, b] at the two frequencies, for third-column entries ``b_i``
    and ``b_j`` broadcast together; (derivative, integral, proportional) are
    stacked along the first axis.

    Both rows start with 1, so their cross product spans the kernel.  It is
    normalised to unit length with the largest-magnitude component positive;
    components below machine-noise size are snapped to exactly zero, keeping
    downstream sign tests deterministic when a phase pair degenerates onto a
    two-gain ray.
    """
    a_i = -1.0 / (omega_i * omega_i)
    a_j = -1.0 / (omega_j * omega_j)
    d = b_i - b_j
    v = np.stack([a_i * b_j - b_i * a_j, d, np.full(d.shape, a_j - a_i)])
    cross = np.sqrt(np.sum(v * v, axis=0))
    # the singular values s0 >= s1 of a 2x3 matrix satisfy s0 * s1 = |row_i x row_j|
    # and s0^2 + s1^2 = its squared Frobenius norm
    frob = 2.0 + a_i * a_i + a_j * a_j + b_i * b_i + b_j * b_j
    s0 = np.sqrt(0.5 * (frob + np.sqrt(np.maximum(frob * frob - 4.0 * cross * cross, 0.0))))
    if np.any(cross / s0 < 1e-12 * np.maximum(s0, 1.0)):
        raise RankDeficient("phase-constraint matrix is rank deficient")
    v /= cross
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None], axis=0)
    np.negative(v, out=v, where=pivot < 0.0)
    v[np.abs(v) <= _SIGN_EPS] = 0.0
    v /= np.sqrt(np.sum(v * v, axis=0))
    return v


@dataclass(frozen=True)
class DesignProblem:
    """Everything the search needs: frequencies, and a nominal response and bound at each."""

    frequencies: Tuple[float, ...]
    nominal_responses: Tuple[complex, ...]
    bounds: Tuple[BoundCurve, ...]
    phase_grid: Tuple[float, ...]
    pair_indices: Tuple[int, int]

    def __post_init__(self):
        n = len(self.frequencies)
        if len(self.nominal_responses) != n or len(self.bounds) != n:
            raise ValueError("frequencies, responses and bounds must align")
        if any(not b > a for a, b in zip(self.frequencies, self.frequencies[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if self.frequencies and not self.frequencies[0] > 0.0:
            raise ValueError("frequencies must be positive")
        for k, (omega, curve) in enumerate(zip(self.frequencies, self.bounds)):
            if curve.omega != omega:
                raise ValueError(f"bound {k} is at omega={curve.omega!r}, not at {omega!r}")
        k, l = self.pair_indices
        if not (0 <= k < n and 0 <= l < n):
            raise ValueError(f"pair indices {self.pair_indices} out of range")
        if k == l:
            raise ValueError("pair indices must differ")

    def nominal_phase_deg(self, index: int) -> float:
        return to_nichols(self.nominal_responses[index])[0]

    def nominal_gain_db(self, index: int) -> float:
        return to_nichols(self.nominal_responses[index])[1]


def _lift(v: np.ndarray, problem: DesignProblem):
    """Smallest dB lift making each unit gain direction clear every bound.

    ``v`` stacks (v21, v22, v23) along its first axis.  For a direction and
    multiplier lam the open-loop gain at frequency w_k is
    |G0| + 20 log10(lam) + 10 log10(v23^2 + (v21 w - v22 / w)^2) dB at the
    phase the direction dictates there.  The required lift is the worst bound
    shortfall over frequencies.  Returns (lift, active index) arrays; the
    lift is INFEASIBLE where a bound is infeasible at the induced phase or no
    bound constrains the direction at all.
    """
    beta = np.full(v.shape[1:], NO_CONSTRAINT)
    active = np.zeros(v.shape[1:], dtype=int)
    blocked = np.zeros(v.shape[1:], dtype=bool)
    for k, omega in enumerate(problem.frequencies):
        nu = v[0] * omega - v[1] / omega
        g2 = v[2] * v[2] + nu * nu
        phi = wrap_phase_array(problem.nominal_phase_deg(k) + np.degrees(np.arctan2(nu, v[2])))
        bound = interpolate_bound_array(problem.bounds[k], phi)
        constrained = bound != NO_CONSTRAINT
        blocked |= constrained & ((bound == INFEASIBLE) | (g2 == 0.0))
        with np.errstate(divide="ignore"):
            term = bound - problem.nominal_gain_db(k) - 10.0 * np.log10(g2)
        tighter = constrained & (term > beta)
        beta = np.where(tighter, term, beta)
        active = np.where(tighter, k, active)
    return np.where(blocked | (beta == NO_CONSTRAINT), INFEASIBLE, beta), active


def _scale(v: np.ndarray, beta) -> np.ndarray:
    """Directions ``v`` lifted by ``beta`` dB into (kd, ki, kp) gains; inf
    gains where the lift is INFEASIBLE, as the search leaves sign-mixed
    directions.  Every direction it builds has a positive component."""
    ok = beta != INFEASIBLE
    return np.where(ok, 10.0 ** (np.where(ok, beta, 0.0) / 20.0) * v, np.inf)


@dataclass(frozen=True)
class MarginEntry:
    """Where the open loop sits relative to its bound at one frequency."""

    omega: float
    phase_deg: float
    gain_db: float
    bound_db: float
    slack_db: float


def loop_margins(
    curves: Sequence[BoundCurve], responses: Sequence[complex], gains: PidGains
) -> Tuple[MarginEntry, ...]:
    """Per-frequency slack over each curve of the plant ``responses`` (one per
    curve, at its frequency) times the controller.

    Slack is +inf where no bound applies and -inf against an infeasible
    entry.  A zero loop has no phase to look a bound up at: it sits at phase
    0 and -inf dB, and clears a curve only when that curve constrains nothing.
    """
    entries = []
    omegas = np.array([curve.omega for curve in curves])
    controller = pid_frequency_response(gains.kp, gains.ki, gains.kd, omegas).tolist()
    for curve, response, k in zip(curves, responses, controller):
        loop = response * k  # CPython's product: NumPy's differs in the last bits
        if loop == 0:
            phase, gain = 0.0, -math.inf
            bound = NO_CONSTRAINT if (curve.min_gain_db == NO_CONSTRAINT).all() else INFEASIBLE
        else:
            phase, gain = to_nichols(loop)
            bound = float(interpolate_bound_array(curve, np.array([phase]))[0])
        entries.append(
            MarginEntry(
                omega=curve.omega,
                phase_deg=phase,
                gain_db=gain,
                bound_db=bound,
                slack_db=gain - bound if bound != NO_CONSTRAINT else math.inf,
            )
        )
    return tuple(entries)


@dataclass(frozen=True, eq=False)
class SweepScreen:
    """Whole-curve stability veto applied between candidate and answer.

    The phase-pair search constrains the loop only at the design
    frequencies, so it happily proposes gain rays whose response dives into
    the stability contour *between* or *beyond* those frequencies (nearly
    proportional-integral rays with enormous kp are the classic case: they
    meet every per-frequency bound yet cut straight through the contour
    around the high-frequency cap).  The screen evaluates each candidate's
    nominal loop on a dense frequency grid and vetoes any that enters the
    contour interior by more than the shared tolerance; the search then
    settles on the smallest-kd candidate that survives
    (:meth:`first_admitted`, which sweeps the ranked candidates a block of
    rows at a time, first on the grid columns where earlier candidates
    entered the contour).  Verification's dense sweep is the same
    computation.

    ``omegas`` and ``nominal_responses`` are the dense grid and the plant's
    nominal response on it — precomputed by the caller, which is the party
    holding the plant; both are kept as arrays.  Every step of :meth:`sweep`
    is elementwise per grid column, so a screen over a subset of the columns
    gives those columns' values bit for bit.
    """

    contour: UContour
    omegas: np.ndarray
    nominal_responses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.array(self.omegas, dtype=float))
        object.__setattr__(self, "nominal_responses", np.array(self.nominal_responses, dtype=complex))
        if self.omegas.shape != self.nominal_responses.shape:
            raise ValueError("omegas and nominal_responses must pair up")
        if not np.all(self.omegas > 0.0):
            raise ValueError("screen frequencies must be positive")

    def sweep(self, kp, ki, kd) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The candidates' nominal loops on the grid: Nichols phase and gain
        per frequency, and whether each lies inside the contour by more than
        the tolerance.  A zero loop sits at -inf dB, outside the contour.

        Scalar gains give one row over the grid, equal-length 1-D gain
        columns one row per candidate, with the same elementwise arithmetic
        in every row and every column.  The responses are laid out in full
        before the product: with a broadcast factor, NumPy (2.4 on AVX-512)
        rounds a one-row block on a one-column grid differently.
        """
        kp, ki, kd = (np.asarray(g, dtype=float)[..., None] for g in (kp, ki, kd))
        controller = pid_frequency_response(kp, ki, kd, self.omegas)
        responses = np.broadcast_to(self.nominal_responses, controller.shape).copy()
        phase, gain = to_nichols_array(responses * controller)
        return phase, gain, self.contour.inside(phase, gain)

    def first_admitted(self, kd: np.ndarray, ki: np.ndarray, kp: np.ndarray) -> Optional[int]:
        """Index of the first candidate (gain columns in visiting order) whose
        nominal loop stays out of the contour, or None when every one enters.

        A grid column is marked where a candidate swept on the whole grid
        first enters the contour.  Candidates go in blocks of 1, 2, 4, ...
        rows, each first swept on the marked columns only and capped at
        ``bounds._BLOCK_CELLS`` cells there; the rows no marked column vetoes
        are then swept on the whole grid in chunks of at most that many
        cells.  A veto is an OR over the columns, so testing some of them
        first changes which rows reach the whole grid, never the answer.
        """
        marked = np.zeros(len(self.omegas), dtype=bool)
        hot = None  # the screen over the marked columns, once there are any
        chunk = max(1, bounds._BLOCK_CELLS // max(1, len(self.omegas)))
        start, rows = 0, 1
        while start < len(kd):
            block = slice(start, min(start + rows, len(kd)))
            pending = np.arange(start, block.stop)
            if hot is not None:
                vetoed = np.any(hot.sweep(kp[block], ki[block], kd[block])[2], axis=1)
                pending = pending[~vetoed]
            for first in range(0, pending.size, chunk):
                part = pending[first : first + chunk]
                inside = self.sweep(kp[part], ki[part], kd[part])[2]
                entered = np.any(inside, axis=1)
                if not entered.all():
                    return int(part[np.argmin(entered)])
                marked[np.argmax(inside, axis=1)] = True
            if pending.size:
                columns = np.flatnonzero(marked)
                hot = SweepScreen(
                    self.contour, self.omegas[columns], self.nominal_responses[columns]
                )
            start, rows = block.stop, min(2 * rows, max(1, bounds._BLOCK_CELLS // hot.omegas.size))
        return None


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a loop-shaping search."""

    feasible: bool
    gains: Optional[PidGains]
    chosen_phases: Tuple[float, ...]
    active_frequency: Optional[float]
    beta_db: Optional[float]
    kd_grid: np.ndarray
    window_phases_i: Tuple[float, ...]
    window_phases_j: Tuple[float, ...]
    margin_report: Tuple[MarginEntry, ...]
    reason: str = ""
    screen_rejections: int = 0


def _no_design(grid: np.ndarray, windows, reason: str, vetoed: int = 0) -> DesignResult:
    return DesignResult(
        feasible=False,
        gains=None,
        chosen_phases=(),
        active_frequency=None,
        beta_db=None,
        kd_grid=grid,
        window_phases_i=windows[0],
        window_phases_j=windows[1],
        margin_report=(),
        reason=reason,
        screen_rejections=vetoed,
    )


def design_controller(problem: DesignProblem, kind: str, screen: SweepScreen) -> DesignResult:
    """The controller search: least derivative gain for ``kind`` "pid", and
    the one-parameter specialisations "pi" (kd = 0, least kp) and "pd"
    (ki = 0, least kd).

    A PID pins the loop phase at both anchors ``problem.pair_indices`` and
    scores the (m, n) grid of phase pairs.  PI and PD pin it at the first
    anchor only, over the lagging (psi in (-90, 0]) or leading (psi in
    [0, 90)) half of its window, and score a (1, n) grid; ``window_phases_i``
    is then empty.  Each cell's unit gain direction is lifted onto the
    tightest bound; the grid of objective values (inf where the direction is
    sign-mixed or unscalable, which are not lifted at all) is returned in
    ``kd_grid`` and documents the raw search.

    The finite cells go to the ``screen``'s ``first_admitted`` as (kd, ki,
    kp) columns in ascending (objective, cell index) order, and the first
    whose dense nominal sweep stays out of the stability contour wins; the
    number it passes over is ``screen_rejections``.  A grid with no finite
    or admitted cell comes back infeasible instead of raising so the caller
    can report and exit cleanly; an empty window raises EmptyWindow.
    """
    if kind not in ("pid", "pi", "pd"):
        raise ValueError("kind must be 'pid', 'pi' or 'pd'")
    k, l = problem.pair_indices
    omega_i, phase_i = problem.frequencies[k], problem.nominal_phase_deg(k)
    if kind == "pid":
        omega_j, phase_j = problem.frequencies[l], problem.nominal_phase_deg(l)
        windows = tuple(phase_window(p, problem.phase_grid) for p in (phase_i, phase_j))
    else:
        lag = kind == "pi"
        window = tuple(
            p
            for p in phase_window(phase_i, problem.phase_grid)
            if (-90.0 < p - phase_i <= 0.0 if lag else 0.0 <= p - phase_i < 90.0)
        )
        if not window:
            raise EmptyWindow(f"no grid phase in the {kind.upper()} half-window")
        windows = ((), window)
    if all((curve.min_gain_db == NO_CONSTRAINT).all() for curve in problem.bounds):
        grid = np.full((len(windows[0]) or 1, len(windows[1])), np.inf)
        return _no_design(grid, windows, "no binding constraint")

    if kind == "pid":
        # third column -tan(psi) / w of the rows in the module docstring; phase_window's
        # strict bound keeps psi inside (-90, 90)
        b_i = np.array([-math.tan(math.radians(p - phase_i)) / omega_i for p in windows[0]])
        b_j = np.array([-math.tan(math.radians(p - phase_j)) / omega_j for p in windows[1]])
        v = _kernel_grid(b_i[:, None], b_j[None, :], omega_i, omega_j)
        objective = 0
        empty_reason = "every phase pair is sign-mixed or blocked by an infeasible bound"
    else:
        t = np.array([[math.tan(math.radians(p - phase_i)) for p in window]])
        zero, one = np.zeros_like(t), np.ones_like(t)
        raw = np.stack([zero, -omega_i * t, one] if lag else [t / omega_i, zero, one])
        v = raw / np.sqrt(np.sum(raw * raw, axis=0))
        objective = 2 if lag else 0
        empty_reason = f"no feasible {kind.upper()} phase in the half-window"

    beta = np.full(v.shape[1:], INFEASIBLE)
    active = np.zeros(v.shape[1:], dtype=int)
    scalable = ~np.any(v < 0.0, axis=0)
    beta[scalable], active[scalable] = _lift(v[:, scalable], problem)
    gains = _scale(v, beta)
    grid = gains[objective]
    finite = np.flatnonzero(np.isfinite(grid))
    order = finite[np.argsort(grid.ravel()[finite], kind="stable")]
    rows, cols = np.unravel_index(order, grid.shape)
    kd, ki, kp = gains[:, rows, cols]
    winner = screen.first_admitted(kd, ki, kp)
    if winner is None:
        if finite.size:
            empty_reason = (
                "every feasible candidate crosses the stability contour between design frequencies"
            )
        return _no_design(grid, windows, empty_reason, finite.size)
    i, j = rows[winner], cols[winner]
    candidate = PidGains(kp=float(kp[winner]), ki=float(ki[winner]), kd=float(kd[winner]))
    return DesignResult(
        feasible=True,
        gains=candidate,
        chosen_phases=tuple(w[c] for w, c in zip(windows, (i, j)) if w),
        active_frequency=problem.frequencies[active[i, j]],
        beta_db=float(beta[i, j]),
        kd_grid=grid,
        window_phases_i=windows[0],
        window_phases_j=windows[1],
        margin_report=loop_margins(problem.bounds, problem.nominal_responses, candidate),
        screen_rejections=winner,
    )


def physical_gains(primed: PidGains, tau: float) -> PidGains:
    """Ideal-form gains of a PID with derivative filter tau, from the gains
    found for the :func:`filtered_derivative_transform` plant, which are kp +
    ki tau, ki and kd + kp tau.  NegativeMappedGain if kp or kd goes negative."""
    kp = primed.kp - primed.ki * tau
    ki = primed.ki
    kd = primed.kd - kp * tau
    if kp < 0.0 or kd < 0.0:
        raise NegativeMappedGain(
            f"regrouped gains map back to kp={kp}, kd={kd}; physical gains must stay non-negative"
        )
    return PidGains(kp=kp, ki=ki, kd=kd)


def filtered_derivative_transform(plant: UncertainPlant, tau: float) -> UncertainPlant:
    """Absorb a derivative filter 1/(1 + tau s) into the plant.

    Returns the augmented plant (denominator multiplied by 1 + tau s), so the
    standard search runs unchanged on the augmented problem;
    :func:`physical_gains` maps its result back to an implementable filtered
    PID.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    # multiply the denominator polynomial by (tau s + 1), coefficients descending:
    # each new coefficient tau * c_k + c_(k-1) is written as source text and parsed
    old = [f"({c.source})" for c in plant.den]
    factor = f"({float(tau)!r})*"
    texts = [factor + old[0]] + [f"{factor}{c}+{prev}" for prev, c in zip(old, old[1:])]
    names = [spec.name for spec in plant.params]
    new_den = [parse_coefficient_expr(text, names) for text in texts] + [plant.den[-1]]
    return UncertainPlant(
        num=plant.num,
        den=tuple(new_den),
        params=plant.params,
        nominal=dict(plant.nominal),
    )
