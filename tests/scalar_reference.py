"""Scalar reference implementations the array code is checked against.

These are the package's earlier one-phase-at-a-time bound search and bound
interpolation, one-point-at-a-time stability screen, one-candidate-at-a-time
screen walk, and one-frequency-at-a-time plant evaluation, templates and
closed-loop envelope: a Python loop per phase (or per frequency, or per
candidate) calling plain scalar arithmetic.  Tests compare the vectorised
implementations with them bit for bit (bounds, interpolation, plant,
templates, envelope, screen sweep) or decision for decision (screen).  The
earlier envelope that evaluates every family member again is kept too, as
the reference for the envelope that reads the templates' responses.  The
gain-box oracle's earlier full-mesh search is kept here too: every kd slice
tests the whole (ki, kp) mesh at each design frequency in a fixed order, and
the blocked search must return the same result.  The earlier scalar
controller response and phase wrap are kept too, as the references for the
array kernel and for the wrap that now runs on it.  The earlier libm M-circle
(``m_circle_gains``, ``m_circle_phase_range``), the contour edges and the
contour's sampled top and bottom built on it are the references, to within
rounding, for ``UContour.edges`` and the chart's contour polygon; ``undb``
is the dB-to-magnitude step the earlier search and these tests use.

The design search has a one-cell reference in plain Python floats: a gain
direction per phase pair (PID) or per phase (PI, PD), and its lift onto the
bounds by :func:`interpolate_bound`.  It calls none of the grid's array
code (``_kernel_grid``, ``_lift``, ``interpolate_bound_array``), and tests
compare the two cell by cell to a relative tolerance.

A coefficient expression has a tree reference: nested tuples evaluated by
recursion, left operand first, with Python's float arithmetic.
Tests render random trees as text and compare the parsed program's value
with the tree's bit for bit.
"""

from __future__ import annotations

import bisect
import cmath
import math
import operator
from typing import Callable, Sequence

import numpy as np

from qft_forge.bounds import (
    DEFAULT_TOL_DB,
    INFEASIBLE,
    NO_CONSTRAINT,
    SCAN_CEILING_DB,
    SCAN_FLOOR_DB,
    SCAN_STEP_DB,
)
from qft_forge.errors import (
    NoFeasiblePoint,
    PoleOnAxis,
    TemplateTooWide,
    ZeroMagnitude,
)
from qft_forge.lti import (
    db,
    eval_tf,
    principal_phase,
    to_nichols,
    wrap_phase_array,
)
from qft_forge.optimizer import INTERPOLATION_TOLERANCE_DB, PidGains
from qft_forge.plant import Template, convex_hull_nichols, evaluate_plant_array
from qft_forge.verify import EnvelopeRow, OracleResult


def undb(gain_db: float) -> float:
    """Decibels back to magnitude, in CPython float arithmetic."""
    return 10.0 ** (gain_db / 20.0)


def m_circle_gains(m_value: float, phase_deg: float):
    """The earlier libm crossings (upper_db, lower_db) of |L/(1+L)| = M at
    one phase, or None where the locus does not reach it.  With
    L = r e^{j phi} the locus is the quadratic

        r^2 (M^2 - 1) + 2 M^2 cos(phi) r + M^2 = 0.
    """
    m2 = m_value * m_value
    c = math.cos(math.radians(phase_deg))
    disc = m2 * c * c - (m2 - 1.0)
    if disc < 0.0 or c >= 0.0:
        return None
    root = m_value * math.sqrt(disc)
    return db((-m2 * c + root) / (m2 - 1.0)), db((-m2 * c - root) / (m2 - 1.0))


def m_circle_phase_range(m_value: float) -> tuple:
    """The earlier phase span of the M-locus on (-360, 0], centred on -180:
    where cos(phi) <= -sqrt(M^2 - 1)/M."""
    limit = math.sqrt((m_value * m_value - 1.0) / (m_value * m_value))
    half_width = math.degrees(math.acos(limit))
    return -180.0 - half_width, -180.0 + half_width


def pid_frequency_response(gains, omega: float) -> complex:
    """The earlier scalar controller response K(j omega) of one gain triple,
    in CPython arithmetic."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return complex(gains.kp, gains.kd * omega - gains.ki / omega)


def wrap_phase(phase_deg: float) -> float:
    """The earlier scalar wrap onto (-360, 0], on libm's ``fmod``."""
    r = math.fmod(phase_deg, 360.0)
    if r > 0.0:
        r -= 360.0
        if r == -360.0:
            r = 0.0
    return r + 0.0


def _closed_loop_spread_db(ratios: np.ndarray, gain_db: float, phase_rad: float) -> float:
    loop = undb(gain_db) * complex(math.cos(phase_rad), math.sin(phase_rad)) * ratios
    denom = 1.0 + loop
    if np.any(denom == 0):
        return math.inf
    mags = np.abs(loop / denom)
    vals = 20.0 * np.log10(mags)
    return float(vals.max() - vals.min())


def _worst_sensitivity(ratios: np.ndarray, gain_db: float, phase_rad: float) -> float:
    loop = undb(gain_db) * complex(math.cos(phase_rad), math.sin(phase_rad)) * ratios
    denom = 1.0 + loop
    if np.any(denom == 0):
        return math.inf
    return float(np.max(np.abs(1.0 / denom)))


def least_feasible_gain(feasible: Callable[[float], bool], tol_db: float) -> float:
    """Upward scan then bisection for the smallest gain passing ``feasible``."""
    if feasible(SCAN_FLOOR_DB):
        return NO_CONSTRAINT
    lo = SCAN_FLOOR_DB
    hi = None
    c = SCAN_FLOOR_DB + SCAN_STEP_DB
    while c <= SCAN_CEILING_DB + 1e-12:
        if feasible(c):
            hi = c
            break
        lo = c
        c += SCAN_STEP_DB
    if hi is None:
        return INFEASIBLE
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def horowitz_entries(ratios: np.ndarray, delta_db: float, phase_grid: Sequence[float]):
    return [
        least_feasible_gain(
            lambda c: _closed_loop_spread_db(ratios, c, math.radians(phi)) <= delta_db,
            DEFAULT_TOL_DB,
        )
        for phi in phase_grid
    ]


def disturbance_entries(ratios: np.ndarray, cap: float, phase_grid: Sequence[float]):
    return [
        least_feasible_gain(
            lambda c: _worst_sensitivity(ratios, c, math.radians(phi)) <= cap, DEFAULT_TOL_DB
        )
        for phi in phase_grid
    ]


def screen_admits(screen, gains) -> bool:
    """Point-by-point twin of the screen's decision: True when no point of
    ``screen.sweep(gains.kp, gains.ki, gains.kd)`` lies inside the contour."""
    for omega, response in zip(screen.omegas, screen.nominal_responses):
        loop = response * pid_frequency_response(gains, omega)
        if loop == 0:
            continue
        phase = wrap_phase(math.degrees(cmath.phase(loop)))
        if _inside(screen.contour, phase, db(abs(loop)), INTERPOLATION_TOLERANCE_DB):
            return False
    return True


def screen_sweep(screen, gains):
    """The earlier one-candidate ``SweepScreen.sweep``: one row over the grid."""
    controller = np.empty(len(screen.omegas), dtype=complex)
    controller.real = gains.kp
    controller.imag = gains.kd * screen.omegas - gains.ki / screen.omegas
    phase, gain = nichols_array(screen.nominal_responses * controller)
    return phase, gain, screen.contour.inside(phase, gain)


def first_admitted(screen, kd, ki, kp):
    """The earlier screen walk: one sweep per candidate, in the given order,
    until one stays out of the contour; None when every one enters."""
    for index, gains in enumerate(zip(kp.tolist(), ki.tolist(), kd.tolist())):
        if not np.any(screen_sweep(screen, PidGains(*gains))[2]):
            return index
    return None


def _unit(v):
    norm = math.sqrt(sum(c * c for c in v))
    return [c / norm for c in v]


def pid_direction(psi_i_deg: float, psi_j_deg: float, omega_i: float, omega_j: float):
    """(kd, ki, kp) unit direction realising controller phases ``psi_i_deg``
    at ``omega_i`` and ``psi_j_deg`` at ``omega_j``.

    The cross product of the constraint rows [1, -1/w^2, -tan(psi)/w],
    normalised, with its largest-magnitude component made positive and
    components of magnitude at most 1e-12 snapped to zero, then normalised
    again.
    """
    rows = [
        (1.0, -1.0 / (omega * omega), -math.tan(math.radians(psi)) / omega)
        for psi, omega in ((psi_i_deg, omega_i), (psi_j_deg, omega_j))
    ]
    (x1, y1, z1), (x2, y2, z2) = rows
    v = _unit([y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2])
    if max(v, key=abs) < 0.0:
        v = [-c for c in v]
    return _unit([0.0 if abs(c) <= 1e-12 else c for c in v])


def pi_pd_direction(kind: str, psi_deg: float, omega: float):
    """(kd, ki, kp) unit direction of the PI ray (0, -w tan(psi), 1) or the
    PD ray (tan(psi) / w, 0, 1)."""
    t = math.tan(math.radians(psi_deg))
    return _unit([0.0, -omega * t, 1.0] if kind == "pi" else [t / omega, 0.0, 1.0])


def lift(problem, v):
    """(beta_db, active index) lifting direction ``v`` onto its tightest
    bound over the design frequencies, or None when a bound at the induced
    phase is infeasible, the loop vanishes where a bound applies, or no
    bound applies anywhere.  Ties keep the first frequency."""
    kd, ki, kp = v
    beta, active = None, None
    for k, (omega, curve) in enumerate(zip(problem.frequencies, problem.bounds)):
        nominal_phase, nominal_gain = to_nichols(problem.nominal_responses[k])
        nu = kd * omega - ki / omega
        g2 = kp * kp + nu * nu
        bound = interpolate_bound(curve, wrap_phase(nominal_phase + math.degrees(math.atan2(nu, kp))))
        if bound == NO_CONSTRAINT:
            continue
        if bound == INFEASIBLE or g2 == 0.0:
            return None
        term = bound - nominal_gain - 10.0 * math.log10(g2)
        if beta is None or term > beta:
            beta, active = term, k
    return None if beta is None else (beta, active)


def candidate_gains(problem, v):
    """Gains (kd, ki, kp) of direction ``v`` lifted onto its bounds, or None
    when its components mix signs or :func:`lift` rejects it."""
    if any(c > 0.0 for c in v) and any(c < 0.0 for c in v):
        return None
    lifted = lift(problem, v)
    if lifted is None:
        return None
    scale = 10.0 ** (lifted[0] / 20.0)
    return [abs(c) * scale for c in v]


def contour_edges(m_value: float, delta_hf_db: float, phases: Sequence[float]):
    """(top, bottom) of the stability contour at each phase, the bottom
    dropped by ``delta_hf_db``; None outside the locus's phase range or
    where :func:`m_circle_gains` finds no crossing."""
    phase_min, phase_max = m_circle_phase_range(m_value)
    edges = []
    for phi in phases:
        pair = m_circle_gains(m_value, phi) if phase_min <= phi <= phase_max else None
        edges.append(None if pair is None else (pair[0], pair[1] - delta_hf_db))
    return edges


def contour_samples(m_value: float, delta_hf_db: float, phase_grid: Sequence[float]):
    """The contour sampled on the grid phases it reaches, as the tuples
    ``(phases, upper_db, lower_db)``."""
    edges = contour_edges(m_value, delta_hf_db, phase_grid)
    reached = [(float(phi), edge) for phi, edge in zip(phase_grid, edges) if edge is not None]
    return (
        tuple(phi for phi, _ in reached),
        tuple(top for _, (top, _) in reached),
        tuple(bottom for _, (_, bottom) in reached),
    )


def _inside(contour, phase_deg: float, gain_db: float, tol_db: float) -> bool:
    """The contour's interior test on libm scalars."""
    phase_min, phase_max = m_circle_phase_range(contour.m_value)
    if not phase_min <= phase_deg <= phase_max:
        return False
    pair = m_circle_gains(contour.m_value, phase_deg)
    if pair is None:
        return False
    return pair[1] - contour.delta_hf_db + tol_db < gain_db < pair[0] - tol_db


def plant_response(num: Sequence[float], den: Sequence[float], s: complex) -> complex:
    """num(s) / den(s) by NumPy's polyval at one point and CPython division."""
    return complex(np.polyval(num, s)) / complex(np.polyval(den, s))


def member_response(plant, point, s: complex) -> complex:
    """One family member at one point: box check, coefficients, then
    :func:`plant_response`; PoleOnAxis where the denominator vanishes."""
    plant._check_in_box(point)
    num, den = plant.coefficients_at(point)
    if complex(np.polyval(den, s)) == 0:
        raise PoleOnAxis(f"plant denominator vanishes at s = {s} for {point}")
    return plant_response(num, den, s)


def generate_template(plant, omega: float) -> Template:
    """The family's template at one frequency, one member at a time."""
    nominal_response = member_response(plant, plant.nominal, 1j * omega)
    names = tuple(spec.name for spec in plant.params)
    members = plant.members()
    responses, ratios, phases, gains = [], [], [], []
    for combo in members:
        env = dict(zip(names, combo))
        response = member_response(plant, env, 1j * omega)
        ratio = response / nominal_response
        magnitude = abs(ratio)
        if magnitude == 0.0:
            raise ZeroMagnitude(f"family member at {env} has zero response at omega={omega}")
        responses.append(response)
        ratios.append(ratio)
        phases.append(principal_phase(ratio))
        gains.append(db(magnitude))

    span = max(phases) - min(phases)
    if span > 180.0 + 1e-9:
        raise TemplateTooWide(
            f"template at omega={omega} spans {span:.2f} deg of phase (> 180)"
        )

    coords = list(zip(phases, gains))
    hull = convex_hull_nichols(coords)
    index_of = {}
    for i, c in enumerate(coords):
        index_of.setdefault(c, i)
    return Template(
        omega=float(omega),
        points=np.array(members, dtype=float),
        responses=np.array(responses, dtype=complex),
        ratios=np.array(ratios, dtype=complex),
        phase_deg=np.array(phases),
        gain_db=np.array(gains),
        hull_indices=np.array([index_of[v] for v in hull], dtype=int),
    )


def interpolate_bound(curve, phase_deg: float) -> float:
    """Bisect-and-interpolate lookup of one phase on a bound curve, which
    repeats every turn: the phase first moves by whole turns into
    [g0, g0 + 360), or to g0 where the move rounds it below, and past the
    last node the curve runs to the first node plus 360.  NaN and infinite
    phases are unconstrained."""
    grid = curve.phase_grid.tolist()
    vals = curve.min_gain_db.tolist()
    if not math.isfinite(phase_deg):
        return NO_CONSTRAINT
    phase_deg = max(phase_deg - 360.0 * math.floor((phase_deg - grid[0]) / 360.0), grid[0])
    idx = bisect.bisect_right(grid, phase_deg)  # node idx - 1 starts the interval
    if grid[idx - 1] == phase_deg:
        return vals[idx - 1]
    if idx < len(grid):
        a, b, width = vals[idx - 1], vals[idx], grid[idx] - grid[idx - 1]
    else:
        a, b, width = vals[-1], vals[0], (grid[0] + 360.0) - grid[-1]
    if a == INFEASIBLE or b == INFEASIBLE:
        return INFEASIBLE
    if a == NO_CONSTRAINT:
        return b
    if b == NO_CONSTRAINT:
        return a
    t = (phase_deg - grid[idx - 1]) / width
    return a + t * (b - a)


def interpolate_bound_array(curve, phases: np.ndarray) -> np.ndarray:
    """The earlier array interpolation, made periodic: each phase moves by
    whole turns into [g0, g0 + 360), then the sentinel rules apply per query
    by masks over the whole block, the last node's successor being the
    first."""
    grid = np.array(curve.phase_grid)
    vals = np.array(curve.min_gain_db)
    phases = np.asarray(phases, dtype=float)
    with np.errstate(invalid="ignore"):  # an infinite phase moves to NaN
        p = phases - 360.0 * np.floor((phases - grid[0]) / 360.0)
    out = np.full(phases.shape, NO_CONSTRAINT)
    real = ~np.isnan(p)
    p = np.maximum(p[real], grid[0])
    lo = np.searchsorted(grid, p, side="right") - 1
    widths = np.append(np.diff(grid), (grid[0] + 360.0) - grid[-1])
    a = vals[lo]
    b = np.roll(vals, -1)[lo]
    with np.errstate(invalid="ignore"):
        t = (p - grid[lo]) / widths[lo]
        res = np.where(a == NO_CONSTRAINT, b, np.where(b == NO_CONSTRAINT, a, a + t * (b - a)))
    res[(a == INFEASIBLE) | (b == INFEASIBLE)] = INFEASIBLE
    exact = grid[lo] == p
    res[exact] = vals[lo[exact]]
    out[real] = res
    return out


def nichols_array(response):
    """The earlier array Nichols conversion, whose phase goes through the
    full :func:`wrap_phase_array`, ``fmod`` included."""
    response = np.asarray(response, dtype=complex)
    phase = wrap_phase_array(np.degrees(np.arctan2(response.imag, response.real)))
    with np.errstate(divide="ignore"):
        return phase, 20.0 * np.log10(np.abs(response))


def envelope_extremes(plant, gains, prefilter, omegas):
    """(min_db, max_db) of |F L / (1 + L)| per frequency, one member at a
    time at one frequency at a time."""
    names = [spec.name for spec in plant.params]
    rows = []
    for omega in omegas:
        s = 1j * omega
        controller = pid_frequency_response(gains, omega)
        f_mag = abs(complex(np.polyval(prefilter.num, s)) / complex(np.polyval(prefilter.den, s)))
        mags = []
        for combo in plant.members():
            num, den = plant.coefficients_at(dict(zip(names, combo)))
            loop = plant_response(num, den, s) * controller
            mags.append(f_mag * abs(loop / (1.0 + loop)))
        mags_db = 20.0 * np.log10(np.asarray(mags))
        rows.append((float(mags_db.min()), float(mags_db.max())))
    return rows


def closed_loop_envelope(plant, gains, prefilter, tracking, omegas):
    """The earlier envelope: every family member evaluated again over all of
    ``omegas``, then |F L / (1 + L)| in CPython arithmetic per element."""
    names = [spec.name for spec in plant.params]
    omegas = [float(omega) for omega in omegas]
    controller = [pid_frequency_response(gains, omega) for omega in omegas]
    f_mags = [abs(eval_tf(prefilter, 1j * omega)) for omega in omegas]
    members = plant.members()
    s = 1j * np.array(omegas)
    mags = np.empty((len(omegas), len(members)))
    for m, combo in enumerate(members):
        env = dict(zip(names, combo))
        for k, response in enumerate(evaluate_plant_array(plant, [env], s)[0].tolist()):
            loop = response * controller[k]
            denom = 1.0 + loop
            mags[k, m] = f_mags[k] * abs(loop / denom) if denom else math.inf
    with np.errstate(divide="ignore"):
        mags_db = 20.0 * np.log10(mags)
    rows = []
    for omega, row_db in zip(omegas, mags_db):
        lo_model = db(abs(eval_tf(tracking.lower, 1j * omega)))
        hi_model = db(abs(eval_tf(tracking.upper, 1j * omega)))
        rows.append(
            EnvelopeRow(
                omega=omega,
                min_db=float(row_db.min()),
                max_db=float(row_db.max()),
                lower_db=min(lo_model, hi_model),
                upper_db=max(lo_model, hi_model),
            )
        )
    return tuple(rows)


def brute_force_design(problem, box):
    """Full-mesh gain-box search: every frequency on every cell of a kd slice."""
    kp_vals = box.kp.values()
    ki_vals = box.ki.values()
    kd_vals = box.kd.values()
    responses = np.asarray(problem.nominal_responses)
    mesh_size = len(ki_vals) * len(kp_vals)

    examined = 0
    for kd in kd_vals:
        feasible = np.ones((len(ki_vals), len(kp_vals)), dtype=bool)
        for k, omega in enumerate(problem.frequencies):
            ctrl = kp_vals[None, :] + 1j * (kd * omega - ki_vals[:, None] / omega)
            loop = responses[k] * ctrl
            phase, gain_db = nichols_array(loop)
            bound = interpolate_bound_array(problem.bounds[k], phase)
            # A zero controller response has no phase, so no bound can be
            # looked up for it; treat it as failing this frequency outright
            # (otherwise the all-zero triple passes vacuously).
            feasible &= (gain_db >= bound) & (np.abs(ctrl) > 0.0)
            if not feasible.any():
                break
        examined += mesh_size
        if feasible.any():
            flat = int(np.argmax(feasible.reshape(-1)))
            i_ki, i_kp = divmod(flat, len(kp_vals))
            gains = PidGains(kp=float(kp_vals[i_kp]), ki=float(ki_vals[i_ki]), kd=float(kd))
            return OracleResult(best_gains=gains, evaluations=examined, box=box)
    raise NoFeasiblePoint(
        f"no feasible gain triple in the {len(kd_vals)}x{len(ki_vals)}x{len(kp_vals)} box"
    )


COEFFICIENT_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def coefficient_value(tree, env):
    """Value of a coefficient tree at ``env``, or None where it is undefined.

    A tree is ``("num", text)``, ``("var", name)``, ``("neg", child)`` or
    ``(op, left, right)`` with ``op`` one of ``+ - * / ^``.  Undefined means
    a division by zero, an overflow, a complex result or a non-finite one.
    """

    def value(node):
        kind = node[0]
        if kind == "num":
            return float(node[1])
        if kind == "var":
            return float(env[node[1]])
        if kind == "neg":
            return -value(node[1])
        left = value(node[1])
        return COEFFICIENT_OPERATORS[kind](left, value(node[2]))

    try:
        result = float(value(tree))
    except (ZeroDivisionError, OverflowError, TypeError):
        return None
    return result if math.isfinite(result) else None
