"""Scalar reference implementations the array code is checked against.

These are the package's earlier one-phase-at-a-time bound search and
one-point-at-a-time stability screen: a Python loop per phase (or per
frequency) calling plain scalar arithmetic.  Tests compare the vectorised
implementations with them bit for bit (bounds) or decision for decision
(screen).
"""

from __future__ import annotations

import cmath
import math
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
from qft_forge.errors import CriticalPoint
from qft_forge.lti import db, m_circle_gains, undb, wrap_phase
from qft_forge.optimizer import pid_frequency_response


def _closed_loop_spread_db(ratios: np.ndarray, gain_db: float, phase_rad: float) -> float:
    loop = undb(gain_db) * complex(math.cos(phase_rad), math.sin(phase_rad)) * ratios
    denom = 1.0 + loop
    if np.any(denom == 0):
        raise CriticalPoint("template member landed exactly on -1")
    mags = np.abs(loop / denom)
    vals = 20.0 * np.log10(mags)
    return float(vals.max() - vals.min())


def _worst_sensitivity(ratios: np.ndarray, gain_db: float, phase_rad: float) -> float:
    loop = undb(gain_db) * complex(math.cos(phase_rad), math.sin(phase_rad)) * ratios
    denom = 1.0 + loop
    if np.any(denom == 0):
        raise CriticalPoint("template member landed exactly on -1")
    return float(np.max(np.abs(1.0 / denom)))


def least_feasible_gain(feasible: Callable[[float], bool], tol_db: float) -> float:
    """Upward scan then bisection for the smallest gain passing ``feasible``."""

    def probe(c: float) -> bool:
        try:
            return feasible(c)
        except CriticalPoint:
            # nudge off the critical point once; a second hit is a real error
            return feasible(c + tol_db / 10.0)

    if probe(SCAN_FLOOR_DB):
        return NO_CONSTRAINT
    lo = SCAN_FLOOR_DB
    hi = None
    c = SCAN_FLOOR_DB + SCAN_STEP_DB
    while c <= SCAN_CEILING_DB + 1e-12:
        if probe(c):
            hi = c
            break
        lo = c
        c += SCAN_STEP_DB
    if hi is None:
        return INFEASIBLE
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return hi


def horowitz_entries(
    ratios: np.ndarray, delta_db: float, phase_grid: Sequence[float], tol_db=DEFAULT_TOL_DB
):
    if len(ratios) <= 1:
        return [NO_CONSTRAINT] * len(phase_grid)
    return [
        least_feasible_gain(
            lambda c: _closed_loop_spread_db(ratios, c, math.radians(phi)) <= delta_db, tol_db
        )
        for phi in phase_grid
    ]


def disturbance_entries(
    ratios: np.ndarray, cap: float, phase_grid: Sequence[float], tol_db=DEFAULT_TOL_DB
):
    return [
        least_feasible_gain(
            lambda c: _worst_sensitivity(ratios, c, math.radians(phi)) <= cap, tol_db
        )
        for phi in phase_grid
    ]


def screen_admits(screen, gains) -> bool:
    """Point-by-point twin of ``SweepScreen.admits``."""
    for omega, response in zip(screen.omegas, screen.nominal_responses):
        loop = response * pid_frequency_response(gains, omega)
        if loop == 0:
            continue
        phase = wrap_phase(math.degrees(cmath.phase(loop)))
        if _inside(screen.contour, phase, db(abs(loop)), screen.tolerance_db):
            return False
    return True


def _inside(contour, phase_deg: float, gain_db: float, tol_db: float) -> bool:
    """The contour's interior test on libm scalars."""
    if not contour.contains_phase(phase_deg):
        return False
    pair = m_circle_gains(contour.m_value, phase_deg)
    if pair is None:
        return False
    return pair[1] - contour.delta_hf_db + tol_db < gain_db < pair[0] - tol_db
