"""Rational transfer functions and Nichols-plane helpers.

Conventions used throughout the package:

* polynomial coefficients are listed in descending powers of s, so
  ``[1, 4, 19.753]`` means s^2 + 4 s + 19.753;
* Nichols phases live on the half-open interval (-360, 0] degrees;
* gains are expressed in dB, 20*log10(|.|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import InvalidM, PoleOnAxis, ZeroMagnitude

__all__ = [
    "RationalTransferFunction",
    "db",
    "undb",
    "eval_tf",
    "principal_phase",
    "wrap_phase",
    "wrap_phase_array",
    "to_nichols",
    "to_nichols_array",
    "m_circle_gains",
    "m_circle_phase_range",
]


def db(magnitude: float) -> float:
    """Magnitude to decibels."""
    return 20.0 * math.log10(magnitude)


def undb(gain_db: float) -> float:
    """Decibels back to magnitude."""
    return 10.0 ** (gain_db / 20.0)


@dataclass(frozen=True)
class RationalTransferFunction:
    """Ratio of two real polynomials in s, coefficients in descending powers."""

    num: tuple
    den: tuple

    def __init__(self, num: Sequence[float], den: Sequence[float]):
        num = tuple(float(c) for c in num)
        den = tuple(float(c) for c in den)
        if not num or not den:
            raise ValueError("numerator and denominator must be non-empty")
        if den[0] == 0.0:
            raise ValueError("leading denominator coefficient must be non-zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)


def eval_tf(tf: RationalTransferFunction, s: complex) -> complex:
    """Evaluate ``tf`` at a complex point.

    Raises PoleOnAxis when the denominator vanishes there (e.g. any transfer
    function with a free integrator evaluated at s = 0).
    """
    den = np.polyval(tf.den, s)
    if den == 0:
        raise PoleOnAxis(f"denominator vanishes at s = {s}")
    return complex(np.polyval(tf.num, s)) / complex(den)


def wrap_phase(phase_deg: float) -> float:
    """Map an angle in degrees onto the branch (-360, 0].

    Idempotent: values already in range are returned unchanged.
    """
    return float(wrap_phase_array(phase_deg))


def wrap_phase_array(phase_deg: np.ndarray) -> np.ndarray:
    """Elementwise :func:`wrap_phase`."""
    return _fold_onto_branch(np.fmod(phase_deg, 360.0))


def _fold_onto_branch(r: np.ndarray) -> np.ndarray:
    r = np.where(r > 0.0, r - 360.0, r)
    # a positive angle below ~5.7e-14 deg is indistinguishable from 0 at
    # double precision, and -360 itself is outside the branch; + 0.0 folds
    # -0.0 (and exact multiples of 360) onto +0.0
    return np.where(r == -360.0, 0.0, r) + 0.0


def principal_phase(response: complex) -> float:
    """Phase of a complex number in degrees on the principal branch (-180, 180].

    ``math.atan2`` rather than ``cmath.phase``: the two agree bit for bit,
    but ``cmath.phase`` raises OverflowError when libm flags an underflow,
    as it does for a subnormal imaginary part.
    """
    return math.degrees(math.atan2(response.imag, response.real))


def to_nichols(response: complex) -> Tuple[float, float]:
    """Complex frequency response -> (phase deg, gain dB) Nichols coordinates.

    Scalar libm arithmetic; the design problem and every margin report use
    this one.  ZeroMagnitude for a zero response, which has no phase.
    """
    magnitude = abs(response)
    if magnitude == 0.0:
        raise ZeroMagnitude("phase undefined for a zero response")
    return wrap_phase(principal_phase(response)), db(magnitude)


def to_nichols_array(response) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise Nichols coordinates (phase deg, gain dB) in NumPy arithmetic.

    The dense sweeps, the chart curves and the gain-box oracle use this one;
    it may differ from :func:`to_nichols` in the last bit.  A zero response
    maps to -inf dB (at phase 0 or -180, from the signs of its zeros).
    The phase skips :func:`wrap_phase_array`'s ``fmod``, which would return
    the ``arctan2`` angle (within [-180, 180] degrees) unchanged.
    """
    response = np.asarray(response, dtype=complex)
    phase = _fold_onto_branch(np.degrees(np.arctan2(response.imag, response.real)))
    with np.errstate(divide="ignore"):
        return phase, 20.0 * np.log10(np.abs(response))


def _m_circle_cos_limit(m_value: float) -> float:
    # |L/(1+L)| = M has real solutions at phase phi only where
    # cos^2(phi) >= (M^2 - 1)/M^2, and positive-radius ones need cos(phi) < 0.
    return math.sqrt((m_value * m_value - 1.0) / (m_value * m_value))


def m_circle_gains(m_value: float, phase_deg: float):
    """Both crossings of the constant-|closed loop| locus at a fixed phase.

    Writing L = r e^{j phi}, |L/(1+L)| = M becomes a quadratic in the radius:

        r^2 (M^2 - 1) + 2 M^2 cos(phi) r + M^2 = 0

    which has two positive roots exactly when cos(phi) <= -sqrt(M^2-1)/M.
    Returns (upper_db, lower_db), or None when the locus does not reach this
    phase.  InvalidM for m_value <= 1.
    """
    if not (m_value > 1.0) or not math.isfinite(m_value):
        raise InvalidM(f"m_value must exceed 1, got {m_value}")
    m2 = m_value * m_value
    c = math.cos(math.radians(phase_deg))
    disc = m2 * c * c - (m2 - 1.0)
    if disc < 0.0 or c >= 0.0:
        return None
    root = m_value * math.sqrt(disc)
    r_hi = (-m2 * c + root) / (m2 - 1.0)
    r_lo = (-m2 * c - root) / (m2 - 1.0)
    return db(r_hi), db(r_lo)


def m_circle_phase_range(m_value: float) -> tuple:
    """Phase interval of the M-locus on the (-360, 0] sheet, centred on -180."""
    if not (m_value > 1.0) or not math.isfinite(m_value):
        raise InvalidM(f"m_value must exceed 1, got {m_value}")
    half_width = math.degrees(math.acos(_m_circle_cos_limit(m_value)))
    return -180.0 - half_width, -180.0 + half_width
