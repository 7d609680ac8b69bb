"""Rational transfer functions and Nichols-plane helpers.

Conventions used throughout the package:

* polynomial coefficients are listed in descending powers of s, so
  ``[1, 4, 19.753]`` means s^2 + 4 s + 19.753;
* Nichols phases live on the half-open interval (-360, 0] degrees;
* gains are expressed in dB, 20*log10(|.|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CriticalPoint, InvalidM, PoleOnAxis, ZeroMagnitude

__all__ = [
    "RationalTransferFunction",
    "NicholsPoint",
    "MCircleSection",
    "db",
    "undb",
    "eval_tf",
    "wrap_phase",
    "wrap_phase_array",
    "to_nichols",
    "closed_loop_gain",
    "sensitivity_gain",
    "m_circle_gains",
    "m_circle_phase_range",
    "pole_zero_excess",
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

    def __call__(self, s: complex) -> complex:
        return eval_tf(self, s)

    def multiply(self, other: "RationalTransferFunction") -> "RationalTransferFunction":
        """Cascade product; numerators and denominators convolve."""
        return RationalTransferFunction(
            np.convolve(self.num, other.num),
            np.convolve(self.den, other.den),
        )


@dataclass(frozen=True)
class NicholsPoint:
    """A point on the Nichols plane: phase in (-360, 0] deg, finite gain in dB."""

    phase_deg: float
    gain_db: float

    def __post_init__(self):
        if not (-360.0 < self.phase_deg <= 0.0):
            raise ValueError(f"phase {self.phase_deg} outside (-360, 0]")
        if not math.isfinite(self.gain_db):
            raise ValueError("gain must be finite")


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
    r = math.fmod(phase_deg, 360.0)
    if r > 0.0:
        r -= 360.0
        if r == -360.0:
            # a positive angle below ~5.7e-14 deg is indistinguishable from 0
            # at double precision, and -360 itself is outside the branch
            r = 0.0
    # fold -0.0 (and exact multiples of 360) onto +0.0
    return r + 0.0


def wrap_phase_array(phase_deg: np.ndarray) -> np.ndarray:
    """Elementwise :func:`wrap_phase`."""
    r = np.fmod(phase_deg, 360.0)
    r = np.where(r > 0.0, r - 360.0, r)
    return np.where(r == -360.0, 0.0, r) + 0.0


def to_nichols(response: complex) -> NicholsPoint:
    """Complex frequency response -> (phase deg, gain dB) Nichols coordinates."""
    magnitude = abs(response)
    if magnitude == 0.0:
        raise ZeroMagnitude("phase undefined for a zero response")
    phase = wrap_phase(math.degrees(cmath.phase(response)))
    return NicholsPoint(phase_deg=phase, gain_db=db(magnitude))


def closed_loop_gain(loop: complex) -> float:
    """|L / (1 + L)| (linear) for a unity-feedback loop transmission L."""
    denom = 1.0 + loop
    if denom == 0:
        raise CriticalPoint("loop transmission sits exactly on -1")
    return abs(loop / denom)


def sensitivity_gain(loop: complex) -> float:
    """|1 / (1 + L)| (linear)."""
    denom = 1.0 + loop
    if denom == 0:
        raise CriticalPoint("loop transmission sits exactly on -1")
    return abs(1.0 / denom)


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


@dataclass(frozen=True)
class MCircleSection:
    """Constant closed-loop magnitude locus restricted to its Nichols span."""

    m_value: float
    phase_min_deg: float
    phase_max_deg: float

    @classmethod
    def for_m(cls, m_value: float) -> "MCircleSection":
        lo, hi = m_circle_phase_range(m_value)
        return cls(m_value=m_value, phase_min_deg=lo, phase_max_deg=hi)

    def contains(self, phase_deg: float) -> bool:
        return self.phase_min_deg <= phase_deg <= self.phase_max_deg

    def gains(self, phase_deg: float):
        """(upper_db, lower_db) at the given phase, None outside the span."""
        if not self.contains(phase_deg):
            return None
        pair = m_circle_gains(self.m_value, phase_deg)
        if pair is None:
            # endpoint rounding: clamp onto the tangent point
            pair = m_circle_gains(self.m_value, max(min(phase_deg, self.phase_max_deg - 1e-12), self.phase_min_deg + 1e-12))
        return pair


def _degree(coeffs: Sequence[float]) -> int:
    """Degree after stripping leading zeros; -1 for the zero polynomial."""
    for i, c in enumerate(coeffs):
        if c != 0.0:
            return len(coeffs) - 1 - i
    return -1


def pole_zero_excess(tf: RationalTransferFunction) -> tuple:
    """(relative degree, |leading numerator / leading denominator| ratio).

    The excess controls the slope the response settles to at high frequency;
    the leading ratio fixes its asymptotic level.  Additive over products.
    """
    num_deg = _degree(tf.num)
    den_deg = _degree(tf.den)
    if num_deg < 0:
        raise ValueError("zero numerator has no defined excess")
    num_lead = tf.num[len(tf.num) - 1 - num_deg]
    den_lead = tf.den[len(tf.den) - 1 - den_deg]
    return den_deg - num_deg, abs(num_lead / den_lead)
