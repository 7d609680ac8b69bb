"""Rational transfer functions and Nichols-plane helpers (the M-circles are
solved in :mod:`qft_forge.bounds`, in the closed form of every circle bound).

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

from .errors import PoleOnAxis, ZeroMagnitude

__all__ = [
    "RationalTransferFunction",
    "db",
    "eval_tf",
    "principal_phase",
    "wrap_phase",
    "wrap_phase_array",
    "to_nichols",
    "to_nichols_array",
]


def db(magnitude: float) -> float:
    """Magnitude to decibels."""
    return 20.0 * math.log10(magnitude)


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
