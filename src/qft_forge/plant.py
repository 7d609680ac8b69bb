"""Parametric plant families and their frequency-response templates.

A plant is a rational function of s whose coefficients are arithmetic
expressions in box-bounded parameters.  At each design frequency the family
traces out a template: the set of responses, held as ratios to the nominal
response so the nominal member always sits at (0 deg, 0 dB), one array per
member field.  Ratios use the principal phase branch (-180, 180] centred on
the nominal; a family whose ratios spread wider than 180 degrees has no
single-branch template and is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import OutOfBox, TemplateTooWide, ZeroMagnitude
from .expr import CoefficientExpression
from .lti import PoleOnAxis, db, principal_phase

__all__ = [
    "ParameterSpec",
    "UncertainPlant",
    "Template",
    "evaluate_plant_array",
    "generate_templates",
    "convex_hull_nichols",
]


@dataclass(frozen=True)
class ParameterSpec:
    """One uncertain parameter: closed interval plus its sampling density."""

    name: str
    minimum: float
    maximum: float
    grid_points: int = 10

    def __post_init__(self):
        if not self.minimum <= self.maximum:
            raise ValueError(f"parameter '{self.name}': min {self.minimum} > max {self.maximum}")
        if self.grid_points < 1:
            raise ValueError(f"parameter '{self.name}': grid_points must be >= 1")

    def grid(self, override: Optional[int] = None) -> np.ndarray:
        count = override if override is not None else self.grid_points
        if count == 1 or self.minimum == self.maximum:
            return np.array([self.minimum])
        return np.linspace(self.minimum, self.maximum, count)


@dataclass(frozen=True)
class UncertainPlant:
    """Rational plant with expression-valued coefficients over a parameter box."""

    num: Tuple[CoefficientExpression, ...]
    den: Tuple[CoefficientExpression, ...]
    params: Tuple[ParameterSpec, ...]
    nominal: Dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(self.num))
        object.__setattr__(self, "den", tuple(self.den))
        object.__setattr__(self, "params", tuple(self.params))
        declared = {p.name for p in self.params}
        used = set()
        for coeff in (*self.num, *self.den):
            used |= coeff.names()
        stray = used - declared
        if stray:
            raise ValueError(f"expressions reference undeclared parameters: {sorted(stray)}")
        for spec in self.params:
            if spec.name not in self.nominal:
                raise ValueError(f"nominal value missing for parameter '{spec.name}'")
        self._check_in_box(self.nominal)

    def _check_in_box(self, point: Dict[str, float]):
        for spec in self.params:
            value = point[spec.name]
            if not (spec.minimum <= value <= spec.maximum):
                raise OutOfBox(
                    f"parameter '{spec.name}' = {value} outside [{spec.minimum}, {spec.maximum}]"
                )

    def coefficients_at(self, point: Dict[str, float]) -> Tuple[List[float], List[float]]:
        num = [c.evaluate(point) for c in self.num]
        den = [c.evaluate(point) for c in self.den]
        return num, den

    def nominal_member(self) -> Tuple[float, ...]:
        """The nominal parameter point in :meth:`members` form."""
        return tuple(float(self.nominal[spec.name]) for spec in self.params)

    def members(self) -> List[Tuple[float, ...]]:
        """Sampled parameter points in grid order (first parameter slowest),
        with the nominal point appended when the grid misses it."""
        axes = [spec.grid() for spec in self.params]
        combos = [tuple(float(v) for v in combo) for combo in itertools.product(*axes)]
        nominal = self.nominal_member()
        if nominal not in combos:
            combos.append(nominal)
        return combos


def evaluate_plant_array(plant: UncertainPlant, point: Dict[str, float], s) -> np.ndarray:
    """Frequency response of one family member at every point of ``s``.

    The coefficients are evaluated once and both polynomials run over the
    whole array; the quotient is CPython's complex division, one element at a
    time, whose last bits NumPy's vectorised division does not reproduce.
    OutOfBox for stray points, PoleOnAxis where the denominator vanishes.
    """
    for spec in plant.params:
        if spec.name not in point:
            raise OutOfBox(f"parameter '{spec.name}' missing from evaluation point")
    plant._check_in_box(point)
    num, den = plant.coefficients_at(point)
    s = np.asarray(s, dtype=complex)
    den_val = np.polyval(den, s)
    poles = np.flatnonzero(den_val == 0)
    if poles.size:
        first = complex(s.flat[poles[0]])
        raise PoleOnAxis(f"plant denominator vanishes at s = {first} for {point}")
    num_val = np.polyval(num, s)
    return np.array([n / d for n, d in zip(num_val.tolist(), den_val.tolist())], dtype=complex)


@dataclass(frozen=True, eq=False)
class Template:
    """The family at one frequency: one array per field, made read-only."""

    omega: float
    points: np.ndarray  # (members x parameters), rows in UncertainPlant.members() order
    responses: np.ndarray  # complex member responses; ratios = responses / nominal
    ratios: np.ndarray
    phase_deg: np.ndarray  # relative to nominal, principal branch (-180, 180]
    gain_db: np.ndarray
    hull_indices: np.ndarray  # members on the CCW (phase_deg, gain_db) hull

    def __post_init__(self):
        for name in ("points", "responses", "ratios", "phase_deg", "gain_db", "hull_indices"):
            getattr(self, name).flags.writeable = False

    def gain_span_db(self) -> float:
        return float(self.gain_db.max() - self.gain_db.min())


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_nichols(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Convex hull of planar (phase_deg, gain_db) points, monotone-chain style.

    Returns vertices in counter-clockwise order starting from the
    lexicographically smallest point.  Collinear interior points are dropped,
    so no three consecutive vertices are collinear; degenerate inputs (one
    point, or an entirely collinear set) come back as the minimal vertex list.
    """
    unique = sorted(set((float(x), float(y)) for x, y in points))
    if len(unique) <= 2:
        return unique
    lower: List[Tuple[float, float]] = []
    for p in unique:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[float, float]] = []
    for p in reversed(unique):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # fully collinear input collapses to its extremes
        return [unique[0], unique[-1]]
    return hull


def generate_templates(plant: UncertainPlant, omegas: Sequence[float]) -> Dict[float, Template]:
    """Sample the family over its parameter grid at every design frequency.

    Each member is evaluated once over all of ``omegas``; every template
    shares ``points`` and holds one column of the response matrix.  The
    nominal member is always included (appended when the grid misses it),
    ratios are formed against its response, and the convex hull is taken in
    relative Nichols coordinates.  Templates are keyed by frequency, in order.
    """
    omegas = [float(omega) for omega in omegas]
    names = tuple(spec.name for spec in plant.params)
    members = plant.members()
    points = np.array(members, dtype=float)
    s = 1j * np.array(omegas)
    rows = [evaluate_plant_array(plant, dict(zip(names, combo)), s) for combo in members]
    responses = np.array(rows, dtype=complex)
    nominal_responses = responses[members.index(plant.nominal_member())].tolist()
    templates: Dict[float, Template] = {}
    for k, omega in enumerate(omegas):
        if nominal_responses[k] == 0:
            raise ZeroMagnitude(
                f"nominal plant at {plant.nominal} has zero response at omega={omega}"
            )
        ratios = [response / nominal_responses[k] for response in responses[:, k].tolist()]
        magnitudes = [abs(ratio) for ratio in ratios]
        if 0.0 in magnitudes:
            env = dict(zip(names, members[magnitudes.index(0.0)]))
            raise ZeroMagnitude(f"family member at {env} has zero response at omega={omega}")
        gains = [db(magnitude) for magnitude in magnitudes]
        phases = [principal_phase(ratio) for ratio in ratios]
        span = max(phases) - min(phases)
        if span > 180.0 + 1e-9:
            raise TemplateTooWide(
                f"template at omega={omega} spans {span:.2f} deg of phase (> 180)"
            )

        coords = list(zip(phases, gains))
        # map hull vertices back onto sample indices (first match wins)
        index_of = {c: i for i, c in reversed(list(enumerate(coords)))}
        templates[omega] = Template(
            omega=omega,
            points=points,
            responses=responses[:, k],
            ratios=np.array(ratios, dtype=complex),
            phase_deg=np.array(phases),
            gain_db=np.array(gains),
            hull_indices=np.array([index_of[v] for v in convex_hull_nichols(coords)], dtype=int),
        )
    return templates
