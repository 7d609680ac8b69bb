"""Post-design checks: margins, dense stability sweep, tracking envelope,
and an exhaustive gain-box search used to cross-examine the optimizer.

Everything here reports; nothing raises on a failed check.  A design that
misses a bound produces a report with ``passed = False`` and the offending
rows, which the CLI turns into a non-zero exit code.  The plant is never
evaluated here: the run's templates and dense sweep carry its responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds
from .bounds import (
    INTERPOLATION_TOLERANCE_DB,
    NO_CONSTRAINT,
    BoundCurve,
    TrackingSpec,
    UContour,
    interpolate_bound_array,
)
from .errors import NoFeasiblePoint
from .lti import RationalTransferFunction, eval_tf, to_nichols_array
from .optimizer import (
    DesignProblem,
    MarginEntry,
    PidGains,
    SweepScreen,
    loop_margins,
    pid_frequency_response,
)
from .plant import Template

__all__ = [
    "VerifyMargin",
    "SweepPoint",
    "EnvelopeRow",
    "VerificationReport",
    "GainAxis",
    "OracleBox",
    "OracleResult",
    "default_dense_grid",
    "responses_at",
    "closed_loop_envelope",
    "verify_design",
    "brute_force_design",
]


def default_dense_grid(frequencies: Sequence[float]) -> np.ndarray:
    """500-point log-spaced sweep a decade past both ends of the design
    frequencies.

    The design frequencies themselves are merged into the grid, so a sweep
    on it meets :func:`verify_design`'s demand that the sweep hold every
    design point.
    """
    lo = min(frequencies) / 10.0
    hi = max(frequencies) * 10.0
    sweep = np.logspace(math.log10(lo), math.log10(hi), 500)
    return _sorted_unique(np.concatenate([sweep, np.asarray(frequencies, dtype=float)]))


def responses_at(sweep: Tuple[np.ndarray, np.ndarray], frequencies: Sequence[float]) -> list:
    """The responses of ``sweep``, ``(omegas, responses)`` on a sorted grid,
    at each of ``frequencies``, which the grid must hold (ValueError
    otherwise)."""
    omegas, responses = sweep
    if np.any(np.diff(omegas) <= 0) or not set(frequencies) <= set(omegas.tolist()):
        raise ValueError("the sweep must be sorted and cover the design frequencies")
    return responses[np.searchsorted(omegas, frequencies)].tolist()


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of finite floats, bit for bit, without the ``numpy.ma``
    import that NumPy 2's ``np.unique`` pulls in on first use."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


@dataclass(frozen=True)
class VerifyMargin(MarginEntry):
    """A :func:`loop_margins` entry plus the constraint that sets its bound."""

    source: str  # 'performance' | 'ucontour' | 'none'


@dataclass(frozen=True)
class SweepPoint:
    """A stop of the dense sweep where the loop has strayed into the
    forbidden stability region."""

    omega: float
    phase_deg: float
    gain_db: float


@dataclass(frozen=True)
class EnvelopeRow:
    omega: float
    min_db: float
    max_db: float
    lower_db: float
    upper_db: float

    def inside(self) -> bool:
        return self.min_db >= self.lower_db - 1e-9 and self.max_db <= self.upper_db + 1e-9


@dataclass(frozen=True)
class VerificationReport:
    per_frequency_margins: Tuple[VerifyMargin, ...]
    sweep_omegas: Tuple[float, ...]  # the dense sweep's frequencies
    sweep_violations: Tuple[SweepPoint, ...]  # its stops inside the contour, ascending
    envelope: Tuple[EnvelopeRow, ...]
    passed: bool
    reasons: Tuple[str, ...]


def closed_loop_envelope(
    gains: PidGains,
    prefilter: RationalTransferFunction,
    tracking: TrackingSpec,
    templates: Sequence[Template],
) -> Tuple[EnvelopeRow, ...]:
    """Extremes of |F L / (1 + L)| over the sampled plant family, one row per
    template, next to the reference-model corridor (orientation-normalised).

    L is read from the templates' member responses.  The nominal member is
    in every template, so the nominal closed loop is bracketed by every row.
    A member that lands the loop exactly on -1 has an unbounded closed loop:
    it counts as +inf dB, so its row's ``max_db`` is +inf and the row is not
    inside the corridor.
    """
    omegas = [template.omega for template in templates]
    controller = pid_frequency_response(gains.kp, gains.ki, gains.kd, np.array(omegas)).tolist()
    f_mags = [abs(eval_tf(prefilter, 1j * omega)) for omega in omegas]
    mags = np.empty((len(omegas), len(templates[0].responses) if templates else 0))
    for k, template in enumerate(templates):
        for m, response in enumerate(template.responses.tolist()):
            loop = response * controller[k]
            denom = 1.0 + loop
            mags[k, m] = f_mags[k] * abs(loop / denom) if denom else math.inf
    with np.errstate(divide="ignore"):
        mags_db = 20.0 * np.log10(mags)
    return tuple(
        EnvelopeRow(omega, float(row_db.min()), float(row_db.max()), *tracking.corridor_db(omega))
        for omega, row_db in zip(omegas, mags_db)
    )


def verify_design(
    templates: Dict[float, Template],
    gains: PidGains,
    bound_curves: Sequence[BoundCurve],
    u: UContour,
    sweep: Tuple[np.ndarray, np.ndarray],
    tracking: TrackingSpec,
    prefilter: Optional[RationalTransferFunction] = None,
) -> VerificationReport:
    """Re-examine a finished design against everything it promised.

    Margins are recomputed from scratch by :func:`loop_margins` (plant
    response times controller response against the interpolated bound), each
    tagged with the constraint that sets its bound; the nominal loop is swept
    densely through the stability contour, and — when a prefilter is
    supplied — the family envelope, read from ``templates`` (keyed by
    frequency), is checked against the ``tracking`` corridor.

    ``sweep`` is the run's ``(omegas, responses)``: the nominal response on
    a sorted grid holding every design frequency (ValueError otherwise).
    The dense sweep is a :class:`SweepScreen` computation, so it agrees with
    the design screen.
    """
    design_freqs = [c.omega for c in bound_curves]
    omegas, dense_responses = sweep
    at_design = responses_at(sweep, design_freqs)

    margins: List[VerifyMargin] = []
    for m in loop_margins(bound_curves, at_design, gains):
        # a zero loop (-inf dB) has no phase, so no constraint is active there
        if m.bound_db == NO_CONSTRAINT or m.gain_db == -math.inf:
            source = "none"
        else:
            # NaN where the contour does not reach, which fails the test
            top = u.edges(m.phase_deg)[0]
            source = "ucontour" if abs(m.bound_db - top) <= 1e-9 else "performance"
        margins.append(VerifyMargin(**vars(m), source=source))

    screen = SweepScreen(u, omegas, dense_responses)
    phase, gain, inside = screen.sweep(gains.kp, gains.ki, gains.kd)
    violations = tuple(
        SweepPoint(omega=omega, phase_deg=p, gain_db=g)
        for omega, p, g in zip(*(a[inside].tolist() for a in (omegas, phase, gain)))
    )

    envelope: Tuple[EnvelopeRow, ...] = ()
    if prefilter is not None:
        family = [templates[omega] for omega in design_freqs]
        envelope = closed_loop_envelope(gains, prefilter, tracking, family)

    reasons: List[str] = []
    for m in margins:
        if m.slack_db < -INTERPOLATION_TOLERANCE_DB:
            reasons.append(
                f"margin at omega={m.omega:g}: slack {m.slack_db:.3f} dB below "
                f"-{INTERPOLATION_TOLERANCE_DB} dB"
            )
    if violations:
        reasons.append(
            f"loop enters the stability contour at {len(violations)} swept frequencies "
            f"(first at omega={violations[0].omega:.4g})"
        )
    for row in envelope:
        if not row.inside():
            reasons.append(
                f"closed-loop envelope leaves the reference corridor at omega={row.omega:g}"
            )

    return VerificationReport(
        per_frequency_margins=tuple(margins),
        sweep_omegas=tuple(omegas.tolist()),
        sweep_violations=violations,
        envelope=envelope,
        passed=not reasons,
        reasons=tuple(reasons),
    )


# --- exhaustive cross-check ------------------------------------------------

@dataclass(frozen=True)
class GainAxis:
    """Inclusive sampling axis for one gain: lo, hi, step."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        ok = all(map(math.isfinite, (self.lo, self.hi, self.step))) and 0.0 <= self.lo <= self.hi
        if not (ok and self.step > 0.0 and math.isfinite((self.hi - self.lo) / self.step)):
            raise ValueError(f"bad gain axis ({self.lo}, {self.hi}, {self.step})")

    def values(self) -> np.ndarray:
        """lo, lo + step, ... up to the last value within rounding of hi; a
        partial last step is dropped, so no value lies beyond the box."""
        count = int((self.hi - self.lo) / self.step + 1e-9) + 1
        return self.lo + self.step * np.arange(count)


@dataclass(frozen=True)
class OracleBox:
    kp: GainAxis
    ki: GainAxis
    kd: GainAxis


@dataclass(frozen=True)
class OracleResult:
    best_gains: PidGains
    evaluations: int
    box: OracleBox


def _may_pass(floor: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Flat indices of the loops ``re + j im`` that the :func:`bounds.gain_floor`
    ``floor`` does not rule out; overwrites ``re`` and ``im``.

    A |L|^2 that overflows or is NaN is kept, and so is one that underflows
    to 0: parts that small may not place the angle within the floor's
    widening (the product rounds them differently, down to a zero's sign).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        degree = np.arctan2(im, re)
        degree *= 180.0 / math.pi
        degree += 180.0
        re *= re
        re += np.square(im, out=im)
        # "clip" keeps the index a NaN angle casts to in range
        at = floor.take(degree.astype(np.intp), mode="clip")
        return np.flatnonzero(~(re < at) | (re == 0.0))


def brute_force_design(problem: DesignProblem, box: OracleBox) -> OracleResult:
    """Exhaustive search of the gain box for the least-kd feasible triple.

    Feasibility is the same test the optimizer answers to: at every design
    frequency the open-loop gain must clear the interpolated bound at the
    loop's own phase.  kd slices are visited in ascending order, and each
    slice in blocks of ascending ki rows of at most ``bounds._BLOCK_CELLS``
    cells (one row when a kp row alone is longer).  In a block the first
    frequency is tested on the whole (ki, kp) mesh and every later one only
    on the cells that passed so far; the frequency that emptied the previous
    block is tested first, since neighbouring blocks tend to fail at the
    same one.  Feasibility is an AND over frequencies, so that order changes
    only the work, not the answer.  The first survivor of the first block
    that keeps any is the lexicographic (kd, ki, kp) minimum, so the rest of
    its slice and all later slices are skipped.  ``evaluations`` counts every
    triple of each visited slice, skipped blocks included.

    On the whole mesh the loop's parts are built from per-row values, and a
    cell whose |L|^2 lies below the bound's :func:`bounds.gain_floor` at its
    angle's degree is rejected before the Nichols conversion and the lookup.
    That is exact: the parts differ from the complex product by a few ulps,
    far inside the floor's one-degree and 1e-9 dB margins.  With the
    optimizer's loop margins it shares the controller response and the bound
    lookup; no kernels, no scaling step.
    """
    kp_vals = box.kp.values()
    ki_vals = box.ki.values()
    kd_vals = box.kd.values()
    responses = np.asarray(problem.nominal_responses)
    floors = [bounds.gain_floor(curve) for curve in problem.bounds]
    n_kp = len(kp_vals)
    rows = max(1, bounds._BLOCK_CELLS // n_kp)
    order = list(range(len(problem.frequencies)))

    examined = 0
    for kd in kd_vals:
        examined += len(ki_vals) * n_kp
        for start in range(0, len(ki_vals), rows):
            ki_block = ki_vals[start : start + rows]
            survivors = None  # flat (ki, kp) indices into the block, ascending
            for k in order:
                omega, response = problem.frequencies[k], responses[k]
                if survivors is None:  # the whole (ki, kp) mesh goes through the floor
                    b = kd * omega - ki_block[:, None] / omega
                    re = response.real * kp_vals - response.imag * b
                    survivors = _may_pass(floors[k], re, response.real * b + response.imag * kp_vals)
                if survivors.size:
                    kp_cells, ki_cells = kp_vals[survivors % n_kp], ki_block[survivors // n_kp]
                    ctrl = pid_frequency_response(kp_cells, ki_cells, kd, omega)
                    phase, gain_db = to_nichols_array(response * ctrl)
                    bound = interpolate_bound_array(problem.bounds[k], phase)
                    # A zero controller response has no phase, so no bound can
                    # be looked up for it; treat it as failing this frequency
                    # outright (otherwise the all-zero triple passes vacuously).
                    survivors = survivors[(gain_db >= bound) & (ctrl != 0)]
                if not survivors.size:
                    order.remove(k)
                    order.insert(0, k)
                    break
            else:
                i_ki, i_kp = divmod(int(survivors[0]), n_kp)
                gains = PidGains(kp=float(kp_vals[i_kp]), ki=float(ki_block[i_ki]), kd=float(kd))
                return OracleResult(best_gains=gains, evaluations=examined, box=box)
    raise NoFeasiblePoint(
        f"no feasible gain triple in the {len(kd_vals)}x{len(ki_vals)}x{len(kp_vals)} box"
    )
