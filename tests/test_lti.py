"""Frequency-response primitives: dB scale, Nichols mapping, and the
M-circles ``bounds`` solves in closed form."""

from __future__ import annotations

import cmath
import math

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qft_forge.bounds import UContour
from qft_forge.errors import InvalidM, PoleOnAxis, ZeroMagnitude
from qft_forge.lti import (
    RationalTransferFunction,
    db,
    eval_tf,
    principal_phase,
    to_nichols,
    to_nichols_array,
    wrap_phase,
    wrap_phase_array,
)

import scalar_reference as ref
from scalar_reference import undb

# Strict tracking model bound and servo plant reused across cases.
UPPER_MODEL = RationalTransferFunction(
    [8400.0], [1.0, 87.0, 1272.0, 5860.0, 8400.0]
)
SERVO_NOMINAL = RationalTransferFunction([1.0], [1.0, 1.0, 0.0])


class TestDbScale:
    def test_fixed_points(self):
        assert db(1.0) == 0.0
        assert db(10.0) == 20.0
        assert db(100.0) == pytest.approx(40.0, abs=1e-12)
        assert undb(20.0) == pytest.approx(10.0, abs=1e-12)
        assert undb(0.0) == 1.0

    def test_round_trip(self):
        for magnitude in (1e-6, 0.25, 1.0, 3.0, 1e4):
            assert undb(db(magnitude)) == pytest.approx(magnitude, rel=1e-12)

    def test_zero_and_negative_have_no_db(self):
        with pytest.raises(ValueError):
            db(0.0)
        with pytest.raises(ValueError):
            db(-2.0)


class TestRationalTransferFunction:
    def test_coerces_to_float_tuples(self):
        tf = RationalTransferFunction([1, 2], [1, 0])
        assert tf.num == (1.0, 2.0)
        assert tf.den == (1.0, 0.0)

    def test_rejects_empty_polynomials(self):
        with pytest.raises(ValueError):
            RationalTransferFunction([], [1.0])
        with pytest.raises(ValueError):
            RationalTransferFunction([1.0], [])

    def test_rejects_zero_leading_denominator(self):
        with pytest.raises(ValueError):
            RationalTransferFunction([1.0], [0.0, 1.0])


class TestEvalTf:
    def test_upper_model_dc_gain_is_exactly_one(self):
        assert eval_tf(UPPER_MODEL, 0j) == 1.0 + 0.0j

    def test_integrator_at_j1(self):
        integ = RationalTransferFunction([1.0], [1.0, 0.0])
        assert eval_tf(integ, 1j) == -1j

    def test_servo_nominal_at_j1(self):
        value = eval_tf(SERVO_NOMINAL, 1j)
        assert value == pytest.approx(-0.5 - 0.5j, abs=1e-15)

    def test_pole_on_axis(self):
        integ = RationalTransferFunction([1.0], [1.0, 0.0])
        with pytest.raises(PoleOnAxis):
            eval_tf(integ, 0j)

    def test_conjugate_symmetry(self):
        for s in (1j, 0.5 + 2j, -0.3 + 7j):
            fwd = eval_tf(UPPER_MODEL, s)
            rev = eval_tf(UPPER_MODEL, s.conjugate())
            assert rev == pytest.approx(fwd.conjugate(), rel=1e-12)


class TestWrapPhase:
    @pytest.mark.parametrize(
        "raw, wrapped",
        [
            (0.0, 0.0),
            (-360.0, 0.0),
            (360.0, 0.0),
            (-90.0, -90.0),
            (270.0, -90.0),
            (-450.0, -90.0),
            (45.0, -315.0),
            (-359.9, -359.9),
            (720.0, 0.0),
            # regression: tiny positive angles must not round onto -360
            (1e-300, 0.0),
            (5e-14, -360.0 + 5e-14),
        ],
    )
    def test_examples(self, raw, wrapped):
        assert wrap_phase(raw) == pytest.approx(wrapped, abs=1e-9)

    def test_never_returns_negative_zero(self):
        assert math.copysign(1.0, wrap_phase(-360.0)) == 1.0
        assert math.copysign(1.0, wrap_phase(0.0)) == 1.0

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @example(1e6)
    @example(-1e6)
    @example(-1080.0)
    @example(720.0)
    @example(5e-14)
    @example(-5e-14)
    @example(-0.0)
    @settings(max_examples=300)
    def test_bit_for_bit_with_scalar_reference(self, raw):
        got = wrap_phase(raw)
        assert type(got) is float
        assert got.hex() == ref.wrap_phase(raw).hex()

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=300)
    def test_range_idempotence_and_equivalence(self, raw):
        wrapped = wrap_phase(raw)
        assert -360.0 < wrapped <= 0.0
        assert wrap_phase(wrapped) == wrapped
        diff = math.fmod(wrapped - raw, 360.0)
        assert min(abs(diff), 360.0 - abs(diff)) < 1e-6


class TestNicholsPoint:
    RESPONSES = [1.0 + 0j, complex(1.0, -0.0), -1.0 + 0j, complex(-1.0, -0.0), 1j, -1j, 1e-300, 1e300]

    def test_bounds(self):
        # every converted point has a phase in (-360, 0], never -0.0, and a finite gain
        for response in self.RESPONSES:
            phase, gain = to_nichols(response)
            assert -360.0 < phase <= 0.0, response
            assert math.copysign(1.0, phase) == (1.0 if phase == 0.0 else -1.0), response
            assert math.isfinite(gain), response
            phases, gains = to_nichols_array(np.array([response], dtype=complex))
            assert -360.0 < phases[0] <= 0.0, response
            assert math.isfinite(gains[0]), response


class TestToNichols:
    def test_servo_nominal_point(self):
        phase, gain = to_nichols(eval_tf(SERVO_NOMINAL, 1j))
        assert phase == pytest.approx(-135.0, abs=1e-9)
        assert gain == pytest.approx(db(1.0 / math.sqrt(2.0)), abs=1e-12)

    def test_positive_imaginary_axis_maps_to_minus_270(self):
        assert to_nichols(1j) == pytest.approx((-270.0, 0.0), abs=1e-12)

    def test_unit_real_response(self):
        assert to_nichols(1.0 + 0.0j) == (0.0, 0.0)

    def test_zero_response(self):
        with pytest.raises(ZeroMagnitude):
            to_nichols(0j)


NORMAL_PARTS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)


class TestPrincipalPhase:
    @given(st.builds(complex, NORMAL_PARTS, NORMAL_PARTS))
    @settings(max_examples=500)
    def test_bit_equal_to_cmath_phase(self, z):
        # templates.csv and every margin were written with cmath.phase
        got = principal_phase(z)
        try:
            want = math.degrees(cmath.phase(z))
        except OverflowError:
            # the angle underflows: z lies on the real axis to double precision
            assert min(abs(got), 180.0 - abs(got)) < 1e-300
            return
        assert got.hex() == want.hex()

    @pytest.mark.parametrize(
        "z, want",
        [
            (complex(2.0, 5e-324), 0.0),
            (complex(-2.0, -5e-324), -180.0),
            (complex(5e-324, 0.0), 0.0),
            (complex(0.0, 5e-324), 90.0),
        ],
    )
    def test_subnormal_parts(self, z, want):
        # cmath.phase raises OverflowError on the first one
        assert principal_phase(z) == want
        assert to_nichols(z)[0] == wrap_phase(want)


PARTS = st.floats(min_value=-1e6, max_value=1e6)


class TestToNicholsArray:
    @given(
        st.lists(
            st.builds(complex, PARTS, PARTS).filter(lambda z: z != 0),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=200)
    def test_agrees_with_scalar(self, responses):
        phases, gains = to_nichols_array(responses)
        for z, phase, gain in zip(responses, phases, gains):
            want_phase, want_gain = to_nichols(z)
            assert -360.0 < phase <= 0.0
            # the same branch; NumPy's arctan2/log10 may differ in the last bits
            assert phase == pytest.approx(want_phase, abs=1e-9)
            assert gain == pytest.approx(want_gain, abs=1e-9)

    def test_zero_response_is_minus_infinity(self):
        phases, gains = to_nichols_array(np.array([0j, 1.0 + 0j]))
        assert gains[0] == -math.inf
        assert phases[0] == 0.0
        assert (phases[1], gains[1]) == (0.0, 0.0)

    def test_never_returns_negative_zero(self):
        phases, _ = to_nichols_array(np.array([complex(1.0, -0.0)]))
        assert math.copysign(1.0, phases[0]) == 1.0


class TestNicholsWithoutFmod:
    """``to_nichols_array`` folds the principal angle onto (-360, 0] without
    the ``fmod`` of :func:`wrap_phase_array`.  ``np.arctan2`` returns an
    angle in [-pi, pi], so its degrees lie in [-180, 180], and there
    ``fmod(x, 360)`` returns ``x`` exactly: leaving it out changes no bit."""

    PARTS = st.one_of(
        st.floats(min_value=-1e300, max_value=1e300),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1.0, -1.0]),
    )

    def assert_bit_equal(self, responses):
        z = np.array(responses, dtype=complex)
        phase, gain = to_nichols_array(z)
        want = wrap_phase_array(np.degrees(np.arctan2(z.imag, z.real)))
        assert phase.tobytes() == want.tobytes()
        with np.errstate(divide="ignore"):
            assert gain.tobytes() == (20.0 * np.log10(np.abs(z))).tobytes()
        return phase

    @given(st.lists(st.builds(complex, PARTS, PARTS), min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_bit_equal_to_the_full_wrap(self, responses):
        self.assert_bit_equal(responses)

    def test_edge_responses(self):
        phase = self.assert_bit_equal(
            [
                complex(-1.0, 0.0),  # +180 deg, the negative real axis from above
                complex(-1.0, -0.0),  # -180 deg, from below
                complex(1.0, 1e-300),  # a tiny positive angle folds to 0.0
                complex(0.0, 0.0),
                complex(-0.0, 0.0),
                complex(0.0, -0.0),
                complex(-0.0, -0.0),
                complex(5e-324, 5e-324),
                complex(-5e-324, 2.5e-310),
            ]
        )
        assert [repr(p) for p in phase[:3].tolist()] == ["-180.0", "-180.0", "0.0"]


class TestMCircle:
    """The M-circle as ``UContour.edges`` gives it without a high-frequency
    drop: (top, bottom) in dB, NaN where the circle misses the phase."""

    M = 1.2

    def m_circle_gains(self, phase):
        top, bottom = UContour(self.M, 0.0).edges(phase)
        return float(top), float(bottom)

    def test_gains_at_minus_180(self):
        hi, lo = self.m_circle_gains(-180.0)
        assert hi == pytest.approx(db(6.0), abs=1e-12)
        assert lo == pytest.approx(db(6.0 / 11.0), abs=1e-12)
        assert hi == pytest.approx(15.563025007672873, abs=1e-9)
        assert lo == pytest.approx(-5.264828695491629, abs=1e-9)

    @pytest.mark.parametrize("phase", [-0.5, -60.0, -90.0, -123.0, -270.0, -359.5])
    def test_no_crossing_phases(self, phase):
        assert all(map(math.isnan, self.m_circle_gains(phase)))

    def test_closure_with_closed_loop_gain(self):
        for phase in (-130.0, -160.0, -180.0, -200.0, -230.0):
            hi, lo = self.m_circle_gains(phase)
            for gain_db in (hi, lo):
                loop = undb(gain_db) * cmath.exp(1j * math.radians(phase))
                assert abs(loop / (1.0 + loop)) == pytest.approx(self.M, abs=1e-9)

    def test_symmetry_about_minus_180(self):
        for delta in (5.0, 20.0, 45.0):
            left = self.m_circle_gains(-180.0 - delta)
            right = self.m_circle_gains(-180.0 + delta)
            assert left[0] == pytest.approx(right[0], abs=1e-9)
            assert left[1] == pytest.approx(right[1], abs=1e-9)

    def test_branches_order(self):
        for phase in (-125.0, -150.0, -180.0, -210.0, -235.0):
            hi, lo = self.m_circle_gains(phase)
            assert hi > lo

    def test_phase_range(self):
        # the circle reaches a phase where cos(phase) <= -sqrt(M^2 - 1)/M
        lo, hi = -236.44269023807928, -123.55730976192072
        limit = math.sqrt(self.M**2 - 1.0) / self.M
        assert math.cos(math.radians(hi)) == pytest.approx(-limit, abs=1e-12)
        assert math.cos(math.radians(lo)) == pytest.approx(-limit, abs=1e-12)
        grid = np.linspace(-360.0, 0.0, 36001)
        top, _ = UContour(self.M, 0.0).edges(grid)
        reached = grid[~np.isnan(top)]
        assert (reached.min(), reached.max()) == pytest.approx((-236.44, -123.56), abs=1e-9)

    def test_gains_exist_only_inside_range(self):
        lo, hi = ref.m_circle_phase_range(self.M)
        assert not math.isnan(self.m_circle_gains(hi - 0.5)[0])
        assert math.isnan(self.m_circle_gains(hi + 0.5)[0])
        assert not math.isnan(self.m_circle_gains(lo + 0.5)[0])
        assert math.isnan(self.m_circle_gains(lo - 0.5)[0])

    @pytest.mark.parametrize("bad", [1.0, 0.8, 0.0, -2.0, math.inf, math.nan])
    def test_invalid_m(self, bad):
        with pytest.raises(InvalidM):
            UContour(bad, 0.0)


class TestMCircleSection:
    """The contour reaches the locus's phase span, end points included,
    and no phase outside it."""

    def test_for_m_span(self):
        lo, hi = ref.m_circle_phase_range(1.2)
        grid = np.arange(-359.75, 0.0, 0.25)
        top, bottom = UContour(1.2, 20.0).edges(grid)
        assert np.array_equal(np.isnan(top), np.isnan(bottom))
        assert np.array_equal(~np.isnan(top), (lo <= grid) & (grid <= hi))

    def test_contains(self):
        lo, hi = ref.m_circle_phase_range(1.2)
        top, _ = UContour(1.2, 20.0).edges(np.array([-180.0, hi, lo, hi + 1e-6, -237.0]))
        assert (~np.isnan(top)).tolist() == [True, True, True, False, False]
