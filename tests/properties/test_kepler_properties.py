"""Property-based tests for Kepler machinery."""

import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro.orbits import (
    altitude_from_mean_motion,
    eccentric_from_mean,
    mean_from_eccentric,
    mean_from_true,
    mean_motion_from_altitude,
    true_from_mean,
)

anomalies = st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9, allow_nan=False)
eccentricities = st.floats(min_value=0.0, max_value=0.97, allow_nan=False)
leo_altitudes = st.floats(min_value=150.0, max_value=2000.0, allow_nan=False)


class TestKeplerProperties:
    @given(anomalies, eccentricities)
    def test_solver_inverts_equation(self, m, e):
        big_e = eccentric_from_mean(m, e)
        assert abs(mean_from_eccentric(big_e, e) - m) < 1e-8

    @given(anomalies, eccentricities)
    def test_true_mean_round_trip(self, m, e):
        nu = true_from_mean(m, e)
        back = mean_from_true(nu, e)
        # Angles wrap; compare circularly.
        diff = (back - m + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) < 1e-7

    @given(anomalies, eccentricities)
    def test_results_in_range(self, m, e):
        assert 0.0 <= eccentric_from_mean(m, e) < 2 * math.pi
        assert 0.0 <= true_from_mean(m, e) < 2 * math.pi


class TestConversionProperties:
    @given(leo_altitudes)
    def test_altitude_round_trip(self, altitude):
        mm = mean_motion_from_altitude(altitude)
        assert abs(altitude_from_mean_motion(mm) - altitude) < 1e-6

    @given(leo_altitudes, leo_altitudes)
    @example(150.0, 150.00000000000003)
    def test_monotonicity(self, a, b):
        # Altitudes one float step apart can share a mean motion, so the
        # strict claim needs a gap the float function resolves.
        if a < b:
            assert mean_motion_from_altitude(a) >= mean_motion_from_altitude(b)
            if b - a >= 1e-6:
                assert mean_motion_from_altitude(a) > mean_motion_from_altitude(b)

    @given(leo_altitudes)
    def test_leo_mean_motion_plausible(self, altitude):
        mm = mean_motion_from_altitude(altitude)
        assert 10.0 < mm < 17.5
