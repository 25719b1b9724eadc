"""Unit tests for the maximal-run kernel."""

import numpy as np

from repro.timeseries.runs import runs


def bounds(first, last):
    return list(zip(first.tolist(), last.tolist()))


class TestRuns:
    def test_no_true_samples(self):
        assert bounds(*runs(np.zeros(4, dtype=bool))) == []
        assert bounds(*runs(np.zeros(0, dtype=bool))) == []

    def test_positions_are_the_clock(self):
        mask = np.array([1, 1, 0, 1, 0, 0, 1, 1], dtype=bool)
        assert bounds(*runs(mask)) == [(0, 1), (3, 3), (6, 7)]
        assert bounds(*runs(mask, max_gap=1)) == [(0, 3), (6, 7)]
        assert bounds(*runs(mask, max_gap=2)) == [(0, 7)]

    def test_runs_touching_both_ends(self):
        mask = np.array([1, 0, 1], dtype=bool)
        assert bounds(*runs(mask)) == [(0, 0), (2, 2)]

    def test_a_hole_in_the_clock_is_a_gap(self):
        mask = np.ones(3, dtype=bool)
        hours = np.array([0.0, 1.0, 4.0]) * 3600.0
        assert bounds(*runs(mask, hours, 3600.0)) == [(0, 1), (2, 2)]
        assert bounds(*runs(mask, hours, 3600.0, max_gap=2)) == [(0, 2)]

    def test_gaps_round_half_to_even(self):
        # 2.5 units round to 2 (one unit between), 3.5 to 4 (three).
        mask = np.ones(3, dtype=bool)
        times = np.array([0.0, 2.5, 6.0])
        assert bounds(*runs(mask, times, max_gap=1)) == [(0, 1), (2, 2)]
        assert bounds(*runs(mask, times, max_gap=3)) == [(0, 2)]
