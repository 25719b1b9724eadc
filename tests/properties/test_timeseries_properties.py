"""Property-based tests for TimeSeries invariants."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.timeseries import TimeSeries, align_to, empirical_cdf, merge_series


@st.composite
def series(draw, max_len=50):
    n = draw(st.integers(0, max_len))
    times = sorted(
        draw(
            st.lists(
                st.floats(0.0, 1e6, allow_nan=False),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False) | st.just(float("nan")),
            min_size=n,
            max_size=n,
        )
    )
    return TimeSeries(times, values)


VALUES = st.floats(-1e6, 1e6, allow_nan=False) | st.just(float("nan"))


@st.composite
def overlapping_pair(draw, max_len=40):
    """Two series drawn from one timestamp pool, so they overlap anywhere
    from not at all to completely; either may be empty."""
    times = st.floats(0.0, 1e6, allow_nan=False)
    pool = sorted(draw(st.lists(times, max_size=max_len, unique=True)))

    def pick() -> TimeSeries:
        times = [t for t in pool if draw(st.booleans())]
        values = draw(st.lists(VALUES, min_size=len(times), max_size=len(times)))
        return TimeSeries(times, values)

    return pick(), pick()


def merge_series_oracle(a: TimeSeries, b: TimeSeries) -> TimeSeries:
    """The scalar dict merge that ``merge_series`` replaced: *b* wins."""
    combined = dict(zip(a.times.tolist(), a.values.tolist()))
    combined.update(zip(b.times.tolist(), b.values.tolist()))
    if not combined:
        return TimeSeries.empty()
    times = sorted(combined)
    return TimeSeries(times, [combined[t] for t in times])


class TestSeriesInvariants:
    @given(series())
    def test_times_strictly_increasing(self, s):
        if len(s) > 1:
            assert np.all(np.diff(s.times) > 0)

    @given(series())
    def test_slice_preserves_order(self, s):
        if len(s) < 2:
            return
        mid = float(s.times[len(s) // 2])
        sub = s.slice(None, mid)
        assert np.all(sub.times < mid)
        rest = s.slice(mid, None)
        assert len(sub) + len(rest) == len(s)

    @given(series())
    def test_dropna_removes_all_nans(self, s):
        assert np.isfinite(s.dropna().values).all()

    @given(series(), series())
    def test_merge_is_union(self, a, b):
        merged = merge_series(a, b)
        assert len(merged) == len(set(a.times.tolist()) | set(b.times.tolist()))
        if len(merged) > 1:
            assert np.all(np.diff(merged.times) > 0)

    @given(overlapping_pair())
    @example((TimeSeries.empty(), TimeSeries.empty()))
    @example((TimeSeries([1.0, 2.0], [np.nan, 1.0]), TimeSeries([2.0], [np.nan])))
    def test_merge_matches_dict_oracle(self, pair):
        a, b = pair
        assert merge_series(a, b) == merge_series_oracle(a, b)

    @given(series())
    def test_merge_idempotent(self, s):
        assert merge_series(s, s) == s

    @given(series())
    def test_align_to_own_times_is_identity_for_finite(self, s):
        if not len(s):
            return
        aligned = align_to(s, s.times)
        both = np.isfinite(s.values)
        assert np.array_equal(aligned.values[both], s.values[both])


class TestCdfInvariants:
    @given(
        arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_cdf_monotone(self, data):
        cdf = empirical_cdf(data)
        assert np.all(np.diff(cdf.xs) >= 0)
        assert np.all(np.diff(cdf.ps) >= 0)
        assert cdf.ps[-1] == 1.0

    @given(
        arrays(
            np.float64,
            st.integers(1, 100),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_quantile_within_data_range(self, data, p):
        cdf = empirical_cdf(data)
        q = cdf.quantile(p)
        assert data.min() <= q <= data.max()
