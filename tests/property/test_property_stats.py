"""Property-based tests (hypothesis) for the statistical substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.distributions import f_cdf, f_ppf, t_cdf, t_ppf
from repro.stats.ftest import f_statistic
from repro.stats.incremental import PrefixStats
from repro.stats.welch import welch_degrees_of_freedom, welch_statistic


class TestPrefixStatsProperties:
    @given(values=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                           min_size=4, max_size=120),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_range_matches_numpy(self, values, data):
        prefix = PrefixStats()
        for value in values:
            prefix.append(value)
        start = data.draw(st.integers(min_value=0, max_value=len(values) - 2))
        stop = data.draw(st.integers(min_value=start + 2, max_value=len(values)))
        segment = values[start:stop]
        assert prefix.mean(start, stop) == pytest.approx(
            np.mean(segment), rel=1e-7, abs=1e-7
        )
        assert prefix.variance(start, stop) == pytest.approx(
            np.var(segment, ddof=1), rel=1e-5, abs=1e-7
        )


class TestTestStatisticProperties:
    @given(
        confidence=st.floats(min_value=0.6, max_value=0.999),
        df=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_t_ppf_cdf_roundtrip(self, confidence, df):
        assert t_cdf(t_ppf(confidence, df), df) == pytest.approx(confidence, abs=1e-6)

    @given(
        confidence=st.floats(min_value=0.6, max_value=0.999),
        dfn=st.floats(min_value=1.0, max_value=300.0),
        dfd=st.floats(min_value=1.0, max_value=300.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_f_ppf_cdf_roundtrip(self, confidence, dfn, dfd):
        assert f_cdf(f_ppf(confidence, dfn, dfd), dfn, dfd) == pytest.approx(
            confidence, abs=1e-6
        )

    @given(
        mean_a=st.floats(-10, 10, allow_nan=False),
        mean_b=st.floats(-10, 10, allow_nan=False),
        var_a=st.floats(0.01, 10.0),
        var_b=st.floats(0.01, 10.0),
        n_a=st.integers(2, 500),
        n_b=st.integers(2, 500),
    )
    @settings(max_examples=80, deadline=None)
    def test_welch_antisymmetry_and_df_bounds(self, mean_a, mean_b, var_a, var_b, n_a, n_b):
        forward = welch_statistic(mean_a, var_a, n_a, mean_b, var_b, n_b)
        backward = welch_statistic(mean_b, var_b, n_b, mean_a, var_a, n_a)
        assert forward == pytest.approx(-backward, rel=1e-9, abs=1e-12)
        df = welch_degrees_of_freedom(var_a, n_a, var_b, n_b)
        assert min(n_a, n_b) - 1 <= df + 1e-6
        assert df <= n_a + n_b - 2 + 1e-6

    @given(
        std_new=st.floats(0.0, 10.0),
        std_hist=st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_f_statistic_positive_and_monotone(self, std_new, std_hist):
        value = f_statistic(std_new, std_hist)
        assert value > 0.0
        larger = f_statistic(std_new + 1.0, std_hist)
        assert larger >= value
