"""Tests for the frontier search (Conjecture 4.7) and statistics helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.frontier import (
    FrontierPoint,
    forcing_frontier,
    smallest_forcing_coalition,
)
from repro.analysis.stats import (
    Proportion,
    proportion,
    proportions_differ,
    wilson_interval,
)


class TestFrontier:
    def test_frontier_inside_gap(self):
        point = smallest_forcing_coalition(64)
        assert point.family in ("cubic", "rushing")
        assert point.within_gap

    def test_frontier_series(self):
        """The table is the smallest k whose cubic staircase covers the
        ring, k + (k-1)k(k+1)/2 >= n, about (2n)^(1/3)."""
        sizes = [64, 144, 256, 512, 1024, 2048]
        points = forcing_frontier(sizes)
        assert [p.n for p in points] == sizes
        assert [p.k_min for p in points] == [5, 7, 8, 11, 13, 16]
        assert {p.family for p in points} == {"cubic"}
        for p in points:
            assert p.within_gap
            assert p.lower_bound < p.conjecture < p.upper_bound
        assert smallest_forcing_coalition(65536).k_min == 51

    def test_frontier_monotone_ish(self):
        """Larger rings need (weakly) larger forcing coalitions."""
        small = smallest_forcing_coalition(36)
        large = smallest_forcing_coalition(256)
        assert large.k_min >= small.k_min

    def test_unreachable_frontier_reported(self):
        point = smallest_forcing_coalition(36, k_max=2)
        assert point.family == "none"
        assert point.k_min == 3


class TestWilson:
    def test_degenerate_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_contains_estimate(self):
        low, high = wilson_interval(7, 10)
        assert low < 0.7 < high

    def test_extremes_stay_in_unit(self):
        low, high = wilson_interval(10, 10)
        assert 0.0 <= low <= high <= 1.0
        assert high == 1.0
        low, high = wilson_interval(0, 10)
        assert low == 0.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_interval_valid(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_narrows_with_trials(self):
        small = wilson_interval(5, 10)
        large = wilson_interval(500, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])


class TestProportions:
    def test_proportion_str_fields(self):
        p = proportion(3, 4)
        assert p.estimate == 0.75
        assert p.low < 0.75 < p.high

    def test_clearly_different(self):
        a = proportion(95, 100)
        b = proportion(10, 100)
        assert proportions_differ(a, b)

    def test_clearly_same(self):
        a = proportion(50, 100)
        b = proportion(52, 100)
        assert not proportions_differ(a, b)

    def test_zero_trials_safe(self):
        assert not proportions_differ(
            Proportion(0, 0, 0, 1), proportion(5, 10)
        )

    def test_degenerate_pooled(self):
        a = proportion(10, 10)
        b = proportion(10, 10)
        assert not proportions_differ(a, b)
