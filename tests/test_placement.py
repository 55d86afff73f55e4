"""Unit + property tests for RingPlacement geometry."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.placement import RingPlacement
from repro.util.errors import ConfigurationError


class TestBasics:
    def test_distances_sum(self):
        pl = RingPlacement(10, (2, 5, 9))
        assert sum(pl.distances()) == 10 - 3

    def test_distances_values(self):
        pl = RingPlacement(10, (2, 5, 9))
        # gaps: 2->5: 2 honest (3,4); 5->9: 3 honest; 9->2 wrap: 2 honest (10,1)
        assert pl.distances() == [2, 3, 2]

    def test_segment_members(self):
        pl = RingPlacement(10, (2, 5, 9))
        assert pl.segment(0) == [3, 4]
        assert pl.segment(2) == [10, 1]

    def test_honest_list(self):
        pl = RingPlacement(6, (2, 4))
        assert pl.honest() == [1, 3, 5, 6]

    def test_origin_honest_flag(self):
        assert RingPlacement(6, (2, 4)).origin_honest
        assert not RingPlacement(6, (1, 4)).origin_honest

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            RingPlacement(6, (4, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            RingPlacement(6, (0, 2))
        with pytest.raises(ConfigurationError):
            RingPlacement(6, (2, 7))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            RingPlacement(6, ())


class TestFromDistances:
    def test_roundtrip(self):
        pl = RingPlacement.from_distances(12, [3, 2, 4])
        assert pl.distances() == [3, 2, 4]

    def test_rejects_wrong_sum(self):
        with pytest.raises(ConfigurationError):
            RingPlacement.from_distances(12, [3, 3, 4])

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            RingPlacement.from_distances(12, [-1, 5, 5])

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, distances):
        n = sum(distances) + len(distances) + 1  # +1 leaves room after 'first'
        try:
            pl = RingPlacement.from_distances(
                n, distances + [n - sum(distances) - len(distances) - 1]
                if False
                else distances
            )
        except ConfigurationError:
            return
        assert pl.distances() == distances


class TestEqualSpacing:
    @given(st.integers(2, 14), st.data())
    @settings(max_examples=60, deadline=None)
    def test_gaps_even(self, k, data):
        n = data.draw(st.integers(2 * k, 8 * k))
        pl = RingPlacement.equal_spacing(n, k)
        ds = pl.distances()
        assert sum(ds) == n - k
        assert max(ds) - min(ds) <= 1
        assert min(ds) >= 1
        assert pl.origin_honest

    def test_rejects_too_dense(self):
        with pytest.raises(ConfigurationError):
            RingPlacement.equal_spacing(7, 4)


class TestCubic:
    @given(st.integers(3, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_profile_constraints(self, k, data):
        n_max = k + (k - 1) * k * (k + 1) // 2
        n = data.draw(st.integers(2 * k + 2, n_max))
        pl = RingPlacement.cubic(n, k)
        ds = pl.distances()
        assert sum(ds) == n - k
        assert ds[-1] <= k - 1
        assert min(ds) >= 1
        for i in range(k - 1):
            assert ds[i] <= ds[i + 1] + (k - 1)
        assert pl.origin_honest

    def test_rejects_k_too_small(self):
        with pytest.raises(ConfigurationError):
            RingPlacement.cubic(1000, 3)

    def test_threshold_bisection_matches_linear_rule(self):
        """The threshold bisection picks the ``t`` the original step-by-one
        rule picked, so every cubic profile is unchanged.

        Grid: every feasible ``k <= isqrt(n) + 2`` (the frontier scan's
        range) for ``4 <= n < 700``, and at ``n`` = 2^16, 2^18, 2^20 the
        smallest feasible ``k``, the next one, twice it and ``k = 1000``.
        """

        def linear_rule(n, k):
            ideal = [(k + 1 - i) * (k - 1) for i in range(1, k + 1)]
            budget = n - k
            t = budget // k
            while t < ideal[0] and sum(min(x, t + 1) for x in ideal) <= budget:
                t += 1
            distances = [min(x, t) for x in ideal]
            capped = [i for i, x in enumerate(ideal) if x > t]
            for i in range(budget - sum(distances)):
                distances[capped[i]] += 1
            return distances

        grid = [
            (n, k) for n in range(4, 700) for k in range(2, math.isqrt(n) + 3)
        ]
        for n, k_min in ((2**16, 51), (2**18, 81), (2**20, 128)):
            grid += [(n, k) for k in (k_min, k_min + 1, 2 * k_min, 1000)]
        feasible = 0
        for n, k in grid:
            try:
                placement = RingPlacement.cubic(n, k)
            except ConfigurationError:
                continue
            feasible += 1
            assert placement.distances() == linear_rule(n, k), (n, k)
        assert feasible == 7917


class TestRandomLocations:
    def test_deterministic_with_seed(self):
        a = RingPlacement.random_locations(50, 0.3, random.Random(1))
        b = RingPlacement.random_locations(50, 0.3, random.Random(1))
        assert a.positions == b.positions

    def test_origin_excluded(self):
        for seed in range(10):
            pl = RingPlacement.random_locations(30, 0.5, random.Random(seed))
            if pl is not None:
                assert pl.origin_honest

    def test_degenerate_returns_none(self):
        assert RingPlacement.random_locations(30, 0.0, random.Random(0)) is None

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            RingPlacement.random_locations(30, 1.5, random.Random(0))


class TestSegmentStats:
    def test_stats_fields(self):
        from repro.analysis.segments import segment_statistics

        pl = RingPlacement.equal_spacing(16, 4)
        stats = segment_statistics(pl)
        assert stats.n == 16 and stats.k == 4
        assert stats.max_length <= stats.k - 1
        assert stats.rushing_feasible
        assert stats.exposed_adversaries == 4
        assert stats.mean_length == pytest.approx(3.0)

    def test_cubic_feasibility_flag(self):
        from repro.analysis.segments import segment_statistics

        pl = RingPlacement.cubic(34, 4)
        assert segment_statistics(pl).cubic_feasible
