"""Tests for the frontier search (Conjecture 4.7) and statistics helpers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.frontier import (
    TARGET,
    FrontierPoint,
    family_forces,
    forcing_frontier,
    smallest_forcing_coalition,
)
from repro.analysis.stats import (
    Proportion,
    proportion,
    proportions_differ,
    wilson_interval,
)
from repro.experiments import get_scenario, run_scenario
from repro.experiments.scenario import ring_topology
from repro.util.errors import ConfigurationError


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
        for n, k in ((2**20, 128), (2**24, 323)):
            point = smallest_forcing_coalition(n)
            assert (point.k_min, point.family) == (k, "cubic")

    def test_frontier_monotone_ish(self):
        """Larger rings need (weakly) larger forcing coalitions."""
        small = smallest_forcing_coalition(36)
        large = smallest_forcing_coalition(256)
        assert large.k_min >= small.k_min

    def test_unreachable_frontier_reported(self):
        """No family places a coalition of 2 or 3 on a ring of 2 or 3: the
        scan reports one past its last ``k``, ``isqrt(n) + 2``."""
        for n in (2, 3):
            point = smallest_forcing_coalition(n)
            assert (point.k_min, point.family) == (4, "none")

    def test_rings_below_target_probe_their_last_id(self):
        """A ring smaller than ``TARGET`` is probed at ``n``; the cubic
        coalition it reports forces ``n`` on every executor trial."""
        for n, k in ((4, 2), (5, 2), (6, 3)):
            point = smallest_forcing_coalition(n)
            assert (point.k_min, point.family) == (k, "cubic")
            result = run_scenario(
                "attack/cubic", 20, params={"n": n, "k": k, "target": n},
                keep_outcomes=False, use_batch=False,
            )
            assert result.successes.successes == 20

    def test_verdict_is_the_builders(self):
        """Every ``(family, n, k)`` with ``n <= 64``: the scan says the
        family forces exactly when its registered builder accepts the
        point, the acceptance ``run_forcing_batch`` folds as forced."""
        builders = {
            "cubic": get_scenario("attack/cubic"),
            "rushing": get_scenario("attack/equal-spacing"),
        }
        verdicts = set()
        for n in range(2, 65):
            ring = ring_topology({"n": n})
            for k in range(1, n + 1):
                for family, spec in builders.items():
                    params = spec.resolve_params(
                        {"n": n, "k": k, "target": min(TARGET, n)}
                    )
                    try:
                        spec.build_protocol(ring, params, random.Random(0))
                        accepted = True
                    except ConfigurationError:
                        accepted = False
                    assert family_forces(family, n, k) == accepted, (
                        family, n, k,
                    )
                    verdicts.add((family, accepted))
        assert len(verdicts) == 4


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
