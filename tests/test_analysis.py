"""Unit tests for the analysis toolkit."""

import pytest

from repro.analysis.bias import BiasReport
from repro.analysis.distribution import (
    OutcomeDistribution,
    chi_square_uniformity,
)
from repro.analysis.sync import honest_sync_profile, sync_gap_for
from repro.experiments import run_scenario
from repro.protocols.alead_uni import alead_uni_protocol
from repro.sim.execution import FAIL, run_protocol
from repro.sim.topology import unidirectional_ring


def _estimate(scenario, trials, **params):
    return run_scenario(scenario, trials, params=params, keep_outcomes=False)


class TestDistribution:
    def test_histogram_counts(self):
        dist = _estimate("honest/alead-uni", 50, n=4).distribution
        assert dist.trials == 50
        assert sum(dist.counts.values()) == 50
        assert dist.fail_count == 0

    def test_probability(self):
        dist = OutcomeDistribution(n=4, trials=10)
        dist.counts[2] = 5
        dist.counts[FAIL] = 5
        assert dist.probability(2) == 0.5
        assert dist.fail_rate == 0.5
        assert dist.max_probability() == 0.5

    def test_zero_trials_safe(self):
        dist = OutcomeDistribution(n=4, trials=0)
        assert dist.fail_rate == 0.0
        assert dist.max_probability() == 0.0

    def test_chi_square_uniform_accepts(self):
        dist = OutcomeDistribution(n=4, trials=400)
        for j in range(1, 5):
            dist.counts[j] = 100
        assert chi_square_uniformity(dist) > 0.9

    def test_chi_square_skew_rejects(self):
        dist = OutcomeDistribution(n=4, trials=400)
        dist.counts[1] = 400
        assert chi_square_uniformity(dist) < 1e-6

    def test_chi_square_empty(self):
        assert chi_square_uniformity(OutcomeDistribution(n=4, trials=0)) == 1.0

    def test_fallback_matches_scipy(self):
        from repro.analysis.distribution import _chi2_sf
        from scipy.stats import chi2

        for stat, dof in [(3.0, 3), (10.0, 7), (25.0, 15)]:
            assert _chi2_sf(stat, dof) == pytest.approx(
                float(chi2.sf(stat, dof)), abs=0.01
            )


class TestBias:
    def test_honest_bias_near_zero(self):
        report = BiasReport.from_distribution(
            _estimate("honest/alead-uni", 200, n=4).distribution
        )
        assert report.fail_rate == 0.0
        assert report.epsilon < 0.15  # sampling noise at 200 trials

    def test_attack_bias_near_one(self):
        report = BiasReport.from_distribution(
            _estimate(
                "attack/basic-cheat", 40, n=6, cheater=2, target=3
            ).distribution
        )
        assert report.max_probability == 1.0
        assert report.epsilon == pytest.approx(1 - 1 / 6)

    def test_attack_forcing_rate(self):
        result = _estimate("attack/basic-cheat", 20, n=6, cheater=2, target=5)
        assert result.success_rate == 1.0

    def test_report_epsilon_clamped(self):
        report = BiasReport(n=10, trials=5, max_probability=0.05, fail_rate=0)
        assert report.epsilon == 0.0


class TestSync:
    def test_gap_helpers(self):
        topo = unidirectional_ring(8)
        res = run_protocol(topo, alead_uni_protocol(topo), seed=4)
        assert sync_gap_for(res) <= 1
        profile = honest_sync_profile(res, coalition=[2, 6])
        assert set(profile) == {"overall", "coalition", "honest"}
        assert profile["coalition"] <= profile["overall"] + 1
