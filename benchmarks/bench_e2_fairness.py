"""E2 (FLE definition, Section 2): honest executions elect uniformly.

All three protocols must elect every id with probability 1/n. We run
Monte-Carlo histograms per protocol, check zero failures and chi-square
uniformity, and benchmark one honest execution of each protocol.
"""

import pytest

from repro import run_protocol, run_scenario, unidirectional_ring
from repro.analysis.distribution import chi_square_uniformity
from repro.protocols import (
    alead_uni_protocol,
    basic_lead_protocol,
    phase_async_protocol,
)

PROTOCOLS = {
    "basic-lead": basic_lead_protocol,
    "alead-uni": alead_uni_protocol,
    "phase-async": phase_async_protocol,
}


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_e2_uniform_election(name, benchmark, experiment_report):
    maker = PROTOCOLS[name]
    rows = []
    for n in (4, 8, 16):
        trials = 600 if n <= 8 else 320
        dist = run_scenario(
            f"honest/{name}", trials, base_seed=7, params={"n": n},
            keep_outcomes=False,
        ).distribution
        p = chi_square_uniformity(dist)
        rows.append(
            f"n={n:<3} trials={trials:<4} fails={dist.fail_count} "
            f"max Pr={dist.max_probability():.3f} (1/n={1/n:.3f}) "
            f"chi2 p={p:.3f}"
        )
        assert dist.fail_count == 0
        assert p > 1e-4
    experiment_report(f"E2 honest fairness: {name}", rows)

    ring = unidirectional_ring(32)
    benchmark(lambda: run_protocol(ring, maker(ring), seed=3).outcome)
