"""E7 (Theorem 6.1 + tightness): PhaseAsyncLead's √n threshold.

Paper claims:
- PhaseAsyncLead is ε-k-unbiased for k ≤ √n/10 (w.h.p. over f);
- the bound is tight: k = √n + 3 adversaries control the outcome.

We measure both sides:
- **above**: the rushing+brute-force attack forces any target at
  k = √n + 3, across several independent keys of f (sampling the
  "probability over f");
- **below**: the same deviation's preconditions are unsatisfiable for
  k ≤ √n (segments exceed k-3), the E.4 covert channel fails against
  random f, and honest executions stay uniform.
"""

import math

from repro import FAIL, run_protocol, run_scenario, unidirectional_ring
from repro.analysis.distribution import chi_square_uniformity
from repro.attacks import (
    partial_sum_attack_protocol,
    phase_rushing_attack_protocol,
)
from repro.protocols import PhaseAsyncParams, phase_async_protocol
from repro.util.errors import ConfigurationError


def test_e7_threshold_above(benchmark, experiment_report):
    rows = []
    for n in (36, 64, 100, 144):
        k = math.isqrt(n) + 3
        ring = unidirectional_ring(n)
        wins = 0
        keys = 3
        for key in range(keys):
            params = PhaseAsyncParams(n=n, key=key)
            res = run_protocol(
                ring,
                phase_rushing_attack_protocol(ring, k, n // 2, params=params),
                seed=key,
            )
            wins += res.outcome == n // 2
        rows.append(f"n={n:<4} k=sqrt(n)+3={k:<3} forced {wins}/{keys} keys")
        assert wins == keys
    experiment_report("E7a attack at k=sqrt(n)+3 (tightness)", rows)

    ring = unidirectional_ring(64)
    benchmark(
        lambda: run_protocol(
            ring, phase_rushing_attack_protocol(ring, 11, 5), seed=0
        ).outcome
    )


def test_e7_threshold_below(benchmark, experiment_report):
    rows = []
    for n in (64, 100, 144):
        k_below = math.isqrt(n)  # below the +3 slack the attack needs
        ring = unidirectional_ring(n)
        try:
            phase_rushing_attack_protocol(ring, max(2, k_below - 2), 5)
            feasible = True
        except ConfigurationError:
            feasible = False
        rows.append(f"n={n:<4} k={max(2, k_below - 2):<3} rushing feasible={feasible}")
        assert not feasible
    experiment_report("E7b rushing infeasible below sqrt(n)", rows)

    # The E.4 deviation (beats the sum variant with k=4) fails vs random f.
    n = 44
    ring = unidirectional_ring(n)
    res = run_protocol(
        ring,
        partial_sum_attack_protocol(
            ring, 4, 7, params=PhaseAsyncParams(n=n)
        ),
        seed=11,
    )
    assert res.outcome == FAIL
    experiment_report(
        "E7c partial-sum channel vs random f",
        [f"n={n} k=4: outcome={res.outcome} (punished)"],
    )

    # Honest uniformity baseline.
    dist = run_scenario(
        "honest/phase-async", 400, base_seed=3, params={"n": 8},
        keep_outcomes=False,
    ).distribution
    assert dist.fail_count == 0
    p = chi_square_uniformity(dist)
    assert p > 1e-4
    experiment_report(
        "E7d honest PhaseAsyncLead uniformity",
        [f"n=8 trials=400 chi2 p={p:.3f}"],
    )

    ring = unidirectional_ring(32)
    benchmark(
        lambda: run_protocol(ring, phase_async_protocol(ring), seed=1).outcome
    )
