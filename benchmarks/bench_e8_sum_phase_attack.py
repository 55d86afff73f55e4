"""E8 (Appendix E.4): k=4 breaks phase validation with a sum output.

Paper claim: adding the phase-validation mechanism to A-LEADuni while
keeping the linear ``sum`` output is not resilient to k = 4 — the
adversaries share partial sums over validation rounds whose validator is
adversarial, then steer the sum. Forcing rate should be 1.0 across ring
sizes and targets; the identical deviation must fail against the
random-function output (that contrast is E7c).
"""

from repro import run_protocol, run_scenario, unidirectional_ring
from repro.attacks import partial_sum_attack_protocol


def test_e8_sum_phase_broken_by_4(benchmark, experiment_report):
    rows = []
    for L in (4, 8, 16, 24):
        n = 4 * L + 4
        rate = run_scenario(
            "attack/partial-sum", 6, base_seed=L,
            params={"n": n, "k": 4, "target": n // 3}, keep_outcomes=False,
        ).success_rate
        rows.append(f"n={n:<4} (L={L:<3}) k=4 forcing rate={rate:.2f}")
        assert rate == 1.0
    experiment_report("E8 partial-sum attack on sum-phase variant (E.4)", rows)

    ring = unidirectional_ring(68)
    benchmark(
        lambda: run_protocol(
            ring, partial_sum_attack_protocol(ring, 4, 5), seed=2
        ).outcome
    )
