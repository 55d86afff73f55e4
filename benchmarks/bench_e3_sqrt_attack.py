"""E3 (Lemma 4.1 / Theorem 4.2): √n equally spaced adversaries control
A-LEADuni.

Paper claim: with every honest segment of length ≤ k-1 (true for
equally spaced k ≥ √n), the coalition forces any outcome with
probability 1. We sweep n, measure the forcing rate at k = ⌈√n⌉, and show
the attack collapsing once k drops below the segment-length requirement.
"""

import math

from repro import FAIL, run_protocol, run_scenario, unidirectional_ring
from repro.attacks import (
    RingPlacement,
    equal_spacing_attack_protocol,
    equal_spacing_attack_protocol_unchecked,
)


def test_e3_sqrt_coalition_controls(benchmark, experiment_report):
    rows = []
    for n in (16, 36, 64, 144, 256):
        k = math.isqrt(n)
        pl = RingPlacement.equal_spacing(n, k)
        rate = run_scenario(
            "attack/equal-spacing", 6, base_seed=n,
            params={"n": n, "k": k, "target": n // 2}, keep_outcomes=False,
        ).success_rate
        rows.append(
            f"n={n:<4} k=sqrt(n)={k:<3} segments max={max(pl.distances())} "
            f"forcing rate={rate:.2f}"
        )
        assert rate == 1.0
    experiment_report("E3 rushing attack at k=sqrt(n) (Thm 4.2)", rows)

    # Below the threshold: segments exceed k-1 and the deviation stalls.
    n = 64
    ring = unidirectional_ring(n)
    small = RingPlacement.equal_spacing(n, 4)  # segments of 15 > 3
    res = run_protocol(
        ring, equal_spacing_attack_protocol_unchecked(ring, small, 5), seed=1
    )
    assert res.outcome == FAIL
    experiment_report(
        "E3 below threshold",
        [f"n={n} k=4: outcome={res.outcome} ({res.fail_reason})"],
    )

    pl = RingPlacement.equal_spacing(256, 16)
    ring = unidirectional_ring(256)
    benchmark(
        lambda: run_protocol(
            ring, equal_spacing_attack_protocol(ring, pl, 9), seed=0
        ).outcome
    )
