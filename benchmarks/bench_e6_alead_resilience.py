"""E6 (Theorem 5.1 shape): A-LEADuni resists small coalitions.

Paper claim: A-LEADuni is ε-k-resilient for k = O(n^(1/4)) with
negligible ε. We probe the defensive side empirically:

1. every known attack below its feasibility threshold either refuses to
   run (placement constraints unsatisfiable) or is punished (FAIL);
2. honest-uniformity is untouched by *passive* adversaries (coalitions
   that follow the protocol), establishing the ε≈0 baseline the theorem
   protects;
3. the crossover: the smallest coalition a registered attack certifies
   forcing for (``analysis.frontier.smallest_forcing_coalition``) sits
   between n^(1/4) and 2·n^(1/3), exactly the paper's open gap
   (Conjecture 4.7).
"""

import math

from repro import FAIL, run_protocol, unidirectional_ring
from repro.analysis.distribution import chi_square_uniformity
from repro.analysis.frontier import smallest_forcing_coalition
from repro.attacks import RingPlacement, equal_spacing_attack_protocol_unchecked
from repro.experiments import run_scenario
from repro.util.errors import ConfigurationError


def test_e6_resilience_below_threshold(benchmark, experiment_report):
    rows = []
    for n in (64, 144, 256):
        k_safe = max(2, math.isqrt(math.isqrt(n)) // 4)  # O(n^(1/4)) regime
        ring = unidirectional_ring(n)
        # Attacks below the cubic feasibility bound cannot even be placed.
        try:
            RingPlacement.cubic(n, k_safe)
            placeable = True
        except ConfigurationError:
            placeable = False
        # Rushing at k_safe leaves segments >> k-1: punished.
        pl = RingPlacement.equal_spacing(n, max(2, k_safe))
        res = run_protocol(
            ring,
            equal_spacing_attack_protocol_unchecked(ring, pl, 7),
            seed=n,
        )
        rows.append(
            f"n={n:<4} k={k_safe} (~n^0.25/4): cubic placeable={placeable}, "
            f"rushing outcome={res.outcome}"
        )
        assert not placeable
        assert res.outcome == FAIL
    experiment_report("E6a attacks below threshold are punished", rows)

    rows = []
    for n in (64, 144, 256):
        k_min = smallest_forcing_coalition(n).k_min
        lo, hi = n ** 0.25, 2 * n ** (1 / 3)
        rows.append(
            f"n={n:<4} smallest forcing k={k_min:<3} "
            f"n^(1/4)={lo:.1f} 2n^(1/3)={hi:.1f} in gap="
            f"{lo <= k_min <= hi + 1}"
        )
        assert lo <= k_min <= hi + 1
    experiment_report("E6b crossover sits in the paper's gap", rows)

    # Honest uniformity baseline at moderate n (the ε≈0 the theorem keeps),
    # via the registry: same spec the CLI's bias/sweep commands run.
    result = run_scenario(
        "honest/alead-uni", trials=320, base_seed=1, params={"n": 16}
    )
    dist = result.distribution
    assert dist.fail_count == 0
    assert chi_square_uniformity(dist) > 1e-4
    experiment_report(
        "E6c honest baseline",
        [f"n=16 trials=320 chi2 p={chi_square_uniformity(dist):.3f}"],
    )

    benchmark(lambda: smallest_forcing_coalition(64))
