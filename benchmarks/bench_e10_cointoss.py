"""E10 (Theorem 8.1): FLE ⇔ fair coin toss, with bias propagation.

Paper claims:
- an ε-unbiased FLE gives a (n/2)ε-unbiased coin (take the low bit);
- log2(n) independent ε-unbiased coins give a ((1/2+ε)^log2(n))-bounded
  FLE.

We measure: honest reductions stay balanced/uniform; a *biased* FLE
(single-cheater Basic-LEAD forcing an even id) propagates to a constant
coin, saturating the paper's bound. All three estimation loops run
through the registered ``cointoss/*`` scenarios on the experiment
runner, so they inherit deterministic seeding and worker fan-out.
"""

import pytest

from repro.cointoss import (
    coin_bias_bound_from_fle,
    fle_bias_bound_from_coin,
)
from repro.experiments import run_scenario


@pytest.mark.smoke
def test_e10_reductions(benchmark, experiment_report):
    rows = []

    # Honest FLE -> coin: balanced.
    result = run_scenario("cointoss/fle-coin", trials=200, params={"n": 8})
    ones = result.distribution.counts[1]
    rows.append(f"honest FLE->coin: Pr[1]={ones/200:.2f} (target 0.5)")
    assert result.fail_rate == 0.0
    assert 0.35 <= ones / 200 <= 0.65

    # Honest coins -> FLE over n=8: uniform-ish.
    result = run_scenario("cointoss/coin-fle", trials=200, params={"n": 8})
    counts = result.distribution.counts
    top = max(counts.values()) / 200
    rows.append(f"honest coin->FLE(8): max Pr={top:.2f} (target 0.125)")
    assert set(counts) <= set(range(1, 9))
    assert top < 0.30

    # Fully biased FLE -> constant coin (saturates (n/2)eps).
    result = run_scenario(
        "cointoss/biased-coin",
        trials=20,
        params={"n": 8, "cheater": 2, "target": 4},
    )
    outs = set(result.distribution.counts)
    rows.append(f"biased FLE (forces id 4) -> coin outcomes {sorted(outs)}")
    assert outs == {0}
    assert result.success_rate == 1.0  # every toss landed on target parity

    # The analytic bounds themselves.
    rows.append(
        f"bounds: coin eps from (n=8, eps=0.01) FLE <= "
        f"{coin_bias_bound_from_fle(8, 0.01):.3f}; "
        f"FLE eps from (eps=0.05) coins <= "
        f"{fle_bias_bound_from_coin(8, 0.05):.3f}"
    )
    assert coin_bias_bound_from_fle(8, 0.01) == 0.04
    experiment_report("E10 FLE <-> coin toss (Thm 8.1)", rows)

    benchmark(
        lambda: run_scenario(
            "cointoss/coin-fle", trials=1, base_seed=1, params={"n": 8}
        )
        .outcomes[0]
        .outcome
    )
