"""E1 (Claim B.1): one cheater fully controls Basic-LEAD.

Paper claim: Basic-LEAD is not ε-1-unbiased for any ε < 1 - 1/n — a
single adversary forces any target with probability 1. We measure the
empirical forcing rate across ring sizes and targets (expected: 1.0
everywhere) and benchmark one representative attack execution.

Runs through the scenario registry: the ``attack/basic-cheat`` spec is
the same wiring the CLI's ``attack --name basic-cheat`` and the sweep
command use.
"""

import pytest

from repro import run_protocol, unidirectional_ring
from repro.attacks import basic_cheat_protocol
from repro.experiments import run_scenario


@pytest.mark.smoke
def test_e1_forcing_rate(benchmark, experiment_report):
    rows = []
    for n in (8, 16, 32, 64):
        for target in (1, n // 2, n):
            result = run_scenario(
                "attack/basic-cheat",
                trials=10,
                base_seed=n,
                params={"n": n, "target": target},
            )
            rate = result.success_rate
            rows.append(f"n={n:<3} target={target:<3} forcing rate={rate:.2f}")
            assert rate == 1.0
    experiment_report("E1 Basic-LEAD single-cheater control (Claim B.1)", rows)

    ring = unidirectional_ring(64)

    def attack_once():
        return run_protocol(
            ring, basic_cheat_protocol(ring, 2, 40), seed=0
        ).outcome

    assert benchmark(attack_once) == 40
