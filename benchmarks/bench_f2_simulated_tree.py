"""F2 (Figure 2): the paper's 4-simulated tree example.

Figure 2 depicts a graph partitioned into connected blocks of at most 4
vertices whose quotient is a tree. We rebuild that construction through
the ``tree/clique-caterpillar`` scenario: each grid point verifies the
Definition 7.1 witness (success = the witness checks) and reports the
generic Claim F.5 bound it beats as the trial outcome — so the figure's
series is one registry sweep.
"""

import pytest

from repro.experiments import expand_manifest, run_campaign


@pytest.mark.smoke
def test_f2_four_simulated_tree(benchmark, experiment_report):
    rows = []
    entry = {
        "scenario": "tree/clique-caterpillar",
        "trials": 1,
        "grid": {"blocks": [2, 3, 5, 8]},
    }
    for result in run_campaign(expand_manifest([entry])):
        blocks = result.params["blocks"]
        assert result.success_rate == 1.0  # witness verified (no FAIL)
        (generic_k,) = result.distribution.counts  # trials=1: one outcome
        rows.append(
            f"{blocks} cliques (n={4 * blocks:<3}): 4-simulated tree OK; "
            f"impossibility at k=4 vs generic ceil(n/2)={generic_k}"
        )
        if blocks >= 3:
            # The fine witness beats the generic bound strictly.
            assert 4 < generic_k
    experiment_report("F2 Figure-2 style 4-simulated trees", rows)

    from repro.experiments import run_scenario

    benchmark(
        lambda: run_scenario(
            "tree/clique-caterpillar", trials=1, params={"blocks": 8}
        ).outcomes[0].outcome
    )
