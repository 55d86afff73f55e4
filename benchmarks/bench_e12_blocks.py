"""E12 (Afek et al. [5] applications): fair consensus and renaming.

The building blocks the paper credits to Afek et al. — knowledge sharing
plus the election rule — yield Fair Consensus (everyone outputs a
uniformly chosen processor's input) and Fair Renaming (a uniform
rotation of names). Both must be exactly fair under honest execution and
inherit the ring's punishment mechanism under deviation (covered in the
test suite); here we regenerate the fairness series through the
``blocks/*`` scenarios on the experiment runner.
"""

from repro import run_protocol, unidirectional_ring
from repro.analysis.distribution import chi_square_uniformity
from repro.blocks import fair_renaming_protocol, knowledge_sharing_protocol
from repro.blocks.renaming import my_name
from repro.experiments import run_scenario


def test_e12_blocks_fairness(benchmark, experiment_report):
    rows = []

    # Knowledge sharing: attribution correctness at several sizes.
    for n in (5, 9, 16):
        ring = unidirectional_ring(n)
        proto = knowledge_sharing_protocol(
            ring, payload_fn=lambda ctx: ctx.rng.randrange(10**6)
        )
        res = run_protocol(ring, proto, seed=n)
        ok = not res.failed and all(
            res.outcome[pid - 1] == proto[pid].payload for pid in ring.nodes
        )
        rows.append(f"knowledge n={n:<3} attribution correct: {ok}")
        assert ok
    experiment_report("E12a knowledge-sharing block", rows)

    n = 6
    trials = 360

    # Fair consensus: decided input uniform over processors.
    rows = []
    result = run_scenario("blocks/fair-consensus", trials=trials, params={"n": n})
    assert result.fail_rate == 0.0
    p = chi_square_uniformity(result.distribution)
    rows.append(f"consensus n={n}: decided-input chi2 p={p:.3f}")
    assert p > 1e-4
    experiment_report("E12b fair consensus uniformity", rows)

    # Fair renaming: processor 1's new name uniform over 1..n.
    rows = []
    result = run_scenario("blocks/fair-renaming", trials=trials, params={"n": n})
    assert result.fail_rate == 0.0
    p = chi_square_uniformity(result.distribution)
    rows.append(f"renaming n={n}: name-of-processor-1 chi2 p={p:.3f}")
    assert p > 1e-4

    # Order preservation is per-assignment, which the scenario's outcome
    # map collapses away — spot-check it on direct executions.
    ring = unidirectional_ring(n)
    for s in range(20):
        res = run_protocol(ring, fair_renaming_protocol(ring), seed=s)
        assert not res.failed
        names = [my_name(res.outcome, pid) for pid in ring.nodes]
        assert sorted(names) == list(range(1, n + 1))
    rows.append(f"renaming n={n}: order preserved on 20 spot checks")
    experiment_report("E12c fair renaming uniformity", rows)

    ring = unidirectional_ring(16)
    benchmark(
        lambda: run_protocol(
            ring, fair_renaming_protocol(ring), seed=1
        ).outcome
    )
