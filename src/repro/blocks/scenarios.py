"""Scenario specs for the Afek et al. building-block applications.

Both blocks run on the asynchronous executor, so they take the standard
builder path; fair renaming post-maps its assignment outcome to a single
processor's new name (a hashable histogram key whose uniformity is
exactly the fairness claim E12 checks).

Registered here (imported for effect by
:mod:`repro.experiments.catalog`):

- ``blocks/fair-consensus`` — everyone decides a uniformly elected
  processor's input (inputs are the pids, so the decided value's
  distribution is directly comparable to an election's);
- ``blocks/fair-renaming`` — order-preserving renaming; the tracked
  outcome is processor 1's new name, uniform over ``1..n``.

Both carry ``run_batch`` kernels: the knowledge-sharing block elects
``residue_to_id(sum of the n payload residues)``, each residue being
the first ``randrange(n)`` of that processor's ``proc:<pid>`` stream
(drawn at wakeup), so a whole chunk folds in closed form — consensus
decides the leader's input (= the leader's pid here) and renaming
hands processor 1 the name ``(1 - leader) mod n + 1``.
"""

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.blocks.consensus import fair_consensus_protocol
from repro.blocks.renaming import fair_renaming_protocol, my_name
from repro.experiments.ring_kernels import alead_leader, fold_leaders
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    register_scenario,
    ring_topology,
)
from repro.sim.execution import FAIL


def _pid_input(pid):
    """Input function for consensus: each processor inputs its own pid."""
    return pid


def _consensus_protocol(topo, params, rng):
    return fair_consensus_protocol(topo, _pid_input)


def _renaming_protocol(topo, params, rng):
    return fair_renaming_protocol(topo)


def renaming_to_first_name(outcome, params: Params):
    """Outcome map: full assignment -> processor 1's new name."""
    if outcome == FAIL:
        return FAIL
    return my_name(outcome, 1)


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------
#
# Like A-LEADuni, an honest knowledge-sharing run is n^2 deliveries
# (every processor sends exactly n messages) and its elected position
# depends only on the first randrange(n) of each proc:<pid> stream: it
# is the id an A-LEADuni election on the same registry elects.


def run_fair_consensus_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``blocks/fair-consensus`` trials: the decided
    value is the elected position's input, and inputs are the pids."""
    n = params["n"]
    if n < 2:
        return None  # degenerate ring: let the scalar path report it
    return fold_leaders(seeds, n, n * n)


def run_fair_renaming_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``blocks/fair-renaming`` trials: processor 1's
    new name is its ring distance from the elected origin of names."""
    n = params["n"]
    if n < 2:
        return None
    stream = random.Random(0)
    counts: Dict[object, int] = {}
    for seed in seeds:
        name = (1 - alead_leader(seed, n, stream)) % n + 1
        counts[name] = counts.get(name, 0) + 1
    return counts, n * n * len(seeds)


register_scenario(
    ScenarioSpec(
        name="blocks/fair-consensus",
        description="fair consensus over pid inputs (Afek et al. block)",
        build_topology=ring_topology,
        build_protocol=_consensus_protocol,
        run_batch=run_fair_consensus_batch,
        defaults={"n": 6},
        tags=("blocks", "honest"),
    )
)

register_scenario(
    ScenarioSpec(
        name="blocks/fair-renaming",
        description="fair renaming; outcome = processor 1's new name",
        build_topology=ring_topology,
        build_protocol=_renaming_protocol,
        run_batch=run_fair_renaming_batch,
        map_outcome=renaming_to_first_name,
        defaults={"n": 6},
        tags=("blocks", "honest"),
    )
)
