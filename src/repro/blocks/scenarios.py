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
what an A-LEADuni run on the same registry elects, so consensus registers
:func:`~repro.experiments.ring_kernels.run_election_batch` (the decided
value is the leader's input, which is the leader's pid here) and
renaming re-keys that fold through
:func:`~repro.blocks.renaming.names_from_origin`.
"""

from functools import partial
from typing import Sequence

from repro.blocks.consensus import fair_consensus_protocol
from repro.blocks.renaming import fair_renaming_protocol, my_name, names_from_origin
from repro.experiments.ring_kernels import Fold, ring_steps, run_election_batch
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


def run_fair_renaming_batch(seeds: Sequence[int], params: Params) -> Fold:
    """Fold a chunk of ``blocks/fair-renaming`` trials: the honest
    election's fold, each elected origin re-keyed to its assignment."""
    fold = run_election_batch(ring_steps, seeds, params)
    if fold is None:
        return None
    leaders, steps_total = fold
    n = params["n"]
    names = {names_from_origin(leader, n): c for leader, c in leaders.items()}
    return names, steps_total


register_scenario(
    ScenarioSpec(
        name="blocks/fair-consensus",
        description="fair consensus over pid inputs (Afek et al. block)",
        build_topology=ring_topology,
        build_protocol=_consensus_protocol,
        run_batch=partial(run_election_batch, ring_steps),
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
