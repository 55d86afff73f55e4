"""Scenario specs for the lockstep synchronous subsystem.

The sync engine runs global rounds, not the asynchronous executor, so
its scenarios plug into the experiment runner through the
``run_trial`` hook: each trial builds the topology and strategy vector,
runs :class:`~repro.sync.engine.SyncExecutor` on the trial's private
:class:`~repro.util.rng.RngRegistry`, and reports ``(outcome, rounds)``.
All functions are module-level so the specs resolve identically in any
worker process.

Registered here (imported for effect by
:mod:`repro.experiments.catalog`):

- ``sync/broadcast`` — the fully-connected 3-round baseline;
- ``sync/ring`` — the hop-by-hop synchronous ring baseline;
- ``sync/last-round-cheat`` — the strongest rushing analogue, which the
  lockstep model *always* punishes (success = the cheater was caught).

The two honest baselines carry ``run_batch`` kernels. Processor ``pid``
runs on the trial's ``proc:<pid>`` stream, its secret is that stream's
first ``randrange(n)``, and every honest validation passes, so all
processors terminate with ``residue_to_id(sum mod n)``: the election
:func:`~repro.experiments.ring_kernels.alead_leader` computes, in 3
rounds (broadcast) or ``n + 1`` (ring).
"""

from typing import Optional, Sequence, Tuple

from repro.experiments.ring_kernels import Fold, fold_leaders
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    punished,
    register_scenario,
)
from repro.sync.attacks import sync_rushing_attempt_protocol
from repro.sync.engine import run_sync_protocol
from repro.sync.protocols import sync_broadcast_protocol, sync_ring_protocol
from repro.sim.topology import complete_graph, unidirectional_ring

#: Round budget used when the runner does not override ``max_steps``.
DEFAULT_MAX_ROUNDS = 1000


def _max_rounds(max_steps: Optional[int]) -> int:
    """The runner's per-trial step budget, reinterpreted as rounds."""
    return max_steps if max_steps is not None else DEFAULT_MAX_ROUNDS


def run_sync_broadcast_trial(
    params: Params, registry, max_steps: Optional[int]
) -> Tuple[object, int]:
    topo = complete_graph(params["n"])
    result = run_sync_protocol(
        topo,
        sync_broadcast_protocol(topo),
        rng=registry,
        max_rounds=_max_rounds(max_steps),
    )
    return result.outcome, result.rounds


def run_sync_ring_trial(
    params: Params, registry, max_steps: Optional[int]
) -> Tuple[object, int]:
    topo = unidirectional_ring(params["n"])
    result = run_sync_protocol(
        topo,
        sync_ring_protocol(topo),
        rng=registry,
        max_rounds=_max_rounds(max_steps),
    )
    return result.outcome, result.rounds


def run_sync_last_round_cheat_trial(
    params: Params, registry, max_steps: Optional[int]
) -> Tuple[object, int]:
    topo = complete_graph(params["n"])
    protocol = sync_rushing_attempt_protocol(
        topo, cheater=params["cheater"], target=params["target"]
    )
    result = run_sync_protocol(
        topo, protocol, rng=registry, max_rounds=_max_rounds(max_steps)
    )
    return result.outcome, result.rounds


def _foldable(n) -> bool:
    """A size the honest kernels fold; any other goes to the scalar
    path, which raises the topology builder's error."""
    return type(n) is int and n >= 2


def run_sync_broadcast_batch(seeds: Sequence[int], params: Params) -> Fold:
    """Fold a chunk of ``sync/broadcast`` trials (3 rounds each)."""
    n = params["n"]
    if not _foldable(n):
        return None
    return fold_leaders(seeds, n, 3)


def run_sync_ring_batch(seeds: Sequence[int], params: Params) -> Fold:
    """Fold a chunk of ``sync/ring`` trials (``n + 1`` rounds each)."""
    n = params["n"]
    if not _foldable(n) or n + 1 > DEFAULT_MAX_ROUNDS:
        return None  # past the default round budget the scalar trial FAILs
    return fold_leaders(seeds, n, n + 1)


register_scenario(
    ScenarioSpec(
        name="sync/broadcast",
        description="fully-connected synchronous baseline (3 rounds)",
        run_trial=run_sync_broadcast_trial,
        run_batch=run_sync_broadcast_batch,
        defaults={"n": 8},
        tags=("sync", "honest"),
    )
)

register_scenario(
    ScenarioSpec(
        name="sync/ring",
        description="synchronous ring baseline (n+1 rounds, hop-by-hop)",
        run_trial=run_sync_ring_trial,
        run_batch=run_sync_ring_batch,
        defaults={"n": 8},
        tags=("sync", "honest"),
    )
)

register_scenario(
    ScenarioSpec(
        name="sync/last-round-cheat",
        description="withhold-then-steer cheater vs lockstep (always punished)",
        run_trial=run_sync_last_round_cheat_trial,
        defaults={"n": 8, "cheater": 2, "target": 1},
        success=punished,
        tags=("sync", "attack"),
    )
)
