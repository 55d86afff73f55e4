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

The two honest baselines carry
:func:`~repro.experiments.ring_kernels.run_election_batch`. Processor
``pid`` runs on the trial's ``proc:<pid>`` stream, its secret is that
stream's first ``randrange(n)``, and every honest validation passes, so
all processors terminate with A-LEADuni's leader, in 3 rounds
(broadcast) or ``n + 1`` (ring).
"""

from functools import partial
from typing import Optional, Sequence, Tuple

from repro.experiments.ring_kernels import Fold, run_election_batch
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


def _broadcast_rounds(n: int) -> int:
    return 3


def _ring_rounds(n: int) -> int:
    return n + 1


def run_sync_ring_batch(seeds: Sequence[int], params: Params) -> Fold:
    """Fold a chunk of ``sync/ring`` trials (``n + 1`` rounds each)."""
    n = params["n"]
    if type(n) is int and n + 1 > DEFAULT_MAX_ROUNDS:
        return None  # past the default round budget the scalar trial FAILs
    return run_election_batch(_ring_rounds, seeds, params)


register_scenario(
    ScenarioSpec(
        name="sync/broadcast",
        description="fully-connected synchronous baseline (3 rounds)",
        run_trial=run_sync_broadcast_trial,
        run_batch=partial(run_election_batch, _broadcast_rounds),
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
