"""Scenario specs for the Theorem 8.1 coin-toss reductions.

Two of the three scenarios ride the asynchronous executor directly and
only post-process the elected id through
:func:`~repro.cointoss.reductions.coin_toss_from_leader_election` (the
``map_outcome`` hook); the coin→FLE direction runs ``log2(n)``
independent elections per trial and therefore uses ``run_trial``.

Registered here (imported for effect by
:mod:`repro.experiments.catalog`):

- ``cointoss/fle-coin`` — honest A-LEADuni election, outcome mapped to
  the low bit (first direction of Theorem 8.1);
- ``cointoss/biased-coin`` — the Basic-LEAD single cheater forces an
  id, saturating the (n/2)·ε coin-bias bound (success = the coin landed
  on the forced parity);
- ``cointoss/coin-fle`` — FLE over ``n = 2^r`` built from ``r``
  independent coin tosses, each one a full A-LEADuni run.

All three carry ``run_batch`` kernels from
:mod:`repro.experiments.ring_kernels`, folding elected ids that the
runner maps to coins: ``fle-coin`` folds the honest election, and
``biased-coin`` the Basic-LEAD cheat's certificate (every trial elects
the target once the builder validates). ``coin-fle`` replays each
round's election from its child registry.
"""

import math
import random
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.attacks.basic_cheat import basic_cheat_protocol
from repro.cointoss.protocols import independent_coin_fle
from repro.cointoss.reductions import coin_toss_from_leader_election
from repro.experiments.ring_kernels import (
    alead_leader,
    ring_steps,
    run_election_batch,
    run_forcing_batch,
)
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    no_valid_ids,
    register_scenario,
    ring_topology,
)
from repro.protocols.alead_uni import alead_uni_protocol
from repro.sim.topology import unidirectional_ring
from repro.util.rng import derive_seeds


def _honest_alead(topo, params, rng):
    return alead_uni_protocol(topo)


def _cheating_basic_lead(topo, params, rng):
    return basic_cheat_protocol(
        topo, cheater=params["cheater"], target=params["target"]
    )


def leader_to_coin(outcome, params: Params):
    """Outcome map: elected id -> coin bit (FAIL passes through)."""
    return coin_toss_from_leader_election(outcome, params["n"])


def forced_parity(outcome, params: Params) -> bool:
    """Success predicate: the coin shows the forced target's parity."""
    return outcome == params["target"] % 2


def run_coin_fle_trial(
    params: Params, registry, max_steps: Optional[int]
) -> Tuple[object, int]:
    """One coin→FLE reduction: log2(n) independent ring elections."""
    n = params["n"]
    topo = unidirectional_ring(n)
    outcome = independent_coin_fle(topo, alead_uni_protocol, n, registry)
    return outcome, int(math.log2(n))


def run_coin_fle_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``cointoss/coin-fle`` trials in closed form.

    Round ``r`` of a trial runs a fresh A-LEADuni election from the
    child registry ``spawn:coin-round:<r>`` (the paper's independent-
    instances assumption); the elected id's low bit is that round's
    coin and the MSB-first bit string (plus one) is the elected FLE id.
    """
    n = params["n"]
    rounds = int(math.log2(n)) if n >= 2 else 0
    if n < 2 or 2**rounds != n:
        return None  # non-power-of-two: scalar path raises
    stream = random.Random(0)
    counts: Dict[object, int] = {}
    for seed in seeds:
        value = 0
        for child in derive_seeds(seed, "spawn:coin-round:", range(rounds)):
            value = (value << 1) | (alead_leader(child, n, stream) % 2)
        elected = value + 1
        counts[elected] = counts.get(elected, 0) + 1
    return counts, rounds * len(seeds)


register_scenario(
    ScenarioSpec(
        name="cointoss/fle-coin",
        description="coin toss from one honest A-LEADuni election (Thm 8.1)",
        build_topology=ring_topology,
        build_protocol=_honest_alead,
        run_batch=partial(run_election_batch, ring_steps),
        map_outcome=leader_to_coin,
        outcome_size=no_valid_ids,  # outcomes are coin bits, not ids
        defaults={"n": 8},
        tags=("cointoss", "honest"),
    )
)

register_scenario(
    ScenarioSpec(
        name="cointoss/biased-coin",
        description="biased FLE (Basic-LEAD cheat) propagates to the coin",
        build_topology=ring_topology,
        build_protocol=_cheating_basic_lead,
        run_batch=partial(run_forcing_batch, _cheating_basic_lead),
        map_outcome=leader_to_coin,
        outcome_size=no_valid_ids,  # outcomes are coin bits, not ids
        defaults={"n": 8, "cheater": 2, "target": 4},
        success=forced_parity,
        tags=("cointoss", "attack"),
    )
)

register_scenario(
    ScenarioSpec(
        name="cointoss/coin-fle",
        description="FLE over n=2^r from r independent coin tosses (Thm 8.1)",
        run_trial=run_coin_fle_trial,
        run_batch=run_coin_fle_batch,
        defaults={"n": 8},
        tags=("cointoss", "honest"),
    )
)
