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

All three carry ``run_batch`` kernels: an honest (or single-cheater)
ring election's outcome is a closed form over the processors' first
secret draws, so a whole chunk folds without ever touching the
executor. Each kernel draws from exactly the streams the executor
would (``proc:<pid>`` per processor) so the fold is bit-identical to
the scalar path — see :data:`repro.experiments.scenario.BatchRunner`.
"""

import math
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.attacks.basic_cheat import basic_cheat_protocol
from repro.cointoss.protocols import independent_coin_fle
from repro.cointoss.reductions import coin_toss_from_leader_election
from repro.experiments.ring_kernels import alead_leader
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    no_valid_ids,
    register_scenario,
    ring_topology,
)
from repro.protocols.alead_uni import alead_uni_protocol
from repro.sim.execution import FAIL
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
    if outcome == FAIL:
        return FAIL
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


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------
#
# An honest A-LEADuni election elects residue_to_id(sum of the n secret
# residues), each secret being the *first* randrange(n) of that
# processor's private stream proc:<pid> — so the elected leader is a
# closed form over n stream heads and the executor's ~n^2 deliveries
# per trial (message objects, contexts, scheduler picks) are pure
# overhead the kernels skip. A-LEADuni's honest run always validates
# and terminates within the default step budget in exactly n^2
# deliveries (each of the n processors sends exactly n messages), so
# the per-trial step count is closed-form too.


def run_fle_coin_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``cointoss/fle-coin`` trials in closed form."""
    n = params["n"]
    if n < 2:
        return None  # degenerate ring: let the scalar path report it
    stream = random.Random(0)
    counts = {0: 0, 1: 0}
    for seed in seeds:
        counts[alead_leader(seed, n, stream) % 2] += 1
    counts = {bit: c for bit, c in counts.items() if c}
    return counts, n * n * len(seeds)


def run_biased_coin_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``cointoss/biased-coin`` trials in O(1).

    Claim B.1 is deterministic: the Basic-LEAD cheater always forces
    ``target`` whatever the honest secrets, so every trial's coin is
    ``target % 2`` and no randomness needs replaying at all. Declines
    out-of-range placements so the scalar path raises the builder's
    ConfigurationError exactly as before.
    """
    n = params["n"]
    cheater, target = params["cheater"], params["target"]
    if n < 2 or cheater not in range(1, n + 1) or target not in range(1, n + 1):
        return None
    return {target % 2: len(seeds)}, n * n * len(seeds)


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
        run_batch=run_fle_coin_batch,
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
        run_batch=run_biased_coin_batch,
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
