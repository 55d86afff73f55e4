"""Scenario specs for the full-information comparators (Section 1.1).

Neither workload runs on the asynchronous executor — pass-the-baton is a
sequential broadcast game and the sequential coin game is an exact
backward induction — so both use the ``run_trial`` hook.

Registered here (imported for effect by
:mod:`repro.experiments.catalog`):

- ``fullinfo/baton`` — Saks' pass-the-baton election with a greedy
  coalition; success = the leader landed in the coalition, so the
  experiment's success rate *is* the survival probability E11 traces;
- ``fullinfo/sequential-coin`` — optimal late-mover coalition play on a
  one-round boolean outcome function, evaluated exactly; the outcome is
  the forced probability (deterministic per grid point).

Both carry ``run_batch`` kernels. The baton kernel replays the game
walk on one ascending list of never-held players, whose coalition
prefix is tracked by a count, instead of rebuilding the candidate lists
from scratch each pass. It consumes the same ``random.Random`` words,
so leaders are bit-identical. A game costs about 20-45 µs at n = 32-96
on a 2-CPU container; its one C-level Mersenne Twister seeding, about
7 µs, is the floor. The sequential-coin game is fully deterministic per grid point, so its
kernel evaluates the backward induction once and multiplies.
"""

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    no_valid_ids,
    register_scenario,
)
from repro.fullinfo.baton import pass_the_baton
from repro.fullinfo.boolean import majority_function, parity_function
from repro.fullinfo.games import SequentialCoinGame
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed, reseed


def leader_in_coalition(outcome, params: Params) -> bool:
    """Success predicate: the elected player is a coalition member."""
    return isinstance(outcome, int) and 0 <= outcome < params["k"]


def run_baton_trial(
    params: Params, registry, max_steps: Optional[int]
) -> Tuple[object, int]:
    """One baton game; the coalition is the first ``k`` players."""
    n = params["n"]
    leader = pass_the_baton(
        n, range(params["k"]), rng=registry.stream("scenario")
    )
    return leader, n - 1


#: One-round outcome functions the sequential game can be played over.
GAMES = {
    "parity": parity_function,
    "majority": majority_function,
}


# repro-lint: allow[R302] exact backward-induction evaluation: consumes no randomness, every trial is the same closed-form number
def run_sequential_coin_trial(
    params: Params, registry, max_steps: Optional[int]
) -> Tuple[object, int]:
    """Exact forced probability for the k latest movers (rounded to 6)."""
    game_name = params["game"]
    if game_name not in GAMES:
        raise ConfigurationError(
            f"unknown sequential game {game_name!r}; known: {sorted(GAMES)}"
        )
    n = params["n"]
    f = GAMES[game_name](n)
    coalition = list(range(n - params["k"], n))
    probability = SequentialCoinGame(f, coalition).forced_probability(
        params["target"]
    )
    return round(probability, 6), 0


def bias_achieved(outcome, params: Params) -> bool:
    """Success predicate: the coalition shifts past the honest half."""
    return isinstance(outcome, float) and outcome > 0.5


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------


def _baton_leader(stream: random.Random, scenario_seed: int, n: int, k: int) -> int:
    """One baton game, draw-for-draw identical to ``pass_the_baton``
    run on ``random.Random(scenario_seed)``.

    ``pass_the_baton`` rebuilds the ascending candidate list (and the
    ascending honest-outsider sublist) from ``range(n)`` on every pass,
    O(n) per pass just to feed ``rng.choice``. The coalition is the
    first ``k`` players (as in :func:`run_baton_trial`), so this walk
    keeps one ascending list of the players that never held the baton:
    its first ``coalition_unheld`` entries are the coalition members
    among them and the rest are exactly the honest outsiders. A
    coalition holder with honest players left takes index
    ``coalition_unheld + r`` for ``r`` below the suffix's length; any
    other holder takes index ``r`` below the whole length. ``r`` comes from ``choice``'s own ``getrandbits`` rejection
    loop, inlined, over lists of the same lengths, so the stream yields
    the same words and the elected player is bit-identical. ``stream``
    is re-seeded through :data:`~repro.util.rng.reseed`.
    """
    reseed(stream, scenario_seed)
    getrandbits = stream.getrandbits
    holder = stream.randrange(n)
    unheld = list(range(n))
    del unheld[holder]
    coalition_unheld = k - 1 if holder < k else k
    for _ in range(n - 1):
        size = len(unheld)
        if holder < k and size > coalition_unheld:
            base, bound = coalition_unheld, size - coalition_unheld
        else:
            base, bound = 0, size
        bits = bound.bit_length()
        r = getrandbits(bits)
        while r >= bound:
            r = getrandbits(bits)
        index = base + r
        holder = unheld[index]
        del unheld[index]
        if index < coalition_unheld:
            coalition_unheld -= 1
    return holder


def run_baton_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``fullinfo/baton`` trials."""
    n, k = params["n"], params["k"]
    if n < 1 or not 0 <= k <= n:
        return None  # out-of-range coalition: scalar path raises
    stream = random.Random(0)
    counts: Dict[object, int] = {}
    for seed in seeds:
        leader = _baton_leader(stream, derive_seed(seed, "scenario"), n, k)
        counts[leader] = counts.get(leader, 0) + 1
    return counts, (n - 1) * len(seeds)


def run_sequential_coin_batch(
    seeds: Sequence[int], params: Params
) -> Optional[Tuple[Dict[object, int], int]]:
    """Fold a chunk of ``fullinfo/sequential-coin`` trials.

    The backward induction consumes no randomness, so every trial of a
    grid point lands on the same probability: evaluate once, multiply.
    """
    outcome, steps = run_sequential_coin_trial(params, None, None)
    return {outcome: len(seeds)}, steps * len(seeds)


register_scenario(
    ScenarioSpec(
        name="fullinfo/baton",
        description="Saks' pass-the-baton vs a greedy coalition (E11)",
        run_trial=run_baton_trial,
        run_batch=run_baton_batch,
        outcome_size=no_valid_ids,  # players are 0-based, not ids 1..n
        defaults={"n": 64, "k": 8},
        success=leader_in_coalition,
        tags=("fullinfo", "attack"),
    )
)

register_scenario(
    ScenarioSpec(
        name="fullinfo/sequential-coin",
        description="optimal late movers on a sequential boolean coin game",
        run_trial=run_sequential_coin_trial,
        run_batch=run_sequential_coin_batch,
        outcome_size=no_valid_ids,  # outcomes are probabilities, not ids
        defaults={"game": "majority", "n": 7, "k": 2, "target": 1},
        success=bias_achieved,
        tags=("fullinfo",),
    )
)
