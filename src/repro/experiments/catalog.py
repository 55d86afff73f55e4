"""Builtin scenario catalog: every experiment in the paper, by name.

Importing this module (which :mod:`repro.experiments` does eagerly)
registers one scenario per honest ring protocol and one per adversarial
deviation, under the ``honest/<protocol>`` / ``attack/<name>``
convention, then pulls in the subsystem catalogs (``sync/``, ``tree/``,
``cointoss/``, ``fullinfo/``, ``blocks/``, ``fuzz/``, ``placement/``
— each a ``scenarios`` module inside its own package) so
``scenario_names()`` enumerates the whole paper. All builder functions
are module-level so the specs resolve identically in any process that
imports the package — the contract parallel runs rely on: a worker
resolves a builtin scenario by name from its own catalog import
(:func:`~repro.experiments.runner.chunk_payloads`).

========================  ==================================  ===========
Scenario                  Paper reference                     Topology
========================  ==================================  ===========
honest/basic-lead         Appendix B baseline                 ring
honest/alead-uni          Section 3 / Appendix A              ring
honest/phase-async        Section 6 / Appendix E.3            ring
honest/async-complete     Section 1.1 (Shamir baseline)       complete
honest/wakeup-alead       Afek et al. wake-up block           ring
attack/basic-cheat        Claim B.1                           ring
attack/equal-spacing      Lemma 4.1 / Theorem 4.2             ring
attack/random-location    Theorem C.1                         ring
attack/cubic              Theorem 4.3                         ring
attack/partial-sum        Appendix E.4                        ring
attack/phase-rushing      Remark after Theorem 6.1            ring
attack/shamir-pool        Section 1.1 (sharp threshold)       complete
========================  ==================================  ===========

(Run ``python -m repro scenarios`` for the full, registry-generated
listing including the subsystem entries.)

``honest/basic-lead``, ``honest/alead-uni`` and ``honest/wakeup-alead``
and the four A-LEADuni/Basic-LEAD ring attacks ``basic-cheat``,
``equal-spacing``, ``random-location`` and ``cubic`` also carry exact
``run_batch`` kernels from :mod:`repro.experiments.ring_kernels`: the
three honest rings elect the same closed form over the processors'
secret draws (:func:`~repro.experiments.ring_kernels.run_election_batch`,
the wake-up composition in twice the steps), the three placement-fixed
attacks force their target on every seed once their builder validates,
and random-location certifies each trial's placement or replays that
trial on the executor.

Parameters left at ``None`` (e.g. ``k``) are filled with the same
size-derived defaults the CLI has always used, so ``sweep`` grid points
only need to pin what they actually vary.
"""

import math
import random
from functools import partial
from typing import Hashable, Mapping

from repro.attacks import (
    RingPlacement,
    basic_cheat_protocol,
    cubic_attack_protocol,
    equal_spacing_attack_protocol,
    partial_sum_attack_protocol,
    phase_rushing_attack_protocol,
    random_location_attack_protocol,
    recommended_probability,
    shamir_pooling_attack_protocol,
)
from repro.experiments.ring_kernels import (
    ring_steps,
    run_election_batch,
    run_forcing_batch,
    run_random_location_batch,
)
from repro.experiments.scenario import (
    Params,
    ScenarioSpec,
    forced_target,
    register_scenario,
    ring_topology,
    scenario_names,
)
from repro.protocols import (
    alead_uni_protocol,
    async_complete_protocol,
    basic_lead_protocol,
    default_threshold,
    phase_async_protocol,
    wakeup_alead_protocol,
)
from repro.sim.strategy import Strategy
from repro.sim.topology import Topology, complete_graph


def complete_topology(params: Params) -> Topology:
    """Complete graph on ``params['n']`` processors."""
    return complete_graph(params["n"])


# -- honest protocols --------------------------------------------------


def _honest_basic_lead(topo, params, rng):
    return basic_lead_protocol(topo)


def _honest_alead_uni(topo, params, rng):
    return alead_uni_protocol(topo)


def _honest_phase_async(topo, params, rng):
    return phase_async_protocol(topo)


def _honest_async_complete(topo, params, rng):
    return async_complete_protocol(topo)


def _honest_wakeup_alead(topo, params, rng):
    return wakeup_alead_protocol(topo)


# -- attacks -----------------------------------------------------------


def _attack_basic_cheat(topo, params, rng):
    return basic_cheat_protocol(
        topo, cheater=params["cheater"], target=params["target"]
    )


def _attack_equal_spacing(topo, params, rng):
    n = len(topo)
    k = params["k"] if params["k"] is not None else math.isqrt(n)
    placement = RingPlacement.equal_spacing(n, k)
    return equal_spacing_attack_protocol(topo, placement, params["target"])


def _attack_random_location(
    topo: Topology, params: Params, rng: random.Random
) -> Mapping[Hashable, Strategy]:
    """Theorem C.1: each processor defects i.i.d.; placement is per-trial.

    The coalition is drawn from the trial's private ``scenario`` stream,
    so the *same* trial index always produces the same placement while
    different trials explore independent ones. When the draw yields no
    adversary (or an adversarial origin), the trial degenerates to an
    honest A-LEADuni run — which then simply does not force the target,
    exactly how the appendix accounts those executions.
    """
    n = len(topo)
    p = params["p"] if params["p"] is not None else recommended_probability(n)
    placement = RingPlacement.random_locations(n, p, rng)
    if placement is None or not placement.origin_honest:
        return alead_uni_protocol(topo)
    return random_location_attack_protocol(
        topo, placement, params["target"], window=params["window"]
    )


def _attack_cubic(topo, params, rng):
    n = len(topo)
    k = (
        params["k"]
        if params["k"] is not None
        else max(3, round(2 * n ** (1 / 3)))
    )
    placement = RingPlacement.cubic(n, k)
    return cubic_attack_protocol(topo, placement, params["target"])


def _attack_partial_sum(topo, params, rng):
    return partial_sum_attack_protocol(
        topo, params["k"] if params["k"] is not None else 4, params["target"]
    )


def _attack_phase_rushing(topo, params, rng):
    n = len(topo)
    k = params["k"] if params["k"] is not None else math.isqrt(n) + 3
    return phase_rushing_attack_protocol(topo, k, params["target"])


def _attack_shamir_pool(topo, params, rng):
    n = len(topo)
    k = params["k"] if params["k"] is not None else default_threshold(n)
    coalition = list(range(2, 2 + k))
    return shamir_pooling_attack_protocol(topo, coalition, params["target"])


def _wakeup_steps(n: int) -> int:
    """Deliveries of an honest wake-up + A-LEADuni run: ``n²`` for each
    phase."""
    return 2 * ring_steps(n)


def _register_builtins() -> None:
    kernels = {
        "basic-lead": partial(run_election_batch, ring_steps),
        "alead-uni": partial(run_election_batch, ring_steps),
        "wakeup-alead": partial(run_election_batch, _wakeup_steps),
    }
    for name, desc, builder, n in (
        ("basic-lead", "Basic-LEAD honestly on a ring", _honest_basic_lead, 16),
        ("alead-uni", "A-LEADuni honestly on a ring", _honest_alead_uni, 16),
        (
            "phase-async",
            "PhaseAsyncLead honestly on a ring",
            _honest_phase_async,
            16,
        ),
        (
            "async-complete",
            "Shamir-sharing election on a complete graph",
            _honest_async_complete,
            8,
        ),
        (
            "wakeup-alead",
            "wake-up phase + A-LEADuni on a ring (Afek et al. block)",
            _honest_wakeup_alead,
            16,
        ),
    ):
        register_scenario(
            ScenarioSpec(
                name=f"honest/{name}",
                description=desc,
                build_topology=(
                    complete_topology
                    if name == "async-complete"
                    else ring_topology
                ),
                build_protocol=builder,
                run_batch=kernels.get(name),
                defaults={"n": n},
                tags=("honest",),
            )
        )

    ring_attacks = (
        (
            "basic-cheat",
            "single wait-and-cancel cheater controls Basic-LEAD (Claim B.1)",
            _attack_basic_cheat,
            {"n": 64, "cheater": 2, "target": 1},
            partial(run_forcing_batch, _attack_basic_cheat),
        ),
        (
            "equal-spacing",
            "rushing coalition, evenly spaced (Lemma 4.1 / Thm 4.2)",
            _attack_equal_spacing,
            {"n": 64, "k": None, "target": 1},
            partial(run_forcing_batch, _attack_equal_spacing),
        ),
        (
            "random-location",
            "i.i.d.-located rushing coalition (Thm C.1)",
            _attack_random_location,
            # Default n sits in the regime where the paper proves the
            # attack wins w.h.p.; at small n the density p = sqrt(8 ln n/n)
            # leaves segments too long and most trials get punished.
            {"n": 256, "p": None, "window": 3, "target": 1},
            partial(run_random_location_batch, _attack_random_location),
        ),
        (
            "cubic",
            "staircase placement forcing with k ~ 2n^(1/3) (Thm 4.3)",
            _attack_cubic,
            {"n": 111, "k": None, "target": 1},
            partial(run_forcing_batch, _attack_cubic),
        ),
        (
            "partial-sum",
            "covert-channel attack on the sum-output variant (App. E.4)",
            _attack_partial_sum,
            {"n": 64, "k": None, "target": 1},
            None,
        ),
        (
            "phase-rushing",
            "rushing + brute-forced f vs PhaseAsyncLead (Rem. after 6.1)",
            _attack_phase_rushing,
            {"n": 64, "k": None, "target": 1},
            None,
        ),
    )
    for name, desc, builder, defaults, kernel in ring_attacks:
        register_scenario(
            ScenarioSpec(
                name=f"attack/{name}",
                description=desc,
                build_topology=ring_topology,
                build_protocol=builder,
                run_batch=kernel,
                defaults=defaults,
                success=forced_target,
                tags=("attack",),
            )
        )

    register_scenario(
        ScenarioSpec(
            name="attack/shamir-pool",
            description="ceil(n/2) pool reconstructs early and steers",
            build_topology=complete_topology,
            build_protocol=_attack_shamir_pool,
            defaults={"n": 8, "k": None, "target": 1},
            success=forced_target,
            tags=("attack",),
        )
    )


_register_builtins()

# The subsystem catalogs: each module registers its specs at import time,
# extending the registry beyond the ring protocols/attacks to the whole
# paper — the lockstep sync engine, the tree games, the coin-toss
# reductions, the full-information comparators, the building-block
# applications, the fuzzer, and the Figure 1 placements. Imported
# here (not from the subsystems' own __init__) so registration happens
# exactly once, in every process that can run experiments.
import repro.analysis.scenarios  # noqa: E402,F401  (import for effect)
import repro.blocks.scenarios  # noqa: E402,F401  (import for effect)
import repro.cointoss.scenarios  # noqa: E402,F401  (import for effect)
import repro.fullinfo.scenarios  # noqa: E402,F401  (import for effect)
import repro.sync.scenarios  # noqa: E402,F401  (import for effect)
import repro.testing.scenarios  # noqa: E402,F401  (import for effect)
import repro.trees.scenarios  # noqa: E402,F401  (import for effect)

#: Names every process rebuilds on ``import repro.experiments`` — the set
#: the parallel runner may ship across process boundaries by name alone
#: (snapshotted right after builtin registration, before any user
#: scenarios can be added).
BUILTIN_SCENARIO_NAMES = frozenset(scenario_names())
