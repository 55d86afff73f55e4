"""Conjecture 4.7 tooling: locating A-LEADuni's resilience frontier.

The paper proves A-LEADuni safe up to O(n^(1/4)) (Thm 5.1) and broken
from 2·n^(1/3) placed adversaries (Thm 4.3), conjecturing the truth sits
at Θ(n^(1/3)) (Conjecture 4.7). :func:`forcing_frontier` searches, per
ring size, for the smallest coalition at which any implemented attack
family forces the outcome — the empirical frontier an experimenter can
track against the conjecture as better attacks are added.

Each ``(family, k)`` probe is one
:func:`~repro.experiments.campaign.run_scenario` call on the registered
``frontier/*`` scenarios (:mod:`repro.analysis.scenarios`), so the scan
inherits deterministic trial seeding and optional multiprocessing
fan-out — every probe of a scan (all families, all ``k``, all ring
sizes) dispatches through **one** persistent
:class:`~repro.experiments.pool.WorkerPool`, so worker processes spawn
once per scan instead of once per probe. Infeasible placements surface
as :class:`~repro.util.errors.ConfigurationError` from the scenario
builder and simply exclude that family at that ``k``; a ring size that
cannot be built fails before the first probe.
"""

import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class FrontierPoint:
    """The smallest forcing coalition found for one ring size."""

    n: int
    k_min: int
    family: str
    lower_bound: float  # n^(1/4): below this Thm 5.1 proves safety
    conjecture: float  # ~n^(1/3): Conjecture 4.7's guess
    upper_bound: float  # 2·n^(1/3): Thm 4.3 proves forcing

    @property
    def within_gap(self) -> bool:
        """True when the found frontier sits inside the proven gap."""
        return self.lower_bound <= self.k_min <= self.upper_bound + 1


#: Attack families the search sweeps (scan preference order) — each a
#: registered scenario taking explicit ``n``/``k``/``target`` parameters.
FAMILIES: Dict[str, str] = {
    "cubic": "frontier/cubic",
    "rushing": "frontier/rushing",
}

#: The id every frontier probe tries to force (arbitrary, fixed).
TARGET = 7


def _placement_feasible(spec, params) -> bool:
    """Whether the family has a placement at this grid point at all.

    Only the placement builder's refusal means "no placement"; a ring
    that cannot be built raises its own :class:`ConfigurationError`."""
    topology = spec.build_topology(params)
    try:
        spec.build_protocol(topology, params, random.Random(0))
    except ConfigurationError:
        return False
    return True


def _check_sizes(sizes: List[int]) -> None:
    """Build every family's ring at every size before the first probe,
    so an impossible size fails with the ring builder's message."""
    from repro.experiments.scenario import get_scenario

    for n in sizes:
        for scenario in FAMILIES.values():
            spec = get_scenario(scenario)
            spec.build_topology(spec.resolve_params({"n": n}))


def _bounds(n: int) -> Dict[str, float]:
    return {
        "lower_bound": n ** 0.25,
        "conjecture": n ** (1 / 3),
        "upper_bound": 2 * n ** (1 / 3),
    }


def smallest_forcing_coalition(
    n: int,
    seeds: int = 2,
    k_max: Optional[int] = None,
    workers: int = 1,
    pool=None,
) -> FrontierPoint:
    """Scan k upward until some family forces the target on all seeds.

    ``seeds`` is the trial count per probe (one experiment of ``seeds``
    trials); a family forces at ``k`` when every trial ends on the
    target. All probes of the scan share one worker pool — ``pool``
    (caller-owned, e.g. one pool for a whole frontier table), or a
    ``WorkerPool(workers)`` the scan opens once and closes at the end.
    """
    from repro.experiments.campaign import run_scenario
    from repro.experiments.pool import WorkerPool
    from repro.experiments.scenario import get_scenario

    _check_sizes([n])
    if k_max is None:
        k_max = math.isqrt(n) + 2
    with (nullcontext(pool) if pool is not None else WorkerPool(workers)) as pool:
        for k in range(2, k_max + 1):
            for family, scenario in FAMILIES.items():
                spec = get_scenario(scenario)
                params = spec.resolve_params({"n": n, "k": k, "target": TARGET})
                if not _placement_feasible(spec, params):
                    continue
                result = run_scenario(
                    spec, seeds, params=params, keep_outcomes=False, pool=pool
                )
                if result.trials and result.success_rate == 1.0:
                    return FrontierPoint(
                        n=n, k_min=k, family=family, **_bounds(n)
                    )
    return FrontierPoint(n=n, k_min=k_max + 1, family="none", **_bounds(n))


def forcing_frontier(
    sizes: List[int], seeds: int = 2, workers: int = 1, pool=None
) -> List[FrontierPoint]:
    """The frontier table across ring sizes (the Conjecture 4.7 series).

    One shared worker pool serves every probe of every ring size.
    """
    from repro.experiments.pool import WorkerPool

    _check_sizes(sizes)
    with (nullcontext(pool) if pool is not None else WorkerPool(workers)) as pool:
        return [
            smallest_forcing_coalition(n, seeds=seeds, pool=pool)
            for n in sizes
        ]
