"""Conjecture 4.7 tooling: locating A-LEADuni's resilience frontier.

The paper proves A-LEADuni safe up to O(n^(1/4)) (Thm 5.1) and broken
from 2·n^(1/3) placed adversaries (Thm 4.3), conjecturing the truth sits
at Θ(n^(1/3)) (Conjecture 4.7). :func:`forcing_frontier` searches, per
ring size, for the smallest coalition at which any implemented attack
family forces the outcome — the empirical frontier an experimenter can
track against the conjecture as better attacks are added.

The scan runs no trials. A family forces at ``(n, k)`` exactly when its
registered attack builder accepts ``(n, k, TARGET)``: the builders check
each proof's placement preconditions (Thm 4.3's staircase, Lemma 4.1's
``l_j ≤ k-1``), and every placement they accept elects the target on
every seed. That acceptance is the certificate
:func:`~repro.experiments.ring_kernels.run_forcing_batch` folds into
``{target: trials}``, pinned against the executor by the batch-kernel
tests. A builder's :class:`~repro.util.errors.ConfigurationError` means
"no placement here" and excludes that family at that ``k``.
"""

import math
import random
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
#: registered ring attack taking explicit ``n``/``k``/``target`` parameters.
FAMILIES: Dict[str, str] = {
    "cubic": "attack/cubic",
    "rushing": "attack/equal-spacing",
}

#: The id every frontier probe tries to force (arbitrary, fixed).
TARGET = 7


def _bounds(n: int) -> Dict[str, float]:
    return {
        "lower_bound": n ** 0.25,
        "conjecture": n ** (1 / 3),
        "upper_bound": 2 * n ** (1 / 3),
    }


def smallest_forcing_coalition(
    n: int, k_max: Optional[int] = None
) -> FrontierPoint:
    """Scan k upward until some family's builder accepts ``(n, k)``.

    Every family runs on the unidirectional ring, so the ring is built
    once; a size the ring builder refuses raises its message.
    """
    from repro.experiments import get_scenario
    from repro.experiments.scenario import ring_topology

    ring = ring_topology({"n": n})
    if k_max is None:
        k_max = math.isqrt(n) + 2
    specs = {family: get_scenario(name) for family, name in FAMILIES.items()}
    for k in range(2, k_max + 1):
        for family, spec in specs.items():
            params = spec.resolve_params({"n": n, "k": k, "target": TARGET})
            try:
                spec.build_protocol(ring, params, random.Random(0))
            except ConfigurationError:
                continue
            return FrontierPoint(n=n, k_min=k, family=family, **_bounds(n))
    return FrontierPoint(n=n, k_min=k_max + 1, family="none", **_bounds(n))


def forcing_frontier(sizes: List[int]) -> List[FrontierPoint]:
    """The frontier table across ring sizes (the Conjecture 4.7 series)."""
    return [smallest_forcing_coalition(n) for n in sizes]
