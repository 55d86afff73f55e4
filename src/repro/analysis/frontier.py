"""Conjecture 4.7 tooling: locating A-LEADuni's resilience frontier.

The paper proves A-LEADuni safe up to O(n^(1/4)) (Thm 5.1) and broken
from 2·n^(1/3) placed adversaries (Thm 4.3), conjecturing the truth sits
at Θ(n^(1/3)) (Conjecture 4.7). :func:`forcing_frontier` searches, per
ring size, for the smallest coalition at which any implemented attack
family forces the outcome — the empirical frontier an experimenter can
track against the conjecture as better attacks are added.

The scan runs no trials and builds no ring. A family forces at ``(n, k)``
exactly when its :class:`~repro.attacks.placement.RingPlacement` rules
accept the coalition: :meth:`~RingPlacement.cubic` (Thm 4.3's staircase)
or :meth:`~RingPlacement.equal_spacing` with no
:meth:`~RingPlacement.rushing_violations` (Lemma 4.1's ``l_j ≤ k-1``),
then :meth:`~RingPlacement.check_attack` at the probe target. These are
the checks the registered ``attack/cubic`` and ``attack/equal-spacing``
builders make, and every placement they accept elects the target on
every seed. That acceptance is the certificate
:func:`~repro.experiments.ring_kernels.run_forcing_batch` folds into
``{target: trials}``, pinned against the executor by the batch-kernel
tests. A :class:`~repro.util.errors.ConfigurationError` from a rule means
"no placement here" and excludes that family at that ``k``.
"""

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.attacks.placement import RingPlacement
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


#: Attack families the scan tries at each ``k``, in preference order, each
#: with the placement its registered builder (``attack/cubic``,
#: ``attack/equal-spacing``) launches.
FAMILIES = {"cubic": RingPlacement.cubic, "rushing": RingPlacement.equal_spacing}

#: The id every frontier probe tries to force (arbitrary, fixed); a ring
#: smaller than this is probed at its last processor, ``n``.
TARGET = 7


def _bounds(n: int) -> Dict[str, float]:
    return {
        "lower_bound": n ** 0.25,
        "conjecture": n ** (1 / 3),
        "upper_bound": 2 * n ** (1 / 3),
    }


def family_forces(family: str, n: int, k: int) -> bool:
    """True when ``family``'s placement rules accept ``k`` adversaries on
    a ring of ``n``, probed at ``min(TARGET, n)``."""
    try:
        placement = FAMILIES[family](n, k)
        placement.check_attack(n, min(TARGET, n))
    except ConfigurationError:
        return False
    # ``cubic`` refuses a broken staircase itself; Lemma 4.1's bound is a
    # predicate the rushing builder checks.
    return family == "cubic" or not placement.rushing_violations()


def smallest_forcing_coalition(n: int) -> FrontierPoint:
    """Scan ``k`` from 2 to ``isqrt(n) + 2`` until some family forces.

    A ring of fewer than 2 processors is refused with the ring builder's
    message.
    """
    if n < 2:
        raise ConfigurationError(f"ring needs at least 2 processors, got {n}")
    k_max = math.isqrt(n) + 2
    for k in range(2, k_max + 1):
        for family in FAMILIES:
            if family_forces(family, n, k):
                return FrontierPoint(n=n, k_min=k, family=family, **_bounds(n))
    return FrontierPoint(n=n, k_min=k_max + 1, family="none", **_bounds(n))


def forcing_frontier(sizes: List[int]) -> List[FrontierPoint]:
    """The frontier table across ring sizes (the Conjecture 4.7 series)."""
    return [smallest_forcing_coalition(n) for n in sizes]
