"""Monte-Carlo estimation of outcome distributions.

An FLE protocol must elect every id with probability exactly ``1/n``
(Section 2). These helpers run a protocol factory many times with
independent seeds, histogram the outcomes, and test uniformity with a
chi-square statistic (scipy when available, plain implementation
otherwise, so the core library stays dependency-free).

Estimation delegates to the :mod:`repro.experiments` runner: trials run
with trace recording off and can fan out over worker processes, while
the per-trial seed derivation is unchanged from the original serial
loop — so historical results are preserved exactly.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional

from repro.sim.execution import FAIL
from repro.sim.topology import Topology

#: A protocol factory: builds a fresh strategy vector per execution.
ProtocolFactory = Callable[[Topology], Dict[Hashable, object]]


@dataclass
class OutcomeDistribution:
    """Histogram of outcomes over repeated executions."""

    n: int
    trials: int
    counts: Counter = field(default_factory=Counter)

    @property
    def fail_count(self) -> int:
        """Number of executions with outcome ``FAIL``."""
        return self.counts.get(FAIL, 0)

    @property
    def fail_rate(self) -> float:
        """Fraction of executions that failed."""
        return self.fail_count / self.trials if self.trials else 0.0

    def probability(self, outcome) -> float:
        """Empirical ``Pr[outcome]``."""
        return self.counts.get(outcome, 0) / self.trials if self.trials else 0.0

    def max_probability(self) -> float:
        """``max_j Pr[outcome = j]`` over valid ids only (0.0 when the
        distribution has no valid-id range, i.e. ``n == 0`` — scenarios
        whose outcomes are not election ids)."""
        valid = [self.counts.get(j, 0) for j in range(1, self.n + 1)]
        if not valid or not self.trials:
            return 0.0
        return max(valid) / self.trials

    def valid_counts(self) -> Dict[int, int]:
        """Counts restricted to valid ids ``1..n`` (zeros included)."""
        return {j: self.counts.get(j, 0) for j in range(1, self.n + 1)}


class _FixedTopology:
    """Picklable topology factory closing over one prebuilt topology."""

    def __init__(self, topology: Topology):
        self.topology = topology

    def __call__(self, params) -> Topology:
        return self.topology


class _FactoryProtocol:
    """Picklable adapter from the legacy one-argument protocol factory."""

    def __init__(self, factory: ProtocolFactory):
        self.factory = factory

    def __call__(self, topology, params, rng):
        return self.factory(topology)


def estimate_distribution(
    topology: Topology,
    factory: ProtocolFactory,
    trials: int,
    base_seed: int = 0,
    workers: int = 1,
    max_steps: Optional[int] = None,
    pool=None,
) -> OutcomeDistribution:
    """Run ``factory`` ``trials`` times with derived seeds and histogram.

    Trial ``t`` runs from the registry seed derived from
    ``(base_seed, t)`` — the same derivation at any ``workers`` count, so
    the histogram is reproducible however the work is distributed.
    ``workers > 1`` requires ``topology`` and ``factory`` to be picklable
    (module-level factories such as ``alead_uni_protocol`` are; ad-hoc
    lambdas should stay at ``workers=1``). Only the histogram is wanted
    here, so chunks fold inside the workers and IPC carries counters,
    not per-trial outcomes; a shared ``pool`` amortises worker spawn
    across repeated estimates.
    """
    from repro.experiments.campaign import run_scenario
    from repro.experiments.scenario import ScenarioSpec

    spec = ScenarioSpec(
        name="adhoc/estimate-distribution",
        description="legacy protocol-factory distribution estimate",
        build_topology=_FixedTopology(topology),
        build_protocol=_FactoryProtocol(factory),
    )
    return run_scenario(
        spec,
        trials,
        base_seed,
        workers=workers,
        keep_outcomes=False,
        pool=pool,
        max_steps=max_steps,
    ).distribution


def chi_square_uniformity(dist: OutcomeDistribution) -> float:
    """p-value of the chi-square test that valid outcomes are uniform.

    ``FAIL`` outcomes are excluded from the test (an honest run never
    fails; attack runs are evaluated by other means). Returns 1.0 when
    there are no valid outcomes to test.
    """
    counts = list(dist.valid_counts().values())
    total = sum(counts)
    if total == 0:
        return 1.0
    expected = total / dist.n
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    dof = dist.n - 1
    try:
        from scipy.stats import chi2

        return float(chi2.sf(statistic, dof))
    except ImportError:  # pragma: no cover - scipy present in this env
        return _chi2_sf(statistic, dof)


def _chi2_sf(statistic: float, dof: int) -> float:
    """Survival function of chi-square via the regularized upper gamma.

    Wilson-Hilferty approximation — accurate enough for pass/fail
    uniformity thresholds when scipy is unavailable.
    """
    if statistic <= 0:
        return 1.0
    z = ((statistic / dof) ** (1.0 / 3.0) - (1 - 2.0 / (9 * dof))) / math.sqrt(
        2.0 / (9 * dof)
    )
    return 0.5 * math.erfc(z / math.sqrt(2.0))
