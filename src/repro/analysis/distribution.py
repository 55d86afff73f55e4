"""Outcome distributions of repeated executions.

An FLE protocol must elect every id with probability exactly ``1/n``
(Section 2). :class:`OutcomeDistribution` is the histogram every
Monte-Carlo estimate folds into (the ``distribution`` of
:func:`repro.experiments.run_scenario`'s result), and
:func:`chi_square_uniformity` tests it for uniformity (scipy when
available, a plain implementation otherwise, so the core library stays
dependency-free).
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.sim.execution import FAIL


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
