"""Statistical helpers for experiment reporting.

Success probabilities in the experiments are Monte-Carlo estimates; these
helpers attach Wilson confidence intervals so the rows the experiments in
``benchmarks/`` print can be read with error bars, and provide the
two-proportion comparison used when claiming one configuration beats
another.
"""

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Proportion:
    """A binomial estimate with its Wilson interval."""

    successes: int
    trials: int
    low: float
    high: float

    @property
    def estimate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.estimate:.3f} [{self.low:.3f}, {self.high:.3f}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation at the extremes (0% and
    100% success), which is exactly where attack experiments live.
    """
    if trials <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range 0..{trials}")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    low = max(0.0, center - margin)
    high = min(1.0, center + margin)
    # Guard float rounding at the exact extremes so the interval always
    # contains the point estimate.
    if successes == trials:
        high = 1.0
    if successes == 0:
        low = 0.0
    return (low, high)


def proportion(successes: int, trials: int, z: float = 1.96) -> Proportion:
    """Bundle a count with its Wilson interval."""
    low, high = wilson_interval(successes, trials, z)
    return Proportion(successes, trials, low, high)


def proportions_differ(
    a: Proportion, b: Proportion, z: float = 1.96
) -> bool:
    """Two-proportion z-test at the given level (True = differ).

    Conservative pooled-variance version; used by ablation benches when
    claiming configuration A beats configuration B.
    """
    if a.trials == 0 or b.trials == 0:
        return False
    pa, pb = a.estimate, b.estimate
    pooled = (a.successes + b.successes) / (a.trials + b.trials)
    if pooled in (0.0, 1.0):
        return pa != pb
    se = math.sqrt(pooled * (1 - pooled) * (1 / a.trials + 1 / b.trials))
    return abs(pa - pb) / se > z
