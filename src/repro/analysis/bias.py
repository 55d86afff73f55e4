"""Bias and resilience measurement.

The paper's central quantity is the ε of ``ε-k-unbiased``:
``ε = max_j Pr[outcome = j] - 1/n`` under the best adversarial deviation
(Definition after 2.3). :class:`BiasReport` reads it off an
:class:`~repro.analysis.distribution.OutcomeDistribution`, e.g. the
``distribution`` of ``run_scenario("honest/alead-uni", ...)``. An
attack's forcing rate, ``Pr[outcome = target]``, is the
``success_rate`` of its registered ``attack/<name>`` scenario (the
paper's attacks achieve rate 1, i.e. ε = 1 - 1/n).
"""

from dataclasses import dataclass

from repro.analysis.distribution import OutcomeDistribution


@dataclass(frozen=True)
class BiasReport:
    """Empirical bias of a protocol under some deviation."""

    n: int
    trials: int
    max_probability: float
    fail_rate: float

    @property
    def epsilon(self) -> float:
        """``max_j Pr[outcome=j] - 1/n`` (clamped at 0 from below)."""
        return max(0.0, self.max_probability - 1.0 / self.n)

    @classmethod
    def from_distribution(cls, dist: OutcomeDistribution) -> "BiasReport":
        """The bias of the runs ``dist`` histograms."""
        return cls(
            dist.n, dist.trials, dist.max_probability(), dist.fail_rate
        )
