"""Honest-segment geometry (Definition 3.1, Figure 1).

Given a coalition placement, the attacks' feasibility is governed entirely
by the segment-length profile ``(l_1..l_k)``: Lemma 4.1 needs
``max l_j ≤ k-1``, the cubic attack needs the arithmetic staircase, and
Theorem C.1's analysis bounds ``max l_j`` for random placements. These
statistics are what experiment F1 tabulates.
"""

from dataclasses import dataclass
from typing import List

from repro.attacks.placement import RingPlacement


@dataclass(frozen=True)
class SegmentStats:
    """Summary of one placement's honest-segment profile."""

    n: int
    k: int
    lengths: tuple
    max_length: int
    min_length: int
    exposed_adversaries: int
    rushing_feasible: bool  # Lemma 4.1: RingPlacement.rushing_violations()
    cubic_feasible: bool  # Thm 4.3: RingPlacement.staircase_violation()

    @property
    def mean_length(self) -> float:
        """Average honest segment length (= (n-k)/k)."""
        return sum(self.lengths) / len(self.lengths)


def segment_statistics(placement: RingPlacement) -> SegmentStats:
    """Compute the Figure-1 quantities for ``placement``."""
    lengths: List[int] = placement.distances()
    return SegmentStats(
        n=placement.n,
        k=placement.k,
        lengths=tuple(lengths),
        max_length=max(lengths),
        min_length=min(lengths),
        exposed_adversaries=sum(1 for l in lengths if l >= 1),
        rushing_feasible=not placement.rushing_violations(),
        cubic_feasible=placement.staircase_violation() is None,
    )
