"""Coalition placement geometry on the unidirectional ring.

A :class:`RingPlacement` fixes where the ``k`` adversaries ``a_1..a_k`` sit
on the ring of ``n`` processors (ids ``1..n``) and exposes the honest
segment structure the paper reasons about (Definition 3.1): ``I_j`` is the
maximal run of honest processors between ``a_j`` and ``a_{j+1}`` and ``l_j``
its length. Constructors produce the placements used by each attack:

- :meth:`RingPlacement.equal_spacing` — Lemma 4.1 / Theorem 4.2 (all gaps
  as even as possible, every ``l_j ≤ k-1`` when ``k ≥ √n``);
- :meth:`RingPlacement.cubic` — Theorem 4.3 (gaps decreasing by at most
  ``k-1`` down to ``l_k ≤ k-1``);
- :meth:`RingPlacement.random_locations` — Appendix C's randomized model
  (each processor adversarial independently with probability ``p``).

All constructors keep the origin (processor 1) honest, matching the
assumptions of the attack proofs.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import random

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class RingPlacement:
    """Positions of an adversarial coalition on the ring ``1..n``.

    ``positions`` lists the coalition in increasing ring order; entry ``j``
    is the paper's adversary ``a_{j+1}``.
    """

    n: int
    positions: tuple

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"ring size {self.n} too small")
        pos = list(self.positions)
        if not pos:
            raise ConfigurationError("coalition must not be empty")
        if sorted(set(pos)) != pos:
            raise ConfigurationError("positions must be strictly increasing")
        if pos[0] < 1 or pos[-1] > self.n:
            raise ConfigurationError(f"positions out of range 1..{self.n}")

    @property
    def k(self) -> int:
        """Coalition size."""
        return len(self.positions)

    def distances(self) -> List[int]:
        """Honest segment lengths ``l_1..l_k`` (``l_j`` follows ``a_j``)."""
        pos = list(self.positions)
        k = len(pos)
        out = []
        for j in range(k):
            nxt = pos[(j + 1) % k]
            # Self-wrap (k = 1) is a full circle of n, not a gap of 0.
            gap = (nxt - pos[j] - 1) % self.n + 1
            out.append(gap - 1)
        return out

    def segment(self, j: int) -> List[int]:
        """Honest processors of ``I_j`` (0-based ``j``) in ring order."""
        start = self.positions[j]
        length = self.distances()[j]
        return [(start + t - 1) % self.n + 1 for t in range(1, length + 1)]

    def honest(self) -> List[int]:
        """All honest processor ids in increasing order."""
        coalition = set(self.positions)
        return [pid for pid in range(1, self.n + 1) if pid not in coalition]

    @property
    def origin_honest(self) -> bool:
        """True if processor 1 (the origin) is outside the coalition."""
        return 1 not in set(self.positions)

    def rushing_violations(self) -> List[int]:
        """Segment lengths outside Lemma 4.1's ``1 ≤ l_j ≤ k-1``, in ring
        order; empty iff the rushing attack's precondition holds."""
        k = self.k
        return [l for l in self.distances() if not 1 <= l <= k - 1]

    def staircase_violation(self) -> Optional[int]:
        """Where Theorem 4.3's staircase breaks, ``None`` if it holds.

        ``k-1`` (the last segment) when ``l_k > k-1``; otherwise the
        first ``i`` with ``l_i > l_{i+1} + k-1`` (0-based).
        """
        lengths = self.distances()
        k = len(lengths)
        if lengths[-1] > k - 1:
            return k - 1
        for i in range(k - 1):
            if lengths[i] > lengths[i + 1] + (k - 1):
                return i
        return None

    def check_attack(self, n: int, target: int) -> None:
        """Refuse to launch an A-LEADuni attack on a ring of ``n`` at
        ``target`` unless the placement fits the ring, the target is a
        processor id and the origin stays honest (every attack proof's
        assumption)."""
        if self.n != n:
            raise ConfigurationError("placement ring size mismatch")
        if not 1 <= target <= n:
            raise ConfigurationError(f"target {target} out of range 1..{n}")
        if not self.origin_honest:
            raise ConfigurationError("attack requires the origin to be honest")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_distances(
        cls, n: int, distances: Sequence[int], first: int = 2
    ) -> "RingPlacement":
        """Place ``a_1`` at ``first`` and the rest per segment lengths.

        ``distances[j]`` is ``l_{j+1}``, the number of honest processors
        between ``a_{j+1}`` and ``a_{j+2}``; they must sum to ``n - k``.
        """
        k = len(distances)
        if any(d < 0 for d in distances):
            raise ConfigurationError("segment lengths must be non-negative")
        if sum(distances) != n - k:
            raise ConfigurationError(
                f"segment lengths sum to {sum(distances)}, expected {n - k}"
            )
        positions = [first]
        for d in distances[:-1]:
            positions.append(positions[-1] + d + 1)
        if positions[-1] > n:
            raise ConfigurationError("placement wraps past the ring end")
        return cls(n=n, positions=tuple(positions))

    @classmethod
    def equal_spacing(cls, n: int, k: int) -> "RingPlacement":
        """Gaps as even as possible; requires ``n ≥ 2k`` so every ``l_j ≥ 1``.

        With ``k ≥ √n`` this satisfies Lemma 4.1's ``l_j ≤ k - 1``
        precondition; the constructor itself does not enforce that bound —
        the attack checks it so experiments can probe the failure side too.
        """
        if k < 1 or k > n:
            raise ConfigurationError(f"k={k} out of range for n={n}")
        if n < 2 * k:
            raise ConfigurationError(
                f"equal spacing needs n >= 2k for exposed adversaries "
                f"(n={n}, k={k})"
            )
        base, extra = divmod(n - k, k)
        distances = [base + (1 if j < extra else 0) for j in range(k)]
        # Keep the short gaps last so the wrap segment containing the origin
        # is never starved below length 1.
        return cls.from_distances(n, distances)

    @classmethod
    def cubic(cls, n: int, k: int) -> "RingPlacement":
        """Theorem 4.3 placement: ``l_i ≤ l_{i+1} + (k-1)``, ``l_k ≤ k-1``.

        Uses the threshold construction: ``l_i = min(ideal_i, t)`` for the
        ideal arithmetic profile ``ideal_i = (k+1-i)(k-1)``, with the
        largest ``t`` fitting ``Σ l_i = n - k``, then +1 adjustments on the
        first few capped entries. Raises if ``k`` is too small for ``n``
        (needs roughly ``k ≥ 2·n^(1/3)``) or segments would be empty.
        """
        if k < 2:
            raise ConfigurationError("cubic attack needs k >= 2")
        ideal = [(k + 1 - i) * (k - 1) for i in range(1, k + 1)]
        budget = n - k
        if budget < k:
            raise ConfigurationError(
                f"cubic placement needs n - k >= k so every segment is "
                f"exposed (n={n}, k={k})"
            )
        if sum(ideal) < budget:
            raise ConfigurationError(
                f"k={k} too small for n={n}: max coverage "
                f"{sum(ideal) + k} < n (need roughly k >= 2*n^(1/3))"
            )
        # Largest threshold t with sum(min(ideal_i, t)) <= budget, by
        # bisection (the sum is monotone in t): budget // k always fits,
        # and t never needs to exceed ideal[0], the largest entry.
        t, hi = budget // k, ideal[0]
        while t < hi:
            mid = (t + hi + 1) // 2
            if sum(min(x, mid) for x in ideal) <= budget:
                t = mid
            else:
                hi = mid - 1
        distances = [min(x, t) for x in ideal]
        leftover = budget - sum(distances)
        capped = [i for i, x in enumerate(ideal) if x > t]
        if leftover > len(capped):
            raise ConfigurationError(
                f"internal: leftover {leftover} exceeds capped entries"
            )
        for i in range(leftover):
            distances[capped[i]] += 1
        if min(distances) < 1:
            raise ConfigurationError("cubic placement produced empty segment")
        placement = cls.from_distances(n, distances)
        bad = placement.staircase_violation()
        if bad == k - 1:
            raise ConfigurationError(
                f"cubic placement infeasible: l_k={distances[-1]} > k-1"
            )
        if bad is not None:
            raise ConfigurationError(
                "internal: cubic distance profile violates the "
                "l_i <= l_{i+1} + k - 1 constraint"
            )
        return placement

    @classmethod
    def random_locations(
        cls, n: int, p: float, rng: random.Random
    ) -> Optional["RingPlacement"]:
        """Appendix C randomized model: each non-origin processor joins the
        coalition independently with probability ``p``.

        Returns ``None`` when fewer than 2 processors were selected (the
        attack degenerates); callers treat that as a failed sample.
        """
        if not 0 <= p <= 1:
            raise ConfigurationError(f"probability p={p} out of [0, 1]")
        positions = [pid for pid in range(2, n + 1) if rng.random() < p]
        if len(positions) < 2:
            return None
        return cls(n=n, positions=tuple(positions))
