"""Lemma 4.1 / Theorem 4.2: the rushing attack on A-LEADuni.

When every honest segment has length ``l_j ≤ k - 1`` (e.g. ``k ≥ √n``
equally spaced adversaries), the coalition controls the outcome:

1. **Rush**: each adversary never selects a secret of its own and forwards
   each of its first ``n - k`` incoming messages immediately (no buffering).
   By Lemma 4.5 those messages are exactly the ``n - k`` honest secrets, in
   ring order ``secret(I_{j-1}), secret(I_{j-2}), ...``.
2. **Steer**: adversary ``a_j`` then sends ``M = w - Σ_honest - Σ_{I_j}``,
   ``k - l_j - 1`` zeros, and finally replays the last ``l_j`` received
   values — which are ``secret(I_j)`` — so every honest validation passes
   (Lemma 3.5) and every honest sum equals the target (Lemma 3.4 + 3.3).

Preconditions checked: origin honest, every ``l_j`` in ``[1, k-1]``.
"""

from typing import Any, Dict, Hashable, List

from repro.attacks.placement import RingPlacement
from repro.protocols.alead_uni import alead_uni_protocol
from repro.protocols.outcome import id_to_residue
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod


class RushingAdversary(Strategy):
    """One coalition member of the Lemma 4.1 attack.

    Parameters
    ----------
    n, k:
        Ring and coalition sizes.
    segment_length:
        ``l_j``, the honest segment following this adversary.
    target:
        The processor id the coalition elects.
    """

    def __init__(self, n: int, k: int, segment_length: int, target: int):
        self.n = n
        self.k = k
        self.segment_length = segment_length
        self.target = target
        self.received: List[int] = []

    def on_wakeup(self, ctx: Context) -> None:
        pass  # deviate: no secret of our own

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        value = canonical_mod(int(value), self.n)
        self.received.append(value)
        count = len(self.received)
        if count < self.n - self.k:
            ctx.send_next(value)  # rush: forward with no buffering delay
            return
        if count > self.n - self.k:
            return  # late traffic after our burst; ignore
        ctx.send_next(value)
        self._burst(ctx)

    def _burst(self, ctx: Context) -> None:
        """Send M, padding zeros, and the segment replay, then stop."""
        l = self.segment_length
        total = sum(self.received) % self.n
        replay = self.received[len(self.received) - l :] if l else []
        m_value = canonical_mod(
            id_to_residue(self.target, self.n) - total - sum(replay), self.n
        )
        ctx.send_next(m_value)
        for _ in range(self.k - l - 1):
            ctx.send_next(0)
        for v in replay:
            ctx.send_next(v)
        ctx.terminate(self.target)


def equal_spacing_attack_protocol(
    topology: Topology, placement: RingPlacement, target: int
) -> Dict[Hashable, Strategy]:
    """Full protocol vector: honest A-LEADuni + Lemma 4.1 coalition.

    Raises :class:`ConfigurationError` when the placement violates the
    lemma's preconditions (``1 ≤ l_j ≤ k-1`` for all ``j``, origin honest)
    — callers probing the failure side should catch it or use placements
    that merely *fail the attack* rather than crash it (see
    :func:`equal_spacing_attack_protocol_unchecked`).
    """
    placement.check_attack(len(topology), target)
    k = placement.k
    bad = [l for l in placement.distances() if not 1 <= l <= k - 1]
    if bad:
        raise ConfigurationError(
            f"Lemma 4.1 needs 1 <= l_j <= k-1 for all segments, got {bad}"
        )
    return _build(topology, placement, target)


def equal_spacing_attack_protocol_unchecked(
    topology: Topology, placement: RingPlacement, target: int
) -> Dict[Hashable, Strategy]:
    """Like :func:`equal_spacing_attack_protocol` without the ``l_j`` bound.

    Used by resilience experiments to launch the attack *below* its
    threshold and observe it failing (honest processors abort or the ring
    deadlocks), rather than refusing to run. Segments longer than ``k-1``
    make ``k - l_j - 1`` negative; the adversary then simply sends the
    replay without padding, sending fewer than ``n`` messages.
    """
    placement.check_attack(len(topology), target)
    return _build(topology, placement, target)


def _build(
    topology: Topology, placement: RingPlacement, target: int
) -> Dict[Hashable, Strategy]:
    n = len(topology)
    protocol = alead_uni_protocol(topology)
    for pid, l in zip(placement.positions, placement.distances()):
        protocol[pid] = RushingAdversary(n, placement.k, l, target)
    return protocol
