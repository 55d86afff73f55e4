"""Theorem 4.3: the Cubic Attack — ``k = O(n^(1/3))`` placed adversaries
control A-LEADuni.

The rushing attack of Lemma 4.1 needs ``l_j ≤ k-1`` everywhere, hence
``k ≈ √n``. The cubic attack spends the ``k`` spare messages (freed by not
selecting own secrets) to *push information faster than one hop per round*:
with segment lengths decreasing arithmetically (``l_i ≈ (k+1-i)(k-1)``),
each adversary's early zero-burst lets its successor finish earlier, so
everyone collects all ``n-k`` honest secrets in time to steer the sum.

Per-adversary schedule (paper pseudo-code, Appendix C):

1. forward the first ``n - k - l_i`` incoming messages;
2. send ``k - 1`` zeros;
3. absorb ``l_i`` more messages (receive only), reaching ``n - k`` total;
4. send ``M = w - Σ m_j (mod n)``;
5. replay ``m_{n-k-l_i+1} .. m_{n-k}`` — which is ``secret(I_i)`` by
   Lemma 4.5 — and terminate.
"""

from typing import Any, Dict, Hashable, List

from repro.attacks.placement import RingPlacement
from repro.protocols.alead_uni import alead_uni_protocol
from repro.protocols.outcome import id_to_residue
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod


class CubicAdversary(Strategy):
    """Adversary ``a_i`` of the cubic attack (segment length ``l_i``)."""

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
        pipe_until = self.n - self.k - self.segment_length
        if count <= pipe_until:
            ctx.send_next(value)  # step 1: pipe
            if count == pipe_until:
                for _ in range(self.k - 1):  # step 2: zero burst
                    ctx.send_next(0)
                if self.segment_length == 0:
                    self._finish(ctx)
            return
        if count < self.n - self.k:
            return  # step 3: absorb without sending
        if count == self.n - self.k:
            self._finish(ctx)

    def _finish(self, ctx: Context) -> None:
        """Steps 4-5: steer the sum, replay the segment secrets."""
        total = sum(self.received) % self.n
        m_value = canonical_mod(
            id_to_residue(self.target, self.n) - total, self.n
        )
        ctx.send_next(m_value)
        l = self.segment_length
        start = (self.n - self.k) - l
        for v in self.received[start : self.n - self.k]:
            ctx.send_next(v)
        ctx.terminate(self.target)


def cubic_attack_protocol(
    topology: Topology, placement: RingPlacement, target: int
) -> Dict[Hashable, Strategy]:
    """Protocol vector for the cubic attack on A-LEADuni.

    ``placement`` should come from :meth:`RingPlacement.cubic`; the checks
    here re-validate the distance profile the termination proof
    (Lemma 4.4) relies on.
    """
    n = len(topology)
    placement.check_attack(n, target)
    distances = placement.distances()
    k = placement.k
    bad = placement.staircase_violation()
    if bad == k - 1:
        raise ConfigurationError(f"cubic attack needs l_k <= k-1, got {distances[-1]}")
    if bad is not None:
        raise ConfigurationError(
            f"cubic attack needs l_i <= l_(i+1) + k - 1, violated at i={bad}"
        )
    protocol = alead_uni_protocol(topology)
    for pid, l in zip(placement.positions, distances):
        protocol[pid] = CubicAdversary(n, k, l, target)
    return protocol
