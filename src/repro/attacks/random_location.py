"""Theorem C.1: randomly located adversaries break A-LEADuni w.h.p.

Appendix C's randomized model: each processor is independently adversarial
with probability ``p`` (we keep the origin honest, as the paper does). The
adversaries know neither ``k`` nor their gaps ``l_j``; each one runs the
same *symmetric* deviation:

1. Forward every incoming message until detecting **circularity** — the
   first ``T > C`` with ``m[1..C] == m[T-C+1..T]`` — which reveals
   ``k' = n - T + C`` (correct unless the honest secrets happen to repeat a
   ``C``-window, probability ≤ n^(2-C) overall).
2. Send ``M = w - S(1,T) - S(n-k'-(k'-C-1)+1, n-k') (mod n)``.
3. Replay the last ``k' - C - 1`` of the first ``n - k'`` incoming
   messages, hoping ``l_j ≤ k' - C - 1`` so the tail is ``secret(I_j)``.

With ``p = √(8 ln n / n)`` (so ``k ≈ √(8 n ln n)``) the attack succeeds
w.h.p.; below that, long segments make some honest validation fail and the
outcome is ``FAIL``. Experiments measure that success curve.
"""

import math
from typing import Any, Dict, Hashable, List, Optional

from repro.attacks.placement import RingPlacement
from repro.protocols.alead_uni import alead_uni_protocol
from repro.protocols.outcome import id_to_residue
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod


def recommended_probability(n: int) -> float:
    """The paper's adversary density ``p = √(8 log n / n)`` (capped at 1)."""
    if n < 2:
        raise ConfigurationError("n must be at least 2")
    return min(1.0, math.sqrt(8.0 * math.log(n) / n))


class RandomLocationAdversary(Strategy):
    """Symmetric Theorem C.1 adversary: knows only ``n``, ``C``, ``w``."""

    def __init__(self, n: int, target: int, window: int = 3):
        if window < 1:
            raise ConfigurationError("circularity window C must be >= 1")
        self.n = n
        self.target = target
        self.window = window
        self.received: List[int] = []
        self.estimated_k: Optional[int] = None

    def on_wakeup(self, ctx: Context) -> None:
        pass  # deviate: no secret of our own

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        if self.estimated_k is not None:
            return  # burst already sent; ignore late traffic
        value = canonical_mod(int(value), self.n)
        self.received.append(value)
        ctx.send_next(value)  # step 1: forward while watching for the wrap
        t = len(self.received)
        c = self.window
        if t > c and self.received[:c] == self.received[t - c :]:
            self._burst(ctx, t)

    def _burst(self, ctx: Context, t: int) -> None:
        """Steps 2-3: steer the sum and replay the presumed segment tail."""
        c = self.window
        k_est = self.n - t + c
        self.estimated_k = k_est
        replay_len = k_est - c - 1
        degenerate = (
            replay_len < 0
            or replay_len > self.n - k_est  # more replay than honest secrets
            or self.n - k_est > len(self.received)
        )
        if degenerate:
            # Degenerate estimate; nothing sensible to send — stall, which
            # surfaces as a FAIL outcome (the attack failed this sample).
            ctx.terminate(self.target)
            return
        start = (self.n - k_est) - replay_len
        replay = self.received[start : self.n - k_est] if replay_len else []
        total = sum(self.received[:t]) % self.n
        m_value = canonical_mod(
            id_to_residue(self.target, self.n) - total - sum(replay), self.n
        )
        ctx.send_next(m_value)
        for v in replay:
            ctx.send_next(v)
        ctx.terminate(self.target)


def random_location_attack_protocol(
    topology: Topology,
    placement: RingPlacement,
    target: int,
    window: int = 3,
) -> Dict[Hashable, Strategy]:
    """Protocol vector: honest A-LEADuni + symmetric C.1 adversaries.

    ``placement`` normally comes from :meth:`RingPlacement.random_locations`;
    any placement with an honest origin is accepted — success is then a
    matter of probability, which is exactly what the experiment measures.
    """
    n = len(topology)
    placement.check_attack(n, target)
    protocol = alead_uni_protocol(topology)
    for pid in placement.positions:
        protocol[pid] = RandomLocationAdversary(n, target, window)
    return protocol
