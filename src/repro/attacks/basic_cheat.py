"""Claim B.1: a single adversary controls Basic-LEAD completely.

The cheater simply waits: it forwards nothing and selects its "secret" only
after all ``n-1`` other values have arrived, choosing it to cancel the sum
to the target. Because Basic-LEAD has no commitment mechanism, the honest
processors cannot tell the difference and all validations pass.
"""

from typing import Any, Dict, Hashable

from repro.protocols.basic_lead import basic_lead_protocol
from repro.protocols.outcome import id_to_residue
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod, mod_sub


class BasicLeadCheaterStrategy(Strategy):
    """Deviating Basic-LEAD processor forcing outcome ``target``.

    The cheater buffers its first ``n-1`` incoming values (the honest
    secrets), then injects ``d = target - Σ others (mod n)`` followed by
    the buffered values, replaying the order an honest execution would
    produce so every honest validation succeeds.
    """

    __slots__ = ("n", "target", "received")

    def __init__(self, n: int, target: int):
        self.n = n
        self.target = target
        self.received: list = []

    def on_wakeup(self, ctx: Context) -> None:
        pass  # deviate: send nothing until everyone else has committed

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        self.received.append(canonical_mod(int(value), self.n))
        if len(self.received) < self.n - 1:
            return
        # All honest secrets are in hand; pick ours to force the sum.
        others = sum(self.received) % self.n
        chosen = mod_sub(id_to_residue(self.target, self.n), others, self.n)
        ctx.send_next(chosen)
        # Replay the honest forwarding pattern: each incoming value, in the
        # order received, so every honest processor still sees each secret
        # exactly once and its own secret last.
        for v in self.received[: self.n - 1]:
            ctx.send_next(v)
        ctx.terminate(self.target)


def basic_cheat_protocol(
    topology: Topology, cheater: Hashable, target: int
) -> Dict[Hashable, Strategy]:
    """Honest Basic-LEAD everywhere except ``cheater`` forcing ``target``."""
    n = len(topology)
    if cheater not in set(topology.nodes):
        raise ConfigurationError(f"cheater {cheater} not on the ring")
    if not 1 <= target <= n:
        raise ConfigurationError(f"target {target} out of range 1..{n}")
    protocol = basic_lead_protocol(topology)
    protocol[cheater] = BasicLeadCheaterStrategy(n, target)
    return protocol
