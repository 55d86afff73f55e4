"""Demonstrations that the synchronous baselines deny rushing.

The asynchronous attacks all rest on one move: wait, learn, then commit.
Under lockstep rounds that move does not exist — a processor that stays
silent in the broadcast round is caught in the echo round, and one that
lies to some peers equivocates, which the echo round also catches. The
``SyncLastRoundCheater`` tries the strongest analogue of the Basic-LEAD
cheat (delay the secret until after seeing the others) and is always
punished with a ``FAIL`` outcome.
"""

from typing import Any, Dict, Hashable, List, Tuple

from repro.protocols.outcome import id_to_residue
from repro.sim.topology import Topology
from repro.sync.engine import SyncContext, SyncStrategy
from repro.sync.protocols import sync_broadcast_protocol
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod


class SyncLastRoundCheater(SyncStrategy):
    """Withholds its secret in round 1, then tries to steer the sum.

    In the asynchronous model this exact behaviour controls Basic-LEAD
    (Claim B.1). Synchronously it is hopeless: honest processors notice
    the missing round-1 value (they count ``n`` secrets before echoing)
    and abort, so the cheater only ever achieves ``FAIL`` — the worst
    outcome under solution preference. Kept as an executable witness of
    *why* the paper's hard case is the asynchronous one.
    """

    def __init__(self, pid: int, n: int, target: int):
        self.pid = pid
        self.n = n
        self.target = target
        self.seen: Dict[int, int] = {}

    def on_round(
        self,
        ctx: SyncContext,
        round_number: int,
        inbox: List[Tuple[Hashable, Any]],
    ) -> None:
        if round_number == 1:
            return  # deviate: stay silent, hope to learn first
        if round_number == 2:
            for sender, message in inbox:
                if message[0] == "value":
                    self.seen[sender] = canonical_mod(
                        int(message[1]), self.n
                    )
            others = sum(self.seen.values()) % self.n
            chosen = canonical_mod(
                id_to_residue(self.target, self.n) - others, self.n
            )
            # Too late: honest processors already counted secrets and will
            # abort, but play the steering value anyway.
            ctx.broadcast(("value", chosen))
            return
        ctx.terminate(self.target)


def sync_rushing_attempt_protocol(
    topology: Topology, cheater: Hashable, target: int
) -> Dict[Hashable, SyncStrategy]:
    """Honest broadcast baseline + one last-round cheater."""
    n = len(topology)
    if cheater not in set(topology.nodes):
        raise ConfigurationError(f"cheater {cheater} not in the network")
    protocol = sync_broadcast_protocol(topology)
    protocol[cheater] = SyncLastRoundCheater(cheater, n, target)
    return protocol
