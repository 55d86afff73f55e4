"""Share-pooling attack on the Shamir complete-network baseline.

Shows the baseline's ``⌈n/2⌉ - 1`` resilience is exactly tight: a
coalition of ``k ≥ ⌈n/2⌉`` (the reconstruction threshold) controls the
outcome. The adversaries *withhold* their own phase-1 shares (async
delays are legal), pool the shares honest processors have already sent
them — ``k`` shares per honest secret, enough to reconstruct — pick
their own secrets to steer the sum, and only then run the protocol
honestly. Every consistency check passes; the deviation is undetectable.

Coalition-internal coordination uses ordinary network messages on the
complete graph (no side channel is assumed): members forward their
received honest shares to a coalition leader, which reconstructs,
solves for the steering secrets, and assigns them back.
"""

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.protocols.async_complete import (
    SHARE,
    AsyncCompleteLeadStrategy,
    async_complete_protocol,
    default_threshold,
)
from repro.protocols.outcome import id_to_residue
from repro.secretshare.shamir import ShamirScheme, Share
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod

#: Coalition-internal message tags (ordinary messages on real links).
POOL = "pool"  # member -> leader: shares of honest secrets
ASSIGN = "assign"  # leader -> member: the secret to use


class PoolingAdversary(AsyncCompleteLeadStrategy):
    """Coalition member: delay, pool, steer, then behave honestly.

    Inherits the honest machinery and overrides only the opening: instead
    of drawing and sharing a secret at wakeup, it waits for the honest
    phase-1 shares, participates in the pooling exchange, and starts the
    honest flow once the leader assigns its steering secret.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        scheme: ShamirScheme,
        coalition: List[int],
        target: int,
    ):
        super().__init__(pid, n, scheme)
        self.coalition = list(coalition)
        self.leader = self.coalition[0]
        self.is_leader = pid == self.leader
        self.target = target
        self.honest_ids = [
            j for j in range(1, n + 1) if j not in set(self.coalition)
        ]
        self.pooled: Dict[int, Dict[int, Share]] = {}
        self.pool_messages = 0
        self.assigned: Optional[int] = None
        self.forwarded_pool = False

    # -- opening phase: deviate -----------------------------------------

    def on_wakeup(self, ctx: Context) -> None:
        pass  # withhold our shares until the pool resolves

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        tag = value[0]
        if tag == POOL and self.is_leader:
            self._on_pool(ctx, value, sender)
            return
        if tag == ASSIGN and not self.is_leader:
            _, secret = value
            self._start_honest_flow(ctx, secret)
            return
        if tag == SHARE and self.assigned is None:
            # Phase-1 share from an honest processor, received before we
            # have committed anything: record it and feed the pool.
            _, owner, share = value
            self.my_shares[owner] = share
            if self.is_leader:
                self.pooled.setdefault(owner, {})[share.x] = share
                self._maybe_solve(ctx)
            elif (
                not self.forwarded_pool
                and all(h in self.my_shares for h in self.honest_ids)
            ):
                self.forwarded_pool = True
                payload = tuple(
                    (h, self.my_shares[h]) for h in self.honest_ids
                )
                ctx.send(self.leader, (POOL, payload))
            return
        # Anything else: we are already in the honest flow.
        super().on_receive(ctx, value, sender)

    def _on_pool(self, ctx: Context, value: Tuple, sender: Hashable) -> None:
        _, payload = value
        self.pool_messages += 1
        for owner, share in payload:
            self.pooled.setdefault(owner, {})[share.x] = share
        self._maybe_solve(ctx)

    def _maybe_solve(self, ctx: Context) -> None:
        """Leader: once k shares of every honest secret are pooled, solve."""
        if self.assigned is not None:
            return
        k = len(self.coalition)
        if self.pool_messages < k - 1:
            return
        if not all(
            len(self.pooled.get(h, {})) >= self.scheme.threshold
            for h in self.honest_ids
        ):
            return
        honest_sum = 0
        for h in self.honest_ids:
            shares = list(self.pooled[h].values())
            honest_sum += self.scheme.reconstruct(shares)
        # Members use 0; the leader's secret steers the total.
        steering = canonical_mod(
            id_to_residue(self.target, self.n) - honest_sum, self.n
        )
        for member in self.coalition[1:]:
            ctx.send(member, (ASSIGN, 0))
        self._start_honest_flow(ctx, steering)

    # -- honest continuation ----------------------------------------------

    def _start_honest_flow(self, ctx: Context, secret: int) -> None:
        """Run the honest wakeup logic with a *chosen* secret."""
        self.assigned = secret
        self.secret = secret
        shares = self.scheme.share(secret, ctx.rng)
        for j, share in zip(range(1, self.n + 1), shares):
            if j == self.pid:
                self.my_shares[self.pid] = share
            else:
                ctx.send(j, (SHARE, self.pid, share))
        # We may already hold every share (honest ones arrived first).
        if len(self.my_shares) == self.n and not self.revealed:
            self.revealed = True
            vector = tuple(sorted(self.my_shares.items()))
            from repro.protocols.async_complete import REVEAL

            for j in range(1, self.n + 1):
                if j != self.pid:
                    ctx.send(j, (REVEAL, vector))
            self._absorb_vector(vector)
            self._maybe_finish(ctx)


def shamir_pooling_attack_protocol(
    topology: Topology, coalition: List[int], target: int
) -> Dict[Hashable, Strategy]:
    """Honest Shamir baseline + a pooling coalition forcing ``target``.

    Requires ``len(coalition) ≥ ⌈n/2⌉`` (the reconstruction threshold) —
    below it the pool cannot reconstruct and the attack is impossible,
    which is exactly the baseline's resilience statement.
    """
    n = len(topology)
    threshold = default_threshold(n)
    coalition = sorted(set(coalition))
    if len(coalition) < threshold:
        raise ConfigurationError(
            f"pooling needs k >= ceil(n/2) = {threshold}, got {len(coalition)}"
        )
    if any(not 1 <= c <= n for c in coalition):
        raise ConfigurationError("coalition ids out of range")
    if not 1 <= target <= n:
        raise ConfigurationError(f"target {target} out of range 1..{n}")
    protocol = async_complete_protocol(topology, threshold)
    scheme = ShamirScheme(n, threshold, modulus=n)
    for pid in coalition:
        protocol[pid] = PoolingAdversary(pid, n, scheme, coalition, target)
    return protocol
