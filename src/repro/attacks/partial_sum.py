"""Appendix E.4: why PhaseAsyncLead needs a *random* output function.

Adding phase validation to A-LEADuni while keeping the ``sum`` output rule
is broken by ``k = 4`` adversaries: validation rounds whose validator is
adversarial become a fast covert channel for partial sums.

With equal segments of length ``L = (n-k)/k`` and adversaries ``a_1..a_k``
at positions ``2, L+3, 2L+4, ...``:

1. **Rush** data (forward immediately, no own value). After ``L`` rounds
   ``a_i`` knows ``S_i = Σ_{h ∈ I_{i-1}} d_h``.
2. **Round a_2** (validator ``a_2``): instead of a random value, ``a_2``
   initiates ``S_2``; each later adversary adds its own partial sum as it
   forwards; when the message returns, ``a_1`` and ``a_2`` know
   ``S = Σ S_i``, the full honest sum.
3. **Round a_3**: ``a_2`` initiates the circulation carrying ``S`` (any
   adversary may start it — the validator ``a_3`` is adversarial so nobody
   checks); now every adversary knows ``S``.
4. **Steer**: after rushing ``n - L - k`` data messages each adversary
   sends ``M = w - S``, then ``k-1`` zeros, then replays its segment's
   secrets — all validations pass and every honest processor sums to ``w``.

Honest validators' rounds are handled perfectly honestly throughout, so
nothing is detectable. Against the *random-function* output the same
deviation fails: partial sums of the input are useless for steering ``f``,
and any tampering with stored validation values makes segments disagree.
"""

from typing import Any, Dict, Hashable, List, Optional

from repro.attacks.placement import RingPlacement
from repro.protocols.outcome import id_to_residue
from repro.protocols.phase_async import (
    DATA,
    VALIDATION,
    PhaseAsyncParams,
    phase_async_protocol,
)
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import canonical_mod


class PartialSumAdversary(Strategy):
    """Coalition member of the E.4 attack on the sum-output variant.

    Parameters
    ----------
    params:
        The (sum-variant) protocol parameters.
    index:
        1-based coalition index ``i`` of this adversary.
    positions:
        All coalition positions in ring order (``positions[i-1]`` is us).
    target:
        Processor id the coalition elects.
    """

    def __init__(
        self,
        params: PhaseAsyncParams,
        index: int,
        positions: List[int],
        target: int,
    ):
        self.params = params
        self.n = params.n
        self.k = len(positions)
        self.index = index
        self.positions = list(positions)
        self.pid = positions[index - 1]
        self.target = target
        self.seg_len = (self.n - self.k) // self.k
        self.round = 0
        self.incoming = 0
        self.data_received: List[int] = []
        self.partial_sum: Optional[int] = None  # S_i, after L rounds
        self.full_sum: Optional[int] = None  # S, after the covert chain

    # -- plumbing --------------------------------------------------------

    def on_wakeup(self, ctx: Context) -> None:
        pass  # deviate: no data value of our own

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        self.incoming += 1
        tag, payload = value
        if self.incoming % 2 == 1:
            if tag != DATA:  # honest neighbours never do this; be safe
                ctx.terminate(self.target)
                return
            self._on_data(ctx, payload % self.n)
        else:
            self._on_validation(ctx, payload % self.params.m)
        if self.round == self.n and self.incoming == 2 * self.n:
            if not ctx.terminated:
                ctx.terminate(self.target)

    # -- data plane --------------------------------------------------------

    def _on_data(self, ctx: Context, payload: int) -> None:
        self.round += 1
        self.data_received.append(payload)
        r = self.round
        n, k, seg = self.n, self.k, self.seg_len
        if r == seg:
            # All of secret(I_{i-1}) received: our covert-channel share.
            self.partial_sum = sum(self.data_received) % n
        rush_until = n - seg - k
        if r <= rush_until:
            ctx.send_next((DATA, payload))
        elif r == rush_until + 1:
            assert self.full_sum is not None, "covert chain incomplete"
            m_value = canonical_mod(
                id_to_residue(self.target, n) - self.full_sum, n
            )
            ctx.send_next((DATA, m_value))
        elif r <= n - seg:
            ctx.send_next((DATA, 0))
        else:
            # Replay secret(I_i): incoming data rounds n-k-seg+1 .. n-k.
            t = r - (n - seg)
            ctx.send_next((DATA, self.data_received[n - k - seg + t - 1]))
        self._maybe_initiate_validation(ctx)

    # -- validation plane / covert channel -------------------------------

    def _maybe_initiate_validation(self, ctx: Context) -> None:
        """Initiations happen right after the round's data send."""
        r = self.round
        chain_round = self.positions[1]  # a_2's round: build S
        share_round = self.positions[2] if self.k >= 3 else None
        if r == self.pid and r not in (chain_round, share_round):
            # Our own validator round, handled honestly-looking.
            ctx.send_next((VALIDATION, ctx.rng.randrange(self.params.m)))
        elif r == chain_round and self.index == 2:
            ctx.send_next((VALIDATION, self.partial_sum))
        elif share_round is not None and r == share_round and self.index == 2:
            # a_2 (not the validator a_3!) starts the sharing circulation.
            ctx.send_next((VALIDATION, self.full_sum))

    def _on_validation(self, ctx: Context, payload: int) -> None:
        r = self.round
        chain_round = self.positions[1]
        share_round = self.positions[2] if self.k >= 3 else None
        if r == chain_round:
            if self.index == 2:
                self.full_sum = payload % self.n  # chain completed: S
            elif self.index == 1:
                self.full_sum = (payload + self.partial_sum) % self.n
                ctx.send_next((VALIDATION, self.full_sum))
            else:
                ctx.send_next(
                    (VALIDATION, (payload + self.partial_sum) % self.n)
                )
        elif share_round is not None and r == share_round:
            if self.index == 2:
                pass  # our sharing message returned; consume it
            else:
                self.full_sum = payload % self.n
                ctx.send_next((VALIDATION, payload))
        elif r == self.pid:
            pass  # our honest-looking validator round returning; consume
        else:
            ctx.send_next((VALIDATION, payload))  # honest round: forward


def partial_sum_attack_protocol(
    topology: Topology,
    k: int,
    target: int,
    params: Optional[PhaseAsyncParams] = None,
) -> Dict[Hashable, Strategy]:
    """E.4 attack vector against the sum-output PhaseAsync variant.

    Requires ``k ≥ 4``, equal segments (``(n - k) % k == 0``) with length
    ``L ≥ 4``, and ``(k - 3)·L > 3`` so the covert chain completes before
    the commitment round. Returns the full strategy vector; honest
    processors run the *sum-variant* protocol (``params`` defaults to
    :meth:`PhaseAsyncParams.sum_variant`).
    """
    n = len(topology)
    if params is None:
        params = PhaseAsyncParams.sum_variant(n)
    if params.n != n:
        raise ConfigurationError("params ring size mismatch")
    if k < 4:
        raise ConfigurationError("the E.4 attack needs k >= 4")
    if (n - k) % k != 0:
        raise ConfigurationError(
            f"equal segments need (n-k) divisible by k (n={n}, k={k})"
        )
    seg = (n - k) // k
    if seg < 4 or (k - 3) * seg <= 3:
        raise ConfigurationError(
            f"segments too short for the covert chain (L={seg}, k={k})"
        )
    placement = RingPlacement.from_distances(n, [seg] * k)
    positions = list(placement.positions)
    protocol = phase_async_protocol(topology, params)
    for i, pid in enumerate(positions, start=1):
        protocol[pid] = PartialSumAdversary(params, i, positions, target)
    return protocol
