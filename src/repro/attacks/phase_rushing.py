"""Tightness of Theorem 6.1: ``k = √n + 3`` adversaries break PhaseAsyncLead.

The paper's remark after Theorem 6.1: rushing data while handling
validation honestly lets each adversary learn, within ``n - k`` rounds, all
honest data values and all validation values that feed ``f``. Each
adversary then still controls ``k - l_j ≥ 3`` *free* data slots in the
input its segment will reconstruct; for a random ``f`` it can brute-force
values for those slots so that ``f(·) = w`` almost surely.

Per-adversary schedule (segment length ``L = l_j ≤ k - 3``):

- data rounds ``1 .. n-k``: rush (forward the incoming value immediately);
- data rounds ``n-k+1 .. n-L``: the free slots — values solved by brute
  force at round ``n-k+1`` so the segment's reconstruction maps through
  ``f`` to the target;
- data rounds ``n-L+1 .. n``: replay ``secret(I_j)`` (incoming data rounds
  ``n-k-L+1 .. n-k``) so every honest data validation passes;
- validation rounds: perfectly honest (forward; initiate a random value in
  our own validator round; consume it on return).

Every honest segment reconstructs a *different* input vector ``x_j``
(rushing rotates attribution), so each adversary solves ``f(x_j) = w``
independently for its own segment; all segments then agree on ``w``.

The brute force needs ``f``'s validation inputs to be known by commitment
time, i.e. ``n - ell ≤ n - k`` (``ell ≥ k``) — true for the paper's
``ell = ⌈10√n⌉`` whenever ``k ≈ √n``.
"""

from itertools import product
from typing import Any, Dict, Hashable, List, Optional

from repro.attacks.placement import RingPlacement
from repro.protocols.phase_async import (
    DATA,
    VALIDATION,
    PhaseAsyncParams,
    phase_async_protocol,
)
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError


class PhaseRushingAdversary(Strategy):
    """Coalition member of the rushing attack on PhaseAsyncLead."""

    def __init__(
        self,
        params: PhaseAsyncParams,
        pid: int,
        segment_length: int,
        k: int,
        target: int,
        max_bruteforce: int = 250_000,
    ):
        self.params = params
        self.n = params.n
        self.pid = pid
        self.seg_len = segment_length
        self.k = k
        self.target = target
        self.max_bruteforce = max_bruteforce
        self.round = 0
        self.incoming = 0
        self.data_received: List[int] = []
        self.validations: Dict[int, int] = {}
        self.choices: Optional[List[int]] = None
        self.solved = False

    def on_wakeup(self, ctx: Context) -> None:
        pass  # deviate: no data value of our own

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        self.incoming += 1
        tag, payload = value
        if self.incoming % 2 == 1:
            self._on_data(ctx, payload % self.n)
        else:
            self._on_validation(ctx, payload % self.params.m)
        if self.incoming == 2 * self.n and not ctx.terminated:
            ctx.terminate(self.target if self.solved else None)

    # -- data plane ------------------------------------------------------

    def _on_data(self, ctx: Context, payload: int) -> None:
        self.round += 1
        self.data_received.append(payload)
        r, n, k, L = self.round, self.n, self.k, self.seg_len
        if r <= n - k:
            ctx.send_next((DATA, payload))  # rush
        else:
            if self.choices is None:
                self._solve()
            if r <= n - L:
                ctx.send_next((DATA, self.choices[r - (n - k) - 1]))
            else:
                t = r - (n - L)
                ctx.send_next((DATA, self.data_received[n - k - L + t - 1]))
        if r == self.pid:
            # Our validator round: look honest.
            ctx.send_next((VALIDATION, ctx.rng.randrange(self.params.m)))

    # -- validation plane --------------------------------------------------

    def _on_validation(self, ctx: Context, payload: int) -> None:
        self.validations[self.round] = payload
        if self.round == self.pid:
            pass  # our own value returning; consume without complaint
        else:
            ctx.send_next((VALIDATION, payload))

    # -- the brute force ---------------------------------------------------

    def _reconstruction(self, choices: List[int]) -> List[int]:
        """Data vector our honest successor will feed to ``f``.

        Successor ``h1 = pid+1`` assigns its round-``r`` incoming data value
        (= our round-``r`` send) to index ``(h1 - r) mod n``.
        """
        n, k, L = self.n, self.k, self.seg_len
        sends: List[int] = list(self.data_received[: n - k])
        sends.extend(choices)
        sends.extend(self.data_received[n - k - L : n - k])
        h1 = self.pid % n + 1
        data = [0] * (n + 1)
        for r in range(1, n + 1):
            idx = (h1 - r) % n
            data[n if idx == 0 else idx] = sends[r - 1]
        return data[1:]

    def _solve(self) -> None:
        """Find free-slot values steering ``f`` to the target."""
        n, k, L = self.n, self.k, self.seg_len
        free = k - L
        v_inputs = [
            self.validations[r]
            for r in range(1, self.params.num_validation_inputs + 1)
        ]
        f = self.params.output_fn
        tried = 0
        for combo in product(range(n), repeat=min(free, 3)):
            choices = list(combo) + [0] * (free - min(free, 3))
            if f(self._reconstruction(choices), v_inputs) == self.target:
                self.choices = choices
                self.solved = True
                return
            tried += 1
            if tried >= self.max_bruteforce:
                break
        # No solution found (vanishingly unlikely for a random f): commit
        # to zeros; the run becomes a failed sample rather than a crash.
        self.choices = [0] * free
        self.solved = False


def phase_rushing_attack_protocol(
    topology: Topology,
    k: int,
    target: int,
    params: Optional[PhaseAsyncParams] = None,
) -> Dict[Hashable, Strategy]:
    """Rushing attack vector against (real, random-``f``) PhaseAsyncLead.

    Uses an equal-spacing placement; requires every segment ``l_j ≤ k - 3``
    (the paper's ``k = √n + 3`` regime) and ``ell ≥ k`` so the validation
    inputs of ``f`` are known before commitment.
    """
    n = len(topology)
    if params is None:
        params = PhaseAsyncParams(n=n)
    if params.n != n:
        raise ConfigurationError("params ring size mismatch")
    placement = RingPlacement.equal_spacing(n, k)
    distances = placement.distances()
    if max(distances) > k - 3:
        raise ConfigurationError(
            f"attack needs every segment <= k-3, got max {max(distances)} "
            f"(k={k}, n={n}; use k >= sqrt(n)+3)"
        )
    if params.ell < k:
        raise ConfigurationError(
            f"attack needs ell >= k so f's validation inputs are known "
            f"before commitment (ell={params.ell}, k={k})"
        )
    protocol = phase_async_protocol(topology, params)
    for pid, l in zip(placement.positions, distances):
        protocol[pid] = PhaseRushingAdversary(params, pid, l, k, target)
    return protocol
