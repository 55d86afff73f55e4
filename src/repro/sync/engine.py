"""Lockstep synchronous executor.

Execution proceeds in global rounds. In round ``r`` every live processor
sees the full batch of messages addressed to it in round ``r-1`` and
decides its round-``r`` sends *before* any of them is delivered — the
simultaneity that makes rushing structurally impossible and gives the
synchronous baselines their (n-1) resilience.

The outcome convention matches the asynchronous executor: a valid id iff
all processors terminate with the same non-⊥ output, ``FAIL`` otherwise.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.sim.execution import ABORT, FAIL
from repro.sim.strategy import Context
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.rng import RngRegistry


class SyncContext(Context):
    """The simulator's per-callback :class:`Context`, one per round.

    Sends, termination and abort keep the asynchronous model's checks;
    the lockstep model only adds :meth:`broadcast`.
    """

    __slots__ = ()

    def broadcast(self, value: Any) -> None:
        """Send ``value`` to every out-neighbour."""
        for to in self.out_neighbors:
            self.send(to, value)


class SyncStrategy(ABC):
    """Behaviour of one processor under the synchronous model."""

    @abstractmethod
    def on_round(
        self,
        ctx: SyncContext,
        round_number: int,
        inbox: List[Tuple[Hashable, Any]],
    ) -> None:
        """Called once per round with last round's incoming messages."""


@dataclass
class SyncResult:
    """Outcome of a synchronous execution."""

    outcome: Any
    outputs: Dict[Hashable, Any]
    rounds: int
    fail_reason: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.outcome == FAIL


class SyncExecutor:
    """Runs a synchronous protocol to unanimous termination."""

    def __init__(
        self,
        topology: Topology,
        protocol: Mapping[Hashable, SyncStrategy],
        rng: Optional[RngRegistry] = None,
        max_rounds: int = 1000,
    ):
        missing = [v for v in topology.nodes if v not in protocol]
        if missing:
            raise ConfigurationError(f"no strategy for nodes: {missing}")
        self.topology = topology
        self.protocol = dict(protocol)
        self.rng = rng if rng is not None else RngRegistry(0)
        self.max_rounds = max_rounds

    def run(self) -> SyncResult:
        inboxes: Dict[Hashable, List[Tuple[Hashable, Any]]] = {
            v: [] for v in self.topology.nodes
        }
        outputs: Dict[Hashable, Any] = {}
        n = len(self.topology)
        for round_number in range(1, self.max_rounds + 1):
            next_inboxes: Dict[Hashable, List[Tuple[Hashable, Any]]] = {
                v: [] for v in self.topology.nodes
            }
            progressed = False
            for pid in self.topology.nodes:
                if pid in outputs:
                    continue
                ctx = SyncContext(
                    pid,
                    self.topology.successors(pid),
                    n,
                    self.rng.stream(f"proc:{pid}"),
                )
                self.protocol[pid].on_round(ctx, round_number, inboxes[pid])
                for to, value in ctx.sends:
                    next_inboxes[to].append((pid, value))
                    progressed = True
                if ctx.terminated:
                    outputs[pid] = ctx.output
                    progressed = True
            inboxes = next_inboxes
            if len(outputs) == n:
                return self._score(outputs, round_number)
            if not progressed:
                live = [v for v in self.topology.nodes if v not in outputs]
                return SyncResult(
                    FAIL, outputs, round_number,
                    f"quiesced with live processors: {live}",
                )
        return SyncResult(FAIL, outputs, self.max_rounds, "round budget exhausted")

    def _score(self, outputs: Dict[Hashable, Any], rounds: int) -> SyncResult:
        if any(o == ABORT for o in outputs.values()):
            aborted = [v for v, o in outputs.items() if o == ABORT]
            return SyncResult(FAIL, outputs, rounds, f"aborted: {aborted}")
        distinct = set(outputs.values())
        if len(distinct) == 1:
            return SyncResult(next(iter(distinct)), outputs, rounds)
        return SyncResult(
            FAIL, outputs, rounds, f"outputs disagree: {sorted(distinct, key=repr)}"
        )


def run_sync_protocol(
    topology: Topology,
    protocol: Mapping[Hashable, SyncStrategy],
    rng: Optional[RngRegistry] = None,
    seed: Optional[int] = None,
    max_rounds: int = 1000,
) -> SyncResult:
    """One-shot convenience wrapper around :class:`SyncExecutor`."""
    if rng is not None and seed is not None:
        raise ConfigurationError("pass either rng or seed, not both")
    if rng is None:
        rng = RngRegistry(seed if seed is not None else 0)
    return SyncExecutor(topology, protocol, rng=rng, max_rounds=max_rounds).run()
