"""The execution engine: runs a protocol on a topology to completion.

Semantics follow Section 2 of the paper:

- Every processor is woken once at the start (honest ring strategies other
  than the origin do nothing observable on wakeup, so this is equivalent to
  the paper's "only the origin wakes spontaneously").
- Messages travel on unbounded per-edge FIFO links; an oblivious
  :class:`~repro.sim.scheduler.Scheduler` picks which non-empty link
  delivers next.
- A processor may send messages and/or terminate inside each callback.
  After terminating it receives nothing further.
- The **outcome** of an execution is ``o`` if *all* processors terminated
  with the same output ``o`` (and ``o`` is not ⊥); otherwise it is
  :data:`FAIL` — covering aborts, disagreement, and non-termination (an
  execution that quiesces with live processors, or exceeds ``max_steps``).
"""

from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.sim.events import (
    AbortEvent,
    ReceiveEvent,
    SendEvent,
    TerminateEvent,
    WakeupEvent,
)
from repro.sim.scheduler import FifoScheduler, Scheduler
from repro.sim.strategy import _ABORT_SENTINEL, Context, Strategy
from repro.sim.topology import Topology
from repro.sim.trace import Trace
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RngRegistry

#: Global-failure outcome (paper: some processor aborted, outputs disagree,
#: or the execution never terminates).
FAIL = "FAIL"

#: The abort output ⊥ a single processor can terminate with.
ABORT = _ABORT_SENTINEL

Link = Tuple[Hashable, Hashable]


class _ReadyLinks(SequenceABC):
    """Read-only sequence view over the executor's ready-link set.

    The executor keeps ready links in an insertion-ordered dict so that
    membership tests and removals are O(1); schedulers still see the same
    first-ready-ordered :class:`~collections.abc.Sequence` they always did.
    Index 0 — the only index the default :class:`FifoScheduler` touches —
    is served in O(1) without materialising a list.
    """

    __slots__ = ("_links",)

    def __init__(self, links: "Dict[Link, None]"):
        self._links = links

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self):
        return iter(self._links)

    def __contains__(self, link: object) -> bool:
        return link in self._links

    def __getitem__(self, index):
        if index == 0:
            try:
                return next(iter(self._links))
            except StopIteration:
                raise IndexError("no ready links") from None
        return list(self._links)[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ReadyLinks({list(self._links)!r})"


@dataclass
class ExecutionResult:
    """Everything observable about one finished execution."""

    outcome: Any
    outputs: Dict[Hashable, Any]
    trace: Trace
    steps: int
    quiesced: bool
    fail_reason: Optional[str] = None
    undelivered: Dict[Link, List[Any]] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """True if the global outcome is ``FAIL``."""
        return self.outcome == FAIL


class Executor:
    """Drives one execution of ``protocol`` on ``topology``.

    Parameters
    ----------
    topology:
        The communication graph.
    protocol:
        Map pid → :class:`Strategy` instance; must cover every node.
    scheduler:
        Oblivious delivery scheduler; defaults to :class:`FifoScheduler`.
    rng:
        Registry providing each processor's private random stream
        (stream label ``proc:<pid>``).
    max_steps:
        Delivery budget after which the execution is declared
        non-terminating. Protocol runs on a ring need about ``2 n²``
        deliveries, so the default scales generously with topology size.
    record_trace:
        When ``True`` (the default) every wakeup/send/receive/terminate is
        recorded as an event object on ``result.trace``. Monte-Carlo loops
        that only read ``result.outcome`` should pass ``False``: the loop
        then allocates no events and the result carries an empty trace.
        Deliveries, rng consumption and outcomes are the same either way.
    """

    def __init__(
        self,
        topology: Topology,
        protocol: Mapping[Hashable, Strategy],
        scheduler: Optional[Scheduler] = None,
        rng: Optional[RngRegistry] = None,
        max_steps: Optional[int] = None,
        record_trace: bool = True,
    ):
        missing = [v for v in topology.nodes if v not in protocol]
        if missing:
            raise ConfigurationError(f"no strategy for nodes: {missing}")
        nodes = set(topology.nodes)
        extra = [v for v in protocol if v not in nodes]
        if extra:
            raise ConfigurationError(f"strategies for unknown nodes: {extra}")
        strategies = list(protocol.values())
        if len(set(map(id, strategies))) != len(strategies):
            raise ConfigurationError(
                "strategy instances must not be shared between processors"
            )
        self.topology = topology
        self.protocol = dict(protocol)
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.rng = rng if rng is not None else RngRegistry(0)
        n = len(topology)
        self.max_steps = max_steps if max_steps is not None else 40 * n * n + 1000

        self._queues: Dict[Link, Deque[Any]] = {e: deque() for e in topology.edges}
        # Non-empty links in first-ready order: an insertion-ordered dict is
        # an ordered set with O(1) append, membership and removal.
        self._ready: Dict[Link, None] = {}
        self._terminated: Dict[Hashable, bool] = {v: False for v in topology.nodes}
        self._outputs: Dict[Hashable, Any] = {}
        self._record_trace = record_trace
        self._trace = Trace()

    def run(self) -> ExecutionResult:
        """Execute to quiescence (or the step budget) and score the outcome.

        Each processor gets one :class:`Context` for the whole run, with
        its successors and ``proc:<pid>`` stream resolved once; its
        ``sends`` are applied and cleared after every callback. A
        non-default scheduler sees the :class:`_ReadyLinks` view and its
        choice is validated; the default :class:`FifoScheduler`'s
        head-of-dict choice is inlined.

        With ``record_trace`` on, the loop also appends each callback's
        events to the trace. Times are derived, not kept in a clock:
        wakeup ``i`` (1-based, in node order) is stamped ``i``, and
        delivery ``s`` and the actions it triggers ``n + s``. The
        per-processor ``seq`` counters exist only while recording.
        """
        topology = self.topology
        protocol = self.protocol
        queues = self._queues
        ready = self._ready
        terminated = self._terminated
        outputs = self._outputs
        rng = self.rng
        nodes = topology.nodes
        n = len(topology)
        contexts = {
            pid: Context(pid, topology.successors(pid), n, rng.stream(f"proc:{pid}"))
            for pid in nodes
        }
        recording = self._record_trace
        if recording:
            trace = self._trace
            sent = dict.fromkeys(nodes, 0)
            received = dict.fromkeys(nodes, 0)

        for time, pid in enumerate(nodes, 1):
            ctx = contexts[pid]
            strategy = protocol[pid]
            if getattr(strategy, "_woken", False):
                raise ConfigurationError(
                    f"the strategy of processor {pid!r} already ran in an "
                    "execution; build a fresh protocol for each run"
                )
            strategy._woken = True
            if recording:
                trace.append(WakeupEvent(time, pid))
            strategy.on_wakeup(ctx)
            if recording:
                self._record(time, pid, ctx, sent)
            for to, value in ctx.sends:
                link = (pid, to)
                queue = queues.get(link)
                if queue is None:
                    raise SimulationError(f"send on non-existent link {link}")
                if not queue:
                    ready[link] = None
                queue.append(value)
            ctx.sends.clear()
            if ctx.terminated:
                terminated[pid] = True
                outputs[pid] = ctx.output

        steps = 0
        max_steps = self.max_steps
        scheduler = self.scheduler
        default_fifo = type(scheduler) is FifoScheduler
        ready_view = None if default_fifo else _ReadyLinks(ready)
        while ready and steps < max_steps:
            if default_fifo:
                link = next(iter(ready))
            else:
                link = scheduler.choose(ready_view)
                if link not in ready:
                    raise SimulationError(f"scheduler chose non-ready link {link}")
            queue = queues[link]
            value = queue.popleft()
            if not queue:
                del ready[link]
            steps += 1
            receiver = link[1]
            if recording:
                seq = received[receiver] = received[receiver] + 1
                trace.append(ReceiveEvent(n + steps, link[0], receiver, value, seq))
            if terminated[receiver]:
                continue  # terminated processors ignore late messages
            ctx = contexts[receiver]
            protocol[receiver].on_receive(ctx, value, link[0])
            if recording:
                self._record(n + steps, receiver, ctx, sent)
            # Apply the callback's actions, inlined: this runs per delivery.
            sends = ctx.sends
            if sends:
                for to, out_value in sends:
                    out_link = (receiver, to)
                    out_queue = queues.get(out_link)
                    if out_queue is None:
                        raise SimulationError(
                            f"send on non-existent link {out_link}"
                        )
                    if not out_queue:
                        ready[out_link] = None
                    out_queue.append(out_value)
                sends.clear()
            if ctx.terminated:
                terminated[receiver] = True
                outputs[receiver] = ctx.output

        return self._score(steps, quiesced=not ready)

    def _record(
        self, time: int, pid: Hashable, ctx: Context, sent: Dict[Hashable, int]
    ) -> None:
        """Append the events of one callback's actions, before they apply."""
        trace = self._trace
        seq = sent[pid]
        for to, value in ctx.sends:
            seq += 1
            trace.append(SendEvent(time, pid, to, value, seq))
        sent[pid] = seq
        if ctx.terminated:
            trace.append(TerminateEvent(time, pid, ctx.output))
            if ctx.output == ABORT:
                trace.append(AbortEvent(time, pid, ctx.abort_reason or "abort"))

    def _score(self, steps: int, quiesced: bool) -> ExecutionResult:
        undelivered = {
            link: list(queue) for link, queue in self._queues.items() if queue
        }
        outputs = dict(self._outputs)
        fail_reason = None
        if not quiesced:
            outcome: Any = FAIL
            fail_reason = f"step budget exhausted after {steps} deliveries"
        elif not all(self._terminated.values()):
            outcome = FAIL
            live = [v for v, t in self._terminated.items() if not t]
            fail_reason = f"processors never terminated: {live}"
        elif any(o == ABORT for o in outputs.values()):
            outcome = FAIL
            aborted = [v for v, o in outputs.items() if o == ABORT]
            fail_reason = f"processors aborted: {aborted}"
        else:
            distinct = set(outputs.values())
            if len(distinct) == 1:
                outcome = next(iter(distinct))
            else:
                outcome = FAIL
                fail_reason = f"outputs disagree: {sorted(distinct, key=repr)}"
        return ExecutionResult(
            outcome=outcome,
            outputs=outputs,
            trace=self._trace,
            steps=steps,
            quiesced=quiesced,
            fail_reason=fail_reason,
            undelivered=undelivered,
        )


def run_protocol(
    topology: Topology,
    protocol: Mapping[Hashable, Strategy],
    scheduler: Optional[Scheduler] = None,
    rng: Optional[RngRegistry] = None,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    record_trace: bool = True,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Executor`.

    Exactly one of ``rng`` / ``seed`` may be given; ``seed`` builds a fresh
    :class:`RngRegistry`. Pass ``record_trace=False`` for Monte-Carlo hot
    loops that only inspect the outcome (the trace comes back empty).
    """
    if rng is not None and seed is not None:
        raise ConfigurationError("pass either rng or seed, not both")
    if rng is None:
        rng = RngRegistry(seed if seed is not None else 0)
    executor = Executor(
        topology,
        protocol,
        scheduler=scheduler,
        rng=rng,
        max_steps=max_steps,
        record_trace=record_trace,
    )
    return executor.run()
