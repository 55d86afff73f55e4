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
        that only read ``result.outcome`` should pass ``False``: the hot
        path then skips all event allocation and the result carries an
        empty trace.
    fast:
        Selects the allocation-free delivery loop (:meth:`_run_fast`):
        one reusable context per processor (successors and rng stream
        resolved once instead of per callback), no per-processor
        sent/received counters, no logical clock, and the default FIFO
        scheduler inlined to an O(1) dict-head read. Deliveries, rng
        consumption, and outcomes are identical to the classic loop —
        only trace-feeding bookkeeping is skipped, which is why it
        requires ``record_trace=False``. Default ``None`` means "fast
        whenever untraced", so Monte-Carlo runs get it automatically;
        pass ``False`` to force the classic loop (benchmark baselines,
        or strategies that illegitimately retain contexts between
        callbacks).
    """

    def __init__(
        self,
        topology: Topology,
        protocol: Mapping[Hashable, Strategy],
        scheduler: Optional[Scheduler] = None,
        rng: Optional[RngRegistry] = None,
        max_steps: Optional[int] = None,
        record_trace: bool = True,
        fast: Optional[bool] = None,
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
        # Non-empty links in first-ready order. An insertion-ordered dict
        # doubles as an ordered set: append, membership, and removal are all
        # O(1), where the previous list needed O(ready) scans for the latter
        # two on every delivery.
        self._ready: Dict[Link, None] = {}
        self._terminated: Dict[Hashable, bool] = {v: False for v in topology.nodes}
        self._outputs: Dict[Hashable, Any] = {}
        self._sent: Dict[Hashable, int] = {v: 0 for v in topology.nodes}
        self._received: Dict[Hashable, int] = {v: 0 for v in topology.nodes}
        self._record_trace = record_trace
        if fast is None:
            fast = not record_trace
        elif fast and record_trace:
            raise ConfigurationError(
                "fast=True skips the bookkeeping event recording needs; "
                "pass record_trace=False (or fast=False) instead"
            )
        self._fast = fast
        self._trace = Trace()
        self._time = 0

    # -- internal helpers ----------------------------------------------

    def _enqueue(self, sender: Hashable, receiver: Hashable, value: Any) -> None:
        link = (sender, receiver)
        queue = self._queues.get(link)
        if queue is None:
            raise SimulationError(f"send on non-existent link {link}")
        if not queue:
            self._ready[link] = None
        queue.append(value)
        self._sent[sender] += 1
        if self._record_trace:
            self._trace.append(
                SendEvent(self._time, sender, receiver, value, self._sent[sender])
            )

    def _drain_context(self, pid: Hashable, ctx: Context) -> None:
        for to, value in ctx.sends:
            self._enqueue(pid, to, value)
        if ctx.terminated:
            self._terminated[pid] = True
            self._outputs[pid] = ctx.output
            if self._record_trace:
                self._trace.append(TerminateEvent(self._time, pid, ctx.output))
                if ctx.output == ABORT:
                    self._trace.append(
                        AbortEvent(self._time, pid, ctx.abort_reason or "abort")
                    )

    def _make_context(self, pid: Hashable) -> Context:
        return Context(
            pid=pid,
            out_neighbors=self.topology.successors(pid),
            n=len(self.topology),
            rng=self.rng.stream(f"proc:{pid}"),
        )

    # -- main loop -------------------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute to quiescence (or the step budget) and score the outcome."""
        if self._fast:
            return self._run_fast()
        for pid in self.topology.nodes:
            self._time += 1
            if self._record_trace:
                self._trace.append(WakeupEvent(self._time, pid))
            ctx = self._make_context(pid)
            self.protocol[pid].on_wakeup(ctx)
            self._drain_context(pid, ctx)

        steps = 0
        ready = self._ready
        ready_view = _ReadyLinks(ready)
        while ready and steps < self.max_steps:
            link = self.scheduler.choose(ready_view)
            if link not in ready:
                raise SimulationError(f"scheduler chose non-ready link {link}")
            queue = self._queues[link]
            value = queue.popleft()
            if not queue:
                del ready[link]
            sender, receiver = link
            steps += 1
            self._time += 1
            self._received[receiver] += 1
            if self._record_trace:
                self._trace.append(
                    ReceiveEvent(
                        self._time, sender, receiver, value, self._received[receiver]
                    )
                )
            if self._terminated[receiver]:
                continue  # terminated processors ignore late messages
            ctx = self._make_context(receiver)
            self.protocol[receiver].on_receive(ctx, value, sender)
            self._drain_context(receiver, ctx)

        quiesced = not ready
        return self._score(steps, quiesced)

    def _run_fast(self) -> ExecutionResult:
        """The untraced delivery loop, stripped to what outcomes need.

        Per-delivery allocations of the classic loop that this one
        eliminates: the fresh :class:`Context` (reused per processor,
        with successors and the ``proc:<pid>`` stream — an f-string plus
        two dict hops — resolved once up front), the event objects (no
        trace), and the ``_sent`` / ``_received`` counter updates and
        logical clock that exist only to stamp events. The scheduler
        contract is kept — a non-default scheduler sees the same
        :class:`_ReadyLinks` view and validation — but the default
        :class:`FifoScheduler`'s head-of-dict choice is inlined.
        Delivery order and rng consumption are identical to the classic
        loop, so outcomes (and therefore every experiment row) are too.
        """
        topology = self.topology
        protocol = self.protocol
        queues = self._queues
        ready = self._ready
        terminated = self._terminated
        outputs = self._outputs
        rng = self.rng

        contexts: Dict[Hashable, Context] = {}
        n = len(topology)
        for pid in topology.nodes:
            contexts[pid] = Context(
                pid=pid,
                out_neighbors=topology.successors(pid),
                n=n,
                rng=rng.stream(f"proc:{pid}"),
            )

        for pid in topology.nodes:
            ctx = contexts[pid]
            protocol[pid].on_wakeup(ctx)
            self._drain_context_fast(pid, ctx)

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
            if terminated[receiver]:
                continue  # terminated processors ignore late messages
            ctx = contexts[receiver]
            protocol[receiver].on_receive(ctx, value, link[0])
            # _drain_context_fast, inlined: this runs once per delivery.
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

        quiesced = not ready
        return self._score(steps, quiesced)

    def _drain_context_fast(self, pid: Hashable, ctx: Context) -> None:
        """Apply a reused context's actions without trace bookkeeping."""
        sends = ctx.sends
        if sends:
            queues = self._queues
            ready = self._ready
            for to, value in sends:
                link = (pid, to)
                queue = queues.get(link)
                if queue is None:
                    raise SimulationError(f"send on non-existent link {link}")
                if not queue:
                    ready[link] = None
                queue.append(value)
            sends.clear()
        if ctx.terminated:
            self._terminated[pid] = True
            self._outputs[pid] = ctx.output

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
    fast: Optional[bool] = None,
) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Executor`.

    Exactly one of ``rng`` / ``seed`` may be given; ``seed`` builds a fresh
    :class:`RngRegistry`. Pass ``record_trace=False`` for Monte-Carlo hot
    loops that only inspect the outcome (the trace comes back empty, and
    the allocation-free fast loop is selected automatically; ``fast``
    overrides — see :class:`Executor`).
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
        fast=fast,
    )
    return executor.run()
