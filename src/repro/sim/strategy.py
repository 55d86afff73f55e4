"""Strategy framework: how processors behave.

A *strategy* (paper, Section 2) is a deterministic function of the
processor's id, its private random string, and its history. Here it is an
object with two callbacks:

- :meth:`Strategy.on_wakeup` — called once at the start of the execution.
  Only strategies that act spontaneously (e.g. the ring origin) should send
  here; others typically just initialize local state.
- :meth:`Strategy.on_receive` — called for each delivered message.

Callbacks act through a :class:`Context`, which exposes ``send`` and
``terminate`` plus the processor's private RNG stream. Sends are queued in
call order; ``terminate`` may be called at most once and ends the
processor's participation (later incoming messages are silently dropped, as
in the model where a terminated processor no longer computes).
"""

import random
from abc import ABC, abstractmethod
from typing import Any, Hashable, List, Optional, Tuple

from repro.util.errors import ProtocolViolation

#: Sentinel for the abort output ⊥. Kept here to avoid an import cycle;
#: re-exported by :mod:`repro.sim.execution` as ``ABORT``.
_ABORT_SENTINEL = "⊥"


class Context:
    """Action collector handed to strategy callbacks.

    The executor keeps one context per processor for the whole run and
    applies and clears its ``sends`` after every callback. Strategies act
    on it only within a callback — the documented contract — and must
    not keep it between callbacks. Termination state is never cleared: a
    terminated processor receives no further callbacks. The context also
    carries read-only information the strategy is entitled to: its id,
    its out-neighbours, the ring size, and its private RNG.
    """

    __slots__ = (
        "pid",
        "out_neighbors",
        "n",
        "rng",
        "sends",
        "terminated",
        "output",
        "abort_reason",
    )

    def __init__(
        self,
        pid: Hashable,
        out_neighbors: List[Hashable],
        n: int,
        rng: random.Random,
    ):
        self.pid = pid
        self.out_neighbors = out_neighbors
        self.n = n
        self.rng = rng
        self.sends: List[Tuple[Hashable, Any]] = []
        self.terminated = False
        self.output: Any = None
        self.abort_reason: Optional[str] = None

    def send(self, to: Hashable, value: Any) -> None:
        """Queue ``value`` on the link to ``to`` (must be an out-neighbour)."""
        if self.terminated:
            raise ProtocolViolation(f"{self.pid} tried to send after terminating")
        if to not in self.out_neighbors:
            raise ProtocolViolation(
                f"{self.pid} tried to send to non-neighbour {to}"
            )
        self.sends.append((to, value))

    def send_next(self, value: Any) -> None:
        """Send to the unique out-neighbour (ring convenience).

        Flattened rather than delegating to :meth:`send`: ring protocols
        call this once per delivery, and the membership check is vacuous
        for the single out-neighbour.
        """
        out = self.out_neighbors
        if len(out) != 1:
            raise ProtocolViolation(
                f"{self.pid} called send_next with {len(out)} "
                "out-neighbours; use send(to, value)"
            )
        if self.terminated:
            raise ProtocolViolation(f"{self.pid} tried to send after terminating")
        self.sends.append((out[0], value))

    def terminate(self, output: Any) -> None:
        """Terminate with ``output``. May be called at most once."""
        if self.terminated:
            raise ProtocolViolation(f"{self.pid} terminated twice")
        self.terminated = True
        self.output = output

    def abort(self, reason: str = "") -> None:
        """Terminate with ⊥ (the paper's abort / punishment action)."""
        self.terminate(_ABORT_SENTINEL)
        self.abort_reason = reason or "abort"


class Strategy(ABC):
    """Behaviour of one processor. Instances must not be shared.

    A strategy instance holds the processor's local state between
    callbacks, so each processor in a protocol needs its own instance,
    and an instance runs in one execution only: the executor sets the
    ``_woken`` slot when it wakes the processor and refuses an instance
    that already has it. (The one slot here lets hot subclasses declare
    their own and become ``__dict__``-free; subclasses that don't bother
    keep a ``__dict__`` as usual.)
    """

    __slots__ = ("_woken",)

    @abstractmethod
    def on_wakeup(self, ctx: Context) -> None:
        """Called once before any message is delivered."""

    @abstractmethod
    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        """Called for each message delivered to this processor."""


class SilentStrategy(Strategy):
    """A processor that does nothing, ever.

    Useful in tests and as the crash/fail-stop baseline: on a ring a silent
    processor stalls the whole execution, which the executor reports as a
    ``FAIL`` outcome by non-termination.
    """

    __slots__ = ()

    def on_wakeup(self, ctx: Context) -> None:
        pass

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        pass
