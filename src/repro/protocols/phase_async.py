"""PhaseAsyncLead: the paper's Θ(√n)-resilient FLE protocol (Section 6, E.3).

Execution proceeds in ``n`` logical rounds. In round ``r``:

- **data phase**: like A-LEADuni, every processor forwards its one-message
  data buffer one hop (the origin re-injects the data value it received in
  the previous round);
- **validation phase**: processor ``r`` is the round's *validator*. It
  draws a fresh validation value ``v_r ∈ [m]`` (``m = 2n²``) and sends it;
  every other processor forwards it immediately (no buffering); when ``v_r``
  completes the circle the validator checks it returned unchanged and
  consumes it.

Each processor's incoming stream must strictly alternate data (odd
positions) / validation (even positions); any parity violation is punished
by aborting. After round ``n`` every processor knows all data values
``d_1..d_n`` (its own must have returned intact) and all validation values,
and outputs ``f(d_1..d_n, v_1..v_{n-l})`` for the random function ``f``
and suffix cut ``l`` (paper: ``l = ⌈10√n⌉``).

Implementation note (documented deviation): the appendix pseudo-code lets
the origin terminate once its round counter reaches ``n``, which would drop
round ``n``'s circulating validation value and deadlock validator ``n``.
We use the reconciled semantics — the origin forwards ``v_n`` and only then
terminates — which preserves every property the proofs use (message counts,
alternation, commitment points) and actually terminates.

The module also provides the **sum-output variant** (output
``Σd_i mod n`` instead of a random ``f``) that Appendix E.4 shows is broken
by ``k = 4`` adversaries, motivating the random function.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.protocols.outcome import residue_to_id
from repro.protocols.random_function import RandomFunction, default_ell
from repro.sim.strategy import Context, Strategy
from repro.sim.topology import Topology
from repro.util.errors import ConfigurationError
from repro.util.modmath import mod_sum

#: Message-type tags. A PhaseAsyncLead message is the tuple ``(tag, value)``.
DATA = "D"
VALIDATION = "V"

OutputFn = Callable[[Sequence[int], Sequence[int]], int]


def sum_output(data_values: Sequence[int], validation_values: Sequence[int]) -> int:
    """The E.4 broken output rule: elect ``Σ d_i mod n`` (ignores ``v``)."""
    n = len(data_values)
    return residue_to_id(mod_sum(data_values, n), n)


@dataclass
class PhaseAsyncParams:
    """Configuration shared by all processors of one PhaseAsyncLead run.

    Attributes
    ----------
    n:
        Ring size.
    ell:
        Validation suffix cut ``l``; ``f`` reads ``v_1..v_{n-ell}``.
    m:
        Validation value space size (paper: ``2n²``).
    output_fn:
        ``(data_values, validation_values) → elected id``. Defaults to a
        keyed :class:`RandomFunction`; use :meth:`sum_variant` for the
        broken E.4 protocol.
    """

    n: int
    ell: Optional[int] = None
    m: Optional[int] = None
    key: int = 0
    output_fn: Optional[OutputFn] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"PhaseAsyncLead needs n >= 2, got {self.n}")
        if self.ell is None:
            self.ell = default_ell(self.n)
        if not 0 <= self.ell <= self.n:
            raise ConfigurationError(f"ell={self.ell} out of range [0, {self.n}]")
        if self.m is None:
            self.m = 2 * self.n * self.n
        if self.m < 2:
            raise ConfigurationError(f"m={self.m} too small")
        if self.output_fn is None:
            self.output_fn = RandomFunction(self.n, ell=self.ell, key=self.key)

    @classmethod
    def sum_variant(
        cls, n: int, ell: Optional[int] = None, m: Optional[int] = None
    ) -> "PhaseAsyncParams":
        """The E.4 variant: phase validation kept, output is the plain sum."""
        return cls(n=n, ell=ell, m=m, output_fn=sum_output)

    @property
    def num_validation_inputs(self) -> int:
        """How many validation values feed the output function."""
        return self.n - self.ell


class _PhaseBase(Strategy):
    """State shared by origin and normal PhaseAsyncLead processors."""

    def __init__(self, pid: int, params: PhaseAsyncParams):
        self.pid = pid
        self.params = params
        self.n = params.n
        self.round = 0
        self.incoming = 0
        self.data_buffer: Optional[int] = None
        self.secret: Optional[int] = None
        self.validation_secret: Optional[int] = None
        self.data_values: Dict[int, int] = {}
        self.validation_values: Dict[int, int] = {}

    # -- shared helpers --------------------------------------------------

    def _unpack(self, ctx: Context, value: Any) -> Optional[Any]:
        """Enforce message framing + parity; returns payload or None."""
        self.incoming += 1
        if not (isinstance(value, tuple) and len(value) == 2):
            ctx.abort("phase-async: malformed message")
            return None
        tag, payload = value
        expect = DATA if self.incoming % 2 == 1 else VALIDATION
        if tag != expect:
            ctx.abort(
                f"phase-async: expected {expect} at incoming #{self.incoming}, "
                f"got {tag}"
            )
            return None
        if not isinstance(payload, int):
            ctx.abort("phase-async: non-integer payload")
            return None
        limit = self.n if tag == DATA else self.params.m
        return payload % limit

    def _finish(self, ctx: Context) -> None:
        """Evaluate the output function and terminate."""
        data = [self.data_values[i] for i in range(1, self.n + 1)]
        validations = [
            self.validation_values[r]
            for r in range(1, self.params.num_validation_inputs + 1)
        ]
        ctx.terminate(self.params.output_fn(data, validations))

    def _data_index(self, round_number: int) -> int:
        """Ring index whose data value arrives at this pid in ``round``."""
        idx = (self.pid - round_number) % self.n
        return self.n if idx == 0 else idx


class PhaseNormalStrategy(_PhaseBase):
    """Normal processor ``i ≠ 1`` (buffers data; validator in round ``i``)."""

    def on_wakeup(self, ctx: Context) -> None:
        self.secret = ctx.rng.randrange(self.n)
        self.data_buffer = self.secret
        self.data_values[self.pid] = self.secret

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        payload = self._unpack(ctx, value)
        if payload is None:
            return
        if self.incoming % 2 == 1:
            self._on_data(ctx, payload)
        else:
            self._on_validation(ctx, payload)

    def _on_data(self, ctx: Context, payload: int) -> None:
        ctx.send_next((DATA, self.data_buffer))
        self.round += 1
        self.data_buffer = payload
        self.data_values[self._data_index(self.round)] = payload
        if self.round == self.pid:
            self.validation_secret = ctx.rng.randrange(self.params.m)
            self.validation_values[self.round] = self.validation_secret
            ctx.send_next((VALIDATION, self.validation_secret))
        if self.round == self.n and payload != self.secret:
            ctx.abort("phase-async: own data value did not return")

    def _on_validation(self, ctx: Context, payload: int) -> None:
        if self.round == self.pid:
            # Our own validation value coming full circle: consume + check.
            if payload != self.validation_secret:
                ctx.abort("phase-async: validation value corrupted")
                return
        else:
            self.validation_values[self.round] = payload
            ctx.send_next((VALIDATION, payload))
        if self.round == self.n and not ctx.terminated:
            self._finish(ctx)


class PhaseOriginStrategy(_PhaseBase):
    """Origin (processor 1): wakes spontaneously, validator of round 1."""

    def on_wakeup(self, ctx: Context) -> None:
        self.secret = ctx.rng.randrange(self.n)
        self.data_values[self.pid] = self.secret
        self.round = 1
        ctx.send_next((DATA, self.secret))
        self.validation_secret = ctx.rng.randrange(self.params.m)
        self.validation_values[1] = self.validation_secret
        ctx.send_next((VALIDATION, self.validation_secret))

    def on_receive(self, ctx: Context, value: Any, sender: Hashable) -> None:
        payload = self._unpack(ctx, value)
        if payload is None:
            return
        if self.incoming % 2 == 1:
            self._on_data(ctx, payload)
        else:
            self._on_validation(ctx, payload)

    def _on_data(self, ctx: Context, payload: int) -> None:
        # Round r's data at the origin is d_{n-r+1}; round n returns d_1.
        self.data_buffer = payload
        self.data_values[self._data_index(self.round)] = payload
        if self.round == self.n and payload != self.secret:
            ctx.abort("phase-async origin: own data value did not return")

    def _on_validation(self, ctx: Context, payload: int) -> None:
        if self.round == 1:
            if payload != self.validation_secret:
                ctx.abort("phase-async origin: validation value corrupted")
                return
        else:
            self.validation_values[self.round] = payload
            ctx.send_next((VALIDATION, payload))
        if self.round < self.n:
            ctx.send_next((DATA, self.data_buffer))
            self.round += 1
        else:
            self._finish(ctx)


def phase_async_protocol(
    topology: Topology, params: Optional[PhaseAsyncParams] = None
) -> Dict[Hashable, Strategy]:
    """Honest PhaseAsyncLead strategy vector for a unidirectional ring.

    Node ids must be ``1..n`` (round ``r``'s validator is processor ``r``,
    Appendix G's indexing phase is assumed already done).
    """
    n = len(topology)
    if set(topology.nodes) != set(range(1, n + 1)):
        raise ConfigurationError("PhaseAsyncLead requires node ids 1..n")
    if params is None:
        params = PhaseAsyncParams(n=n)
    if params.n != n:
        raise ConfigurationError(
            f"params.n={params.n} does not match topology size {n}"
        )
    protocol: Dict[Hashable, Strategy] = {}
    for pid in topology.nodes:
        if pid == 1:
            protocol[pid] = PhaseOriginStrategy(pid, params)
        else:
            protocol[pid] = PhaseNormalStrategy(pid, params)
    return protocol
