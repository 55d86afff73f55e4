"""Unit tests for the execution engine: semantics of Section 2's model."""

import pytest

from repro.sim.events import ReceiveEvent
from repro.sim.execution import ABORT, FAIL, Executor, run_protocol
from repro.sim.scheduler import (
    LinkPriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.strategy import Context, SilentStrategy, Strategy
from repro.sim.topology import Topology, complete_graph, unidirectional_ring
from repro.util.errors import ConfigurationError, ProtocolViolation
from repro.util.rng import RngRegistry


class Echo(Strategy):
    """Sends one token on wakeup (node 1 only), forwards once, terminates."""

    def __init__(self, spontaneous: bool, hops: int):
        self.spontaneous = spontaneous
        self.hops = hops

    def on_wakeup(self, ctx: Context) -> None:
        if self.spontaneous:
            ctx.send_next(("token", 0))

    def on_receive(self, ctx: Context, value, sender) -> None:
        label, hop = value
        if hop + 1 < self.hops:
            ctx.send_next((label, hop + 1))
        ctx.terminate("done")


class Oblivious(Strategy):
    def on_wakeup(self, ctx):
        pass

    def on_receive(self, ctx, value, sender):
        pass


class Outputter(Strategy):
    def __init__(self, out):
        self.out = out

    def on_wakeup(self, ctx):
        ctx.terminate(self.out)

    def on_receive(self, ctx, value, sender):
        pass


def two_ring():
    return unidirectional_ring(2)


class TestOutcomeSemantics:
    def test_unanimous_output_is_outcome(self):
        topo = two_ring()
        res = run_protocol(topo, {1: Outputter(5), 2: Outputter(5)})
        assert res.outcome == 5
        assert not res.failed

    def test_disagreement_fails(self):
        topo = two_ring()
        res = run_protocol(topo, {1: Outputter(1), 2: Outputter(2)})
        assert res.outcome == FAIL
        assert "disagree" in res.fail_reason

    def test_abort_fails(self):
        class Aborter(Strategy):
            def on_wakeup(self, ctx):
                ctx.abort("testing")

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        res = run_protocol(topo, {1: Aborter(), 2: Outputter(1)})
        assert res.failed
        assert "abort" in res.fail_reason

    def test_nontermination_fails(self):
        topo = two_ring()
        res = run_protocol(topo, {1: SilentStrategy(), 2: SilentStrategy()})
        assert res.failed
        assert "never terminated" in res.fail_reason

    def test_step_budget_fails(self):
        class PingPong(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("ping")

            def on_receive(self, ctx, value, sender):
                ctx.send_next(value)

        topo = two_ring()
        res = run_protocol(
            topo, {1: PingPong(), 2: PingPong()}, max_steps=50
        )
        assert res.failed
        assert "budget" in res.fail_reason


class TestModelRules:
    def test_messages_to_terminated_are_dropped(self):
        class SendThenStop(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("x")
                ctx.terminate(1)

            def on_receive(self, ctx, value, sender):
                raise AssertionError("should never be called")

        topo = two_ring()
        res = run_protocol(topo, {1: SendThenStop(), 2: SendThenStop()})
        assert res.outcome == 1

    def test_send_to_non_neighbour_raises(self):
        class BadSender(Strategy):
            def on_wakeup(self, ctx):
                ctx.send(99, "x")

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        with pytest.raises(ProtocolViolation):
            run_protocol(topo, {1: BadSender(), 2: Oblivious()})

    def test_double_terminate_raises(self):
        class Doubler(Strategy):
            def on_wakeup(self, ctx):
                ctx.terminate(1)
                ctx.terminate(2)

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        with pytest.raises(ProtocolViolation):
            run_protocol(topo, {1: Doubler(), 2: Oblivious()})

    def test_send_after_terminate_raises(self):
        class LateSender(Strategy):
            def on_wakeup(self, ctx):
                ctx.terminate(1)
                ctx.send_next("x")

            def on_receive(self, ctx, value, sender):
                pass

        topo = two_ring()
        with pytest.raises(ProtocolViolation):
            run_protocol(topo, {1: LateSender(), 2: Oblivious()})

    def test_fifo_per_link(self):
        received = []

        class Burst(Strategy):
            def on_wakeup(self, ctx):
                for i in range(5):
                    ctx.send_next(i)
                ctx.terminate(0)

            def on_receive(self, ctx, value, sender):
                pass

        class Collect(Strategy):
            def on_wakeup(self, ctx):
                pass

            def on_receive(self, ctx, value, sender):
                received.append(value)
                if len(received) == 5:
                    ctx.terminate(0)

        topo = two_ring()
        res = run_protocol(topo, {1: Burst(), 2: Collect()})
        assert received == [0, 1, 2, 3, 4]
        assert res.outcome == 0


class TestConfiguration:
    def test_missing_strategy_rejected(self):
        topo = two_ring()
        with pytest.raises(ConfigurationError):
            Executor(topo, {1: SilentStrategy()})

    def test_extra_strategy_rejected(self):
        topo = two_ring()
        with pytest.raises(ConfigurationError):
            Executor(
                topo,
                {1: SilentStrategy(), 2: SilentStrategy(), 3: SilentStrategy()},
            )

    def test_shared_strategy_instance_rejected(self):
        topo = two_ring()
        shared = SilentStrategy()
        with pytest.raises(ConfigurationError):
            Executor(topo, {1: shared, 2: shared})

    def test_seed_and_rng_mutually_exclusive(self):
        topo = two_ring()
        with pytest.raises(ConfigurationError):
            run_protocol(
                topo,
                {1: SilentStrategy(), 2: SilentStrategy()},
                rng=RngRegistry(0),
                seed=1,
            )


class TestDeliveryOrderRegression:
    """The O(1) ready-set bookkeeping must not change delivery order.

    Golden sequences below were recorded against the original list-based
    bookkeeping (``self._ready.remove(link)`` / ``link not in
    self._ready``) for every scheduler; the complete graph keeps many
    links concurrently ready, so any reordering in how links enter or
    leave the ready set would show up here.
    """

    GOLDEN = {
        "fifo": [
            (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2),
            (3, 4), (4, 1), (4, 1), (4, 2), (4, 2), (4, 3), (4, 3), (1, 2),
            (1, 3), (1, 4), (2, 1), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4),
        ],
        "round-robin": [
            (1, 2), (1, 4), (2, 3), (3, 1), (3, 4), (4, 2), (1, 3), (2, 4),
            (4, 1), (4, 3), (4, 2), (3, 4), (3, 2), (4, 1), (3, 1), (2, 4),
            (3, 2), (2, 3), (4, 3), (2, 1), (1, 2), (1, 4), (1, 3), (2, 1),
        ],
        "random": [
            (2, 4), (1, 4), (3, 4), (1, 2), (2, 1), (4, 3), (4, 1), (1, 3),
            (3, 2), (4, 3), (2, 3), (3, 4), (4, 1), (3, 1), (3, 1), (1, 3),
            (1, 4), (4, 2), (3, 2), (4, 2), (2, 4), (1, 2), (2, 1), (2, 3),
        ],
        "priority": [
            (2, 1), (1, 3), (1, 4), (2, 3), (2, 4), (3, 1), (3, 2), (3, 4),
            (4, 1), (4, 1), (4, 2), (4, 2), (4, 3), (4, 3), (1, 3), (1, 4),
            (3, 1), (3, 2), (3, 4), (1, 2), (2, 1), (2, 3), (2, 4), (1, 2),
        ],
    }

    @staticmethod
    def _delivery_order(scheduler):
        from repro.protocols import async_complete_protocol

        topo = complete_graph(4)
        res = run_protocol(
            topo, async_complete_protocol(topo), scheduler=scheduler, seed=5
        )
        assert res.outcome == 3
        return [
            (e.sender, e.receiver)
            for e in res.trace
            if isinstance(e, ReceiveEvent)
        ]

    def test_fifo_first_ready_order_unchanged(self):
        assert self._delivery_order(None) == self.GOLDEN["fifo"]

    def test_round_robin_order_unchanged(self):
        assert self._delivery_order(RoundRobinScheduler()) == self.GOLDEN[
            "round-robin"
        ]

    def test_random_scheduler_order_unchanged(self):
        assert self._delivery_order(RandomScheduler(seed=7)) == self.GOLDEN[
            "random"
        ]

    def test_priority_scheduler_order_unchanged(self):
        scheduler = LinkPriorityScheduler({(1, 2): 5, (2, 1): -1})
        assert self._delivery_order(scheduler) == self.GOLDEN["priority"]

    def test_bad_scheduler_choice_still_detected(self):
        from repro.sim.scheduler import Scheduler
        from repro.util.errors import SimulationError

        class Liar(Scheduler):
            def choose(self, ready_links):
                return ("nope", "nope")

        class Sender(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("x")

            def on_receive(self, ctx, value, sender):
                ctx.terminate(0)

        topo = two_ring()
        with pytest.raises(SimulationError):
            run_protocol(topo, {1: Sender(), 2: Sender()}, scheduler=Liar())


class TestTraceRecordingSwitch:
    def test_trace_off_preserves_outcome_and_steps(self):
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(8)
        traced = run_protocol(topo, alead_uni_protocol(topo), seed=4)
        bare = run_protocol(
            topo, alead_uni_protocol(topo), seed=4, record_trace=False
        )
        assert bare.outcome == traced.outcome
        assert bare.steps == traced.steps
        assert bare.outputs == traced.outputs
        assert len(traced.trace) > 0
        assert len(bare.trace) == 0

    def test_fast_loop_matches_classic_untraced_loop(self):
        """The allocation-free fast loop and the classic loop with the
        trace off agree trial by trial: 20 seeds of honest A-LEADuni on
        a ring of 64, outcome and step count pairwise."""
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(64)

        def runs(fast):
            results = [
                run_protocol(
                    topo,
                    alead_uni_protocol(topo),
                    rng=RngRegistry(0).spawn(str(t)),
                    record_trace=False,
                    fast=fast,
                )
                for t in range(20)
            ]
            return [(r.outcome, r.steps) for r in results]

        fast = runs(True)
        assert fast == runs(False)
        assert len(set(fast)) > 1  # the seeds really differ

    def test_trace_off_keeps_failure_reporting(self):
        topo = two_ring()
        res = run_protocol(
            topo,
            {1: SilentStrategy(), 2: SilentStrategy()},
            record_trace=False,
        )
        assert res.failed
        assert "never terminated" in res.fail_reason


class TestDeterminism:
    def test_same_seed_same_trace(self):
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(6)
        r1 = run_protocol(topo, alead_uni_protocol(topo), seed=9)
        r2 = run_protocol(topo, alead_uni_protocol(topo), seed=9)
        assert r1.outcome == r2.outcome
        assert [e for e in r1.trace] == [e for e in r2.trace]

    def test_different_seed_usually_differs(self):
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(16)
        outcomes = {
            run_protocol(topo, alead_uni_protocol(topo), seed=s).outcome
            for s in range(12)
        }
        assert len(outcomes) > 1

    def test_random_scheduler_reproducible(self):
        from repro.protocols.basic_lead import basic_lead_protocol

        topo = unidirectional_ring(5)
        r1 = run_protocol(
            topo, basic_lead_protocol(topo),
            scheduler=RandomScheduler(seed=3), seed=1,
        )
        r2 = run_protocol(
            topo, basic_lead_protocol(topo),
            scheduler=RandomScheduler(seed=3), seed=1,
        )
        assert r1.outcome == r2.outcome
