"""Unit tests for the execution engine: semantics of Section 2's model."""

import hashlib

import pytest

from repro.attacks import RingPlacement, cubic_attack_protocol
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

    def test_strategy_vector_that_already_ran_rejected(self):
        """A strategy keeps its state after a run, so a vector run a
        second time (here for another seed) must be refused up front
        instead of ending FAIL by non-termination."""
        ring = unidirectional_ring(4)
        protocol = cubic_attack_protocol(ring, RingPlacement.cubic(4, 2), 1)
        assert run_protocol(ring, protocol, seed=1).outcome == 1
        with pytest.raises(ConfigurationError, match="processor 1 already ran"):
            run_protocol(ring, protocol, seed=2)

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
        """Recording is a pure observer: with the trace on or off, 20
        seeds of honest A-LEADuni on a ring of 64 agree trial by trial
        on outcome, steps, outputs and undelivered messages — under the
        inlined FIFO choice and under a non-FIFO scheduler."""
        from repro.protocols.alead_uni import alead_uni_protocol

        topo = unidirectional_ring(64)

        def runs(record_trace, random_scheduler):
            results = []
            for t in range(20):
                result = run_protocol(
                    topo,
                    alead_uni_protocol(topo),
                    scheduler=RandomScheduler(seed=t) if random_scheduler else None,
                    rng=RngRegistry(0).spawn(str(t)),
                    record_trace=record_trace,
                )
                assert (len(result.trace) > 0) == record_trace
                results.append(
                    (result.outcome, result.steps, result.outputs, result.undelivered)
                )
            return results

        for random_scheduler in (False, True):
            bare = runs(False, random_scheduler)
            assert bare == runs(True, random_scheduler)
            assert len({outcome for outcome, *_ in bare}) > 1  # seeds differ

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


class TestEventStreamGolden:
    """The full traced event stream, pinned by digest.

    ``TestDeliveryOrderRegression`` pins only which link delivers when;
    these digests pin everything a trace records — wakeups, sends and
    receives with their per-processor ``seq`` counters, event times,
    terminations and aborts with their reasons — so a change to how the
    executor records (not only what it delivers) shows up here. Each
    digest is the sha256 of ``repr(list(result.trace))``.
    """

    SCENARIOS = {
        ("attack/basic-cheat", 0):
            "6056794cf4241f698a7baffc5ef827e0f925e54f451d13d4f9549b80236a96c6",
        ("attack/basic-cheat", 1):
            "d7d7463db3104b085249fe2de3de86f1063fc0ec0b7015de057a9e0467ef588e",
        ("attack/cubic", 0):
            "bfbf06b4bd78f88dfe3270ec1fcf97d2cc489985bcd54593a846cd695ce13925",
        ("attack/cubic", 1):
            "3b8801926699aa87f2eff7b2aedc3dd9df7ae9df3e62d0d6f38ad34989a52131",
        ("attack/equal-spacing", 0):
            "48c20540a7fa3ef869167c3ba9cab00808f2820c4aa4ba0c6a9689566f89d166",
        ("attack/equal-spacing", 1):
            "9e5736e8817175069efa535c8439122d99565d13a85fbdd2818475f1e634b225",
        ("attack/partial-sum", 0):
            "d3ca26eecc9afcf6bdf59b5a3e16688a91ea1eb40b6aa6be94e302820371564c",
        ("attack/partial-sum", 1):
            "fe4c4950741047c47b28077663bfdb580548d4627b6a2fe2b6e09b54c06d07f0",
        ("attack/phase-rushing", 0):
            "ba5566096ed3393c3e035c725eb1856077233d9313b138b2ab3886e1bb9ec02e",
        ("attack/phase-rushing", 1):
            "2553181519fdcdd493dc1ae7502beeff06650131f97a0da3cdb3aa673bd8cd33",
        ("attack/random-location", 0):
            "cbb9f8790909f3f108a70657555af5a60451232526e53b0c794e47f7e8843017",
        ("attack/random-location", 1):
            "313ed038a2317041d2359dde3f8348ffa0a2776379ac546ccd886d113bdcb44b",
        ("attack/shamir-pool", 0):
            "59074f76b8c4b2faaace785f1419957fd9fea57f94b48849b8adc56cebb65701",
        ("attack/shamir-pool", 1):
            "6bcface76ee999a3c9948f6989ba343f1429611991848869163ad72f7e81f3f1",
        ("blocks/fair-consensus", 0):
            "e7cbfdd3d03048744da6c662cc660ea5384b764efa7f39b2a211ddc87b416bf4",
        ("blocks/fair-consensus", 1):
            "2b158011cadbc07bf6df6bb62c902a2961c957edcb0ce7762a8f8cf3cd99f4eb",
        ("blocks/fair-renaming", 0):
            "87ea22ca8970a5d8ba26db0474a26e61477bae22fb298513e26a9bc43add08ff",
        ("blocks/fair-renaming", 1):
            "94cd96ed23ae4f720aefc6b1f13629c24d52e59e85b41d68774bf4223705dc12",
        ("cointoss/biased-coin", 0):
            "330d56096d983802490698666ab794cc7b3843999b708f9b943282f2e00cb31d",
        ("cointoss/biased-coin", 1):
            "0102ee77e5807fd255957b8b6265cae64888aa3fdd2ec3ee3ab9c1184e5b4041",
        ("cointoss/fle-coin", 0):
            "32a9313d10608416f309bf5a047b16a3e571f16eba83afa402d10748c2a7747b",
        ("cointoss/fle-coin", 1):
            "e8c9c3ee0f459b53c49ff1d30c80742e0bfa2dfa219bb8a36037bd35c53eede1",
        ("fuzz/random-deviation", 0):
            "6eef051ed0daf890e55a1cfcc6822d2566c104f44746a49196010d8646dcc66b",
        ("fuzz/random-deviation", 1):
            "e83f857a2e006eee5b8137ed5fcec23a626afbe7a6666e6ed319b9d3cc8e8e49",
        ("honest/alead-uni", 0):
            "4a4660118f6f380ec8ef103a338ecde8cfa7f6f8e41391dfea67fb51d4b91f2d",
        ("honest/alead-uni", 1):
            "d5ca51710c07656fa67b218002f08c0490c75493a5f062553acf1a652540f26e",
        ("honest/async-complete", 0):
            "e2f33708eac80662739fb5bbec490de162276121a5bbec05d51da7f37dc484af",
        ("honest/async-complete", 1):
            "f14a613b236aae988b6cdf5ae65801323620025f24b0d0be9b8a7d0460ff3876",
        ("honest/basic-lead", 0):
            "3645ecdc3fa22c7426fcb48be8a746b77afc3c2a7ef5329e9abe26058a8e745b",
        ("honest/basic-lead", 1):
            "1869804696b7192749c40f3f9f49ecc41f469012f8ea99aa32498c2be50d3bcc",
        ("honest/phase-async", 0):
            "b3fdf0db4dad198993c4612e62160bf0c52b96c363f2e517431b14260acd3443",
        ("honest/phase-async", 1):
            "11efb36b730af2668e4caf706fb29b6307245bc2e917717d245d74a5570df347",
        ("honest/wakeup-alead", 0):
            "f0e0919dc7f3c9243f14bd9598eed668ccf1cdb28a430cd82fb9a7d1644319b6",
        ("honest/wakeup-alead", 1):
            "ef3434e3b4f408b25079ee460d8a87c8e3bffab74b28406594487e8e920121b7",
    }

    SCHEDULERS = {
        "fifo":
            "13ea2e3b7181e5fea2cfc2559d211eb84297fe2684a2c5db8f17ace57d54bdab",
        "round-robin":
            "6fbf38a36c6f885aef9b9a6fe890d10df26d1b0808450c7c71420ffbe843efd8",
        "random":
            "cd3c6382f14e84f9731b9d234e6bf877e1b1d20e315ccfa4eafda1a2957d4164",
        "priority":
            "1bb7edfb1280ffba9c7ed3699037d5a34105c309bc2aae2e7096b54b69a4488f",
    }

    EDGE_CASES = {
        "abort":
            "886efbbfba1790e9ef4be62323c2af9c2e9a73d7c6c7550e82cc754bf66dd77b",
        "late-message":
            "50571d077611b875b01e113fc4699b550030bf2293942f8f05ae0e780ddebbab",
        "step-budget":
            "5ec2c3bf1a41a6015957e32be26eb85c2af247fd417529b4aab0c93205157d41",
    }

    @staticmethod
    def _digest(result):
        return hashlib.sha256(repr(list(result.trace)).encode()).hexdigest()

    def test_golden_covers_every_executor_backed_scenario(self):
        from repro.experiments.scenario import all_scenarios

        executor_backed = {
            spec.name for spec in all_scenarios() if spec.run_trial is None
        }
        assert {name for name, _ in self.SCENARIOS} == executor_backed

    @pytest.mark.parametrize("name,seed", sorted(SCENARIOS))
    def test_scenario_event_stream_unchanged(self, name, seed):
        from repro.experiments import run_traced_trial

        result = run_traced_trial(name, base_seed=seed)
        assert self._digest(result) == self.SCENARIOS[(name, seed)]

    @staticmethod
    def _scheduler(label):
        return {
            "fifo": None,
            "round-robin": RoundRobinScheduler(),
            "random": RandomScheduler(seed=7),
            "priority": LinkPriorityScheduler({(1, 2): 5, (2, 1): -1}),
        }[label]

    @pytest.mark.parametrize("label", sorted(SCHEDULERS))
    def test_async_complete_event_stream_unchanged(self, label):
        from repro.protocols import async_complete_protocol

        topo = complete_graph(4)
        result = run_protocol(
            topo,
            async_complete_protocol(topo),
            scheduler=self._scheduler(label),
            seed=5,
        )
        assert self._digest(result) == self.SCHEDULERS[label]

    def test_abort_event_stream_unchanged(self):
        class Relay(Strategy):
            """Node 1 starts a token; each node forwards it once, and node 3
            aborts where the others terminate."""

            def __init__(self, pid):
                self.pid = pid

            def on_wakeup(self, ctx):
                if self.pid == 1:
                    ctx.send_next("token")

            def on_receive(self, ctx, value, sender):
                ctx.send_next(value)
                if self.pid == 3:
                    ctx.abort("bad token")
                else:
                    ctx.terminate(0)

        topo = unidirectional_ring(3)
        result = run_protocol(topo, {v: Relay(v) for v in topo.nodes})
        assert "abort" in result.fail_reason
        assert self._digest(result) == self.EDGE_CASES["abort"]

    def test_late_message_event_stream_unchanged(self):
        class SendThenStop(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("x")
                ctx.terminate(1)

            def on_receive(self, ctx, value, sender):
                raise AssertionError("should never be called")

        topo = two_ring()
        result = run_protocol(topo, {1: SendThenStop(), 2: SendThenStop()})
        assert result.outcome == 1 and result.steps == 2
        assert self._digest(result) == self.EDGE_CASES["late-message"]

    def test_step_budget_event_stream_unchanged(self):
        class PingPong(Strategy):
            def on_wakeup(self, ctx):
                ctx.send_next("ping")

            def on_receive(self, ctx, value, sender):
                ctx.send_next(value)

        topo = two_ring()
        result = run_protocol(
            topo, {1: PingPong(), 2: PingPong()}, max_steps=50
        )
        assert "budget" in result.fail_reason
        assert self._digest(result) == self.EDGE_CASES["step-budget"]
