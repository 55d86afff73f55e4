"""Tests for the synchronous substrate and the Abraham et al. baselines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.distribution import chi_square_uniformity
from repro.sim.execution import FAIL
from repro.sim.strategy import Context
from repro.sim.topology import complete_graph, unidirectional_ring
from repro.sync import (
    SyncContext,
    SyncStrategy,
    run_sync_protocol,
    sync_broadcast_protocol,
    sync_ring_protocol,
    sync_rushing_attempt_protocol,
)
from repro.util.errors import ConfigurationError, ProtocolViolation
from repro.util.rng import RngRegistry


class _Const(SyncStrategy):
    def __init__(self, out):
        self.out = out

    def on_round(self, ctx, round_number, inbox):
        ctx.terminate(self.out)


class _Silent(SyncStrategy):
    def on_round(self, ctx, round_number, inbox):
        pass


class TestSyncEngine:
    def test_unanimous_outcome(self):
        g = complete_graph(3)
        res = run_sync_protocol(g, {pid: _Const(2) for pid in g.nodes})
        assert res.outcome == 2 and res.rounds == 1

    def test_disagreement_fails(self):
        g = complete_graph(2)
        res = run_sync_protocol(g, {1: _Const(1), 2: _Const(2)})
        assert res.failed and "disagree" in res.fail_reason

    def test_quiescence_fails(self):
        g = complete_graph(2)
        res = run_sync_protocol(g, {1: _Const(1), 2: _Silent()})
        assert res.failed and "live" in res.fail_reason

    def test_round_budget(self):
        class Chatter(SyncStrategy):
            def on_round(self, ctx, round_number, inbox):
                ctx.broadcast("x")

        g = complete_graph(2)
        res = run_sync_protocol(
            g, {pid: Chatter() for pid in g.nodes}, max_rounds=5
        )
        assert res.failed and "budget" in res.fail_reason

    def test_send_to_non_neighbour_raises(self):
        class Bad(SyncStrategy):
            def on_round(self, ctx, round_number, inbox):
                ctx.send(99, "x")

        g = complete_graph(2)
        with pytest.raises(ProtocolViolation):
            run_sync_protocol(g, {1: Bad(), 2: _Silent()})

    @pytest.mark.parametrize(
        "act",
        [
            lambda ctx: ctx.broadcast("x"),
            lambda ctx: ctx.terminate(1),
            lambda ctx: ctx.abort("late"),
        ],
        ids=["send", "terminate", "abort"],
    )
    def test_act_after_terminating_raises(self, act):
        class Bad(SyncStrategy):
            def on_round(self, ctx, round_number, inbox):
                ctx.terminate(1)
                act(ctx)

        g = complete_graph(2)
        with pytest.raises(ProtocolViolation):
            run_sync_protocol(g, {1: Bad(), 2: _Const(1)})

    def test_context_is_the_simulator_context(self):
        ctx = SyncContext(1, [2], 2, None)
        assert isinstance(ctx, Context)
        assert not hasattr(ctx, "__dict__")
        ctx.broadcast("x")
        assert ctx.sends == [(2, "x")]

    def test_missing_strategy_rejected(self):
        g = complete_graph(2)
        with pytest.raises(ConfigurationError):
            run_sync_protocol(g, {1: _Const(1)})

    def test_simultaneity(self):
        """Round-r messages are invisible until round r+1."""
        observed = {}

        class Probe(SyncStrategy):
            def __init__(self, pid):
                self.pid = pid

            def on_round(self, ctx, round_number, inbox):
                if round_number == 1:
                    ctx.broadcast(("r1", self.pid))
                    observed.setdefault(self.pid, []).append(len(inbox))
                elif round_number == 2:
                    observed[self.pid].append(len(inbox))
                    ctx.terminate(0)

        g = complete_graph(3)
        run_sync_protocol(g, {pid: Probe(pid) for pid in g.nodes})
        for pid, counts in observed.items():
            assert counts == [0, 2]  # nothing in round 1, all in round 2


class TestSyncBaselines:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_broadcast_baseline_succeeds(self, n):
        g = complete_graph(n)
        res = run_sync_protocol(g, sync_broadcast_protocol(g), seed=n)
        assert not res.failed, res.fail_reason
        assert 1 <= res.outcome <= n
        assert res.rounds == 3

    @pytest.mark.parametrize("n", [2, 4, 7, 11])
    def test_ring_baseline_succeeds(self, n):
        ring = unidirectional_ring(n)
        res = run_sync_protocol(ring, sync_ring_protocol(ring), seed=n)
        assert not res.failed, res.fail_reason
        assert 1 <= res.outcome <= n
        assert res.rounds == n + 1

    @given(n=st.integers(2, 10), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_baselines_agree_property(self, n, seed):
        g = complete_graph(n)
        res = run_sync_protocol(g, sync_broadcast_protocol(g), seed=seed)
        assert not res.failed
        ring = unidirectional_ring(n)
        res = run_sync_protocol(ring, sync_ring_protocol(ring), seed=seed)
        assert not res.failed

    def test_broadcast_uniformity(self):
        from collections import Counter

        n = 6
        g = complete_graph(n)
        counts = Counter(
            run_sync_protocol(g, sync_broadcast_protocol(g), seed=s).outcome
            for s in range(360)
        )
        from repro.analysis.distribution import OutcomeDistribution

        dist = OutcomeDistribution(n=n, trials=360, counts=counts)
        assert chi_square_uniformity(dist) > 1e-4

    def test_broadcast_rejects_ring_topology(self):
        ring = unidirectional_ring(4)
        with pytest.raises(ConfigurationError):
            sync_broadcast_protocol(ring)

    def test_ring_rejects_complete_topology(self):
        g = complete_graph(4)
        with pytest.raises(ConfigurationError):
            sync_ring_protocol(g)


class TestSyncDeniesRushing:
    """The paper's contrast: delay-and-steer dies under synchrony."""

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_last_round_cheater_punished(self, n):
        g = complete_graph(n)
        res = run_sync_protocol(
            g, sync_rushing_attempt_protocol(g, cheater=2, target=1), seed=n
        )
        assert res.outcome == FAIL
        assert "abort" in res.fail_reason

    def test_cheater_never_forces_target(self):
        g = complete_graph(8)
        for seed in range(10):
            res = run_sync_protocol(
                g, sync_rushing_attempt_protocol(g, 3, 5), seed=seed
            )
            assert res.outcome != 5
