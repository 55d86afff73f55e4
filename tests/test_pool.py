"""Tests for the persistent worker pool, adaptive trial budgets, and
the point driver's deadline rules."""

import time

import pytest

from repro.experiments import (
    BudgetPolicy,
    CampaignPoint,
    ScenarioSpec,
    WilsonWidthPolicy,
    ExperimentRunner,
    WorkerPool,
    get_scenario,
    register_scenario,
    resolve_workers,
    run_campaign,
    run_scenario,
    unregister_scenario,
)
from repro.experiments.campaign import PointDriver
from repro.experiments.pool import MAX_AUTO_WORKERS
from repro.util.errors import ConfigurationError


class TestResolveWorkers:
    def test_integers_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        assert resolve_workers(64) == 64  # explicit counts are not clamped

    def test_auto_derives_a_clamped_machine_count(self):
        resolved = resolve_workers("auto")
        assert 1 <= resolved <= MAX_AUTO_WORKERS
        assert resolve_workers(None) == resolved

    def test_invalid_counts_rejected(self):
        for bad in (0, -1, 1.5, "four", True):
            with pytest.raises(ConfigurationError):
                resolve_workers(bad)


class TestWorkerPool:
    def test_serial_pool_runs_in_process_and_lazily(self):
        with WorkerPool(1) as pool:
            assert not pool.parallel
            seen = []
            results = pool.imap_unordered(lambda x: seen.append(x) or x * 2, [1, 2, 3])
            assert seen == []  # lazy until consumed
            assert list(results) == [2, 4, 6]
            assert not pool.started  # no processes were ever spawned

    def test_serial_pool_rejects_submit(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ConfigurationError):
                pool.submit(str, 1, callback=print, error_callback=print)

    def test_parallel_pool_spawns_once_and_is_reused(self):
        with WorkerPool(2) as pool:
            assert pool.parallel and not pool.started
            first = run_scenario(
                "honest/alead-uni", trials=8, params={"n": 6}, pool=pool
            )
            assert pool.started
            backing = pool._pool
            second = run_scenario(
                "honest/alead-uni", trials=8, params={"n": 6}, pool=pool
            )
            assert pool._pool is backing  # same worker processes
            assert first.to_row() == second.to_row()

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(2)
        pool.warm_up()
        pool.close()
        with pytest.raises(ConfigurationError):
            list(pool.imap_unordered(str, [(1,)]))

    def test_dispatch_window_is_bounded_by_pool_size(self):
        assert 1 <= WorkerPool(4).dispatch_window <= 4
        assert WorkerPool(1).dispatch_window == 1

    def test_none_payloads_survive_windowed_dispatch(self):
        """None is a legal payload value, not an end-of-queue marker —
        every payload must come back exactly once (the window path is
        exercised whenever the machine has fewer cores than workers;
        the pre-loaded path trivially holds)."""
        with WorkerPool(2) as pool:
            results = list(pool.imap_unordered(str, [1, None, 2, None, 3, 4]))
        assert sorted(results) == ["1", "2", "3", "4", "None", "None"]

    def test_windowed_dispatch_preserves_results(self):
        """Many more chunks than the dispatch window (always true here:
        window <= workers < chunk count) must still yield every chunk's
        result exactly once."""
        serial = run_scenario(
            "honest/alead-uni", trials=24, base_seed=3, params={"n": 8}
        )
        with WorkerPool(3) as pool:
            windowed = run_scenario(
                "honest/alead-uni",
                trials=24,
                base_seed=3,
                params={"n": 8},
                pool=pool,
                chunk_size=2,  # 12 chunks > window
            )
        assert windowed.to_row() == serial.to_row()


class TestRunnerPoolWiring:
    def test_injected_pool_sets_worker_count_and_survives_close(self):
        with WorkerPool(3) as pool:
            runner = ExperimentRunner(pool=pool)
            assert runner.workers == 3
            runner.run("honest/alead-uni", 6, params={"n": 6})
            runner.close()  # injected pools are the caller's to close
            assert pool.started
            assert (
                run_scenario(
                    "honest/alead-uni", trials=6, params={"n": 6}, pool=pool
                ).trials
                == 6
            )

    def test_self_owned_pool_persists_across_runs_then_closes(self):
        runner = ExperimentRunner(workers=2)
        assert runner.pool is None  # lazy until first parallel run
        runner.run("honest/alead-uni", 8, params={"n": 6})
        owned = runner.pool
        assert owned is not None and owned.started
        runner.run("honest/alead-uni", 8, params={"n": 6})
        assert runner.pool is owned
        runner.close()
        with pytest.raises(ConfigurationError):
            owned.warm_up()

    def test_parallel_false_never_touches_a_pool(self):
        runner = ExperimentRunner(workers=4, parallel=False)
        runner.run("honest/alead-uni", 8, params={"n": 6})
        assert runner.pool is None


class TestFoldedAggregates:
    def test_fold_matches_per_trial_rows_and_counters(self):
        kept = run_scenario(
            "attack/basic-cheat", trials=12, params={"n": 16, "target": 5}
        )
        folded = run_scenario(
            "attack/basic-cheat",
            trials=12,
            params={"n": 16, "target": 5},
            keep_outcomes=False,
        )
        assert folded.outcomes == []
        assert len(kept.outcomes) == 12
        assert folded.to_row() == kept.to_row()
        assert folded.steps_total == sum(t.steps for t in kept.outcomes)

    def test_fold_matches_under_parallelism(self):
        with WorkerPool(4) as pool:
            folded = run_scenario(
                "sync/broadcast",
                trials=15,
                base_seed=7,
                params={"n": 6},
                pool=pool,
                keep_outcomes=False,
            )
        serial = run_scenario(
            "sync/broadcast", trials=15, base_seed=7, params={"n": 6}
        )
        assert folded.to_row() == serial.to_row()

    def test_on_outcome_disables_the_fold_but_not_the_row(self):
        seen = []
        result = run_scenario(
            "honest/basic-lead",
            trials=7,
            params={"n": 6},
            keep_outcomes=False,
            on_outcome=seen.append,
        )
        assert sorted(t.index for t in seen) == list(range(7))
        assert result.outcomes == []  # still not retained


class TestBudgetPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WilsonWidthPolicy(ci_width=0.0, min_trials=1, max_trials=10)
        with pytest.raises(ConfigurationError):
            WilsonWidthPolicy(ci_width=0.1, min_trials=0, max_trials=10)
        with pytest.raises(ConfigurationError):
            WilsonWidthPolicy(ci_width=0.1, min_trials=20, max_trials=10)
        with pytest.raises(ConfigurationError):
            WilsonWidthPolicy(ci_width=0.1, min_trials=1, max_trials=10, z=0)

    def test_batch_schedule_doubles_to_the_ceiling(self):
        policy = WilsonWidthPolicy(ci_width=0.01, min_trials=32, max_trials=1000)
        assert list(policy.batch_ends()) == [32, 64, 128, 256, 512, 1000]
        tight = WilsonWidthPolicy(ci_width=0.01, min_trials=10, max_trials=10)
        assert list(tight.batch_ends()) == [10]

    def test_from_mapping_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ConfigurationError):
            BudgetPolicy.from_mapping({"ci_width": 0.1, "min_trials": 1})
        with pytest.raises(ConfigurationError):
            BudgetPolicy.from_mapping(
                {"ci_width": 0.1, "min_trials": 1, "max_trials": 5, "zz": 2}
            )
        policy = BudgetPolicy.from_mapping(
            {"ci_width": 0.1, "min_trials": 1, "max_trials": 5}
        )
        assert policy.z == 1.96

    def test_key_roundtrips_through_json(self):
        import json

        policy = WilsonWidthPolicy(ci_width=0.05, min_trials=16, max_trials=400)
        assert (
            BudgetPolicy.from_mapping(json.loads(json.dumps(policy.to_key())))
            == policy
        )


class TestAdaptiveRuns:
    POLICY = WilsonWidthPolicy(ci_width=0.05, min_trials=32, max_trials=1000)

    def test_converged_point_stops_early(self):
        """A deterministic 100%-success attack converges as soon as the
        Wilson width at p=1 crosses the threshold (here: 128 trials),
        far below the 1000-trial ceiling."""
        result = run_scenario(
            "attack/basic-cheat",
            params={"n": 16, "target": 5},
            budget=self.POLICY,
            keep_outcomes=False,
        )
        assert result.trials == 128
        assert result.success_rate == 1.0
        assert self.POLICY.satisfied(result.trials, result.trials)

    def test_realized_trials_identical_across_worker_counts(self):
        def row(workers):
            return run_scenario(
                "fuzz/random-deviation",
                params={"n": 16, "k": 2},
                budget=WilsonWidthPolicy(ci_width=0.25, min_trials=8, max_trials=256),
                workers=workers,
                keep_outcomes=False,
            ).to_row()

        serial = row(1)
        assert serial == row(4)
        assert 8 <= serial["trials"] <= 256
        assert serial["budget"]["ci_width"] == 0.25

    def test_unconverged_point_runs_to_the_ceiling(self):
        policy = WilsonWidthPolicy(ci_width=0.01, min_trials=4, max_trials=20)
        result = run_scenario(
            "honest/alead-uni", params={"n": 8}, budget=policy
        )
        assert result.trials == 20  # 1% width is unreachable at 20 trials

    def test_trials_and_budget_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            run_scenario(
                "honest/alead-uni", trials=10, params={"n": 8},
                budget=self.POLICY,
            )
        with pytest.raises(ConfigurationError):
            run_scenario("honest/alead-uni", params={"n": 8})  # neither


class TestPolicyRegistry:
    def test_registry_names_cover_the_builtin_policies(self):
        from repro.experiments import policy_names

        assert policy_names() == [
            "fail-rate-target",
            "outcome-rate-target",
            "relative-precision",
            "wilson-width",
        ]

    def test_batch_schedule_is_shared_by_every_policy(self):
        """Same bounds -> same batch boundaries, whatever the stop rule:
        the worker-invariance argument only needs proving once."""
        from repro.experiments import (
            FailRateTargetPolicy,
            RelativePrecisionPolicy,
        )

        bounds = {"min_trials": 8, "max_trials": 100}
        schedules = [
            list(policy.batch_ends())
            for policy in (
                WilsonWidthPolicy(ci_width=0.1, **bounds),
                RelativePrecisionPolicy(rel_precision=0.1, **bounds),
                FailRateTargetPolicy(target=0.1, **bounds),
            )
        ]
        assert schedules[0] == schedules[1] == schedules[2] == [8, 16, 32, 64, 100]

    def test_relative_precision_validation_and_stop_rule(self):
        from repro.analysis.stats import wilson_interval
        from repro.experiments import RelativePrecisionPolicy

        with pytest.raises(ConfigurationError):
            RelativePrecisionPolicy(rel_precision=0.0, min_trials=1, max_trials=10)
        with pytest.raises(ConfigurationError):
            RelativePrecisionPolicy(rel_precision=1.5, min_trials=1, max_trials=10)
        policy = RelativePrecisionPolicy(
            rel_precision=0.25, min_trials=8, max_trials=10000
        )
        assert not policy.satisfied(3, 4)  # below the floor
        assert not policy.satisfied(0, 512)  # zero estimate: undefined
        # High success rate: half-width shrinks below 25% of the estimate
        # quickly; a rare event needs far more trials for the same claim.
        assert policy.satisfied(512, 512)
        low, high = wilson_interval(5, 512, policy.z)
        assert (high - low) / 2 > 0.25 * (5 / 512)
        assert not policy.satisfied(5, 512)

    def test_fail_rate_target_validation_and_stop_rule(self):
        from repro.experiments import FailRateTargetPolicy

        with pytest.raises(ConfigurationError):
            FailRateTargetPolicy(target=-0.1, min_trials=1, max_trials=10)
        with pytest.raises(ConfigurationError):
            FailRateTargetPolicy(target=1.1, min_trials=1, max_trials=10)
        policy = FailRateTargetPolicy(target=0.5, min_trials=8, max_trials=10000)
        assert not policy.satisfied(4, 8)  # interval straddles the target
        assert policy.satisfied(8, 8)  # entirely above
        assert policy.satisfied(0, 8)  # entirely below
        # Boundary targets are legal; a matching true rate never decides.
        zero = FailRateTargetPolicy(target=0.0, min_trials=8, max_trials=100)
        assert not zero.satisfied(0, 100)

    def test_outcome_rate_target_validation_and_stop_rule(self):
        from repro.experiments import OutcomeRateTargetPolicy

        with pytest.raises(ConfigurationError):
            OutcomeRateTargetPolicy(
                outcome="", target=0.5, min_trials=1, max_trials=10
            )
        with pytest.raises(ConfigurationError):
            OutcomeRateTargetPolicy(
                outcome="3", target=1.5, min_trials=1, max_trials=10
            )
        policy = OutcomeRateTargetPolicy(
            outcome="3", target=0.5, min_trials=8, max_trials=10000
        )
        # Histogram keys match by str() form: int 3 counts toward "3".
        assert policy.satisfied(0, 8, counts={3: 8})  # entirely above
        assert policy.satisfied(0, 8, counts={1: 8})  # entirely below (0/8)
        assert not policy.satisfied(0, 8, counts={3: 4, 1: 4})  # straddles
        # No counters reaching the rule means it must never fire blind.
        assert not policy.satisfied(8, 8, counts=None)
        assert not policy.satisfied(8, 8)
        # Below the trial floor nothing fires either.
        assert not policy.satisfied(0, 4, counts={3: 4})

    def test_outcome_rate_target_round_trips_through_manifest_json(self):
        from repro.experiments import BudgetPolicy, OutcomeRateTargetPolicy

        raw = {
            "policy": "outcome-rate-target",
            "outcome": "FAIL",
            "target": 0.25,
            "min_trials": 16,
            "max_trials": 512,
        }
        policy = BudgetPolicy.from_mapping(raw)
        assert isinstance(policy, OutcomeRateTargetPolicy)
        assert policy.to_key() == {**raw, "z": 1.96}

    def test_outcome_rate_target_stops_a_run_on_one_outcome(self):
        """End-to-end: the biased coin lands every trial on parity 0, so
        a budget watching outcome "0" against a 50% bar stops at the
        first batch boundary — distribution-level convergence the
        success-proportion policies cannot express."""
        from repro.experiments import OutcomeRateTargetPolicy

        result = run_scenario(
            "cointoss/biased-coin",
            params={"n": 8, "target": 4},
            budget=OutcomeRateTargetPolicy(
                outcome="0", target=0.5, min_trials=16, max_trials=4096
            ),
        )
        assert result.trials == 16
        assert result.distribution.counts == {0: 16}

    def test_adaptive_runs_converge_per_policy(self):
        """End-to-end: each policy stops a deterministic 100%-success
        attack at its own (deterministic) batch boundary."""
        from repro.experiments import FailRateTargetPolicy, RelativePrecisionPolicy

        args = dict(
            params={"n": 16, "target": 5},
            keep_outcomes=False,
        )
        relative = run_scenario(
            "attack/basic-cheat",
            budget=RelativePrecisionPolicy(
                rel_precision=0.05, min_trials=8, max_trials=1000
            ),
            **args,
        )
        assert relative.trials < 1000 and relative.success_rate == 1.0
        decided = run_scenario(
            "attack/basic-cheat",
            budget=FailRateTargetPolicy(target=0.5, min_trials=8, max_trials=1000),
            **args,
        )
        assert decided.trials == 8  # decided at the first boundary
        assert decided.to_row()["budget"]["policy"] == "fail-rate-target"

    def test_policy_rows_are_worker_invariant(self):
        from repro.experiments import FailRateTargetPolicy

        def row(workers):
            return run_scenario(
                "fuzz/random-deviation",
                params={"n": 16, "k": 2},
                budget=FailRateTargetPolicy(
                    target=0.9, min_trials=8, max_trials=128
                ),
                workers=workers,
                keep_outcomes=False,
            ).to_row()

        assert row(1) == row(4)


class TestStreamedOutcomes:
    def test_stream_cap_bounds_every_payload(self):
        from repro.experiments.pool import STREAM_CHUNK_TRIALS
        from repro.experiments.runner import chunk_payloads
        from repro.experiments.scenario import get_scenario

        spec = get_scenario("sync/broadcast")
        params = spec.resolve_params(None)
        payloads = chunk_payloads(
            spec, params, 0, range(10 * STREAM_CHUNK_TRIALS), False, None,
            workers=2, chunk_size=10 * STREAM_CHUNK_TRIALS,
            max_chunk=STREAM_CHUNK_TRIALS,
        )
        assert len(payloads) == 10
        assert all(
            len(payload[3]) <= STREAM_CHUNK_TRIALS for payload in payloads
        )

    def test_packed_chunk_roundtrips_the_trial_list(self):
        from repro.experiments.runner import (
            _run_chunk,
            _run_chunk_packed,
            _unpack_chunk,
            chunk_payloads,
        )
        from repro.experiments.scenario import get_scenario

        spec = get_scenario("fullinfo/baton")
        params = spec.resolve_params({"n": 8, "k": 2})
        (payload,) = chunk_payloads(
            spec, params, 3, range(12), False, None, chunk_size=12
        )
        assert _unpack_chunk(_run_chunk_packed(payload)) == _run_chunk(payload)

    def test_parallel_on_outcome_sees_every_trial_once(self):
        seen = []
        with WorkerPool(4) as pool:
            streamed = run_scenario(
                "fullinfo/baton",
                trials=300,
                params={"n": 8, "k": 2},
                pool=pool,
                keep_outcomes=True,
                on_outcome=seen.append,
            )
        serial = run_scenario(
            "fullinfo/baton", trials=300, params={"n": 8, "k": 2}
        )
        assert sorted(t.index for t in seen) == list(range(300))
        assert streamed.outcomes == serial.outcomes  # both index-sorted
        assert streamed.to_row() == serial.to_row()


def _double(x):
    return x * 2


def _explode(x):
    raise ValueError(f"boom on {x}")


class TestLifetimeCounters:
    """``pool.counters()``: the observability mirror behind the
    ``repro_pool_chunks_total`` metric. Counters never affect
    scheduling; they just have to be consistent."""

    def test_fresh_pool_reports_zeros(self):
        with WorkerPool(1) as pool:
            assert pool.counters() == {
                "dispatched": 0, "completed": 0, "failed": 0
            }

    def test_serial_path_counts_each_payload(self):
        with WorkerPool(1) as pool:
            assert list(pool.imap_unordered(_double, [1, 2, 3])) == [2, 4, 6]
            assert pool.counters() == {
                "dispatched": 3, "completed": 3, "failed": 0
            }

    def test_serial_failure_is_counted_and_reraised(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError):
                list(pool.imap_unordered(_explode, [1]))
            counters = pool.counters()
            assert counters["failed"] == 1
            assert counters["completed"] == 0

    def test_parallel_path_counts_match_the_work(self):
        with WorkerPool(2) as pool:
            results = sorted(pool.imap_unordered(_double, [1, 2, 3, 4, 5]))
            assert results == [2, 4, 6, 8, 10]
            counters = pool.counters()
        assert counters["dispatched"] == 5
        assert counters["completed"] == 5
        assert counters["failed"] == 0

    def test_counters_accumulate_across_runs(self):
        with WorkerPool(1) as pool:
            list(pool.imap_unordered(_double, [1]))
            list(pool.imap_unordered(_double, [2, 3]))
            assert pool.counters()["completed"] == 3


class _SlowFirstTrial:
    """A trial that sleeps ``delay`` seconds on its first call only —
    in-process state, so it only means something at ``workers=1``."""

    def __init__(self, delay):
        self.delay = delay

    def __call__(self, params, registry, max_steps):
        delay, self.delay = self.delay, 0.0
        time.sleep(delay)
        return 1, 1


class TestSerialCampaignDeadline:
    def test_point_timeout_clock_arms_at_first_chunk_result(self):
        """A ``workers=1`` campaign runs chunks inline, so all that comes
        before a point's first result is that chunk itself. A first
        chunk slower than the whole timeout must not cost the point its
        budget: the clock starts when the chunk's result arrives."""
        spec = ScenarioSpec(
            name="test/slow-first",
            description="first trial sleeps, the rest are instant",
            run_trial=_SlowFirstTrial(0.4),
            defaults={"n": 4},
            tags=("test",),
        )
        register_scenario(spec, replace=True)
        try:
            (result,) = run_campaign(
                [CampaignPoint(spec.name, {"n": 4}, 3, 0, None, None)],
                workers=1,
                chunk_size=1,
                point_timeout=0.2,
            )
        finally:
            unregister_scenario(spec.name)
        assert result.trials == 3
        assert not result.timed_out


class TestPointDriver:
    """The driver takes ``now`` from its caller, so the deadline rules
    are pinned on a fake clock — no sleeps, any host."""

    def _driver(self, trials, **kwargs):
        points = [
            CampaignPoint("sync/broadcast", {"n": 4}, count, 0, None, None)
            for count in trials
        ]

        def one_trial_units(state, start, end):
            return [(state.point_id, i) for i in range(start, end)]

        return PointDriver(
            points,
            {"sync/broadcast": get_scenario("sync/broadcast")},
            one_trial_units,
            max_active=1,
            **kwargs,
        )

    @staticmethod
    def _arrive(driver, now):
        point_id, _ = driver.queue.popleft()
        return driver.arrive(point_id, ({1: 1}, 1, 0, 1), now)

    def test_clock_arms_at_first_result_not_admission(self):
        driver = self._driver([5], point_timeout=10.0)
        assert driver.admit() == []
        assert self._arrive(driver, 100.0) == []  # arms: expires at 110
        assert self._arrive(driver, 105.0) == []
        (result,) = self._arrive(driver, 110.0)
        assert result.timed_out and result.trials == 3
        assert not driver.queue and not driver.active
        assert not driver.deadline_hit()

    def test_wall_deadline_drains_and_owes_the_rest(self):
        driver = self._driver([3, 3], wall_deadline=50.0)
        driver.admit()
        assert self._arrive(driver, 10.0) == []
        (result,) = self._arrive(driver, 60.0)
        assert result.timed_out and result.trials == 2
        assert not driver.active
        assert driver.pending == 1 and driver.deadline_hit()

    def test_wall_deadline_spares_a_complete_point(self):
        driver = self._driver([1], wall_deadline=0.0)
        driver.admit()
        (result,) = self._arrive(driver, 5.0)
        assert not result.timed_out and result.trials == 1
        assert driver.draining and not driver.deadline_hit()
