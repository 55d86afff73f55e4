"""Cost-adaptive chunk sizing: the sizing math and its one contract.

Two layers, pinned separately:

- :class:`AdaptiveChunker` unit behavior — unseen scenarios decline
  (``None``), the target/balanced/floor clamps compose in the
  documented priority order, the calibration probe fires only where the
  split can pay for itself, and malformed observations are rejected.
- The contract that makes adaptive sizing free to take: **chunking
  never affects row bytes**. Rows from pinned ``chunk_size=1``, the
  static heuristic, a cold adaptive chunker (probe path included), and
  a pre-seeded adaptive chunker are compared byte-for-byte at 1 and 4
  workers, over seeded-random parameter draws of one batched and one
  executor-backed scenario, for fixed and adaptive trial budgets.
- What the machinery buys: a budgeted point's dispatch count drops by
  an integer multiple under a seeded chunker, while trial counts (the
  worker-invariance of stop decisions) stay identical.
"""

import json
import random
import threading

import pytest

from repro.experiments import (
    CALIBRATION_TRIALS,
    AdaptiveChunker,
    ExperimentRunner,
    WilsonWidthPolicy,
    get_scenario,
    run_scenario,
)
from repro.experiments.runner import chunk_payloads

BATCHED = "cointoss/biased-coin"  # vectorized run_batch kernel
EXECUTOR = "attack/basic-cheat"  # per-trial executor simulation
MIXED_RATE = "fullinfo/baton"  # batched, p far from 0 and 1


def seeded(per_trial_seconds: float, scenario: str = "any") -> AdaptiveChunker:
    """A chunker whose cost model knows ``scenario`` costs exactly
    ``per_trial_seconds`` (one observation, so the EWMA equals it)."""
    chunker = AdaptiveChunker()
    assert chunker.observe(scenario, 1_000_000, per_trial_seconds * 1_000_000)
    return chunker


class TestAdaptiveChunkerSizing:
    def test_unseen_scenario_declines(self):
        chunker = AdaptiveChunker()
        assert chunker.chunk_size("never-seen", 10_000, workers=4) is None
        assert chunker.per_trial_seconds("never-seen") is None

    def test_empty_range_declines(self):
        assert seeded(1e-6).chunk_size("any", 0, workers=4) is None

    def test_target_caps_expensive_scenarios(self):
        # 10 ms/trial with a 0.25 s target: 25 trials per chunk, however
        # many are requested — deadline checks stay responsive.
        chunker = AdaptiveChunker()
        chunker.observe("slow", 100, 1.0)  # 10 ms/trial
        assert chunker.chunk_size("slow", 100_000, workers=1) == 25

    def test_balanced_split_when_cheap_and_large(self):
        # 1 µs/trial, 1M trials, 4 workers: the even split (250k) is
        # under the 250k-trial target cap, so load balance wins.
        assert seeded(1e-6).chunk_size("any", 1_000_000, workers=4) == 250_000

    def test_floor_overrides_load_balance_for_cheap_work(self):
        # 1 µs/trial means any chunk under 50k trials costs less than
        # MIN_CHUNK_SECONDS: a 100k range is cut in 2, never in 4.
        assert seeded(1e-6).chunk_size("any", 100_000, workers=4) == 50_000

    def test_tiny_cheap_range_is_one_chunk(self):
        # A 32-trial adaptive batch of microsecond trials must never be
        # shredded for load balance — this is where the static heuristic
        # lost its factor.
        assert seeded(1e-6).chunk_size("any", 32, workers=4) == 32

    def test_size_never_exceeds_count(self):
        # The floor asks for 50k-trial chunks; only 3 trials exist.
        assert seeded(1e-6).chunk_size("any", 3, workers=1) == 3

    def test_garbage_observations_are_rejected_not_raised(self):
        chunker = AdaptiveChunker()
        assert not chunker.observe("any", 0, 1.0)
        assert not chunker.observe("any", 100, -1.0)
        assert chunker.chunk_size("any", 100, workers=1) is None

    def test_shared_cost_model_is_shared(self, tmp_path, monkeypatch):
        # The CLI replays one model from the --out store and hands the
        # same instance to the longest-first scheduler and the campaign.
        from repro import cli

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 4,
            "entries": [{"scenario": BATCHED, "grid": {"n": [8, 12]}}],
        }))
        argv = ["campaign", str(manifest), "--out", str(tmp_path / "rows.db"),
                "--schedule", "longest-first"]
        assert cli.main(argv) == 0  # records the timings
        seen = {}
        real_run_campaign = cli.run_campaign

        def spy(points, **kwargs):
            seen.update(kwargs)
            return real_run_campaign(points, **kwargs)

        monkeypatch.setattr(cli, "run_campaign", spy)
        assert cli.main(argv) == 0
        chunker = seen["chunker"]
        assert seen["schedule"].cost_model is chunker
        assert chunker.per_trial_seconds(BATCHED) is not None


class TestCalibrationProbe:
    def test_small_ranges_skip_the_probe(self):
        chunker = AdaptiveChunker()
        assert chunker.calibration_trials("x", 2 * CALIBRATION_TRIALS) == 0

    def test_large_unseen_range_probes(self):
        chunker = AdaptiveChunker()
        assert (
            chunker.calibration_trials("x", 2 * CALIBRATION_TRIALS + 1)
            == CALIBRATION_TRIALS
        )

    def test_observed_scenario_skips_the_probe(self):
        assert seeded(1e-6).calibration_trials("any", 10**6) == 0


class TestExplicitChunkSizeWins:
    def test_chunk_payloads_precedence(self):
        spec = get_scenario(BATCHED)
        chunker = seeded(1e-6, spec.name)
        pinned = chunk_payloads(
            spec, spec.defaults, 0, range(100), workers=4,
            chunk_size=7, chunker=chunker,
        )
        assert [len(p[3]) for p in pinned][:2] == [7, 7]
        adaptive = chunk_payloads(
            spec, spec.defaults, 0, range(100), workers=4, chunker=chunker,
        )
        assert len(adaptive) == 1  # 100 µs of work: one chunk
        static = chunk_payloads(
            spec, spec.defaults, 0, range(100), workers=4,
        )
        assert len(static) == 17  # 100 // 16 = 6 trials per chunk


def draw_params(rng: random.Random, scenario: str) -> dict:
    n = rng.choice([8, 12, 16])
    return {"n": n, "target": rng.randint(2, 4)}


def rows_for(scenario, trials, params, budget=None, **runner_kwargs):
    runner = ExperimentRunner(**runner_kwargs)
    try:
        result = runner.run(
            scenario,
            trials,
            base_seed=11,
            params=params,
            keep_outcomes=False,
            budget=budget,
        )
        return json.dumps(result.to_row(), sort_keys=True), result
    finally:
        runner.close()


#: Every chunking mode the runner supports, as ExperimentRunner kwargs.
#: parallel=False keeps the 4-worker modes in-process (same chunking,
#: no processes) so the matrix stays fast.
MODES = {
    "chunk1-w1": dict(workers=1, chunk_size=1),
    "static-w4": dict(workers=4, parallel=False),
    "adaptive-w1": dict(workers=1, chunker=None),  # fresh per run below
    "adaptive-w4": dict(workers=4, parallel=False, chunker=None),
    "seeded-w4": dict(workers=4, parallel=False, chunker=None),
}


def mode_kwargs(name, scenario):
    kwargs = dict(MODES[name])
    if name.startswith("adaptive"):
        kwargs["chunker"] = AdaptiveChunker()
    elif name.startswith("seeded"):
        kwargs["chunker"] = seeded(1e-6, scenario)
    return kwargs


class TestRowsAreChunkingInvariant:
    """The determinism contract, mode x mode: byte-identical rows."""

    @pytest.mark.parametrize("case", range(3))
    def test_batched_fixed_trials(self, case):
        # > 2*CALIBRATION_TRIALS so the cold adaptive modes exercise the
        # probe split as well as the adaptive remainder.
        rng = random.Random(1000 + case)
        params = draw_params(rng, BATCHED)
        trials = 2 * CALIBRATION_TRIALS + rng.randint(50, 400)
        baseline, _ = rows_for(
            BATCHED, trials, params, **mode_kwargs("chunk1-w1", BATCHED)
        )
        for name in MODES:
            row, _ = rows_for(
                BATCHED, trials, params, **mode_kwargs(name, BATCHED)
            )
            assert row == baseline, name

    @pytest.mark.parametrize("case", range(2))
    def test_executor_fixed_trials(self, case):
        rng = random.Random(2000 + case)
        params = draw_params(rng, EXECUTOR)
        baseline, _ = rows_for(
            EXECUTOR, 24, params, **mode_kwargs("chunk1-w1", EXECUTOR)
        )
        for name in MODES:
            row, _ = rows_for(
                EXECUTOR, 24, params, **mode_kwargs(name, EXECUTOR)
            )
            assert row == baseline, name

    def test_batched_adaptive_budget(self):
        # Worker-invariant stop decisions: every mode runs the same
        # batches, stops at the same boundary, emits the same bytes.
        budget = lambda: WilsonWidthPolicy(  # noqa: E731 - fresh per run
            ci_width=0.12, min_trials=32, max_trials=2048
        )
        baseline, base_result = rows_for(
            MIXED_RATE, None, {"n": 16}, budget=budget(),
            **mode_kwargs("chunk1-w1", MIXED_RATE)
        )
        assert 32 <= base_result.trials <= 2048
        for name in MODES:
            row, result = rows_for(
                MIXED_RATE, None, {"n": 16}, budget=budget(),
                **mode_kwargs(name, MIXED_RATE)
            )
            assert row == baseline, name
            assert result.trials == base_result.trials, name


class TestDispatchReduction:
    def test_budgeted_point_dispatches_drop(self):
        """The headline effect: an adaptive-budget point of a cheap
        batched scenario stops paying per-batch dispatch confetti once
        the chunker knows the per-trial cost."""
        budget = lambda: WilsonWidthPolicy(  # noqa: E731
            ci_width=0.1, min_trials=32, max_trials=4096
        )
        static_row, static = rows_for(
            MIXED_RATE, None, {"n": 16}, budget=budget(),
            workers=4, parallel=False,
        )
        seeded_row, adaptive = rows_for(
            MIXED_RATE, None, {"n": 16}, budget=budget(),
            workers=4, parallel=False, chunker=seeded(1e-6, MIXED_RATE),
        )
        assert seeded_row == static_row
        assert adaptive.trials == static.trials
        # Static: ~16 chunks per doubling batch. Seeded adaptive: one
        # chunk per batch (microsecond trials never split). The exact
        # ratio depends on how many batches the stop rule needs, but an
        # integer multiple survives any in-run EWMA drift.
        assert adaptive.dispatches * 4 <= static.dispatches
        assert adaptive.dispatches >= 1

    def test_fixed_point_probe_then_one_chunk(self):
        """A large fixed point of an unseen scenario: one calibration
        chunk, then the evidence-sized remainder — not 17 static
        chunks."""
        trials = 3 * CALIBRATION_TRIALS
        static_row, static = rows_for(
            BATCHED, trials, {"n": 16, "target": 5},
            workers=4, parallel=False,
        )
        adaptive_row, adaptive = rows_for(
            BATCHED, trials, {"n": 16, "target": 5},
            workers=4, parallel=False, chunker=AdaptiveChunker(),
        )
        assert adaptive_row == static_row
        assert static.dispatches == 16  # 48-trial chunks (count // 16)
        # probe + a handful of measured chunks, whatever this machine's
        # timers said (a gross measurement still beats the static 17).
        assert adaptive.dispatches <= 8

    def test_run_scenario_defaults_to_adaptive(self):
        result = run_scenario(
            BATCHED, trials=3 * CALIBRATION_TRIALS, base_seed=11,
            keep_outcomes=False,
        )
        # workers=1 static would be 4 chunks; the probe path does better
        # and proves the default engaged.
        assert result.dispatches <= 3


class TestThreadSafety:
    def test_concurrent_observe_and_read_paths(self):
        """The coordinator's HTTP threads and a campaign's fold loop
        share one chunker: observations, sizing reads, cost reads, and
        scenario listings race freely. Every read path must take the
        model lock — a torn read surfaces here as an exception or an
        impossible value under threading."""
        chunker = AdaptiveChunker()
        scenarios = [f"s{i}" for i in range(4)]
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for i in range(2000):
                    chunker.observe(
                        scenarios[i % 4], 100 + i % 7, 1e-4 * (1 + i % 3)
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    for name in scenarios:
                        per = chunker.per_trial_seconds(name)
                        assert per is None or per > 0
                        size = chunker.chunk_size(name, 10_000, workers=4)
                        assert size is None or size >= 1
                        probe = chunker.calibration_trials(name, 10_000)
                        assert probe >= 0
                    assert set(chunker.scenarios()) <= set(scenarios)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert set(chunker.scenarios()) == set(scenarios)
