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
- The cold rule, when the model has no evidence: a kernel range is
  split at most once per worker (no chunk over ``CALIBRATION_TRIALS``),
  a scalar-loop range ``count // (workers * 4)`` trials a chunk; and a
  scenario's kernel and scalar loop never share one cost estimate.
"""

import argparse
import json
import random
import threading

import pytest

from repro.experiments import (
    CALIBRATION_TRIALS,
    TARGET_CHUNK_SECONDS,
    AdaptiveChunker,
    CampaignPoint,
    WilsonWidthPolicy,
    WorkerPool,
    as_policy,
    get_scenario,
    lease_fold,
    run_scenario,
    timing_record,
)
from repro.experiments.campaign import PointDriver, _ChunkCutter, _drive
from repro.experiments.runner import chunk_payloads, cost_key

BATCHED = "cointoss/biased-coin"  # vectorized run_batch kernel
EXECUTOR = "attack/basic-cheat"  # per-trial executor simulation
MIXED_RATE = "fullinfo/baton"  # batched, p far from 0 and 1
SCALAR_ONLY = "sync/last-round-cheat"  # no run_batch kernel at all


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
        # The CLI replays one model from the --out store and hands that
        # instance to the campaign as its chunker.
        from repro import cli

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 4,
            "entries": [{"scenario": BATCHED, "grid": {"n": [8, 12]}}],
        }))
        argv = ["campaign", str(manifest), "--out", str(tmp_path / "rows.db")]
        assert cli.main(argv) == 0  # records the timings
        seen = {}
        real_run_campaign = cli.run_campaign

        def spy(points, **kwargs):
            seen.update(kwargs)
            return real_run_campaign(points, **kwargs)

        monkeypatch.setattr(cli, "run_campaign", spy)
        assert cli.main(argv) == 0
        assert seen["chunker"].per_trial_seconds(BATCHED) is not None


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
        cold = chunk_payloads(
            spec, spec.defaults, 0, range(100), workers=4,
        )
        assert [len(p[3]) for p in cold] == [25] * 4  # one per worker
        # The scalar-loop control keeps the count heuristic.
        scalar = chunk_payloads(
            spec, spec.defaults, 0, range(100), workers=4, use_batch=False,
        )
        assert len(scalar) == 17  # 100 // 16 = 6 trials per chunk


def draw_params(rng: random.Random, scenario: str) -> dict:
    n = rng.choice([8, 12, 16])
    return {"n": n, "target": rng.randint(2, 4)}


def run_inline(
    scenario,
    trials,
    params=None,
    budget=None,
    *,
    workers,
    base_seed=0,
    chunker=None,
    chunk_size=None,
    use_batch=True,
    keep_outcomes=True,
    max_steps=None,
):
    """One experiment cut for ``workers`` workers but run in-process:
    ``run_scenario``'s one-point driver, dispatched on a serial pool, so
    the ``workers``-worker chunk layout runs with no processes. Unlike
    ``run_scenario``, ``chunker=None`` keeps the cold sizing rule of
    ``chunk_payloads``."""
    spec = get_scenario(scenario)
    point = CampaignPoint(
        spec.name,
        spec.resolve_params(params),
        trials,
        base_seed,
        max_steps,
        as_policy(budget),
    )
    driver = PointDriver(
        [point],
        {spec.name: spec},
        _ChunkCutter(
            workers,
            chunk_size,
            chunker,
            use_batch=use_batch,
            keep_outcomes=keep_outcomes,
        ),
        max_active=1,
        chunker=chunker if chunk_size is None else None,
    )
    (result,) = _drive(driver, WorkerPool(1), chunker)
    return result


def rows_for(scenario, trials, params, budget=None, **layout):
    result = run_inline(
        scenario, trials, params, budget, base_seed=11, keep_outcomes=False, **layout
    )
    return json.dumps(result.to_row(), sort_keys=True), result


#: Every chunking mode, as ``run_inline`` layouts: the 4-worker modes
#: run in-process (same chunking, no processes) so the matrix stays
#: fast, and ``chunker=None`` is the cold static rule.
MODES = {
    "chunk1-w1": dict(workers=1, chunk_size=1),
    "static-w4": dict(workers=4),
    "adaptive-w1": dict(workers=1, chunker=None),  # fresh per run below
    "adaptive-w4": dict(workers=4, chunker=None),
    "seeded-w4": dict(workers=4, chunker=None),
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
        the chunker knows the per-trial cost — and, with no evidence at
        all, as soon as sizing knows the kernel runs it."""
        budget = lambda: WilsonWidthPolicy(  # noqa: E731
            ci_width=0.1, min_trials=32, max_trials=4096
        )
        scalar_key = cost_key(get_scenario(MIXED_RATE), use_batch=False)
        static_row, static = rows_for(
            MIXED_RATE, None, {"n": 16}, budget=budget(),
            workers=4, use_batch=False,
        )
        seeded_row, adaptive = rows_for(
            MIXED_RATE, None, {"n": 16}, budget=budget(),
            workers=4, use_batch=False,
            chunker=seeded(1e-6, scalar_key),
        )
        cold_row, cold = rows_for(
            MIXED_RATE, None, {"n": 16}, budget=budget(),
            workers=4,
        )
        assert seeded_row == static_row == cold_row
        assert adaptive.trials == static.trials == cold.trials
        # Static scalar loop: ~16 chunks per doubling batch. Seeded
        # adaptive: one chunk per batch (microsecond trials never
        # split). The exact ratio depends on how many batches the stop
        # rule needs, but an integer multiple survives any in-run EWMA
        # drift.
        assert adaptive.dispatches * 4 <= static.dispatches
        assert adaptive.dispatches >= 1
        # Cold kernel: exactly one chunk per worker per batch (no batch
        # here exceeds 4 * CALIBRATION_TRIALS trials).
        batches = sum(1 for end in budget().batch_ends() if end <= cold.trials)
        assert cold.trials <= 4 * CALIBRATION_TRIALS
        assert cold.dispatches == 4 * batches

    def test_fixed_point_probe_then_one_chunk(self):
        """A large fixed point of an unseen scenario: one calibration
        chunk, then the evidence-sized remainder — not 16 static
        scalar-loop chunks."""
        trials = 3 * CALIBRATION_TRIALS
        params = {"n": 16, "target": 5}
        runs = {
            name: rows_for(BATCHED, trials, params, workers=4, **kw)
            for name, kw in {
                "static": {},
                "adaptive": {"chunker": AdaptiveChunker()},
                "static-scalar": {"use_batch": False},
                "adaptive-scalar": {"use_batch": False, "chunker": AdaptiveChunker()},
            }.items()
        }
        assert len({row for row, _ in runs.values()}) == 1
        dispatches = {name: result.dispatches for name, (_, result) in runs.items()}
        # Cold kernel: 192-trial chunks, one per worker.
        assert dispatches["static"] == 4
        # Cold scalar loop: 48-trial chunks (count // 16).
        assert dispatches["static-scalar"] == 16
        # probe + a handful of measured chunks, whatever this machine's
        # timers said (a gross measurement still beats the static 16).
        assert dispatches["adaptive-scalar"] <= 8
        assert dispatches["adaptive"] <= 8

    def test_run_scenario_defaults_to_adaptive(self):
        # keep_outcomes (the default) runs the scalar loop, which at
        # workers=1 cold-splits 768 trials into 4 static chunks; the
        # probe path does better and proves the default engaged.
        result = run_scenario(
            BATCHED, trials=3 * CALIBRATION_TRIALS, base_seed=11,
        )
        assert len(result.outcomes) == 3 * CALIBRATION_TRIALS
        assert result.dispatches <= 3


def chunk_lengths(scenario, count, workers, **kwargs):
    spec = get_scenario(scenario)
    payloads = chunk_payloads(
        spec, spec.defaults, 0, range(count), workers=workers, **kwargs
    )
    lengths = [len(p[3]) for p in payloads]
    assert sum(lengths) == count
    return lengths


class TestColdChunkSizing:
    """With no evidence, chunks are sized by the path that runs them."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("count", [1, 3, 64, 100, 255, 256])
    def test_kernel_point_splits_at_most_once_per_worker(self, workers, count):
        for total in (count, count * workers):
            lengths = chunk_lengths(BATCHED, total, workers)
            assert len(lengths) <= workers
            assert max(lengths) <= CALIBRATION_TRIALS

    def test_kernel_cap_holds_at_one_worker(self):
        count = 2 * CALIBRATION_TRIALS + 88
        assert chunk_lengths(BATCHED, count, 1) == [
            CALIBRATION_TRIALS, CALIBRATION_TRIALS, 88
        ]
        assert chunk_lengths(BATCHED, 4 * CALIBRATION_TRIALS, 2) == [
            CALIBRATION_TRIALS
        ] * 4

    @pytest.mark.parametrize(
        "scenario, kwargs",
        [
            (SCALAR_ONLY, {}),
            (BATCHED, {"use_batch": False}),
            (BATCHED, {"keep_outcomes": True}),
            (BATCHED, {"max_steps": 10**6}),
        ],
        ids=["no-kernel", "use_batch=False", "keep_outcomes", "max_steps"],
    )
    @pytest.mark.parametrize("workers", [1, 4])
    def test_scalar_path_keeps_the_count_heuristic(self, scenario, kwargs, workers):
        lengths = chunk_lengths(scenario, 1000, workers, **kwargs)
        size = 1000 // (workers * 4)
        assert set(lengths[:-1]) == {size}
        assert len(lengths) == -(-1000 // size)


class TestKernelAndScalarCostsAreSeparate:
    """One scenario's kernel and scalar loop differ by orders of
    magnitude per trial, so the cost model keys them apart."""

    EXPENSIVE = {"n": 64}  # attack/basic-cheat: ms per scalar trial

    def test_cost_keys(self):
        spec = get_scenario(EXECUTOR)
        assert cost_key(spec) == EXECUTOR
        scalar = cost_key(spec, max_steps=10**6)
        assert scalar != EXECUTOR
        assert cost_key(spec, use_batch=False) == scalar
        assert cost_key(spec, keep_outcomes=True) == scalar
        # A scenario with no kernel has one path and one key.
        assert cost_key(get_scenario(SCALAR_ONLY), max_steps=10**6) == SCALAR_ONLY

    def test_scalar_timings_do_not_shred_the_kernel_point(self):
        """A scalar-loop point (custom ``max_steps``) of a scenario
        followed by a large kernel point of the same scenario, on one
        chunker: the kernel point must not be cut to the scalar loop's
        per-trial cost (hundreds of sub-millisecond chunks), and the
        scalar loop must not inherit the kernel's cost either."""
        chunker = AdaptiveChunker()
        spec = get_scenario(EXECUTOR)
        params = spec.resolve_params(self.EXPENSIVE)
        scalar_key = cost_key(spec, max_steps=10**6)
        run_inline(
            EXECUTOR, 8, params, workers=2, chunker=chunker,
            keep_outcomes=False, max_steps=10**6,
        )
        assert chunker.per_trial_seconds(scalar_key) is not None
        kernel = run_inline(
            EXECUTOR, 20_000, params, workers=2, chunker=chunker,
            keep_outcomes=False,
        )
        # One calibration chunk, then the evidence-sized remainder.
        assert kernel.dispatches <= 8
        # The reverse: a scalar point sized after the kernel ran stays
        # cut to the scalar loop's cost, not shipped as one huge chunk.
        scalar_payloads = chunk_payloads(
            spec, params, 0, range(2000), max_steps=10**6,
            workers=2, chunker=chunker,
        )
        per_trial = chunker.per_trial_seconds(scalar_key)
        assert len(scalar_payloads) > 2
        assert max(len(p[3]) for p in scalar_payloads) <= max(
            1, int(TARGET_CHUNK_SECONDS / per_trial)
        )

    def test_every_cost_site_keys_by_path(self, capsys):
        spec = get_scenario(BATCHED)
        params = spec.resolve_params({"n": 8})
        scalar_key = cost_key(spec, max_steps=10**6)
        # The --out store's timing record.
        result = run_scenario(
            BATCHED, trials=4, params=params, keep_outcomes=False,
            max_steps=10**6,
        )
        assert timing_record(result)[0] == scalar_key
        result = run_scenario(BATCHED, trials=4, params=params, keep_outcomes=False)
        assert timing_record(result)[0] == BATCHED
        # The campaign dry run's estimate: only the max_steps point runs
        # on the scalar path the model has seen.
        from repro.cli import _campaign_dry_run

        model = AdaptiveChunker()
        model.observe(scalar_key, 10, 1.0)
        budgeted = CampaignPoint(BATCHED, params, 10, 0, 10**6, None)
        default = CampaignPoint(BATCHED, params, 10, 0, None, None)
        args = argparse.Namespace(resume=False, out=None, workers=1)
        _campaign_dry_run(args, [budgeted, default], model, set())
        priced, unpriced = capsys.readouterr().out.splitlines()
        assert priced.endswith(" est=1.00s")
        assert "est=" not in unpriced
        # A node's lease fold.
        chunker = AdaptiveChunker()
        lease = {
            "lease": 1, "point": 0, "scenario": BATCHED, "params": params,
            "base_seed": 0, "start": 0, "end": 8, "max_steps": 10**6,
        }
        with WorkerPool(1) as pool:
            lease_fold(lease, pool, chunker)
        assert chunker.scenarios() == [scalar_key]


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
