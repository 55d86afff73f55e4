"""Campaign robustness: deadlines, observed-cost scheduling, crash-safe
resume. The unattended-overnight contract, end to end:

- a pathological grid point is abandoned under ``--point-timeout`` while
  every other point's row stays byte-identical to an unguarded run;
- the global ``--max-wall-clock`` deadline checkpoints and exits with a
  distinct code;
- timed-out rows, torn trailing lines, and blank lines can only cause a
  re-run, never a skip or a crash;
- the ``CostModel`` feeds ``longest-first`` observed per-trial seconds
  deterministically at any worker count;
- ``KeyboardInterrupt`` tears worker processes down and leaves a
  resumable ``--out`` file (exercised with a real subprocess kill).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import EXIT_DEADLINE, main
from repro.experiments import (
    CampaignDeadline,
    CampaignPoint,
    CostModel,
    PointScheduler,
    RowWriter,
    ScenarioSpec,
    WorkerPool,
    load_completed_keys,
    load_cost_model,
    register_scenario,
    row_resume_key,
    run_campaign,
    run_scenario,
    scheduled_cost,
    timing_record,
    timings_path,
    unregister_scenario,
)
from repro.util.errors import ConfigurationError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SLEEPY = "test/sleepy"


def _sleepy_trial(params, registry, max_steps):
    """One deterministic-outcome trial that burns ``delay`` wall-clock
    seconds — module-level so the spec pickles to forked workers."""
    time.sleep(params["delay"])
    return registry.stream("trial").randrange(params["n"]) + 1, 1


@pytest.fixture
def sleepy_scenario():
    spec = ScenarioSpec(
        name=SLEEPY,
        description="deterministic outcomes, configurable per-trial seconds",
        run_trial=_sleepy_trial,
        defaults={"n": 4, "delay": 0.005},
        tags=("test",),
    )
    register_scenario(spec, replace=True)
    yield spec
    unregister_scenario(SLEEPY)


def _point(scenario, params, trials, base_seed=0):
    return CampaignPoint(scenario, params, trials, base_seed, None, None)


def _row_set(results):
    return sorted(json.dumps(r.to_row(), sort_keys=True) for r in results)


class TestPointTimeout:
    def _manifest_points(self):
        # One pathological point (0.25s of sleeping) among fast ones.
        return [
            _point("attack/basic-cheat", {"n": 8, "cheater": 2, "target": 2}, 4),
            _point(SLEEPY, {"n": 4, "delay": 0.005}, 50),
            _point("sync/broadcast", {"n": 4}, 5),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slow_point_times_out_and_others_are_byte_identical(
        self, sleepy_scenario, workers
    ):
        """The acceptance contract: under --point-timeout the campaign
        completes, the slow point comes back timed_out, and every other
        point's row is byte-identical to an unguarded run."""
        points = self._manifest_points()
        unguarded = {
            r.scenario: json.dumps(r.to_row(), sort_keys=True)
            for r in run_campaign(points, workers=workers, chunk_size=1)
        }
        guarded = list(
            run_campaign(
                points, workers=workers, chunk_size=1, point_timeout=0.05
            )
        )
        assert len(guarded) == len(points)
        by_scenario = {r.scenario: r for r in guarded}
        slow = by_scenario[SLEEPY]
        assert slow.timed_out
        assert 0 < slow.trials < 50  # partial fold of what actually ran
        assert slow.to_row()["timed_out"] is True
        for result in guarded:
            if result.scenario == SLEEPY:
                continue
            assert not result.timed_out
            assert (
                json.dumps(result.to_row(), sort_keys=True)
                == unguarded[result.scenario]
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timed_out_row_is_retried_on_rerun(self, sleepy_scenario, workers):
        points = self._manifest_points()
        rows = [
            r.to_row()
            for r in run_campaign(
                points, workers=workers, chunk_size=1, point_timeout=0.05
            )
        ]
        completed = load_completed_keys(
            json.dumps(row, sort_keys=True) for row in rows
        )
        retried = [
            p for p in points if p.key() not in completed
        ]
        assert [p.scenario for p in retried] == [SLEEPY]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_clock_starts_at_first_result_not_admission(
        self, sleepy_scenario, workers
    ):
        """A fast point queued behind a slow one must not burn its
        timeout budget while starved (or while the pool spawns): with a
        timeout generous for each point but smaller than the first
        point's total runtime, the *second* point still completes."""
        points = [
            # 0.8s of sleeping: more than the timeout plus one dispatch
            # window on any core count.
            _point(SLEEPY, {"n": 4, "delay": 0.02}, 40),
            _point(SLEEPY, {"n": 8, "delay": 0.001}, 5),  # trivial
        ]
        results = {
            r.params["n"]: r
            for r in run_campaign(
                points, workers=workers, chunk_size=1, point_timeout=0.1
            )
        }
        assert results[4].timed_out
        assert not results[8].timed_out and results[8].trials == 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_completed_at_the_deadline_is_not_timed_out(
        self, sleepy_scenario, workers
    ):
        """A point whose final chunk folds after the deadline lapsed is
        complete — nothing was abandoned — and must NOT be stamped
        timed_out, or a point that deterministically overruns its budget
        would complete, be discarded, and retry forever on --resume."""
        points = [_point(SLEEPY, {"n": 4, "delay": 0.03}, 4)]  # 0.12s total
        (result,) = run_campaign(
            points, workers=workers, chunk_size=4, point_timeout=0.05
        )
        assert result.trials == 4
        assert not result.timed_out
        assert "timed_out" not in result.to_row()

    def test_timed_out_implies_strictly_partial(self, sleepy_scenario):
        """The invariant behind the resume contract: a timed_out row
        always records strictly fewer trials than requested, and a row
        with every requested trial is never timed_out — whatever the
        worker count or chunking (which decide *whether* the guard has
        anything left to cut)."""
        for workers in (1, 2):
            for chunk_size in (1, 4):
                (result,) = run_campaign(
                    [_point(SLEEPY, {"n": 4, "delay": 0.03}, 4)],
                    workers=workers,
                    chunk_size=chunk_size,
                    point_timeout=0.05,
                )
                assert result.timed_out == (result.trials < 4), (
                    workers, chunk_size, result.trials, result.timed_out
                )

    def test_adaptive_run_satisfied_at_the_deadline_is_not_timed_out(
        self, sleepy_scenario
    ):
        from repro.experiments import FailRateTargetPolicy

        point = CampaignPoint(
            SLEEPY, {"n": 4, "delay": 0.03}, None, 0, None,
            FailRateTargetPolicy(target=0.5, min_trials=4, max_trials=4),
        )
        (result,) = run_campaign(
            [point], workers=1, chunk_size=4, point_timeout=0.05
        )
        assert result.trials == 4
        assert not result.timed_out

    def test_nonpositive_timeouts_rejected(self):
        for kwargs in (
            {"point_timeout": 0},
            {"point_timeout": -1.5},
            {"point_timeout": float("nan")},  # would never fire: reject
            {"max_wall_clock": 0},
            {"max_wall_clock": float("nan")},
            {"max_wall_clock": True},
        ):
            with pytest.raises(ConfigurationError):
                run_campaign(
                    [_point("sync/broadcast", {"n": 4}, 2)], **kwargs
                )


class TestGlobalDeadline:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_deadline_checkpoints_and_raises(self, sleepy_scenario, workers):
        points = [
            _point(SLEEPY, {"n": 4, "delay": 0.01}, 30, base_seed=seed)
            for seed in range(6)  # ~1.8s of sleeping altogether
        ]
        results = []
        started = time.monotonic()
        with pytest.raises(CampaignDeadline) as excinfo:
            for result in run_campaign(
                points, workers=workers, chunk_size=1, max_wall_clock=0.15
            ):
                results.append(result)
        assert time.monotonic() - started < 1.5  # stopped early, not at the end
        # Every yielded row is either complete or explicitly timed out,
        # and what was never started is accounted for.
        finished = [r for r in results if not r.timed_out]
        assert excinfo.value.pending + len(results) <= len(points)
        for result in finished:
            assert result.trials == 30

    def test_deadline_checkpoint_never_clobbers_an_unseeded_out(
        self, sleepy_scenario, tmp_path, capsys
    ):
        """Without --resume, a pre-existing --out was never seeded into
        the staging file — a partial run's checkpoint must land in the
        staging file and leave yesterday's store untouched."""
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 40,
            "entries": [
                {"scenario": SLEEPY, "grid": {"delay": 0.01, "n": [4, 5]}},
            ],
        }))
        out = tmp_path / "rows.jsonl"
        out.write_text('{"precious": "yesterday"}\n')
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--max-wall-clock", "0.1"]) == EXIT_DEADLINE
        err = capsys.readouterr().err
        assert out.read_text() == '{"precious": "yesterday"}\n'
        tmp_file = tmp_path / "rows.jsonl.tmp"
        assert tmp_file.exists()
        assert str(tmp_file) in err  # the message points at the real checkpoint
        # A --resume run salvages the staging rows and finishes.
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume"]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert '{"precious": "yesterday"}' in lines
        assert len(load_completed_keys(lines)) == 2

    def test_cli_deadline_exit_code_and_resume(self, sleepy_scenario, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 40,
            "entries": [
                {"scenario": SLEEPY,
                 "grid": {"delay": 0.01, "n": [4, 5, 6, 7]}},
            ],
        }))
        out = tmp_path / "rows.jsonl"
        code = main(["campaign", str(manifest), "--out", str(out),
                     "--max-wall-clock", "0.2"])
        assert code == EXIT_DEADLINE
        err = capsys.readouterr().err
        assert "wall-clock deadline reached" in err
        assert "--resume" in err
        # The checkpoint landed in --out itself (not a stranded .tmp)...
        assert out.exists() and not (tmp_path / "rows.jsonl.tmp").exists()
        completed = load_completed_keys(out.read_text().splitlines())
        assert len(completed) < 4
        # ...and an unguarded --resume finishes exactly the remainder.
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume"]) == 0
        err = capsys.readouterr().err
        assert f"{4 - len(completed)} timed out" not in err  # all completed now
        final = load_completed_keys(out.read_text().splitlines())
        assert len(final) == 4


class TestTimedOutRowContract:
    def test_row_resume_key_refuses_timed_out_rows(self):
        row = run_scenario(
            "sync/broadcast", trials=3, params={"n": 4}
        ).to_row()
        assert row_resume_key(row)  # completed rows key fine
        with pytest.raises(ConfigurationError):
            row_resume_key(dict(row, timed_out=True))

    def test_loader_skips_timed_out_rows_and_reports_them(self):
        good = run_scenario("sync/broadcast", trials=3, params={"n": 4}).to_row()
        timed = dict(good, trials=1, timed_out=True)
        skips = []
        keys = load_completed_keys(
            [json.dumps(r, sort_keys=True) for r in (timed, good)],
            on_skip=lambda number, line, reason: skips.append((number, reason)),
        )
        assert keys == {row_resume_key(good)}
        assert skips == [(1, "timed-out")]


class TestTornTrailingLines:
    def test_truncated_and_blank_trailing_lines_skip_and_report(self):
        rows = [
            run_scenario(
                "sync/broadcast", trials=3, base_seed=seed, params={"n": 4}
            ).to_row()
            for seed in (0, 1)
        ]
        whole = json.dumps(rows[0], sort_keys=True)
        torn = json.dumps(rows[1], sort_keys=True)[:25]  # kill mid-append
        skips = []
        keys = load_completed_keys(
            [whole, torn, "   ", ""],
            on_skip=lambda number, line, reason: skips.append((number, reason)),
        )
        assert keys == {row_resume_key(rows[0])}
        assert skips == [(2, "malformed")]  # blanks skip silently

    def test_cli_resume_warns_about_torn_line_and_reruns_the_point(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 4,
            "entries": [
                {"scenario": "attack/basic-cheat",
                 "grid": {"n": [8, 12], "target": 2}},
                {"scenario": "sync/broadcast", "grid": {"n": 4}},
            ],
        }))
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        original = out.read_text().splitlines()
        # Simulate a kill mid-append of the final row.
        out.write_text("\n".join(original[:2]) + "\n" + original[2][:19])
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume"]) == 0
        err = capsys.readouterr().err
        assert "skipped 1 malformed line(s)" in err
        assert "ran 1 of 3 points" in err
        resumed = out.read_text().splitlines()
        # The torn fragment is preserved verbatim (foreign content is
        # never deleted from --out) but the damaged point's row was
        # regenerated, so the complete row set is whole again.
        assert original[2][:19] in resumed
        assert sorted(r for r in resumed if r != original[2][:19]) == sorted(
            original
        )


class TestRowWriter:
    def test_append_and_bulk_write_round_trip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with RowWriter(str(path)) as writer:
            writer.write_lines(["a\n", "b\n"])
            writer.append("c")
        assert path.read_text() == "a\nb\nc\n"
        with RowWriter(str(path), append=True) as writer:
            writer.append("d")
        assert path.read_text() == "a\nb\nc\nd\n"

    def test_directory_fsynced_exactly_when_file_is_created(
        self, tmp_path, monkeypatch
    ):
        """Creating the store file adds a directory entry; that entry
        must be fsynced or a crash can orphan every row fsynced into the
        file. Reopening an existing file adds no entry — no dir fsync."""
        import repro.experiments.sweep as sweep_mod

        synced = []
        monkeypatch.setattr(
            sweep_mod, "fsync_directory", lambda p: synced.append(p)
        )
        fresh = tmp_path / "fresh.jsonl"
        with RowWriter(str(fresh)):
            pass
        assert synced == [str(tmp_path)]

        synced.clear()
        with RowWriter(str(fresh), append=True):
            pass
        assert synced == []

        appended = tmp_path / "appended.jsonl"
        with RowWriter(str(appended), append=True):
            pass
        assert synced == [str(tmp_path)]


class TestCostModel:
    def test_ewma_per_trial_seconds(self):
        model = CostModel(alpha=0.5)
        assert not model.observed
        assert model.observe("a", 100, 1.0)  # 10ms/trial
        assert model.per_trial_seconds("a") == pytest.approx(0.01)
        assert model.observe("a", 100, 3.0)  # 30ms/trial -> EWMA 20ms
        assert model.per_trial_seconds("a") == pytest.approx(0.02)
        assert model.scenarios() == ["a"]

    def test_foreign_observations_rejected_not_raised(self):
        model = CostModel()
        for bad in (
            (None, 10, 1.0),
            ("a", 0, 1.0),
            ("a", True, 1.0),
            ("a", 10, 0),
            ("a", 10, "fast"),
            ("a", -5, 1.0),
            ("a", 10, float("nan")),  # json.loads accepts NaN/Infinity
            ("a", 10, float("inf")),
        ):
            assert not model.observe(*bad)
        assert not model.observed
        # Non-finite cost_units must not poison the per-unit tier either.
        assert model.observe("a", 10, 1.0, cost_units=float("nan"))
        assert model.per_trial_seconds("a") == pytest.approx(0.1)
        assert model.estimate_seconds(
            _point("sync/broadcast", {"n": 4}, 10)
        ) is None  # no per-unit calibration was absorbed

    def test_estimation_tiers(self, sleepy_scenario):
        seen = _point(SLEEPY, {"n": 4, "delay": 0.005}, 100)
        unseen = _point("sync/broadcast", {"n": 4}, 100)
        model = CostModel()
        assert model.estimate_seconds(seen) is None  # empty model
        model.observe(SLEEPY, 50, 1.0, cost_units=200)  # 20ms/trial, 5ms/unit
        assert model.estimate_seconds(seen) == pytest.approx(100 * 0.02)
        # Unseen scenario: proxy units x calibrated seconds-per-unit.
        units = scheduled_cost(unseen)
        assert model.estimate_seconds(unseen) == pytest.approx(units * 0.005)

    def test_timing_record_shape_and_exclusions(self):
        result = run_scenario("sync/broadcast", trials=5, params={"n": 4})
        record = timing_record(result)
        assert record["scenario"] == "sync/broadcast"
        assert record["trials"] == 5
        assert record["elapsed"] > 0
        assert record["cost"] == 5 * 4
        result.timed_out = True
        assert timing_record(result) is None  # guard artifacts never teach

    def test_load_cost_model_tolerates_missing_and_torn_files(self, tmp_path):
        assert not load_cost_model(str(tmp_path / "absent")).observed
        sidecar = tmp_path / "rows.jsonl.timings"
        record = {"scenario": "a", "trials": 10, "elapsed": 0.5, "cost": 40}
        sidecar.write_text(
            json.dumps(record) + "\n"
            + "[1, 2]\n"
            + "not json {\n"
            + json.dumps(record)[:11]  # torn tail
        )
        model = load_cost_model(str(sidecar))
        assert model.per_trial_seconds("a") == pytest.approx(0.05)

    def test_timings_path_is_a_sidecar(self):
        assert timings_path("rows.jsonl") == "rows.jsonl.timings"


class TestObservedCostScheduling:
    def _points(self):
        # Proxy cost says broadcast (5 trials x n=16) < cheat (50 x 8)...
        return [
            _point("sync/broadcast", {"n": 16}, 5),
            _point("attack/basic-cheat", {"n": 8, "cheater": 2, "target": 2}, 50),
        ]

    def _observed_model(self):
        # ...but observation says a broadcast trial is 1000x slower.
        model = CostModel()
        model.observe("sync/broadcast", 10, 10.0, cost_units=160)
        model.observe("attack/basic-cheat", 1000, 1.0, cost_units=8000)
        return model

    def test_observed_costs_override_the_proxy_ranking(self):
        points = self._points()
        proxy = PointScheduler("longest-first").order(points)
        assert [p.scenario for p in proxy] == [
            "attack/basic-cheat", "sync/broadcast"
        ]
        observed = PointScheduler(
            "longest-first", cost_model=self._observed_model()
        ).order(points)
        assert [p.scenario for p in observed] == [
            "sync/broadcast", "attack/basic-cheat"
        ]

    def test_plan_is_deterministic_and_worker_invariant(self):
        points = self._points()
        scheduler = lambda: PointScheduler(  # noqa: E731
            "longest-first", cost_model=self._observed_model()
        )
        assert scheduler().order(points) == scheduler().order(points)
        reference = _row_set(run_campaign(points, workers=1))
        for workers in (1, 4):
            rows = _row_set(
                run_campaign(points, workers=workers, schedule=scheduler())
            )
            assert rows == reference

    def test_manifest_order_ignores_the_model(self):
        points = self._points()
        scheduler = PointScheduler(
            "manifest-order", cost_model=self._observed_model()
        )
        assert scheduler.order(points) == points

    def test_partially_calibrated_model_falls_back_to_proxy_for_all(self):
        """A model with per-trial observations but no per-unit
        calibration (a sidecar of cost-less records) cannot price unseen
        scenarios in seconds — the plan must fall back to the proxy for
        every point instead of crashing or mixing scales."""
        points = self._points()
        model = CostModel()
        model.observe("sync/broadcast", 10, 10.0)  # no cost_units
        assert model.observed
        assert model.estimate_seconds(points[1]) is None  # unseen, no per-unit
        ordered = PointScheduler("longest-first", cost_model=model).order(points)
        assert ordered == PointScheduler("longest-first").order(points)

    def test_unknown_schedule_lists_known_names_even_with_a_model(self):
        with pytest.raises(ConfigurationError) as excinfo:
            PointScheduler("fastest-first", cost_model=CostModel())
        message = str(excinfo.value)
        assert "manifest-order" in message and "longest-first" in message


class TestCliTimingSidecarAndDryRun:
    def _manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 4,
            "entries": [
                {"scenario": "attack/basic-cheat",
                 "grid": {"n": [8, 12], "target": 2}},
                {"scenario": "sync/broadcast", "grid": {"n": 4}},
            ],
        }))
        return manifest

    def test_campaign_writes_the_timing_sidecar(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "rows.jsonl.timings").read_text().splitlines()
        ]
        assert len(records) == 3
        assert {r["scenario"] for r in records} == {
            "attack/basic-cheat", "sync/broadcast"
        }
        assert all(r["elapsed"] > 0 and r["cost"] > 0 for r in records)

    def test_dry_run_shows_estimates_and_makespan_after_a_real_run(
        self, tmp_path, capsys
    ):
        manifest = self._manifest(tmp_path)
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["campaign", str(manifest), "--dry-run",
                     "--out", str(out), "--schedule", "longest-first"]) == 0
        plan, err = capsys.readouterr()
        assert all("est=" in line for line in plan.splitlines())
        assert "observed-cost estimate" in err and "makespan" in err

    def test_dry_run_without_sidecar_prints_no_estimates(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        assert main(["campaign", str(manifest), "--dry-run"]) == 0
        plan, err = capsys.readouterr()
        assert "est=" not in plan
        assert "observed-cost estimate" not in err

    def test_dry_run_with_missing_out_reports_all_pending(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        assert main(["campaign", str(manifest), "--dry-run",
                     "--out", str(tmp_path / "never_written.jsonl")]) == 0
        plan, err = capsys.readouterr()
        assert all(line.startswith("pending") for line in plan.splitlines())
        assert "3 to run" in err

    def test_dry_run_with_unreadable_out_reports_all_pending(
        self, tmp_path, capsys
    ):
        manifest = self._manifest(tmp_path)
        unreadable = tmp_path / "rows.jsonl"
        unreadable.mkdir()  # opening a directory raises OSError
        assert main(["campaign", str(manifest), "--dry-run",
                     "--out", str(unreadable)]) == 0
        plan, err = capsys.readouterr()
        assert all(line.startswith("pending") for line in plan.splitlines())
        assert "warning: cannot read" in err

    def test_real_run_with_unreadable_out_still_dies(self, tmp_path):
        manifest = self._manifest(tmp_path)
        unreadable = tmp_path / "rows.jsonl"
        unreadable.mkdir()
        with pytest.raises(SystemExit):
            main(["campaign", str(manifest), "--out", str(unreadable),
                  "--resume"])

    def test_cli_point_timeout_validation(self, tmp_path):
        manifest = self._manifest(tmp_path)
        with pytest.raises(SystemExit):
            main(["campaign", str(manifest), "--point-timeout", "0"])
        with pytest.raises(SystemExit):
            main(["campaign", str(manifest), "--max-wall-clock", "-2"])
        with pytest.raises(SystemExit):
            main(["campaign", str(manifest), "--point-timeout", "nan"])

    def test_sweep_records_timing_sidecar(self, tmp_path, capsys):
        # Sweeps feed the same cost model campaigns do: the sidecar
        # seeds longest-first scheduling and adaptive chunk sizing for
        # every later run against the same --out.
        out = tmp_path / "rows.jsonl"
        assert main(["sweep", "--scenario", "sync/broadcast", "--trials", "3",
                     "--param", "n=4", "--out", str(out)]) == 0
        assert out.exists()
        sidecar = tmp_path / "rows.jsonl.timings"
        assert sidecar.exists()
        records = [json.loads(line)
                   for line in sidecar.read_text().splitlines() if line]
        assert any(rec.get("scenario") == "sync/broadcast" for rec in records)


class TestCliPointTimeoutResume:
    def test_timed_out_point_is_retried_by_resume(
        self, sleepy_scenario, tmp_path, capsys
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "entries": [
                {"scenario": "sync/broadcast", "grid": {"n": 4}, "trials": 5},
                {"scenario": SLEEPY, "trials": 64,
                 "grid": {"n": 4, "delay": 0.01}},
                {"scenario": "attack/basic-cheat", "trials": 4,
                 "grid": {"n": 8, "target": 2}},
            ],
        }))
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--point-timeout", "0.05"]) == 0
        err = capsys.readouterr().err
        assert "1 timed out" in err
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(bool(r.get("timed_out")) for r in rows) == 1
        # The second (guarded) run retries exactly the timed-out point.
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume", "--point-timeout", "0.05"]) == 0
        err = capsys.readouterr().err
        assert "timed-out row(s)" in err and "will be retried" in err
        assert "ran 1 of 3 points" in err
        # The stale timed-out row was replaced, not accumulated: one
        # fresh marker, never two.
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(bool(r.get("timed_out")) for r in rows) == 1
        # An unguarded resume completes the point; no marker survives.
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume"]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(bool(r.get("timed_out")) for r in rows) == 0
        assert len(rows) == 3
        completed = load_completed_keys(out.read_text().splitlines())
        assert len(completed) == 3

    def test_marker_superseded_by_a_completed_row_is_dropped(
        self, tmp_path, capsys
    ):
        """Shared-store healing: if some other run already completed the
        point without pruning (e.g. a sweep over the same file), the
        stale marker next to the completed row is dropped on the next
        campaign resume instead of double-counting the point forever."""
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 4,
            "entries": [
                {"scenario": "attack/basic-cheat",
                 "grid": {"n": [8, 12], "target": 2}},
                {"scenario": "sync/broadcast", "grid": {"n": 4}},
            ],
        }))
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        original = out.read_text().splitlines()
        stale = dict(json.loads(original[0]), trials=1, timed_out=True)
        out.write_text(
            json.dumps(stale, sort_keys=True) + "\n"
            + "\n".join(original) + "\n"
        )
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume"]) == 0
        err = capsys.readouterr().err
        assert "ran 0 of 3 points" in err
        assert sorted(out.read_text().splitlines()) == sorted(original)

    def test_timed_out_marker_survives_a_resume_that_never_retries_it(
        self, sleepy_scenario, tmp_path, capsys
    ):
        """A held-back marker is written back when its retry never runs:
        a resume cut short by the global deadline before reaching the
        timed-out point must not silently erase the record that the
        point is still owed."""
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "entries": [
                {"scenario": SLEEPY, "trials": 200, "base_seed": 1,
                 "grid": {"n": 4, "delay": 0.01}},
                {"scenario": SLEEPY, "trials": 64, "base_seed": 2,
                 "grid": {"n": 4, "delay": 0.01}},
            ],
        }))
        out = tmp_path / "rows.jsonl"
        # First run: both points time out.
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--point-timeout", "0.05"]) == 0
        capsys.readouterr()
        markers = out.read_text().splitlines()
        assert len(markers) == 2
        # Resume under a wall clock so tight the second point (and
        # possibly even the first) never produces a fresh row.
        code = main(["campaign", str(manifest), "--out", str(out),
                     "--resume", "--max-wall-clock", "0.08"])
        assert code == EXIT_DEADLINE
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        # Every point still has exactly one timed_out marker: fresh
        # where the retry ran, written back where it did not.
        identities = sorted(
            (r["base_seed"], bool(r.get("timed_out"))) for r in rows
        )
        assert identities == [(1, True), (2, True)]


class TestWorkerTeardown:
    def test_exception_in_context_terminates_workers(self):
        pool = WorkerPool(2)
        with pytest.raises(RuntimeError):
            with pool:
                pool.warm_up()
                workers = list(pool._pool._pool)
                raise RuntimeError("boom")
        for process in workers:
            process.join(10)
            assert not process.is_alive()
        assert pool._pool is None
        with pytest.raises(ConfigurationError):
            pool.warm_up()  # stays closed, like close()

    def test_terminate_is_idempotent_and_clean_exit_still_closes(self):
        pool = WorkerPool(2)
        pool.warm_up()
        pool.terminate()
        pool.terminate()
        with WorkerPool(2) as clean:
            clean.warm_up()
            workers = list(clean._pool._pool)
        for process in workers:
            process.join(10)
            assert not process.is_alive()

    def test_mid_campaign_sigint_leaves_a_resumable_out_file(self, tmp_path):
        """Kill a real campaign subprocess mid-run: the Ctrl-C handler
        must checkpoint finished rows into --out, the worker tree must
        die promptly, and --resume must pick up where it stopped."""
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 30000,  # ~1.2s per point on the reference machine
            "entries": [
                {"scenario": "fullinfo/baton", "base_seed": seed,
                 "grid": {"n": 16, "k": 3}}
                for seed in range(5)
            ],
        }))
        out = tmp_path / "rows.jsonl"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", str(manifest),
             "--out", str(out), "--workers", "2"],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            # Wait for at least one fsync'd row in the staging file.
            while time.monotonic() < deadline:
                tmp_file = tmp_path / "rows.jsonl.tmp"
                if tmp_file.exists() and tmp_file.read_text().count("\n") >= 1:
                    break
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("no rows appeared before the deadline")
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)  # leaked workers would hang this join
            assert proc.returncode != 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # The interrupt checkpointed finished rows into --out itself.
        assert out.exists()
        completed = load_completed_keys(out.read_text().splitlines())
        assert 1 <= len(completed) < 5
        # And a --resume run executes only the remainder.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", str(manifest),
             "--out", str(out), "--workers", "2", "--resume"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert f"ran {5 - len(completed)} of 5 points" in result.stderr
        assert len(load_completed_keys(out.read_text().splitlines())) == 5
