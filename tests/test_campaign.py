"""Tests for the campaign engine: manifests, orchestration, resume."""

import json
import os
import sqlite3
from contextlib import closing

import pytest

from repro.cli import main
from repro.experiments import (
    BudgetPolicy,
    CampaignPoint,
    WilsonWidthPolicy,
    WorkerPool,
    expand_manifest,
    known_tags,
    load_manifest,
    row_resume_key,
    run_campaign,
    run_scenario,
    scenario_names,
)
from repro.util.errors import ConfigurationError

SMOKE_MANIFEST = os.path.join(
    os.path.dirname(__file__), "..", "examples", "campaigns", "smoke.json"
)


def _rows(results):
    return sorted(json.dumps(r.to_row(), sort_keys=True) for r in results)


def drop_stored_row(out, line):
    """Delete one row from a JSONL --out and from the store it is a
    rendering of (``rows.jsonl.db``), as if its point had never run."""
    with closing(sqlite3.connect(f"{out}.db")) as con, con:
        assert con.execute(
            "DELETE FROM results WHERE row = ?", (line,)
        ).rowcount == 1
    kept = [l for l in out.read_text().splitlines() if l != line]
    out.write_text("".join(l + "\n" for l in kept))


class TestManifestExpansion:
    def test_defaults_overlay_and_grid_expansion(self):
        points = expand_manifest(
            {
                "trials": 9,
                "base_seed": 5,
                "entries": [
                    {"scenario": "attack/basic-cheat",
                     "grid": {"n": [8, 12], "target": 2}},
                    {"scenario": "sync/broadcast", "trials": 3},
                ],
            }
        )
        assert [(p.scenario, p.trials, p.base_seed) for p in points] == [
            ("attack/basic-cheat", 9, 5),
            ("attack/basic-cheat", 9, 5),
            ("sync/broadcast", 3, 5),
        ]
        # params arrive resolved: defaults overlaid onto the grid point.
        assert points[0].params == {"n": 8, "cheater": 2, "target": 2}

    def test_bare_list_is_accepted_as_entries(self):
        points = expand_manifest(
            [{"scenario": "sync/broadcast", "trials": 2}]
        )
        assert len(points) == 1 and points[0].trials == 2

    def test_tag_entry_expands_to_every_scenario_with_the_tag(self):
        points = expand_manifest(
            {"trials": 2, "entries": [{"tag": "sync", "grid": {"n": 4}}]}
        )
        assert sorted(p.scenario for p in points) == scenario_names(tag="sync")

    def test_duplicate_points_are_deduplicated_by_resume_key(self):
        points = expand_manifest(
            {
                "trials": 2,
                "entries": [
                    {"scenario": "sync/broadcast", "grid": {"n": 4}},
                    {"tag": "sync", "grid": {"n": 4}},
                ],
            }
        )
        assert len(points) == len(scenario_names(tag="sync"))

    def test_budget_entries_and_campaign_budget_default(self):
        budget = {"ci_width": 0.2, "min_trials": 4, "max_trials": 16}
        points = expand_manifest(
            {
                "budget": budget,
                "entries": [
                    {"scenario": "sync/broadcast"},
                    {"scenario": "sync/ring", "trials": 5},
                ],
            }
        )
        assert points[0].trials is None
        assert points[0].budget == BudgetPolicy.from_mapping(budget)
        # an entry-level fixed trials count opts out of the default budget
        assert points[1].trials == 5 and points[1].budget is None

    @pytest.mark.parametrize(
        "manifest",
        [
            "not a manifest",
            {"entries": []},
            {"entries": [{"tag": "sync", "scenario": "sync/ring", "trials": 1}]},
            {"entries": [{"grid": {"n": 4}, "trials": 1}]},
            {"entries": [{"scenario": "no/such", "trials": 1}]},
            {"entries": [{"tag": "no-such-tag", "trials": 1}]},
            {"entries": [{"scenario": "sync/ring"}]},  # no trials anywhere
            {"entries": [{"scenario": "sync/ring", "trials": 2,
                          "budget": {"ci_width": 0.1, "min_trials": 1,
                                     "max_trials": 5}}]},
            {"entries": [{"scenario": "sync/ring", "trials": -3}]},
            {"entries": [{"scenario": "sync/ring", "trials": 1,
                          "grid": {"coalition": [1]}}]},  # unknown param
            {"entries": [{"scenario": "sync/ring", "trials": 1, "extra": 1}]},
            {"typo_entries": [], "entries": [{"scenario": "sync/ring", "trials": 1}]},
        ],
        ids=[
            "not-json-object", "empty", "scenario-and-tag", "neither",
            "unknown-scenario", "unknown-tag", "no-trials-or-budget",
            "trials-and-budget", "negative-trials", "unknown-grid-key",
            "unknown-entry-key", "unknown-top-key",
        ],
    )
    def test_invalid_manifests_fail_eagerly(self, manifest):
        with pytest.raises(ConfigurationError):
            expand_manifest(manifest)

    def test_smoke_manifest_spans_every_subsystem_tag(self):
        """The CI smoke manifest must keep covering one scenario per
        subsystem tag (and stay loadable from disk)."""
        points = load_manifest(SMOKE_MANIFEST)
        prefixes = {p.scenario.split("/", 1)[0] for p in points}
        assert {
            "honest", "attack", "sync", "tree", "cointoss", "fullinfo",
            "blocks", "fuzz", "placement",
        } <= prefixes
        assert all(p.trials == 2 for p in points)


class TestRunCampaign:
    GRID = [
        CampaignPoint("attack/basic-cheat", {"n": n, "cheater": 2, "target": 2},
                      4, 2, None, None)
        for n in (8, 12, 16, 20)
    ] + [
        CampaignPoint("sync/broadcast", {"n": 4}, 5, 0, None, None),
        CampaignPoint(
            "fuzz/random-deviation", {"n": 16, "k": 2}, None, 0, None,
            WilsonWidthPolicy(ci_width=0.3, min_trials=8, max_trials=64),
        ),
    ]

    def test_serial_and_interleaved_rows_identical(self):
        serial = _rows(run_campaign(self.GRID, workers=1))
        interleaved = _rows(run_campaign(self.GRID, workers=4))
        assert serial == interleaved
        assert len(serial) == len(self.GRID)

    def test_rows_match_lone_run_scenario(self):
        rows = _rows(run_campaign(self.GRID[:1], workers=2))
        lone = run_scenario(
            "attack/basic-cheat", trials=4, base_seed=2,
            params={"n": 8, "target": 2},
        ).to_row()
        assert rows == [json.dumps(lone, sort_keys=True)]

    def test_completed_keys_skip_points(self):
        done = {p.key() for p in self.GRID[1:4]}
        remaining = list(run_campaign(self.GRID, workers=2, completed=done))
        assert len(remaining) == len(self.GRID) - 3

    def test_row_resume_keys_equal_point_keys(self):
        """The equation --resume relies on: a written campaign row keys
        back to exactly the point that produced it (fixed and adaptive)."""
        for result in run_campaign(self.GRID, workers=1):
            matches = [
                p for p in self.GRID if p.key() == row_resume_key(result.to_row())
            ]
            assert len(matches) == 1

    def test_hand_built_points_with_partial_params_are_resolved(self):
        """run_campaign normalises params like the manifest loader does:
        workers=1 and workers>1 agree, and the emitted row keys back to
        the resolved identity so resume works on re-runs."""
        sparse = CampaignPoint(
            "attack/basic-cheat", {"n": 8}, 4, 0, None, None
        )
        rows1 = _rows(run_campaign([sparse], workers=1))
        rows3 = _rows(run_campaign([sparse], workers=3))
        assert rows1 == rows3
        row = json.loads(rows1[0])
        assert row["params"] == {"cheater": 2, "n": 8, "target": 1}
        done = {row_resume_key(row)}
        assert list(run_campaign([sparse], workers=1, completed=done)) == []

    def test_unknown_params_fail_eagerly_at_any_worker_count(self):
        bad = CampaignPoint("attack/basic-cheat", {"nn": 8}, 2, 0, None, None)
        for workers in (1, 3):
            with pytest.raises(ConfigurationError):
                list(run_campaign([bad], workers=workers))

    def test_zero_trial_points_complete(self):
        point = CampaignPoint("sync/broadcast", {"n": 4}, 0, 0, None, None)
        for workers in (1, 3):
            (result,) = run_campaign([point], workers=workers)
            assert result.trials == 0

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_non_positive_chunk_size_rejected_eagerly(self, chunk_size):
        # Before any trial, and before the iterator is even started: a
        # -1 used to run every point as an empty 0-trial row.
        with pytest.raises(ConfigurationError, match="chunk_size"):
            run_campaign(self.GRID[:1], chunk_size=chunk_size)

    def test_infeasible_point_raises_configuration_error(self):
        # k=7 rushers cannot be equally spaced on a ring of 8.
        bad = CampaignPoint(
            "attack/equal-spacing", {"n": 8, "k": 7, "target": 1}, 2, 0, None, None
        )
        for workers in (1, 3):
            with pytest.raises(ConfigurationError):
                list(run_campaign([bad], workers=workers))

    def test_worker_counts_emit_identical_row_sets_on_smoke_manifest(self):
        """Serial and interleaved runs of the smoke manifest emit
        byte-identical sorted rows."""
        points = load_manifest(SMOKE_MANIFEST)
        reference = _rows(run_campaign(points, workers=1))
        assert _rows(run_campaign(points, workers=2)) == reference

    def test_worker_counts_emit_identical_row_sets_on_random_manifests(self):
        """Property-style: over seeded-random manifests, every worker
        count emits the same row set."""
        import random

        rng = random.Random(0xC0FFEE)
        cheap = [
            ("sync/broadcast", {"n": [3, 4]}),
            ("sync/ring", {"n": [3, 4]}),
            ("attack/basic-cheat", {"n": [8, 12], "target": [2, 3]}),
            ("fullinfo/baton", {"n": [8, 10], "k": [2]}),
        ]
        for _ in range(4):
            entries = []
            for _ in range(rng.randint(1, 3)):
                scenario, full_grid = rng.choice(cheap)
                grid = {
                    key: rng.sample(values, rng.randint(1, len(values)))
                    for key, values in full_grid.items()
                    if rng.random() < 0.8
                }
                entry = {"scenario": scenario, "grid": grid}
                if rng.random() < 0.25:
                    entry["budget"] = {
                        "ci_width": 0.5,
                        "min_trials": rng.randint(1, 3),
                        "max_trials": 8,
                    }
                else:
                    entry["trials"] = rng.randint(1, 4)
                if rng.random() < 0.5:
                    entry["base_seed"] = rng.randint(0, 3)
                entries.append(entry)
            points = expand_manifest(entries)
            reference = _rows(run_campaign(points, workers=1))
            rows = _rows(run_campaign(points, workers=2))
            assert rows == reference, entries

    def test_serial_pool_counts_every_chunk(self):
        """A serial pool's chunks run through it, so its counters (and
        the ``/metrics`` chunk gauge read from them) see every one."""
        with WorkerPool(1) as pool:
            results = list(run_campaign(self.GRID, pool=pool))
            counters = pool.counters()
        dispatches = sum(result.dispatches for result in results)
        assert dispatches > 0
        assert counters["dispatched"] == counters["completed"] == dispatches


class TestCampaignCli:
    def _write_manifest(self, tmp_path, trials=4):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": trials,
            "entries": [
                {"scenario": "attack/basic-cheat",
                 "grid": {"n": [8, 12], "target": 2}},
                {"scenario": "sync/broadcast", "grid": {"n": 4}},
            ],
        }))
        return manifest

    def test_campaign_writes_rows_and_reports_count(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--workers", "2"]) == 0
        err = capsys.readouterr().err
        assert "ran 3 of 3 points" in err
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["scenario"] for r in rows} == {
            "attack/basic-cheat", "sync/broadcast"
        }

    def test_campaign_resume_runs_only_missing_points(self, tmp_path, capsys):
        """Kill-and-rerun: dropping one row from the store and resuming
        re-executes exactly that point, preserving the others verbatim."""
        manifest = self._write_manifest(tmp_path)
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        survivor, dropped = lines[:2], lines[2]
        drop_stored_row(out, dropped)

        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume", "--workers", "auto"]) == 0
        assert "ran 1 of 3 points; 2 already in" in capsys.readouterr().err
        resumed = out.read_text().splitlines()
        assert resumed[:2] == survivor  # untouched rows preserved verbatim
        assert sorted(resumed) == sorted(lines)  # missing row regenerated

    def test_campaign_resume_with_nothing_missing_is_a_no_op(
        self, tmp_path, capsys
    ):
        manifest = self._write_manifest(tmp_path)
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        before = out.read_text()
        capsys.readouterr()
        assert main(["campaign", str(manifest), "--out", str(out),
                     "--resume"]) == 0
        assert "ran 0 of 3 points" in capsys.readouterr().err
        assert out.read_text() == before

    def test_campaign_rows_shared_with_sweep_resume(self, tmp_path, capsys):
        """One resume store serves both commands: a sweep resuming over a
        campaign's output skips the points the campaign already ran."""
        manifest = self._write_manifest(tmp_path)
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--scenario", "attack/basic-cheat",
                     "--trials", "4", "--seed", "0",
                     "--param", "n=8,12", "--param", "target=2",
                     "--out", str(out), "--resume"]) == 0
        assert "ran 0 of 2 grid points" in capsys.readouterr().err

    def test_bad_manifest_dies_without_touching_out(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        out.write_text('{"precious": "results"}\n')
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"entries": [{"scenario": "no/such", "trials": 1}]}
        ))
        with pytest.raises(SystemExit):
            main(["campaign", str(bad), "--out", str(out)])
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit):
            main(["campaign", str(missing), "--out", str(out)])
        assert out.read_text() == '{"precious": "results"}\n'
        assert not (tmp_path / "rows.jsonl.tmp").exists()
        assert not (tmp_path / "rows.jsonl.db").exists()

    @pytest.mark.parametrize("chunk_size", ["0", "-1"])
    def test_non_positive_chunk_size_exits_without_rows(
        self, tmp_path, chunk_size
    ):
        out = tmp_path / "rows.jsonl"
        with pytest.raises(SystemExit) as info:
            main(["campaign", SMOKE_MANIFEST, f"--chunk-size={chunk_size}",
                  "--out", str(out)])
        assert "chunk_size must be >= 1" in str(info.value.code)
        assert not out.exists()
        assert not (tmp_path / "rows.jsonl.db").exists()

    def test_campaign_resume_requires_out(self, tmp_path):
        manifest = self._write_manifest(tmp_path)
        with pytest.raises(SystemExit):
            main(["campaign", str(manifest), "--resume"])

    def test_admission_order_is_not_an_option(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", str(manifest), "--schedule", "longest-first"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "--schedule" in capsys.readouterr().err


class TestAdaptiveSweepCli:
    ARGS = ["sweep", "--scenario", "attack/basic-cheat", "--trials", "500",
            "--ci-width", "0.1", "--min-trials", "16",
            "--param", "n=8", "--param", "target=2"]

    def test_adaptive_rows_carry_the_budget_and_stop_early(self, capsys):
        assert main(self.ARGS) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["budget"] == {
            "ci_width": 0.1, "min_trials": 16, "max_trials": 500, "z": 1.96
        }
        assert 16 <= row["trials"] < 500  # converged before the ceiling

    def test_adaptive_rows_identical_across_worker_counts(self, capsys):
        def rows(workers):
            assert main(self.ARGS + ["--workers", str(workers)]) == 0
            return [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("{")
            ]

        assert rows(1) == rows(4)

    def test_adaptive_resume_skips_converged_points(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        argv = self.ARGS + ["--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "ran 0 of 1 grid points" in capsys.readouterr().err

    def test_fixed_rows_do_not_satisfy_adaptive_resume(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        fixed = ["sweep", "--scenario", "attack/basic-cheat", "--trials", "64",
                 "--param", "n=8", "--param", "target=2", "--out", str(out)]
        assert main(fixed) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--out", str(out), "--resume"]) == 0
        assert "ran 1 of 1 grid points" in capsys.readouterr().err

    def test_max_trials_without_ci_width_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "attack/basic-cheat",
                  "--max-trials", "100"])
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "attack/basic-cheat",
                  "--min-trials", "8"])

    def test_explicit_min_trials_above_ceiling_rejected_like_manifests(self):
        """The CLI and the manifest loader validate the same policy the
        same way: an explicit floor above the ceiling is an error, never
        a silent clamp (which would also change the resume identity)."""
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "attack/basic-cheat",
                  "--trials", "20", "--ci-width", "0.1",
                  "--min-trials", "100"])

    def test_implicit_min_trials_is_capped_at_the_ceiling(self, capsys):
        assert main(["sweep", "--scenario", "attack/basic-cheat",
                     "--trials", "20", "--ci-width", "0.5",
                     "--param", "n=8", "--param", "target=2"]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["budget"]["min_trials"] == 20  # default 32, capped


class TestUnknownTagError:
    def test_unknown_tag_error_lists_known_tags(self):
        """Regression: a tag matching zero scenarios used to fail with a
        bare 'no registered scenario has tag' — the fix names the tags
        that do exist, so a typo is a one-glance diagnosis."""
        with pytest.raises(ConfigurationError) as excinfo:
            expand_manifest({"entries": [{"tag": "synk", "trials": 1}]})
        message = str(excinfo.value)
        assert "synk" in message
        assert "known tags:" in message
        for tag in ("sync", "cointoss", "attack", "honest"):
            assert tag in known_tags() and tag in message


class TestCampaignDryRun:
    def _manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 3,
            "entries": [
                {"scenario": "attack/basic-cheat",
                 "grid": {"n": [8, 12], "target": 2}},
                {"scenario": "sync/broadcast", "grid": {"n": 4},
                 "budget": {"ci_width": 0.5, "min_trials": 2,
                            "max_trials": 16}},
            ],
        }))
        return manifest

    def test_dry_run_lists_every_point_with_cost_and_status(
        self, tmp_path, capsys
    ):
        manifest = self._manifest(tmp_path)
        assert main(["campaign", str(manifest), "--dry-run"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("pending") for line in lines)
        # No store, so no observed cost: no est= column, and no proxy.
        assert not any("est=" in line or "cost=" in line for line in lines)
        assert "trials=3" in lines[0]
        assert "budget=wilson-width[max_trials=16]" in lines[2]
        assert "3 points" in err and "3 to run" in err

    def test_dry_run_reports_satisfied_resume_keys(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        out_file = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out_file)]) == 0
        capsys.readouterr()
        # Drop one row: exactly one point must come back as pending.
        lines = out_file.read_text().splitlines()
        drop_stored_row(out_file, lines[0])
        assert main(["campaign", str(manifest), "--dry-run",
                     "--out", str(out_file)]) == 0
        out, err = capsys.readouterr()
        statuses = [line.split()[0] for line in out.splitlines()]
        assert sorted(statuses) == ["done", "done", "pending"]
        assert "2 already in" in err and "1 to run" in err
        # Without --resume the real run would recompute the 'done'
        # points — the summary must say how to make the plan real.
        assert "add --resume to skip them" in err
        assert main(["campaign", str(manifest), "--dry-run",
                     "--out", str(out_file), "--resume"]) == 0
        _, err = capsys.readouterr()
        assert "add --resume" not in err

    def test_dry_run_lists_points_in_manifest_order(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path)
        assert main(["campaign", str(manifest), "--dry-run"]) == 0
        out, err = capsys.readouterr()
        listed = [line.split(None, 1)[1] for line in out.splitlines()]
        points = load_manifest(str(manifest))
        assert len(listed) == len(points)
        for line, point in zip(listed, points):
            params = json.dumps(point.params, sort_keys=True)
            assert line.startswith(f"{point.scenario} {params} ")
        # The adaptive point is the costliest yet still listed last.
        assert listed[-1].startswith("sync/broadcast")
        assert "schedule=" not in err

    def test_dry_run_runs_nothing_and_never_touches_out(
        self, tmp_path, capsys
    ):
        manifest = self._manifest(tmp_path)
        out_file = tmp_path / "rows.jsonl"
        out_file.write_text('{"precious": "results"}\n')
        assert main(["campaign", str(manifest), "--dry-run",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert out_file.read_text() == '{"precious": "results"}\n'
        assert not (tmp_path / "rows.jsonl.tmp").exists()
        assert not (tmp_path / "rows.jsonl.db").exists()

    def test_dry_run_reads_the_store_when_the_rendering_is_gone(
        self, tmp_path, capsys
    ):
        """After a kill before the first rendering only rows.jsonl.db
        holds the rows; the plan must count them without writing."""
        manifest = self._manifest(tmp_path)
        out_file = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out_file)]) == 0
        capsys.readouterr()
        out_file.unlink()
        store = tmp_path / "rows.jsonl.db"
        before = store.read_bytes()
        assert main(["campaign", str(manifest), "--dry-run",
                     "--out", str(out_file)]) == 0
        out, err = capsys.readouterr()
        assert [line.split()[0] for line in out.splitlines()] == ["done"] * 3
        assert not out_file.exists()
        assert store.read_bytes() == before

    def test_dry_run_still_validates_the_manifest_eagerly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"entries": [{"scenario": "no/such", "trials": 1}]}
        ))
        with pytest.raises(SystemExit):
            main(["campaign", str(bad), "--dry-run"])


class TestManifestBudgetPolicies:
    def test_named_policies_run_from_manifests_and_key_separately(self):
        """All three registered policies are reachable from manifest JSON
        and their rows resume only against their own policy."""
        entries = [
            {"scenario": "attack/basic-cheat", "grid": {"n": 8, "target": 2},
             "budget": {"policy": "wilson-width", "ci_width": 0.4,
                        "min_trials": 4, "max_trials": 32}},
            {"scenario": "attack/basic-cheat", "grid": {"n": 8, "target": 2},
             "budget": {"policy": "relative-precision", "rel_precision": 0.4,
                        "min_trials": 4, "max_trials": 32}},
            {"scenario": "attack/basic-cheat", "grid": {"n": 8, "target": 2},
             "budget": {"policy": "fail-rate-target", "target": 0.5,
                        "min_trials": 4, "max_trials": 32}},
        ]
        points = expand_manifest(entries)
        assert len(points) == 3  # same numerics, three distinct keys
        results = list(run_campaign(points, workers=2))
        assert len(results) == 3
        for result, point in zip(
            sorted(results, key=lambda r: r.budget.policy),
            sorted(points, key=lambda p: p.budget.policy),
        ):
            assert row_resume_key(result.to_row()) == point.key()

    def test_unknown_policy_in_manifest_fails_eagerly(self):
        with pytest.raises(ConfigurationError):
            expand_manifest([{
                "scenario": "sync/broadcast",
                "budget": {"policy": "no-such", "min_trials": 1,
                           "max_trials": 2},
            }])


class TestCampaignMetricsPort:
    """``campaign --metrics-port``: the single-host /metrics surface."""

    def _manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 4,
            "entries": [
                {"scenario": "attack/basic-cheat",
                 "grid": {"n": [8, 12], "target": 2}},
            ],
        }))
        return manifest

    def test_rows_are_identical_with_and_without_the_endpoint(
        self, tmp_path, capsys
    ):
        manifest = self._manifest(tmp_path)
        plain, metered = tmp_path / "plain.jsonl", tmp_path / "metered.jsonl"
        assert main(["campaign", str(manifest), "--out", str(plain)]) == 0
        assert main(["campaign", str(manifest), "--out", str(metered),
                     "--metrics-port", "0"]) == 0
        err = capsys.readouterr().err
        assert "/metrics" in err
        assert sorted(plain.read_text().splitlines()) == sorted(
            metered.read_text().splitlines()
        )

    def test_registry_observes_the_result_stream(self, tmp_path):
        from repro.cli import _campaign_metrics
        from repro.experiments import AdaptiveChunker, WorkerPool
        from repro.metrics import parse_text

        points = load_manifest(str(self._manifest(tmp_path)))
        model = AdaptiveChunker()
        with WorkerPool(1) as pool:
            registry, observe = _campaign_metrics(pool, model, len(points))
            results = list(
                observe(run_campaign(points, pool=pool, chunker=model))
            )
        assert len(results) == 2
        families = parse_text(registry.render())
        assert families["repro_points_total"] == [({}, 2.0)]
        assert families["repro_points_completed"] == [({}, 2.0)]
        assert families["repro_trials_total"] == [({}, 8.0)]
        assert families["repro_pool_workers"] == [({}, 1.0)]
        # The chunk counters carry the label `repro serve` and perfbench
        # use: `state`.
        assert {
            tuple(labels) for labels, _ in families["repro_pool_chunks_total"]
        } == {("state",)}
        assert {
            labels["state"] for labels, _ in families["repro_pool_chunks_total"]
        } == {"dispatched", "completed", "failed"}
        assert {
            labels["scenario"]
            for labels, _ in families["repro_per_trial_seconds"]
        } == {point.scenario for point in points}

    def test_points_completed_is_a_gauge_on_both_servers(self):
        """One TYPE per family: the coordinator sets
        ``repro_points_completed`` at scrape and the CLI inc()s it, but
        both declare it a gauge."""
        from repro.cli import _campaign_metrics
        from repro.experiments import (
            AdaptiveChunker,
            CampaignCoordinator,
            WorkerPool,
        )

        with WorkerPool(1) as pool:
            registry, _ = _campaign_metrics(pool, AdaptiveChunker(), 0)
            cli_render = registry.render()
        for render in (cli_render, CampaignCoordinator([]).metrics.render()):
            assert "# TYPE repro_points_completed gauge" in render.splitlines()

    def test_rejected_alongside_coordinate(self, tmp_path):
        manifest = self._manifest(tmp_path)
        with pytest.raises(SystemExit, match="redundant with --coordinate"):
            main(["campaign", str(manifest), "--coordinate",
                  "--listen", "127.0.0.1:0", "--metrics-port", "0",
                  "--out", str(tmp_path / "rows.jsonl")])
