"""Tests for the command-line interface."""

import json
import multiprocessing
import re
import socket
import sqlite3
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import ResultStore, parse_out_lines


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--protocol", "alead-uni"])
        assert args.n == 16 and args.seed == 0


class TestCommands:
    def test_run_success(self, capsys):
        rc = main(["run", "--protocol", "alead-uni", "--n", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "outcome" in out

    def test_run_all_protocols(self):
        for name in ("basic-lead", "alead-uni", "phase-async", "async-complete"):
            assert main(["run", "--protocol", name, "--n", "6"]) == 0

    def test_attack_basic_cheat(self, capsys):
        rc = main(
            ["attack", "--name", "basic-cheat", "--n", "8", "--target", "3"]
        )
        assert rc == 0
        assert "FORCED" in capsys.readouterr().out

    def test_attack_rushing(self):
        assert main(
            ["attack", "--name", "rushing", "--n", "25", "--target", "5"]
        ) == 0

    def test_attack_cubic(self):
        assert main(
            ["attack", "--name", "cubic", "--n", "34", "--k", "4",
             "--target", "9"]
        ) == 0

    def test_attack_partial_sum(self):
        assert main(
            ["attack", "--name", "partial-sum", "--n", "28", "--target", "2"]
        ) == 0

    def test_attack_phase_rushing(self):
        assert main(
            ["attack", "--name", "phase-rushing", "--n", "36", "--target", "4"]
        ) == 0

    def test_attack_shamir_pool(self):
        assert main(
            ["attack", "--name", "shamir-pool", "--n", "8", "--target", "6"]
        ) == 0

    def test_bias(self, capsys):
        rc = main(
            ["bias", "--protocol", "basic-lead", "--n", "6", "--trials", "60"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "epsilon" in out

    def test_certificate(self, capsys):
        rc = main(["certificate", "--graph", "complete", "--n", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Theorem 7.2" in out

    def test_frontier(self, capsys):
        rc = main(["frontier", "--sizes", "36"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "smallest forcing" in out
        assert "k/n^(1/3)=" in out

    def test_fuzz(self, capsys):
        rc = main(["fuzz", "--n", "12", "--k", "2", "--samples", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "punished" in out


class TestMaxStepsAndExitCodes:
    def test_run_max_steps_fails_nonzero(self, capsys):
        rc = main(
            ["run", "--protocol", "alead-uni", "--n", "8", "--max-steps", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "budget" in out

    def test_attack_max_steps_fails_nonzero(self, capsys):
        rc = main(
            ["attack", "--name", "basic-cheat", "--n", "8", "--target", "3",
             "--max-steps", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "not forced" in out

    def test_attack_random_location(self):
        assert main(
            ["attack", "--name", "random-location", "--n", "256",
             "--target", "9", "--seed", "2"]
        ) == 0

    def test_bias_all_fail_exits_nonzero(self, capsys):
        rc = main(
            ["bias", "--protocol", "alead-uni", "--n", "8", "--trials", "5",
             "--max-steps", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "fail rate: 1.0000" in out


class TestUsageErrors:
    """Infeasible values exit with the scenario's one-line message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("run --protocol alead-uni --n 1",
             "ring needs at least 2 processors, got 1"),
            ("attack --name cubic --n 10 --k 50 --target 3",
             "cubic placement needs n - k >= k so every segment is "
             "exposed (n=10, k=50)"),
            ("attack --name basic-cheat --n 8 --target 99",
             "target 99 out of range 1..8"),
            # An explicit k=0 reaches the builder, not the default k.
            ("attack --name cubic --n 111 --k 0 --target 3",
             "cubic attack needs k >= 2"),
            ("attack --name rushing --n 64 --k 0 --target 1",
             "k=0 out of range for n=64"),
            ("bias --protocol alead-uni --n 0 --trials 5",
             "point 'honest/alead-uni' {'n': 0} failed: "
             "ring needs at least 2 processors, got 0"),
            ("frontier --sizes 1",
             "ring needs at least 2 processors, got 1"),
            ("frontier --sizes -4",
             "ring needs at least 2 processors, got -4"),
        ],
    )
    def test_one_line_exit_without_traceback(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        # A string exit code is printed as-is: no traceback, no context.
        assert info.value.code == message
        assert info.value.__suppress_context__
        assert capsys.readouterr().out == ""

    def test_run_takes_every_honest_scenario(self, capsys):
        assert main(["run", "--protocol", "wakeup-alead", "--n", "6"]) == 0
        assert "protocol : wakeup-alead (n=6, seed=0)" in capsys.readouterr().out


class TestCampaignPoolTeardown:
    def test_failed_point_stops_workers_and_metrics_server(
        self, tmp_path, capsys
    ):
        # equal-spacing needs n >= 2k: the point fails inside a worker.
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 8,
            "entries": [
                {"scenario": "attack/equal-spacing", "grid": {"n": 8, "k": 7}},
            ],
        }))
        before = set(multiprocessing.active_children())
        with pytest.raises(SystemExit, match="equal spacing needs n >= 2k"):
            main(["campaign", str(manifest), "--workers", "2",
                  "--metrics-port", "0"])
        assert set(multiprocessing.active_children()) - before == set()
        err = capsys.readouterr().err
        port = int(re.search(r"http://127\.0\.0\.1:(\d+)/metrics", err).group(1))
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()


class TestSweep:
    def test_sweep_list(self, capsys):
        rc = main(["sweep", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "attack/cubic" in out
        assert "honest/alead-uni" in out

    def test_sweep_requires_scenario(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--trials", "5"])

    def test_sweep_rows_identical_across_worker_counts(self, capsys):
        import json

        def run_rows(workers):
            rc = main(
                ["sweep", "--scenario", "attack/basic-cheat",
                 "--trials", "10", "--workers", str(workers),
                 "--param", "n=8,12", "--param", "target=2"]
            )
            assert rc == 0
            return [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("{")
            ]

        def text(row):
            return json.dumps(row, sort_keys=True)

        rows_serial = run_rows(1)
        rows_parallel = run_rows(4)
        # The row set is the contract (INVARIANTS R1): a parallel sweep
        # prints rows in completion order, a serial one in grid order.
        assert sorted(rows_serial, key=text) == sorted(rows_parallel, key=text)
        assert [row["params"]["n"] for row in rows_serial] == [8, 12]
        assert all(row["success_rate"] == 1.0 for row in rows_serial)

    def test_sweep_out_file(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "rows.jsonl"
        rc = main(
            ["sweep", "--scenario", "honest/basic-lead", "--trials", "6",
             "--param", "n=6", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert rc == 0
        rows = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert rows[0]["trials"] == 6
        assert sum(rows[0]["outcomes"].values()) == 6

    def test_sweep_bad_param_syntax(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "honest/basic-lead", "--param", "n"])

    def test_sweep_typo_does_not_truncate_out_file(self, tmp_path, capsys):
        """A failed invocation must leave a previous --out file intact,
        and a validation failure must not even create its store."""
        yesterday = tmp_path / "yesterday.jsonl"
        assert main(["sweep", "--scenario", "sync/broadcast", "--trials", "2",
                     "--param", "n=4", "--out", str(yesterday)]) == 0
        precious = yesterday.read_text()
        out_file = tmp_path / "rows.jsonl"
        out_file.write_text(precious)
        with pytest.raises(SystemExit):  # unknown scenario
            main(["sweep", "--scenario", "attack/cubik", "--trials", "2",
                  "--out", str(out_file)])
        with pytest.raises(SystemExit):  # unknown parameter key
            main(["sweep", "--scenario", "attack/cubic", "--trials", "2",
                  "--param", "kk=4", "--out", str(out_file)])
        assert not (tmp_path / "rows.jsonl.db").exists()
        with pytest.raises(SystemExit):  # valid keys, infeasible values
            main(["sweep", "--scenario", "attack/equal-spacing",
                  "--trials", "2", "--param", "n=8", "--param", "k=7",
                  "--out", str(out_file)])
        capsys.readouterr()
        # The infeasible point surfaces only once it runs, after the
        # import; the rendering written as the run stops is the same row.
        assert out_file.read_text() == precious
        assert not (tmp_path / "rows.jsonl.tmp").exists()

    def test_attack_rejects_k_when_unsupported(self, capsys):
        with pytest.raises(SystemExit):
            main(["attack", "--name", "random-location", "--n", "256",
                  "--k", "5"])
        with pytest.raises(SystemExit):
            main(["attack", "--name", "basic-cheat", "--n", "8", "--k", "2"])

    def test_sweep_runs_non_executor_scenarios(self, capsys):
        """The registry expansion: sweep reaches sync/tree/cointoss/
        fullinfo subsystems, not only the ring protocols."""
        import json

        for scenario in (
            "sync/broadcast", "tree/xor-coin", "cointoss/fle-coin",
            "fullinfo/baton",
        ):
            rc = main(["sweep", "--scenario", scenario, "--trials", "3"])
            rows = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("{")
            ]
            assert rc == 0
            assert rows[0]["scenario"] == scenario
            assert rows[0]["trials"] == 3


def _bounded(policy, **criterion):
    """The manifest budget that `--min-trials 8 --trials 20` plus one
    stop-criterion flag mean."""
    return {"budget": dict(criterion, policy=policy, min_trials=8, max_trials=20)}


class TestSweepIsOneEntryCampaign:
    """`sweep` and `campaign` on the matching one-entry manifest write
    byte-identical --out renderings; each budget flag set becomes the
    manifest's `budget` object."""

    SWEEP = ["sweep", "--scenario", "attack/basic-cheat",
             "--param", "n=8,12", "--param", "target=2", "--seed", "3"]
    ENTRY = {"scenario": "attack/basic-cheat",
             "grid": {"n": [8, 12], "target": [2]}, "base_seed": 3}
    BOUNDS = ["--min-trials", "8", "--trials", "20"]

    @pytest.mark.parametrize("flags, setting", [
        (["--trials", "6"], {"trials": 6}),
        (["--ci-width", "0.3", *BOUNDS], _bounded("wilson-width", ci_width=0.3)),
        (["--rel-precision", "0.2", *BOUNDS],
         _bounded("relative-precision", rel_precision=0.2)),
        (["--fail-rate-target", "0.5", *BOUNDS],
         _bounded("fail-rate-target", target=0.5)),
    ])
    def test_sweep_writes_the_campaign_rendering(
        self, tmp_path, capsys, flags, setting
    ):
        swept = tmp_path / "sweep.jsonl"
        assert main(self.SWEEP + flags + ["--out", str(swept)]) == 0
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([dict(self.ENTRY, **setting)]))
        campaigned = tmp_path / "campaign.jsonl"
        assert main(["campaign", str(manifest), "--out", str(campaigned)]) == 0
        capsys.readouterr()
        assert len(swept.read_text().splitlines()) == 2
        assert swept.read_bytes() == campaigned.read_bytes()


class TestSweepResume:
    def _sweep(self, out_file, params, resume=False):
        argv = ["sweep", "--scenario", "attack/basic-cheat", "--trials", "4",
                "--out", str(out_file)]
        for p in params:
            argv += ["--param", p]
        if resume:
            argv.append("--resume")
        return main(argv)

    def test_resume_appends_only_missing_grid_points(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "rows.jsonl"
        assert self._sweep(out_file, ["n=8,12", "target=2"]) == 0
        capsys.readouterr()
        first = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert len(first) == 2

        # Re-run with a larger grid: the two existing points are skipped,
        # their rows preserved verbatim, and only n=16 is appended.
        assert self._sweep(out_file, ["n=8,12,16", "target=2"], resume=True) == 0
        err = capsys.readouterr().err
        assert "ran 1 of 3 grid points" in err
        rows = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert rows[:2] == first
        assert len(rows) == 3
        assert rows[2]["params"]["n"] == 16

    def test_resume_with_complete_file_is_a_no_op(self, tmp_path, capsys):
        out_file = tmp_path / "rows.jsonl"
        assert self._sweep(out_file, ["n=8"]) == 0
        before = out_file.read_text()
        capsys.readouterr()
        assert self._sweep(out_file, ["n=8"], resume=True) == 0
        assert "ran 0 of 1 grid points" in capsys.readouterr().err
        assert out_file.read_text() == before

    def test_resume_without_out_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "attack/basic-cheat",
                  "--trials", "2", "--resume"])

    def test_resume_with_missing_out_file_runs_everything(self, tmp_path, capsys):
        out_file = tmp_path / "fresh.jsonl"
        assert self._sweep(out_file, ["n=8"], resume=True) == 0
        capsys.readouterr()
        assert out_file.exists()

    def test_resume_salvages_rows_from_an_interrupted_run(self, tmp_path, capsys):
        """The crash shape a kill -9 leaves: rows durable in the sibling
        store rows.jsonl.db, while rows.jsonl is a stale rendering (here
        one row behind, with a torn tail). --resume must count every
        stored row as done, run only the remainder, and render every
        stored row."""
        out_file = tmp_path / "rows.jsonl"
        assert self._sweep(out_file, ["n=8,12", "target=2"]) == 0
        capsys.readouterr()
        stored = out_file.read_text().splitlines()
        # Roll the rendering back: the n=12 row reached the store but the
        # process died before rendering it.
        out_file.write_text(stored[0] + "\n" + stored[1][:30])

        assert self._sweep(
            out_file, ["n=8,12,16", "target=2"], resume=True
        ) == 0
        err = capsys.readouterr().err
        assert "ran 1 of 3 grid points" in err
        assert "skipped 1 malformed line(s)" in err
        lines = out_file.read_text().splitlines()
        assert lines[:2] == stored
        assert [json.loads(l)["params"]["n"] for l in lines] == [8, 12, 16]

    def test_resume_from_the_store_alone_renders_every_row(
        self, tmp_path, capsys
    ):
        """A kill before the first rendering leaves a store and no
        --out file at all."""
        out_file = tmp_path / "rows.jsonl"
        assert self._sweep(out_file, ["n=8,12", "target=2"]) == 0
        capsys.readouterr()
        stored = out_file.read_text()
        out_file.unlink()
        assert self._sweep(
            out_file, ["n=8,12,16", "target=2"], resume=True
        ) == 0
        assert "ran 1 of 3 grid points" in capsys.readouterr().err
        assert out_file.read_text().startswith(stored)
        assert len(out_file.read_text().splitlines()) == 3

    def test_resume_repairs_missing_trailing_newline(self, tmp_path, capsys):
        """A previous file whose last line lacks '\\n' (external tools,
        truncating editors) must not get a new row concatenated onto it."""
        import json

        out_file = tmp_path / "rows.jsonl"
        assert self._sweep(out_file, ["n=8"]) == 0
        capsys.readouterr()
        out_file.write_text(out_file.read_text().rstrip("\n"))
        assert self._sweep(out_file, ["n=8,12"], resume=True) == 0
        capsys.readouterr()
        rows = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert [r["params"]["n"] for r in rows] == [8, 12]

    def test_resume_ignores_rows_from_other_scenarios(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "rows.jsonl"
        rc = main(["sweep", "--scenario", "honest/basic-lead", "--trials", "4",
                   "--param", "n=8", "--out", str(out_file)])
        assert rc == 0
        capsys.readouterr()
        assert self._sweep(out_file, ["n=8"], resume=True) == 0
        assert "ran 1 of 1" in capsys.readouterr().err
        rows = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert [r["scenario"] for r in rows] == [
            "honest/basic-lead", "attack/basic-cheat"
        ]


class TestOutStore:
    """Every --out is backed by a results store (rows.jsonl.db beside
    rows.jsonl), and rows.jsonl is its atomic rendering."""

    def _sweep(self, out_file, params, resume=False, scenario="attack/basic-cheat"):
        argv = ["sweep", "--scenario", scenario, "--trials", "4",
                "--out", str(out_file)]
        for p in params:
            argv += ["--param", p]
        if resume:
            argv.append("--resume")
        return main(argv)

    def _rows(self, tmp_path, name, params, scenario="attack/basic-cheat"):
        """Rows of a throwaway run, for composing JSONL-era files."""
        path = tmp_path / name
        assert self._sweep(path, params, scenario=scenario) == 0
        return path.read_text().splitlines()

    def test_rendering_is_the_store_export(self, tmp_path, capsys):
        out_file = tmp_path / "rows.jsonl"
        assert self._sweep(out_file, ["n=8,12", "target=2"]) == 0
        capsys.readouterr()
        with ResultStore(str(tmp_path / "rows.jsonl.db"), read_only=True) as store:
            exported = [line + "\n" for line in store.export_lines()]
        assert out_file.read_text() == "".join(exported)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "rows.jsonl", "rows.jsonl.db"
        ]

    def test_legacy_jsonl_out_migrates_into_the_store(self, tmp_path, capsys):
        """A JSONL-era --out with another scenario's row, a timed-out
        marker and a torn tail: the first run imports it, retries the
        marker's point, replaces the marker, and re-runs the torn point."""
        other = self._rows(tmp_path, "other.jsonl", ["n=6"], "honest/basic-lead")
        rows = self._rows(tmp_path, "full.jsonl", ["n=8,12,16", "target=2"])
        marker = dict(json.loads(rows[1]), trials=1, timed_out=True)
        out_file = tmp_path / "rows.jsonl"
        out_file.write_text(
            "\n".join([other[0], rows[0], json.dumps(marker, sort_keys=True),
                       rows[2][:40]])
        )
        capsys.readouterr()

        assert self._sweep(
            out_file, ["n=8,12,16", "target=2"], resume=True
        ) == 0
        err = capsys.readouterr().err
        assert "ran 2 of 3 grid points" in err
        assert "skipped 1 malformed line(s)" in err
        assert "1 timed-out row(s)" in err and "will be retried" in err
        lines = out_file.read_text().splitlines()
        assert lines == [other[0], rows[0], rows[1], rows[2]]
        with ResultStore(str(tmp_path / "rows.jsonl.db"), read_only=True) as store:
            assert store.completed_keys() == {
                row.key for row in parse_out_lines(lines) if row.key is not None
            }
            assert store.pending_retries() == set()

    @pytest.mark.parametrize("where", ["middle", "last"])
    def test_foreign_line_refused_before_any_trial(self, tmp_path, capsys, where):
        rows = self._rows(tmp_path, "full.jsonl", ["n=8", "target=2"])
        foreign = '{"precious": "results"}'
        content = (
            [rows[0], foreign] if where == "last" else [foreign, rows[0]]
        )
        out_file = tmp_path / "rows.jsonl"
        out_file.write_text("\n".join(content) + "\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            self._sweep(out_file, ["n=8,12", "target=2"], resume=True)
        assert "not a result row" in str(excinfo.value.code)
        assert capsys.readouterr().out == ""  # no row ran
        assert out_file.read_text() == "\n".join(content) + "\n"
        assert not (tmp_path / "rows.jsonl.db").exists()

    def test_run_without_resume_keeps_earlier_rows(self, tmp_path, capsys):
        """Without --resume every point runs; rows already stored stay
        and the first copy of a row wins."""
        out_file = tmp_path / "rows.jsonl"
        assert self._sweep(out_file, ["n=8", "target=2"]) == 0
        first = out_file.read_text()
        capsys.readouterr()
        assert self._sweep(out_file, ["n=12,8", "target=2"]) == 0
        printed = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("{")]
        assert [json.loads(l)["params"]["n"] for l in printed] == [12, 8]
        lines = out_file.read_text().splitlines()
        assert out_file.read_text().startswith(first)
        assert [json.loads(l)["params"]["n"] for l in lines] == [8, 12]

    def test_store_write_error_renders_what_is_durable_and_exits(
        self, tmp_path, capsys, monkeypatch
    ):
        """Deterministic fault injection: the first append succeeds,
        every later one fails as a dying disk would."""
        real_append = ResultStore.append_row
        appended = []

        def failing_append(store, row):
            if appended:
                raise sqlite3.OperationalError("disk I/O error")
            appended.append(row)
            return real_append(store, row)

        monkeypatch.setattr(ResultStore, "append_row", failing_append)
        out_file = tmp_path / "rows.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            self._sweep(out_file, ["n=8,12,16", "target=2"])
        message = str(excinfo.value.code)
        assert str(tmp_path / "rows.jsonl.db") in message
        assert "disk I/O error" in message
        capsys.readouterr()
        lines = out_file.read_text().splitlines()
        assert [json.loads(l)["params"]["n"] for l in lines] == [8]

        monkeypatch.setattr(ResultStore, "append_row", real_append)
        assert self._sweep(
            out_file, ["n=8,12,16", "target=2"], resume=True
        ) == 0
        assert "ran 2 of 3 grid points" in capsys.readouterr().err
        lines = out_file.read_text().splitlines()
        assert [json.loads(l)["params"]["n"] for l in lines] == [8, 12, 16]


class TestScenariosCommand:
    def test_lists_every_registered_scenario(self, capsys):
        from repro.experiments import scenario_names

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_tag_filter(self, capsys):
        assert main(["scenarios", "--tag", "sync"]) == 0
        out = capsys.readouterr().out
        assert "sync/broadcast" in out
        assert "honest/alead-uni" not in out

    def test_markdown_table(self, capsys):
        assert main(["scenarios", "--markdown"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("| Scenario |")
        assert any(line.startswith("| `sync/ring` |") for line in out)
        # README's registered-scenarios table is this output, verbatim.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = readme.splitlines()
        start = lines.index(out[0])
        table = lines[start : start + len(out) + 1]
        assert table[:-1] == out
        assert not table[-1].startswith("|"), "README table has extra rows"
