"""The SQLite results store: the resume contract as a database.

The store's one promise is *equivalence with the JSONL file* —
importing an ``--out`` file and asking the database "what's done?" must
give byte-for-byte the resume keys ``parse_out_lines`` computes for the
file's rows, with the same tolerance for torn lines, foreign content,
and timed-out markers. On top of that: lossless round-trips, duplicate
suppression on the unique resume-key index, the transactional marker
lifecycle, canonical-params lookups, read-only refusal, the atomic
JSONL rendering, the ``StoreRowWriter`` adapter, concurrent
writer/reader WAL behaviour, and the ``db import``/``db export``/``db
stats``/``campaign --out results.db`` CLI paths.
"""

import json
import os
import sqlite3
import threading
from contextlib import closing

import pytest

from repro.cli import main
from repro.experiments import (
    ResultStore,
    StoreRowWriter,
    is_store_path,
    parse_out_lines,
    resume_key,
    retry_identity,
    row_resume_key,
    run_scenario,
)
from repro.experiments import store as store_mod
from repro.util.errors import ConfigurationError


def completed_keys(lines):
    """Resume keys of the completed rows among ``--out`` lines."""
    return {row.key for row in parse_out_lines(lines) if row.key is not None}


def synthetic_row(i, timed_out=False, successes=1):
    """A minimal row carrying full resume identity — fast to make in
    bulk, unlike real ``run_scenario`` rows."""
    row = {
        "scenario": "synthetic/point",
        "params": {"n": i},
        "trials": None if timed_out else 2,
        "base_seed": 0,
        "successes": successes,
    }
    if timed_out:
        row["timed_out"] = True
    return row


class TestIsStorePath:
    def test_store_suffixes_route_to_sqlite(self):
        assert is_store_path("results.db")
        assert is_store_path("results.sqlite")
        assert is_store_path("results.sqlite3")
        assert is_store_path("RESULTS.DB")  # case-insensitive

    def test_everything_else_stays_jsonl(self):
        assert not is_store_path("rows.jsonl")
        assert not is_store_path("rows.db.jsonl")
        assert not is_store_path("")
        assert not is_store_path(None)


class TestImportEquivalence:
    def test_imported_key_set_is_identical_to_the_parsed_keys(self, tmp_path):
        """The acceptance criterion: JSONL -> SQLite import -> resume
        lookup returns the identical key set, torn/foreign/timed-out
        lines and all."""
        rows = [
            run_scenario(
                "attack/basic-cheat", trials=2, base_seed=seed,
                params={"n": 8, "target": 2},
            ).to_row()
            for seed in (0, 1, 2)
        ]
        timed = dict(rows[0], trials=1, timed_out=True, base_seed=99)
        lines = [
            json.dumps(rows[0], sort_keys=True),
            "",
            json.dumps(timed, sort_keys=True),
            json.dumps(rows[1], sort_keys=True),
            "{\"foreign\": true}",
            json.dumps(rows[2], sort_keys=True)[:23],  # torn tail
        ]
        file_keys = completed_keys(lines)
        skips = []
        rows = parse_out_lines(
            lines,
            on_skip=lambda number, _l, reason: skips.append((number, reason)),
        )
        with ResultStore(str(tmp_path / "r.db")) as store:
            report = store.import_rows(rows)
            assert store.completed_keys() == file_keys
            assert store.pending_retries() == {
                retry_identity(
                    timed["scenario"], timed["params"], timed["base_seed"],
                    timed.get("max_steps"), timed.get("budget"),
                )
            }
        assert report == {
            "stored": 2, "duplicate": 0, "marker": 1, "superseded": 0,
        }
        assert skips == [(5, "not-a-row"), (6, "not-json")]

    def test_newline_terminated_and_blank_lines_import(self, tmp_path):
        """Lines as read from a file keep their newlines, and blank
        lines skip silently: every row still lands in the store."""
        path = str(tmp_path / "r.db")
        lines = [
            json.dumps(synthetic_row(i), sort_keys=True) for i in range(3)
        ]
        skips = []
        rows = parse_out_lines(
            [lines[0] + "\n", "   ", lines[1], lines[2] + "\n"],
            on_skip=lambda *skip: skips.append(skip),
        )
        with ResultStore(path) as store:
            store.import_rows(rows)
        with ResultStore(path, read_only=True) as store:
            assert store.completed_keys() == {
                row_resume_key(synthetic_row(i)) for i in range(3)
            }
        assert skips == []

    def test_round_trip_is_lossless(self, tmp_path):
        row = run_scenario(
            "honest/basic-lead", trials=3, params={"n": 6}
        ).to_row()
        with ResultStore(str(tmp_path / "r.db")) as store:
            assert store.append_row(row) == "stored"
            assert store.get(row_resume_key(row)) == row
            assert store.lookup("honest/basic-lead", {"n": 6}) == [row]

    def test_export_import_round_trip_keeps_the_key_set(self, tmp_path):
        """``db import -> db export`` (and an import of the export into
        a fresh store) preserve the key set exactly: completed rows keep
        their resume keys, timed-out markers keep their retry
        identities, and the exported file is resume-loader-compatible."""
        rows = [
            run_scenario(
                "attack/basic-cheat", trials=2, base_seed=seed,
                params={"n": 8, "target": 2},
            ).to_row()
            for seed in (0, 1)
        ]
        timed = dict(rows[0], trials=1, timed_out=True, base_seed=99)
        lines = [json.dumps(r, sort_keys=True) for r in rows + [timed]]
        with ResultStore(str(tmp_path / "a.db")) as store:
            store.import_rows(parse_out_lines(lines))
            exported = list(store.export_lines())
            file_keys = store.completed_keys()
            retries = store.pending_retries()
        # The exported file parses back to the same rows: the marker
        # completes nothing, completed rows keep their keys.
        assert completed_keys(exported) == file_keys
        with ResultStore(str(tmp_path / "b.db")) as merged:
            report = merged.import_rows(parse_out_lines(exported))
            assert report["stored"] == 2 and report["marker"] == 1
            assert merged.completed_keys() == file_keys
            assert merged.pending_retries() == retries
            # and the rows themselves survived byte-for-byte
            for row in rows:
                assert merged.get(row_resume_key(row)) == row

    def test_cli_db_export_default_path(self, tmp_path, capsys):
        rows_file = tmp_path / "rows.jsonl"
        row = synthetic_row(1)
        rows_file.write_text(json.dumps(row, sort_keys=True) + "\n")
        assert main(["db", "import", str(rows_file),
                     "--db", str(tmp_path / "r.db")]) == 0
        assert main(["db", "export", str(tmp_path / "r.db")]) == 0
        out = capsys.readouterr().out
        assert "1 line(s)" in out
        exported = (tmp_path / "r.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in exported] == [row]

    def test_cli_db_export_missing_store_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["db", "export", str(tmp_path / "nope.db")])

    def test_cli_db_export_failure_keeps_the_target(self, tmp_path):
        """Exporting a database that is not a results store must fail
        before the target is touched, not after truncating it."""
        foreign = tmp_path / "foreign.db"
        with closing(sqlite3.connect(str(foreign))) as con, con:
            con.execute("CREATE TABLE t (x)")
        keep = tmp_path / "keep.jsonl"
        keep.write_text('{"a":1}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["db", "export", str(foreign), "--out", str(keep)])
        assert "no such table: results" in str(excinfo.value.code)
        assert keep.read_text() == '{"a":1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "foreign.db", "keep.jsonl"
        ]

    def test_cli_db_export_refuses_to_overwrite_its_store(self, tmp_path):
        db = tmp_path / "r.db"
        with ResultStore(str(db)) as store:
            store.append_row(synthetic_row(1))
        before = db.read_bytes()
        with pytest.raises(SystemExit):
            main(["db", "export", str(db), "--out", str(db)])
        assert db.read_bytes() == before

    def test_duplicate_resume_keys_keep_the_first_copy(self, tmp_path):
        row = synthetic_row(1)
        with ResultStore(str(tmp_path / "r.db")) as store:
            assert store.append_row(row) == "stored"
            assert store.append_row(dict(row)) == "duplicate"
            assert store.stats()["completed"] == 1

    def test_lookup_aliases_numeric_param_spellings(self, tmp_path):
        """A query spelled ``n=8.0`` finds rows stored under ``n=8`` —
        the same canonicalisation resume keys apply."""
        row = synthetic_row(8)
        with ResultStore(str(tmp_path / "r.db")) as store:
            store.append_row(row)
            assert store.lookup("synthetic/point", {"n": 8.0}) == [row]
            store.append_row(synthetic_row(9.0))
            assert store.lookup("synthetic/point", {"n": 9})


class TestMarkerLifecycle:
    def test_completed_row_deletes_its_stale_marker(self, tmp_path):
        with ResultStore(str(tmp_path / "r.db")) as store:
            assert store.append_row(synthetic_row(1, timed_out=True)) == (
                "marker"
            )
            assert store.pending_retries()
            assert store.append_row(synthetic_row(1)) == "stored"
            assert store.pending_retries() == set()
            assert store.stats() == {
                "completed": 1, "timed_out": 0, "scenarios": 1,
            }

    def test_marker_after_completion_is_superseded(self, tmp_path):
        with ResultStore(str(tmp_path / "r.db")) as store:
            store.append_row(synthetic_row(1))
            assert store.append_row(synthetic_row(1, timed_out=True)) == (
                "superseded"
            )
            assert store.pending_retries() == set()

    def test_newer_marker_replaces_older_marker(self, tmp_path):
        with ResultStore(str(tmp_path / "r.db")) as store:
            store.append_row(synthetic_row(1, timed_out=True, successes=0))
            store.append_row(synthetic_row(1, timed_out=True, successes=5))
            assert store.stats()["timed_out"] == 1
            (marker,) = [
                json.loads(blob)
                for (blob,) in store._query(
                    "SELECT row FROM results WHERE timed_out = 1"
                )
            ]
            assert marker["successes"] == 5  # newest partial count wins

    def test_markers_never_satisfy_resume(self, tmp_path):
        with ResultStore(str(tmp_path / "r.db")) as store:
            store.append_row(synthetic_row(1, timed_out=True))
            assert store.completed_keys() == set()
            assert store.lookup("synthetic/point", {"n": 1}) == []


class TestOpenAndRefuse:
    def test_read_only_requires_an_existing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            ResultStore(str(tmp_path / "missing.db"), read_only=True)

    def test_read_only_refuses_writes_but_serves_reads(self, tmp_path):
        path = str(tmp_path / "r.db")
        with ResultStore(path) as store:
            store.append_row(synthetic_row(1))
        with ResultStore(path, read_only=True) as store:
            assert len(store.completed_keys()) == 1
            with pytest.raises(ConfigurationError, match="read-only"):
                store.append_row(synthetic_row(2))

    def test_foreign_file_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "not_a.db"
        path.write_text("this is a JSONL file, not SQLite\n" * 20)
        with pytest.raises(ConfigurationError, match="not a usable"):
            ResultStore(str(path))
        with ResultStore(str(path), read_only=True) as store:
            # Read-only opens skip the DDL, so the damage surfaces at
            # the first query — as the same error, not sqlite3's.
            with pytest.raises(ConfigurationError, match="not a usable"):
                store.completed_keys()

    def test_malformed_rows_raise_what_the_loaders_catch(self, tmp_path):
        with ResultStore(str(tmp_path / "r.db")) as store:
            with pytest.raises((ConfigurationError, KeyError, TypeError)):
                store.append_row({"unrelated": 1})


class TestRenderJsonl:
    def test_render_writes_the_export_and_reports_the_count(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("stale\n")
        with ResultStore(str(tmp_path / "r.db")) as store:
            for i in range(3):
                store.append_row(synthetic_row(i))
            assert store.render_jsonl(str(path)) == 3
            exported = list(store.export_lines())
        assert path.read_text().splitlines() == exported
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "r.db", "rows.jsonl"
        ]

    def test_failed_render_leaves_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "rows.jsonl"
        path.write_text("previous\n")

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        with ResultStore(str(tmp_path / "r.db")) as store:
            store.append_row(synthetic_row(1))
            monkeypatch.setattr(os, "replace", failing_replace)
            with pytest.raises(OSError):
                store.render_jsonl(str(path))
        assert path.read_text() == "previous\n"
        assert not (tmp_path / "rows.jsonl.render").exists()

    def test_append_and_render_round_trip(self, tmp_path):
        """Each rendering is the whole store, one newline-terminated
        line per row in insertion order; a row appended after a
        rendering is in the next one."""
        path = tmp_path / "rows.jsonl"
        with ResultStore(str(tmp_path / "r.db")) as store:
            for i in range(2):
                store.append_row(synthetic_row(i))
            assert store.render_jsonl(str(path)) == 2
            first = path.read_text()
            assert first == "".join(
                json.dumps(synthetic_row(i), sort_keys=True) + "\n"
                for i in range(2)
            )
            store.append_row(synthetic_row(2))
            assert store.render_jsonl(str(path)) == 3
        assert path.read_text() == (
            first + json.dumps(synthetic_row(2), sort_keys=True) + "\n"
        )

    def test_directory_fsynced_exactly_when_an_entry_changes(
        self, tmp_path, monkeypatch
    ):
        """Creating the store file adds a directory entry, and a
        rendering's rename replaces one; each must be fsynced or a
        crash can orphan the rows behind it. Reopening an existing store
        changes no entry — no directory fsync."""
        events = []
        real_replace = os.replace

        def replace(src, dst):
            events.append(("replace", dst))
            real_replace(src, dst)

        monkeypatch.setattr(
            store_mod, "fsync_directory", lambda p: events.append(("sync", p))
        )
        monkeypatch.setattr(os, "replace", replace)
        db = str(tmp_path / "r.db")
        with ResultStore(db) as store:
            store.append_row(synthetic_row(1))
        assert events == [("sync", str(tmp_path))]

        events.clear()
        path = str(tmp_path / "rows.jsonl")
        with ResultStore(db) as store:
            assert events == []
            store.render_jsonl(path)
        assert events == [("replace", path), ("sync", str(tmp_path))]


class TestStoreRowWriter:
    def test_adapter_speaks_the_rowwriter_interface(self, tmp_path):
        path = str(tmp_path / "r.db")
        lines = [
            json.dumps(synthetic_row(i), sort_keys=True) for i in range(3)
        ]
        writer = StoreRowWriter(path, store=ResultStore(path))
        assert writer.path == path
        for line in lines:
            writer.append(line)
        writer.close()
        with ResultStore(path, read_only=True) as store:
            assert store.completed_keys() == {
                row_resume_key(synthetic_row(i)) for i in range(3)
            }


class TestConcurrentWriterAndReader:
    def test_reader_polls_while_writer_appends(self, tmp_path):
        """WAL's whole point: a second connection reads a consistent,
        monotonically growing key set while the writer streams rows —
        neither blocks, nothing errors, nothing is lost."""
        path = str(tmp_path / "r.db")
        total = 50
        writer = ResultStore(path)
        reader = ResultStore(path, read_only=True)
        errors = []

        def write_all():
            try:
                for i in range(total):
                    writer.append_row(synthetic_row(i))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        thread = threading.Thread(target=write_all)
        thread.start()
        seen = 0
        try:
            while thread.is_alive():
                count = len(reader.completed_keys())
                assert count >= seen  # never goes backwards
                seen = count
        finally:
            thread.join()
        assert not errors
        assert len(reader.completed_keys()) == total
        writer.close()
        reader.close()


class TestCli:
    def _rows_file(self, tmp_path):
        rows = [synthetic_row(i) for i in range(4)]
        timed = synthetic_row(99, timed_out=True)
        path = tmp_path / "rows.jsonl"
        path.write_text(
            "\n".join(
                json.dumps(r, sort_keys=True) for r in rows + [timed]
            ) + "\ntorn {"
        )
        return path, rows

    def test_db_import_and_stats(self, tmp_path, capsys):
        rows_path, rows = self._rows_file(tmp_path)
        assert main(["db", "import", str(rows_path)]) == 0
        out = capsys.readouterr().out
        assert "4 stored" in out
        assert "1 timed-out marker(s)" in out
        assert "1 skipped" in out
        db_path = tmp_path / "rows.db"  # default: next to the JSONL
        assert db_path.exists()
        with ResultStore(str(db_path), read_only=True) as store:
            assert store.completed_keys() == {
                row_resume_key(r) for r in rows
            }
        assert main(["db", "stats", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "4 completed row(s)" in out
        assert "1 timed-out marker(s)" in out

    def test_db_export_of_a_run_store_rewrites_its_rendering(
        self, tmp_path, capsys
    ):
        """The documented recovery after a kill: ``db export
        rows.jsonl.db`` re-renders ``rows.jsonl`` itself."""
        out = tmp_path / "rows.jsonl"
        assert main(["sweep", "--scenario", "sync/broadcast", "--trials", "2",
                     "--param", "n=4,5", "--out", str(out)]) == 0
        rendered = out.read_text()
        out.write_text(rendered.splitlines()[0] + "\n")  # lagging rendering
        capsys.readouterr()
        assert main(["db", "export", str(tmp_path / "rows.jsonl.db")]) == 0
        assert f"to {out}: 2 line(s)" in capsys.readouterr().out
        assert out.read_text() == rendered
        assert not (tmp_path / "rows.jsonl.jsonl").exists()

    def test_db_import_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["db", "import", str(tmp_path / "absent.jsonl")])

    def test_campaign_out_db_resumes_without_rerunning(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 2,
            "entries": [
                {"scenario": "attack/basic-cheat",
                 "grid": {"n": [8, 12], "target": 2}},
            ],
        }))
        db = tmp_path / "rows.db"
        assert main(["campaign", str(manifest), "--out", str(db)]) == 0
        err = capsys.readouterr().err
        assert "ran 2 of 2 points" in err
        with ResultStore(str(db), read_only=True) as store:
            assert store.stats()["completed"] == 2
        assert main(
            ["campaign", str(manifest), "--out", str(db), "--resume"]
        ) == 0
        err = capsys.readouterr().err
        assert "ran 0 of 2 points" in err
        # A database target also matches the equivalent JSONL run
        # row-for-row, not just key-for-key.
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        jsonl_keys = completed_keys(out.read_text().splitlines())
        with ResultStore(str(db), read_only=True) as store:
            assert store.completed_keys() == jsonl_keys
            for key in jsonl_keys:
                assert row_resume_key(store.get(key)) == key

    def test_campaign_out_db_leaves_only_store_files(self, tmp_path, capsys):
        """A ``.db`` --out is self-contained: rows and observed costs
        both live in it, and nothing but SQLite's own files appears."""
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "trials": 2,
            "entries": [{"scenario": "sync/broadcast", "grid": {"n": 4}}],
        }))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["campaign", str(manifest), "--out",
                     str(out / "rows.db")]) == 0
        names = {p.name for p in out.iterdir()}
        assert "rows.db" in names
        assert names <= {"rows.db", "rows.db-wal", "rows.db-shm"}
        with ResultStore(str(out / "rows.db"), read_only=True) as store:
            assert store.load_chunker().scenarios() == ["sync/broadcast"]

    def test_sweep_out_db(self, tmp_path, capsys):
        db = tmp_path / "sweep.sqlite"
        assert main([
            "sweep", "--scenario", "attack/basic-cheat",
            "--param", "n=8,12", "--param", "target=2",
            "--trials", "2", "--out", str(db), "--resume",
        ]) == 0
        capsys.readouterr()
        with ResultStore(str(db), read_only=True) as store:
            # sweep writes fully resolved params (defaults included)
            assert store.completed_keys() == {
                resume_key(
                    "attack/basic-cheat",
                    {"cheater": 2, "n": n, "target": 2}, 2, 0,
                )
                for n in (8, 12)
            }


class TestImportTransaction:
    """``import_rows`` commits once per import, not once per row."""

    def test_a_failed_insert_leaves_no_row_of_the_import(self, tmp_path):
        path = str(tmp_path / "r.db")
        lines = [json.dumps(synthetic_row(i), sort_keys=True) for i in range(6)]
        with ResultStore(path) as store:
            store.append_row(synthetic_row(100))
        # Fail the 4th insert of the import with a genuine SQLite error.
        conn = sqlite3.connect(path)
        try:
            conn.execute(
                "CREATE TRIGGER fail_fourth BEFORE INSERT ON results "
                "WHEN NEW.params = '{\"n\": 3}' "
                "BEGIN SELECT RAISE(ABORT, 'injected fault'); END"
            )
            conn.commit()
        finally:
            conn.close()
        seen = []
        with ResultStore(path) as store:
            store.observer = seen.append
            with pytest.raises(sqlite3.Error, match="injected fault"):
                store.import_rows(parse_out_lines(lines))
            assert store.stats()["completed"] == 1  # only the earlier row
            assert seen == []  # nothing was reported for a rolled-back import

    def test_report_and_observer_outcomes_are_unchanged(self, tmp_path):
        lines = [
            json.dumps(synthetic_row(1), sort_keys=True),
            json.dumps(synthetic_row(1), sort_keys=True),
            json.dumps(synthetic_row(2, timed_out=True), sort_keys=True),
            json.dumps(synthetic_row(1, timed_out=True), sort_keys=True),
            json.dumps(synthetic_row(2), sort_keys=True),
            "not json {",
        ]
        seen = []
        skips = []
        rows = parse_out_lines(lines, on_skip=lambda *skip: skips.append(skip))
        with ResultStore(str(tmp_path / "r.db")) as store:
            store.observer = seen.append
            report = store.import_rows(rows)
            assert store.stats() == {
                "completed": 2, "timed_out": 0, "scenarios": 1,
            }
        assert report == {
            "stored": 2, "duplicate": 1, "marker": 1, "superseded": 1,
        }
        assert len(skips) == 1
        assert seen == ["stored", "duplicate", "marker", "superseded", "stored"]


class TestObserver:
    def test_observer_sees_every_append_outcome(self, tmp_path):
        """The ``store.observer`` hook feeds the
        ``repro_store_appends_total{outcome=}`` metric: one call per
        append, with the same disposition string ``append_row``
        returns."""
        seen = []
        with ResultStore(str(tmp_path / "r.db")) as store:
            store.observer = lambda outcome: seen.append(outcome)
            assert store.append_row(synthetic_row(1)) == "stored"
            assert store.append_row(synthetic_row(1)) == "duplicate"
            assert store.append_row(synthetic_row(2, timed_out=True)) == (
                "marker"
            )
            assert store.append_row(synthetic_row(1, timed_out=True)) == (
                "superseded"
            )
        assert seen == ["stored", "duplicate", "marker", "superseded"]

    def test_observer_errors_do_not_corrupt_the_store(self, tmp_path):
        """The hook is observability only: it runs outside the store
        lock and after the transaction committed, so a broken observer
        loses telemetry, not rows."""
        with ResultStore(str(tmp_path / "r.db")) as store:
            def explode(outcome):
                raise RuntimeError("metrics backend fell over")

            store.observer = explode
            with pytest.raises(RuntimeError):
                store.append_row(synthetic_row(1))
            store.observer = None
            # The row committed before the observer ran.
            assert store.append_row(synthetic_row(1)) == "duplicate"
            assert store.stats()["completed"] == 1
